"""Command-line driver.

Subcommands:

* gen-data: write a dense array file plus its metadata sidecar.
* explain: parse and resolve a query, print what it will compute.
* translate: compile a query to a parameter file for later runs.
* run: execute a query or a parameter file, print results and counters.
* bench: run a query once in each mode and report the shuffle and
  map-output savings of the optimized plan.

Exit codes: 0 success, 2 bad usage or parse error, 3 semantic or config
error, 4 runtime failure (missing files, data errors, result divergence).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

from .aggregates import AggregateError
from .engine import EngineError, run_job
from .frontend import ParseError, SemanticError, analyze, explain, parse
from .frontend.parser import parse_int
from .grouping import group_extent_texts
from .planner import (
    ConfigError,
    PlanError,
    emit_param_config,
    load_param_config,
    plan,
    render_plan,
)
from .storage import (
    ArraySchema,
    Catalog,
    DimSpec,
    StoreError,
    generate_array,
    meta_path_for,
    save_schema,
)

_DEFAULT_DIM_NAMES = ("x", "y", "z", "w")


def _dim_names(ndim: int, spec: str | None) -> list[str]:
    if spec:
        names = [n.strip() for n in spec.split(",")]
        if len(names) != ndim or not all(names):
            raise StoreError(f"--dim-names needs {ndim} comma-separated names")
        return names
    return [
        _DEFAULT_DIM_NAMES[i] if i < len(_DEFAULT_DIM_NAMES) else f"d{i}"
        for i in range(ndim)
    ]


def _parse_sizes(text: str, what: str) -> list[int]:
    # each size is read as query text reads an integer: "+8" and "1_6" fail
    try:
        sizes = [parse_int(part) for part in text.lower().split("x")]
    except ParseError:
        raise StoreError(f"bad {what} {text!r} (want e.g. 1024x1024)") from None
    if not sizes or any(s < 1 for s in sizes):
        raise StoreError(f"bad {what} {text!r} (sizes must be >= 1)")
    return sizes


def _integer_at_least(text: str, what: str, least: int) -> int:
    """An integer as query text writes one, at least ``least``."""
    try:
        value = parse_int(text)
    except ParseError:
        value = least - 1
    if value < least:
        raise StoreError(f"bad {what} {text!r} (want an integer >= {least})")
    return value


def _check_workers(text: str) -> None:
    """Check a --workers count, at least 1. The engine is serial, so the
    count selects nothing; it is still checked so that existing scripts
    keep working and typos keep failing."""
    _integer_at_least(text, "--workers count", 1)


def _cmd_gen_data(args: argparse.Namespace) -> int:
    seed = _integer_at_least(args.seed, "--seed", 0)
    extents = _parse_sizes(args.dims, "--dims")
    chunks = _parse_sizes(args.chunk, "--chunk")
    if len(chunks) != len(extents):
        raise StoreError("--chunk must have the same number of dimensions as --dims")
    names = _dim_names(len(extents), args.dim_names)
    dims = tuple(
        DimSpec(name, 0, extent - 1, chunk)
        for name, extent, chunk in zip(names, extents, chunks)
    )
    schema = ArraySchema(args.name, args.element_type, args.attribute, dims)
    out_dir = Path(args.out_dir)
    data_path = out_dir / f"{schema.name}.bin"
    generate_array(schema, args.fill, data_path, seed=seed)
    meta_path = save_schema(schema, meta_path_for(out_dir, schema.name))
    print(f"wrote {data_path} ({schema.nbytes} bytes) and {meta_path}")
    return 0


def _resolve_query(text: str, data_dir: str):
    catalog = Catalog.load_dir(data_dir)
    return analyze(parse(text), catalog)


def _plan_with_warnings(query, mode: str):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        job = plan(query, mode)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return job


def _cmd_explain(args: argparse.Namespace) -> int:
    query = _resolve_query(args.query, args.data_dir)
    print(explain(query))
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    _check_workers(args.workers)
    query = _resolve_query(args.query, args.data_dir)
    job = _plan_with_warnings(query, args.mode)
    print(explain(query))
    print(render_plan(job))
    out = emit_param_config(job, args.out)
    print(f"wrote {out}")
    return 0


def _finite(value):
    """``value``, or for a non-finite float the string "inf", "-inf" or
    "nan", which strict JSON can hold."""
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def _write_report(path: str, doc: dict) -> None:
    # compact: with indent, json.dumps falls back to its pure-Python encoder
    Path(path).write_text(json.dumps(doc, allow_nan=False) + "\n")
    print(f"report: {path}")


def _print_run(result, geom) -> None:
    non_empty = sum(1 for v in result.values if v is not None)
    print(f"groups: {geom.group_count}")
    print(f"non-empty: {non_empty}")
    if geom.group_count <= 32:
        for gid, (extent, value) in enumerate(zip(group_extent_texts(geom), result.values)):
            text = "null" if value is None else repr(value)
            print(f"group {gid} {extent}: {text}")
    for name, count in result.counters.snapshot().items():
        print(f"{name}: {count}")
    print(f"wall time: {result.timings['total']:.3f}s")


def _cmd_run(args: argparse.Namespace) -> int:
    _check_workers(args.workers)
    if args.config:
        catalog = Catalog.load_dir(args.data_dir) if args.data_dir else None
        job = load_param_config(args.config, catalog)
        query_text = None
    else:
        query = _resolve_query(args.query, args.data_dir)
        job = _plan_with_warnings(query, args.mode)
        query_text = args.query
    result = run_job(job)
    _print_run(result, job.geometry)
    if args.report:
        doc = {
            "query": query_text,
            "template": job.template_id,
            "mode": job.mode,
            "group_count": job.geometry.group_count,
            "groups": [
                {"id": gid, "extent": extent, "value": value}
                for gid, (extent, value) in enumerate(
                    zip(group_extent_texts(job.geometry), map(_finite, result.values))
                )
            ],
            "counters": result.counters.snapshot(),
            "timings": {name: _finite(t) for name, t in result.timings.items()},
        }
        _write_report(args.report, doc)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    for count in args.workers.split(","):
        _check_workers(count)
    query = _resolve_query(args.query, args.data_dir)
    agg = query.agg
    if not agg.algebraic:
        raise SemanticError(
            f"{agg.name} is holistic; a holistic aggregator cannot run optimized, "
            "so there is nothing to compare"
        )

    runs: dict[str, dict] = {}
    for mode in ("naive", "optimized"):
        result = run_job(plan(query, mode))
        print(f"mode={mode}: total {result.timings['total']:.3f}s")
        runs[mode] = {
            "values": result.values,
            "counters": result.counters.snapshot(),
            "time": result.timings["total"],
        }

    naive_vals = runs["naive"]["values"]
    opt_vals = runs["optimized"]["values"]
    for gid, (a, b) in enumerate(zip(naive_vals, opt_vals)):
        if a is None and b is None:
            continue
        if a is None or b is None:
            raise EngineError(f"group {gid}: modes disagree on emptiness")
        tol = 1e-9 * max(abs(a), abs(b), 1.0)  # an inf or nan tol would pass anything
        if not (a == b or a != a and b != b or math.isfinite(tol) and abs(a - b) <= tol):
            raise EngineError(
                f"group {gid}: naive {a!r} and optimized {b!r} diverge beyond 1e-9"
            )

    ratios = {}
    for counter in ("map_output_records", "bytes_shuffled"):
        naive_c = runs["naive"]["counters"][counter]
        opt_c = runs["optimized"]["counters"][counter]
        ratios[counter] = naive_c / opt_c if opt_c else 1.0  # naive emits nothing either
        print(f"{counter} ratio (naive/optimized): {ratios[counter]:.2f}")

    if args.report:
        doc = {
            "query": args.query,
            "modes": {
                mode: {"counters": info["counters"], "time": _finite(info["time"])}
                for mode, info in runs.items()
            },
            "ratios": {name: _finite(r) for name, r in ratios.items()},
        }
        _write_report(args.report, doc)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqlmr",
        description="Translate structural aggregation queries over dense arrays "
        "to map/reduce jobs and run them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate an array data file and metadata")
    p.add_argument("--name", required=True)
    p.add_argument("--dims", required=True, help="extents, e.g. 1024x1024")
    p.add_argument("--chunk", required=True, help="chunk shape, e.g. 16x16")
    p.add_argument("--element-type", choices=("float64", "int64"), default="float64")
    p.add_argument("--attribute", default="val")
    p.add_argument("--dim-names", default=None, help="comma-separated, e.g. x,y")
    p.add_argument("--fill", default="ramp", help="ramp, uniform, or constant:<c>")
    p.add_argument("--seed", default="0")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("explain", help="show what a query resolves to")
    p.add_argument("query")
    p.add_argument("--data-dir", required=True)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("translate", help="compile a query to a parameter file")
    p.add_argument("query")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--mode", choices=("auto", "naive", "optimized"), default="auto")
    p.add_argument("--workers", default="1", help="checked, no effect")
    p.add_argument("--out", required=True, help="parameter file to write")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("run", help="execute a query or a parameter file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--query")
    group.add_argument("--config", help="parameter file from translate")
    p.add_argument("--data-dir", default=None)
    p.add_argument("--mode", choices=("auto", "naive", "optimized"), default="auto")
    p.add_argument("--workers", default="1", help="checked, no effect")
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="compare naive and optimized runs")
    p.add_argument("query")
    p.add_argument("--data-dir", required=True)
    p.add_argument(
        "--workers", default="1", help="comma-separated counts, e.g. 1,2,4 (checked, no effect)"
    )
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.command == "run" and args.query and not args.data_dir:
            parser.error("--query needs --data-dir")
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SemanticError, ConfigError, PlanError, AggregateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (StoreError, EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
