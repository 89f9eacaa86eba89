"""The traced run: per-layer time and work, measured from outside the program.

Four traced passes follow the untraced loop in the same process:

1. the first half of the untraced loop's queries again, with spans around
   ``parse``, ``analyze``, ``plan`` and ``run_job``; the difference from the
   same queries untraced is the tracing overhead;
2. once per distinct query, a re-enactment of ``run_job`` from the engine's
   own public stages: ``compute_splits``, ``build_membership``,
   ``naive_map``/``optimized_map`` per split, ``shuffle``, and
   ``naive_reduce``/``optimized_reduce`` per group;
3. on the same splits and groups, each layer called alone: drain
   ``read_split``, apply ``ValuePredicate.mask``, call the compiled
   membership, fold with ``update_in_map``, merge with ``update_in_reduce``,
   finish with ``get_agg_result`` or ``holistic_result``;
4. one in-process ``aqlmr.cli.main(["run", ...])`` with output captured.

Results of passes 1 and 2 and the exit code of pass 4 are checked like the
untraced loop's. Span names are ``<module>.<call>``; a module's self time is
the time its spans do not hand to child spans. Inside a map task the engine
runs storage, predicate, grouping and aggregates code that pass 3 times
again on its own, so ``engine.self_ms`` includes that work.
"""

from __future__ import annotations

import io
import statistics
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import compress

import numpy as np

from tracing import Tracer
from worker import Loop, closed_loop

LAYERS = ("frontend", "planner", "storage", "predicate", "grouping", "aggregates", "engine", "cli")

UNITS = {
    "frontend.parse_us": "us",
    "frontend.analyze_us": "us",
    "planner.plan_us": "us",
    "grouping.build_membership_us": "us",
    "storage.compute_splits_us": "us",
    "storage.splits": "count",
    "engine.fixed_overhead_ms": "ms",
    "storage.read_s": "s",
    "storage.read_mb_per_s": "MB/s",
    "storage.bytes_read": "B",
    "storage.cells_scanned": "count",
    "storage.cells_kept": "count",
    "storage.keep_ratio": "ratio",
    "predicate.mask_s": "s",
    "grouping.membership_s": "s",
    "grouping.memberships": "count",
    "grouping.memberships_per_cell": "ratio",
    "grouping.memberships_per_s": "1/s",
    "aggregates.fold_s": "s",
    "aggregates.folds_per_s": "1/s",
    "engine.map_s": "s",
    "engine.map_split_p50_ms": "ms",
    "engine.map_split_max_ms": "ms",
    "engine.shuffle_s": "s",
    "engine.map_output_records": "count",
    "engine.bytes_shuffled": "B",
    "engine.shuffle_groups": "count",
    "engine.combine_ratio": "ratio",
    "engine.reduce_s": "s",
    "engine.reduce_input_records": "count",
    "aggregates.merge_s": "s",
    "aggregates.result_s": "s",
    "cli.run_ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.overhead_ms": "ms",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def reenact_job(api, engine, job, tracer: Tracer):
    """run_job's stages, each in a span; returns (values, counters, splits,
    membership, grouped)."""
    agg = api.default_registry().get(job.query.aggregator)
    optimized = job.mode == "optimized"
    predicate = job.query.predicate
    with tracer.span("storage.compute_splits"):
        splits = api.compute_splits(job.query.array, job.splits.box, job.splits.data_path)
    with tracer.span("grouping.build_membership"):
        membership = api.build_membership(job.geometry)
    counters = api.Counters()
    outputs = []
    for split in splits:
        with tracer.span("engine.map_split"):
            if optimized:
                out = engine.optimized_map(split, membership, agg, predicate, counters)
            else:
                out = engine.naive_map(split, membership, predicate, counters)
        outputs.append(out)
    value_bytes = engine.summary_value_bytes(agg) if optimized else engine.RAW_VALUE_BYTES
    with tracer.span("engine.shuffle"):
        grouped = engine.shuffle(outputs, counters, value_bytes=value_bytes)
    reduce = engine.optimized_reduce if optimized else engine.naive_reduce
    values: list = [None] * job.geometry.group_count
    with tracer.span("engine.reduce"):
        for gid, items in grouped:
            counters.add("reduce_input_records", len(items))
            values[gid] = reduce(gid, items, agg)
    return values, counters, splits, membership, grouped


def layer_pass(api, job, splits, membership, grouped, tracer: Tracer) -> dict[str, int]:
    """Call each layer alone on the job's splits and groups; returns counts."""
    agg = api.default_registry().get(job.query.aggregator)
    predicate = job.query.predicate
    counters = api.Counters()
    kept = memberships = 0
    for split in splits:
        with tracer.span("storage.read_split"):
            records = list(api.read_split(split, None, counters))
        if predicate is not None:
            values = np.fromiter((r.value for r in records), np.float64, len(records))
            with tracer.span("predicate.mask"):
                keep = predicate.mask(values)
            records = list(compress(records, keep.tolist()))
        kept += len(records)
        with tracer.span("grouping.membership"):
            gids = [membership(r.coord) for r in records]
        memberships += sum(map(len, gids))
        if job.mode == "optimized":
            acc: dict = {}
            identity, update = agg.identity, agg.update_in_map
            with tracer.span("aggregates.fold"):
                for record, ids in zip(records, gids):
                    for gid in ids:
                        summary = acc.get(gid)
                        if summary is None:
                            summary = acc[gid] = identity()
                        update(summary, record.value)
    if agg.algebraic:
        # optimized reducers merge summaries; naive ones fold raw values
        combine = agg.update_in_reduce if job.mode == "optimized" else agg.update_in_map
        with tracer.span("aggregates.merge"):
            merged = []
            for _, items in grouped:
                summary = agg.identity()
                for item in items:
                    combine(summary, item)
                merged.append(summary)
        with tracer.span("aggregates.result"):
            for summary in merged:
                agg.get_agg_result(summary)
    else:
        with tracer.span("aggregates.result"):
            for _, items in grouped:
                agg.holistic_result(items)
    return {
        "bytes_read": counters.snapshot()["bytes_read"],
        "cells_kept": kept,
        "memberships": memberships,
        "folds": memberships if job.mode == "optimized" else 0,
    }


def traced_run(api, catalog, queries, job_doc: dict, untraced: Loop) -> tuple[dict, Loop]:
    """Make the traced passes; returns the per-layer metrics (name -> value)
    and the checks of the traced queries."""
    import aqlmr.cli as cli
    import aqlmr.engine as engine

    tracer = Tracer()
    # the first half of the untraced loop's queries again, so the traced run
    # stays well inside the time limit
    count = (len(untraced.times) + 1) // 2
    checks = closed_loop(api, catalog, queries, 0, count=count, tracer=tracer)
    overhead = (sum(checks.times) - sum(untraced.times[:count])) / count

    totals: Counter = Counter()
    for index, query in enumerate(queries):
        tracer.query = f"layers:{index}"
        checks.attempted += 1
        try:
            with tracer.span("harness.query"):
                with tracer.span("frontend.parse"):
                    ast = api.parse(query.text)
                with tracer.span("frontend.analyze"):
                    resolved = api.analyze(ast, catalog)
                with tracer.span("planner.plan"):
                    job = api.plan(resolved, query.mode)
                with tracer.span("engine.job"):
                    values, counters, splits, membership, grouped = reenact_job(
                        api, engine, job, tracer
                    )
                with tracer.span("harness.layers"):
                    counts = layer_pass(api, job, splits, membership, grouped, tracer)
        except Exception as exc:  # a query that raises counts as failed
            checks.fail(f"traced query {index} ({query.text}): {type(exc).__name__}: {exc}")
            continue
        checks.check(index, query, api.JobResult(values, counters))
        snap = counters.snapshot()
        del snap["bytes_read"]  # the layer pass counts its own
        totals.update(snap)
        totals.update(counts)
        totals["splits"] += len(splits)

    first = queries[0]
    tracer.query = "cli"
    argv = ["run", "--query", first.text, "--data-dir", job_doc["data_dir"]]
    argv += ["--mode", first.mode, "--workers", str(first.workers)]
    checks.attempted += 1
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    if code != 0:
        checks.fail(f"cli run exited {code}: {err.getvalue().strip()}")

    tracer.write(job_doc["trace_out"], job_doc["header"])
    return _metrics(tracer, totals, len(queries), overhead), checks


def _metrics(tracer: Tracer, totals: dict, n: int, overhead: float) -> dict[str, float]:
    def per_query_s(name: str) -> float:
        return sum(tracer.durations(name, "layers:")) / n

    def median_us(name: str) -> float:
        return statistics.median(tracer.durations(name, "loop:")) * 1e6

    split_ms = [t * 1e3 for t in tracer.durations("engine.map_split", "layers:")]
    read_s = per_query_s("storage.read_split")
    membership_s = per_query_s("grouping.membership")
    fold_s = per_query_s("aggregates.fold")
    cells = totals["bytes_read"] / 8
    self_s = tracer.self_times("layers:")
    out = {
        "frontend.parse_us": median_us("frontend.parse"),
        "frontend.analyze_us": median_us("frontend.analyze"),
        "planner.plan_us": median_us("planner.plan"),
        "grouping.build_membership_us": per_query_s("grouping.build_membership") * 1e6,
        "storage.compute_splits_us": per_query_s("storage.compute_splits") * 1e6,
        "storage.splits": totals["splits"] / n,
        "engine.fixed_overhead_ms": statistics.median(
            tracer.samples["engine.fixed_overhead_s"]
        )
        * 1e3,
        "storage.read_s": read_s,
        "storage.read_mb_per_s": _ratio(totals["bytes_read"] / n / 1e6, read_s),
        "storage.bytes_read": totals["bytes_read"] / n,
        "storage.cells_scanned": cells / n,
        "storage.cells_kept": totals["cells_kept"] / n,
        "storage.keep_ratio": _ratio(totals["cells_kept"], cells),
        "predicate.mask_s": per_query_s("predicate.mask"),
        "grouping.membership_s": membership_s,
        "grouping.memberships": totals["memberships"] / n,
        "grouping.memberships_per_cell": _ratio(totals["memberships"], totals["cells_kept"]),
        "grouping.memberships_per_s": _ratio(totals["memberships"] / n, membership_s),
        "aggregates.fold_s": fold_s,
        "aggregates.folds_per_s": _ratio(totals["folds"] / n, fold_s),
        "engine.map_s": sum(split_ms) / 1e3 / n,
        "engine.map_split_p50_ms": statistics.median(split_ms),
        "engine.map_split_max_ms": max(split_ms),
        "engine.shuffle_s": per_query_s("engine.shuffle"),
        "engine.map_output_records": totals["map_output_records"] / n,
        "engine.bytes_shuffled": totals["bytes_shuffled"] / n,
        "engine.shuffle_groups": totals["shuffle_groups"] / n,
        "engine.combine_ratio": _ratio(totals["memberships"], totals["map_output_records"]),
        "engine.reduce_s": per_query_s("engine.reduce"),
        "engine.reduce_input_records": totals["reduce_input_records"] / n,
        "aggregates.merge_s": per_query_s("aggregates.merge"),
        "aggregates.result_s": per_query_s("aggregates.result"),
        "cli.run_ms": sum(tracer.durations("cli.main")) * 1e3,
        "trace.overhead_ms": overhead * 1e3,
    }
    for layer in LAYERS[:-1]:
        out[f"{layer}.self_ms"] = self_s.get(layer, 0.0) / n * 1e3
    out["cli.self_ms"] = tracer.self_times("cli")["cli"] * 1e3  # one run
    return out
