"""Compare two aqlmr source trees job by job on one fixed corpus.

    python3 scripts/equivalence.py BASE_SRC CHANGE_SRC [--quick] [--rel R] [--out FILE]

Each of BASE_SRC and CHANGE_SRC is a directory holding the ``aqlmr``
package (a repository root is taken to mean its ``src``). The corpus is:

* ``tests/corpus.ALL_QUERIES``, the queries over the large L1 and L2
  arrays scaled down 64 times (coordinates and partition sizes);
* MEDIAN over every shape, with and without a ``where`` filter;
* the seed-1 queries of the four perfbench workloads
  (``perfbench/workloads.py``, only imported), on arrays of their sizes.

Every array is written once per data set, in a temporary directory: uniform
floats, zero-mean normal floats, an int64 ramp, int64 values near +-2**62,
1e15 plus normal noise, and uniform floats holding NaN, +-inf, 0.0 and -0.0.
Every query runs in naive, optimized and auto modes. ``--quick`` keeps the
small arrays' queries alone (no L1, L2 or perfbench arrays).

Each tree runs in its own subprocess (``PYTHONPATH=<tree>``), one data set
at a time. For each job the harness compares the ``repr`` and type of every
result, the six counters, the warnings, and the error's type and text. A
float that is not bit-equal is within the bound when it differs by at most
``--rel`` of the larger magnitude (default 0: only bit-equal floats pass),
else different; the worst relative difference is reported per query. It
prints the first differences and one summary line, writes the details as
JSON (``--out``), and exits 1 on any counter, type, warning or error
difference, or on a float difference beyond the bound.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCALE = 64  # the L1 and L2 queries' coordinates and partitions, divided
MODES = ("naive", "optimized", "auto")
DATASETS = ("uniform", "normal", "ramp", "near_2_62", "offset_1e15", "special")
INT_DATASETS = {"ramp", "near_2_62"}
SHOWN = 10  # differences printed before the summary

# name: (attribute, per-dimension (name, extent, chunk)); ragged chunks
SMALL_ARRAYS = {
    "A": ("val", (("x", 24, 5), ("y", 20, 7))),
    "B": ("val", (("t", 100, 7),)),
    "C": ("val", (("x", 6, 3), ("y", 7, 4), ("z", 8, 5))),
}
LARGE_ARRAYS = {name: ("Val", (("x", 512, 64), ("y", 512, 64))) for name in ("L1", "L2")}

MEDIAN_SHAPES = (
    "grid as (partition by x 5, y 3)",
    "fixed window as (partition by x 1 preceding and 2 following, y 2 preceding and 0 following stride 2)",
    "hierarchical as (radius 1 step 2)",
    "circular as (radius 2 step 1)",
)


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _scaled(text: str) -> str:
    """A query over L1 or L2 with its box corners and partition sizes
    divided by SCALE, the box's cells kept whole."""

    def box(m: re.Match) -> str:
        lo, hi = (int(c) // SCALE for c in m.group(2, 3)), (int(c) for c in m.group(4, 5))
        lo, hi = list(lo), [(c + 1) // SCALE - 1 for c in hi]
        return f"between ({m.group(1)}, {lo[0]}, {lo[1]}, {hi[0]}, {hi[1]})"

    text = re.sub(r"between \((L\d), (\d+), (\d+), (\d+), (\d+)\)", box, text)
    return re.sub(r"\b([xy]) 512\b", rf"\1 {512 // SCALE}", text)


def corpus(quick: bool):
    """(arrays, jobs): arrays by name as (attribute, dims), and jobs as
    (query text, mode, workers)."""
    queries = _load("corpus", ROOT / "tests" / "corpus.py").ALL_QUERIES
    arrays = dict(SMALL_ARRAYS)
    texts = [t for t in queries if not re.search(r"\bL\d\b", t)]
    for shape in MEDIAN_SHAPES:
        texts += [f"select median(val) from A {shape}", f"select median(val) from A where val > 0.3 {shape}"]
    texts += ["select median(val) from B grid as (partition by t 9)", "select median(val) from C hierarchical as (radius 0 step 1)"]
    jobs = [(t, 1) for t in texts]
    if not quick:
        arrays.update(LARGE_ARRAYS)
        jobs += [(_scaled(t), 1) for t in queries if re.search(r"\bL\d\b", t)]
        workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py").WORKLOADS
        for w in workloads.values():
            arrays[w.array] = ("val", (("x", w.extent, w.chunk), ("y", w.extent, w.chunk)))
            jobs += [(q.text, q.workers) for q in w.queries(1)]
    return arrays, [(text, mode, workers) for text, workers in jobs for mode in MODES]


def dataset(name: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if name == "uniform":
        return rng.random(n)
    if name == "normal":
        return rng.standard_normal(n)
    if name == "ramp":
        return np.arange(n, dtype=np.int64)
    if name == "near_2_62":
        return rng.choice([-(2**62), 2**62], n) + rng.integers(-1000, 1000, n)
    if name == "offset_1e15":
        return 1e15 + rng.standard_normal(n)
    values = rng.random(n)  # "special": a few cells of each value
    for value in (math.nan, math.inf, -math.inf, 0.0, -0.0):
        values[rng.integers(0, n, max(1, n // 500))] = value
    return values


def write_arrays(directory: Path, arrays: dict, name: str) -> None:
    """Each array's data and metadata files, filled from the data set."""
    rng = np.random.default_rng(DATASETS.index(name))
    element_type = "int64" if name in INT_DATASETS else "float64"
    for array, (attribute, dims) in arrays.items():
        n = math.prod(extent for _, extent, _ in dims)
        values = dataset(name, n, rng).astype("<i8" if element_type == "int64" else "<f8")
        values.tofile(directory / f"{array}.bin")
        meta = {
            "name": array,
            "element_type": element_type,
            "attribute": attribute,
            "order": "row-major",
            "dims": [{"name": d, "start": 0, "end": e - 1, "chunk": c} for d, e, c in dims],
        }
        (directory / f"{array}.meta.json").write_text(json.dumps(meta))


def worker(tree: str, data_dir: str, jobs_file: str, out_file: str) -> None:
    """Run the jobs on the arrays of ``data_dir`` with the tree's aqlmr and
    pickle one outcome per job: ("ok", values, counters, warnings) or
    ("error", type, text, warnings)."""
    import warnings

    import aqlmr

    if not Path(aqlmr.__file__).resolve().is_relative_to(Path(tree).resolve()):
        raise SystemExit(f"imported aqlmr from {aqlmr.__file__}, not from {tree}")
    catalog = aqlmr.Catalog.load_dir(data_dir)
    outcomes = []
    for text, mode, workers in json.loads(Path(jobs_file).read_text()):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                job = aqlmr.plan(aqlmr.analyze(aqlmr.parse(text), catalog), mode)
                result = aqlmr.run_job(job, workers=workers)
                outcome = ["ok", result.values, result.counters.snapshot()]
            except Exception as exc:  # every error is compared, never raised
                outcome = ["error", f"{type(exc).__module__}.{type(exc).__qualname__}", str(exc)]
        outcomes.append((*outcome, [f"{w.category.__name__}: {w.message}" for w in caught]))
    Path(out_file).write_bytes(pickle.dumps(outcomes, pickle.HIGHEST_PROTOCOL))


def run_tree(tree: Path, data_dir: Path, jobs_file: Path, out_file: Path) -> list:
    env = {**os.environ, "PYTHONPATH": str(tree)}
    argv = [sys.executable, __file__, "--worker", str(tree), str(data_dir), str(jobs_file), str(out_file)]
    subprocess.run(argv, env=env, check=True)
    return pickle.loads(out_file.read_bytes())


def compare(base, change, rel: float) -> tuple[list, float | None]:
    """The differences of one job, as (kind, detail), and the worst relative
    difference of its floats within the bound (None when all are bit-equal)."""
    diffs, worst = [], None
    if base[-1] != change[-1]:
        diffs.append(("warning", f"{base[-1]} != {change[-1]}"))
    if base[0] == "error" or change[0] == "error":
        if base[:3] != change[:3]:
            diffs.append(("error", f"{base[1:3] if base[0] == 'error' else 'ok'} != "
                          f"{change[1:3] if change[0] == 'error' else 'ok'}"))
        return diffs, worst
    (_, a, a_counters, _), (_, b, b_counters, _) = base, change
    for name in a_counters.keys() | b_counters.keys():
        if a_counters.get(name) != b_counters.get(name):
            diffs.append(("counter", f"{name} {a_counters.get(name)} != {b_counters.get(name)}"))
    if len(a) != len(b):
        return [*diffs, ("type", f"{len(a)} results != {len(b)}")], worst
    if repr(a) == repr(b):  # every value bit-equal, of the same type
        return diffs, worst
    for gid, (x, y) in enumerate(zip(a, b)):
        if type(x) is not type(y):
            diffs.append(("type", f"group {gid}: {x!r} != {y!r}"))
        elif repr(x) != repr(y):
            if not isinstance(x, float):
                r = math.inf
            else:  # 0.0 for signed zeros, NaN (never within) past inf or nan
                r = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
            if rel > 0 and r <= rel:
                worst = max(worst or 0.0, r)
            else:
                diffs.append(("value", f"group {gid}: {x!r} != {y!r}"))
    return diffs, worst


def _tree(path: str) -> Path:
    path = Path(path).resolve()
    return path / "src" if (path / "src" / "aqlmr").is_dir() else path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=_tree)
    parser.add_argument("change", type=_tree)
    parser.add_argument("--quick", action="store_true", help="the small arrays' queries only")
    parser.add_argument("--rel", type=float, default=0.0, help="relative float bound (default: exact)")
    parser.add_argument("--out", type=Path, default=Path("equivalence.json"))
    args = parser.parse_args(argv)
    arrays, jobs = corpus(args.quick)
    differences, worst_per_query = [], {}
    status = {"bit-equal": 0, "within": 0, "differing": 0}
    failing = 0  # jobs that fail in the base tree (each compared as any other)
    with tempfile.TemporaryDirectory(prefix="equivalence-") as tmp:
        tmp = Path(tmp)
        jobs_file = tmp / "jobs.json"
        jobs_file.write_text(json.dumps(jobs))
        for name in DATASETS:
            data_dir = tmp / name
            data_dir.mkdir()
            write_arrays(data_dir, arrays, name)
            base = run_tree(args.base, data_dir, jobs_file, tmp / "base.pickle")
            change = run_tree(args.change, data_dir, jobs_file, tmp / "change.pickle")
            for (text, mode, workers), a, b in zip(jobs, base, change):
                failing += a[0] == "error"
                diffs, worst = compare(a, b, args.rel)
                where = {"dataset": name, "mode": mode, "workers": workers, "query": text}
                differences += [{"kind": kind, "detail": detail, **where} for kind, detail in diffs]
                if worst is not None:
                    worst_per_query[text] = max(worst_per_query.get(text, 0.0), worst)
                status["differing" if diffs else "bit-equal" if worst is None else "within"] += 1
            for data in data_dir.iterdir():  # before the next data set is written
                data.unlink()
    kinds = ("counter", "type", "warning", "error", "value")
    counts = {kind: sum(d["kind"] == kind for d in differences) for kind in kinds}
    summary = (
        f"equivalence: {sum(status.values())} jobs ({failing} failing in the base): "
        f"{status['bit-equal']} bit-equal, {status['within']} within rel {args.rel:g}, "
        f"{status['differing']} differing; differences: "
        + ", ".join(f"{n} {kind}" for kind, n in counts.items())
    )
    for d in differences[:SHOWN]:
        print(f"{d['kind']}: {d['detail']} | {d['dataset']} {d['mode']} | {d['query']}")
    print(summary)
    report = {
        "summary": summary,
        "base": str(args.base),
        "change": str(args.change),
        "rel": args.rel,
        "jobs": status,
        "counts": counts,
        "worst_rel_per_query": worst_per_query,
        "differences": differences,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if differences else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:6])
    else:
        sys.exit(main())
