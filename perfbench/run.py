"""Benchmark entry point for aqlmr.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's array and query list from the seed, times set-up
(data generation plus ``Catalog.load_dir``), computes reference results with
the independent numpy oracle in ``tests/oracles.py``, then runs the queries
for S seconds in a fresh worker process (worker.py). Wall times of set-up
and queries are scaled to a reference host speed (hostspeed.py). With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run (layers.py), and the spans go to ``.perfbench/traces/``.
The line before it records the seed, the machine, the host speed and the
unscaled wall times. The exit code is 0 when every result matched the
reference and every pinned counter held, 1 otherwise, and 2 when the program
or the oracle is missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from hostspeed import REFERENCE_S, calibrate, scale
from layers import UNITS as PER_LAYER_UNITS
from workloads import HOLISTIC, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 170  # a run must end within 180 s
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 0.5
SETUP_MAX_REPEATS = 200

END_TO_END_UNITS = {
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "scan_cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "shuffle_bytes_per_query": "B",
    "read_bytes_per_query": "B",
}


class MissingProgram(Exception):
    pass


def load_program(root: Path):
    """Import aqlmr from root/src and the oracle from root/tests, never from
    anywhere else on the path."""
    src = root / "src"
    oracle_path = root / "tests" / "oracles.py"
    if not (src / "aqlmr" / "__init__.py").is_file() or not oracle_path.is_file():
        raise MissingProgram(f"no aqlmr sources or oracle under {root}")
    sys.path.insert(0, str(src))
    import aqlmr

    if Path(aqlmr.__file__).resolve().parent != (src / "aqlmr").resolve():
        raise MissingProgram(f"imported aqlmr from {aqlmr.__file__}, not {src}")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", oracle_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return aqlmr, oracles


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(ROOT),
    }


def _git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; "unknown" outside a
    repository."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def setup(aqlmr, workload: Workload, seed: int, data_dir: Path):
    """Generate the array, write it and load the catalog; returns the cell
    values and the wall time."""
    t0 = perf_counter()
    values = workload.values(seed)
    top = workload.extent - 1
    dims = tuple(aqlmr.DimSpec(d, 0, top, workload.chunk) for d in "xy")
    schema = aqlmr.ArraySchema(workload.array, "float64", "val", dims)
    aqlmr.write_array(schema, values, data_dir / f"{workload.array}.bin")
    aqlmr.save_schema(schema, aqlmr.meta_path_for(data_dir, workload.array))
    aqlmr.Catalog.load_dir(data_dir)
    return values, perf_counter() - t0


def timed_setup(aqlmr, workload: Workload, seed: int, data_dir: Path):
    """Set up repeatedly, with a calibration between set-ups; returns the
    values, the median set-up time scaled to the reference host speed, and
    the median raw set-up time."""
    times: list[float] = []
    raw: list[float] = []
    before = calibrate()
    while len(times) < SETUP_MAX_REPEATS and (
        len(times) < SETUP_MIN_REPEATS or sum(raw) < SETUP_MIN_S
    ):
        values, elapsed = setup(aqlmr, workload, seed, data_dir)
        after = calibrate()
        times.append(elapsed * scale(before, after))
        raw.append(elapsed)
        before = after
    return values, statistics.median(times), statistics.median(raw)


def write_job(
    oracles, workload: Workload, seed: int, values, work: Path, seconds, trace, traces: Path
) -> Path:
    """Reference results and expected counters for every query, and the job
    file the worker reads."""
    queries, refs = [], {}
    for i, q in enumerate(workload.queries(seed)):
        groups = oracles.group_value_lists(values, q.lo, q.hi, **q.oracle_kwargs())
        expected = oracles.expected_results(q.agg, groups)
        refs[f"q{i}"] = np.array(expected, dtype=np.float64)
        counters = {"bytes_read": q.box_cells * 8}
        if q.mode == "naive" or (q.mode == "auto" and q.agg in HOLISTIC):
            counters["map_output_records"] = oracles.naive_emission_count(groups)
        if q.whole:
            counters.update(workload.pins)
        queries.append(
            {"text": q.text, "mode": q.mode, "workers": q.workers, "counters": counters}
        )
    np.savez(work / "refs.npz", **refs)
    traces.mkdir(parents=True, exist_ok=True)
    job = {
        "src": str(ROOT / "src"),
        "data_dir": str(work / "data"),
        "refs": str(work / "refs.npz"),
        "result": str(work / "result.json"),
        "trace_out": str(traces / f"{workload.name}-seed{seed}.jsonl"),
        "header": {"workload": workload.name, **environment(seed)},
        "seconds": seconds,
        "trace": trace,
        "queries": queries,
    }
    path = work / "job.json"
    path.write_text(json.dumps(job))
    return path


def run_worker(job_path: Path, timeout: float) -> dict:
    worker = Path(__file__).resolve().parent / "worker.py"
    proc = subprocess.run(
        [sys.executable, str(worker), str(job_path)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    job = json.loads(job_path.read_text())
    return json.loads(Path(job["result"]).read_text())


def percentiles_ms(times: list[float]) -> tuple[float, float]:
    """Median and 90th percentile, in milliseconds."""
    times_ms = [t * 1e3 for t in times]
    return (
        statistics.median(times_ms),
        statistics.quantiles(times_ms, n=10, method="inclusive")[8],
    )


def end_to_end(raw: dict, setup_s: float) -> dict[str, float]:
    p50, p90 = percentiles_ms(raw["times"])
    return {
        "query_p50_ms": p50,
        "query_p90_ms": p90,
        "scan_cells_per_s": raw["cells_scanned"] / sum(raw["times"]),
        "setup_s": setup_s,
        "peak_rss_mb": raw["peak_rss_mb"],
        "shuffle_bytes_per_query": raw["shuffle_bytes_per_query"],
        "read_bytes_per_query": raw["read_bytes_per_query"],
    }


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    *,
    traces: Path = ROOT / ".perfbench" / "traces",
    corrupt=None,
):
    """One benchmark run in the scratch directory ``work``; returns the
    result line and a record of the host speed and the unscaled times.
    Spans of a traced run go to ``traces``. ``corrupt``, when given, edits
    the reference arrays before the worker starts."""
    started = perf_counter()
    aqlmr, oracles = load_program(ROOT)
    data_dir = work / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    values, setup_s, raw_setup_s = timed_setup(aqlmr, workload, seed, data_dir)
    job_path = write_job(oracles, workload, seed, values, work, seconds, int(trace), traces)
    if corrupt is not None:
        with np.load(work / "refs.npz") as f:
            refs = dict(f)
        corrupt(refs)
        np.savez(work / "refs.npz", **refs)
    raw = run_worker(job_path, TIME_LIMIT_S - (perf_counter() - started))
    for message in raw["errors"]:
        print(f"wrong result: {message}", file=sys.stderr)
    for message in raw["drift"]:
        print(f"counter drift: {message}", file=sys.stderr)
    if trace:
        values, units = raw["layers"], PER_LAYER_UNITS
    else:
        values, units = end_to_end(raw, setup_s), END_TO_END_UNITS
    raw_p50, raw_p90 = percentiles_ms(raw["raw_times"])
    host = {
        "reference_calibration_ms": REFERENCE_S * 1e3,
        "calibration_ms": statistics.median(raw["calibrations"]) * 1e3,
        "calibrations": len(raw["calibrations"]),
        "unscaled": {
            "query_p50_ms": raw_p50,
            "query_p90_ms": raw_p90,
            "scan_cells_per_s": raw["cells_scanned"] / sum(raw["raw_times"]),
            "setup_s": raw_setup_s,
        },
    }
    line = {
        "correct": raw["failed"] == 0 and not raw["drift"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return line, host


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so subprocess.run kills and reaps the worker and the
    # scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        line, host = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"env": environment(args.seed), "host": host}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
