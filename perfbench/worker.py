"""Run one workload's queries in a fresh process and write what was measured.

Usage: python3 perfbench/worker.py JOB.json

The job file (written by run.py) names the data directory, the queries, the
reference results and the counters each query must reproduce. The worker
runs the queries as a closed loop with one client: the next query starts
when the previous one has returned and been checked. Wall time runs from
``parse`` through ``run_job``; checks happen outside it. Between queries,
at least every CALIBRATE_EVERY_S, the worker times the fixed work of
hostspeed.py and scales the wall times in between to the reference host
speed (raw times are kept too). With ``trace`` set it also makes the traced
run (see layers.py). The result goes to the job's ``result`` path as JSON. Running in its own process lets ``peak_rss_mb``
cover the queries and not the data generation or the reference.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from hostspeed import REFERENCE_S, calibrate, scale

REL_TOL = 1e-9
MAX_ERRORS = 5
MIN_SAMPLES = 3
CALIBRATE_EVERY_S = 0.3
CALIBRATION_SHARE = 0.07  # of the time measured since the last calibration


def mismatch(values: list, expected: np.ndarray) -> str | None:
    """Why the engine's group values differ from the reference (None stands
    for an empty group on both sides), or None when they agree within
    REL_TOL relative."""
    got = np.array(values, dtype=np.float64)
    if got.shape != expected.shape:
        return f"{got.size} groups, reference has {expected.size}"
    empty = np.isnan(expected)
    bad = np.isnan(got) != empty
    tol = REL_TOL * np.maximum(np.maximum(np.abs(got), np.abs(expected)), 1.0)
    with np.errstate(invalid="ignore"):
        bad |= ~empty & ~(np.abs(got - expected) <= tol)
    if not bad.any():
        return None
    gid = int(np.argmax(bad))
    return f"group {gid}: engine {values[gid]!r}, reference {expected[gid]!r}"


@dataclass
class Query:
    text: str
    mode: str
    workers: int
    expected: np.ndarray
    counters: dict[str, int]  # exact counter values this query must produce


@dataclass
class Loop:
    """Outcome of a run of queries: wall seconds per query, scaled to the
    reference host speed and raw, and checks."""

    times: list[float] = field(default_factory=list)
    raw_times: list[float] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    attempted: int = 0
    cells_scanned: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    drift: list[str] = field(default_factory=list)
    first_counters: dict[int, dict[str, int]] = field(default_factory=dict)

    def merge(self, other: "Loop") -> None:
        """Add another loop's checks (not its times) to this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors = (self.errors + other.errors)[:MAX_ERRORS]
        self.drift = (self.drift + other.drift)[:MAX_ERRORS]

    def calibrate(self, measured_s: float) -> None:
        """Time the calibration work, for about CALIBRATION_SHARE of the
        ``measured_s`` seconds of queries since the previous calibration, and
        scale the raw times of those queries."""
        after = calibrate(max(1, round(CALIBRATION_SHARE * measured_s / REFERENCE_S)))
        if self.calibrations:
            factor = scale(self.calibrations[-1], after)
            self.times.extend(t * factor for t in self.raw_times[len(self.times) :])
        self.calibrations.append(after)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def check(self, index: int, query: Query, result) -> None:
        why = mismatch(result.values, query.expected)
        if why is not None:
            self.fail(f"query {index} ({query.text}): {why}")
        snap = result.counters.snapshot()
        self.cells_scanned += snap["bytes_read"] // 8
        self.first_counters.setdefault(index, snap)
        for name, want in query.counters.items():
            if snap[name] != want and len(self.drift) < MAX_ERRORS:
                self.drift.append(f"query {index}: {name} {snap[name]}, pinned {want}")

    def summary(self) -> dict:
        first = list(self.first_counters.values())

        def mean(name: str) -> float:  # 0 when no query returned
            return statistics.fmean(c[name] for c in first) if first else 0.0

        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "drift": self.drift,
            "times": self.times,
            "raw_times": self.raw_times,
            "calibrations": self.calibrations,
            "cells_scanned": self.cells_scanned,
            "read_bytes_per_query": mean("bytes_read"),
            "shuffle_bytes_per_query": mean("bytes_shuffled"),
        }


def run_query(api, catalog, query: Query, tracer=None):
    if tracer is None:
        job = api.plan(api.analyze(api.parse(query.text), catalog), query.mode)
        return api.run_job(job, workers=query.workers)
    with tracer.span("frontend.parse"):
        ast = api.parse(query.text)
    with tracer.span("frontend.analyze"):
        resolved = api.analyze(ast, catalog)
    with tracer.span("planner.plan"):
        job = api.plan(resolved, query.mode)
    with tracer.span("engine.run_job") as span:
        result = api.run_job(job, workers=query.workers)
    stages = sum(result.timings[k] for k in ("map", "shuffle", "reduce"))
    tracer.sample("engine.fixed_overhead_s", span[2] - span[1] - stages)
    return result


def closed_loop(api, catalog, queries, seconds, *, count=None, tracer=None) -> Loop:
    """Run queries in order, cycling, until ``seconds`` have passed, every
    query ran once and MIN_SAMPLES were taken; or for exactly ``count``
    queries when given."""
    loop = Loop()
    loop.calibrate(CALIBRATE_EVERY_S)
    deadline = perf_counter() + seconds
    calibrated = perf_counter()
    i = 0
    while True:
        index = i % len(queries)
        query = queries[index]
        if tracer is not None:
            tracer.query = f"loop:{i}"
        loop.attempted += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                result = run_query(api, catalog, query)
            else:
                with tracer.span("harness.query"):
                    result = run_query(api, catalog, query, tracer)
        except Exception as exc:  # a query that raises counts as failed
            loop.raw_times.append(perf_counter() - t0)
            loop.fail(f"query {index} ({query.text}): {type(exc).__name__}: {exc}")
        else:
            loop.raw_times.append(perf_counter() - t0)
            loop.check(index, query, result)
            del result
        i += 1
        if count is not None:
            done = i >= count
        else:
            done = i >= max(len(queries), MIN_SAMPLES) and perf_counter() >= deadline
        since = perf_counter() - calibrated
        if done or since >= CALIBRATE_EVERY_S:
            loop.calibrate(since)
            calibrated = perf_counter()
        if done:
            return loop


def peak_rss_mb() -> float:
    """This process's peak resident memory. VmHWM starts afresh at exec;
    ru_maxrss keeps the forked parent's peak, so it is only the fallback."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_job(path: Path) -> tuple[dict, list[Query]]:
    job = json.loads(path.read_text())
    refs = np.load(job["refs"])
    queries = [
        Query(q["text"], q["mode"], q["workers"], refs[f"q{i}"], q["counters"])
        for i, q in enumerate(job["queries"])
    ]
    return job, queries


def main(argv: list[str]) -> int:
    job_path = Path(argv[0])
    job, queries = load_job(job_path)
    sys.path.insert(0, job["src"])
    import aqlmr as api

    catalog = api.Catalog.load_dir(job["data_dir"])
    loop = closed_loop(api, catalog, queries, job["seconds"])
    layers = None
    if job["trace"]:
        from layers import traced_run

        layers, checks = traced_run(api, catalog, queries, job, loop)
        loop.merge(checks)
    out = loop.summary()
    out["layers"] = layers
    out["peak_rss_mb"] = peak_rss_mb()
    Path(job["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
