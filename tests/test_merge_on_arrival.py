"""Optimized jobs of the combine-kind built-ins (SUM, COUNT, AVG, MIN, MAX,
GEOMEAN) merge each map output into the group table as it arrives.

Their results (by ``repr`` and type) and all six counters must equal those
of the collect path over the same map outputs: every output kept, then the
shuffle's concatenation, merge_groups and group_results. Lattices that
overlap, leave gaps or tile the box (band folds whose ids repeat across
splits when a window spans chunks), and rings, each with and without a
``where`` that empties groups, on floats holding 0.0, -0.0 and +-inf and
on int64 values up to the ends of the range. int64 sums turn into Python
ints when the running bound (the largest |v| merged times the rows merged)
reaches 2**63, which may happen only after several outputs. STDDEV, custom
aggregators and naive jobs keep the shuffle.
"""

import math
from contextlib import closing
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqlmr import (
    Aggregator,
    AggregatorRegistry,
    Counters,
    EngineError,
    analyze,
    build_membership,
    compute_splits,
    engine,
    parse,
    plan,
    run_job,
    storage,
)
from aqlmr.storage import read_bands
from conftest import build_array
from oracles import expected_results, group_value_lists

COMBINE_AGGREGATES = ("sum", "count", "avg", "min", "max", "geomean")
SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf)
NAMES = "xy"


# each filter, and its conjuncts for the oracle: all but the first keep only
# some cells, so some groups reach no row
WHERES = {
    "": None,
    " where val > 0": ((">", 0),),
    " where val > -5 and val < 5": ((">", -5), ("<", 5)),
    " where val <> 0": (("<>", 0),),
}


def lattice(draw, ndim, kind):
    """Windows that overlap, leave gaps, or tile the box (a grid, or its
    tumbling window): the query's shape clause and the oracle's arguments."""
    if kind == "grid":
        partitions = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
        sizes = ", ".join(f"{n} {p}" for n, p in zip(NAMES, partitions))
        return f"grid as (partition by {sizes})", {"kind": "grid", "partitions": partitions}
    stride = draw(st.integers(1 if kind != "gapped" else 2, 4))
    preceding, following = [], []
    for _ in range(ndim):
        if kind == "tumbling":
            p, f = 0, stride - 1
        elif kind == "gapped":  # the window is narrower than the stride
            p = draw(st.integers(0, stride - 2))
            f = draw(st.integers(0, stride - 2 - p))
        else:  # wider than the stride
            p = draw(st.integers(0, 3))
            f = draw(st.integers(max(stride - p, 0), 3 + stride))
        preceding.append(p)
        following.append(f)
    parts = ", ".join(
        f"{n} {p} preceding and {f} following" for n, p, f in zip(NAMES, preceding, following)
    )
    oracle = {"kind": "sliding", "preceding": preceding, "following": following, "stride": stride}
    return f"fixed window as (partition by {parts} stride {stride})", oracle


@st.composite
def arrival_jobs(draw):
    ndim = draw(st.integers(1, 2))
    extents = tuple(draw(st.integers(1, 9)) for _ in range(ndim))
    chunks = tuple(draw(st.integers(1, e)) for e in extents)
    ints = draw(st.booleans())
    if ints:
        element = st.one_of(
            st.integers(-9, 9),
            st.integers(2**62 - 9, 2**62 + 9),
            st.integers(-(2**63), -(2**63) + 9),
            st.integers(2**63 - 10, 2**63 - 1),
        )
    else:
        element = st.one_of(
            st.sampled_from(SPECIAL_FLOATS), st.floats(-1e3, 1e3), st.floats(allow_nan=False)
        )
    n = prod(extents)
    values = np.array(draw(st.lists(element, min_size=n, max_size=n)), np.int64 if ints else np.float64)
    lo = [draw(st.integers(0, e - 1)) for e in extents]
    hi = [draw(st.integers(l, e - 1)) for l, e in zip(lo, extents)]
    kind = draw(st.sampled_from(["overlapping", "gapped", "grid", "tumbling", "hierarchical", "circular"]))
    if kind in ("hierarchical", "circular"):
        radius0, step = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        shape = f"{kind} as (radius {radius0} step {step})"
        oracle = {"kind": kind, "radius0": radius0, "step": step}
    else:
        shape, oracle = lattice(draw, ndim, kind)
    where = draw(st.sampled_from(sorted(WHERES)))
    agg = draw(st.sampled_from(COMBINE_AGGREGATES))
    box = ", ".join(map(str, lo + hi))
    values = values.reshape(extents)
    return {
        "extents": extents,
        "chunks": chunks,
        "element_type": "int64" if ints else "float64",
        "values": values,
        "text": f"select {agg}(val) from between (A, {box}){where} {shape}",
        "groups": group_value_lists(values, lo, hi, predicate=WHERES[where], **oracle),
        # bands of one split, of a few, and as the engine cuts them
        "band_bytes": draw(st.sampled_from([8, 64, storage.BAND_BYTES])),
    }


def collect_path(job):
    """An optimized job's results and counters with every map output kept:
    the shuffle's concatenation, merge_groups, group_results."""
    agg = job.query.agg
    counters = Counters()
    membership = build_membership(job.geometry)
    splits = compute_splits(job.query.array, job.splits.box, job.splits.data_path)
    outputs = []
    with closing(read_bands(splits, job.query.predicate, counters)) as bands:
        for band in bands:
            outputs += engine._map_band(band, membership, agg, counters)
    grouped = engine.shuffle(outputs, counters, value_bytes=engine.summary_value_bytes(agg))
    counters.add("reduce_input_records", len(grouped.rows))
    values = [None] * job.geometry.group_count
    if len(grouped.rows):
        merged = agg.merge_groups(grouped.rows, sizes=grouped.sizes)
        for slot, value in zip(merged.gid.tolist(), agg.group_results(merged)):
            values[grouped.lo + slot] = value
    return values, counters


def outcome(run, job):
    """Results and counters by repr and type, or the error's type and text."""
    try:
        values, counters = run(job)
    except EngineError as exc:
        return type(exc), str(exc)
    return [(repr(v), type(v)) for v in [*values, *counters.snapshot().values()]]


def arrival_path(job):
    result = run_job(job)
    return result.values, result.counters


@settings(max_examples=300, deadline=None)
@given(case=arrival_jobs())
def test_merge_on_arrival_equals_the_collect_path(tmp_path_factory, case):
    built = build_array(
        tmp_path_factory.mktemp("arrival"),
        extents=case["extents"],
        chunks=case["chunks"],
        element_type=case["element_type"],
        values=case["values"],
    )
    job = plan(analyze(parse(case["text"]), built.catalog), "optimized")
    assert job.query.agg.combine is not None
    with mock.patch.object(storage, "BAND_BYTES", case["band_bytes"]):
        arrived = outcome(arrival_path, job)
        collected = outcome(collect_path, job)
    assert arrived == collected, case["text"]
    agg = job.query.agg.name
    if case["element_type"] == "int64" and agg != "geomean" and isinstance(arrived, list):
        # exact in Python ints: the oracle shares no code with the merge
        want = expected_results(agg, case["groups"])
        assert arrived[: len(want)] == [(repr(v), type(v)) for v in want], case["text"]


def test_int64_sums_turn_exact_after_several_outputs(tmp_path, monkeypatch):
    """A circular ring over eight one-cell splits: six cells of 1, then two
    of 2**62. Each split's sum fits in int64 and so does the running bound
    after each of the first six outputs (1 times the rows); the seventh
    brings it to 2**62 * 7 >= 2**63, and the table turns into Python ints
    before it adds, so the ring's sum, 6 + 2**63, is exact."""
    values = np.array([1] * 6 + [2**62] * 2, np.int64)
    built = build_array(tmp_path, extents=(8,), chunks=(1,), element_type="int64", values=values)
    dtypes = []  # the table's after each output's merge
    arrive = engine._arrive

    def recording(*args):
        merged = arrive(*args)
        dtypes.append(merged.aggregate.dtype)
        return merged

    monkeypatch.setattr(engine, "_arrive", recording)
    total = 6 + 2**63
    for agg, want in [("sum", total), ("avg", total / 8)]:
        text = f"select {agg}(val) from A circular as (radius 4 step 1)"
        job = plan(analyze(parse(text), built.catalog), "optimized")
        dtypes.clear()
        result = run_job(job)
        assert dtypes == [np.dtype(np.int64)] * 6 + [np.dtype(object)] * 2
        assert result.values == [want] and type(result.values[0]) is type(want)
        assert result.counters.snapshot() == collect_path(job)[1].snapshot()
        assert result.values == run_job(plan(job.query, "naive")).values


class ValueRange(Aggregator):
    """A custom algebraic aggregator: the largest value minus the least."""

    name = "vrange"
    uses_ext = True

    def update_in_map(self, summary, value):
        return self.update_in_reduce(summary, type(summary)(value, 1, value))

    def update_in_reduce(self, summary, other):
        if other.count:
            if summary.count == 0:
                summary.aggregate, summary.ext = other.aggregate, other.ext
            else:
                summary.aggregate = min(summary.aggregate, other.aggregate)
                summary.ext = max(summary.ext, other.ext)
            summary.count += other.count
        return summary

    def get_agg_result(self, summary):
        return None if summary.count == 0 else summary.ext - summary.aggregate


@pytest.mark.parametrize(
    "shape",
    [
        "grid as (partition by x 3, y 4)",
        "fixed window as (partition by x 1 preceding and 1 following, y 0 preceding and 2 following)",
        "hierarchical as (radius 1 step 2)",
    ],
)
def test_only_combine_kinds_skip_the_shuffle(tmp_path, monkeypatch, shape):
    """With engine.shuffle patched to raise, every optimized combine-kind
    built-in still runs, with its naive results; STDDEV, a custom
    aggregator and naive jobs still call the shuffle."""
    built = build_array(tmp_path, extents=(9, 7), chunks=(4, 3), fill="uniform")
    registry = AggregatorRegistry()
    registry.register(ValueRange())
    shuffle = engine.shuffle

    def refuse(*args, **kwargs):
        raise AssertionError("the shuffle ran")

    def job(agg, mode, registry=None):
        return plan(analyze(parse(f"select {agg}(val) from A {shape}"), built.catalog, registry), mode)

    for agg in COMBINE_AGGREGATES:
        naive = run_job(job(agg, "naive")).values
        monkeypatch.setattr(engine, "shuffle", refuse)
        got = run_job(job(agg, "optimized")).values
        monkeypatch.setattr(engine, "shuffle", shuffle)
        assert [v is None for v in got] == [v is None for v in naive]
        assert all(v is None or math.isclose(v, w, rel_tol=1e-12) for v, w in zip(got, naive)), agg
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return shuffle(*args, **kwargs)

    monkeypatch.setattr(engine, "shuffle", counting)
    for collected in (job("stddev", "optimized"), job("vrange", "optimized", registry), job("sum", "naive")):
        before = len(calls)
        run_job(collected)
        assert len(calls) == before + 1, collected.query.agg.name
