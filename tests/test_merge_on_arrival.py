"""Optimized jobs of every algebraic aggregator (SUM, COUNT, AVG, MIN,
MAX, GEOMEAN, STDDEV and a custom one) merge each map output into the
group table as it arrives.

Their results (by ``repr`` and type) and all six counters must equal those
of the collect path over the same map outputs: every output kept, then the
shuffle's concatenation, one start and merge_into over the whole shuffled
table, and group_results; STDDEV's finite results within STDDEV_REL of
it. Lattices that overlap, leave gaps or tile the box (band folds whose
ids repeat across splits when a window spans chunks), and rings, each with
and without a ``where`` that empties groups, on floats holding 0.0, -0.0
and +-inf and on int64 values up to the ends of the range. int64 sums turn
into Python ints when the running bound (the largest |v| merged times the
rows merged) reaches 2**63, which may happen only after several outputs.
Only naive jobs keep the shuffle.
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
    AggregateError,
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
from aqlmr.aggregates import Merged
from aqlmr.builtin_aggregates import BUILTINS
from aqlmr.storage import read_bands
from conftest import build_array
from oracles import expected_results, group_value_lists

COMBINE_AGGREGATES = ("sum", "count", "avg", "min", "max", "geomean")
ALGEBRAIC = (*COMBINE_AGGREGATES, "stddev", "vrange")
SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf)
NAMES = "xy"
# how far a STDDEV merged on arrival may be from one merge of the whole
# shuffled table, relative to the larger; a merge on deltas between the
# running means themselves, with no reference, is off by far more at 1e15
STDDEV_REL = 1e-13


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


class Uncounted(Aggregator):
    """A custom aggregator whose summaries sum values and count nothing."""

    name = "uncounted"

    def update_in_map(self, summary, value):
        summary.aggregate += value
        return summary

    def update_in_reduce(self, summary, other):
        summary.aggregate += other.aggregate
        return summary

    def get_agg_result(self, summary):
        return ("r", summary.aggregate, summary.count)


REGISTRY = AggregatorRegistry()
for agg in (*(cls() for cls in BUILTINS), ValueRange(), Uncounted()):
    REGISTRY.register(agg)


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
    agg = draw(st.sampled_from(ALGEBRAIC))
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
    the shuffle's concatenation, one start and merge_into over the whole
    table, group_results of the slots some row reaches."""
    agg = job.query.agg
    counters = Counters()
    membership = build_membership(job.geometry)
    splits = compute_splits(job.query.array, job.splits.box, job.splits.data_path)
    outputs = []
    with closing(read_bands(splits, job.query.predicate, counters)) as bands:
        for band in bands:
            outputs += engine._map_band(band, membership, agg, counters)
    grouped = engine.shuffle(outputs, counters, value_bytes=engine.summary_value_bytes(agg))
    rows = grouped.rows
    counters.add("reduce_input_records", len(rows))
    values = [None] * job.geometry.group_count
    if len(rows):
        merged = agg.start(len(grouped.sizes), rows.aggregate.dtype)
        try:
            agg.merge_into(merged, rows.gid, rows)
        except AggregateError as exc:
            raise engine._reduce_error(exc, grouped.lo) from exc
        present = np.flatnonzero(grouped.sizes)
        for slot, value in zip(present.tolist(), agg.group_results(merged.rows(present))):
            values[grouped.lo + slot] = value
    return values, counters


def outcome(run, job):
    """Results and counters by repr and type, or the error's type and text."""
    try:
        values, counters = run(job)
    except EngineError as exc:
        return type(exc), str(exc)
    return [(repr(v), type(v)) for v in [*values, *counters.snapshot().values()]]


def close_floats(arrived, collected):
    """``arrived`` with each finite float that lies within STDDEV_REL of the
    collect path's finite float in its place taken as that float."""
    close = []
    for got, want in zip(arrived, collected):
        if got[1] is want[1] is float:
            x, y = float(got[0]), float(want[0])
            if math.isfinite(x) and math.isfinite(y) and abs(x - y) <= STDDEV_REL * max(abs(x), abs(y)):
                got = want
        close.append(got)
    return close


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
    job = plan(analyze(parse(case["text"]), built.catalog, REGISTRY), "optimized")
    with mock.patch.object(storage, "BAND_BYTES", case["band_bytes"]):
        arrived = outcome(arrival_path, job)
        collected = outcome(collect_path, job)
    agg = job.query.agg.name
    if agg == "stddev" and isinstance(arrived, list) and isinstance(collected, list):
        arrived = close_floats(arrived, collected)
    assert arrived == collected, case["text"]
    exact = agg in COMBINE_AGGREGATES and agg != "geomean"
    if case["element_type"] == "int64" and exact and isinstance(arrived, list):
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


@pytest.mark.parametrize(
    "shape",
    [
        "grid as (partition by x 3, y 4)",
        "fixed window as (partition by x 1 preceding and 1 following, y 0 preceding and 2 following)",
        "hierarchical as (radius 1 step 2)",
    ],
)
def test_no_optimized_job_calls_the_shuffle(tmp_path, monkeypatch, shape):
    """With engine.shuffle patched to count its calls, no optimized job
    calls it, built-in or custom, and each gives its naive results; every
    naive job calls it once."""
    built = build_array(tmp_path, extents=(9, 7), chunks=(4, 3), fill="uniform")
    shuffle = engine.shuffle
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return shuffle(*args, **kwargs)

    monkeypatch.setattr(engine, "shuffle", counting)

    def run(agg, mode):
        before = len(calls)
        job = plan(analyze(parse(f"select {agg}(val) from A {shape}"), built.catalog, REGISTRY), mode)
        values = run_job(job).values
        return values, len(calls) - before

    for agg in ALGEBRAIC:
        naive, shuffled = run(agg, "naive")
        assert shuffled == 1, agg
        got, shuffled = run(agg, "optimized")
        assert shuffled == 0, agg
        assert [v is None for v in got] == [v is None for v in naive]
        assert all(v is None or math.isclose(v, w, rel_tol=1e-12) for v, w in zip(got, naive)), agg
    assert run("median", "naive")[1] == 1


# (query shape, oracle arguments) over a 24x24 array in 5x7 chunks, so that
# most groups hold cells of several splits
SPREAD_SHAPES = [
    ("grid as (partition by x 12, y 12)", {"kind": "grid", "partitions": (12, 12)}),
    (
        "fixed window as (partition by x 2 preceding and 2 following, y 2 preceding and 2 following)",
        {"kind": "sliding", "preceding": (2, 2), "following": (2, 2), "stride": 1},
    ),
    ("hierarchical as (radius 2 step 3)", {"kind": "hierarchical", "radius0": 2, "step": 3}),
    ("circular as (radius 1 step 2)", {"kind": "circular", "radius0": 1, "step": 2}),
]


@pytest.mark.parametrize("noise", ["normal", "uniform"])
@pytest.mark.parametrize("offset", [1e15, -1e15])
def test_stddev_merged_on_arrival_keeps_its_precision(tmp_path, offset, noise):
    """Optimized STDDEV at 1e15 offsets, most groups spread over several
    splits: run_job, which merges each split's summaries as they arrive,
    gives each group within STDDEV_REL of one start and merge_into over the
    whole shuffled table, with the same counters. Merging on deltas between
    the running means themselves, which at 1e15 lie on a grid of 1/8, gave
    results about 2e-2 away here."""
    rng = np.random.default_rng(7)
    spread = rng.standard_normal((24, 24)) if noise == "normal" else rng.uniform(0, 100, (24, 24))
    built = build_array(tmp_path, extents=(24, 24), chunks=(5, 7), values=offset + spread)
    for shape, oracle in SPREAD_SHAPES:
        job = plan(analyze(parse(f"select stddev(val) from A {shape}"), built.catalog), "optimized")
        result = run_job(job)
        values, counters = collect_path(job)
        assert result.counters == counters, shape
        # the splits' summaries are several per group
        assert counters.reduce_input_records >= 2 * counters.shuffle_groups, shape
        groups = group_value_lists(built.values, (0, 0), (23, 23), **oracle)
        assert [v is None for v in result.values] == [not g.size for g in groups], shape
        for gid, (got, want) in enumerate(zip(result.values, values)):
            if want is not None:
                assert abs(got - want) <= STDDEV_REL * max(abs(got), abs(want)), (shape, gid)


@pytest.mark.parametrize("mode", ["naive", "optimized"])
def test_groups_are_reached_by_rows_not_by_counts(tmp_path, mode):
    """A group that some row reaches has a result even when its summary
    counts nothing: a 6x6 ramp in 3x3 chunks, 2x2 grid blocks, an
    aggregator that never counts."""
    built = build_array(tmp_path, extents=(6, 6), chunks=(3, 3))
    text = "select uncounted(val) from A grid as (partition by x 2, y 2)"
    result = run_job(plan(analyze(parse(text), built.catalog, REGISTRY), mode))
    sums = [float(built.values[x : x + 2, y : y + 2].sum()) for x in (0, 2, 4) for y in (0, 2, 4)]
    assert result.values == [("r", s, 0) for s in sums]
    assert result.counters.shuffle_groups == 9
    text = "select uncounted(val) from A where val < 12 grid as (partition by x 2, y 2)"
    result = run_job(plan(analyze(parse(text), built.catalog, REGISTRY), mode))
    assert result.values == [("r", 14.0, 0), ("r", 22.0, 0), ("r", 30.0, 0)] + [None] * 6
    assert result.counters.shuffle_groups == 3


@pytest.mark.parametrize("agg", ["sum", "stddev", "uncounted"])
def test_a_table_every_group_reaches_names_no_slots(tmp_path, monkeypatch, agg):
    """When every group is reached, the merged table names no slots, so
    no index array as long as the groups is made; otherwise it names the
    reached ones."""
    built = build_array(tmp_path, extents=(6, 6), chunks=(3, 3))
    present = []
    reached = Merged.present

    def recording(merged):
        present.append(reached(merged))
        return present[-1]

    monkeypatch.setattr(Merged, "present", recording)
    for where in ("", " where val < 12"):
        text = f"select {agg}(val) from A{where} grid as (partition by x 2, y 2)"
        run_job(plan(analyze(parse(text), built.catalog, REGISTRY), "optimized"))
    assert present[0] is None
    assert present[1].tolist() == [0, 1, 2]


class MergeBoom(Aggregator):
    """A custom aggregator whose merge always fails, and whose fold fails
    on the values of the lower-left 3x3 chunk of a 6x6 ramp (split 2)."""

    name = "mergeboom"

    def update_in_map(self, summary, value):
        if value >= 18 and value % 6 < 3:
            raise AggregateError("map boom")
        summary.aggregate += value
        summary.count += 1
        return summary

    def update_in_reduce(self, summary, other):
        raise AggregateError("merge boom")

    def get_agg_result(self, summary):
        return summary.aggregate


def test_a_merge_error_is_reported_before_a_later_map_error(tmp_path):
    """Each map output is merged as it arrives, so a merge that fails on
    split 0's output is reported, naming its group, before split 2's map
    task fails."""
    registry = AggregatorRegistry()
    registry.register(MergeBoom())
    built = build_array(tmp_path, extents=(6, 6), chunks=(3, 3))
    text = "select mergeboom(val) from A grid as (partition by x 2, y 2)"
    job = plan(analyze(parse(text), built.catalog, registry), "optimized")
    with pytest.raises(EngineError, match=r"^reduce \(group 0\): merge boom$"):
        run_job(job)
