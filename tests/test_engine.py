import os
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aqlmr.engine as engine
from aqlmr import (
    Aggregator,
    EngineError,
    analyze,
    parse,
    plan,
    run_job,
)
from aqlmr.aggregates import group_order
from aqlmr.engine import (
    KEY_BYTES,
    RAW_VALUE_BYTES,
    SUMMARY_BYTES,
    SUMMARY_EXT_BYTES,
    Counters,
    Pairs,
    Runs,
)
from aqlmr.predicate import Comparison, ValuePredicate
from aqlmr.grouping import build_membership
from aqlmr.storage import _bands, compute_splits, read_block
from conftest import build_array
from oracles import (
    apply_predicate,
    assert_close,
    expected_results,
    group_value_lists,
    naive_emission_count,
)


def stale_file_size(monkeypatch, size):
    """Make os.fstat report ``size`` bytes for every file."""
    real_fstat = os.fstat

    def stale_fstat(fd):
        return os.stat_result(real_fstat(fd)[:6] + (size,) + real_fstat(fd)[7:])

    monkeypatch.setattr(os, "fstat", stale_fstat)


def record_reads(monkeypatch):
    """A list that gets the (offset, bytes read) of every os.preadv."""
    reads = []
    real_preadv = os.preadv

    def recording_preadv(fd, buffers, offset):
        reads.append((offset, real_preadv(fd, buffers, offset)))
        return reads[-1][1]

    monkeypatch.setattr(os, "preadv", recording_preadv)
    return reads


def run_query(built, text, mode="auto", workers=1):
    query = analyze(parse(text), built.catalog)
    return run_job(plan(query, mode), workers=workers)


class TestCounters:
    def test_add_and_snapshot(self):
        c = Counters()
        c.add("bytes_read", 10)
        c.add("bytes_read", 5)
        snap = c.snapshot()
        assert snap["bytes_read"] == 15
        assert set(snap) == {
            "map_input_records",
            "map_output_records",
            "shuffle_groups",
            "reduce_input_records",
            "bytes_read",
            "bytes_shuffled",
        }


class TestGridJobs:
    def test_avg_matches_oracle_both_modes(self, array_factory):
        built = array_factory(extents=(12, 12), chunks=(5, 5), fill="uniform", seed=1)
        groups = group_value_lists(
            built.values, (0, 0), (11, 11), "grid", partitions=(4, 4)
        )
        expected = expected_results("avg", groups)
        for mode in ("naive", "optimized"):
            result = run_query(
                built, "select avg(val) from A grid as (partition by x 4, y 4)", mode
            )
            assert len(result.values) == 9
            for gid, (got, want) in enumerate(zip(result.values, expected)):
                assert_close(got, want, context=f"{mode} group {gid}")

    def test_boxed_sum_int64(self, array_factory):
        built = array_factory(
            element_type="int64", extents=(10, 10), chunks=(4, 4), fill="uniform", seed=2
        )
        text = "select sum(val) from between (A, 1, 2, 8, 9) grid as (partition by x 4, y 4)"
        groups = group_value_lists(
            built.values, (1, 2), (8, 9), "grid", partitions=(4, 4)
        )
        expected = expected_results("sum", groups)
        for mode in ("naive", "optimized"):
            result = run_query(built, text, mode)
            assert result.values == expected  # integer sums are exact

    @pytest.mark.parametrize("mode", ["naive", "optimized"])
    def test_int64_avg_is_correctly_rounded(self, array_factory, mode):
        # the two-cell split could overflow an int64 sum and folds in Python
        # ints, the one-cell split folds in numpy; the average is still the
        # exact sum over the exact count, rounded once (float(sum) / 3 is not)
        values = np.array([2**62 + 911, 2**62 + 430, 2**62 + 41], dtype=np.int64)
        built = array_factory(element_type="int64", extents=(3,), chunks=(2,), values=values)
        result = run_query(built, "select avg(val) from A grid as (partition by x 3)", mode)
        total = sum(values.tolist())
        assert float(total) / 3 != total / 3
        assert result.values == [total / 3]

    def test_naive_counter_laws(self, array_factory):
        built = array_factory(extents=(12, 12), chunks=(5, 5))
        result = run_query(
            built, "select avg(val) from A grid as (partition by x 4, y 4)", "naive"
        )
        c = result.counters.snapshot()
        # every queried cell maps to exactly one block
        assert c["map_input_records"] == 144
        assert c["map_output_records"] == 144
        assert c["reduce_input_records"] == 144
        assert c["shuffle_groups"] == 9
        assert c["bytes_read"] == 144 * 8
        assert c["bytes_shuffled"] == (KEY_BYTES + RAW_VALUE_BYTES) * 144

    def test_optimized_counter_laws(self, array_factory):
        built = array_factory(extents=(12, 12), chunks=(5, 5))
        result = run_query(
            built, "select avg(val) from A grid as (partition by x 4, y 4)", "optimized"
        )
        c = result.counters.snapshot()
        naive = run_query(
            built, "select avg(val) from A grid as (partition by x 4, y 4)", "naive"
        ).counters.snapshot()
        splits = 9  # ceil(12/5)^2
        groups = 9
        assert c["map_output_records"] <= splits * groups
        assert c["map_output_records"] <= naive["map_output_records"]
        assert c["bytes_shuffled"] == (KEY_BYTES + SUMMARY_BYTES) * c["map_output_records"]
        # same answers, fewer shuffled bytes
        assert c["bytes_shuffled"] < naive["bytes_shuffled"]

    def test_stddev_summary_bytes(self, array_factory):
        built = array_factory(extents=(8, 8), chunks=(4, 4))
        result = run_query(
            built, "select stddev(val) from A grid as (partition by x 4, y 4)", "optimized"
        )
        c = result.counters.snapshot()
        assert c["bytes_shuffled"] == (KEY_BYTES + SUMMARY_EXT_BYTES) * c["map_output_records"]

    @pytest.mark.parametrize("mode", ["naive", "optimized"])
    def test_stddev_at_large_offset_matches_oracle(self, array_factory, mode):
        values = np.array([1e9, 1e9 + 1, 1e9 + 2, 1e9 + 3])
        built = array_factory(extents=(4,), chunks=(2,), values=values)
        result = run_query(built, "select stddev(val) from A grid as (partition by x 4)", mode)
        expected = expected_results("stddev", [values])
        assert_close(result.values[0], expected[0], context=mode)
        assert result.values[0] == pytest.approx(1.118033988749895, rel=1e-12)


class TestSlidingJobs:
    @pytest.mark.parametrize("mode", ["naive", "optimized"])
    def test_matches_oracle(self, array_factory, mode):
        built = array_factory(extents=(9, 7), chunks=(4, 4), fill="uniform", seed=3)
        text = (
            "select avg(val) from A fixed window as"
            " (partition by x 1 preceding and 1 following, y 2 preceding and 0 following)"
        )
        groups = group_value_lists(
            built.values, (0, 0), (8, 6), "sliding", preceding=(1, 2), following=(1, 0)
        )
        expected = expected_results("avg", groups)
        result = run_query(built, text, mode)
        assert len(result.values) == len(expected)
        for gid, (got, want) in enumerate(zip(result.values, expected)):
            assert_close(got, want, context=f"{mode} group {gid}")

    def test_strided_window(self, array_factory):
        built = array_factory(extents=(10, 10), chunks=(5, 5), fill="uniform", seed=4)
        text = (
            "select max(val) from A fixed window as"
            " (partition by x 2 preceding and 2 following, y 2 preceding and 2 following stride 3)"
        )
        groups = group_value_lists(
            built.values, (0, 0), (9, 9), "sliding",
            preceding=(2, 2), following=(2, 2), stride=3,
        )
        expected = expected_results("max", groups)
        result = run_query(built, text)
        assert result.values == expected

    def test_naive_emission_law(self, array_factory):
        built = array_factory(extents=(9, 7), chunks=(4, 4))
        text = (
            "select count(val) from A fixed window as"
            " (partition by x 1 preceding and 1 following, y 1 preceding and 1 following)"
        )
        groups = group_value_lists(
            built.values, (0, 0), (8, 6), "sliding", preceding=(1, 1), following=(1, 1)
        )
        result = run_query(built, text, "naive")
        c = result.counters.snapshot()
        assert c["map_output_records"] == naive_emission_count(groups)
        assert c["map_input_records"] == 63  # each cell read once despite overlap


class TestRingJobs:
    @pytest.mark.parametrize(
        "kind,agg", [("hierarchical", "sum"), ("circular", "avg")]
    )
    @pytest.mark.parametrize("mode", ["naive", "optimized"])
    def test_matches_oracle(self, array_factory, kind, agg, mode):
        built = array_factory(extents=(11, 11), chunks=(4, 4), fill="uniform", seed=5)
        text = f"select {agg}(val) from A {kind} as (radius 1 step 2)"
        groups = group_value_lists(
            built.values, (0, 0), (10, 10), kind, radius0=1, step=2
        )
        expected = expected_results(agg, groups)
        result = run_query(built, text, mode)
        assert len(result.values) == len(expected)
        for gid, (got, want) in enumerate(zip(result.values, expected)):
            assert_close(got, want, context=f"{kind} {mode} group {gid}")

    def test_corner_cells_never_counted(self, array_factory):
        built = array_factory(extents=(9, 9), chunks=(9, 9), fill="constant:1")
        result = run_query(
            built, "select count(val) from A circular as (radius 1 step 1)", "naive"
        )
        # rings hold pi*r^2-ish cell counts; the 4 box corners lie outside
        total = sum(v for v in result.values)
        assert total < 81
        groups = group_value_lists(
            built.values, (0, 0), (8, 8), "circular", radius0=1, step=1
        )
        assert result.values == [int(g.size) for g in groups]


BIG = 2**63
GEOMETRY_INTEGERS = [
    ("grid as (partition by x 9223372036854775808, y 4)", "grid", {"partitions": (BIG, 4)}),
    (
        "fixed window as (partition by x 1000000000000000000000 preceding and 0 following,"
        " y 1 preceding and 1 following)",
        "sliding",
        {"preceding": (10**21, 1), "following": (0, 1)},
    ),
    (
        "fixed window as (partition by x 1 preceding and 1 following,"
        " y 0 preceding and 2 following stride 9223372036854775808)",
        "sliding",
        {"preceding": (1, 0), "following": (1, 2), "stride": BIG},
    ),
    ("circular as (radius 1 step 9223372036854775808)", "circular", {"radius0": 1, "step": BIG}),
    ("circular as (radius 1 step 9223372036854775807)", "circular", {"radius0": 1, "step": BIG - 1}),
    ("hierarchical as (radius 9223372036854775808 step 1)", "hierarchical", {"radius0": BIG, "step": 1}),
    ("hierarchical as (radius 0 step 9223372036854775807)", "hierarchical", {"radius0": 0, "step": BIG - 1}),
]


@pytest.mark.parametrize(
    "shape,kind,params",
    GEOMETRY_INTEGERS,
    ids=["partition", "reach", "stride", "step-2^63", "step-2^63-1", "radius", "nested-step"],
)
def test_geometry_integers_of_any_size(array_factory, shape, kind, params):
    """A partition, reach, stride, radius or step past the box acts like
    the box-sized value, even past int64."""
    built = array_factory(fill="uniform", seed=3)
    groups = group_value_lists(built.values, (0, 0), (7, 7), kind, **params)
    for agg, mode in (("sum", "naive"), ("sum", "optimized"), ("median", "naive")):
        result = run_query(built, f"select {agg}(val) from A {shape}", mode)
        expected = expected_results(agg, groups)
        assert len(result.values) == len(expected)
        for gid, (got, want) in enumerate(zip(result.values, expected)):
            assert_close(got, want, context=f"{shape} {agg} {mode} group {gid}")


class TestPredicates:
    def test_bytes_read_invariant_and_filtering(self, array_factory):
        built = array_factory(extents=(10, 10), chunks=(4, 4), fill="ramp")
        base = run_query(
            built, "select count(val) from A grid as (partition by x 5, y 5)"
        )
        filtered = run_query(
            built,
            "select count(val) from A where val >= 50 grid as (partition by x 5, y 5)",
        )
        cb, cf = base.counters.snapshot(), filtered.counters.snapshot()
        assert cf["bytes_read"] == cb["bytes_read"]
        assert cf["map_input_records"] == 50
        assert cb["map_input_records"] == 100
        # ramp: values >= 50 live in rows 5..9, i.e. the two bottom blocks;
        # blocks with no surviving records produce no output at all
        assert filtered.values == [None, None, 25, 25]

    def test_fully_filtered_group_is_null(self, array_factory):
        built = array_factory(extents=(4, 4), chunks=(2, 2), fill="ramp")
        result = run_query(
            built,
            "select avg(val) from A where val < 2 grid as (partition by x 2, y 2)",
        )
        assert result.values[0] is not None
        assert result.values[1:] == [None, None, None]

    def test_predicate_matches_oracle(self, array_factory):
        built = array_factory(extents=(8, 8), chunks=(4, 4), fill="uniform", seed=6)
        groups = group_value_lists(
            built.values,
            (0, 0),
            (7, 7),
            "grid",
            partitions=(4, 4),
            predicate=[(">", 0.25), ("<=", 0.9)],
        )
        expected = expected_results("avg", groups)
        result = run_query(
            built,
            "select avg(val) from A where val > 0.25 and val <= 0.9"
            " grid as (partition by x 4, y 4)",
        )
        for gid, (got, want) in enumerate(zip(result.values, expected)):
            assert_close(got, want, context=f"group {gid}")


# a constant of the other type than the cells, which float64 rounding would
# compare wrongly: (values, element type, where, the right count)
MIXED_TYPE_WHERES = [
    ([2**53, 2**53 + 1, 2**62, -5], "int64", "val > 9007199254740992.0", 2),
    ([2.0**53, 1.0], "float64", "val < 9007199254740993", 2),
    ([2.0**53, 1.0], "float64", "val <> 9007199254740993", 2),
]


@pytest.mark.parametrize("mode", ["naive", "optimized"])
@pytest.mark.parametrize("values, element_type, where, count", MIXED_TYPE_WHERES)
def test_where_compares_exactly_in_the_cells_type(
    array_factory, mode, values, element_type, where, count
):
    values = np.array(values, dtype=element_type)
    built = array_factory(extents=(len(values),), chunks=(2,), element_type=element_type, values=values)
    text = f"select count(val) from A where {where} grid as (partition by x 4)"
    result = run_query(built, text, mode)
    (cmp,) = parse(text).where
    groups = group_value_lists(
        built.values, (0,), (len(values) - 1,), "grid", partitions=(4,),
        predicate=[(cmp.op, cmp.constant)],
    )
    assert result.values == expected_results("count", groups) == [count]


def _near(bases):
    """Integers within 3 of plus or minus one of ``bases``."""
    return st.builds(
        lambda base, sign, d: sign * base + d,
        st.sampled_from(bases), st.sampled_from([-1, 1]), st.integers(-3, 3),
    )


_EDGES = [0, 2**52, 2**53, 2**62, 2**63]
_INT64_CELLS = _near(_EDGES).map(lambda v: min(max(v, -(2**63)), 2**63 - 1))
_FLOAT_CELLS = st.one_of(_near(_EDGES).map(float), st.sampled_from([0.5, -2.5, 2.0**52 + 0.5]))
_CONSTANTS = st.one_of(
    _near(_EDGES),
    st.builds(lambda v, frac: float(v) + frac, _near(_EDGES), st.sampled_from([0.0, 0.5, -0.25])),
)


@settings(max_examples=300, deadline=None)
@given(
    cells=st.one_of(
        st.lists(_INT64_CELLS, min_size=1, max_size=8).map(lambda v: np.array(v, np.int64)),
        st.lists(_FLOAT_CELLS, min_size=1, max_size=8).map(lambda v: np.array(v, np.float64)),
    ),
    conjuncts=st.lists(
        st.tuples(st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]), _CONSTANTS),
        min_size=1, max_size=2,
    ),
)
def test_where_mask_is_exact_near_the_float_and_int64_edges(cells, conjuncts):
    """Cells and constants of either type near 2**53 and 2**63: the mask
    keeps the cells the oracle's exact comparison keeps."""
    predicate = ValuePredicate(tuple(Comparison("val", op, c) for op, c in conjuncts))
    assert cells[predicate.mask(cells)].tolist() == apply_predicate(cells, conjuncts).tolist()


# the groups of a 12-cell array in blocks of 2 that a filter empties
EMPTY_GROUPS = {"first": (0,), "middle": (2, 3), "last": (5,), "all but one": (0, 1, 3, 4, 5)}


class TestEmptyGroups:
    @pytest.mark.parametrize("empty", list(EMPTY_GROUPS))
    @pytest.mark.parametrize("element_type", ["float64", "int64"])
    @pytest.mark.parametrize("mode", ["naive", "optimized"])
    def test_each_value_keeps_its_type(self, array_factory, mode, element_type, empty):
        """Groups no row reaches are None wherever they fall, and every
        other group equals the oracle by repr and type: int64 results are
        Python ints, exact where a sum passes 2**53 and overflows int64."""
        if element_type == "int64":
            values, dropped = 2**62 + 3 * np.arange(12, dtype=np.int64), -1
        else:
            values, dropped = np.arange(12) / 4 + 0.25, -1.0
        for g in EMPTY_GROUPS[empty]:
            values[2 * g : 2 * g + 2] = dropped
        values[7] = dropped  # and one group loses half its cells
        built = array_factory(extents=(12,), chunks=(5,), element_type=element_type, values=values)
        predicate = [("<>", dropped)]
        groups = group_value_lists(
            values, (0,), (11,), "grid", partitions=(2,), predicate=predicate
        )
        for agg in ("sum", "count", "avg", "min", "max"):
            text = f"select {agg}(val) from A where val <> {dropped!r} grid as (partition by x 2)"
            got = run_query(built, text, mode).values
            want = expected_results(agg, groups)
            assert [(repr(v), type(v)) for v in got] == [(repr(v), type(v)) for v in want], text

    @pytest.mark.parametrize("mode", ["naive", "optimized"])
    def test_group_ids_outside_the_geometry_fail(self, array_factory, monkeypatch, mode):
        """A membership that emits id -1, or id group_count, fails the job
        with the range error in both modes: the naive map takes its ids from
        block, the optimized grid map from fold_band."""
        built = array_factory(extents=(8, 8), chunks=(4, 4))
        text = "select sum(val) from A grid as (partition by x 4, y 4)"
        job = plan(analyze(parse(text), built.catalog), mode)
        real_membership = engine.build_membership
        for bad in (-1, job.geometry.group_count):

            def bad_membership(geometry, bad=bad):
                membership = real_membership(geometry)
                block, fold_band = membership.block, membership.fold_band

                def shifted(region, keep=None):  # group 0 becomes ``bad``
                    cells, gids = block(region, keep)
                    return cells, np.where(gids == 0, bad, gids)

                def shifted_band(band, agg):
                    out = fold_band(band, agg)
                    out.gid = np.where(out.gid == 0, bad, out.gid)
                    return out

                membership.block, membership.fold_band = shifted, shifted_band
                return membership

            monkeypatch.setattr(engine, "build_membership", bad_membership)
            with pytest.raises(EngineError, match=r"^group id outside geometry \(0\.\.3\)$"):
                run_job(job)


class TestDeterminism:
    @pytest.mark.parametrize(
        "text",
        [
            "select avg(val) from A fixed window as"
            " (partition by x 1 preceding and 1 following, y 1 preceding and 1 following)",
            "select stddev(val) from A circular as (radius 2 step 2)",
            "select median(val) from A grid as (partition by x 8, y 8)",
        ],
    )
    def test_bit_identical_across_worker_counts(self, array_factory, text):
        built = array_factory(extents=(24, 24), chunks=(8, 8), fill="uniform", seed=7)
        runs = [run_query(built, text, workers=w) for w in (1, 2, 4, 8)]
        baseline_values = runs[0].values
        baseline_counters = runs[0].counters.snapshot()
        for r in runs[1:]:
            assert r.values == baseline_values  # exact, not approximate
            assert r.counters.snapshot() == baseline_counters


class TestMedianRuns:
    def test_median_naive_matches_oracle(self, array_factory):
        built = array_factory(extents=(9, 9), chunks=(4, 4), fill="uniform", seed=8)
        groups = group_value_lists(
            built.values, (0, 0), (8, 8), "hierarchical", radius0=1, step=1
        )
        expected = expected_results("median", groups)
        result = run_query(
            built, "select median(val) from A hierarchical as (radius 1 step 1)"
        )
        for gid, (got, want) in enumerate(zip(result.values, expected)):
            assert_close(got, want, context=f"group {gid}")

    @pytest.mark.parametrize(
        "kind, n, chunk, radius, step",
        [
            # nested rings of a few cells a split and of 100 cells and more
            # a split, whose runs the shuffle merges
            ("hierarchical", 9, 2, 1, 1),
            ("hierarchical", 400, 100, 50, 50),
            # disjoint rings, whose cell-major values the shuffle sorts
            ("circular", 9, 2, 1, 1),
        ],
    )
    def test_signed_zeros_of_one_ring_keep_split_order(
        self, array_factory, kind, n, chunk, radius, step
    ):
        # ring 0 around the middle cell c crosses a chunk edge: its 0.0 (at
        # c - 1) comes from an earlier split than its -0.0 (at c + 1), and
        # its median is the second zero of statistics.median's stable sort
        c = (n - 1) // 2
        cells = np.where(np.arange(n) < c, -1.0, 2.0)
        cells[c - 1], cells[c + 1] = 0.0, -0.0
        assert (c - 1) // chunk < (c + 1) // chunk
        built = array_factory(extents=(n,), chunks=(chunk,), values=cells)
        text = f"select median(val) from A {kind} as (radius {radius} step {step})"
        result = run_query(built, text, "naive")
        # one split after another, each in emission (cell) order
        distance = abs(np.arange(n) - c)
        outer = [radius + k * step for k in range(len(result.values))]
        inner = [-1] * len(outer) if kind == "hierarchical" else [-1, *outer[:-1]]
        rings = [cells[(a < distance) & (distance <= b)].tolist() for a, b in zip(inner, outer)]
        want = [statistics.median(ring) for ring in rings]
        assert list(map(repr, result.values)) == list(map(repr, want))
        assert repr(want[0]) == "-0.0" and repr(statistics.median(rings[0][::-1])) == "0.0"

    @pytest.mark.parametrize(
        "shape, cell",
        [
            # the NaN is the first value of group 1, which the reduce meets
            # before any later group's
            ("grid as (partition by x 3)", 3),
            ("circular as (radius 0 step 2)", 2),
            ("hierarchical as (radius 0 step 2)", 2),
        ],
    )
    def test_nan_names_the_lowest_group_holding_one(self, array_factory, shape, cell):
        cells = np.arange(9.0)
        cells[cell] = np.nan
        built = array_factory(extents=(9,), chunks=(3,), values=cells)
        with pytest.raises(EngineError, match=r"^reduce \(group 1\): NaN value in input$"):
            run_query(built, f"select median(val) from A {shape}", "naive")

    def test_optimized_median_plan_rejected_at_run(self, array_factory):
        from dataclasses import replace

        built = array_factory(extents=(4, 4), chunks=(2, 2))
        query = analyze(
            parse("select median(val) from A grid as (partition by x 2, y 2)"),
            built.catalog,
        )
        job = replace(plan(query, "naive"), mode="optimized")
        with pytest.raises(EngineError, match="holistic aggregator cannot run optimized"):
            run_job(job)


@st.composite
def sorted_runs(draw):
    """1-8 map outputs, each one run per group by ascending id, some empty;
    runs of 1-8 rows in some draws and of 50-100 in others, over
    consecutive ids or with gaps between them (empty runs). Each output is
    a Runs table and, for the reduce that sorts, the same rows as Pairs
    with their run keys expanded."""
    lengths = st.integers(50, 100) if draw(st.booleans()) else st.integers(1, 8)
    consecutive = draw(st.booleans())
    dtype = draw(st.sampled_from([np.float64, np.int64]))
    outputs, n = [], 0
    for _ in range(draw(st.integers(1, 8))):
        if consecutive:
            first = draw(st.integers(3, 40))
            gids = list(range(first, first + draw(st.integers(0, 6))))
        else:
            gids = sorted(draw(st.sets(st.integers(3, 40), max_size=6)))
        first = gids[0] if gids else 0
        sizes = np.zeros(gids[-1] - first + 1 if gids else 0, np.int64)
        sizes[np.array(gids, np.int64) - first] = [draw(lengths) for _ in gids]
        value = np.arange(n, n + sizes.sum()).astype(dtype)
        outputs.append(Runs(first, sizes, value))
        n += len(value)
    return outputs


class HolisticSpy(Aggregator):
    """A holistic aggregator that keeps what its reducer is handed."""

    name = "spy"
    algebraic = False

    def holistic_results(self, values, sizes):
        self.got = values, sizes
        return []


@settings(max_examples=200, deadline=None)
@given(sorted_runs())
def test_shuffle_merges_sorted_runs_in_group_order(outputs):
    pairs = [
        Pairs(np.repeat(np.arange(out.first, out.first + len(out.lengths)), out.lengths), out.value)
        for out in outputs
    ]
    gid = np.concatenate([out.gid for out in pairs])
    value = np.concatenate([out.value for out in outputs])
    order = group_order(gid)
    plain_counters = Counters()
    plain = engine.shuffle(pairs, plain_counters, value_bytes=RAW_VALUE_BYTES)
    assert plain.lo == (int(gid.min()) if len(gid) else 0)
    assert plain.sizes.tolist() == np.bincount(gid - plain.lo).tolist()
    counters = Counters()
    merged = engine.shuffle(outputs, counters, value_bytes=RAW_VALUE_BYTES)
    assert counters == plain_counters
    assert merged.lo == plain.lo
    assert merged.sizes.tolist() == plain.sizes.tolist()
    assert merged.rows.gid is None
    assert merged.rows.value.tolist() == value[order].tolist()
    assert list(merged) == list(plain)
    # a holistic reducer gets the values alone in group order, grouped by the
    # sizes: the merged runs, and the one stable sort of the concatenation
    for grouped in (merged, plain):
        spy = HolisticSpy()
        engine._reduce(grouped.rows, grouped.sizes, spy)
        got, sizes = spy.got
        assert sizes.tolist() == plain.sizes.tolist()
        assert got.tolist() == value[order].tolist()
        assert got.dtype == value.dtype
    for out in pairs:  # the shuffle copies: the map outputs are left as they were
        assert np.all(out.gid >= 3)



def cell_major_fold(job, agg):
    """The results and counters of a naive job folded from the cell-major
    pairs of ``membership.block``: each split's pairs, split by split,
    concatenated and grouped by the shuffle, then folded at once."""
    counters = Counters()
    membership = build_membership(job.geometry)
    outputs = []
    for split in compute_splits(job.query.array, job.splits.box, job.splits.data_path):
        block, keep = read_block(split, job.query.predicate, counters)
        cells, gids = membership.block(split.region, keep)
        outputs.append(Pairs(gids, block.ravel()[cells]))
        counters.add("map_output_records", len(gids))
    grouped = engine.shuffle(outputs, counters, value_bytes=RAW_VALUE_BYTES)
    counters.add("reduce_input_records", len(grouped.rows))
    values = [None] * job.geometry.group_count
    if len(grouped.rows):
        folded = agg.fold_groups(grouped.rows.gid, grouped.rows.value, sizes=grouped.sizes)
        for slot, result in zip(folded.gid.tolist(), agg.group_results(folded)):
            values[grouped.lo + slot] = result
    return values, counters


NEAR_2_62 = st.one_of(
    st.integers(2**62 - 1000, 2**62 + 1000), st.integers(-(2**62) - 1000, -(2**62) + 1000)
)


@st.composite
def ring_jobs(draw):
    """A naive hierarchical SUM, AVG, MIN, MAX or STDDEV over a sub-box of
    a 2-d array in ragged chunks, with or without a where filter, on any
    finite or infinite floats or on int64 values near +-2**62."""
    extents = (draw(st.integers(2, 12)), draw(st.integers(2, 12)))
    chunks = tuple(draw(st.integers(1, e)) for e in extents)
    lo = [draw(st.integers(0, e - 1)) for e in extents]
    hi = [draw(st.integers(l, e - 1)) for l, e in zip(lo, extents)]
    ints = draw(st.booleans())
    n = extents[0] * extents[1]
    element = NEAR_2_62 if ints else st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False))
    values = np.array(draw(st.lists(element, min_size=n, max_size=n)), np.int64 if ints else np.float64)
    agg = draw(st.sampled_from(["sum", "avg", "min", "max", "stddev"]))
    where = draw(st.sampled_from(["", " where val > 0", " where val < 1e300 and val <> 0"]))
    radius, step = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    box = ", ".join(map(str, lo + hi))
    text = f"select {agg}(val) from between (A, {box}){where} hierarchical as (radius {radius} step {step})"
    return extents, chunks, "int64" if ints else "float64", values.reshape(extents), text


UNIFORM_9X9 = np.random.default_rng(0).random((9, 9))
RING_TEXT = "select {}(val) from between (A, 0, 0, 8, 8) hierarchical as (radius 0 step 1)"


@settings(max_examples=150, deadline=None)
@given(case=ring_jobs())
# every ring of 9x9 uniform floats in five column strips: each group's sum
# depends on the order of its strips' runs
@example(case=((9, 9), (9, 2), "float64", UNIFORM_9X9, RING_TEXT.format("sum")))
@example(case=((9, 9), (9, 2), "float64", UNIFORM_9X9, RING_TEXT.format("stddev")))
def test_naive_ring_runs_fold_as_cell_major_pairs(tmp_path_factory, case):
    """A naive map over nested rings emits runs for algebraic aggregates
    too: the reduce of the merged runs gives the results (by repr and type)
    and the counters of a fold of the cell-major pairs, split by split."""
    extents, chunks, element_type, values, text = case
    built = build_array(
        tmp_path_factory.mktemp("rings"), extents=extents, chunks=chunks,
        element_type=element_type, values=values,
    )
    job = plan(analyze(parse(text), built.catalog), "naive")
    result = run_job(job)
    want, counters = cell_major_fold(job, job.query.agg)
    assert list(map(repr, result.values)) == list(map(repr, want)), text
    assert result.counters == counters, text


def test_naive_ring_geomean_names_the_lowest_rings_first_bad_value(array_factory):
    # rings of radius 0, step 1 around (4, 4) in column strips of 3: the
    # first bad value in cell order, -1.0 at (1, 1), lies in ring 3; ring 2
    # holds -2.0 at (2, 4) and -3.0 at (6, 2), and in split order (6, 2)'s
    # strip comes first
    cells = np.ones((9, 9))
    cells[1, 1], cells[2, 4], cells[6, 2] = -1.0, -2.0, -3.0
    built = array_factory(extents=(9, 9), chunks=(9, 3), values=cells)
    text = "select geomean(val) from A hierarchical as (radius 0 step 1)"
    with pytest.raises(EngineError, match=r"^reduce \(group 2\): .*positive values, got -3\.0$"):
        run_query(built, text, "naive")

class TestErrors:
    def test_nan_data_fails_both_modes(self, array_factory):
        vals = np.zeros((4, 4))
        vals[2, 2] = np.nan
        built = array_factory(extents=(4, 4), chunks=(2, 2), values=vals)
        text = "select sum(val) from A grid as (partition by x 2, y 2)"
        with pytest.raises(EngineError, match="NaN"):
            run_query(built, text, "naive")
        with pytest.raises(EngineError, match="map task"):
            run_query(built, text, "optimized")

    def test_geomean_domain_error_surfaces(self, array_factory):
        built = array_factory(extents=(4, 4), chunks=(4, 4), fill="ramp")  # contains 0
        with pytest.raises(EngineError, match="positive"):
            run_query(built, "select geomean(val) from A grid as (partition by x 2, y 2)")

    def test_geomean_names_the_value_each_mode_meets_first(self, array_factory):
        # row-major, the map meets -1 (group 1) before -2 (group 0); the
        # naive reduce goes group by group and meets -2 first
        vals = np.ones((2, 4))
        vals[0, 2], vals[1, 0] = -1.0, -2.0
        built = array_factory(extents=(2, 4), chunks=(2, 4), values=vals)
        text = "select geomean(val) from A grid as (partition by x 2, y 2)"
        with pytest.raises(EngineError, match=r"map task \(split 0\): .*got -1\.0"):
            run_query(built, text, "optimized")
        with pytest.raises(EngineError, match=r"reduce \(group 0\): .*got -2\.0"):
            run_query(built, text, "naive")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_map_error_closes_the_data_file(self, array_factory):
        # 8 x 64 in 4 x 8 chunks: two bands of eight splits, and split 2
        # holds a zero, so the map fails halfway through the first band
        vals = np.ones((8, 64))
        vals[1, 20] = 0.0
        built = array_factory(extents=(8, 64), chunks=(4, 8), values=vals)
        splits = compute_splits(built.schema, built.schema.whole_box(), built.data_path)
        assert [len(band) for band in _bands(splits)] == [8, 8]
        text = "select geomean(val) from A grid as (partition by x 2, y 2)"
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(EngineError, match=r"map task \(split 2\): .*positive") as excinfo:
            run_query(built, text, "optimized")
        # the traceback, which holds run_job's frame, is still alive
        assert excinfo.tb is not None
        assert len(os.listdir("/proc/self/fd")) == before

    def test_file_shrinking_between_bands(self, array_factory, monkeypatch):
        # the size check passes, the first band reads whole, the second
        # comes back short
        built = array_factory(extents=(8, 64), chunks=(4, 8))
        built.data_path.write_bytes(built.data_path.read_bytes()[:-8])
        stale_file_size(monkeypatch, built.schema.nbytes)
        reads = record_reads(monkeypatch)
        with pytest.raises(EngineError, match="short read .* does not match metadata"):
            run_query(built, "select sum(val) from A grid as (partition by x 2, y 2)")
        assert reads == [(0, 2048), (2048, 2040)]

    def test_missing_data_file(self, array_factory):
        built = array_factory(extents=(4, 4), chunks=(2, 2))
        built.data_path.unlink()
        with pytest.raises((EngineError, OSError)):
            run_query(built, "select avg(val) from A grid as (partition by x 2, y 2)")

    def test_truncated_data_file(self, array_factory):
        built = array_factory(extents=(4, 4), chunks=(2, 2))
        built.data_path.write_bytes(built.data_path.read_bytes()[:-16])
        with pytest.raises(EngineError, match="does not match metadata"):
            run_query(built, "select avg(val) from A grid as (partition by x 2, y 2)")

    def test_too_long_data_file(self, array_factory):
        built = array_factory(extents=(4, 4), chunks=(2, 2))
        built.data_path.write_bytes(built.data_path.read_bytes() + bytes(800))
        with pytest.raises(EngineError, match="does not match metadata"):
            run_query(built, "select avg(val) from A grid as (partition by x 2, y 2)")

    def test_bad_worker_count(self, array_factory):
        built = array_factory(extents=(4, 4), chunks=(2, 2))
        query = analyze(
            parse("select avg(val) from A grid as (partition by x 2, y 2)"),
            built.catalog,
        )
        with pytest.raises(EngineError, match="workers"):
            run_job(plan(query), workers=0)


class TestSerialExecution:
    def test_workers_start_no_thread(self, array_factory, monkeypatch):
        import threading

        def refuse(self):
            raise AssertionError("run_job started a thread")

        built = array_factory(extents=(8, 8), chunks=(2, 2), fill="uniform", seed=3)
        text = (
            "select avg(val) from A fixed window as (partition by "
            "x 1 preceding and 1 following, y 1 preceding and 1 following)"
        )
        expected = run_query(built, text, workers=1)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        result = run_query(built, text, workers=4)
        assert result.values == expected.values
        assert result.counters == expected.counters


class TestTimings:
    def test_phases_reported(self, array_factory):
        built = array_factory(extents=(8, 8), chunks=(4, 4))
        result = run_query(built, "select avg(val) from A grid as (partition by x 4, y 4)")
        assert set(result.timings) == {"map", "shuffle", "reduce", "total"}
        assert result.timings["total"] >= 0
