import math
import statistics
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqlmr import (
    AggregateDataError,
    AggregateDomainError,
    AggregateError,
    AggregatorRegistry,
    AggSummary,
    Aggregator,
    Summaries,
    default_registry,
    register_aggregator,
)
from aqlmr.aggregates import _span, group_order
from oracles import aggregate_direct

ALGEBRAIC = ("sum", "count", "avg", "min", "max", "stddev", "geomean")


def fold(agg, values):
    summary = agg.identity()
    for v in values:
        agg.update_in_map(summary, v)
    return summary


class TestFoldAndResult:
    @pytest.mark.parametrize("name", ALGEBRAIC)
    def test_matches_direct_formula(self, name):
        agg = default_registry().get(name)
        values = [1.5, 2.0, 0.25, 4.0, 1.0, 8.0]
        got = agg.get_agg_result(fold(agg, values))
        expected = aggregate_direct(name, np.array(values))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_stddev_summary_states(self):
        # (mean, count, M2): {1, 2} is (1.5, 2, 0.5); fold 3, then merge {4}
        agg = default_registry().get("stddev")
        s = AggSummary(1.5, 2, 0.5)
        agg.update_in_map(s, 3)
        assert (s.aggregate, s.count, s.ext) == (2.0, 3, 2.0)
        other = AggSummary(4, 1, 0)
        agg.update_in_reduce(s, other)
        assert (s.aggregate, s.count, s.ext) == (2.5, 4, 5.0)
        assert agg.get_agg_result(s) == pytest.approx(1.118033988749895)

    def test_stddev_merge_with_empty_is_exact(self):
        agg = default_registry().get("stddev")
        s = agg.identity()
        agg.update_in_reduce(s, AggSummary(0.1, 3, 0.7))
        assert (s.aggregate, s.count, s.ext) == (0.1, 3, 0.7)
        agg.update_in_reduce(s, agg.identity())
        assert (s.aggregate, s.count, s.ext) == (0.1, 3, 0.7)

    def test_stddev_constant_values(self):
        agg = default_registry().get("stddev")
        result = agg.get_agg_result(fold(agg, [4.0] * 100))
        assert result == 0.0  # every deviation from the mean is exactly 0

    def test_geomean_small_case(self):
        agg = default_registry().get("geomean")
        assert agg.get_agg_result(fold(agg, [1, 4])) == pytest.approx(2.0)

    def test_geomean_rejects_nonpositive(self):
        agg = default_registry().get("geomean")
        with pytest.raises(AggregateDomainError, match="positive"):
            agg.update_in_map(agg.identity(), 0)
        with pytest.raises(AggregateDomainError, match="positive"):
            agg.update_in_map(agg.identity(), -3.5)

    @pytest.mark.parametrize("name", ALGEBRAIC)
    def test_nan_rejected(self, name):
        agg = default_registry().get(name)
        with pytest.raises(AggregateDataError, match="NaN"):
            agg.update_in_map(agg.identity(), float("nan"))

    def test_min_max_track_counts(self):
        agg = default_registry().get("min")
        s = fold(agg, [2, 5, 3])
        assert (s.aggregate, s.count) == (2, 3)
        agg.update_in_reduce(s, AggSummary(5, 1))
        assert (s.aggregate, s.count) == (2, 4)
        agg.update_in_reduce(s, AggSummary(0, 0))  # empty side is a no-op
        assert (s.aggregate, s.count) == (2, 4)

    def test_empty_results(self):
        reg = default_registry()
        for name in ("sum", "avg", "min", "max", "stddev", "geomean"):
            agg = reg.get(name)
            assert agg.get_agg_result(agg.identity()) is None
        assert reg.get("count").get_agg_result(reg.get("count").identity()) == 0

    def test_identity_ext_slot(self):
        reg = default_registry()
        assert reg.get("stddev").identity().ext == 0
        assert reg.get("avg").identity().ext is None


INT64 = np.iinfo(np.int64)


@st.composite
def median_cases(draw):
    """Group ids and values in shuffled input order: many groups of one
    small size, a few large groups of distinct sizes, ids on both sides of
    2**16; float64 values with both signed zeros, +-inf and +-1e308 (whose
    sums overflow), or int64 values near +-2**62 and at int64's ends."""
    if draw(st.booleans()):
        element = st.one_of(
            st.integers(-1000, 1000),
            st.integers(2**62 - 8, 2**62 + 8),
            st.integers(-(2**62) - 8, -(2**62) + 8),
            st.sampled_from([int(INT64.min), int(INT64.min) + 1, int(INT64.max) - 1, int(INT64.max)]),
        )
        dtype = np.int64
    else:
        element = st.one_of(
            st.sampled_from([0.0, -0.0, 1e308, -1e308, math.inf, -math.inf]),
            st.floats(allow_nan=False),
        )
        dtype = np.float64
    small = draw(st.integers(1, 6))
    sizes = [small] * draw(st.integers(0, 24)) + draw(st.lists(st.integers(7, 40), max_size=3, unique=True))
    sizes = sizes or [small]
    ids = draw(
        st.lists(
            st.one_of(st.integers(0, 50), st.integers(2**16 - 4, 2**16 + 4), st.integers(0, 2**17)),
            min_size=len(sizes), max_size=len(sizes), unique=True,
        )
    )
    values = draw(st.lists(element, min_size=sum(sizes), max_size=sum(sizes)))
    order = draw(st.permutations(range(len(values))))
    gids = np.repeat(np.array(ids, np.int64), sizes)[order]
    return gids, np.array(values, dtype)[order]


def _zero_group(signs: str):
    return np.zeros(len(signs), np.int64), np.array([-0.0 if c == "-" else 0.0 for c in signs])


def _middle_zeros(groups: dict[int, str], extra: int = 0):
    """Groups of -300.0..-1.0 and 1.0..300.0 around their signed zeros ("-"
    is -0.0), which sit at each group's middle, the values interleaved group
    by group in input order, and ``extra`` values 1.0, 2.0, ... in group
    999."""
    gids, values = [], []
    for i in range(300):
        for gid, signs in groups.items():
            gids += [gid, gid]
            values += [-(i + 1.0), float(i + 1)]
            if i < len(signs):
                gids.append(gid)
                values.append(-0.0 if signs[i] == "-" else 0.0)
    gids += [999] * extra
    values += [float(v) for v in range(1, extra + 1)]
    return np.array(gids, np.int64), np.array(values)


def _large_groups(ints: bool):
    """Groups of 2 to 1,001 values in shuffled input order, on both sides of
    the size from which MEDIAN partitions instead of sorting: int64 values
    near +-2**62, or normal floats with some +-inf."""
    rng = np.random.default_rng(3)
    sizes = [2, 510, 511, 512, 512, 513, 1000, 1001]
    gids = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    if ints:
        return gids, rng.integers(-8, 9, len(gids)) + np.where(gids % 2, -(2**62), 2**62)
    values = rng.standard_normal(len(gids))
    values[rng.random(len(gids)) < 0.05] = np.inf
    values[rng.random(len(gids)) < 0.05] = -np.inf
    return gids, values


def grouped(gids: np.ndarray, values: np.ndarray):
    """The values in stable group order and the rows of each slot, as the
    engine hands a holistic reducer its values: ids made slots by _span,
    then sorted by group_order."""
    slots = gids.copy()
    _, sizes = _span(slots)
    return values[group_order(slots)], sizes


class TestMedian:
    def test_holistic_result(self):
        agg = default_registry().get("median")
        assert agg.holistic_result([5, 1, 3]) == 3
        assert agg.holistic_result([4, 1, 3, 2]) == 2.5
        assert agg.holistic_result([]) is None

    def test_not_algebraic(self):
        agg = default_registry().get("median")
        assert not agg.algebraic
        with pytest.raises(AggregateError):
            agg.update_in_map(agg.identity(), 1)
        with pytest.raises(AggregateError):
            agg.update_in_reduce(agg.identity(), AggSummary(1, 1))

    def test_nan_rejected(self):
        agg = default_registry().get("median")
        with pytest.raises(AggregateDataError, match="NaN"):
            agg.holistic_result([1.0, float("nan")])


    def test_group_sort_on_either_side_of_uint16(self):
        """Slots below 2**16 sort as uint16, larger ones as int64: the
        medians of the same groups come out equal and in the same order, for
        MEDIAN's vector hook and the base class's per-group loop."""
        rng = np.random.default_rng(6)
        group = rng.integers(0, 4, 3000)
        values = rng.integers(0, 40, 3000) / 4
        agg = default_registry().get("median")
        results = []
        for top in (2**16 - 1, 2**16):
            gids = np.array([0, 7, top - 1, top])[group]
            want = [
                statistics.median(values[gids == g].tolist()) for g in sorted(set(gids.tolist()))
            ]
            got = agg.holistic_results(*grouped(gids, values))
            assert list(map(repr, got)) == list(map(repr, want))
            got = Aggregator.holistic_results(agg, *grouped(gids, values))
            assert list(map(repr, got)) == list(map(repr, want))
            results.append(want)
        assert results[0] == results[1]

    @settings(max_examples=200, deadline=None)
    @given(case=median_cases())
    # groups of signed zeros ("-" is -0.0) whose middle values are -0.0, 0.0;
    # 0.0, -0.0; -0.0, -0.0; and an odd group's -0.0: in each, numpy's
    # partition can reorder the zeros
    @example(case=_zero_group("++--++--++----+-"))
    @example(case=_zero_group("+-+-++-+---++--+"))
    @example(case=_zero_group("+-+++-+---++--+-"))
    @example(case=_zero_group("---------+----+-+"))
    # a 604-value group alone in its size class, whose middle values are
    # its second and third zeros, beside a group of 3; four groups of 604
    # and one of 603
    @example(case=_middle_zeros({5: "+--+"}, extra=3))
    @example(case=_middle_zeros({0: "+--+", 1: "-++-", 2: "+-+-", 3: "--++", 4: "-+-"}))
    # even int64 groups near +-2**62: l + u is past int64, exact in Python ints
    @example(
        case=(
            np.array([0, 1, 0, 1, 0, 1, 0, 1], np.int64),
            np.array([9, -9, 3, -3, 5, -5, 7, -1], np.int64) + np.array([2**62, -(2**62)] * 4),
        )
    )
    @example(case=_large_groups(ints=True))
    @example(case=_large_groups(ints=False))
    def test_holistic_results_are_statistics_median(self, case):
        """The vector hook gives statistics.median of each group's values in
        input order, compared by repr: the same type, the same bits and the
        same signed zero."""
        gids, values = case
        want = [
            statistics.median(values[gids == g].tolist()) for g in sorted(set(gids.tolist()))
        ]
        got = default_registry().get("median").holistic_results(*grouped(gids, values))
        assert list(map(repr, got)) == list(map(repr, want))


class TestRegistry:
    def test_case_insensitive(self):
        reg = default_registry()
        assert reg.get("AVG") is reg.get("avg")
        assert reg.get("StdDev").name == "stddev"

    def test_unknown(self):
        with pytest.raises(AggregateError, match="unknown aggregate"):
            default_registry().get("mode")

    def test_duplicate(self):
        reg = AggregatorRegistry()

        class Dummy(Aggregator):
            name = "dummy"

        reg.register(Dummy())
        with pytest.raises(AggregateError, match="already registered"):
            reg.register(Dummy())

    def test_custom_aggregator_registers_and_runs(self):
        class ValueRange(Aggregator):
            """max - min; keeps min in aggregate and max in ext."""

            name = "vrange"
            uses_ext = True

            def update_in_map(self, summary, value):
                if summary.count == 0:
                    summary.aggregate = value
                    summary.ext = value
                else:
                    summary.aggregate = min(summary.aggregate, value)
                    summary.ext = max(summary.ext, value)
                summary.count += 1
                return summary

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
                if summary.count == 0:
                    return None
                return summary.ext - summary.aggregate

        reg = AggregatorRegistry()
        register_aggregator(ValueRange(), reg)
        agg = reg.get("VRANGE")
        assert agg.get_agg_result(fold(agg, [3, 9, 4, 1])) == 8


_values = st.lists(
    st.one_of(
        st.integers(-1000, 1000),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(("sum", "count", "avg", "min", "max", "stddev")), values=_values, cut=st.integers(0, 60))
def test_merge_equals_single_fold(name, values, cut):
    """Folding two halves and merging gives the same result as one fold."""
    agg = default_registry().get(name)
    cut = min(cut, len(values))
    left = fold(agg, values[:cut])
    right = fold(agg, values[cut:])
    merged = agg.update_in_reduce(agg.identity(), left)
    agg.update_in_reduce(merged, right)
    whole = fold(agg, values)
    a = agg.get_agg_result(merged)
    b = agg.get_agg_result(whole)
    if a is None or b is None:
        assert a == b
    else:
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1, max_size=40),
    cut=st.integers(0, 40),
)
def test_geomean_merge_property(values, cut):
    agg = default_registry().get("geomean")
    cut = min(cut, len(values))
    merged = agg.update_in_reduce(agg.identity(), fold(agg, values[:cut]))
    agg.update_in_reduce(merged, fold(agg, values[cut:]))
    direct = math.prod(values) ** (1.0 / len(values))
    assert agg.get_agg_result(merged) == pytest.approx(direct, rel=1e-9)


@st.composite
def law_cases(draw):
    """Sorted group ids (the order a reducer folds in), float64 values with
    infinities and values near the double range, possibly one NaN, or int64
    values near +-2**62 and at int64's ends; a cut into two map outputs."""
    name = draw(st.sampled_from(("sum", "count", "avg", "min", "max", "geomean")))
    if draw(st.booleans()):
        element = st.one_of(
            st.integers(-1000, 1000),
            st.integers(2**62 - 8, 2**62 + 8),
            st.integers(-(2**62) - 8, -(2**62) + 8),
            st.sampled_from([int(INT64.min), int(INT64.max)]),
        )
        dtype = np.int64
    else:
        element = st.one_of(
            st.floats(allow_nan=False), st.sampled_from([1e308, -1e308, math.inf, -math.inf])
        )
        dtype = np.float64
    values = draw(st.lists(element, min_size=1, max_size=40))
    if name == "geomean" and draw(st.integers(0, 3)):  # mostly in the domain
        top = INT64.max if dtype == np.int64 else math.inf
        values = [min(abs(v), top) or 1 for v in values]
    if dtype == np.float64 and draw(st.integers(0, 4)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = math.nan
    gids = sorted(draw(st.lists(st.integers(0, 3), min_size=len(values), max_size=len(values))))
    cut = draw(st.integers(0, len(values)))
    return name, np.array(gids, np.int64), np.array(values, dtype), cut


def results_or_error(fold, merge, finish, gids, values, cut):
    """Fold each side of the cut, merge the two tables, finish: (group ids,
    results), or the error's (type, message, group). Ids 0..3 are their own
    slots: each hook gets its rows grouped, with the sizes of slots 0 to the
    largest id."""
    try:
        left, right = (
            fold(g, v, sizes=np.bincount(g))
            for g, v in ((gids[:cut], values[:cut]), (gids[cut:], values[cut:]))
        )
        columns = ([p.gid, p.aggregate, p.count] for p in (left, right))
        table = Summaries(*map(np.concatenate, zip(*columns)))
        table = merge(table, sizes=np.bincount(table.gid))
        return table.gid.tolist(), finish(table)
    except (AggregateError, OverflowError) as exc:  # OverflowError: GEOMEAN's math.exp
        return type(exc), str(exc), getattr(exc, "group", None)


@settings(max_examples=400, deadline=None)
@given(case=law_cases())
# np.log and math.log differ in the last bit at 9170.0
@example(case=("geomean", np.zeros(1, np.int64), np.array([9170.0]), 1))
def test_scalar_and_column_paths_agree(case):
    """A built-in's one merge law gives the same bits through its scalar
    hooks (the base class's loops over update_in_map, update_in_reduce and
    get_agg_result) and its column hooks, and the same error for a NaN or a
    non-positive GEOMEAN value. MIN and MAX may return either signed zero."""
    name, gids, values, cut = case
    agg = default_registry().get(name)
    scalar = results_or_error(
        partial(Aggregator.fold_groups, agg),
        partial(Aggregator.merge_groups, agg),
        partial(Aggregator.group_results, agg),
        gids, values, cut,
    )
    column = results_or_error(
        agg.fold_groups, agg.merge_groups, agg.group_results, gids, values, cut
    )
    if name in ("min", "max") and len(scalar) == 2 and len(column) == 2:
        scalar, column = (  # -0.0 reads as 0.0
            (ids, [abs(v) if v == 0 else v for v in out]) for ids, out in (scalar, column)
        )
    assert repr(scalar) == repr(column), case
