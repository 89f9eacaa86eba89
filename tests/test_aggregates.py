import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqlmr import (
    AggregateDataError,
    AggregateDomainError,
    AggregateError,
    AggregatorRegistry,
    AggSummary,
    Aggregator,
    default_registry,
    register_aggregator,
)
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
        """Group ids below 2**16 sort as uint16, larger ones as int64: the
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
            assert agg.holistic_results(gids, values) == want
            assert Aggregator.holistic_results(agg, gids, values) == want
            results.append(want)
        assert results[0] == results[1]


class TestRegistry:
    def test_case_insensitive(self):
        reg = default_registry()
        assert reg.get("AVG") is reg.get("avg")
        assert reg.canonical_name("StdDev") == "stddev"

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
