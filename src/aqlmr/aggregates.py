"""Aggregation functions over group partitions.

Every aggregator works through three operations on an AggSummary: fold a raw
cell value in during the map phase (update_in_map), merge two summaries during
the reduce phase (update_in_reduce), and turn the final summary into a result
(get_agg_result). Aggregators whose summaries merge losslessly are algebraic
and can be combined early, in the mapper; holistic ones (MEDIAN) need the full
value list and only run in naive mode, via holistic_result.

The summary keeps a running aggregate and a count; aggregators that need a
second accumulator (STDDEV's sum of squared deviations, custom ones) use the
ext slot.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence


class AggregateError(Exception):
    pass


class AggregateDomainError(AggregateError):
    """A value outside the aggregator's domain (e.g. GEOMEAN of a non-positive)."""


class AggregateDataError(AggregateError):
    """A value no aggregator accepts (NaN)."""


@dataclass(slots=True)
class AggSummary:
    aggregate: float | int = 0
    count: int = 0
    ext: float | int | None = None


def _check_value(value: float | int) -> None:
    if value != value:  # NaN
        raise AggregateDataError("NaN value in input")


class Aggregator:
    """Base aggregator; subclasses override the three-phase hooks."""

    name: str = ""
    algebraic: bool = True
    uses_ext: bool = False

    def identity(self) -> AggSummary:
        return AggSummary(0, 0, 0 if self.uses_ext else None)

    def update_in_map(self, summary: AggSummary, value: float | int) -> AggSummary:
        raise NotImplementedError

    def update_in_reduce(self, summary: AggSummary, other: AggSummary) -> AggSummary:
        raise NotImplementedError

    def get_agg_result(self, summary: AggSummary) -> float | int | None:
        raise NotImplementedError

    def holistic_result(self, values: Sequence[float | int]) -> float | int | None:
        raise AggregateError(f"{self.name} has no holistic evaluation")


class Sum(Aggregator):
    name = "sum"

    def update_in_map(self, summary: AggSummary, value: float | int) -> AggSummary:
        _check_value(value)
        summary.aggregate += value
        summary.count += 1
        return summary

    def update_in_reduce(self, summary: AggSummary, other: AggSummary) -> AggSummary:
        summary.aggregate += other.aggregate
        summary.count += other.count
        return summary

    def get_agg_result(self, summary: AggSummary) -> float | int | None:
        if summary.count == 0:
            return None
        return summary.aggregate


class Count(Aggregator):
    name = "count"

    def update_in_map(self, summary: AggSummary, value: float | int) -> AggSummary:
        _check_value(value)
        summary.count += 1
        return summary

    def update_in_reduce(self, summary: AggSummary, other: AggSummary) -> AggSummary:
        summary.count += other.count
        return summary

    def get_agg_result(self, summary: AggSummary) -> float | int | None:
        return summary.count


class Avg(Sum):
    name = "avg"

    def get_agg_result(self, summary: AggSummary) -> float | int | None:
        if summary.count == 0:
            return None
        return summary.aggregate / summary.count


class Min(Aggregator):
    name = "min"

    def update_in_map(self, summary: AggSummary, value: float | int) -> AggSummary:
        _check_value(value)
        if summary.count == 0 or value < summary.aggregate:
            summary.aggregate = value
        summary.count += 1
        return summary

    def update_in_reduce(self, summary: AggSummary, other: AggSummary) -> AggSummary:
        if other.count:
            if summary.count == 0 or other.aggregate < summary.aggregate:
                summary.aggregate = other.aggregate
            summary.count += other.count
        return summary

    def get_agg_result(self, summary: AggSummary) -> float | int | None:
        if summary.count == 0:
            return None
        return summary.aggregate


class Max(Aggregator):
    name = "max"

    def update_in_map(self, summary: AggSummary, value: float | int) -> AggSummary:
        _check_value(value)
        if summary.count == 0 or value > summary.aggregate:
            summary.aggregate = value
        summary.count += 1
        return summary

    def update_in_reduce(self, summary: AggSummary, other: AggSummary) -> AggSummary:
        if other.count:
            if summary.count == 0 or other.aggregate > summary.aggregate:
                summary.aggregate = other.aggregate
            summary.count += other.count
        return summary

    def get_agg_result(self, summary: AggSummary) -> float | int | None:
        if summary.count == 0:
            return None
        return summary.aggregate


class StdDev(Aggregator):
    """Population standard deviation, kept as (mean, count, M2) in the
    aggregate, count and ext slots: Welford's update folds a value in, and
    the pairwise formula of Chan, Golub and LeVeque merges two summaries.
    Unlike a sum of squares, this keeps its precision at large offsets."""

    name = "stddev"
    uses_ext = True

    def update_in_map(self, summary: AggSummary, value: float | int) -> AggSummary:
        _check_value(value)
        summary.count += 1
        delta = value - summary.aggregate
        summary.aggregate += delta / summary.count
        summary.ext += delta * (value - summary.aggregate)
        return summary

    def update_in_reduce(self, summary: AggSummary, other: AggSummary) -> AggSummary:
        n = summary.count + other.count
        if n:
            delta = other.aggregate - summary.aggregate
            summary.aggregate += delta * (other.count / n)
            summary.ext += other.ext + delta * delta * (summary.count * other.count / n)
            summary.count = n
        return summary

    def get_agg_result(self, summary: AggSummary) -> float | int | None:
        if summary.count == 0:
            return None
        return math.sqrt(summary.ext / summary.count)


class GeoMean(Sum):
    """Geometric mean via a running log sum; defined for positive values only.
    Summaries merge as sums do."""

    name = "geomean"

    def update_in_map(self, summary: AggSummary, value: float | int) -> AggSummary:
        _check_value(value)
        if value <= 0:
            raise AggregateDomainError(
                f"geomean needs positive values, got {value!r}"
            )
        summary.aggregate += math.log(value)
        summary.count += 1
        return summary

    def get_agg_result(self, summary: AggSummary) -> float | int | None:
        if summary.count == 0:
            return None
        return math.exp(summary.aggregate / summary.count)


class Median(Aggregator):
    """Holistic: needs every value, so it cannot be combined in the mapper."""

    name = "median"
    algebraic = False

    def update_in_map(self, summary: AggSummary, value: float | int) -> AggSummary:
        raise AggregateError("median summaries cannot be folded; use holistic_result")

    def update_in_reduce(self, summary: AggSummary, other: AggSummary) -> AggSummary:
        raise AggregateError("median summaries cannot be merged; use holistic_result")

    def get_agg_result(self, summary: AggSummary) -> float | int | None:
        raise AggregateError("median summaries cannot be finalized; use holistic_result")

    def holistic_result(self, values: Sequence[float | int]) -> float | int | None:
        if not values:
            return None
        for v in values:
            _check_value(v)
        return statistics.median(values)


class AggregatorRegistry:
    """Named aggregators, looked up case-insensitively."""

    def __init__(self) -> None:
        self._aggs: dict[str, Aggregator] = {}

    def register(self, agg: Aggregator) -> Aggregator:
        key = agg.name.lower()
        if not key:
            raise AggregateError("aggregator needs a name")
        if key in self._aggs:
            raise AggregateError(f"aggregator {agg.name!r} is already registered")
        self._aggs[key] = agg
        return agg

    def has(self, name: str) -> bool:
        return name.lower() in self._aggs

    def get(self, name: str) -> Aggregator:
        try:
            return self._aggs[name.lower()]
        except KeyError:
            raise AggregateError(f"unknown aggregate {name!r}") from None

    def canonical_name(self, name: str) -> str:
        return self.get(name).name


_DEFAULT: AggregatorRegistry | None = None


def default_registry() -> AggregatorRegistry:
    global _DEFAULT
    if _DEFAULT is None:
        registry = AggregatorRegistry()
        for cls in (Sum, Count, Avg, Min, Max, StdDev, GeoMean, Median):
            registry.register(cls())
        _DEFAULT = registry
    return _DEFAULT


def register_aggregator(
    agg: Aggregator, registry: AggregatorRegistry | None = None
) -> Aggregator:
    """Add a user-defined aggregator (to the shared registry by default)."""
    return (registry or default_registry()).register(agg)
