"""The built-in aggregators: SUM, COUNT, AVG, MIN, MAX, STDDEV, GEOMEAN
and MEDIAN.

Each has the scalar hooks of aggregates.Aggregator and numpy vector hooks,
and the engine calls only the vector ones (and GEOMEAN's get_agg_result);
the scalar loop of the base class serves custom aggregators alone. The
algebraic ones fold a value in by merging a one-value summary, so one merge
law per aggregator serves the map and the reduce, written once as a scalar
update_in_reduce and once over columns. Sums accumulate in input order
(np.bincount, np.add.at), so float results equal a sequential fold; int64
sums are exact, switching to Python ints where they could overflow. The
optimized sliding map is the exception: it sums each window of a split with
shifted adds (grouping.Membership.fold), in another order, so float window
sums can differ from a sequential fold in their last bits. The code
sticks to a few numpy kernels (bincount, ufunc.at, stable argsort, cumsum,
repeat and indexing): each new kernel maps more of numpy's code into every
process that runs a query.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

import numpy as np

from .aggregates import (
    AggregateDataError,
    AggregateDomainError,
    AggregateError,
    Aggregator,
    AggSummary,
    Summaries,
    _counts,
    _in_group,
    _span,
    group_bounds,
    group_order,
)


def _check_value(value: float | int) -> None:
    if value != value:  # NaN
        raise AggregateDataError("NaN value in input")


def _first(gids: np.ndarray, bad: np.ndarray) -> int:
    """Of the rows ``bad`` lists, the one a group-by-group loop meets first:
    the earliest in the lowest group."""
    return int(bad[np.argmin(gids[bad])])


def _reject_nan(gids: np.ndarray, values: np.ndarray) -> None:
    """_check_value for a column: raise for the first NaN."""
    if values.dtype.kind == "f":
        bad = np.flatnonzero(np.isnan(values))
        if len(bad):
            raise _in_group(AggregateDataError("NaN value in input"), gids[_first(gids, bad)])


def _sums(row: np.ndarray, size: int, column: np.ndarray) -> np.ndarray:
    """Per-group sums of a column in input order. Integer sums are exact: in
    int64 while max |v| * len < 2**63, else in Python ints (an object
    column), which do not wrap."""
    if column.dtype == np.float64:
        return np.bincount(row, weights=column, minlength=size)
    if column.dtype != np.int64 or max(-int(column.min()), int(column.max())) * len(column) >= 2**63:
        column = column.astype(object)
    out = np.zeros(size, column.dtype)
    np.add.at(out, row, column)
    return out


class _Columnar(Aggregator):
    """A built-in with numpy vector hooks. Folding a value in is merging a
    one-value summary, in the scalar hooks as in the vector ones, so each
    built-in states its merge law once per form."""

    def update_in_map(self, summary: AggSummary, value: float | int) -> AggSummary:
        _check_value(value)
        return self.update_in_reduce(summary, AggSummary(value, 1, 0 if self.uses_ext else None))

    def fold_groups(self, gids: np.ndarray, values: np.ndarray) -> Summaries:
        _reject_nan(gids, values)
        ext = np.zeros(len(values)) if self.uses_ext else None
        return self.merge_groups(Summaries(gids, values, np.ones(len(values)), ext))

    def window_values(self, block: np.ndarray, keep: np.ndarray | None) -> np.ndarray | None:
        """The block as a window kernel combines it: cells ``keep`` drops
        hold a value that changes no window's summary. None when a kept value
        is NaN, so that fold_groups raises its error."""
        if keep is not None:
            block = np.where(keep, block, self._fill(block.dtype))
        if block.dtype.kind == "f" and np.isnan(block).any():
            return None
        return block

    def _fill(self, dtype: np.dtype) -> float | int:
        return 0

    def merge_groups(self, table: Summaries) -> Summaries:
        if not len(table):
            return table
        lo, row, present = _span(table.gid)
        merged = self._merge(row, int(present[-1]) + 1, table)
        return Summaries(present + lo, *(None if c is None else c[present] for c in merged))

    def _merge(self, row: np.ndarray, size: int, table: Summaries):
        """The merged (aggregate, count, ext) columns of a table, indexed by
        slot (row i goes to slot row[i] < size). Slots no row reaches hold
        anything."""
        raise NotImplementedError

    def group_results(self, table: Summaries) -> list:
        return table.aggregate.tolist()


class Sum(_Columnar):
    name = "sum"
    combine = "sum"

    def update_in_reduce(self, summary: AggSummary, other: AggSummary) -> AggSummary:
        summary.aggregate += other.aggregate
        summary.count += other.count
        return summary

    def get_agg_result(self, summary: AggSummary) -> float | int | None:
        if summary.count == 0:
            return None
        return summary.aggregate

    def _merge(self, row, size, table):
        return _sums(row, size, table.aggregate), _sums(row, size, table.count), None


class Count(_Columnar):
    name = "count"
    combine = "count"

    def update_in_reduce(self, summary: AggSummary, other: AggSummary) -> AggSummary:
        summary.count += other.count
        return summary

    def get_agg_result(self, summary: AggSummary) -> float | int | None:
        return summary.count

    def _merge(self, row, size, table):
        return np.zeros(size, np.int64), _sums(row, size, table.count), None

    def group_results(self, table: Summaries) -> list:
        return _counts(table.count)


class Avg(Sum):
    name = "avg"

    def get_agg_result(self, summary: AggSummary) -> float | int | None:
        if summary.count == 0:
            return None
        return summary.aggregate / summary.count

    def group_results(self, table: Summaries) -> list:
        if table.aggregate.dtype == np.float64:
            return (table.aggregate / table.count).tolist()
        # Python's int / int is correctly rounded; int64 -> float64 first is not
        return [s / n for s, n in zip(table.aggregate.tolist(), _counts(table.count))]


class Min(_Columnar):
    name = "min"
    combine = "min"
    _largest = False

    def _fill(self, dtype):
        if dtype.kind == "f":
            return -math.inf if self._largest else math.inf
        info = np.iinfo(dtype)
        return info.min if self._largest else info.max

    def update_in_reduce(self, summary: AggSummary, other: AggSummary) -> AggSummary:
        if other.count:
            new, old = other.aggregate, summary.aggregate
            if summary.count == 0 or (new > old if self._largest else new < old):
                summary.aggregate = new
            summary.count += other.count
        return summary

    def get_agg_result(self, summary: AggSummary) -> float | int | None:
        if summary.count == 0:
            return None
        return summary.aggregate

    def _merge(self, row, size, table):
        values = table.aggregate
        # a float maximum is minus the minimum of the negated values, exactly,
        # and np.minimum.at is the one ufunc.at the float path needs
        flip = self._largest and values.dtype == np.float64
        if flip:
            values = values * -1.0
        out = np.zeros(size, values.dtype)
        out[row] = values  # any member value starts the fold
        (np.maximum if self._largest and not flip else np.minimum).at(out, row, values)
        return out * -1.0 if flip else out, _sums(row, size, table.count), None


class Max(Min):
    name = "max"
    combine = "max"
    _largest = True


class StdDev(_Columnar):
    """Population standard deviation, kept as (mean, count, M2) in the
    aggregate, count and ext slots. Summaries merge by the pairwise formula
    of Chan, Golub and LeVeque; folding a value in merges (value, 1, 0),
    which is Welford's update. Unlike a sum of squares, this keeps its
    precision at large offsets.

    The vector hooks merge a whole group at once: M2 adds the rows' M2 and
    their squared deviations from the group's mean, both taken from one
    member's mean so the sums stay small at large offsets. Results can
    differ from the scalar fold in the last bits."""

    name = "stddev"
    uses_ext = True
    combine = None  # a sum-of-squares kernel would bring back cancellation

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

    def _merge(self, row, size, table):
        weight = table.count
        n = _sums(row, size, weight)
        # inf - inf and overflowing squares give nan and inf, as Python floats
        # do; slots no row reaches divide 0 by 0
        with np.errstate(invalid="ignore", over="ignore"):
            ref = np.zeros(size)
            ref[row] = table.aggregate  # one member's mean per group
            delta = table.aggregate - ref[row]
            shift = np.bincount(row, weights=delta * weight, minlength=size) / n
            delta -= shift[row]
            m2 = np.bincount(row, weights=delta * delta * weight + table.ext, minlength=size)
            return ref + shift, n, m2

    def group_results(self, table: Summaries) -> list:
        return np.sqrt(table.ext / table.count).tolist()


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
        return super().update_in_map(summary, math.log(value))

    def get_agg_result(self, summary: AggSummary) -> float | int | None:
        if summary.count == 0:
            return None
        return math.exp(summary.aggregate / summary.count)

    def fold_groups(self, gids: np.ndarray, values: np.ndarray) -> Summaries:
        bad = np.flatnonzero(~(values > 0))  # NaN fails the test too
        if len(bad):
            first = bad[0]  # the value a fold in input order meets first
            try:  # the scalar hook names the value
                self.update_in_map(self.identity(), values[first].item())
            except AggregateError as exc:
                raise _in_group(exc, gids[first])
        return super().fold_groups(gids, _logs(values))

    def window_values(self, block, keep):
        if keep is not None:
            block = np.where(keep, block, 1)  # log 1 is the sum's 0
        if not (block > 0).all():  # NaN fails the test too
            return None
        return _logs(block.ravel()).reshape(block.shape)

    group_results = Aggregator.group_results


def _logs(values: np.ndarray) -> np.ndarray:
    # math.log, not np.log, whose last bit differs for some inputs
    return np.fromiter(map(math.log, values.tolist()), np.float64, len(values))


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

    def holistic_results(self, gids: np.ndarray, values: np.ndarray) -> list:
        """statistics.median of each group: sort by value, then stably by
        group, and take the middle value or the mean of the middle two."""
        _reject_nan(gids, values)
        order = np.argsort(values, kind="stable")
        order = order[group_order(gids[order])]
        bounds = group_bounds(gids[order])
        n = np.diff(bounds)
        upper = values[order[bounds[:-1] + (n >> 1)]]
        lower = values[order[bounds[:-1] + ((n - 1) >> 1)]]
        if values.dtype != np.float64:  # exact in Python ints, no int64 overflow
            return [
                u if k % 2 else (l + u) / 2
                for l, u, k in zip(lower.tolist(), upper.tolist(), n.tolist())
            ]
        with np.errstate(invalid="ignore", over="ignore"):  # as Python floats do
            middle = (lower + upper) / 2
        odd = np.flatnonzero(n - 2 * (n >> 1))
        middle[odd] = upper[odd]  # the middle value itself, which l + u could overflow
        return middle.tolist()


BUILTINS = (Sum, Count, Avg, Min, Max, StdDev, GeoMean, Median)
