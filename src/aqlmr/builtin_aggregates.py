"""The built-in aggregators: SUM, COUNT, AVG, MIN, MAX, STDDEV, GEOMEAN
and MEDIAN.

Each has the scalar hooks of aggregates.Aggregator and numpy vector hooks,
and the engine calls only the vector ones; the scalar loop of the base
class serves custom aggregators alone. A built-in states its merge law
once, as its ``combine`` kind (Gray et al.'s distributive sum, count, min
or max), from which _Columnar derives the scalar merge and, through one
kind-to-ufunc table, both the column merge and the window kernel
(window_aggregate); folding a value in merges a one-value summary of its
lift (GEOMEAN's log). STDDEV's Chan merge and holistic MEDIAN keep their
own hooks. Sums accumulate in input order (np.bincount, np.add.at), so
float results equal a sequential fold; int64 sums are exact, switching to
Python ints where they could overflow. The optimized maps of grids and
sliding windows are the exception: window_aggregate sums each window of a
split with shifted adds, or, where the windows tile the box (every grid
block, every tumbling window), each piece of a band or split with
ufunc.reduceat, in another order, so float window sums can differ from a
sequential fold in their last bits. The cells a ``where`` filter drops get the combine's
neutral value by bit masks (_fill_dropped), not np.where. The code sticks to a
few numpy kernels (bincount, ufunc.at, ufunc.reduceat, bitwise and/xor,
stable argsort, cumsum, repeat and indexing, np.sort and np.partition):
each new kernel maps more of numpy's code into every process that runs a
query. The sorts and the partition earn their pages in MEDIAN's reduce,
which needs only each group's two middle values: in a large group a
selection (introselect) takes linear time where a sort takes n log n, and
in a small one numpy's SIMD sort beats the partition's per-row cost. The
stable sort serves MEDIAN's signed-zero re-read, which must meet the zeros
in input order, as sorted() does.
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
    group_order,
)


def _check_value(value: float | int) -> None:
    if value != value:  # NaN
        raise AggregateDataError("NaN value in input")


def _reject_nan(gids: np.ndarray | None, values: np.ndarray) -> None:
    """_check_value for a column: raise naming the lowest group with a NaN,
    the one a group-by-group loop meets first (no group without gids)."""
    if values.dtype.kind == "f":
        bad = np.isnan(values)
        if bad.any():
            exc = AggregateDataError("NaN value in input")
            raise exc if gids is None else _in_group(exc, gids[bad].min())


def _exact_int64(column: np.ndarray, n: int) -> bool:
    """Whether int64 sums of up to ``n`` values of ``column`` are exact:
    it is int64 and max |v| * n < 2**63."""
    return column.dtype == np.int64 and max(-int(column.min()), int(column.max())) * n < 2**63


def _sums(row: np.ndarray, size: int, column: np.ndarray) -> np.ndarray:
    """Per-group sums of a column in input order. Integer sums are exact: in
    int64 where _exact_int64 allows, else in Python ints (an object
    column), which do not wrap."""
    if column.dtype == np.float64:
        return np.bincount(row, weights=column, minlength=size)
    if not _exact_int64(column, len(column)):
        column = column.astype(object)
    out = np.zeros(size, column.dtype)
    np.add.at(out, row, column)
    return out


# the ufunc that combines two summaries' aggregates, by combine kind
_UFUNCS = {"sum": np.add, "count": np.add, "min": np.minimum, "max": np.maximum}


def _start(combine: str, dtype: np.dtype) -> float | int:
    """The value a combine kind starts from, which no value of ``dtype``
    changes: 0 for sums and counts, the top of the range for a minimum and
    the bottom for a maximum."""
    if combine in ("sum", "count"):
        return 0
    if dtype.kind == "f":
        return math.inf if combine == "min" else -math.inf
    info = np.iinfo(dtype)
    return info.max if combine == "min" else info.min


def _fill_dropped(values: np.ndarray, keep: np.ndarray, fill: float | int) -> None:
    """Set the cells of ``values`` (float64 or int64) that ``keep`` drops to
    ``fill``, in place and on the values' bits: ((bits ^ f) & m) ^ f, with m
    all ones where keep holds and 0 elsewhere and f the fill's bits. No
    branch per cell, so it runs many times faster than np.where or a boolean
    scatter; a dropped NaN or inf is gone, not multiplied by 0; and no
    block-sized array is made, whose malloc and free per band would make
    glibc give pages back to the system and fault them in again."""
    f = int(np.array(fill, values.dtype).view(np.int64)) if fill else 0
    bits = values.view(np.int64)
    if f:
        bits ^= f
    bits &= -keep.view(np.int8)
    if f:
        bits ^= f


class _Columnar(Aggregator):
    """A built-in whose scalar and vector hooks all follow its ``combine``
    kind: folding a value in merges a one-value summary of its lift."""

    def update_in_map(self, summary: AggSummary, value: float | int) -> AggSummary:
        _check_value(value)
        return self.update_in_reduce(summary, AggSummary(value, 1, 0 if self.uses_ext else None))

    def update_in_reduce(self, summary: AggSummary, other: AggSummary) -> AggSummary:
        if self.combine == "sum":
            summary.aggregate += other.aggregate
        elif self.combine != "count" and other.count:
            new, old = other.aggregate, summary.aggregate
            if summary.count == 0 or (new < old if self.combine == "min" else new > old):
                summary.aggregate = new
        summary.count += other.count
        return summary

    def get_agg_result(self, summary: AggSummary) -> float | int | None:
        if summary.count == 0:
            return None
        return summary.aggregate

    def lift(self, gids: np.ndarray | None, values: np.ndarray) -> np.ndarray:
        """The values the summaries combine, after the domain check: the
        values themselves, none NaN. A failed check raises naming the
        value's group in ``gids`` (no group when None)."""
        _reject_nan(gids, values)
        return values

    def fold_groups(self, gids: np.ndarray, values: np.ndarray, sizes: np.ndarray) -> Summaries:
        values = self.lift(gids, values)
        ext = np.zeros(len(values)) if self.uses_ext else None
        return self.merge_groups(Summaries(gids, values, np.ones(len(values)), ext), sizes)

    def window_aggregate(self, block: np.ndarray, keep: np.ndarray | None, cells: int, slide):
        """Each window's aggregate column, as fold_groups gives it, from
        ``slide(values, ufunc, start)``, which combines ``values`` (of the
        block's shape) into windows of up to ``cells`` cells. The lifted
        block fills the cells ``keep`` keeps, the start value those it
        drops; COUNT slides zeros. The dropped cells of ``block`` are
        overwritten (see dropped). None when the kernel would not give
        fold_groups' rows: a kept value fails lift (fold_groups raises its
        error), or int64 window sums could overflow."""
        if keep is not None:
            _fill_dropped(block, keep, self.dropped(block.dtype))
        try:
            flat = self.lift(None, block.ravel())
        except AggregateError:
            return None
        values = flat.reshape(block.shape)
        if self.combine == "count":
            values = np.broadcast_to(np.int64(0), block.shape)
        if self.combine == "sum" and values.dtype != np.float64 and not _exact_int64(values, cells):
            return None
        # sums past the double range give inf, and inf - inf nan, as Python
        # floats do and without numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return slide(values, _UFUNCS[self.combine], _start(self.combine, values.dtype)).ravel()

    def dropped(self, dtype: np.dtype) -> float | int:
        """What window_aggregate writes into a dropped cell of its block
        before lift: a value whose lift is the start value."""
        return _start(self.combine, dtype)

    def merge_groups(self, table: Summaries, sizes: np.ndarray) -> Summaries:
        if not len(table):
            return table
        present = np.flatnonzero(sizes)
        merged = self._merge(table.gid, len(sizes), table)
        if len(present) < len(sizes):  # some slot is empty: keep the others
            merged = (None if c is None else c[present] for c in merged)
        return Summaries(present, *merged)

    def _merge(self, row: np.ndarray, size: int, table: Summaries):
        """The merged (aggregate, count, ext) columns of a table, indexed by
        slot (row i goes to slot row[i] < size). Slots no row reaches hold
        anything."""
        counts = _sums(row, size, table.count)
        if self.combine == "count":
            return np.zeros(size, np.int64), counts, None
        if self.combine == "sum":
            return _sums(row, size, table.aggregate), counts, None
        values, ufunc = table.aggregate, _UFUNCS[self.combine]
        # a float maximum is minus the minimum of the negated values, exactly,
        # and np.minimum.at is the one ufunc.at the float path needs
        flip = ufunc is np.maximum and values.dtype == np.float64
        if flip:
            values, ufunc = values * -1.0, np.minimum
        out = np.zeros(size, values.dtype)
        out[row] = values  # any member value starts the fold
        ufunc.at(out, row, values)
        return out * -1.0 if flip else out, counts, None

    def group_results(self, table: Summaries) -> list:
        return table.aggregate.tolist()


class Sum(_Columnar):
    name = "sum"
    combine = "sum"


class Count(_Columnar):
    name = "count"
    combine = "count"

    def get_agg_result(self, summary: AggSummary) -> float | int | None:
        return summary.count

    def group_results(self, table: Summaries) -> list:
        return _counts(table.count)


class Avg(_Columnar):
    name = "avg"
    combine = "sum"

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


class Max(_Columnar):
    name = "max"
    combine = "max"


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


class GeoMean(_Columnar):
    """Geometric mean via a running log sum; defined for positive values only.
    Summaries merge as sums do."""

    name = "geomean"
    combine = "sum"

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

    def lift(self, gids: np.ndarray | None, values: np.ndarray) -> np.ndarray:
        """The values' logs, after checking that each is positive."""
        bad = np.flatnonzero(~(values > 0))  # NaN fails the test too
        if len(bad):
            first = bad[0]  # the value a fold in input order meets first
            try:  # the scalar hook names the value
                self.update_in_map(self.identity(), values[first].item())
            except AggregateError as exc:
                raise exc if gids is None else _in_group(exc, gids[first])
        # math.log, not np.log, whose last bit differs for some inputs
        return np.fromiter(map(math.log, values.tolist()), np.float64, len(values))

    def dropped(self, dtype: np.dtype) -> float | int:
        return 1  # log 1 is 0.0, the start of a sum

    def group_results(self, table: Summaries) -> list:
        return [math.exp(s / n) for s, n in zip(table.aggregate.tolist(), _counts(table.count))]


class Median(Aggregator):
    """Holistic: needs every value, so it cannot be combined in the mapper.

    The vector reduce gives statistics.median of each group, bit for bit.
    Its values come in group order, each group's in input order (the
    shuffle merges the map's sorted runs, or the reduce sorts the values
    once, stably), with the group sizes the shuffle counted. _middles takes
    the lower and upper middle values of all groups of one size, the rows
    of one 2-D block, with one call per distinct size, not per group:
    np.partition selects them in large groups, numpy's default sort orders
    small ones. Neither is stable, and among equal floats only -0.0 and 0.0
    differ, so in a column that holds both, a group whose middle value is a
    zero re-reads its middle values from a stable sort of its input-ordered
    values, as sorted() does."""

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

    def holistic_results(self, values: np.ndarray, sizes: np.ndarray) -> list:
        """statistics.median of each group, by ascending slot (see the class
        docstring)."""
        if values.dtype.kind == "f":
            bad = np.isnan(values)
            if bad.any():  # the lowest group with a NaN holds the first one
                slot = np.searchsorted(np.cumsum(sizes), bad.argmax(), "right")
                raise _in_group(AggregateDataError("NaN value in input"), slot)
        n = sizes[sizes > 0]
        starts = np.cumsum(n) - n
        lower, upper = _middles(values, starts, n)
        if values.dtype != np.float64:  # exact in Python ints, no int64 overflow
            return [
                u if k % 2 else (l + u) / 2
                for l, u, k in zip(lower.tolist(), upper.tolist(), n.tolist())
            ]
        zero = np.flatnonzero((lower == 0) | (upper == 0))
        if len(zero):
            signs = np.signbit(values[values == 0])
            if signs.any() and not signs.all():
                lower[zero], upper[zero] = _middles(values, starts[zero], n[zero], "stable")
        with np.errstate(invalid="ignore", over="ignore"):  # as Python floats do
            middle = (lower + upper) / 2
        odd = np.flatnonzero(n - 2 * (n >> 1))
        middle[odd] = upper[odd]  # the middle value itself, which l + u could overflow
        return middle.tolist()


# the smallest group size whose middle values np.partition selects: below
# it numpy's per-row cost of partition (and of the max of a short row)
# exceeds its SIMD sort, e.g. 4,096 groups of 16 float64 sort in about a
# third of the time
_SELECT_SIZE = 512


def _middles(column: np.ndarray, starts: np.ndarray, sizes: np.ndarray, kind=None):
    """The lower and upper middle values of the groups whose values are
    column[start:start + size]: in a group of _SELECT_SIZE values or more,
    the upper one selected by np.partition (the lower one of an even group
    is the largest value the partition puts before it); in a smaller one,
    or with ``kind``, both read from a sort (numpy's default, or ``kind``).
    All groups of one size are the rows of one 2-D block (a slice of the
    column when the size has one group), partitioned or sorted along its
    rows by one call, so the loop runs once per distinct size. One kth,
    not the two middle ones: numpy selects one kth several times faster
    than two."""
    lower = np.empty(len(sizes), column.dtype)
    upper = np.empty(len(sizes), column.dtype)
    by_size = group_order(sizes)
    tally = np.bincount(sizes)
    first = 0
    for size in np.flatnonzero(tally).tolist():
        rows = by_size[first : first + tally[size]]
        first += len(rows)
        if len(rows) == 1:  # a view: np.partition and np.sort copy it
            start = int(starts[rows[0]])
            block = column[None, start : start + size]
        else:
            block = column[starts[rows, None] + np.arange(size)]
        k = size >> 1
        if kind is None and size >= _SELECT_SIZE:
            block = np.partition(block, k, axis=1)
            # an even group's lower middle value is the largest before k
            lower[rows] = block[:, k] if size % 2 else block[:, :k].max(axis=1)
        else:
            block = np.sort(block, axis=1, kind=kind)
            lower[rows] = block[:, (size - 1) >> 1]
        upper[rows] = block[:, k]
    return lower, upper


BUILTINS = (Sum, Count, Avg, Min, Max, StdDev, GeoMean, Median)
