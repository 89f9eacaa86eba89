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

The engine works on whole columns through five vector hooks: fold_groups
(update_in_map of every (group, value) pair), start and merge_into
(update_in_reduce of every summary row into a Merged table indexed by
slot), group_results (get_agg_result per group) and holistic_results
(holistic_result per group). fold_groups and holistic_results get their
rows grouped: the ids are slots 0..len(sizes)-1, and ``sizes``, a required
argument, counts the rows of each (see _span); holistic_results gets the
values alone, in slot order. An optimized reduce merges each map output
into one table as it arrives (as Yu, Gunda and Isard's distributed
aggregation does, SOSP 2009), so merge_into takes rows of any ids, in any
number of calls; group_results gets the reached groups, or every group's
as a table without a gid column. A hook may overwrite the column or table
it gets (MEDIAN selects in place, AVG divides in place). The base class
derives each hook from the scalar hooks with a loop, which only custom
aggregators take: the built-ins (builtin_aggregates.py) override them with
numpy, derived from the ``combine`` kind a built-in declares (sum, count,
minimum or maximum), which also gives the window lattices' kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class AggregateError(Exception):
    group: int | None = None  # the slot of the group being aggregated, when known


class AggregateDomainError(AggregateError):
    """A value outside the aggregator's domain (e.g. GEOMEAN of a non-positive)."""


class AggregateDataError(AggregateError):
    """A value no aggregator accepts (NaN)."""


@dataclass(slots=True)
class AggSummary:
    aggregate: float | int = 0
    count: int = 0
    ext: float | int | None = None


@dataclass
class Summaries:
    """Summary rows in columns: row i is AggSummary(aggregate[i], count[i],
    ext[i]) for group gid[i], or for group i where gid is None (a row for
    every group, which only group_results is given). The built-ins keep
    float64 or int64 columns (object columns of Python ints for int64 sums
    that could overflow) and counts as float64 (exact below 2**53, and
    dividing by them casts nothing); the scalar loop, which only custom
    aggregators take, keeps object columns, which hold any Python value."""

    gid: np.ndarray | None
    aggregate: np.ndarray
    count: np.ndarray
    ext: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.count)

    def rows(self) -> list[AggSummary]:
        ext = [None] * len(self) if self.ext is None else self.ext.tolist()
        return list(map(AggSummary, self.aggregate.tolist(), _counts(self.count), ext))


@dataclass
class Merged:
    """Summaries merged by slot (Aggregator.start and merge_into): row s of
    each column is slot s's summary once a row has reached it, which
    ``reached`` marks (None: a slot is reached when its count is not 0). A
    float maximum is kept negated (``flip``), STDDEV's mean as a shift from
    ``ref``, until ``rows`` reads them; ``peak`` and ``seen`` are an int64
    sum's running bound, the largest |v| and the rows merged so far."""

    aggregate: np.ndarray
    count: np.ndarray
    ext: np.ndarray | None = None
    flip: bool = False
    ref: np.ndarray | None = None
    peak: int = 0
    seen: int = 0
    reached: np.ndarray | None = None

    def present(self) -> np.ndarray | None:
        """The slots some row reached, by ascending slot, or None when
        every slot is (no index array is made then)."""
        reached = self.count if self.reached is None else self.reached
        return None if np.count_nonzero(reached) == len(reached) else np.flatnonzero(reached)

    def rows(self, present: np.ndarray | None) -> Summaries:
        """The summaries of the slots in ``present``, by ascending slot, or
        of every slot (None), a table with no gid column. The columns are
        given up to it: a negated maximum is negated back, and a shifted
        mean has its reference added back, in place."""
        if self.flip:
            self.aggregate *= -1.0
            self.flip = False
        if self.ref is not None:
            self.aggregate += self.ref
            self.ref = None
        columns = (self.aggregate, self.count, self.ext)
        if present is not None and len(present) < len(self.count):  # keep the reached slots
            columns = (None if c is None else c[present] for c in columns)
        return Summaries(present, *columns)


def _counts(column: np.ndarray) -> list[int]:
    """A count column as Python ints, whatever its dtype (the built-ins
    count in float64, the scalar loop in Python ints)."""
    return list(map(int, column.tolist()))


def group_order(gids: np.ndarray) -> np.ndarray:
    """A stable argsort of group ids. Ids from 0 to 2**16 - 1 sort as
    uint16, for which numpy's stable sort is a radix sort, several times
    faster than on int64 and in the same order."""
    if len(gids) and 0 <= gids.min() and gids.max() < 2**16:
        gids = gids.astype(np.uint16)
    return np.argsort(gids, kind="stable")


def _in_group(exc: AggregateError, gid) -> AggregateError:
    exc.group = int(gid)
    return exc


def _span(gids: np.ndarray) -> tuple[int, np.ndarray]:
    """Turn group ids, in any order, into slots of the range they span, in
    place (each id minus the smallest, ``lo``): (lo, the rows in each
    slot)."""
    if not len(gids):
        return 0, np.zeros(0, np.int64)
    lo = int(gids.min())
    gids -= lo
    return lo, np.bincount(gids)


class Aggregator:
    """Base aggregator; subclasses override the three-phase hooks, and may
    override the vector hooks, whose defaults loop over the scalar ones."""

    name: str = ""
    algebraic: bool = True
    uses_ext: bool = False
    # built-ins only (builtin_aggregates._Columnar): the summary's merge law,
    # "sum", "min" or "max" of the lifted values with their count, or "count"
    # alone, which its hooks and window_aggregate follow. None: the
    # aggregator merges by its own hooks, and grids and windows fold pairs
    combine: str | None = None

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

    def fold_groups(self, gids: np.ndarray, values: np.ndarray, sizes: np.ndarray) -> Summaries:
        """update_in_map of each value into its group's summary, in input
        order: one row per group present, by ascending id. The ids are slots
        and sizes[s] the rows of slot s."""
        merged = Aggregator.start(self, len(sizes), values.dtype)  # the loop's own table
        self._update(merged, gids, values.tolist(), self.update_in_map)
        return merged.rows(np.flatnonzero(sizes))

    def start(self, size: int, dtype: np.dtype) -> Merged:
        """``size`` slots that no summary has reached, for the summaries of
        values of ``dtype`` (the loop's columns hold any Python object)."""
        columns = (np.full(size, None, object) for _ in range(3))
        return Merged(*columns, reached=np.zeros(size, bool))

    def merge_into(self, merged: Merged, row: np.ndarray, table: Summaries) -> None:
        """update_in_reduce of each row of ``table`` into slot ``row[i]`` of
        ``merged``, in row order and in place, as one call or over many."""
        self._update(merged, row, table.rows(), self.update_in_reduce)

    def _update(self, merged: Merged, row: np.ndarray, items: list, update) -> None:
        """``update`` of each item into its slot's summary (identity until
        an item reaches it), in item order. An error names the slot."""
        aggregate, count, ext = merged.aggregate, merged.count, merged.ext
        for slot, item in zip(row.tolist(), items):
            if merged.reached[slot]:
                summary = AggSummary(aggregate[slot], count[slot], ext[slot])
            else:
                summary, merged.reached[slot] = self.identity(), True
            try:
                update(summary, item)
            except AggregateError as exc:
                raise _in_group(exc, slot)
            aggregate[slot], count[slot], ext[slot] = summary.aggregate, summary.count, summary.ext

    def group_results(self, table: Summaries) -> list:
        """get_agg_result of each row."""
        return [self.get_agg_result(s) for s in table.rows()]

    def holistic_results(self, values: np.ndarray, sizes: np.ndarray) -> list:
        """holistic_result of each group's values, for each slot some value
        reaches, by ascending slot: the values come grouped, sizes[s] of
        them for each slot s, in input order within a slot. The column is
        the caller's own copy, and the hook may reorder the values within
        each group (MEDIAN's selects in place)."""
        vals = values.tolist()
        present = np.flatnonzero(sizes)
        ends = np.cumsum(sizes[present]).tolist()
        out = []
        for slot, a, b in zip(present.tolist(), [0, *ends], ends):
            try:
                out.append(self.holistic_result(vals[a:b]))
            except AggregateError as exc:
                raise _in_group(exc, slot)
        return out


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

    def get(self, name: str) -> Aggregator:
        try:
            return self._aggs[name.lower()]
        except KeyError:
            raise AggregateError(f"unknown aggregate {name!r}") from None


_DEFAULT: AggregatorRegistry | None = None


def default_registry() -> AggregatorRegistry:
    global _DEFAULT
    if _DEFAULT is None:
        from .builtin_aggregates import BUILTINS

        registry = AggregatorRegistry()
        for cls in BUILTINS:
            registry.register(cls())
        _DEFAULT = registry
    return _DEFAULT


def register_aggregator(
    agg: Aggregator, registry: AggregatorRegistry | None = None
) -> Aggregator:
    """Add a user-defined aggregator (to the shared registry by default)."""
    return (registry or default_registry()).register(agg)
