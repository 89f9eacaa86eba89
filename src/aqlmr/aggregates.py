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

The engine works on whole columns through four vector hooks: fold_groups
(update_in_map for every (group, value) pair), merge_groups
(update_in_reduce for every summary row), group_results (get_agg_result per
group) and holistic_results (holistic_result per group). Every hook gets its
rows grouped, whether a map task folds them or a reducer: their ids are
slots 0..len(sizes)-1, and ``sizes``, a required argument of fold_groups,
merge_groups and holistic_results, counts the rows of each slot, so no hook
groups them itself. The shuffle groups a reducer's rows and
Membership.fold a map task's, both through _span. holistic_results gets the
values alone, in slot order (the shuffle merges the naive map's sorted runs,
or the reduce sorts the values once), and reads each group as one slice.
The base class derives each hook from the scalar hooks with a loop, so an
aggregator that defines only the scalar hooks runs in both modes. Only
custom aggregators take that loop: the built-ins (builtin_aggregates.py)
override the vector hooks with numpy, derived from the ``combine`` kind a
built-in declares (sum, count, minimum or maximum), which also lets the
optimized map of a window lattice (grids and sliding windows) compute every
window's summary with a kernel (window_aggregate, called by grouping's
lattice folds: shifted slabs for windows that overlap or leave gaps, the
pieces of a band or split for windows that tile the box) instead of
fold_groups, and lets the reduce of an optimized job merge each map output
as it arrives (start and merge_into on a table indexed by group id) instead
of merge_groups over the shuffle's whole table. The engine calls
merge_groups, with the shuffled table, only for an aggregator without a
combine kind (STDDEV and custom ones); group_results then gets the groups
that some row reached, every group's as a table without a gid column.
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

    @classmethod
    def from_rows(cls, gids: list[int], summaries: list[AggSummary]) -> "Summaries":
        ext = [s.ext for s in summaries]
        return cls(
            np.array(gids, dtype=np.int64),
            _objects([s.aggregate for s in summaries]),
            _objects([s.count for s in summaries]),
            None if all(e is None for e in ext) else _objects(ext),
        )


def _counts(column: np.ndarray) -> list[int]:
    """A count column as Python ints, whatever its dtype (the built-ins
    count in float64, the scalar loop in Python ints)."""
    return list(map(int, column.tolist()))


def _objects(items: list) -> np.ndarray:
    return np.fromiter(items, dtype=object, count=len(items))


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
    # built-ins only (builtin_aggregates._Columnar): the summary's merge
    # law, "sum", "min" or "max" of the lifted values with their count, or
    # "count" alone; the scalar merge, the column merge and window_aggregate,
    # which the optimized lattice maps call, all follow it. None: the
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
        and sizes[s] the rows of slot s (the scalar loop finds its groups
        itself and ignores it)."""
        return self._accumulate(gids.tolist(), values.tolist(), self.update_in_map)

    def merge_groups(self, table: Summaries, sizes: np.ndarray) -> Summaries:
        """update_in_reduce of each group's rows, in row order: one row per
        group present, by ascending id. ``sizes`` as for fold_groups."""
        return self._accumulate(table.gid.tolist(), table.rows(), self.update_in_reduce)

    def _accumulate(self, gids: list[int], items: list, update) -> Summaries:
        acc: dict[int, AggSummary] = {}
        for gid, item in zip(gids, items):
            summary = acc.get(gid)
            if summary is None:
                summary = acc[gid] = self.identity()
            try:
                update(summary, item)
            except AggregateError as exc:
                raise _in_group(exc, gid)
        ids = sorted(acc)
        return Summaries.from_rows(ids, [acc[g] for g in ids])

    def group_results(self, table: Summaries) -> list:
        """get_agg_result of each row."""
        return [self.get_agg_result(s) for s in table.rows()]

    def holistic_results(self, values: np.ndarray, sizes: np.ndarray) -> list:
        """holistic_result of each group's values, for each slot some value
        reaches, by ascending slot: the values come grouped, sizes[s] of
        them for each slot s, in input order within a slot."""
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
