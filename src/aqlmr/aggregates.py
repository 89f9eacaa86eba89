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
(update_in_map for every (group, value) pair of a map task), merge_groups
(update_in_reduce for every summary row of the shuffle), group_results
(get_agg_result per group) and holistic_results (holistic_result per
group). The base class derives each from the scalar hooks with a loop, so an
aggregator that defines only the scalar hooks runs in both modes; the
built-ins (builtin_aggregates.py) override them with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class AggregateError(Exception):
    group: int | None = None  # the group being aggregated, when known


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
    ext[i]) for group gid[i]. The built-ins keep float64 or int64 columns,
    counts as float64 (exact below 2**53, and dividing by them casts
    nothing); the scalar fallbacks keep object columns, which hold any
    Python value."""

    gid: np.ndarray
    aggregate: np.ndarray
    count: np.ndarray
    ext: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.gid)

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
    """A count column as Python ints, whatever its dtype: a float64 column
    concatenated with object ones leaves Python floats among the ints."""
    return list(map(int, column.tolist()))


def _objects(items: list) -> np.ndarray:
    return np.fromiter(items, dtype=object, count=len(items))


def group_bounds(gids: np.ndarray) -> np.ndarray:
    """Where each run of equal ids starts in ``gids`` (sorted), then len(gids)."""
    if not len(gids):
        return np.zeros(1, np.int64)
    inner = np.flatnonzero(np.diff(gids)) + 1
    return np.concatenate(([0], inner, [len(gids)]))


def group_ids(gids: np.ndarray) -> np.ndarray:
    """The distinct ids in ``gids``, ascending."""
    if not len(gids):
        return gids
    lo, _, present = _span(gids)
    return present + lo


def _in_group(exc: AggregateError, gid) -> AggregateError:
    exc.group = int(gid)
    return exc


def _span(gids: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Group ids, in any order, as slots of the range they span: (lo, each
    input's slot gid - lo, the slots some input reaches, ascending)."""
    lo = int(gids.min())
    row = gids - lo
    return lo, row, np.flatnonzero(np.bincount(row))


class Aggregator:
    """Base aggregator; subclasses override the three-phase hooks, and may
    override the vector hooks, whose defaults loop over the scalar ones."""

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

    def fold_groups(self, gids: np.ndarray, values: np.ndarray) -> Summaries:
        """update_in_map of each value into its group's summary, in input
        order: one row per group present, by ascending id."""
        acc: dict[int, AggSummary] = {}
        identity, update = self.identity, self.update_in_map
        for gid, value in zip(gids.tolist(), values.tolist()):
            summary = acc.get(gid)
            if summary is None:
                summary = acc[gid] = identity()
            try:
                update(summary, value)
            except AggregateError as exc:
                raise _in_group(exc, gid)
        ids = sorted(acc)
        return Summaries.from_rows(ids, [acc[g] for g in ids])

    def merge_groups(self, table: Summaries) -> Summaries:
        """update_in_reduce of each group's rows, in row order: one row per
        group present, by ascending id."""
        acc: dict[int, AggSummary] = {}
        for gid, other in zip(table.gid.tolist(), table.rows()):
            summary = acc.get(gid)
            if summary is None:
                summary = acc[gid] = self.identity()
            try:
                self.update_in_reduce(summary, other)
            except AggregateError as exc:
                raise _in_group(exc, gid)
        ids = sorted(acc)
        return Summaries.from_rows(ids, [acc[g] for g in ids])

    def group_results(self, table: Summaries) -> list:
        """get_agg_result of each row."""
        return [self.get_agg_result(s) for s in table.rows()]

    def holistic_results(self, gids: np.ndarray, values: np.ndarray) -> list:
        """holistic_result of each group's values, in input order, for each
        group by ascending id."""
        order = np.argsort(gids, kind="stable")
        gids, vals = gids[order], values[order].tolist()
        bounds = group_bounds(gids).tolist()
        out = []
        for lo, hi in zip(bounds, bounds[1:]):
            try:
                out.append(self.holistic_result(vals[lo:hi]))
            except AggregateError as exc:
                raise _in_group(exc, gids[lo])
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
