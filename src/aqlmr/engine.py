"""Embedded map/shuffle/reduce executor for planned jobs.

A job runs as one serial pass over whole columns: every split is mapped in
split order, the shuffle concatenates the map outputs in that order, and the
reduce folds every group at once, adding rows into each group in
(split, emission) order, so results are the same from run to run.
The ``workers`` count is still accepted and validated, so saved parameter
files and scripts keep working, but it does not change execution: results and
counters are the same for any value.

Counters model the costs a distributed run would pay: cells read and emitted,
bytes scanned, bytes moved through the shuffle (8 bytes of key plus the
value payload: 8 for a raw value, 16 for a summary, 24 for a summary with an
extension slot), and records entering reducers.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Sequence

import numpy as np

from .aggregates import (
    AggregateError,
    Aggregator,
    AggregatorRegistry,
    Summaries,
    default_registry,
    group_bounds,
    group_ids,
)
from .grouping import Membership, build_membership
from .planner import JobPlan
from .storage import ArraySplit, StoreError, compute_splits, read_block

KEY_BYTES = 8
RAW_VALUE_BYTES = 8
SUMMARY_BYTES = 16
SUMMARY_EXT_BYTES = 24


class EngineError(Exception):
    pass


@dataclass(slots=True)
class Counters:
    """Job counters, in the order reports print them."""

    map_input_records: int = 0
    map_output_records: int = 0
    shuffle_groups: int = 0
    reduce_input_records: int = 0
    bytes_read: int = 0
    bytes_shuffled: int = 0

    def add(self, name: str, n: int) -> None:
        setattr(self, name, getattr(self, name) + n)

    def snapshot(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class JobResult:
    """Per-group results indexed by group id (None for empty groups)."""

    values: list[float | int | None]
    counters: Counters
    timings: dict[str, float] = field(default_factory=dict)


@dataclass
class Pairs:
    """(group id, raw value) rows in columns, as a naive map task emits them."""

    gid: np.ndarray
    value: np.ndarray

    def __len__(self) -> int:
        return len(self.gid)

    def rows(self) -> list:
        return self.value.tolist()


def _take(table, index):
    """The rows of a Pairs or Summaries table at ``index``."""
    return type(table)(
        *(None if c is None else c[index] for c in (getattr(table, f.name) for f in fields(table)))
    )


def _concat(tables: list):
    """The rows of one or more tables of the same type, table after table."""
    # an empty table's columns may have another dtype (np.bincount of
    # nothing is int64), which would only cast the others
    tables = [t for t in tables if len(t)] or tables[:1]
    columns = []
    for f in fields(tables[0]):
        parts = [getattr(t, f.name) for t in tables]
        if all(p is None for p in parts):
            columns.append(None)
        else:  # an ext column only some tables have is None in the others
            columns.append(
                np.concatenate(
                    [np.full(len(t), None, object) if p is None else p for t, p in zip(tables, parts)]
                )
            )
    return type(tables[0])(*columns)


def _emit(split: ArraySplit, membership: Membership, predicate, counters: Counters):
    """The (group id, value) pair of every membership of the split's kept
    cells, in columns."""
    block, keep = read_block(split, predicate, counters)
    cells, gids = membership.block(split.region, keep)
    return gids, block.ravel()[cells]


def naive_map(
    split: ArraySplit,
    membership: Membership,
    predicate,
    counters: Counters,
) -> Pairs:
    """Emit one (group id, value) pair per group the cell belongs to."""
    out = Pairs(*_emit(split, membership, predicate, counters))
    counters.add("map_output_records", len(out))
    return out


def optimized_map(
    split: ArraySplit,
    membership: Membership,
    agg: Aggregator,
    predicate,
    counters: Counters,
) -> Summaries:
    """Fold values into one summary per group seen in this split."""
    gids, values = _emit(split, membership, predicate, counters)
    # a split that reaches no group folds nothing
    out = agg.fold_groups(gids, values) if len(gids) else Summaries(gids, values, gids)
    counters.add("map_output_records", len(out))
    return out


@dataclass
class Shuffled:
    """The shuffle's output: every map output row (Pairs or Summaries) in
    (split, emission) order, and how many groups they reach. Reducing needs
    no sort (group sums accumulate in row order), so rows are grouped only
    when iterated: that yields (gid, items) for each group by ascending id,
    items being raw values (naive) or AggSummary objects (optimized) in
    (split, emission) order."""

    rows: Pairs | Summaries
    groups: int

    def __len__(self) -> int:
        return self.groups

    def __iter__(self):
        rows = _take(self.rows, np.argsort(self.rows.gid, kind="stable"))
        items = rows.rows()
        bounds = group_bounds(rows.gid)
        gids = rows.gid[bounds[:-1]].tolist()
        bounds = bounds.tolist()
        for gid, lo, hi in zip(gids, bounds, bounds[1:]):
            yield gid, items[lo:hi]


def shuffle(
    map_outputs: Sequence[Pairs | Summaries],
    counters: Counters,
    *,
    value_bytes: int,
) -> Shuffled:
    """Group map outputs by key.

    Inputs arrive ordered by split and keep that order, so each group's rows
    are ordered by (split, emission order).
    """
    rows = _concat(map_outputs)
    counters.add("bytes_shuffled", (KEY_BYTES + value_bytes) * len(rows))
    grouped = Shuffled(rows, len(group_ids(rows.gid)))
    counters.add("shuffle_groups", len(grouped))
    return grouped


def naive_reduce(gid: int, values: list[Any], agg: Aggregator) -> float | int | None:
    if not agg.algebraic:
        return agg.holistic_result(values)
    summary = agg.identity()
    update = agg.update_in_map
    for value in values:
        update(summary, value)
    return agg.get_agg_result(summary)


def optimized_reduce(gid: int, summaries: list[Any], agg: Aggregator) -> float | int | None:
    merged = agg.identity()
    for summary in summaries:
        agg.update_in_reduce(merged, summary)
    return agg.get_agg_result(merged)


def summary_value_bytes(agg: Aggregator) -> int:
    return SUMMARY_EXT_BYTES if agg.uses_ext else SUMMARY_BYTES


def _reduce(rows: Pairs | Summaries, agg: Aggregator) -> tuple[np.ndarray, list]:
    """Every group's result at once: (group ids, results)."""
    if isinstance(rows, Summaries):
        merged = agg.merge_groups(rows)
        return merged.gid, agg.group_results(merged)
    if agg.algebraic:
        try:
            folded = agg.fold_groups(rows.gid, rows.value)
        except AggregateError:
            # a reducer folds group by group and meets the lowest group's bad
            # value first: fold again in stable group order to raise that one
            order = np.argsort(rows.gid, kind="stable")
            agg.fold_groups(rows.gid[order], rows.value[order])
            raise
        return folded.gid, agg.group_results(folded)
    return group_ids(rows.gid), agg.holistic_results(rows.gid, rows.value)


def run_job(
    plan: JobPlan,
    workers: int | None = None,
    registry: AggregatorRegistry | None = None,
) -> JobResult:
    registry = registry or default_registry()
    agg = registry.get(plan.query.aggregator)
    if plan.mode == "optimized" and not agg.algebraic:
        raise EngineError(
            f"{agg.name} is holistic; a holistic aggregator cannot run optimized"
        )
    if workers is None:
        workers = plan.workers
    if workers < 1:
        raise EngineError("workers must be >= 1")

    spec = plan.splits
    try:
        splits = compute_splits(plan.query.array, spec.box, spec.data_path)
    except StoreError as exc:
        raise EngineError(str(exc)) from exc

    counters = Counters()
    membership = build_membership(plan.geometry)
    predicate = plan.query.predicate
    optimized = plan.mode == "optimized"

    t0 = time.perf_counter()
    map_outputs = []
    for split in splits:
        try:
            if optimized:
                out = optimized_map(split, membership, agg, predicate, counters)
            else:
                out = naive_map(split, membership, predicate, counters)
        except (AggregateError, StoreError) as exc:
            raise EngineError(f"map task (split {split.split_id}): {exc}") from exc
        map_outputs.append(out)
    t1 = time.perf_counter()

    value_bytes = summary_value_bytes(agg) if optimized else RAW_VALUE_BYTES
    rows = shuffle(map_outputs, counters, value_bytes=value_bytes).rows
    del map_outputs  # the shuffled rows are a copy
    t2 = time.perf_counter()

    group_count = plan.geometry.group_count
    counters.add("reduce_input_records", len(rows))
    values: list[float | int | None] = [None] * group_count
    if len(rows):
        if not (0 <= rows.gid.min() and rows.gid.max() < group_count):
            raise EngineError(f"group id outside geometry (0..{group_count - 1})")
        try:
            gids, results = _reduce(rows, agg)
        except AggregateError as exc:
            where = "reduce" if exc.group is None else f"reduce (group {exc.group})"
            raise EngineError(f"{where}: {exc}") from exc
        if len(results) == group_count:
            values = results  # every group has a result, in group order
        else:
            for gid, value in zip(gids.tolist(), results):
                values[gid] = value
    t3 = time.perf_counter()

    return JobResult(
        values=values,
        counters=counters,
        timings={
            "map": t1 - t0,
            "shuffle": t2 - t1,
            "reduce": t3 - t2,
            "total": t3 - t0,
        },
    )
