"""Embedded map/shuffle/reduce executor for planned jobs.

A job runs as one serial pass: every split is mapped in split order, the
shuffle sorts the map outputs stably by group id (so values inside a group
keep split-then-emission order), and each group is reduced in group-id order.
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
from dataclasses import asdict, dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Any, Sequence

from .aggregates import AggregateError, Aggregator, AggregatorRegistry, default_registry
from .grouping import build_membership
from .planner import JobPlan
from .storage import ArraySplit, StoreError, compute_splits, read_split

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


def naive_map(
    split: ArraySplit,
    membership,
    predicate,
    counters: Counters,
) -> list[tuple[int, float | int]]:
    """Emit one (group id, value) pair per group the cell belongs to."""
    out: list[tuple[int, float | int]] = []
    for coord, value in read_split(split, predicate, counters):
        for gid in membership(coord):
            out.append((gid, value))
    counters.add("map_output_records", len(out))
    return out


def optimized_map(
    split: ArraySplit,
    membership,
    agg: Aggregator,
    predicate,
    counters: Counters,
) -> list[tuple[int, Any]]:
    """Fold values into one summary per group seen in this split."""
    acc: dict[int, Any] = {}
    update = agg.update_in_map
    identity = agg.identity
    for coord, value in read_split(split, predicate, counters):
        for gid in membership(coord):
            summary = acc.get(gid)
            if summary is None:
                summary = acc[gid] = identity()
            update(summary, value)
    out = sorted(acc.items())
    counters.add("map_output_records", len(out))
    return out


def shuffle(
    map_outputs: Sequence[list[tuple[int, Any]]],
    counters: Counters,
    *,
    value_bytes: int,
) -> list[tuple[int, list[Any]]]:
    """Group map outputs by key.

    Inputs arrive ordered by split; the sort is stable, so each group's value
    list is ordered by (split, emission order).
    """
    pairs: list[tuple[int, Any]] = []
    for part in map_outputs:
        pairs.extend(part)
    pairs.sort(key=itemgetter(0))
    counters.add("bytes_shuffled", (KEY_BYTES + value_bytes) * len(pairs))
    grouped = [
        (gid, [value for _, value in items])
        for gid, items in groupby(pairs, key=itemgetter(0))
    ]
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
    grouped = shuffle(map_outputs, counters, value_bytes=value_bytes)
    t2 = time.perf_counter()

    reduce_fn = optimized_reduce if optimized else naive_reduce
    values: list[float | int | None] = [None] * plan.geometry.group_count
    for gid, group_values in grouped:
        if not 0 <= gid < len(values):
            raise EngineError(f"group id {gid} outside geometry (0..{len(values) - 1})")
        counters.add("reduce_input_records", len(group_values))
        try:
            values[gid] = reduce_fn(gid, group_values, agg)
        except AggregateError as exc:
            raise EngineError(f"reduce (group {gid}): {exc}") from exc
    t3 = time.perf_counter()

    if counters.reduce_input_records != counters.map_output_records:
        raise EngineError(
            "record conservation violated: map emitted "
            f"{counters.map_output_records} records but reducers received "
            f"{counters.reduce_input_records}"
        )

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
