"""Embedded map/shuffle/reduce executor for planned jobs.

A job runs as one serial pass over whole columns: the splits are read and
mapped a band at a time (storage.read_bands), in split order, and each map
output goes to the reduce in that order, so results are the same from run
to run. An optimized job merges its partial aggregates as they arrive, as
Yu, Gunda and Isard's distributed aggregation does (SOSP 2009): each map
output is counted as the shuffle and the reduce would count it, merged
into one table indexed by group id (the aggregator's start and
merge_into), then freed; the reduce finishes the groups some row reached,
and the merge time counts as reduce time, the shuffle's as none. A naive
job keeps every map output for the shuffle, which groups them, and the
reduce folds every group at once, adding rows into each group in (split,
emission) order. Each stage reads the form of its input, never a flag. A
map emits what its membership builds: as a MapReduce map task sorts its
output by key, a naive map emits its pairs group by group where the
membership builds them so without sorting (Membership.pairs of nested
rings), keyed by run lengths (Runs: its first group id and the length of
each group's run), as a sort-merge shuffle keeps a run index beside each
sorted spill instead of a key per record; elsewhere it emits cell-major
pairs, or summaries when optimized. The shuffle merges Runs, one slice copy
per run, into the values alone in group order, finding each run's bounds
from the lengths' cumulative sums; other outputs it concatenates, turning
their group ids into slots (id minus the smallest id) and counting the
rows of each slot with one bincount. Every reducer reads that grouping (the
slots and their sizes) and groups nothing again: an algebraic reducer of
merged runs rebuilds its slot column from the sizes, and a holistic one
(MEDIAN), which reads each group's values side by side, gets them alone in
slot order, sorted stably by the reduce when they came cell-major.
run_job still accepts and validates a ``workers`` count, so callers written
for a parallel engine keep working, but it does not change execution: results
and counters are the same for any value.

Counters model the costs a distributed run would pay: cells read and emitted,
bytes scanned, bytes moved through the shuffle (8 bytes of key plus the
value payload: 8 for a raw value, 16 for a summary, 24 for a summary with an
extension slot, whether or not the map output keeps its keys as runs), and
records entering reducers.
"""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Iterator, Sequence

import numpy as np

from .aggregates import AggregateError, Aggregator, Merged, Summaries, _span, group_order
from .grouping import Membership, build_membership
from .planner import JobPlan
from .storage import ArraySplit, Band, StoreError, compute_splits, read_bands, read_block

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
    """(group id, raw value) rows in columns, as a naive map task emits them
    cell-major. The shuffle's merge of Runs gives values in group order
    without a gid column (None): its sizes say which rows hold which
    slot."""

    gid: np.ndarray | None
    value: np.ndarray

    def __len__(self) -> int:
        return len(self.value)

    def rows(self) -> list:
        return self.value.tolist()


@dataclass
class Runs:
    """Raw values group-major, keyed by run lengths, as a naive map task
    emits Membership.pairs: ``lengths[k]`` values of group ``first + k``,
    then those of the next group. A run between others may be empty; the
    first and the last hold some value."""

    first: int
    lengths: np.ndarray
    value: np.ndarray

    def __len__(self) -> int:
        return len(self.value)


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
    parts = ([getattr(t, f.name) for t in tables] for f in fields(tables[0]))
    return type(tables[0])(*(None if p[0] is None else np.concatenate(p) for p in parts))


def _map_block(
    split: ArraySplit,
    block: np.ndarray,
    keep: np.ndarray | None,
    membership: Membership,
    agg: Aggregator | None,
    counters: Counters,
) -> Pairs | Runs | Summaries:
    """One map task on its read block: with ``agg`` (optimized), one summary
    per group seen in the split; without it (naive), one (group id, value)
    pair per group each kept cell belongs to, as the membership builds them:
    one run per group by ascending id, keyed by run lengths, where it gives
    them so (``membership.pairs``), else cell-major."""
    if agg is not None:
        out = membership.fold(split.region, block, keep, agg)
    elif membership.pairs is not None:
        values, first, lengths = membership.pairs(split.region, block, keep)
        out = Runs(first, lengths, values)
    else:
        cells, gids = membership.block(split.region, keep)
        out = Pairs(gids, block.ravel()[cells])
    counters.add("map_output_records", len(out))
    return out


def _task_error(split: ArraySplit, exc: Exception) -> EngineError:
    return EngineError(f"map task (split {split.split_id}): {exc}")


def _map_band(
    band: Band,
    membership: Membership,
    agg: Aggregator | None,
    counters: Counters,
) -> Iterator[Pairs | Runs | Summaries]:
    """The map tasks of a band's splits, each output as it returns: the
    membership's band fold where it gives one (optimized), which holds
    every split's rows in split order, else each split's own task on its
    block, through the membership over the band's box (rings: each cell's
    own ring looked up once for the band)."""
    folded = None if agg is None else membership.fold_band(band, agg)
    if folded is not None:
        counters.add("map_output_records", len(folded))
        yield folded
        return
    membership = membership.over(band.box)
    for split, block, keep in band.blocks():
        try:
            out = _map_block(split, block, keep, membership, agg, counters)
        except AggregateError as exc:
            raise _task_error(split, exc) from exc
        yield out
        del out  # freed by the caller's merge, not kept through the next task


def naive_map(
    split: ArraySplit,
    membership: Membership,
    predicate,
    counters: Counters,
) -> Pairs | Runs:
    """Emit one (group id, value) pair per group the cell belongs to."""
    block, keep = read_block(split, predicate, counters)
    return _map_block(split, block, keep, membership, None, counters)


def optimized_map(
    split: ArraySplit,
    membership: Membership,
    agg: Aggregator,
    predicate,
    counters: Counters,
) -> Summaries:
    """Fold values into one summary per group seen in this split."""
    block, keep = read_block(split, predicate, counters)
    return _map_block(split, block, keep, membership, agg, counters)


@dataclass
class Shuffled:
    """The shuffle's output, grouped once: every map output row (Pairs or
    Summaries) in (split, emission) order, with its group id turned into a
    slot (``gid - lo``, ``lo`` the smallest id), and ``sizes[s]``, the rows
    in slot s. Merged runs are Pairs of values alone (``gid`` None) in slot
    order instead. Iterating puts the rows in group order and yields (gid,
    items) for each group by ascending id, items being raw values (naive) or
    AggSummary objects (optimized) in (split, emission) order."""

    rows: Pairs | Summaries
    lo: int
    sizes: np.ndarray

    def __len__(self) -> int:
        return int(np.count_nonzero(self.sizes))

    def __iter__(self):
        rows = self.rows
        if rows.gid is not None:
            rows = _take(rows, group_order(rows.gid))
        items = rows.rows()
        present = np.flatnonzero(self.sizes)
        ends = np.cumsum(self.sizes[present]).tolist()
        for gid, lo, hi in zip((present + self.lo).tolist(), [0, *ends], ends):
            yield gid, items[lo:hi]


def _merge(outputs: Sequence[Runs]) -> tuple[Pairs, int, np.ndarray]:
    """The values of map outputs that each hold one run per group by
    ascending id, in group order (each group's runs output after output, so
    its values keep (split, emission) order, copied as one slice a run),
    the smallest id and the rows in each slot. Each output's run bounds are
    the cumulative sums of its run lengths."""
    nonempty = [out for out in outputs if len(out)]
    if not nonempty:
        return Pairs(None, outputs[0].value), 0, np.zeros(0, np.int64)
    lo = min(out.first for out in nonempty)
    span = max(out.first + len(out.lengths) for out in nonempty) - lo
    # bounds[i, s]: where output i's run of slot s starts, and slot s - 1's ends
    bounds = np.zeros((len(nonempty), span + 1), np.int64)
    for row, out in zip(bounds, nonempty):
        at = out.first - lo + 1
        np.cumsum(out.lengths, out=row[at : at + len(out.lengths)])
        row[at + len(out.lengths) :] = len(out)
    edges = bounds.tolist()
    value = np.concatenate(
        [
            out.value[b[s] : b[s + 1]]
            for s in range(span)
            for out, b in zip(nonempty, edges)
            if b[s] < b[s + 1]
        ]
    )
    return Pairs(None, value), lo, np.diff(bounds, axis=1).sum(axis=0)


def shuffle(
    map_outputs: Sequence[Pairs | Runs | Summaries],
    counters: Counters,
    *,
    value_bytes: int,
) -> Shuffled:
    """Group map outputs by key.

    Inputs arrive ordered by split and keep that order, so each group's rows
    are ordered by (split, emission order). Runs tables, one run per group
    by ascending id each (a naive map's ``Membership.pairs``), are merged
    into the values alone, in group order; other tables are concatenated,
    their ids turned into slots.
    """
    if isinstance(map_outputs[0], Runs):
        grouped = Shuffled(*_merge(map_outputs))
    else:
        rows = _concat(map_outputs)
        # the concatenation is the shuffle's own copy, made slots in place
        grouped = Shuffled(rows, *_span(rows.gid))
    counters.add("bytes_shuffled", (KEY_BYTES + value_bytes) * len(grouped.rows))
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


def _reduce(rows: Pairs, sizes: np.ndarray, agg: Aggregator) -> list:
    """The result of every slot some value reaches, by ascending slot."""
    gid, value = rows.gid, rows.value
    if not agg.algebraic:  # the values alone, side by side in slot order
        if gid is not None:
            value = value[group_order(gid)]
        return agg.holistic_results(value, sizes=sizes)
    if gid is None:  # merged runs: each slot's rows lie together
        gid = np.repeat(np.arange(len(sizes)), sizes)
    try:
        folded = agg.fold_groups(gid, value, sizes=sizes)
    except AggregateError:
        # a reducer folds group by group and meets the lowest group's bad
        # value first: fold again in stable group order to raise that one
        order = group_order(gid)
        agg.fold_groups(gid[order], value[order], sizes=sizes)
        raise
    return agg.group_results(folded)


def _outside(group_count: int) -> EngineError:
    return EngineError(f"group id outside geometry (0..{group_count - 1})")


def _reduce_error(exc: AggregateError, lo: int) -> EngineError:
    """A reducer's error, naming its group by id (a hook names slot s, group lo + s)."""
    where = "reduce" if exc.group is None else f"reduce (group {exc.group + lo})"
    return EngineError(f"{where}: {exc}")


def _arrive(
    merged: Merged | None,
    out: Summaries,
    agg: Aggregator,
    group_count: int,
    counters: Counters,
    value_bytes: int,
) -> Merged | None:
    """Merge one map output into the group table as it arrives: its rows
    are counted as the shuffle and the reduce count them, their ids
    checked (ufunc.at would wrap an id of -1), then merged in row order.
    The first rows start the table, in their aggregates' dtype."""
    counters.add("bytes_shuffled", (KEY_BYTES + value_bytes) * len(out))
    counters.add("reduce_input_records", len(out))
    if not len(out):
        return merged
    if not (0 <= out.gid.min() and out.gid.max() < group_count):
        raise _outside(group_count)
    if merged is None:
        merged = agg.start(group_count, out.aggregate.dtype)
    try:
        agg.merge_into(merged, out.gid, out)
    except AggregateError as exc:  # the table's slots are group ids
        raise _reduce_error(exc, 0) from exc
    return merged


def _scatter(results: list, present: np.ndarray | None, group_count: int) -> list:
    """The results of the groups ``present`` names (None: every group), by
    ascending id, in a list by group id that holds None for every other
    group."""
    if len(results) == group_count:
        return results  # every group has a result, in group order
    scattered = np.full(group_count, None, object)
    scattered[present] = np.fromiter(results, object, len(results))
    return scattered.tolist()  # each as it is


def run_job(plan: JobPlan, workers: int = 1) -> JobResult:
    agg = plan.query.agg
    if plan.mode == "optimized" and not agg.algebraic:
        raise EngineError(
            f"{agg.name} is holistic; a holistic aggregator cannot run optimized"
        )
    if workers < 1:
        raise EngineError("workers must be >= 1")

    spec = plan.splits
    try:
        splits = compute_splits(plan.query.array, spec.box, spec.data_path)
    except StoreError as exc:
        raise EngineError(str(exc)) from exc

    counters = Counters()
    membership = build_membership(plan.geometry)
    group_count = plan.geometry.group_count
    map_agg = agg if plan.mode == "optimized" else None
    value_bytes = RAW_VALUE_BYTES if map_agg is None else summary_value_bytes(agg)
    merged = None
    merge_s = 0.0

    t0 = time.perf_counter()
    map_outputs = []  # a naive job's, for the shuffle
    mapped = 0  # splits mapped so far: a failed read names the next one
    # closed at once when a map task raises, not when its traceback is freed
    with closing(read_bands(splits, plan.query.predicate, counters)) as bands:
        try:
            for band in bands:
                for out in _map_band(band, membership, map_agg, counters):
                    if map_agg is None:
                        map_outputs.append(out)
                        continue
                    t = time.perf_counter()
                    merged = _arrive(merged, out, agg, group_count, counters, value_bytes)
                    del out  # before the next map task runs
                    merge_s += time.perf_counter() - t
                mapped += len(band.splits)
                del band  # before the next band is read, and through the reduce
        except StoreError as exc:
            raise _task_error(splits[mapped], exc) from exc
    t1 = time.perf_counter()

    values = None  # no row reached any group
    if map_agg is not None:
        t2 = t1
        if merged is not None:
            present = merged.present()
            counters.add("shuffle_groups", group_count if present is None else len(present))
            try:
                results = agg.group_results(merged.rows(present))
            except AggregateError as exc:
                raise _reduce_error(exc, 0) from exc
            values = _scatter(results, present, group_count)
    else:
        grouped = shuffle(map_outputs, counters, value_bytes=value_bytes)
        rows, lo, sizes = grouped.rows, grouped.lo, grouped.sizes
        del map_outputs, grouped  # the shuffled rows are a copy
        t2 = time.perf_counter()
        counters.add("reduce_input_records", len(rows))
        if len(rows):
            if not (0 <= lo and lo + len(sizes) <= group_count):
                raise _outside(group_count)
            try:
                results = _reduce(rows, sizes, agg)
            except AggregateError as exc:
                raise _reduce_error(exc, lo) from exc
            values = _scatter(results, lo + np.flatnonzero(sizes), group_count)
    if values is None:
        values = [None] * group_count
    t3 = time.perf_counter()

    return JobResult(
        values=values,
        counters=counters,
        timings={  # merges on arrival count as reduce time
            "map": t1 - t0 - merge_s,
            "shuffle": t2 - t1,
            "reduce": t3 - t2 + merge_s,
            "total": t3 - t0,
        },
    )
