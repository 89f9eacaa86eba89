"""Positional group geometry: which groups a cell belongs to and what a group
covers.

Four kinds of geometry over a query box:

* grid: the box tiles into disjoint blocks of a fixed partition size, ragged
  at the high edge; group id is the row-major block index.
* sliding: one group per window center; centers sit on a stride lattice
  anchored at the box's low corner, and a cell belongs to every window that
  covers it, so groups overlap.
* hierarchical: concentric square rings (Chebyshev distance) around the box
  centroid; a cell belongs to its own ring and every larger one.
* circular: concentric circular rings (Euclidean distance) around the box
  centroid; each cell belongs to exactly one ring.

A grid block of side p is the tumbling window (0 preceding, p - 1 following,
stride p), so grids and sliding windows share one window lattice, which
make_geometry derives once and group counts, extents and both memberships
read. The memberships stay apart because a grid's blocks do not overlap:
its pairs are one floor division per dimension, and its optimized map folds
a whole band (side-by-side splits read as one array) at once. The band is
cut into pieces, one per (split, block), and one ufunc.reduceat per
dimension combines every piece: about a dozen numpy calls a band where the
split-by-split pair fold made some 25 a split, which took run_job on a
filtered SUM over 32x32 blocks of a 1024x1024 array from 26 to 10 ms.

Ring radii grow from an initial radius by a fixed step until a ring reaches
the box boundary (the largest radius whose full extent still fits: the
smallest r with r >= the largest inscribed radius). Cells beyond the last
ring (box corners exceed the inscribed radius) belong to no group.

A compiled Membership defines each shape's membership once, for a whole
region at a time (the engine's map), from per-dimension index ranges
broadcast over the region: no per-cell Python work. Each shape's subclass
(_Grid, _Windows, _Rings, _NestedRings) overrides block, whose pairs come
cell-major; one cell (groups_of) is the one-cell region. Nested rings also
give the values of their pairs group-major (pairs), built without a sort,
ring k being the cells whose own ring is k or less, which a naive map
emits, whatever the aggregate, so that the shuffle merges sorted runs.
Those runs keep their group ids as run-length keys, the first group id and
the length of each group's run, and no id per pair; they repeat values
gathered once per split, not cell offsets.

The optimized map folds a band through Membership.fold_band, which grids
override, or else each split's region through Membership.fold, which by
default groups those (cell, group) pairs once, as the shuffle groups a
reducer's rows, and folds them. Sliding windows derive, once per region, a
table of the windows that reach it; the pairs come from it, and for the
built-ins that declare a combine kind so does the fold: the aggregator's
window_aggregate combines each window's cells with _slide, one shifted
in-place ufunc call per window offset and dimension, so the work per cell
grows with the window's width and not with its area. Nothing is subtracted,
so a huge or infinite cell reaches only the windows that hold it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial, reduce
from itertools import product
from math import isqrt, prod
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .aggregates import Summaries, _span
from .storage import BoundingBox

if TYPE_CHECKING:
    from .aggregates import Aggregator
    from .storage import Band
    from .frontend.semantic import QueryObject


@dataclass(frozen=True)
class GridParams:
    partitions: tuple[int, ...]  # block size per dimension, in dimension order


@dataclass(frozen=True)
class SlidingParams:
    preceding: tuple[int, ...]
    following: tuple[int, ...]
    stride: int = 1


@dataclass(frozen=True)
class RingParams:
    radius0: int
    step: int
    mode: str  # "nested": cell joins its ring and all larger; "disjoint": own ring only


ShapeParams = GridParams | SlidingParams | RingParams


@dataclass(frozen=True)
class RingExtent:
    """Half-open radius interval (inner, outer] a ring group covers."""

    inner: int
    outer: int

    def __str__(self) -> str:
        return f"({self.inner},{self.outer}]"


class WindowAxis(NamedTuple):
    """One dimension of a window lattice: window k covers the box cells from
    k*stride - preceding to k*stride + following, counted from the box's low
    edge, for k in 0..count-1."""

    preceding: int
    following: int
    stride: int
    count: int


@dataclass(frozen=True)
class GroupGeometry:
    kind: str  # grid | sliding | hierarchical | circular
    box: BoundingBox
    params: ShapeParams
    centroid: tuple[int, ...] | None  # set for ring kinds only
    lattice: tuple[WindowAxis, ...] | None  # set for grid and sliding only
    group_count: int


def _box_centroid(box: BoundingBox) -> tuple[int, ...]:
    return tuple((l + h) // 2 for l, h in zip(box.lo, box.hi))


def _inscribed_radius(box: BoundingBox, centroid: tuple[int, ...]) -> int:
    return min(min(c - l, h - c) for c, l, h in zip(centroid, box.lo, box.hi))


def _ring_count(box: BoundingBox, params: RingParams) -> int:
    """Rings 0..K where K is the smallest k with radius0 + k*step >= the
    largest inscribed radius."""
    r_in = _inscribed_radius(box, _box_centroid(box))
    if params.radius0 >= r_in:
        return 1
    return -(-(r_in - params.radius0) // params.step) + 1


def _lattice(box: BoundingBox, params: GridParams | SlidingParams) -> tuple[WindowAxis, ...]:
    """The geometry's windows, per dimension, each integer bounded by the box
    to a value that gives the same windows, so numpy only sees integers of
    the box's size."""
    if isinstance(params, GridParams):
        spans = [(0, p - 1, p) for p in params.partitions]
    else:
        spans = [(p, f, params.stride) for p, f in zip(params.preceding, params.following)]
    return tuple(
        WindowAxis(min(p, n - 1), min(f, n - 1), min(s, n), (n - 1) // s + 1)
        for (p, f, s), n in zip(spans, box.shape)
    )


def make_geometry(kind: str, box: BoundingBox, params: ShapeParams) -> GroupGeometry:
    centroid = lattice = None
    if kind in ("grid", "sliding"):
        assert isinstance(params, GridParams if kind == "grid" else SlidingParams)
        lattice = _lattice(box, params)
        count = prod(w.count for w in lattice)
    elif kind in ("hierarchical", "circular"):
        assert isinstance(params, RingParams)
        count = _ring_count(box, params)
        centroid = _box_centroid(box)
    else:
        raise ValueError(f"unknown geometry kind {kind!r}")
    return GroupGeometry(kind, box, params, centroid, lattice, count)


def geometry_for(query: "QueryObject") -> GroupGeometry:
    return make_geometry(query.kind, query.box, query.geometry)


def _ceil_sqrt(d2: int) -> int:
    """The smallest integer d with d*d >= d2."""
    return isqrt(d2 - 1) + 1 if d2 else 0


def groups_of(coord: tuple[int, ...], geom: GroupGeometry) -> tuple[int, ...]:
    """Group ids the cell at ``coord`` belongs to (empty when none)."""
    return build_membership(geom)(coord)


class Membership:
    """A geometry's membership, compiled once per job: ``block`` gives every
    membership of a region's cells at once, cell-major (the optimized
    fold's errors name the value that a cell-by-cell fold meets first).
    Each shape's subclass defines it.

    Called with a coordinate, it is ``block`` over that one cell: the cell's
    group ids, ascending row-major for sliding windows and from the cell's
    own ring outward for nested rings; () for a cell outside the box.
    """

    # the values of ``block``'s pairs group-major, as (values, first group
    # id, run length per group), where a membership builds them so without
    # sorting (nested rings: _NestedRings.pairs); a naive map emits them
    # when it is set, so that the shuffle merges sorted runs
    pairs = None

    def __init__(self, box: BoundingBox) -> None:
        self._box = box

    def __call__(self, coord: tuple[int, ...]) -> tuple[int, ...]:
        region = self._box.intersect(BoundingBox(coord, coord))
        return () if region is None else tuple(self.block(region)[1].tolist())

    def block(
        self, region: BoundingBox, keep: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(cells, gids)``: one pair per membership of each cell of the
        region that ``keep`` (a mask of the region's shape) keeps. Cells are
        row-major offsets into the region; within one group they ascend, and
        the first pair of a cell comes before the first pair of every later
        cell."""
        raise NotImplementedError

    def fold(
        self, region: BoundingBox, block: np.ndarray, keep: np.ndarray | None, agg: "Aggregator"
    ) -> Summaries:
        """``agg``'s summary of every group the kept cells of ``block`` (the
        region's values) reach, by ascending group id: the pairs of
        ``self.block``, grouped as the shuffle groups a reducer's rows. A
        kernel may overwrite the cells of ``block`` that ``keep`` drops."""
        cells, gids = self.block(region, keep)
        lo, sizes = _span(gids)  # gids is this fold's own column
        folded = agg.fold_groups(gids, block.ravel()[cells], sizes=sizes)
        folded.gid = folded.gid + lo
        return folded

    def fold_band(self, band: "Band", agg: "Aggregator") -> Summaries | None:
        """``agg``'s summaries of every split of the band at once: each
        split's fold rows, split after split. None (the default) when the
        membership has no such kernel or it would not give those rows; the
        engine then folds split by split. A kernel may overwrite the band's
        dropped cells, which no fold reads."""
        return None


class _Windows(Membership):
    """Sliding-window membership. The pairs and the fold both read the
    region's window table (_axes); the fold takes each window's aggregate
    from the aggregator and adds the geometry, group ids and counts. Rows
    and counts equal those of fold_groups over the pairs, which the region
    takes where the aggregator gives no aggregate."""

    def __init__(self, box: BoundingBox, lattice: tuple[WindowAxis, ...]) -> None:
        super().__init__(box)
        self._lattice = lattice
        self._counts = [w.count for w in lattice]
        # the most cells a window holds
        self._cells = prod(w.preceding + w.following + 1 for w in lattice)

    def _axes(self, region: BoundingBox):
        """Per dimension, the lattice indices of the windows that reach the
        region, each window's first cell (an index into the region) and cell
        count, and one (window slice, cell slice) per window offset that
        lands in the region. None when the region falls between windows."""
        axes = []
        for lo, hi, l, (p, f, s, n) in zip(region.lo, region.hi, self._box.lo, self._lattice):
            a, b = lo - l, hi - l
            kmin, kmax = max(-((f - a) // s), 0), min((b + p) // s, n - 1)
            if kmax < kmin:
                return None
            centers = np.arange(kmin, kmax + 1)
            c = centers * s - a  # each window's center, as an index into the region
            first = np.maximum(c - p, 0)
            count = np.minimum(c + f, b - a) - first + 1
            m, o = kmax - kmin + 1, kmin * s - p - a  # o: offset -p of window kmin
            shifts = []
            for j in range(o, o + p + f + 1):  # cell index of window i is i*s + j
                i0, i1 = max(-(j // s), 0), min((b - a - j) // s, m - 1)
                if i0 <= i1:
                    shifts.append((slice(i0, i1 + 1), slice(i0 * s + j, i1 * s + j + 1, s)))
            axes.append((centers, first, count, shifts))
        return axes

    def block(self, region, keep=None):
        # per dimension, (center index, position) pairs window by window;
        # every combination across dimensions is one membership
        axes = self._axes(region)
        if axes is None:
            none = np.zeros(0, np.int64)
            return none, none
        center_axes, cell_axes = zip(*(_expand(k, first, n) for k, first, n, _ in axes))
        cells = _ravel(cell_axes, region.shape)
        gids = _ravel(center_axes, self._counts)
        if keep is not None:
            kept = keep.ravel()[cells]
            cells, gids = cells[kept], gids[kept]
        return cells, gids

    def fold(self, region, block, keep, agg):
        axes = None if agg.combine is None else self._axes(region)
        slide = partial(_slide, axes=axes)
        aggregate = None if axes is None else agg.window_aggregate(block, keep, self._cells, slide)
        if aggregate is None:
            return super().fold(region, block, keep, agg)
        gids = _ravel([centers for centers, *_ in axes], self._counts)
        if keep is None:  # every window holds all its cells
            counts = reduce(np.multiply, np.ix_(*(count for _, _, count, _ in axes)), np.ones(()))
            return Summaries(gids, aggregate, counts.ravel())
        counts = slide(keep.astype(np.float64), np.add, 0.0).ravel()
        seen = np.flatnonzero(counts)
        return Summaries(gids[seen], aggregate[seen], counts[seen])


def _slide(values: np.ndarray, ufunc, start, axes) -> np.ndarray:
    """``ufunc`` over each window's cells, one dimension after another:
    every (window slice, cell slice) of a dimension combines a shifted slab
    of ``values`` into the windows, in place, from ``start``."""
    for axis, (centers, _, _, shifts) in enumerate(axes):
        shape = list(values.shape)
        shape[axis] = len(centers)
        out = np.full(shape, start, values.dtype)
        lead = (slice(None),) * axis
        for windows, cells in shifts:
            target = out[lead + (windows,)]
            ufunc(target, values[lead + (cells,)], out=target)
        values = out
    return values


class _Grid(Membership):
    """Grid membership. A cell's block, per dimension, is its offset from
    the box's low edge floor-divided by the block side. For the built-ins
    that declare a combine kind, the band fold cuts a band into pieces, one
    per (split, block), and combines each piece's cells with one
    ufunc.reduceat per dimension (the aggregator's window_aggregate, given
    _reduce_pieces as its slide): each piece is one row of the split's fold,
    and the rows go split by split, by ascending id, those of empty pieces
    dropped."""

    def __init__(self, box: BoundingBox, lattice: tuple[WindowAxis, ...]) -> None:
        super().__init__(box)
        self._lattice = lattice
        self._counts = [w.count for w in lattice]
        self._cells = prod(w.stride for w in lattice)  # the most cells a block holds

    def block(self, region, keep=None):
        axes = [
            _floor_div(a - l, b - l, w.stride)
            for a, b, l, w in zip(region.lo, region.hi, self._box.lo, self._lattice)
        ]
        cells = _kept(region, keep)
        return cells, _ravel(axes, self._counts)[cells]

    def fold_band(self, band, agg):
        if agg.combine is None:
            return None
        lo, hi = band.splits[0].region.lo, band.splits[-1].region.hi
        # per dimension, the lattice index of each piece's block and the
        # piece's first cell, as an index into the band
        blocks, starts = [], []
        for a, b, l, w in zip(lo, hi, self._box.lo, self._lattice):
            a, b, s = a - l, b - l, w.stride
            blocks.append(range(a // s, b // s + 1))
            starts.append([max(k * s - a, 0) for k in blocks[-1]])
        # along the last dimension the splits' edges cut pieces too
        edges = [split.region.lo[-1] - lo[-1] for split in band.splits]
        shift, s = lo[-1] - self._box.lo[-1], self._lattice[-1].stride
        starts[-1] = sorted(set(starts[-1]).union(edges))
        blocks[-1] = [(i + shift) // s for i in starts[-1]]
        slide = partial(_reduce_pieces, starts=starts)
        aggregate = agg.window_aggregate(band.data, band.keep, self._cells, slide)
        if aggregate is None:
            return None
        gids = _ravel(blocks, self._counts)
        if band.keep is None:  # every piece holds all its cells
            sizes = [np.diff(np.array([*i, n], np.float64)) for i, n in zip(starts, band.data.shape)]
            counts = reduce(np.multiply.outer, sizes).ravel()
        else:  # the mask's bytes, in int32 along rows (none holds 2**31 cells)
            rows = np.add.reduceat(band.keep.view(np.int8), starts[-1], axis=-1, dtype=np.int32)
            counts = _reduce_pieces(rows.astype(np.float64), np.add, 0.0, starts[:-1]).ravel()
        # split by split, each in row-major order, which is ascending id
        cuts = [bisect_left(starts[-1], i) for i in edges] + [len(starts[-1])]
        pieces = np.arange(counts.size).reshape(-1, len(starts[-1]))
        order = np.concatenate([pieces[:, i:j].ravel() for i, j in zip(cuts, cuts[1:])])
        if band.keep is not None:  # only the pieces some kept cell reaches
            order = order[np.flatnonzero(counts[order])]
        return Summaries(gids[order], aggregate[order], counts[order])


def _reduce_pieces(values: np.ndarray, ufunc, start, starts: list[list[int]]) -> np.ndarray:
    """``ufunc`` over the cells of each piece, from ``start``: along each
    leading dimension that ``starts`` has a list for, pieces begin at the
    indices it holds. The last of them goes first: along the last
    dimension, cells lie next to each other."""
    for axis in range(len(starts) - 1, -1, -1):
        values = ufunc.reduceat(values, starts[axis], axis=axis)
    return ufunc(values, start, out=values)


def _floor_div(a: int, b: int, d: int) -> np.ndarray:
    """x // d for every integer x from a to b, as runs of equal quotients."""
    first, last = a // d, b // d
    edges = np.arange(first, last + 2) * d
    edges[0], edges[-1] = a, b + 1
    return np.repeat(np.arange(first, last + 1), np.diff(edges))


def _ravel(axes: list, counts) -> np.ndarray:
    """Row-major ids over every combination of the per-dimension indices."""
    ids = np.zeros((), np.int64)
    for a, n in zip(axes, counts):
        ids = np.add.outer(ids * n, a)
    return ids.ravel()


def _kept(region: BoundingBox, keep: np.ndarray | None) -> np.ndarray:
    """Row-major offsets of the cells ``keep`` keeps (all without a mask)."""
    return np.arange(region.cell_count) if keep is None else np.flatnonzero(keep)


def _expand(items: np.ndarray, first: np.ndarray, counts: np.ndarray):
    """Each item ``counts`` times, beside the ids first, first + 1, ..."""
    total = int(counts.sum())
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(items, counts), np.repeat(first, counts) + np.arange(total) - starts


def _distances(a: int, b: int) -> np.ndarray:
    """|x| for every integer x from a to b."""
    if a >= 0:
        return np.arange(a, b + 1)
    if b < 0:
        return np.arange(-a, -b - 1, -1)
    return np.concatenate((np.arange(-a, 0, -1), np.arange(b + 1)))


def _ring_members(geom: GroupGeometry, region: BoundingBox, keep):
    """The kept cells of a region, each with its own ring and its ring count
    (0 past the last ring): each kept cell's integer distance
    (Chebyshev for hierarchical rings; for circular ones the smallest d with
    d*d >= the squared distance, so ring k holds
    (r0 + (k-1)*s)**2 < d2 <= (r0 + k*s)**2 exactly) picks its first ring and
    its ring count from tables over the region's distance range."""
    params = geom.params
    assert isinstance(params, RingParams) and geom.centroid is not None
    spans = [(l - z, h - z) for l, h, z in zip(region.lo, region.hi, geom.centroid)]
    near = [max(a, -b, 0) for a, b in spans]  # per dimension, the least |offset|
    far = [max(-a, b) for a, b in spans]
    cells = _kept(region, keep)
    if geom.kind == "hierarchical":
        lo, hi = max(near), max(far)
        grids = np.ix_(*(_distances(a, b) for a, b in spans))
        d = grids[0]
        for g in grids[1:]:
            d = np.maximum(d, g)
    else:
        lo = _ceil_sqrt(sum(x * x for x in near))
        hi = _ceil_sqrt(sum(x * x for x in far))
        if hi * hi < 2**52:
            # float64 holds these squared distances exactly, and below 2**52
            # the square root of an integer d2 is never rounded across an
            # integer, so its ceiling is _ceil_sqrt(d2)
            grids = np.ix_(*(np.arange(a, b + 1, dtype=np.float64) for a, b in spans))
            d = np.ceil(np.sqrt(sum(g * g for g in grids))).astype(np.int64)
        else:
            offsets = product(*(range(a, b + 1) for a, b in spans))
            d = np.array([_ceil_sqrt(sum(x * x for x in o)) for o in offsets], np.int64)
    # a radius of hi or more puts every distance in ring 0, and a step past
    # hi - r0 every distance past r0 in ring 1, as the unbounded values do
    r0 = min(params.radius0, hi)
    s = min(params.step, hi - r0 + 1)
    ring = np.maximum(_floor_div(lo - r0 + s - 1, hi - r0 + s - 1, s), 0)
    rings = np.maximum(geom.group_count - ring, 0)  # the cell's ring and all outer ones
    if params.mode == "disjoint":
        rings = np.minimum(rings, 1)
    at = d.ravel()[cells] - lo
    return cells, ring[at], rings[at]


class _Rings(Membership):
    """Ring membership: each kept cell expanded into its rings."""

    def __init__(self, geom: GroupGeometry) -> None:
        super().__init__(geom.box)
        self._geom = geom

    def block(self, region, keep=None):
        return _expand(*_ring_members(self._geom, region, keep))


class _NestedRings(_Rings):
    """Nested ring membership, which also gives its pairs group-major."""

    def pairs(
        self, region: BoundingBox, block: np.ndarray, keep: np.ndarray | None = None
    ) -> tuple[np.ndarray, int, np.ndarray]:
        """The values of ``block`` (the region's) of every pair of
        ``self.block``, by ascending group id, and by ascending cell within
        a group, without a sort, as ``(values, first, lengths)``: one run
        per group, ``lengths[k]`` values of group ``first + k``, every run
        holding some value. Nested ring k holds the cells whose own ring is
        k or less, one mask each below the largest own ring, and from it on
        every cell; the kept cells' values are gathered once, before the
        runs repeat them."""
        cells, own, rings = _ring_members(self._geom, region, keep)
        inside = rings > 0
        if not inside.all():
            cells, own = cells[inside], own[inside]
        values = block.ravel()[cells]
        if not len(values):
            return values, 0, np.zeros(0, np.int64)
        first, last = int(own.min()), int(own.max())
        outer = self._geom.group_count - last
        members = [values[own <= k] for k in range(first, last)]
        lengths = [len(m) for m in members] + [len(values)] * outer
        members.append(np.tile(values, outer))
        return np.concatenate(members), first, np.array(lengths, np.int64)


def build_membership(geom: GroupGeometry) -> Membership:
    """Compile the membership function once for a job."""
    box, lattice = geom.box, geom.lattice
    if lattice is None:
        return (_NestedRings if geom.params.mode == "nested" else _Rings)(geom)
    if geom.kind == "sliding":
        return _Windows(box, lattice)
    return _Grid(box, lattice)


def group_extent(gid: int, geom: GroupGeometry) -> BoundingBox | RingExtent:
    """What the group covers: a coordinate box for grid and sliding, a radius
    interval for rings."""
    if not 0 <= gid < geom.group_count:
        raise ValueError(f"group id {gid} out of range (0..{geom.group_count - 1})")
    box, lattice = geom.box, geom.lattice
    if lattice is not None:
        lo, hi = [], []  # last dimension first, as the row-major id unravels
        for l, h, (p, f, s, n) in zip(box.lo[::-1], box.hi[::-1], lattice[::-1]):
            gid, k = divmod(gid, n)
            center = l + k * s
            lo.append(max(l, center - p))
            hi.append(min(h, center + f))
        return BoundingBox(tuple(lo[::-1]), tuple(hi[::-1]))
    params = geom.params
    assert isinstance(params, RingParams)
    outer = params.radius0 + gid * params.step
    if params.mode == "nested" or gid == 0:
        inner = -1
    else:
        inner = params.radius0 + (gid - 1) * params.step
    return RingExtent(inner, outer)


def group_extent_texts(geom: GroupGeometry) -> Iterator[str]:
    """``str(group_extent(gid, geom))`` for every group, by ascending id. A
    lattice's window bounds are formatted once per dimension and window,
    and the texts of all but the last dimension joined once per prefix:
    ids count row-major, the last dimension fastest."""
    if geom.lattice is None:
        return (str(group_extent(gid, geom)) for gid in range(geom.group_count))
    *outer, last = (
        [(str(max(l, c - p)), str(min(h, c + f))) for c in range(l, l + n * s, s)]
        for l, h, (p, f, s, n) in zip(geom.box.lo, geom.box.hi, geom.lattice)
    )
    prefixes = [("", "")]
    for bounds in outer:
        prefixes = [(a + lo + ",", b + hi + ",") for a, b in prefixes for lo, hi in bounds]
    return (f"({a}{lo})-({b}{hi})" for a, b in prefixes for lo, hi in last)
