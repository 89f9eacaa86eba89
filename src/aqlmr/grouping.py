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
make_geometry derives once and which group counts, extents and the one
lattice membership (_Windows) read: a grid and its tumbling window are one
membership, and their results agree bit for bit.

Ring radii grow from an initial radius by a fixed step until a ring reaches
the box boundary (the largest radius whose full extent still fits: the
smallest r with r >= the largest inscribed radius). Cells beyond the last
ring (box corners exceed the inscribed radius) belong to no group. Ring k
reaches the cells whose squared distance from the centroid is at most
(radius0 + k*step)**2, one exact integer comparison and no square root: a
circular cell's squared distance is the sum of its squared offsets, and a
hierarchical cell's own ring is the largest of its offsets' rings. The
squares are int64 columns, or Python ints once a region's farthest squared
distance reaches 2**63, and a region looks its cells up, with one
searchsorted, among the squared radii of the rings from its nearest cell
to its farthest, however many rings the box has.

A compiled Membership defines each shape's membership once, for a whole
region at a time (the engine's map), from per-dimension index ranges
broadcast over the region: no per-cell Python work. Each shape's subclass
(_Windows, _Rings, _NestedRings) overrides block; a lattice pairs each
cell, dimension by dimension, with the windows from ceil((x - following) /
stride) to floor((x + preceding) / stride), clamped to the lattice, x being
the cell's offset from the box's low edge; one cell (groups_of) is the
one-cell region. Nested rings also give the values of their pairs
group-major (pairs), built without a sort, ring k being the cells whose own
ring is k or less, which a naive map emits, whatever the aggregate, so that
the shuffle merges sorted runs. Those runs keep their group ids as
run-length keys, the first group id and the length of each group's run,
and no id per pair; they repeat values gathered once per split, not cell
offsets.

The optimized map folds a band through Membership.fold_band, or else each
split's region through Membership.fold, which by default groups those
(cell, group) pairs once, as the shuffle groups a reducer's rows, and folds
them. For the built-ins that declare a combine kind, a lattice folds with
a kernel that the lattice alone chooses. Windows that tile the box (0
preceding and stride - 1 following on every axis, as a grid's always are)
cut a band (side-by-side splits read as one array) into pieces, one per
(split, window), and one ufunc.reduceat per dimension combines every piece:
about a dozen numpy calls a band where the split-by-split pair fold made
some 25 a split, which took run_job on a filtered SUM over 32x32 blocks of
a 1024x1024 array from 26 to 10 ms; a lone split folds the same pieces of
its region. Windows that overlap or leave gaps derive, once per region, a
table of the windows that reach it, and the aggregator's window_aggregate
combines each window's cells with _slide, one shifted in-place ufunc call
per window offset and dimension, so the work per cell grows with the
window's width and not with its area. Nothing is subtracted, so a huge or
infinite cell reaches only the windows that hold it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import partial, reduce
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


_PARAMS = {
    "grid": GridParams,
    "sliding": SlidingParams,
    "hierarchical": RingParams,
    "circular": RingParams,
}


# the least value of each numeric field
_LEAST = {"partitions": 1, "preceding": 0, "following": 0, "stride": 1, "radius0": 0, "step": 1}


def _check_params(kind: str, box: BoundingBox, params: ShapeParams) -> None:
    """ValueError, naming the field, for the parameters that analyze refuses
    in a query."""
    want = _PARAMS.get(kind)
    if want is None:
        raise ValueError(f"unknown geometry kind {kind!r}")
    if not isinstance(params, want):
        raise ValueError(f"{kind} geometry needs {want.__name__}, got {type(params).__name__}")
    if isinstance(params, RingParams) and params.mode not in ("nested", "disjoint"):
        raise ValueError(f"RingParams.mode must be 'nested' or 'disjoint', got {params.mode!r}")
    for field in fields(params):
        if field.name not in _LEAST:  # a ring's mode
            continue
        name = f"{want.__name__}.{field.name}"
        value, least = getattr(params, field.name), _LEAST[field.name]
        per_dimension = field.name in ("partitions", "preceding", "following")
        if per_dimension and len(value) != box.ndim:
            raise ValueError(
                f"{name} needs one value per dimension of the {box.ndim}-d box, got {len(value)}"
            )
        if min(value if per_dimension else (value,)) < least:
            raise ValueError(f"{name} must be >= {least}, got {value!r}")


def make_geometry(kind: str, box: BoundingBox, params: ShapeParams) -> GroupGeometry:
    _check_params(kind, box, params)
    centroid = lattice = None
    if isinstance(params, RingParams):
        count = _ring_count(box, params)
        centroid = _box_centroid(box)
    else:
        lattice = _lattice(box, params)
        count = prod(w.count for w in lattice)
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
    """The window lattice's membership, grids and sliding windows alike.
    The fold of a lattice whose windows tile the box reduces pieces, a
    band's or a lone split's (_fold_pieces); other lattices slide over the
    region's window table (_fold_windows). Rows and counts equal those of
    fold_groups over the pairs, which the region takes where the aggregator
    gives no aggregate."""

    def __init__(self, box: BoundingBox, lattice: tuple[WindowAxis, ...]) -> None:
        super().__init__(box)
        self._lattice = lattice
        self._counts = [w.count for w in lattice]
        # the most cells a window holds
        self._cells = prod(w.preceding + w.following + 1 for w in lattice)
        self._tiles = all(w.preceding == 0 and w.following == w.stride - 1 for w in lattice)

    def block(self, region, keep=None):
        # per dimension, (position, window) pairs cell by cell; every
        # combination across dimensions is one membership
        axes = []
        for lo, hi, l, (p, f, s, n) in zip(region.lo, region.hi, self._box.lo, self._lattice):
            # for each offset x from the box's low edge, from a to b, the
            # windows ceil((x - f) / s) to floor((x + p) / s)
            a, b = lo - l, hi - l
            first = np.maximum(np.arange(a - f + s - 1, b - f + s) // s, 0)
            last = np.minimum(np.arange(a + p, b + p + 1) // s, n - 1)
            axes.append(_expand(np.arange(b - a + 1), first, last - first + 1))
        positions, windows = zip(*axes)
        # a tiling lattice puts every cell in one window per dimension
        cells = np.arange(region.cell_count) if self._tiles else _ravel(positions, region.shape)
        gids = _ravel(windows, self._counts)
        if keep is not None:
            kept = keep.ravel()[cells]
            cells, gids = cells[kept], gids[kept]
        return cells, gids

    def fold(self, region, block, keep, agg):
        if agg.combine is None:
            folded = None
        elif self._tiles:
            folded = self._fold_pieces([region], block, keep, agg)
        else:
            folded = self._fold_windows(region, block, keep, agg)
        return super().fold(region, block, keep, agg) if folded is None else folded

    def fold_band(self, band, agg):
        if agg.combine is None or not self._tiles:
            return None
        return self._fold_pieces([split.region for split in band.splits], band.data, band.keep, agg)

    def _fold_pieces(self, regions, data, keep, agg) -> Summaries | None:
        """The fold rows of ``regions``, which lie side by side along the
        last dimension and whose values ``data`` and mask ``keep`` hold:
        one row per (region, window) piece that some kept cell reaches,
        region by region, by ascending id. None where window_aggregate
        gives no aggregate."""
        lo, hi = regions[0].lo, regions[-1].hi
        # per dimension, the lattice index of each piece's window and the
        # piece's first cell, as an index into data
        windows, starts = [], []
        for a, b, l, w in zip(lo, hi, self._box.lo, self._lattice):
            a, b, s = a - l, b - l, w.stride
            windows.append(range(a // s, b // s + 1))
            starts.append([max(k * s - a, 0) for k in windows[-1]])
        # along the last dimension the regions' edges cut pieces too
        cuts = [region.lo[-1] - lo[-1] for region in regions]
        shift, s = lo[-1] - self._box.lo[-1], self._lattice[-1].stride
        starts[-1] = sorted(set(starts[-1]).union(cuts))
        windows[-1] = [(i + shift) // s for i in starts[-1]]
        slide = partial(_reduce_pieces, starts=starts)
        aggregate = agg.window_aggregate(data, keep, self._cells, slide)
        if aggregate is None:
            return None
        gids = _ravel(windows, self._counts)
        if keep is None:  # every piece holds all its cells
            sizes = [np.diff(np.array([*i, n], np.float64)) for i, n in zip(starts, data.shape)]
            counts = reduce(np.multiply.outer, sizes).ravel()
        else:  # the mask's bytes, in int32 along rows (none holds 2**31 cells)
            rows = np.add.reduceat(keep.view(np.int8), starts[-1], axis=-1, dtype=np.int32)
            counts = _reduce_pieces(rows.astype(np.float64), np.add, 0.0, starts[:-1]).ravel()
        # region by region, each in row-major order, which is ascending id
        at = [bisect_left(starts[-1], i) for i in cuts] + [len(starts[-1])]
        pieces = np.arange(counts.size).reshape(-1, len(starts[-1]))
        order = np.concatenate([pieces[:, i:j].ravel() for i, j in zip(at, at[1:])])
        if keep is not None:  # only the pieces some kept cell reaches
            order = order[np.flatnonzero(counts[order])]
        return Summaries(gids[order], aggregate[order], counts[order])

    def _axes(self, region: BoundingBox):
        """Per dimension, the lattice indices of the windows that reach the
        region, each window's cell count in it, and one (window slice, cell
        slice) per window offset that lands in the region. None when the
        region falls between windows."""
        axes = []
        for lo, hi, l, (p, f, s, n) in zip(region.lo, region.hi, self._box.lo, self._lattice):
            a, b = lo - l, hi - l
            kmin, kmax = max(-((f - a) // s), 0), min((b + p) // s, n - 1)
            if kmax < kmin:
                return None
            centers = np.arange(kmin, kmax + 1)
            c = centers * s - a  # each window's center, as an index into the region
            count = np.minimum(c + f, b - a) - np.maximum(c - p, 0) + 1
            m, o = kmax - kmin + 1, kmin * s - p - a  # o: offset -p of window kmin
            shifts = []
            for j in range(o, o + p + f + 1):  # cell index of window i is i*s + j
                i0, i1 = max(-(j // s), 0), min((b - a - j) // s, m - 1)
                if i0 <= i1:
                    shifts.append((slice(i0, i1 + 1), slice(i0 * s + j, i1 * s + j + 1, s)))
            axes.append((centers, count, shifts))
        return axes

    def _fold_windows(self, region, block, keep, agg) -> Summaries | None:
        """The region's rows from _slide over its window table; None where
        window_aggregate gives no aggregate."""
        axes = self._axes(region)
        if axes is None:
            return None
        slide = partial(_slide, axes=axes)
        aggregate = agg.window_aggregate(block, keep, self._cells, slide)
        if aggregate is None:
            return None
        gids = _ravel([centers for centers, _, _ in axes], self._counts)
        if keep is None:  # every window holds all its cells
            counts = reduce(np.multiply, np.ix_(*(count for _, count, _ in axes)), np.ones(()))
            return Summaries(gids, aggregate, counts.ravel())
        counts = slide(keep.astype(np.float64), np.add, 0.0).ravel()
        seen = np.flatnonzero(counts)
        return Summaries(gids[seen], aggregate[seen], counts[seen])


def _slide(values: np.ndarray, ufunc, start, axes) -> np.ndarray:
    """``ufunc`` over each window's cells, one dimension after another:
    every (window slice, cell slice) of a dimension combines a shifted slab
    of ``values`` into the windows, in place, from ``start``."""
    for axis, (centers, _, shifts) in enumerate(axes):
        shape = list(values.shape)
        shape[axis] = len(centers)
        out = np.full(shape, start, values.dtype)
        lead = (slice(None),) * axis
        for windows, cells in shifts:
            target = out[lead + (windows,)]
            ufunc(target, values[lead + (cells,)], out=target)
        values = out
    return values


def _reduce_pieces(values: np.ndarray, ufunc, start, starts: list[list[int]]) -> np.ndarray:
    """``ufunc`` over the cells of each piece, from ``start``: along each
    leading dimension that ``starts`` has a list for, pieces begin at the
    indices it holds. The last of them goes first: along the last
    dimension, cells lie next to each other."""
    for axis in range(len(starts) - 1, -1, -1):
        values = ufunc.reduceat(values, starts[axis], axis=axis)
    return ufunc(values, start, out=values)


def _ravel(axes: list, counts) -> np.ndarray:
    """Row-major ids over every combination of the per-dimension indices."""
    ids = np.zeros((), np.int64)
    for a, n in zip(axes, counts):
        ids = np.add.outer(ids * n, a)
    return ids.ravel()


def _expand(items: np.ndarray, first: np.ndarray, counts: np.ndarray):
    """Each item ``counts`` times, beside the ids first, first + 1, ...:
    the items and ``first`` themselves where every count is 1."""
    if (counts == 1).all():
        return items, first
    ids = np.repeat(first + counts - np.cumsum(counts), counts)
    ids += np.arange(len(ids))
    return np.repeat(items, counts), ids


def _ring_of(d2: int, params: RingParams) -> int:
    """The first ring reaching squared distance ``d2``: the smallest k >= 0
    with d2 <= (radius0 + k*step)**2."""
    return max(-((params.radius0 - _ceil_sqrt(d2)) // params.step), 0)


def _ring_members(geom: GroupGeometry, region: BoundingBox, keep):
    """The kept cells of a region, each with its own ring and its ring count
    (0 past the last ring): a circular cell's own ring is that of its summed
    squared offsets, a hierarchical cell's the largest of its offsets' rings
    (the Chebyshev distance is the largest offset), each looked up among the
    squared radii of the rings from the region's nearest cell to its
    farthest."""
    params = geom.params
    assert isinstance(params, RingParams) and geom.centroid is not None
    spans = [(l - z, h - z) for l, h, z in zip(region.lo, region.hi, geom.centroid)]
    near = [max(a, -b, 0) ** 2 for a, b in spans]  # per dimension, the least squared offset
    far = [max(-a, b) ** 2 for a, b in spans]
    chebyshev = geom.kind == "hierarchical"
    lo, hi = (max(near), max(far)) if chebyshev else (sum(near), sum(far))
    dtype = object if hi >= 2**63 else np.int64
    first, last = _ring_of(lo, params), min(_ring_of(hi, params), geom.group_count - 1)
    # squared distances never exceed hi, so neither need the radii
    radii = [min((params.radius0 + k * params.step) ** 2, hi) for k in range(first, last + 1)]
    radii = np.array(radii, dtype)
    squares = np.ix_(*(np.arange(a, b + 1, dtype=dtype) ** 2 for a, b in spans))
    cells = np.arange(region.cell_count) if keep is None else np.flatnonzero(keep)
    if chebyshev:
        own = reduce(np.maximum, (np.searchsorted(radii, sq) for sq in squares))
        own = own.ravel()[cells]
    else:
        own = np.searchsorted(radii, reduce(np.add, squares).ravel()[cells])
    own += first
    rings = np.maximum(geom.group_count - own, 0)  # the cell's ring and all outer ones
    if params.mode == "disjoint":
        rings = np.minimum(rings, 1)
    return cells, own, rings


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
    if geom.lattice is None:
        return (_NestedRings if geom.params.mode == "nested" else _Rings)(geom)
    return _Windows(geom.box, geom.lattice)


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
