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

Ring radii grow from an initial radius by a fixed step until a ring reaches
the box boundary (the largest radius whose full extent still fits: the
smallest r with r >= the largest inscribed radius). Cells beyond the last
ring (box corners exceed the inscribed radius) belong to no group.

A compiled Membership answers for one cell (groups_of, explain, tests) and
for a whole region at once (the engine's map), from per-dimension index
ranges broadcast over the region: no per-cell Python work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from math import isqrt, prod
from typing import TYPE_CHECKING

import numpy as np

from .storage import BoundingBox

if TYPE_CHECKING:
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


@dataclass(frozen=True)
class GroupGeometry:
    kind: str  # grid | sliding | hierarchical | circular
    box: BoundingBox
    params: ShapeParams
    centroid: tuple[int, ...] | None  # set for ring kinds only
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


def _grid_block_counts(box: BoundingBox, params: GridParams) -> tuple[int, ...]:
    return tuple(-(-s // p) for s, p in zip(box.shape, params.partitions))


def _sliding_center_counts(box: BoundingBox, params: SlidingParams) -> tuple[int, ...]:
    return tuple((s - 1) // params.stride + 1 for s in box.shape)


def make_geometry(kind: str, box: BoundingBox, params: ShapeParams) -> GroupGeometry:
    if kind == "grid":
        assert isinstance(params, GridParams)
        count = prod(_grid_block_counts(box, params))
        centroid = None
    elif kind == "sliding":
        assert isinstance(params, SlidingParams)
        count = prod(_sliding_center_counts(box, params))
        centroid = None
    elif kind in ("hierarchical", "circular"):
        assert isinstance(params, RingParams)
        count = _ring_count(box, params)
        centroid = _box_centroid(box)
    else:
        raise ValueError(f"unknown geometry kind {kind!r}")
    return GroupGeometry(kind, box, params, centroid, count)


def geometry_for(query: "QueryObject") -> GroupGeometry:
    return make_geometry(query.kind, query.box, query.geometry)


def _unravel(gid: int, counts: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for n in reversed(counts):
        out.append(gid % n)
        gid //= n
    return tuple(reversed(out))


def _ceil_sqrt(d2: int) -> int:
    """The smallest integer d with d*d >= d2."""
    return isqrt(d2 - 1) + 1 if d2 else 0


def _ring_distance(geom: GroupGeometry, coord: tuple[int, ...]) -> int:
    """The cell's integer ring distance from the centroid: Chebyshev for
    hierarchical rings; for circular ones the smallest integer radius d with
    d*d >= the squared distance, so ring k holds
    (r0 + (k-1)*s)**2 < d2 <= (r0 + k*s)**2 exactly."""
    centroid = geom.centroid
    assert centroid is not None
    if geom.kind == "hierarchical":
        return max(abs(c - z) for c, z in zip(coord, centroid))
    return _ceil_sqrt(sum((c - z) ** 2 for c, z in zip(coord, centroid)))


def _ring_bucket(geom: GroupGeometry, coord: tuple[int, ...]) -> int | None:
    """Index of the smallest ring containing the cell, or None when the cell
    lies beyond the last ring."""
    params = geom.params
    assert isinstance(params, RingParams)
    r0, s = params.radius0, params.step
    d = _ring_distance(geom, coord)
    k = 0 if d <= r0 else -(-(d - r0) // s)
    return k if k < geom.group_count else None


def groups_of(coord: tuple[int, ...], geom: GroupGeometry) -> tuple[int, ...]:
    """Group ids the cell at ``coord`` belongs to (empty when none)."""
    return build_membership(geom)(coord)


class Membership:
    """A geometry's membership, compiled once per job.

    Called with a coordinate, it returns the cell's group ids: ascending
    row-major for sliding windows, from the cell's ring outward for nested
    rings. ``block`` gives the same memberships for a whole region at once.
    """

    def __init__(self, cell, block) -> None:
        self._cell = cell
        self._block = block

    def __call__(self, coord: tuple[int, ...]) -> tuple[int, ...]:
        return self._cell(coord)

    def block(
        self, region: BoundingBox, keep: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(cells, gids)``: one pair per membership of each cell of the
        region that ``keep`` (a mask of the region's shape) keeps. Cells are
        row-major offsets into the region; within one group they ascend, and
        the first pair of a cell comes before the first pair of every later
        cell."""
        return self._block(region, keep)


def _floor_div(a: int, b: int, d: int) -> np.ndarray:
    """x // d for every integer x from a to b, as runs of equal quotients."""
    first, last = a // d, b // d
    edges = np.arange(first, last + 2) * d
    edges[0], edges[-1] = a, b + 1
    return np.repeat(np.arange(first, last + 1), np.diff(edges))


def _ravel(axes: list[np.ndarray], counts) -> np.ndarray:
    """Row-major ids over every combination of the per-dimension indices."""
    ids = np.zeros((), np.int64)
    for a, n in zip(np.ix_(*axes), counts):
        ids = ids * n + a
    return ids.ravel()


def _kept(region: BoundingBox, keep: np.ndarray | None) -> np.ndarray:
    """Row-major offsets of the cells ``keep`` keeps (all without a mask)."""
    return np.arange(region.cell_count) if keep is None else np.flatnonzero(keep)


def _expand(cells: np.ndarray, first: np.ndarray, counts: np.ndarray):
    """Each cell ``counts`` times, with ids first, first + 1, ..."""
    total = int(counts.sum())
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(cells, counts), np.repeat(first, counts) + np.arange(total) - starts


def _distances(a: int, b: int) -> np.ndarray:
    """|x| for every integer x from a to b."""
    if a >= 0:
        return np.arange(a, b + 1)
    if b < 0:
        return np.arange(-a, -b - 1, -1)
    return np.concatenate((np.arange(-a, 0, -1), np.arange(b + 1)))


def _ring_pairs(geom: GroupGeometry, region: BoundingBox, keep):
    """Membership pairs of ring geometries: each kept cell's distance picks
    its first ring and its ring count from tables over the region's
    distance range."""
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
            coords = product(*(range(l, h + 1) for l, h in zip(region.lo, region.hi)))
            d = np.array([_ring_distance(geom, c) for c in coords], np.int64)
    r0, s = params.radius0, params.step
    ring = np.maximum(_floor_div(lo - r0 + s - 1, hi - r0 + s - 1, s), 0)
    rings = np.maximum(geom.group_count - ring, 0)  # the cell's ring and all outer ones
    if params.mode == "disjoint":
        rings = np.minimum(rings, 1)
    at = d.ravel()[cells] - lo
    return _expand(cells, ring[at], rings[at])


def build_membership(geom: GroupGeometry) -> Membership:
    """Compile the membership function once for a job."""
    params = geom.params
    box = geom.box
    if geom.kind == "grid":
        assert isinstance(params, GridParams)
        counts = _grid_block_counts(box, params)
        lo = box.lo
        sizes = params.partitions

        def grid_member(coord: tuple[int, ...]) -> tuple[int, ...]:
            gid = 0
            for c, l, p, n in zip(coord, lo, sizes, counts):
                gid = gid * n + (c - l) // p
            return (gid,)

        def grid_block(region: BoundingBox, keep):
            axes = [
                _floor_div(a - l, b - l, p)
                for a, b, l, p in zip(region.lo, region.hi, lo, sizes)
            ]
            cells = _kept(region, keep)
            return cells, _ravel(axes, counts)[cells]

        return Membership(grid_member, grid_block)

    if geom.kind == "sliding":
        assert isinstance(params, SlidingParams)
        counts = _sliding_center_counts(box, params)
        lo = box.lo
        stride = params.stride
        prec = params.preceding
        foll = params.following

        def sliding_member(coord: tuple[int, ...]) -> tuple[int, ...]:
            # row-major ids over the per-dim ranges of center lattice indices
            # whose window covers coord; an empty range leaves no ids
            gids = [0]
            for c, l, p, f, n in zip(coord, lo, prec, foll, counts):
                kmin = (max(0, c - f - l) + stride - 1) // stride
                kmax = min((c + p - l) // stride, n - 1)
                gids = [g * n + k for g in gids for k in range(kmin, kmax + 1)]
            return tuple(gids)

        def sliding_block(region: BoundingBox, keep):
            # per dimension, (position, center index) pairs of the covering
            # windows; every combination across dimensions is one membership
            cell_axes, center_axes = [], []
            for rl, rh, l, p, f, n in zip(region.lo, region.hi, lo, prec, foll, counts):
                a, b = rl - l, rh - l
                kmin = np.maximum(_floor_div(a - f + stride - 1, b - f + stride - 1, stride), 0)
                kmax = np.minimum(_floor_div(a + p, b + p, stride), n - 1)
                pos, k = _expand(np.arange(b - a + 1), kmin, np.maximum(kmax - kmin + 1, 0))
                cell_axes.append(pos)
                center_axes.append(k)
            cells = _ravel(cell_axes, region.shape)
            gids = _ravel(center_axes, counts)
            if keep is not None:
                kept = keep.ravel()[cells]
                cells, gids = cells[kept], gids[kept]
            return cells, gids

        return Membership(sliding_member, sliding_block)

    assert isinstance(params, RingParams)
    last = geom.group_count - 1

    if params.mode == "nested":

        def nested_member(coord: tuple[int, ...]) -> tuple[int, ...]:
            k = _ring_bucket(geom, coord)
            if k is None:
                return ()
            return tuple(range(k, last + 1))

        return Membership(nested_member, partial(_ring_pairs, geom))

    def disjoint_member(coord: tuple[int, ...]) -> tuple[int, ...]:
        k = _ring_bucket(geom, coord)
        return () if k is None else (k,)

    return Membership(disjoint_member, partial(_ring_pairs, geom))


def group_extent(gid: int, geom: GroupGeometry) -> BoundingBox | RingExtent:
    """What the group covers: a coordinate box for grid and sliding, a radius
    interval for rings."""
    if not 0 <= gid < geom.group_count:
        raise ValueError(f"group id {gid} out of range (0..{geom.group_count - 1})")
    params = geom.params
    box = geom.box
    if geom.kind == "grid":
        assert isinstance(params, GridParams)
        counts = _grid_block_counts(box, params)
        idx = _unravel(gid, counts)
        lo = tuple(l + i * p for l, i, p in zip(box.lo, idx, params.partitions))
        hi = tuple(
            min(a + p - 1, h) for a, p, h in zip(lo, params.partitions, box.hi)
        )
        return BoundingBox(lo, hi)
    if geom.kind == "sliding":
        assert isinstance(params, SlidingParams)
        counts = _sliding_center_counts(box, params)
        idx = _unravel(gid, counts)
        centers = tuple(l + i * params.stride for l, i in zip(box.lo, idx))
        lo = tuple(max(l, c - p) for l, c, p in zip(box.lo, centers, params.preceding))
        hi = tuple(min(h, c + f) for h, c, f in zip(box.hi, centers, params.following))
        return BoundingBox(lo, hi)
    assert isinstance(params, RingParams)
    outer = params.radius0 + gid * params.step
    if params.mode == "nested" or gid == 0:
        inner = -1
    else:
        inner = params.radius0 + (gid - 1) * params.step
    return RingExtent(inner, outer)
