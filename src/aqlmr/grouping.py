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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, prod
from typing import TYPE_CHECKING, Callable

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


def _ring_bucket(geom: GroupGeometry, coord: tuple[int, ...]) -> int | None:
    """Index of the smallest ring containing the cell, or None when the cell
    lies beyond the last ring."""
    params = geom.params
    assert isinstance(params, RingParams)
    centroid = geom.centroid
    assert centroid is not None
    r0, s = params.radius0, params.step
    last = geom.group_count - 1
    if geom.kind == "hierarchical":
        d = max(abs(c - z) for c, z in zip(coord, centroid))
    else:
        # smallest integer radius d with d*d >= the squared distance, so
        # ring k holds (r0 + (k-1)*s)**2 < d2 <= (r0 + k*s)**2 exactly
        d2 = sum((c - z) ** 2 for c, z in zip(coord, centroid))
        d = isqrt(d2 - 1) + 1 if d2 else 0
    k = 0 if d <= r0 else -(-(d - r0) // s)
    return k if k <= last else None


def groups_of(coord: tuple[int, ...], geom: GroupGeometry) -> tuple[int, ...]:
    """Group ids the cell at ``coord`` belongs to (empty when none)."""
    return build_membership(geom)(coord)


def build_membership(geom: GroupGeometry) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """Compile the membership function once for use in per-cell loops."""
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

        return grid_member

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

        return sliding_member

    assert isinstance(params, RingParams)
    if params.mode == "nested":
        last = geom.group_count - 1

        def nested_member(coord: tuple[int, ...]) -> tuple[int, ...]:
            k = _ring_bucket(geom, coord)
            if k is None:
                return ()
            return tuple(range(k, last + 1))

        return nested_member

    def disjoint_member(coord: tuple[int, ...]) -> tuple[int, ...]:
        k = _ring_bucket(geom, coord)
        return () if k is None else (k,)

    return disjoint_member


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
