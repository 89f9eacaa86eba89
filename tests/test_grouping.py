from itertools import product
from math import sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqlmr import (
    BoundingBox,
    GridParams,
    RingParams,
    SlidingParams,
    build_membership,
    group_extent,
    groups_of,
    make_geometry,
)
from aqlmr.grouping import RingExtent, group_extent_texts


def box(lo, hi):
    return BoundingBox(tuple(lo), tuple(hi))


def all_coords(b: BoundingBox):
    return product(*(range(l, h + 1) for l, h in zip(b.lo, b.hi)))


class TestGrid:
    def test_block_ids_row_major(self):
        geom = make_geometry("grid", box((0, 0), (7, 7)), GridParams((4, 4)))
        assert geom.group_count == 4
        assert groups_of((0, 0), geom) == (0,)
        assert groups_of((0, 4), geom) == (1,)
        assert groups_of((5, 2), geom) == (2,)
        assert groups_of((7, 7), geom) == (3,)

    @pytest.mark.parametrize("coord", [(1, 2, 3), (1,)])
    def test_coordinate_of_another_dimensionality_is_refused(self, coord):
        # zipping the corners would drop the extra axis, or the missing one,
        # and put the cell in block 0
        geom = make_geometry("grid", box((0, 0), (7, 7)), GridParams((4, 4)))
        n = len(coord)
        with pytest.raises(ValueError, match=f"box of {n} dimensions against a box of 2"):
            groups_of(coord, geom)
        with pytest.raises(ValueError, match=f"box of {n} dimensions against a box of 2"):
            geom.box.intersect(BoundingBox(coord, coord))
        with pytest.raises(ValueError, match=f"coordinate of {n} dimensions against a box of 2"):
            geom.box.contains(coord)
        assert geom.box.contains((7, 0)) and not geom.box.contains((8, 0))

    def test_benchmark_scale_group_count(self):
        geom = make_geometry(
            "grid", box((0, 0), (32767, 32767)), GridParams((512, 512))
        )
        assert geom.group_count == 4096

    def test_ragged_blocks(self):
        # 7x5 box with 3x2 blocks: 3x3 block grid, last blocks short
        geom = make_geometry("grid", box((0, 0), (6, 4)), GridParams((3, 2)))
        assert geom.group_count == 9
        assert group_extent(0, geom) == box((0, 0), (2, 1))
        assert group_extent(8, geom) == box((6, 4), (6, 4))

    def test_nonzero_origin(self):
        geom = make_geometry("grid", box((10, 20), (17, 27)), GridParams((4, 4)))
        assert groups_of((10, 20), geom) == (0,)
        assert groups_of((15, 26), geom) == (3,)

    def test_every_cell_in_exactly_one_block(self):
        geom = make_geometry("grid", box((1, 2), (9, 7)), GridParams((4, 3)))
        counts = [0] * geom.group_count
        for coord in all_coords(geom.box):
            gids = groups_of(coord, geom)
            assert len(gids) == 1
            counts[gids[0]] += 1
        assert sum(counts) == geom.box.cell_count
        # and the extent of each block contains exactly its cells
        for gid in range(geom.group_count):
            extent = group_extent(gid, geom)
            assert counts[gid] == extent.cell_count


class TestSliding:
    def test_group_count(self):
        geom = make_geometry(
            "sliding", box((0, 0), (7, 7)), SlidingParams((1, 1), (1, 1), 1)
        )
        assert geom.group_count == 64
        strided = make_geometry(
            "sliding", box((0, 0), (7, 7)), SlidingParams((1, 1), (1, 1), 3)
        )
        # centers at offsets 0, 3, 6 per dimension
        assert strided.group_count == 9

    def test_interior_cell_covered_by_nine_windows(self):
        geom = make_geometry(
            "sliding", box((0, 0), (7, 7)), SlidingParams((1, 1), (1, 1), 1)
        )
        assert len(groups_of((4, 4), geom)) == 9
        assert len(groups_of((0, 0), geom)) == 4  # corner
        assert len(groups_of((0, 4), geom)) == 6  # edge

    def test_asymmetric_window(self):
        # window extends 2 back, 0 forward on x: cell x covered by centers x..x+2
        geom = make_geometry(
            "sliding", box((0,), (9,)), SlidingParams((2,), (0,), 1)
        )
        assert groups_of((0,), geom) == (0, 1, 2)
        assert groups_of((9,), geom) == (9,)

    def test_membership_matches_extents_exhaustively(self):
        cases = [
            ((3, 0), (12, 6), (2, 1), (1, 2)),
            ((2,), (17,), (3,), (0,)),
            ((0, 1, 2), (5, 4, 7), (1, 0, 2), (2, 1, 0)),
        ]
        for (lo, hi, prec, foll), stride in product(cases, (1, 2, 3)):
            geom = make_geometry("sliding", box(lo, hi), SlidingParams(prec, foll, stride))
            extents = [group_extent(g, geom) for g in range(geom.group_count)]
            for coord in all_coords(geom.box):
                # ids come in ascending (row-major) order
                member = list(groups_of(coord, geom))
                covering = [g for g, e in enumerate(extents) if e.contains(coord)]
                assert member == covering, (coord, lo, stride)

    def test_extent_clipped_to_box(self):
        geom = make_geometry(
            "sliding", box((0, 0), (7, 7)), SlidingParams((1, 1), (1, 1), 1)
        )
        assert group_extent(0, geom) == box((0, 0), (1, 1))
        assert group_extent(63, geom) == box((6, 6), (7, 7))
        assert group_extent(9, geom) == box((0, 0), (2, 2))


class TestRings:
    def test_nested_square_rings(self):
        # 9x9 box, radius 1 step 1: rings with radii 1, 2, 3, 4
        geom = make_geometry("hierarchical", box((0, 0), (8, 8)), RingParams(1, 1, "nested"))
        assert geom.centroid == (4, 4)
        assert geom.group_count == 4
        assert groups_of((4, 4), geom) == (0, 1, 2, 3)
        assert groups_of((4, 6), geom) == (1, 2, 3)
        assert groups_of((0, 0), geom) == (3,)

    def test_disjoint_circular_rings(self):
        geom = make_geometry("circular", box((0, 0), (8, 8)), RingParams(1, 1, "disjoint"))
        assert geom.group_count == 4
        assert groups_of((4, 4), geom) == (0,)
        assert groups_of((4, 6), geom) == (1,)  # distance 2 hits ring radius 2 exactly
        assert groups_of((2, 2), geom) == (2,)  # distance 2*sqrt(2) in (2, 3]
        assert groups_of((0, 0), geom) == ()  # corner beyond the largest ring

    def test_corner_outside_last_ring(self):
        # skewed box: inscribed radius 4 comes from the short side, so radii
        # stop at 5 and the far corners (chebyshev 10) fall outside every ring
        geom = make_geometry("hierarchical", box((0, 0), (8, 20)), RingParams(1, 2, "nested"))
        assert geom.group_count == 3
        assert groups_of((0, 0), geom) == ()
        assert groups_of((4, 15), geom) == (2,)  # distance 5 = last radius

    def test_chebyshev_vs_euclidean_split(self):
        h = make_geometry("hierarchical", box((0, 0), (8, 8)), RingParams(1, 1, "nested"))
        c = make_geometry("circular", box((0, 0), (8, 8)), RingParams(1, 1, "nested"))
        # (2,2): chebyshev 2, euclidean 2.83
        assert groups_of((2, 2), h) == (1, 2, 3)
        assert groups_of((2, 2), c) == (2, 3)

    def test_radius_covering_whole_box(self):
        geom = make_geometry("circular", box((0, 0), (4, 4)), RingParams(9, 1, "disjoint"))
        assert geom.group_count == 1
        assert all(groups_of(c, geom) == (0,) for c in all_coords(geom.box))

    def test_ring_extent_text(self):
        geom = make_geometry("circular", box((0, 0), (8, 8)), RingParams(1, 1, "disjoint"))
        assert str(group_extent(0, geom)) == "(-1,1]"
        assert str(group_extent(2, geom)) == "(2,3]"
        nested = make_geometry("hierarchical", box((0, 0), (8, 8)), RingParams(1, 1, "nested"))
        assert str(group_extent(2, nested)) == "(-1,3]"

    def test_disjoint_buckets_match_float_math(self):
        geom = make_geometry("circular", box((0, 0), (20, 20)), RingParams(2, 3, "disjoint"))
        for coord in all_coords(geom.box):
            gids = groups_of(coord, geom)
            d = sqrt(sum((c - z) ** 2 for c, z in zip(coord, geom.centroid)))
            if d > 2 + 3 * (geom.group_count - 1) + 1e-9:
                assert gids == ()
            else:
                assert len(gids) == 1
                k = gids[0]
                extent = group_extent(k, geom)
                assert isinstance(extent, RingExtent)
                assert extent.inner < d <= extent.outer or (
                    k == 0 and d <= extent.outer
                )

    @pytest.mark.parametrize("r0,step", [(0, 1), (1, 1), (2, 3), (3, 2), (5, 4), (4, 7)])
    def test_circular_buckets_exact_integer(self, r0, step):
        # ring k holds (r0+(k-1)s)^2 < d2 <= (r0+ks)^2; boundaries are perfect
        # squares, reached by axis offsets and by Pythagorean triples
        geom = make_geometry("circular", box((0, 0), (40, 40)), RingParams(r0, step, "disjoint"))
        last = geom.group_count - 1
        for coord in all_coords(geom.box):
            d2 = sum((c - z) ** 2 for c, z in zip(coord, geom.centroid))
            gids = groups_of(coord, geom)
            if d2 > (r0 + last * step) ** 2:
                assert gids == (), coord
                continue
            (k,) = gids
            assert d2 <= (r0 + k * step) ** 2, coord
            assert k == 0 or (r0 + (k - 1) * step) ** 2 < d2, coord

    def test_circular_buckets_exact_at_large_radii(self):
        c = 2**31
        geom = make_geometry(
            "circular", box((0, 0), (2 * c, 2 * c)), RingParams(1, c - 1, "disjoint")
        )
        assert geom.group_count == 2
        # radius c is the boundary of ring 1; d2 = c^2 = 2^62 is still inside it
        assert groups_of((c, 0), geom) == (1,)
        assert groups_of((c, 2 * c), geom) == (1,)
        assert groups_of((c, c - 1), geom) == (0,)
        assert groups_of((c, c + 2), geom) == (1,)
        assert groups_of((1, 1), geom) == ()  # d2 = 2(c-1)^2 > c^2

    def test_odd_even_centroid(self):
        geom = make_geometry("hierarchical", box((0, 0), (9, 9)), RingParams(1, 1, "nested"))
        assert geom.centroid == (4, 4)  # even extent rounds down
        assert geom.group_count == 4  # inscribed radius min(4, 5) = 4

    def test_3d_rings(self):
        geom = make_geometry(
            "hierarchical", box((0, 0, 0), (6, 6, 6)), RingParams(1, 1, "nested")
        )
        assert geom.centroid == (3, 3, 3)
        assert geom.group_count == 3
        assert groups_of((3, 3, 3), geom) == (0, 1, 2)
        assert groups_of((0, 6, 0), geom) == (2,)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown geometry kind"):
            make_geometry("spiral", box((0,), (3,)), GridParams((2,)))

    def test_extent_gid_out_of_range(self):
        geom = make_geometry("grid", box((0,), (3,)), GridParams((2,)))
        with pytest.raises(ValueError, match="out of range"):
            group_extent(2, geom)
        with pytest.raises(ValueError, match="out of range"):
            group_extent(-1, geom)


@st.composite
def _geometry(draw):
    ndim = draw(st.integers(1, 3))
    lo = tuple(draw(st.integers(-5, 5)) for _ in range(ndim))
    shape = tuple(draw(st.integers(1, 12)) for _ in range(ndim))
    hi = tuple(l + s - 1 for l, s in zip(lo, shape))
    kind = draw(st.sampled_from(["grid", "sliding", "hierarchical", "circular"]))
    if kind == "grid":
        params = GridParams(tuple(draw(st.integers(1, 13)) for _ in range(ndim)))
    elif kind == "sliding":
        params = SlidingParams(
            tuple(draw(st.integers(0, 4)) for _ in range(ndim)),
            tuple(draw(st.integers(0, 4)) for _ in range(ndim)),
            draw(st.integers(1, 4)),
        )
    else:
        params = RingParams(
            draw(st.integers(0, 6)),
            draw(st.integers(1, 4)),
            draw(st.sampled_from(["nested", "disjoint"])),
        )
    return make_geometry(kind, box(lo, hi), params)


@settings(max_examples=120, deadline=None)
@given(_geometry())
def test_membership_is_consistent(geom):
    """Ids stay in range; grid partitions; disjoint rings never overlap; a
    cell outside the box is in no group."""
    member = build_membership(geom)
    lo, hi = geom.box.lo, geom.box.hi
    for coord in (tuple(l - 1 for l in lo), tuple(h + 1 for h in hi), (hi[0] + 1,) + lo[1:]):
        assert member(coord) == ()
    for coord in all_coords(geom.box):
        gids = member(coord)
        assert all(0 <= g < geom.group_count for g in gids)
        assert len(set(gids)) == len(gids)
        if geom.kind == "grid":
            assert len(gids) == 1
        elif geom.kind == "sliding" and geom.params.stride == 1:
            assert len(gids) >= 1  # stride 1 leaves no gaps
        elif geom.kind in ("hierarchical", "circular") and geom.params.mode == "disjoint":
            assert len(gids) <= 1


@settings(max_examples=120, deadline=None)
@given(_geometry())
def test_box_extents_match_membership(geom):
    """For box-extent kinds, coord is a member of gid exactly when the
    group's extent contains it; ring extents bound the member distances."""
    if geom.kind in ("grid", "sliding"):
        extents = [group_extent(g, geom) for g in range(geom.group_count)]
        for coord in all_coords(geom.box):
            member = set(groups_of(coord, geom))
            covering = {g for g, e in enumerate(extents) if e.contains(coord)}
            assert member == covering
    else:
        for coord in all_coords(geom.box):
            if geom.kind == "hierarchical":
                d = max(abs(c - z) for c, z in zip(coord, geom.centroid))
            else:
                d = sqrt(sum((c - z) ** 2 for c, z in zip(coord, geom.centroid)))
            for gid in groups_of(coord, geom):
                extent = group_extent(gid, geom)
                assert d <= extent.outer + 1e-9
                if geom.params.mode == "disjoint" and gid > 0:
                    assert d > extent.inner


def _assert_extent_texts(geom):
    texts = list(group_extent_texts(geom))
    assert texts == [str(group_extent(g, geom)) for g in range(geom.group_count)]


@settings(max_examples=120, deadline=None)
@given(_geometry())
def test_extent_texts_match_group_extent(geom):
    """The report's extent strings are group_extent's, id by id."""
    _assert_extent_texts(geom)


@pytest.mark.parametrize(
    "kind, b, params",
    [
        ("grid", box((3, -4), (12, 9)), GridParams((4, 5))),  # ragged, nonzero start
        ("grid", box((0, 0), (7, 7)), GridParams((2**64, 3))),  # one block across x
        ("sliding", box((-2, 5, 1), (9, 11, 4)), SlidingParams((2, 0, 1), (1, 3, 0), 3)),
        ("sliding", box((1, 0), (20, 6)), SlidingParams((0, 5), (4, 0), 2)),
        # a dimension past 2**63, whose bounds only Python ints hold
        ("grid", box((2**63 - 3, -1), (2**63 + 6, 3)), GridParams((3, 2))),
        ("sliding", box((2**64, 0), (2**64 + 9, 4)), SlidingParams((1, 0), (2, 1), 2)),
        ("hierarchical", box((0, 0), (9, 9)), RingParams(1, 2, "nested")),
        ("circular", box((-3, -3), (8, 6)), RingParams(0, 3, "disjoint")),
    ],
)
def test_extent_texts_cover_strides_offsets_and_huge_dimensions(kind, b, params):
    _assert_extent_texts(make_geometry(kind, b, params))
