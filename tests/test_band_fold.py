"""The optimized map's band kernel for tiling lattices against the
per-split pair fold.

The windows of a tiling lattice (a grid, or its tumbling window: 0
preceding and P - 1 following with stride P) cut a whole band (side-by-side
splits read as one array) into pieces that one ufunc.reduceat per dimension
folds. On 1-3-d arrays with nonzero starts and ragged chunks, boxes and
blocks that start and end mid-chunk, partitions larger than the box and
filters that empty some or all splits, its rows must be those of folding
each split's (cell, group) pairs: the same group ids, counts and order, the
same aggregates (exact for int64 sums, MIN, MAX and COUNT; float sums up to
their order), and no rows where a kept value would fail the fold or an
int64 sum could overflow. Lattices whose windows overlap or leave gaps have
no band kernel.
"""

import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqlmr import (
    ArraySchema,
    BoundingBox,
    DimSpec,
    EngineError,
    GridParams,
    SlidingParams,
    analyze,
    build_membership,
    compute_splits,
    default_registry,
    make_geometry,
    parse,
    plan,
    run_job,
)
from aqlmr import storage
from aqlmr.grouping import Membership
from aqlmr.storage import Band
from oracles import assert_close

KERNEL_AGGREGATES = ("sum", "count", "avg", "min", "max", "geomean")
NAMES = "xyz"


def bands_of(schema, box, values, keep, band_bytes=storage.BAND_BYTES):
    """The box's bands as the engine reads them, cut from ``values`` (the
    whole array) and ``keep`` (a mask over it, or None)."""
    origin = tuple(d.start for d in schema.dims)
    splits = compute_splits(schema, box)
    with mock.patch.object(storage, "BAND_BYTES", band_bytes):
        groups = list(storage._bands(splits))
    for group in groups:
        lo, hi = group[0].region.lo, group[-1].region.hi
        at = tuple(slice(l - o, h - o + 1) for l, h, o in zip(lo, hi, origin))
        yield Band(group, values[at].copy(), None if keep is None else keep[at].copy())


def pair_fold(membership, band, agg):
    """Each split's pair fold (Membership.fold, the default path), rows
    split after split, as (gids, aggregates, counts) lists; or the error."""
    gids, aggregates, counts = [], [], []
    for split, block, keep in band.blocks():
        try:
            out = Membership.fold(membership, split.region, block, keep, agg)
        except Exception as exc:
            return type(exc), str(exc)
        assert out.ext is None
        gids += out.gid.tolist()
        aggregates += out.aggregate.tolist()
        counts += out.count.tolist()
    return gids, aggregates, counts


@st.composite
def band_folds(draw):
    ndim = draw(st.integers(1, 3))
    side = 12 if ndim < 3 else 6
    dims = []
    for name in NAMES[:ndim]:
        start, extent = draw(st.integers(-6, 6)), draw(st.integers(1, side))
        dims.append(DimSpec(name, start, start + extent - 1, draw(st.integers(1, extent))))
    lo, hi = [], []
    for d in dims:
        a, b = sorted(draw(st.integers(d.start, d.end)) for _ in range(2))
        lo.append(a)
        hi.append(b)
    box = BoundingBox(tuple(lo), tuple(hi))
    # up to past the box's side, so one block can hold the whole box
    partitions = tuple(draw(st.integers(1, n + 2)) for n in box.shape)
    # a grid, or its tumbling window, whose one stride serves every dimension
    lattice = draw(st.sampled_from(["grid", "tumbling"]))
    if lattice == "tumbling":
        partitions = (partitions[0],) * ndim
    data = draw(st.sampled_from(["floats", "signed", "ints", "huge_ints"]))
    element_type = "float64" if data in ("floats", "signed") else "int64"
    return {
        "schema": ArraySchema("A", element_type, "val", tuple(dims)),
        "box": box,
        "partitions": partitions,
        "lattice": lattice,
        "agg": draw(st.sampled_from(KERNEL_AGGREGATES)),
        "data": data,
        # a where mask keeping this share of cells (0 empties every split)
        "density": draw(st.sampled_from([None, 0.0, 0.15, 0.6, 1.0])),
        # one NaN cell (floats), or a non-positive one (GEOMEAN)
        "bad": draw(st.integers(0, 5)) == 0,
        # bands of one split, of a few, and as the engine cuts them
        "band_bytes": draw(st.sampled_from([8, 64, 512, storage.BAND_BYTES])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def lattice_membership(case):
    """The membership of the case's grid, or of its tumbling window."""
    box, partitions = case["box"], case["partitions"]
    if case["lattice"] == "grid":
        return build_membership(make_geometry("grid", box, GridParams(partitions)))
    params = SlidingParams((0,) * box.ndim, tuple(p - 1 for p in partitions), partitions[0])
    return build_membership(make_geometry("sliding", box, params))


def band_values(case, rng) -> np.ndarray:
    shape, agg, data = case["schema"].extents, case["agg"], case["data"]
    if data == "floats":
        values = 1e15 + rng.random(shape) * 1e6
    elif data == "signed":
        values = rng.normal(0.0, 1.0, shape)
    elif data == "huge_ints":
        # on both sides of the guard: 2**62 * 2 cells overflows, one cell does not
        values = 2**62 + rng.integers(-1000, 1000, shape)
    else:
        values = rng.integers(1, 1000, shape, endpoint=True)
    if agg == "geomean":
        values = np.abs(values)
    elif case["seed"] % 2:
        values = -values
    if case["bad"]:
        if agg == "geomean":
            values.flat[rng.integers(values.size)] = 0
        elif values.dtype == np.float64:
            values.flat[rng.integers(values.size)] = np.nan
    return values


@settings(max_examples=400, deadline=None)
@given(case=band_folds())
@example(  # 2x2 blocks across 3x3 chunks of an offset box, NaN dropped or kept
    case={
        "schema": ArraySchema("A", "float64", "val", (DimSpec("x", -2, 6, 3), DimSpec("y", 1, 12, 3))),
        "box": BoundingBox((-1, 2), (5, 11)),
        "partitions": (2, 4),
        "lattice": "grid",
        "agg": "sum",
        "data": "floats",
        "density": 0.6,
        "bad": True,
        "band_bytes": storage.BAND_BYTES,
        "seed": 0,
    }
)
def test_band_fold_matches_pair_fold(case):
    rng = np.random.default_rng(case["seed"])
    schema, box = case["schema"], case["box"]
    values = band_values(case, rng)
    keep = None if case["density"] is None else rng.random(schema.extents) < case["density"]
    agg = default_registry().get(case["agg"])
    membership = lattice_membership(case)
    block_cells = math.prod(min(p, n) for p, n in zip(case["partitions"], box.shape))
    for band in bands_of(schema, box, values, keep, case["band_bytes"]):
        context = f"{case} band {[s.split_id for s in band.splits]}"
        got = membership.fold_band(band, agg)
        want = pair_fold(membership, band, agg)
        if got is None:  # only a bad kept value or an int64 sum past the guard
            past_guard = (
                values.dtype == np.int64
                and case["agg"] in ("sum", "avg")
                and int(np.abs(band.data).max()) * block_cells >= 2**63
            )
            assert isinstance(want[0], type) or past_guard, context
            continue
        assert not isinstance(want[0], type), context  # the pair fold would raise
        gids, aggregates, counts = want
        assert got.gid.tolist() == gids, context
        assert got.count.tolist() == counts, context
        assert got.ext is None
        if case["agg"] in ("count", "min", "max") or (
            values.dtype == np.int64 and case["agg"] != "geomean"
        ):
            assert got.aggregate.tolist() == aggregates, context
            assert [type(a) for a in got.aggregate.tolist()] == [type(a) for a in aggregates]
        else:
            for a, b in zip(got.aggregate.tolist(), aggregates):
                assert_close(a, b, context=context)


def test_band_fold_needs_a_tiling_lattice():
    """Windows that overlap (+-1, stride 1) or leave gaps (1-cell windows
    with stride 3) have no band kernel, and their optimized map folds split
    by split; the tumbling windows of stride 3 have one."""
    schema = ArraySchema("A", "float64", "val", (DimSpec("x", 0, 6, 4), DimSpec("y", 0, 4, 3)))
    box = schema.whole_box()
    values = np.random.default_rng(0).random(schema.extents)
    bands = list(bands_of(schema, box, values, None))
    assert [len(band.splits) for band in bands] == [2, 2]
    lattices = [
        (SlidingParams((1, 1), (1, 1)), False),
        (SlidingParams((0, 0), (0, 0), 3), False),
        (SlidingParams((0, 0), (2, 2), 3), True),
    ]
    for params, tiles in lattices:
        membership = build_membership(make_geometry("sliding", box, params))
        for name, band in product(KERNEL_AGGREGATES, bands):
            folded = membership.fold_band(band, default_registry().get(name))
            assert (folded is not None) == tiles, (params, name)


def test_dropped_nan_and_inf_reach_no_result():
    """A dropped NaN or inf cell gives what a dropped 0.0 gives, bit for bit."""
    schema = ArraySchema("A", "float64", "val", (DimSpec("x", 0, 5, 6), DimSpec("y", 0, 15, 4)))
    box = schema.whole_box()
    rng = np.random.default_rng(1)
    values = rng.normal(0.0, 1.0, schema.extents)
    keep = rng.random(schema.extents) < 0.5
    spoiled = values.copy()
    spoiled[~keep] = rng.choice([np.nan, np.inf, -np.inf], int(np.count_nonzero(~keep)))
    zeroed = np.where(keep, values, 0.0)
    membership = build_membership(make_geometry("grid", box, GridParams((3, 5))))
    for name in KERNEL_AGGREGATES:
        agg = default_registry().get(name)
        if name == "geomean":
            spoiled, zeroed = np.where(keep, np.abs(spoiled), spoiled), np.abs(zeroed)
        (a,) = bands_of(schema, box, spoiled, keep)
        (b,) = bands_of(schema, box, zeroed, keep)
        got, want = membership.fold_band(a, agg), membership.fold_band(b, agg)
        assert got.aggregate.tobytes() == want.aggregate.tobytes(), name
        assert got.count.tolist() == want.count.tolist(), name
        assert np.isfinite(got.aggregate).all(), name


def test_negative_zeros_sum_to_positive_zero(array_factory):
    """Kept cells that are all -0.0 sum to +0.0 in the band fold, as
    np.bincount gives in the pair fold; MIN and MAX keep the -0.0. Through
    run_job, in both modes, the sums and averages read 0.0."""
    built = array_factory(extents=(4, 8), chunks=(4, 4), fill="constant:-0.0")
    box = built.schema.whole_box()
    membership = build_membership(make_geometry("grid", box, GridParams((2, 3))))
    keep = built.values < 1
    for name, want in [("sum", "0.0"), ("avg", "0.0"), ("min", "-0.0"), ("max", "-0.0")]:
        agg = default_registry().get(name)
        (band,) = bands_of(built.schema, box, built.values, keep)
        got = membership.fold_band(band, agg)
        assert [repr(v) for v in got.aggregate.tolist()] == [want] * 8, name
        assert got.aggregate.tobytes() == np.array(pair_fold(membership, band, agg)[1]).tobytes()
        text = f"select {name}(val) from A where val < 1 grid as (partition by x 2, y 3)"
        for mode in ("naive", "optimized"):
            result = run_job(plan(analyze(parse(text), built.catalog), mode))
            assert [repr(v) for v in result.values] == [want] * 6, (name, mode)


def test_int64_sums_near_the_guard_fold_split_by_split(array_factory):
    """int64 values near 2**62 in 2x2 blocks could sum past 2**63, so the
    band kernel hands the band to the per-split fold, whose Python-int sums
    are exact: both modes give 2**64 - 4 per block, as ints."""
    built = array_factory(
        extents=(4, 8), chunks=(4, 4), element_type="int64", fill=f"constant:{2**62 - 1}"
    )
    box = built.schema.whole_box()
    membership = build_membership(make_geometry("grid", box, GridParams((2, 2))))
    sum_ = default_registry().get("sum")
    (band,) = bands_of(built.schema, box, built.values, None)
    assert membership.fold_band(band, sum_) is None
    # one cell a block: the kernel folds, exactly, in int64
    single = build_membership(make_geometry("grid", box, GridParams((1, 1))))
    assert single.fold_band(band, sum_).aggregate.tolist() == [2**62 - 1] * 32
    text = "select sum(val) from A grid as (partition by x 2, y 2)"
    for mode in ("naive", "optimized"):
        result = run_job(plan(analyze(parse(text), built.catalog), mode))
        assert result.values == [2**64 - 4] * 8 and type(result.values[0]) is int, mode


def test_kept_nan_names_its_split(array_factory):
    """A kept NaN in the third split of a band fails the optimized map with
    that split's name, as the per-split fold names it."""
    values = np.ones((4, 16))
    values[1, 9] = np.nan  # split 2 of 0..3, all in one band
    built = array_factory(extents=(4, 16), chunks=(4, 4), values=values)
    splits = compute_splits(built.schema, built.schema.whole_box(), built.data_path)
    assert [len(band) for band in storage._bands(splits)] == [4]
    text = "select sum(val) from A grid as (partition by x 2, y 2)"
    for mode in ("naive", "optimized"):
        expected = (
            r"^map task \(split 2\): NaN value in input$"
            if mode == "optimized"
            else r"^reduce \(group 4\): NaN value in input$"
        )
        with pytest.raises(EngineError, match=expected):
            run_job(plan(analyze(parse(text), built.catalog), mode))
