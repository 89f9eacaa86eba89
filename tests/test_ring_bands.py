"""Ring memberships look each cell's own ring up once per band.

A ring membership over a band's box (Membership.over) builds one own-ring
table for the whole box (grouping._own_rings), and each split of the band
reads its own columns of it; a region mapped alone is a band of its own.
Every split still gets its own map output, so whatever the band size
(storage.BAND_BYTES of 8, one split per band, of 64, and the default),
run_job must give the same results, by ``repr`` and type, and the same
counters: both ring kinds in nested and disjoint mode, naive and optimized,
on 1-3-d arrays with nonzero starts and ragged chunks, with a ``where``
that empties some splits. Cut into side-by-side regions, a band's table
gives each region the cells, own rings and pairs it gives on its own, also
where squared distances pass 2**63 and the table is built from Python ints.
"""

from dataclasses import replace
from itertools import pairwise
from math import prod
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqlmr import (
    ArraySchema,
    BoundingBox,
    Catalog,
    DimSpec,
    RingParams,
    analyze,
    build_membership,
    compute_splits,
    grouping,
    make_geometry,
    parse,
    plan,
    run_job,
    save_schema,
    storage,
    write_array,
)

AGGREGATES = ("sum", "count", "avg", "min", "max", "stddev", "geomean", "median")
BAND_SIZES = (8, 64, storage.BAND_BYTES)
NAMES = "xyz"


@st.composite
def ring_jobs(draw):
    ndim = draw(st.integers(1, 3))
    side = 12 if ndim < 3 else 6
    dims = []
    for name in NAMES[:ndim]:
        start, extent = draw(st.integers(-6, 6)), draw(st.integers(1, side))
        # a chunk that need not divide the extent: the last one is ragged
        dims.append(DimSpec(name, start, start + extent - 1, draw(st.integers(1, extent))))
    lo, hi = [], []
    for d in dims:
        a, b = sorted(draw(st.integers(d.start, d.end)) for _ in range(2))
        lo.append(a)
        hi.append(b)
    agg = draw(st.sampled_from(AGGREGATES))
    return {
        "dims": tuple(dims),
        "box": BoundingBox(tuple(lo), tuple(hi)),
        "kind": draw(st.sampled_from(["hierarchical", "circular"])),
        "ring_mode": draw(st.sampled_from(["nested", "disjoint"])),
        "radius0": draw(st.integers(0, 4)),
        "step": draw(st.integers(1, 3)),
        "agg": agg,
        "mode": "naive" if agg == "median" else draw(st.sampled_from(["naive", "optimized"])),
        # int64 ramps, some near 2**62 (sums past int64), or float ramps
        # with noise, some holding only signed zeros
        "data": draw(st.sampled_from(["ints", "huge_ints", "floats", "zeros"])),
        # a where that keeps the cells before a row-major point, which
        # empties every split past it
        "cut": draw(st.one_of(st.none(), st.floats(0.0, 1.0))),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def ring_values(case, shape) -> np.ndarray:
    rng = np.random.default_rng(case["seed"])
    ramp = np.arange(prod(shape)).reshape(shape)
    if case["data"] == "ints":
        return ramp + 1
    if case["data"] == "huge_ints":
        return ramp + 2**62
    if case["data"] == "zeros":
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    return ramp + 1.0 + rng.random(shape) * 0.5


def ring_job(case, directory):
    schema = ArraySchema(
        "A", "int64" if "ints" in case["data"] else "float64", "val", case["dims"]
    )
    values = ring_values(case, schema.extents)
    write_array(schema, values, directory / "A.bin")
    save_schema(schema, directory / "A.meta.json")
    box = case["box"]
    where = ""
    if case["cut"] is not None:
        # the ramp rises row-major, so the later cells of the box fall away
        origin = [d.start for d in schema.dims]
        at = tuple(slice(l - o, h - o + 1) for l, h, o in zip(box.lo, box.hi, origin))
        flat = values[at].ravel()
        where = f" where val < {flat[int(case['cut'] * (len(flat) - 1))].item()!r}"
    corners = ", ".join(map(str, box.lo + box.hi))
    text = (
        f"select {case['agg']}(val) from between (A, {corners}){where} "
        f"{case['kind']} as (radius {case['radius0']} step {case['step']})"
    )
    job = plan(analyze(parse(text), Catalog.load_dir(directory)), case["mode"])
    # the query's kind fixes its ring mode; the geometry takes either
    params = RingParams(case["radius0"], case["step"], case["ring_mode"])
    return replace(job, query=replace(job.query, geometry=params))


def outcome(job):
    """The job's results by repr and type and its counters, or its error."""
    try:
        result = run_job(job)
    except Exception as exc:
        return type(exc), str(exc)
    return [(repr(v), type(v)) for v in result.values], result.counters.snapshot()


@settings(max_examples=200, deadline=None)
@given(case=ring_jobs())
@example(  # rings around (1, 4) crossing 3x5 chunks of an offset box, half kept
    case={
        "dims": (DimSpec("x", -3, 8, 3), DimSpec("y", 2, 12, 5)),
        "box": BoundingBox((-2, 2), (4, 7)),
        "kind": "hierarchical",
        "ring_mode": "nested",
        "radius0": 1,
        "step": 2,
        "agg": "median",
        "mode": "naive",
        "data": "floats",
        "cut": 0.5,
        "seed": 0,
    }
)
def test_ring_jobs_agree_across_band_sizes(tmp_path_factory, case):
    job = ring_job(case, tmp_path_factory.mktemp("rings"))
    splits = compute_splits(job.query.array, job.splits.box, job.splits.data_path)
    outcomes = []
    for band_bytes in BAND_SIZES:
        with (
            mock.patch.object(storage, "BAND_BYTES", band_bytes),
            mock.patch.object(grouping, "_own_rings", wraps=grouping._own_rings) as tables,
        ):
            outcomes.append(outcome(job))
            bands = len(list(storage._bands(splits)))
        if not isinstance(outcomes[-1][0], type):  # a job that ran maps every band
            assert tables.call_count == bands, (case, band_bytes)
    assert outcomes[0] == outcomes[1] == outcomes[2], case


def huge_rings(kind, mode):
    """Rings of radius 1 step 2**30 + 1 around (2**32 - 1, 2**32 - 1): in
    HUGE_BAND, ring 3 ends 3*2**30 + 4 out, and squared distances pass
    2**63 for both ring kinds."""
    box = BoundingBox((0, 0), (2**33 - 1, 2**33 - 1))
    return make_geometry(kind, box, RingParams(1, 2**30 + 1, mode))


HUGE_BAND = BoundingBox((2**30 - 8, 2**32 - 9), (2**30 - 2, 2**32 + 6))


@st.composite
def ring_bands(draw):
    """A ring geometry, a band box inside it, how many side-by-side regions
    (along the last dimension) to cut the band into, and a mask over the
    band or None."""
    ndim = draw(st.integers(1, 3))
    lo = tuple(draw(st.integers(-5, 5)) for _ in range(ndim))
    hi = tuple(l + draw(st.integers(0, 11)) for l in lo)
    mode = draw(st.sampled_from(["nested", "disjoint"]))
    params = RingParams(draw(st.integers(0, 4)), draw(st.integers(1, 3)), mode)
    kind = draw(st.sampled_from(["hierarchical", "circular"]))
    geom = make_geometry(kind, BoundingBox(lo, hi), params)
    blo = tuple(draw(st.integers(l, h)) for l, h in zip(lo, hi))
    bhi = tuple(draw(st.integers(a, h)) for a, h in zip(blo, hi))
    keep = None
    if draw(st.booleans()):
        shape = tuple(b - a + 1 for a, b in zip(blo, bhi))
        keep = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape) < 0.6
    return geom, BoundingBox(blo, bhi), draw(st.integers(1, 4)), keep


def huge_case(kind, mode):
    band = HUGE_BAND
    keep = np.arange(band.cell_count).reshape(band.shape) % 3 > 0
    return huge_rings(kind, mode), band, 3, keep


@settings(max_examples=300, deadline=None)
@given(case=ring_bands())
@example(case=huge_case("hierarchical", "nested"))
@example(case=huge_case("circular", "nested"))
@example(case=huge_case("hierarchical", "disjoint"))
@example(case=huge_case("circular", "disjoint"))
def test_band_table_gives_each_region_its_own_members(case):
    geom, band, cuts, keep = case
    membership = build_membership(geom)
    over = membership.over(band)
    # the band's last dimension cut into up to ``cuts`` side-by-side regions
    a, b = band.lo[-1], band.hi[-1]
    edges = sorted({a, *np.linspace(a, b + 1, cuts + 1, dtype=np.int64)[1:-1].tolist(), b + 1})
    for start, stop in pairwise(edges):
        region = BoundingBox(band.lo[:-1] + (start,), band.hi[:-1] + (stop - 1,))
        at = (..., slice(start - a, stop - a))
        part = None if keep is None else keep[at].copy()
        context = (geom, band, region)
        want_cells, want_gids = membership.block(region, part)
        got_cells, got_gids = over.block(region, part)
        assert got_cells.dtype == got_gids.dtype == np.int64, context
        assert got_cells.tolist() == want_cells.tolist(), context
        assert got_gids.tolist() == want_gids.tolist(), context
        if geom.params.mode == "nested":
            block = np.arange(region.cell_count).reshape(region.shape)
            want = membership.pairs(region, block, part)
            got = over.pairs(region, block, part)
            assert got[1] == want[1], context
            for g, w in ((got[0], want[0]), (got[2], want[2])):
                assert g.dtype == w.dtype and g.tolist() == w.tolist(), context


def test_huge_band_takes_the_python_int_table():
    """HUGE_BAND's farthest squared distance passes 2**63 for both ring
    kinds, so its table is looked up among Python ints; each cell's own
    ring matches the exact integer rule."""
    for kind in ("hierarchical", "circular"):
        geom = huge_rings(kind, "nested")
        corners = zip(HUGE_BAND.lo, HUGE_BAND.hi, geom.centroid)
        offsets = [max(abs(l - z), abs(h - z)) for l, h, z in corners]
        farthest = max(offsets) ** 2 if kind == "hierarchical" else sum(d * d for d in offsets)
        assert farthest >= 2**63
        own = grouping._own_rings(geom, HUGE_BAND)
        assert own.dtype == np.int64 and own.shape == HUGE_BAND.shape
        params = geom.params
        for i, j in [(0, 0), (3, 7), (6, 15), (2, 9)]:
            d = [HUGE_BAND.lo[0] + i - geom.centroid[0], HUGE_BAND.lo[1] + j - geom.centroid[1]]
            d2 = max(x * x for x in d) if kind == "hierarchical" else sum(x * x for x in d)
            radii = ((params.radius0 + k * params.step) ** 2 for k in range(geom.group_count))
            k = next((k for k, r2 in enumerate(radii) if d2 <= r2), geom.group_count)
            assert own[i, j] == k, (kind, i, j)
