"""Properties that gate the array-at-a-time engine.

run_job is compared with the numpy oracle on random arrays of 1-3
dimensions with nonzero starts and ragged chunks, for every shape, every
built-in aggregate and both mappers, at hostile magnitudes: float64 values
at 1e15 plus noise, and int64 values near +-2**62, whose sums overflow
int64. Filters that empty some or all splits and single-cell boxes come up
on their own. Block membership is checked against each shape's
definition: group extents for grids and windows, exact integer distances
for rings; its group-major pairs against a stable group sort of it. A grid is checked against its tumbling window, from geometry to
run_job. The optimized sliding map's window kernels are checked against
the pair fold they replace, on every split of ragged chunkings.
"""

import math
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aqlmr
from aqlmr import (
    Aggregator,
    AggregateError,
    AggregatorRegistry,
    ArraySchema,
    BoundingBox,
    Catalog,
    DimSpec,
    GridParams,
    PlanDowngradeWarning,
    RingParams,
    SlidingParams,
    analyze,
    build_membership,
    default_registry,
    group_extent,
    groups_of,
    make_geometry,
    parse,
    plan,
    run_job,
    save_schema,
    write_array,
)
from aqlmr.grouping import Membership
from conftest import build_array
from oracles import aggregate_direct, assert_close, group_value_lists, naive_emission_count
from test_readme import readme_blocks

AGGREGATES = ("sum", "count", "avg", "min", "max", "stddev", "geomean", "median")
NAMES = "xyz"


def shape_params(draw, kind, ndim):
    if kind == "grid":
        return GridParams(tuple(draw(st.integers(1, 5)) for _ in range(ndim)))
    if kind == "sliding":
        return SlidingParams(
            tuple(draw(st.integers(0, 2)) for _ in range(ndim)),
            tuple(draw(st.integers(0, 2)) for _ in range(ndim)),
            draw(st.integers(1, 3)),
        )
    mode = "nested" if kind == "hierarchical" else "disjoint"
    return RingParams(draw(st.integers(0, 3)), draw(st.integers(1, 3)), mode)


def shape_clause(kind, params) -> str:
    if kind == "grid":
        sizes = ", ".join(f"{d} {p}" for d, p in zip(NAMES, params.partitions))
        return f"grid as (partition by {sizes})"
    if kind == "sliding":
        dims = ", ".join(
            f"{d} {p} preceding and {f} following"
            for d, p, f in zip(NAMES, params.preceding, params.following)
        )
        return f"fixed window as (partition by {dims} stride {params.stride})"
    return f"{kind} as (radius {params.radius0} step {params.step})"


@st.composite
def jobs(draw):
    ndim = draw(st.integers(1, 3))
    side = 9 if ndim < 3 else 5
    starts = [draw(st.integers(-6, 6)) for _ in range(ndim)]
    extents = [draw(st.integers(1, side)) for _ in range(ndim)]
    chunks = [draw(st.integers(1, e)) for e in extents]
    lo = [draw(st.integers(0, e - 1)) for e in extents]
    hi = [draw(st.integers(l, e - 1)) for l, e in zip(lo, extents)]
    kind = draw(st.sampled_from(["grid", "sliding", "hierarchical", "circular"]))
    agg = draw(st.sampled_from(AGGREGATES))
    return {
        "starts": starts,
        "extents": extents,
        "chunks": chunks,
        "lo": lo,
        "hi": hi,
        "kind": kind,
        "params": shape_params(draw, kind, ndim),
        "agg": agg,
        "mode": "naive" if agg == "median" else draw(st.sampled_from(["naive", "optimized"])),
        "ints": draw(st.booleans()),
        "negative": agg != "geomean" and draw(st.booleans()),
        "noise": draw(st.sampled_from([1.0, 1e3, 1e6])),
        "where": draw(st.sampled_from([None, "some", "none"])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def make_values(case) -> np.ndarray:
    rng = np.random.default_rng(case["seed"])
    shape = case["extents"]
    if case["ints"]:
        sign = -1 if case["negative"] else 1
        # on both sides of 2**62: two values can trip the int64 overflow guard, one cannot
        return sign * (2**62 + rng.integers(-1000, 1000, shape))
    return 1e15 + rng.random(shape) * case["noise"]


def assert_stddev_close(got, want, group: np.ndarray, context):
    """Every stddev algorithm rounds its means to float64 near max|v|, which
    moves the variance by about (spread + ulp) * ulp; beyond that, 1e-9."""
    vals = group.astype(np.float64)
    ulp = math.ulp(float(np.abs(vals).max()))
    spread = float(vals.max() - vals.min())
    tol = 1e-9 * want * want + 16 * (spread + ulp) * ulp
    assert abs(got * got - want * want) <= tol, f"{context}: engine {got!r}, oracle {want!r}"


@settings(max_examples=300, deadline=None)
@given(case=jobs())
def test_run_job_matches_oracle(tmp_path_factory, case):
    values = make_values(case)
    dims = tuple(
        DimSpec(n, s, s + e - 1, c)
        for n, s, e, c in zip(NAMES, case["starts"], case["extents"], case["chunks"])
    )
    schema = ArraySchema("A", "int64" if case["ints"] else "float64", "val", dims)
    directory = tmp_path_factory.mktemp("vector")
    write_array(schema, values, directory / "A.bin")
    save_schema(schema, directory / "A.meta.json")

    starts, lo, hi = case["starts"], case["lo"], case["hi"]
    corners = [l + s for l, s in zip(lo, starts)] + [h + s for h, s in zip(hi, starts)]
    where, conjuncts = "", None
    if case["where"] is not None:
        flat = values.ravel()
        pick = flat.max() if case["where"] == "none" else flat[case["seed"] % flat.size]
        constant = int(pick) if case["ints"] else float(pick)
        where, conjuncts = f" where val > {constant!r}", [(">", constant)]
    text = (
        f"select {case['agg']}(val) from between (A, {', '.join(map(str, corners))})"
        f"{where} {shape_clause(case['kind'], case['params'])}"
    )
    result = run_job(plan(analyze(parse(text), Catalog.load_dir(directory)), case["mode"]))

    params = case["params"]
    groups = group_value_lists(
        values, lo, hi, case["kind"],
        partitions=getattr(params, "partitions", None),
        preceding=getattr(params, "preceding", None),
        following=getattr(params, "following", None),
        stride=getattr(params, "stride", 1),
        radius0=getattr(params, "radius0", 0),
        step=getattr(params, "step", 1),
        predicate=conjuncts,
    )
    assert len(result.values) == len(groups), text
    for gid, (got, group) in enumerate(zip(result.values, groups)):
        context = f"{text} ({case['mode']}) group {gid}"
        if group.size == 0:
            assert got is None, context
            continue
        want = aggregate_direct(case["agg"], group)
        if case["agg"] == "stddev":
            assert_stddev_close(got, want, group, context)
        elif case["ints"] and case["agg"] in ("sum", "count", "min", "max", "avg"):
            # exact: Python ints, and AVG the exact sum over the count, rounded once
            assert type(got) is type(want) and got == want, f"{context}: {got!r} != {want!r}"
        else:
            assert_close(got, want, context=context)

    c = result.counters
    box = values[tuple(slice(l, h + 1) for l, h in zip(lo, hi))]
    kept = box.size if conjuncts is None else int((box > conjuncts[0][1]).sum())
    assert c.bytes_read == box.size * 8
    assert c.map_input_records == kept
    assert c.reduce_input_records == c.map_output_records
    assert c.shuffle_groups == sum(1 for g in groups if g.size)
    if case["mode"] == "naive":
        assert c.map_output_records == naive_emission_count(groups)


@st.composite
def regions(draw, nested_rings=False):
    ndim = draw(st.integers(1, 3))
    rings = ["hierarchical", "circular"]
    kind = draw(st.sampled_from(rings if nested_rings else ["grid", "sliding", *rings]))
    lo = tuple(draw(st.integers(-5, 5)) for _ in range(ndim))
    huge = kind in rings and draw(st.integers(0, 4)) == 0
    # a huge ring box's cells lie 2**26 +- 1, 2**31 or 2**32 from the
    # centroid at most, per dimension: squared distances on both sides of
    # 2**52 and of 2**63, where the squares leave int64 for Python ints;
    # its step keeps the ring count small
    side = draw(st.sampled_from([2**27 - 1, 2**27 + 3, 2**32, 2**33])) if huge else None
    shape = tuple(side or draw(st.integers(1, 12)) for _ in range(ndim))
    hi = tuple(l + s - 1 for l, s in zip(lo, shape))
    params = shape_params(draw, kind, ndim)
    if isinstance(params, RingParams):
        step = side // 8 + params.step if huge else params.step
        modes = ["nested"] if nested_rings else ["nested", "disjoint"]
        params = RingParams(params.radius0, step, draw(st.sampled_from(modes)))
    geom = make_geometry(kind, BoundingBox(lo, hi), params)
    rlo = tuple(draw(st.integers(l, h)) for l, h in zip(lo, hi))
    rhi = tuple(draw(st.integers(a, min(h, a + 6))) for a, h in zip(rlo, hi))
    region = BoundingBox(rlo, rhi)
    keep = None
    if draw(st.booleans()):
        bits = draw(st.lists(st.booleans(), min_size=region.cell_count, max_size=region.cell_count))
        keep = np.array(bits, dtype=bool).reshape(region.shape)
    return geom, region, keep


def reference_pairs(geom, region, keep):
    """(cell, gid) pairs from the definitions: a grid or sliding group holds
    the cells its extent contains; a ring holds the cells whose exact integer
    distance (Chebyshev, or the ceiling of the Euclidean one) it reaches."""
    coords = list(product(*(range(l, h + 1) for l, h in zip(region.lo, region.hi))))
    pairs = []
    if geom.kind in ("grid", "sliding"):
        for g in range(geom.group_count):
            extent = group_extent(g, geom)
            pairs += [(i, g) for i, c in enumerate(coords) if extent.contains(c)]
    else:
        r0, step, last = geom.params.radius0, geom.params.step, geom.group_count - 1
        for i, c in enumerate(coords):
            offsets = [x - z for x, z in zip(c, geom.centroid)]
            if geom.kind == "hierarchical":
                d = max(abs(x) for x in offsets)
            else:
                d2 = sum(x * x for x in offsets)
                d = math.isqrt(d2)
                d += d * d < d2
            k = 0 if d <= r0 else (d - r0 + step - 1) // step  # the first ring reaching d
            if k <= last:
                stop = last + 1 if geom.params.mode == "nested" else k + 1
                pairs += [(i, g) for g in range(k, stop)]
    return [(i, g) for i, g in pairs if keep is None or keep.flat[i]]


# 1-cell windows on every third cell of a 7x5 box: the row strip x = 1
# falls wholly between windows, and the strip x = 0 holds the gap cells
# y = 1, 2 and 4 beside two windows
GAPS = make_geometry("sliding", BoundingBox((0, 0), (6, 4)), SlidingParams((0, 0), (0, 0), 3))


def huge_rings(kind, mode):
    """Rings of radius 1 step 2**30 + 1 around (2**32 - 1, 2**32 - 1); ring 3
    ends 3*2**30 + 4 out, at x = 2**30 - 5 in STRADDLE, whose squared
    distances pass 2**63 for both ring kinds."""
    box = BoundingBox((0, 0), (2**33 - 1, 2**33 - 1))
    return make_geometry(kind, box, RingParams(1, 2**30 + 1, mode))


STRADDLE = BoundingBox((2**30 - 8, 2**32 - 4), (2**30 - 2, 2**32 + 2))


@settings(max_examples=300, deadline=None)
@given(regions())
@example((huge_rings("hierarchical", "disjoint"), STRADDLE, None))
@example((huge_rings("circular", "disjoint"), STRADDLE, np.arange(49).reshape(7, 7) % 4 > 0))
@example((GAPS, BoundingBox((1, 0), (1, 4)), None))
@example((GAPS, BoundingBox((0, 0), (0, 4)), None))
@example((GAPS, BoundingBox((0, 0), (0, 4)), np.array([[True, True, False, False, True]])))
def test_block_membership_matches_reference(case):
    geom, region, keep = case
    cells, gids = build_membership(geom).block(region, keep)
    assert cells.dtype == gids.dtype == np.int64
    got = list(zip(cells.tolist(), gids.tolist()))
    assert sorted(got) == sorted(reference_pairs(geom, region, keep))
    # within a group, cells come in row-major order (the fold order), and
    # each cell's first pair follows the first pair of every earlier cell
    for g in set(gids.tolist()):
        members = cells[gids == g]
        assert np.all(np.diff(members) > 0)
    firsts = list(dict.fromkeys(cells.tolist()))
    assert firsts == sorted(firsts)


# nested rings around (15, 15) with radius 1 step 2: the region's cells lie
# 5 to 12 cells out, in own rings 2 to 6 of 8
OFF_CENTRE = make_geometry(
    "hierarchical", BoundingBox((0, 0), (31, 31)), RingParams(1, 2, "nested")
)


@settings(max_examples=300, deadline=None)
@given(regions(nested_rings=True))
@example((OFF_CENTRE, BoundingBox((20, 3), (27, 10)), None))
@example((OFF_CENTRE, BoundingBox((20, 3), (27, 10)), np.arange(64).reshape(8, 8) % 3 > 0))
@example((huge_rings("hierarchical", "nested"), STRADDLE, None))
@example((huge_rings("circular", "nested"), STRADDLE, None))
def test_pairs_are_block_pairs_in_stable_group_order(case):
    geom, region, keep = case
    membership = build_membership(geom)
    # a block whose values are the cells' row-major offsets
    offsets = np.arange(region.cell_count).reshape(region.shape)
    cells, first, lengths = membership.pairs(region, offsets, keep)
    assert cells.dtype == lengths.dtype == np.int64
    assert lengths.sum() == len(cells) and np.all(lengths > 0)
    gids = np.repeat(np.arange(first, first + len(lengths)), lengths)
    block_cells, block_gids = membership.block(region, keep)
    order = np.argsort(block_gids, kind="stable")
    assert cells.tolist() == block_cells[order].tolist()
    assert gids.tolist() == block_gids[order].tolist()


@pytest.mark.parametrize(
    "kind, params, group_major",
    [
        ("grid", GridParams((2, 2)), False),
        ("sliding", SlidingParams((1, 1), (1, 1), 1), False),
        ("hierarchical", RingParams(1, 2, "disjoint"), False),
        ("circular", RingParams(1, 2, "disjoint"), False),
        ("hierarchical", RingParams(1, 2, "nested"), True),
        ("circular", RingParams(1, 2, "nested"), True),
    ],
)
def test_only_nested_rings_give_group_major_pairs(kind, params, group_major):
    # the naive map emits pairs only where a membership builds them without
    # a sort; the shuffle sorts the others' values once
    geom = make_geometry(kind, BoundingBox((0, 0), (7, 7)), params)
    assert (build_membership(geom).pairs is not None) == group_major


@st.composite
def tumbling(draw):
    """An array of 1-3 dimensions with nonzero starts and ragged chunks, a
    box in it and one partition size for every dimension, up to past 2**63."""
    ndim = draw(st.integers(1, 3))
    side = 9 if ndim < 3 else 5
    dims = []
    for name in NAMES[:ndim]:
        start, extent = draw(st.integers(-6, 6)), draw(st.integers(1, side))
        dims.append(DimSpec(name, start, start + extent - 1, draw(st.integers(1, extent))))
    lo, hi = [], []
    for d in dims:
        a, b = sorted(draw(st.integers(d.start, d.end)) for _ in range(2))
        lo.append(a)
        hi.append(b)
    size = draw(st.integers(1, 6) | st.integers(2**63, 2**64))
    where = draw(st.sampled_from(["", " where val > 500.0"]))
    schema = ArraySchema("A", "float64", "val", tuple(dims))
    return schema, BoundingBox(tuple(lo), tuple(hi)), size, where


@settings(max_examples=60, deadline=None)
@given(case=tumbling(), seed=st.integers(0, 2**32 - 1))
@example(
    case=(
        ArraySchema("A", "float64", "val", (DimSpec("x", -3, 4, 3), DimSpec("y", 2, 8, 4))),
        BoundingBox((-2, 3), (4, 8)),
        2**63 + 1,
        "",
    ),
    seed=0,
)
def test_grid_is_its_tumbling_window(tmp_path_factory, case, seed):
    """A grid block of side P is the window 0 preceding and P - 1 following
    with stride P: the same groups, extents and memberships, and through
    run_job in both modes the same counters and the same results, bit for
    bit and of the same type."""
    schema, box, size, where = case
    ndim = box.ndim
    grid = make_geometry("grid", box, GridParams((size,) * ndim))
    window = make_geometry("sliding", box, SlidingParams((0,) * ndim, (size - 1,) * ndim, size))
    assert grid.group_count == window.group_count
    assert all(
        group_extent(g, grid) == group_extent(g, window) for g in range(grid.group_count)
    )
    cells = list(product(*(range(l, h + 1) for l, h in zip(box.lo, box.hi))))
    assert [groups_of(c, grid) for c in cells] == [groups_of(c, window) for c in cells]

    directory = tmp_path_factory.mktemp("tumbling")
    values = 1.0 + np.random.default_rng(seed).random(schema.extents) * 1e3
    write_array(schema, values, directory / "A.bin")
    save_schema(schema, directory / "A.meta.json")
    catalog = Catalog.load_dir(directory)
    source = f"between (A, {', '.join(map(str, box.lo + box.hi))})"
    grid_shape = shape_clause("grid", grid.params)
    window_shape = shape_clause("sliding", window.params)
    for agg in ("sum", "count", "avg", "min", "max", "stddev", "geomean"):
        for mode in ("naive", "optimized"):
            text = f"select {agg}(val) from {source}{where} "
            a = run_job(plan(analyze(parse(text + grid_shape), catalog), mode))
            b = run_job(plan(analyze(parse(text + window_shape), catalog), mode))
            context = f"{text}{grid_shape} ({mode})"
            assert a.counters == b.counters, context
            assert len(a.values) == len(b.values) == grid.group_count, context
            assert [(repr(x), type(x)) for x in a.values] == [
                (repr(y), type(y)) for y in b.values
            ], context


class Distinct(Aggregator):
    """A holistic custom aggregator: the number of distinct values."""

    name = "distinct"
    algebraic = False

    def holistic_result(self, values):
        return len(set(values)) if values else None


CUSTOM_SHAPES = [
    ("grid as (partition by x 4, y 3)", {"kind": "grid", "partitions": (4, 3)}),
    (
        "fixed window as (partition by x 1 preceding and 1 following,"
        " y 0 preceding and 2 following)",
        {"kind": "sliding", "preceding": (1, 0), "following": (1, 2)},
    ),
    ("hierarchical as (radius 0 step 2)", {"kind": "hierarchical", "radius0": 0, "step": 2}),
    ("circular as (radius 1 step 1)", {"kind": "circular", "radius0": 1, "step": 1}),
]


@pytest.mark.parametrize("element_type", ["float64", "int64"])
@pytest.mark.parametrize("mode", ["naive", "optimized"])
def test_custom_aggregators_use_their_scalar_hooks(tmp_path, monkeypatch, mode, element_type):
    """The README's ValueRange and a holistic aggregator, which define only
    the scalar hooks, give what folding each group with those hooks gives,
    in the same types."""
    registry = AggregatorRegistry()
    monkeypatch.setattr(aqlmr, "register_aggregator", registry.register)
    exec(readme_blocks("Custom aggregators", "python")[0], {})
    value_range = registry.get("vrange")
    distinct = registry.register(Distinct())
    built = build_array(
        tmp_path, extents=(9, 7), chunks=(4, 3), element_type=element_type, fill="uniform", seed=3
    )
    threshold = 0.2 if element_type == "float64" else 200
    for agg, (shape, kwargs) in product([value_range, distinct], CUSTOM_SHAPES):
        text = f"select {agg.name}(val) from A where val > {threshold} {shape}"
        query = analyze(parse(text), built.catalog, registry)
        if mode == "optimized" and not agg.algebraic:
            with pytest.warns(PlanDowngradeWarning):
                job = plan(query, mode)
        else:
            job = plan(query, mode)
        result = run_job(job)
        groups = group_value_lists(
            built.values, (0, 0), (8, 6), predicate=[(">", threshold)], **kwargs
        )
        assert len(result.values) == len(groups)
        for gid, (got, group) in enumerate(zip(result.values, groups)):
            values = group.tolist()
            if not values:
                assert got is None
                continue
            if agg.algebraic:
                summary = agg.identity()
                for value in values:
                    agg.update_in_map(summary, value)
                want = agg.get_agg_result(summary)
            else:
                want = agg.holistic_result(values)
            assert got == want and type(got) is type(want), f"{text} ({mode}) group {gid}"


def test_reduce_hooks_without_sizes_raise_type_error(tmp_path):
    """The reduce passes the shuffle's ``sizes`` to holistic_results by
    keyword, so an override written without that argument fails with
    Python's TypeError, as the README says, and so does one written to the
    older ``holistic_results(gids, values, sizes=None)``, which would
    otherwise read the values as ids."""

    class OldHolistic(Distinct):
        name = "oldholistic"

        def holistic_results(self, gids, values):
            return super().holistic_results(gids, values)

    class GidsHolistic(Distinct):
        name = "gidsholistic"

        def holistic_results(self, gids, values, sizes=None):
            return super().holistic_results(values, sizes)

    registry = AggregatorRegistry()
    for agg in (OldHolistic(), GidsHolistic()):
        registry.register(agg)
    built = build_array(tmp_path, extents=(6, 6), chunks=(3, 3))
    for name, mode, hook in [
        ("oldholistic", "naive", r"holistic_results\(\) got an unexpected keyword argument 'sizes'"),
        ("gidsholistic", "naive", r"holistic_results\(\) missing 1 required positional argument: 'values'"),
    ]:
        text = f"select {name}(val) from A grid as (partition by x 3, y 3)"
        job = plan(analyze(parse(text), built.catalog, registry), mode)
        with pytest.raises(TypeError, match=hook):
            run_job(job)


@pytest.mark.parametrize("element_type", ["float64", "int64"])
@pytest.mark.parametrize("mode", ["naive", "optimized"])
def test_builtins_never_take_the_scalar_loop(tmp_path, monkeypatch, mode, element_type):
    """With the base class's scalar fold, merge (start and merge_into) and
    finish patched to raise, every built-in algebraic aggregate still runs
    and matches the oracle: exactly
    for SUM, COUNT, AVG, MIN and MAX, on quarter-integer floats (exact sums)
    and on int64 values near +-2**62, whose split sums overflow int64."""

    def scalar_loop(*args):
        raise AssertionError("a built-in took the scalar loop")

    for hook in ("fold_groups", "start", "merge_into", "group_results"):
        monkeypatch.setattr(Aggregator, hook, scalar_loop)
    rng = np.random.default_rng(11)
    if element_type == "int64":
        magnitude = 2**62 + rng.integers(-1000, 1000, (9, 7))
    else:
        magnitude = rng.integers(1, 4000, (9, 7)) / 4
    for sign in (1, -1):
        values = sign * magnitude
        built = build_array(
            tmp_path, extents=(9, 7), chunks=(4, 3), element_type=element_type, values=values
        )
        aggs = ("sum", "count", "avg", "min", "max", "stddev") + ("geomean",) * (sign > 0)
        threshold = values.flat[20].item()
        for agg, (shape, kwargs), where in product(aggs, CUSTOM_SHAPES, [None, threshold]):
            clause = "" if where is None else f" where val > {where!r}"
            text = f"select {agg}(val) from A{clause} {shape}"
            result = run_job(plan(analyze(parse(text), built.catalog), mode))
            predicate = None if where is None else [(">", where)]
            groups = group_value_lists(values, (0, 0), (8, 6), predicate=predicate, **kwargs)
            assert len(result.values) == len(groups)
            for gid, (got, group) in enumerate(zip(result.values, groups)):
                context = f"{text} ({mode}) group {gid}"
                want = aggregate_direct(agg, group) if group.size else None
                if agg == "stddev" and group.size:
                    assert_stddev_close(got, want, group, context)
                elif agg in ("stddev", "geomean"):
                    assert_close(got, want, context=context)
                else:
                    assert got == want and type(got) is type(want), f"{context}: {got!r}"


KERNEL_AGGREGATES = ("sum", "count", "avg", "min", "max", "geomean")


def chunk_regions(box, starts, chunks):
    """The box cut by chunks of the given sizes whose grid starts at
    ``starts``: ragged at both ends when the box is not aligned."""
    pieces = []
    for l, h, s, c in zip(box.lo, box.hi, starts, chunks):
        axis, a = [], l
        while a <= h:
            b = min(h, s + ((a - s) // c + 1) * c - 1)
            axis.append((a, b))
            a = b + 1
        pieces.append(axis)
    return [BoundingBox(*zip(*combo)) for combo in product(*pieces)]


def window_cells(params, box) -> int:
    """The most cells one window holds: the int64 guard's factor."""
    return prod(
        min(p, n - 1) + min(f, n - 1) + 1
        for p, f, n in zip(params.preceding, params.following, box.shape)
    )


@st.composite
def window_folds(draw):
    ndim = draw(st.integers(1, 3))
    side = 12 if ndim < 3 else 6
    lo = tuple(draw(st.integers(-5, 5)) for _ in range(ndim))
    shape = tuple(draw(st.integers(1, side)) for _ in range(ndim))
    box = BoundingBox(lo, tuple(l + n - 1 for l, n in zip(lo, shape)))
    reach = st.integers(0, 4)
    params = SlidingParams(
        tuple(draw(reach) for _ in range(ndim)),
        tuple(draw(reach) for _ in range(ndim)),
        draw(st.integers(1, 3)),
    )
    agg = draw(st.sampled_from(KERNEL_AGGREGATES))
    ints = draw(st.booleans())
    return {
        "box": box,
        "params": params,
        "starts": [l - draw(st.integers(0, 4)) for l in lo],
        "chunks": [draw(st.integers(1, n)) for n in shape],
        "agg": agg,
        "ints": ints,
        # int64 magnitudes just under, at, just over and well over the guard
        "guard": draw(st.sampled_from([None, -1, 0, 1, "far"])),
        # a where mask keeping this share of cells (0 empties every split)
        "density": draw(st.sampled_from([None, 0.0, 0.15, 0.6])),
        # one NaN cell (floats), or a non-positive one (GEOMEAN)
        "bad": (agg == "geomean" or not ints) and draw(st.integers(0, 5)) == 0,
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def window_values(case, rng) -> np.ndarray:
    shape, agg = case["box"].shape, case["agg"]
    if case["guard"] == "bounds":  # int64's least and greatest values only
        info = np.iinfo(np.int64)
        values = rng.choice(np.array([info.min, info.max]), shape)
    elif case["ints"] and case["guard"] is None:
        values = rng.integers(1 if agg == "geomean" else -1000, 1000, shape, endpoint=True)
    elif case["ints"]:
        # one sign and within 1 of max |v|, so full windows sum to about
        # max |v| * cells, which overflows int64 past the guard
        top = 2**63 // window_cells(case["params"], case["box"])
        top = top * 3 // 2 if case["guard"] == "far" else top + case["guard"]
        top = min(max(top, 2), 2**63 - 1)
        values = top - rng.integers(0, 2, shape)
        values.flat[rng.integers(values.size)] = top  # max |v| is the guard's
        if agg != "geomean" and case["seed"] % 2:
            values = -values
    elif agg == "geomean":
        values = rng.uniform(0.25, 4.0, shape)
    else:
        values = rng.normal(0.0, 10.0 ** rng.integers(0, 16), shape)
    if case["bad"]:
        values.flat[rng.integers(values.size)] = 0 if agg == "geomean" else np.nan
    return values


def fold_or_error(fold, *args):
    try:
        return fold(*args)
    except AggregateError as exc:
        return type(exc), str(exc), exc.group


class PairFoldSpy:
    """Wraps a built-in to list the pair folds it is asked for."""

    def __init__(self, agg):
        self.agg, self.folded = agg, []

    def __getattr__(self, name):
        return getattr(self.agg, name)

    def fold_groups(self, gids, values, sizes):
        self.folded.append(len(gids))
        return self.agg.fold_groups(gids, values, sizes)


# MIN and MAX windows under a mask, every kept cell at one end of int64's
# range: neither the masked cells' fill nor the kernel's start may show
EXTREMES = {
    "box": BoundingBox((0, -2), (6, 5)),
    "params": SlidingParams((2, 1), (1, 2), 2),
    "starts": [0, -3],
    "chunks": [3, 5],
    "ints": True,
    "guard": "bounds",
    "density": 0.6,
    "bad": False,
    "seed": 3,
}


# GAPS cut in 1-cell rows: rows between windows, and rows with gap cells
GAP_ROWS = {
    "box": GAPS.box,
    "params": GAPS.params,
    "starts": [0, 0],
    "chunks": [1, 5],
    "agg": "avg",
    "ints": False,
    "guard": None,
    "bad": False,
    "seed": 5,
}


@settings(max_examples=400, deadline=None)
@given(case=window_folds())
@example(  # full 3x3 windows whose int64 sums pass 2**63
    case={
        "box": BoundingBox((0, 0), (4, 4)),
        "params": SlidingParams((1, 1), (1, 1), 1),
        "starts": [0, 0],
        "chunks": [4, 5],
        "agg": "sum",
        "ints": True,
        "guard": "far",
        "density": None,
        "bad": False,
        "seed": 0,
    }
)
@example(case={**EXTREMES, "agg": "min"})
@example(case={**EXTREMES, "agg": "max"})
@example(case={**GAP_ROWS, "density": None})
@example(case={**GAP_ROWS, "density": 0.6})
def test_window_kernel_matches_pair_fold(case):
    """On every split, the sliding membership's fold gives the rows and
    counts the pair fold gives, and the same error for a NaN or
    non-positive GEOMEAN cell. MIN, MAX, COUNT and int64 SUM/AVG are exact;
    float SUM/AVG/GEOMEAN sum in another order, so they agree within 1e-12
    of the group's sum of magnitudes (relative, for one sign). Only int64
    sums past the guard, bad cells and regions between windows fold
    pairs."""
    rng = np.random.default_rng(case["seed"])
    box, params = case["box"], case["params"]
    values = window_values(case, rng)
    keep = None if case["density"] is None else rng.random(box.shape) < case["density"]
    agg = default_registry().get(case["agg"])
    spy = PairFoldSpy(agg)
    membership = build_membership(make_geometry("sliding", box, params))
    top = int(np.abs(values).max()) if case["ints"] else 0
    past_guard = case["agg"] in ("sum", "avg") and top * window_cells(params, box) >= 2**63
    for region in chunk_regions(box, case["starts"], case["chunks"]):
        at = tuple(slice(a - l, b - l + 1) for a, b, l in zip(region.lo, region.hi, box.lo))
        block, mask = values[at], None if keep is None else keep[at]
        got = fold_or_error(membership.fold, region, block, mask, spy)
        want = fold_or_error(Membership.fold, membership, region, block, mask, agg)
        context = f"{case} region {region}"
        if isinstance(want, tuple):
            assert got == want, context
            continue
        if not (case["bad"] or past_guard):
            assert not any(spy.folded), context  # every window came from the kernel
        assert got.gid.tolist() == want.gid.tolist(), context
        assert got.count.tolist() == want.count.tolist(), context
        assert got.ext is None and want.ext is None
        if case["agg"] in ("count", "min", "max") or case["ints"] and case["agg"] != "geomean":
            assert got.aggregate.tolist() == want.aggregate.tolist(), context
            continue
        cells, gids = membership.block(region, mask)
        if not len(gids):
            continue
        lifted = block.ravel()[cells]
        if case["agg"] == "geomean":
            lifted = np.log(lifted)
        scale = np.bincount(gids - gids.min(), np.abs(lifted))[want.gid - gids.min()]
        assert np.all(np.abs(got.aggregate - want.aggregate) <= 1e-12 * scale), context


@settings(max_examples=200, deadline=None)
@given(case=window_folds(), huge=st.sampled_from([1e300, -1e300, math.inf, -math.inf]))
def test_window_kernel_keeps_a_huge_cell_local(case, huge):
    """A window without the huge or infinite cell reads bit for bit what it
    reads when that cell is 0.0: the kernel never subtracts, so no large
    value leaks into its neighbours (a summed-area table fails this)."""
    rng = np.random.default_rng(case["seed"])
    box = case["box"]
    geom = make_geometry("sliding", box, case["params"])
    membership = build_membership(geom)
    values = rng.normal(0.0, 1.0, box.shape)
    at = tuple(int(rng.integers(n)) for n in box.shape)
    cell = tuple(l + i for l, i in zip(box.lo, at))
    zero, spiked = values.copy(), values.copy()
    zero[at], spiked[at] = 0.0, huge
    for name in ("sum", "avg", "min", "max"):
        agg = default_registry().get(name)
        for region in chunk_regions(box, case["starts"], case["chunks"]):
            sl = tuple(slice(a - l, b - l + 1) for a, b, l in zip(region.lo, region.hi, box.lo))
            base = membership.fold(region, zero[sl], None, agg)
            got = membership.fold(region, spiked[sl], None, agg)
            assert got.gid.tolist() == base.gid.tolist()
            for gid, a, b in zip(got.gid.tolist(), got.aggregate, base.aggregate):
                if not group_extent(gid, geom).contains(cell):
                    assert a.tobytes() == b.tobytes(), f"{name} {case} group {gid}: {a!r} != {b!r}"


def test_window_kernel_overflows_as_the_pair_fold_does(tmp_path):
    """Float window sums past the double range give the pair fold's inf and
    nan without a numpy RuntimeWarning, which the suite makes an error."""
    values = np.array([1e308, 1e308, -math.inf, 1.0, 2.0, 3.0])
    catalog = build_array(tmp_path, extents=(6,), chunks=(6,), values=values).catalog
    text = "select sum(val) from A fixed window as (partition by x 1 preceding and 1 following)"
    naive, optimized = (
        run_job(plan(analyze(parse(text), catalog), mode)).values for mode in ("naive", "optimized")
    )
    assert repr(naive) == repr(optimized) == "[inf, nan, -inf, -inf, 6.0, 5.0]"
