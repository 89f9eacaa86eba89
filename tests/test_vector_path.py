"""Properties that gate the array-at-a-time engine.

run_job is compared with the numpy oracle on random arrays of 1-3
dimensions with nonzero starts and ragged chunks, for every shape, every
built-in aggregate and both mappers, at hostile magnitudes: float64 values
at 1e15 plus noise, and int64 values near +-2**62, whose sums overflow
int64. Filters that empty some or all splits and single-cell boxes come up
on their own. Block membership is checked against groups_of cell by cell.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aqlmr
from aqlmr import (
    Aggregator,
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
    groups_of,
    make_geometry,
    parse,
    plan,
    run_job,
    save_schema,
    write_array,
)
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
def regions(draw):
    ndim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["grid", "sliding", "hierarchical", "circular"]))
    lo = tuple(draw(st.integers(-5, 5)) for _ in range(ndim))
    huge = kind == "circular" and draw(st.integers(0, 4)) == 0
    # a huge box has squared distances beyond exact float square roots (the
    # Python fallback); its step keeps the ring count small
    shape = tuple(2**32 if huge else draw(st.integers(1, 12)) for _ in range(ndim))
    hi = tuple(l + s - 1 for l, s in zip(lo, shape))
    params = shape_params(draw, kind, ndim)
    if isinstance(params, RingParams):
        step = 2**30 + params.step if huge else params.step
        params = RingParams(params.radius0, step, draw(st.sampled_from(["nested", "disjoint"])))
    geom = make_geometry(kind, BoundingBox(lo, hi), params)
    rlo = tuple(draw(st.integers(l, h)) for l, h in zip(lo, hi))
    rhi = tuple(draw(st.integers(a, min(h, a + 6))) for a, h in zip(rlo, hi))
    region = BoundingBox(rlo, rhi)
    keep = None
    if draw(st.booleans()):
        bits = draw(st.lists(st.booleans(), min_size=region.cell_count, max_size=region.cell_count))
        keep = np.array(bits, dtype=bool).reshape(region.shape)
    return geom, region, keep


@settings(max_examples=300, deadline=None)
@given(regions())
def test_block_membership_matches_groups_of(case):
    geom, region, keep = case
    cells, gids = build_membership(geom).block(region, keep)
    assert cells.dtype == gids.dtype == np.int64
    coords = product(*(range(l, h + 1) for l, h in zip(region.lo, region.hi)))
    expected = [
        (i, g)
        for i, coord in enumerate(coords)
        if keep is None or keep.flat[i]
        for g in groups_of(coord, geom)
    ]
    got = list(zip(cells.tolist(), gids.tolist()))
    assert sorted(got) == sorted(expected)
    # within a group, cells come in row-major order (the fold order), and
    # each cell's first pair follows the first pair of every earlier cell
    for g in set(gids.tolist()):
        members = cells[gids == g]
        assert np.all(np.diff(members) > 0)
    firsts = list(dict.fromkeys(cells.tolist()))
    assert firsts == sorted(firsts)


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
                job = plan(query, mode, registry=registry)
        else:
            job = plan(query, mode, registry=registry)
        result = run_job(job, registry=registry)
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
