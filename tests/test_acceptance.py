"""Acceptance gate: ten checks, one test per criterion, each printing a
single "acceptance N: PASS/FAIL" line (run with -s to watch them).

Limits and tolerances are fixed contract values: parse corpus under 1 s,
engine-versus-oracle agreement within 1e-9 relative across at least 200
randomized cases in under 2 minutes, exact map-output volume laws, an
in-mapper-combining shuffle saving of at least 8x on the 256x256 sliding
benchmark, byte-read economy bounds of 0.26 and 0.135 for quarter and eighth
subsets, byte-read invariance under value predicates, aggregator correctness
on 1000-value sets, bit-identical results for 1, 2, 4, and 8 workers,
holistic-aggregator gating in the planner, and a five-minute budget for the
whole suite.
"""

import functools
import math
import random
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from aqlmr import (
    AggregateDataError,
    AggregateDomainError,
    ConfigError,
    EngineError,
    PlanDowngradeWarning,
    analyze,
    default_registry,
    load_param_config,
    parse,
    plan,
    render,
    run_job,
)
from aqlmr.planner import config_pairs

from conftest import SESSION_T0, build_array
from corpus import ALL_QUERIES
from oracles import (
    assert_close,
    expected_results,
    group_value_lists,
    naive_emission_count,
)


def criterion(n: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nacceptance {n}: FAIL - {label}", flush=True)
                raise
            print(f"\nacceptance {n}: PASS - {label}", flush=True)

        return wrapper

    return deco


def run_text(built, text, mode="auto", workers=1):
    query = analyze(parse(text), built.catalog)
    return run_job(plan(query, mode), workers=workers)


@pytest.fixture(scope="module")
def accept_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@criterion(1, "query corpus parses and round-trips in under 1 second")
def test_c01_parser_corpus():
    t0 = time.perf_counter()
    for text in ALL_QUERIES:
        ast = parse(text)
        assert parse(render(ast)) == ast, text
    elapsed = time.perf_counter() - t0
    assert len(ALL_QUERIES) >= 25
    assert elapsed < 1.0, f"corpus took {elapsed:.3f}s"


def _random_case(rnd: random.Random, values_rng: np.random.Generator, idx: int):
    """One randomized query case: array spec, values, query text, oracle args."""
    r = rnd.random()
    ndim = 1 if r < 0.10 else (2 if r < 0.95 else 3)
    max_extent = 64 if ndim < 3 else 16
    extents = tuple(rnd.randint(4, max_extent) for _ in range(ndim))
    chunks = tuple(rnd.randint(1, e) for e in extents)
    dims = "xyz"[:ndim]
    agg = rnd.choice(["sum", "count", "avg", "min", "max", "stddev", "geomean"])
    if agg == "geomean":
        element_type = "float64"
        values = values_rng.random(math.prod(extents)) * 1.5 + 0.5
    elif rnd.random() < 0.2:
        element_type = "int64"
        values = values_rng.integers(0, 1000, math.prod(extents))
    else:
        element_type = "float64"
        values = values_rng.random(math.prod(extents))

    if rnd.random() < 0.6:
        lo = tuple(0 for _ in extents)
        hi = tuple(e - 1 for e in extents)
        source = f"A{idx}"
    else:
        lo = tuple(rnd.randint(0, e - 1) for e in extents)
        hi = tuple(rnd.randint(l, e - 1) for l, e in zip(lo, extents))
        coords = ", ".join(str(c) for c in lo + hi)
        source = f"between (A{idx}, {coords})"

    where = ""
    predicate = None
    if rnd.random() < 0.3:
        conjuncts = []
        for _ in range(rnd.randint(1, 2)):
            op = rnd.choice(["<", "<=", ">", ">=", "<>"])
            if agg == "geomean":
                const = round(rnd.uniform(0.6, 1.9), 3)
            elif element_type == "int64":
                const = rnd.randint(0, 999)
            else:
                const = round(rnd.uniform(0.05, 0.95), 3)
            conjuncts.append((op, const))
        where = " where " + " and ".join(f"val {op} {c!r}" for op, c in conjuncts)
        predicate = conjuncts

    kind = rnd.choice(["grid", "sliding", "hierarchical", "circular"])
    oracle_kwargs = {"predicate": predicate}
    if kind == "grid":
        partitions = tuple(rnd.randint(1, 16) for _ in extents)
        inner = ", ".join(f"{d} {p}" for d, p in zip(dims, partitions))
        shape = f"grid as (partition by {inner})"
        oracle_kwargs["partitions"] = partitions
    elif kind == "sliding":
        prec = tuple(rnd.randint(0, 2) for _ in extents)
        foll = tuple(rnd.randint(0, 2) for _ in extents)
        stride = rnd.choice([1, 1, 1, 2, 3])
        inner = ", ".join(
            f"{d} {p} preceding and {f} following"
            for d, p, f in zip(dims, prec, foll)
        )
        suffix = f" stride {stride}" if stride != 1 else ""
        shape = f"fixed window as (partition by {inner}{suffix})"
        oracle_kwargs.update(preceding=prec, following=foll, stride=stride)
    else:
        radius0 = rnd.randint(0, 5)
        step = rnd.randint(1, 3)
        shape = f"{kind} as (radius {radius0} step {step})"
        oracle_kwargs.update(radius0=radius0, step=step)

    text = f"select {agg}(val) from {source}{where} {shape}"
    spec = dict(
        name=f"A{idx}",
        extents=extents,
        chunks=chunks,
        element_type=element_type,
        values=values,
    )
    return spec, text, agg, kind, lo, hi, oracle_kwargs


@criterion(2, "engine matches the oracle within 1e-9 over 200 randomized cases")
def test_c02_oracle_equivalence(accept_dir):
    t0 = time.perf_counter()
    rnd = random.Random(20260816)
    values_rng = np.random.default_rng(20260816)
    kind_seen: dict[str, int] = {}
    agg_seen: dict[str, int] = {}
    cases = 200
    for idx in range(cases):
        spec, text, agg, kind, lo, hi, oracle_kwargs = _random_case(
            rnd, values_rng, idx
        )
        case_dir = accept_dir / f"case{idx}"
        case_dir.mkdir()
        built = build_array(case_dir, **spec)
        groups = group_value_lists(built.values, lo, hi, kind, **oracle_kwargs)
        expected = expected_results(agg, groups)
        for mode in ("naive", "optimized"):
            result = run_text(built, text, mode)
            assert len(result.values) == len(expected), f"case {idx}: {text}"
            for gid, (got, want) in enumerate(zip(result.values, expected)):
                assert_close(
                    got, want, context=f"case {idx} ({mode}) group {gid}: {text}"
                )
        kind_seen[kind] = kind_seen.get(kind, 0) + 1
        agg_seen[agg] = agg_seen.get(agg, 0) + 1
    elapsed = time.perf_counter() - t0
    assert all(kind_seen.get(k, 0) >= 15 for k in ("grid", "sliding", "hierarchical", "circular")), kind_seen
    assert all(agg_seen.get(a, 0) >= 8 for a in ("sum", "count", "avg", "min", "max", "stddev", "geomean")), agg_seen
    assert elapsed < 120.0, f"{cases} cases took {elapsed:.1f}s"


@criterion(3, "naive map-output volume laws hold exactly")
def test_c03_naive_volume_laws(accept_dir):
    d = accept_dir / "c3"
    d.mkdir()
    # grid: one output record per queried cell
    grid = build_array(d, name="G", extents=(48, 48), chunks=(16, 16), fill="uniform")
    full = run_text(grid, "select avg(val) from G grid as (partition by x 12, y 12)", "naive")
    assert full.counters.map_output_records == 48 * 48
    boxed = run_text(
        grid,
        "select avg(val) from between (G, 5, 7, 40, 41) grid as (partition by x 12, y 12)",
        "naive",
    )
    assert boxed.counters.map_output_records == 36 * 35

    # sliding: one record per (cell, covering window) pair
    sl = build_array(d, name="S", extents=(40, 40), chunks=(16, 16), fill="uniform")
    text = (
        "select avg(val) from S fixed window as"
        " (partition by x 1 preceding and 1 following, y 1 preceding and 1 following)"
    )
    result = run_text(sl, text, "naive")
    groups = group_value_lists(
        sl.values, (0, 0), (39, 39), "sliding", preceding=(1, 1), following=(1, 1)
    )
    per_dim = 38 * 3 + 2 * 2  # interior cells see 3 centers, edge cells 2
    assert result.counters.map_output_records == per_dim * per_dim == 13924
    assert result.counters.map_output_records == naive_emission_count(groups)

    strided = run_text(
        sl,
        "select avg(val) from S fixed window as"
        " (partition by x 2 preceding and 1 following, y 0 preceding and 2 following stride 3)",
        "naive",
    )
    sgroups = group_value_lists(
        sl.values, (0, 0), (39, 39), "sliding",
        preceding=(2, 0), following=(1, 2), stride=3,
    )
    assert strided.counters.map_output_records == naive_emission_count(sgroups)

    # nested rings: a cell is emitted once per ring containing it
    rings = build_array(d, name="R", extents=(33, 33), chunks=(16, 16), fill="uniform")
    ring_run = run_text(
        rings, "select avg(val) from R hierarchical as (radius 2 step 3)", "naive"
    )
    rgroups = group_value_lists(
        rings.values, (0, 0), (32, 32), "hierarchical", radius0=2, step=3
    )
    assert ring_run.counters.map_output_records == naive_emission_count(rgroups)


def _center_coverage(extent: int, span: int) -> int:
    """How many (cell, covering center) pairs one dimension contributes."""
    return sum(
        min(c + span, extent - 1) - max(c - span, 0) + 1 for c in range(extent)
    )


def _split_center_overlap(extent: int, chunk: int, span: int) -> int:
    """How many (split, overlapping center) pairs one dimension contributes."""
    total = 0
    for a in range(0, extent, chunk):
        b = min(a + chunk - 1, extent - 1)
        total += min(b + span, extent - 1) - max(a - span, 0) + 1
    return total


@criterion(4, "in-mapper combining cuts sliding map output at least 8x at 256x256")
def test_c04_optimized_volume(accept_dir):
    d = accept_dir / "c4"
    d.mkdir()
    built = build_array(
        d, name="B", extents=(256, 256), chunks=(64, 64), fill="uniform", seed=4
    )
    text = (
        "select avg(val) from B fixed window as"
        " (partition by x 1 preceding and 1 following, y 1 preceding and 1 following)"
    )
    naive = run_text(built, text, "naive")
    optimized = run_text(built, text, "optimized")

    cn = naive.counters.snapshot()
    co = optimized.counters.snapshot()
    splits = 16
    group_count = 256 * 256
    # independently derived expected volumes
    assert cn["map_output_records"] == _center_coverage(256, 1) ** 2 == 586756
    assert co["map_output_records"] == _split_center_overlap(256, 64, 1) ** 2 == 68644
    # the optimized law and the headline saving
    assert co["map_output_records"] <= splits * group_count
    assert co["map_output_records"] <= cn["map_output_records"]
    ratio = cn["map_output_records"] / co["map_output_records"]
    assert ratio >= 8.0, f"map output ratio {ratio:.3f}"
    assert co["bytes_shuffled"] < cn["bytes_shuffled"]
    # same input volume either way
    assert cn["bytes_read"] == co["bytes_read"] == built.schema.nbytes
    assert cn["map_input_records"] == co["map_input_records"] == 256 * 256

    # both modes agree; spot-check groups against direct window math
    assert len(naive.values) == len(optimized.values) == group_count
    for gid, (a, b) in enumerate(zip(naive.values, optimized.values)):
        assert_close(a, b, context=f"group {gid}")
    rnd = random.Random(4)
    for gid in rnd.sample(range(group_count), 200):
        cx, cy = divmod(gid, 256)
        window = built.values[
            max(0, cx - 1) : min(256, cx + 2), max(0, cy - 1) : min(256, cy + 2)
        ]
        assert_close(optimized.values[gid], float(window.mean()), context=f"group {gid}")


@criterion(5, "byte reads shrink with the queried box (0.26 / 0.135 bounds)")
def test_c05_subset_economy(accept_dir):
    d = accept_dir / "c5"
    d.mkdir()
    built = build_array(
        d, name="E1", extents=(1024, 1024), chunks=(16, 16),
        attribute="Val", fill="ramp",
    )
    shape = "grid as (partition by x 128, y 1024)"
    full = run_text(built, f"select avg(Val) from E1 {shape}")
    half = run_text(built, f"select avg(Val) from between (E1, 0, 0, 511, 1023) {shape}")
    quarter = run_text(built, f"select avg(Val) from between (E1, 512, 0, 767, 1023) {shape}")
    eighth = run_text(built, f"select avg(Val) from between (E1, 768, 0, 895, 1023) {shape}")

    base = full.counters.bytes_read
    assert base == built.schema.nbytes == 8 * 1024 * 1024
    r_half = half.counters.bytes_read / base
    r_quarter = quarter.counters.bytes_read / base
    r_eighth = eighth.counters.bytes_read / base
    assert r_quarter <= 0.26, f"quarter box read ratio {r_quarter:.4f}"
    assert r_eighth <= 0.135, f"eighth box read ratio {r_eighth:.4f}"
    # chunk-aligned boxes read exactly their share
    assert (r_half, r_quarter, r_eighth) == (0.5, 0.25, 0.125)
    # results sanity: ramp rows make block means exactly computable
    want = float(np.mean(built.values[512:768]))
    assert_close(sum(quarter.values) / len(quarter.values), want, context="quarter mean")


@criterion(6, "value predicates filter records without changing bytes read")
def test_c06_predicate_pushdown(accept_dir):
    d = accept_dir / "c6"
    d.mkdir()
    built = build_array(
        d, name="P", extents=(256, 256), chunks=(32, 32), attribute="Val", fill="ramp"
    )
    shape = "grid as (partition by x 64, y 64)"
    plain = run_text(built, f"select count(Val) from P {shape}")
    half = run_text(built, f"select count(Val) from P where Val >= 32768 {shape}")
    band = run_text(
        built, f"select count(Val) from P where Val >= 1000 and Val < 2000 {shape}"
    )
    cp, ch, cb = plain.counters, half.counters, band.counters
    assert ch.bytes_read == cp.bytes_read == built.schema.nbytes
    assert cb.bytes_read == cp.bytes_read
    assert cp.map_input_records == 256 * 256
    assert ch.map_input_records == 32768  # ramp: top half of the rows
    assert cb.map_input_records == 1000
    groups = group_value_lists(
        built.values, (0, 0), (255, 255), "grid",
        partitions=(64, 64), predicate=[(">=", 1000), ("<", 2000)],
    )
    assert band.values == expected_results("count", groups)


def _fold_in_chunks(agg, values, rnd):
    """Fold values the way the optimized pipeline would: several map-side
    summaries merged in the reducer."""
    cuts = sorted(rnd.sample(range(1, len(values)), k=min(6, len(values) - 1)))
    merged = agg.identity()
    for a, b in zip([0] + cuts, cuts + [len(values)]):
        part = agg.identity()
        for v in values[a:b]:
            agg.update_in_map(part, v)
        agg.update_in_reduce(merged, part)
    return agg.get_agg_result(merged)


@criterion(7, "aggregators are correct on 1000-value sets; geomean guards its domain")
def test_c07_aggregator_correctness():
    rnd = random.Random(7)
    rng = np.random.default_rng(7)
    floats = (rng.random(1000) * 1.5 + 0.5).tolist()  # within [0.5, 2.0)
    ints = [rnd.randint(0, 999) for _ in range(1000)]
    reg = default_registry()

    n = len(floats)
    expected_float = {
        "sum": math.fsum(floats),
        "count": 1000,
        "avg": math.fsum(floats) / n,
        "min": min(floats),
        "max": max(floats),
        "stddev": float(np.std(np.array(floats))),
        "geomean": math.prod(floats) ** (1.0 / n),  # product-root definition
    }
    for name, want in expected_float.items():
        agg = reg.get(name)
        got = _fold_in_chunks(agg, floats, rnd)
        assert_close(got, want, context=f"{name} over floats")

    for name in ("sum", "count", "min", "max"):
        agg = reg.get(name)
        got = _fold_in_chunks(agg, ints, rnd)
        want = {
            "sum": sum(ints),
            "count": 1000,
            "min": min(ints),
            "max": max(ints),
        }[name]
        assert got == want, f"{name} over ints: {got} != {want}"

    med = reg.get("median")
    s = sorted(floats)
    assert_close(
        med.holistic_result(floats), (s[499] + s[500]) / 2, context="median even"
    )
    assert_close(
        med.holistic_result(floats[:999]),
        sorted(floats[:999])[499],
        context="median odd",
    )

    geo = reg.get("geomean")
    for bad in (0, -1, -0.5):
        with pytest.raises(AggregateDomainError):
            geo.update_in_map(geo.identity(), bad)
    for name in ("sum", "avg", "stddev", "geomean"):
        agg = reg.get(name)
        with pytest.raises(AggregateDataError):
            agg.update_in_map(agg.identity(), float("nan"))
    with pytest.raises(AggregateDataError):
        med.holistic_result([1.0, float("nan")])


@criterion(8, "results and counters are bit-identical for 1, 2, 4, and 8 workers")
def test_c08_worker_determinism(accept_dir):
    d = accept_dir / "c8"
    d.mkdir()
    built = build_array(
        d, name="D", extents=(96, 96), chunks=(32, 32), fill="uniform", seed=8
    )
    queries = [
        "select avg(val) from D fixed window as"
        " (partition by x 1 preceding and 1 following, y 1 preceding and 1 following)",
        "select stddev(val) from D circular as (radius 2 step 3)",
    ]
    for text in queries:
        for mode in ("naive", "optimized"):
            runs = [run_text(built, text, mode, workers=w) for w in (1, 2, 4, 8)]
            base_values = runs[0].values
            base_counters = runs[0].counters.snapshot()
            for w, r in zip((2, 4, 8), runs[1:]):
                assert r.values == base_values, f"{mode} values drifted at {w} workers"
                assert r.counters.snapshot() == base_counters, (
                    f"{mode} counters drifted at {w} workers"
                )


@criterion(9, "the planner gates holistic aggregation out of optimized mode")
def test_c09_holistic_gating(accept_dir):
    d = accept_dir / "c9"
    d.mkdir()
    built = build_array(
        d, name="M", extents=(32, 32), chunks=(16, 16), fill="uniform", seed=9
    )
    text = "select median(val) from M grid as (partition by x 8, y 8)"
    query = analyze(parse(text), built.catalog)

    # auto quietly picks naive
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        auto = plan(query, "auto")
    assert auto.mode == "naive" and auto.template_id == "grid_naive"

    # an explicit optimized request downgrades loudly but still runs right
    with pytest.warns(PlanDowngradeWarning, match="holistic aggregator cannot run optimized"):
        downgraded = plan(query, "optimized")
    assert downgraded.mode == "naive"
    result = run_job(downgraded)
    groups = group_value_lists(built.values, (0, 0), (31, 31), "grid", partitions=(8, 8))
    for gid, (got, want) in enumerate(zip(result.values, expected_results("median", groups))):
        assert_close(got, want, context=f"median group {gid}")

    # a parameter file cannot smuggle the combination in
    pairs = config_pairs(auto)
    pairs["mode"] = "optimized"
    pairs["template"] = "grid_opt"
    cfg = d / "forced.cfg"
    cfg.write_text("\n".join(f"{k}={v}" for k, v in sorted(pairs.items())) + "\n")
    with pytest.raises(ConfigError, match="holistic aggregator cannot run optimized"):
        load_param_config(cfg)

    # and the engine itself refuses a forged plan
    forged = replace(auto, mode="optimized")
    with pytest.raises(EngineError, match="holistic aggregator cannot run optimized"):
        run_job(forged)


@criterion(10, "the whole test session fits in the five-minute budget")
def test_c10_suite_budget():
    elapsed = time.monotonic() - SESSION_T0
    print(f"\nsession elapsed: {elapsed:.1f}s", flush=True)
    assert elapsed < 300.0, f"suite is over budget at {elapsed:.1f}s"
