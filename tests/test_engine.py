import numpy as np
import pytest

from aqlmr import (
    EngineError,
    analyze,
    parse,
    plan,
    run_job,
)
from aqlmr.engine import (
    KEY_BYTES,
    RAW_VALUE_BYTES,
    SUMMARY_BYTES,
    SUMMARY_EXT_BYTES,
    Counters,
)
from oracles import (
    assert_close,
    expected_results,
    group_value_lists,
    naive_emission_count,
)


def run_query(built, text, mode="auto", workers=1):
    query = analyze(parse(text), built.catalog)
    return run_job(plan(query, mode), workers=workers)


class TestCounters:
    def test_add_and_snapshot(self):
        c = Counters()
        c.add("bytes_read", 10)
        c.add("bytes_read", 5)
        snap = c.snapshot()
        assert snap["bytes_read"] == 15
        assert set(snap) == {
            "map_input_records",
            "map_output_records",
            "shuffle_groups",
            "reduce_input_records",
            "bytes_read",
            "bytes_shuffled",
        }


class TestGridJobs:
    def test_avg_matches_oracle_both_modes(self, array_factory):
        built = array_factory(extents=(12, 12), chunks=(5, 5), fill="uniform", seed=1)
        groups = group_value_lists(
            built.values, (0, 0), (11, 11), "grid", partitions=(4, 4)
        )
        expected = expected_results("avg", groups)
        for mode in ("naive", "optimized"):
            result = run_query(
                built, "select avg(val) from A grid as (partition by x 4, y 4)", mode
            )
            assert len(result.values) == 9
            for gid, (got, want) in enumerate(zip(result.values, expected)):
                assert_close(got, want, context=f"{mode} group {gid}")

    def test_boxed_sum_int64(self, array_factory):
        built = array_factory(
            element_type="int64", extents=(10, 10), chunks=(4, 4), fill="uniform", seed=2
        )
        text = "select sum(val) from between (A, 1, 2, 8, 9) grid as (partition by x 4, y 4)"
        groups = group_value_lists(
            built.values, (1, 2), (8, 9), "grid", partitions=(4, 4)
        )
        expected = expected_results("sum", groups)
        for mode in ("naive", "optimized"):
            result = run_query(built, text, mode)
            assert result.values == expected  # integer sums are exact

    @pytest.mark.parametrize("mode", ["naive", "optimized"])
    def test_int64_avg_is_correctly_rounded(self, array_factory, mode):
        # the two-cell split could overflow an int64 sum and folds in Python
        # ints, the one-cell split folds in numpy; the average is still the
        # exact sum over the exact count, rounded once (float(sum) / 3 is not)
        values = np.array([2**62 + 911, 2**62 + 430, 2**62 + 41], dtype=np.int64)
        built = array_factory(element_type="int64", extents=(3,), chunks=(2,), values=values)
        result = run_query(built, "select avg(val) from A grid as (partition by x 3)", mode)
        total = sum(values.tolist())
        assert float(total) / 3 != total / 3
        assert result.values == [total / 3]

    def test_naive_counter_laws(self, array_factory):
        built = array_factory(extents=(12, 12), chunks=(5, 5))
        result = run_query(
            built, "select avg(val) from A grid as (partition by x 4, y 4)", "naive"
        )
        c = result.counters.snapshot()
        # every queried cell maps to exactly one block
        assert c["map_input_records"] == 144
        assert c["map_output_records"] == 144
        assert c["reduce_input_records"] == 144
        assert c["shuffle_groups"] == 9
        assert c["bytes_read"] == 144 * 8
        assert c["bytes_shuffled"] == (KEY_BYTES + RAW_VALUE_BYTES) * 144

    def test_optimized_counter_laws(self, array_factory):
        built = array_factory(extents=(12, 12), chunks=(5, 5))
        result = run_query(
            built, "select avg(val) from A grid as (partition by x 4, y 4)", "optimized"
        )
        c = result.counters.snapshot()
        naive = run_query(
            built, "select avg(val) from A grid as (partition by x 4, y 4)", "naive"
        ).counters.snapshot()
        splits = 9  # ceil(12/5)^2
        groups = 9
        assert c["map_output_records"] <= splits * groups
        assert c["map_output_records"] <= naive["map_output_records"]
        assert c["bytes_shuffled"] == (KEY_BYTES + SUMMARY_BYTES) * c["map_output_records"]
        # same answers, fewer shuffled bytes
        assert c["bytes_shuffled"] < naive["bytes_shuffled"]

    def test_stddev_summary_bytes(self, array_factory):
        built = array_factory(extents=(8, 8), chunks=(4, 4))
        result = run_query(
            built, "select stddev(val) from A grid as (partition by x 4, y 4)", "optimized"
        )
        c = result.counters.snapshot()
        assert c["bytes_shuffled"] == (KEY_BYTES + SUMMARY_EXT_BYTES) * c["map_output_records"]

    @pytest.mark.parametrize("mode", ["naive", "optimized"])
    def test_stddev_at_large_offset_matches_oracle(self, array_factory, mode):
        values = np.array([1e9, 1e9 + 1, 1e9 + 2, 1e9 + 3])
        built = array_factory(extents=(4,), chunks=(2,), values=values)
        result = run_query(built, "select stddev(val) from A grid as (partition by x 4)", mode)
        expected = expected_results("stddev", [values])
        assert_close(result.values[0], expected[0], context=mode)
        assert result.values[0] == pytest.approx(1.118033988749895, rel=1e-12)


class TestSlidingJobs:
    @pytest.mark.parametrize("mode", ["naive", "optimized"])
    def test_matches_oracle(self, array_factory, mode):
        built = array_factory(extents=(9, 7), chunks=(4, 4), fill="uniform", seed=3)
        text = (
            "select avg(val) from A fixed window as"
            " (partition by x 1 preceding and 1 following, y 2 preceding and 0 following)"
        )
        groups = group_value_lists(
            built.values, (0, 0), (8, 6), "sliding", preceding=(1, 2), following=(1, 0)
        )
        expected = expected_results("avg", groups)
        result = run_query(built, text, mode)
        assert len(result.values) == len(expected)
        for gid, (got, want) in enumerate(zip(result.values, expected)):
            assert_close(got, want, context=f"{mode} group {gid}")

    def test_strided_window(self, array_factory):
        built = array_factory(extents=(10, 10), chunks=(5, 5), fill="uniform", seed=4)
        text = (
            "select max(val) from A fixed window as"
            " (partition by x 2 preceding and 2 following, y 2 preceding and 2 following stride 3)"
        )
        groups = group_value_lists(
            built.values, (0, 0), (9, 9), "sliding",
            preceding=(2, 2), following=(2, 2), stride=3,
        )
        expected = expected_results("max", groups)
        result = run_query(built, text)
        assert result.values == expected

    def test_naive_emission_law(self, array_factory):
        built = array_factory(extents=(9, 7), chunks=(4, 4))
        text = (
            "select count(val) from A fixed window as"
            " (partition by x 1 preceding and 1 following, y 1 preceding and 1 following)"
        )
        groups = group_value_lists(
            built.values, (0, 0), (8, 6), "sliding", preceding=(1, 1), following=(1, 1)
        )
        result = run_query(built, text, "naive")
        c = result.counters.snapshot()
        assert c["map_output_records"] == naive_emission_count(groups)
        assert c["map_input_records"] == 63  # each cell read once despite overlap


class TestRingJobs:
    @pytest.mark.parametrize(
        "kind,agg", [("hierarchical", "sum"), ("circular", "avg")]
    )
    @pytest.mark.parametrize("mode", ["naive", "optimized"])
    def test_matches_oracle(self, array_factory, kind, agg, mode):
        built = array_factory(extents=(11, 11), chunks=(4, 4), fill="uniform", seed=5)
        text = f"select {agg}(val) from A {kind} as (radius 1 step 2)"
        groups = group_value_lists(
            built.values, (0, 0), (10, 10), kind, radius0=1, step=2
        )
        expected = expected_results(agg, groups)
        result = run_query(built, text, mode)
        assert len(result.values) == len(expected)
        for gid, (got, want) in enumerate(zip(result.values, expected)):
            assert_close(got, want, context=f"{kind} {mode} group {gid}")

    def test_corner_cells_never_counted(self, array_factory):
        built = array_factory(extents=(9, 9), chunks=(9, 9), fill="constant:1")
        result = run_query(
            built, "select count(val) from A circular as (radius 1 step 1)", "naive"
        )
        # rings hold pi*r^2-ish cell counts; the 4 box corners lie outside
        total = sum(v for v in result.values)
        assert total < 81
        groups = group_value_lists(
            built.values, (0, 0), (8, 8), "circular", radius0=1, step=1
        )
        assert result.values == [int(g.size) for g in groups]


class TestPredicates:
    def test_bytes_read_invariant_and_filtering(self, array_factory):
        built = array_factory(extents=(10, 10), chunks=(4, 4), fill="ramp")
        base = run_query(
            built, "select count(val) from A grid as (partition by x 5, y 5)"
        )
        filtered = run_query(
            built,
            "select count(val) from A where val >= 50 grid as (partition by x 5, y 5)",
        )
        cb, cf = base.counters.snapshot(), filtered.counters.snapshot()
        assert cf["bytes_read"] == cb["bytes_read"]
        assert cf["map_input_records"] == 50
        assert cb["map_input_records"] == 100
        # ramp: values >= 50 live in rows 5..9, i.e. the two bottom blocks;
        # blocks with no surviving records produce no output at all
        assert filtered.values == [None, None, 25, 25]

    def test_fully_filtered_group_is_null(self, array_factory):
        built = array_factory(extents=(4, 4), chunks=(2, 2), fill="ramp")
        result = run_query(
            built,
            "select avg(val) from A where val < 2 grid as (partition by x 2, y 2)",
        )
        assert result.values[0] is not None
        assert result.values[1:] == [None, None, None]

    def test_predicate_matches_oracle(self, array_factory):
        built = array_factory(extents=(8, 8), chunks=(4, 4), fill="uniform", seed=6)
        groups = group_value_lists(
            built.values,
            (0, 0),
            (7, 7),
            "grid",
            partitions=(4, 4),
            predicate=[(">", 0.25), ("<=", 0.9)],
        )
        expected = expected_results("avg", groups)
        result = run_query(
            built,
            "select avg(val) from A where val > 0.25 and val <= 0.9"
            " grid as (partition by x 4, y 4)",
        )
        for gid, (got, want) in enumerate(zip(result.values, expected)):
            assert_close(got, want, context=f"group {gid}")


class TestDeterminism:
    @pytest.mark.parametrize(
        "text",
        [
            "select avg(val) from A fixed window as"
            " (partition by x 1 preceding and 1 following, y 1 preceding and 1 following)",
            "select stddev(val) from A circular as (radius 2 step 2)",
            "select median(val) from A grid as (partition by x 8, y 8)",
        ],
    )
    def test_bit_identical_across_worker_counts(self, array_factory, text):
        built = array_factory(extents=(24, 24), chunks=(8, 8), fill="uniform", seed=7)
        runs = [run_query(built, text, workers=w) for w in (1, 2, 4, 8)]
        baseline_values = runs[0].values
        baseline_counters = runs[0].counters.snapshot()
        for r in runs[1:]:
            assert r.values == baseline_values  # exact, not approximate
            assert r.counters.snapshot() == baseline_counters


class TestMedianRuns:
    def test_median_naive_matches_oracle(self, array_factory):
        built = array_factory(extents=(9, 9), chunks=(4, 4), fill="uniform", seed=8)
        groups = group_value_lists(
            built.values, (0, 0), (8, 8), "hierarchical", radius0=1, step=1
        )
        expected = expected_results("median", groups)
        result = run_query(
            built, "select median(val) from A hierarchical as (radius 1 step 1)"
        )
        for gid, (got, want) in enumerate(zip(result.values, expected)):
            assert_close(got, want, context=f"group {gid}")

    def test_optimized_median_plan_rejected_at_run(self, array_factory):
        from dataclasses import replace

        built = array_factory(extents=(4, 4), chunks=(2, 2))
        query = analyze(
            parse("select median(val) from A grid as (partition by x 2, y 2)"),
            built.catalog,
        )
        job = replace(plan(query, "naive"), mode="optimized", template_id="grid_opt")
        with pytest.raises(EngineError, match="holistic aggregator cannot run optimized"):
            run_job(job)


class TestErrors:
    def test_nan_data_fails_both_modes(self, array_factory):
        vals = np.zeros((4, 4))
        vals[2, 2] = np.nan
        built = array_factory(extents=(4, 4), chunks=(2, 2), values=vals)
        text = "select sum(val) from A grid as (partition by x 2, y 2)"
        with pytest.raises(EngineError, match="NaN"):
            run_query(built, text, "naive")
        with pytest.raises(EngineError, match="map task"):
            run_query(built, text, "optimized")

    def test_geomean_domain_error_surfaces(self, array_factory):
        built = array_factory(extents=(4, 4), chunks=(4, 4), fill="ramp")  # contains 0
        with pytest.raises(EngineError, match="positive"):
            run_query(built, "select geomean(val) from A grid as (partition by x 2, y 2)")

    def test_geomean_names_the_value_each_mode_meets_first(self, array_factory):
        # row-major, the map meets -1 (group 1) before -2 (group 0); the
        # naive reduce goes group by group and meets -2 first
        vals = np.ones((2, 4))
        vals[0, 2], vals[1, 0] = -1.0, -2.0
        built = array_factory(extents=(2, 4), chunks=(2, 4), values=vals)
        text = "select geomean(val) from A grid as (partition by x 2, y 2)"
        with pytest.raises(EngineError, match=r"map task \(split 0\): .*got -1\.0"):
            run_query(built, text, "optimized")
        with pytest.raises(EngineError, match=r"reduce \(group 0\): .*got -2\.0"):
            run_query(built, text, "naive")

    def test_missing_data_file(self, array_factory):
        built = array_factory(extents=(4, 4), chunks=(2, 2))
        built.data_path.unlink()
        with pytest.raises((EngineError, OSError)):
            run_query(built, "select avg(val) from A grid as (partition by x 2, y 2)")

    def test_truncated_data_file(self, array_factory):
        built = array_factory(extents=(4, 4), chunks=(2, 2))
        built.data_path.write_bytes(built.data_path.read_bytes()[:-16])
        with pytest.raises(EngineError, match="does not match metadata"):
            run_query(built, "select avg(val) from A grid as (partition by x 2, y 2)")

    def test_too_long_data_file(self, array_factory):
        built = array_factory(extents=(4, 4), chunks=(2, 2))
        built.data_path.write_bytes(built.data_path.read_bytes() + bytes(800))
        with pytest.raises(EngineError, match="does not match metadata"):
            run_query(built, "select avg(val) from A grid as (partition by x 2, y 2)")

    def test_bad_worker_count(self, array_factory):
        built = array_factory(extents=(4, 4), chunks=(2, 2))
        query = analyze(
            parse("select avg(val) from A grid as (partition by x 2, y 2)"),
            built.catalog,
        )
        with pytest.raises(EngineError, match="workers"):
            run_job(plan(query), workers=0)


class TestSerialExecution:
    def test_workers_start_no_thread(self, array_factory, monkeypatch):
        import threading

        def refuse(self):
            raise AssertionError("run_job started a thread")

        built = array_factory(extents=(8, 8), chunks=(2, 2), fill="uniform", seed=3)
        text = (
            "select avg(val) from A fixed window as (partition by "
            "x 1 preceding and 1 following, y 1 preceding and 1 following)"
        )
        expected = run_query(built, text, workers=1)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        result = run_query(built, text, workers=4)
        assert result.values == expected.values
        assert result.counters == expected.counters


class TestTimings:
    def test_phases_reported(self, array_factory):
        built = array_factory(extents=(8, 8), chunks=(4, 4))
        result = run_query(built, "select avg(val) from A grid as (partition by x 4, y 4)")
        assert set(result.timings) == {"map", "shuffle", "reduce", "total"}
        assert result.timings["total"] >= 0
