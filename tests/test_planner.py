import warnings
from dataclasses import replace

import pytest

from aqlmr import (
    Catalog,
    ConfigError,
    PlanDowngradeWarning,
    PlanError,
    analyze,
    emit_param_config,
    load_param_config,
    parse,
    plan,
)
from aqlmr.planner import TEMPLATES, config_pairs, render_plan


@pytest.fixture
def built(array_factory):
    return array_factory(name="A", extents=(16, 16), chunks=(4, 4))


def make_plan(built, text, mode="auto"):
    query = analyze(parse(text), built.catalog)
    return plan(query, mode)


GRID_Q = "select avg(val) from A grid as (partition by x 4, y 4)"
WINDOW_Q = (
    "select sum(val) from between (A, 2, 2, 13, 13) where val > 10 fixed window as"
    " (partition by x 1 preceding and 1 following, y 1 preceding and 1 following stride 2)"
)
HIER_Q = "select stddev(val) from A hierarchical as (radius 1 step 2)"
CIRC_Q = "select median(val) from A circular as (radius 1 step 2)"


class TestModeSelection:
    def test_auto_prefers_optimized_for_algebraic(self, built):
        job = make_plan(built, GRID_Q)
        assert job.mode == "optimized"
        assert job.template_id == "grid_opt"

    def test_auto_falls_back_for_holistic(self, built):
        job = make_plan(built, CIRC_Q)
        assert job.mode == "naive"
        assert job.template_id == "ring_naive"

    def test_explicit_naive(self, built):
        job = make_plan(built, GRID_Q, "naive")
        assert job.mode == "naive"
        assert job.template_id == "grid_naive"

    def test_optimized_holistic_downgrades_with_warning(self, built):
        with pytest.warns(PlanDowngradeWarning, match="holistic aggregator cannot run optimized"):
            job = make_plan(built, CIRC_Q, "optimized")
        assert job.mode == "naive"
        assert job.template_id == "ring_naive"

    def test_unknown_mode(self, built):
        with pytest.raises(PlanError, match="unknown mode"):
            make_plan(built, GRID_Q, "turbo")

    @pytest.mark.parametrize(
        "text,template",
        [
            (GRID_Q, "grid_opt"),
            (WINDOW_Q, "sliding_opt"),
            (HIER_Q, "ring_opt"),
            ("select avg(val) from A circular as (radius 1 step 2)", "ring_opt"),
        ],
    )
    def test_template_families(self, built, text, template):
        job = make_plan(built, text)
        assert job.template_id == template
        assert template in TEMPLATES

    def test_plan_carries_geometry_and_splits(self, built):
        job = make_plan(built, GRID_Q)
        assert job.geometry.group_count == 16
        assert job.splits.box == built.schema.whole_box()
        assert job.splits.chunk_shape == (4, 4)
        assert job.splits.data_path == built.data_path
        assert "grid_opt" in render_plan(job)

    def test_replaced_mode_derives_the_template_again(self, built, tmp_path):
        job = replace(make_plan(built, GRID_Q, "naive"), mode="optimized")
        assert job.template_id == "grid_opt"
        assert job == make_plan(built, GRID_Q, "optimized")
        assert load_param_config(emit_param_config(job, tmp_path / "job.cfg")) == job


class TestParamConfig:
    def test_emit_is_sorted_and_deterministic(self, built, tmp_path):
        job = make_plan(built, GRID_Q)
        p1 = emit_param_config(job, tmp_path / "a.cfg")
        p2 = emit_param_config(job, tmp_path / "b.cfg")
        assert p1.read_bytes() == p2.read_bytes()
        lines = [l for l in p1.read_text().splitlines() if l and not l.startswith("#")]
        keys = [l.split("=", 1)[0] for l in lines]
        assert keys == sorted(keys)

    def test_emit_key_texture(self, built, tmp_path):
        job = make_plan(built, GRID_Q)
        text = emit_param_config(job, tmp_path / "a.cfg").read_text()
        assert "geometry.partition.x=4" in text
        assert "template=grid_opt" in text
        assert "mode=optimized" in text
        assert "aggregator=avg" in text
        assert f"array.path={built.data_path}" in text

    @pytest.mark.parametrize("text", [GRID_Q, WINDOW_Q, HIER_Q, CIRC_Q])
    @pytest.mark.parametrize("mode", ["naive", "auto"])
    def test_round_trip(self, built, tmp_path, text, mode):
        job = make_plan(built, text, mode)
        path = emit_param_config(job, tmp_path / "job.cfg")
        assert load_param_config(path) == job
        # older files carry a workers count, which loads and changes nothing
        path.write_text(path.read_text() + "workers=3\n")
        assert load_param_config(path) == job

    def test_round_trip_with_catalog(self, built, tmp_path):
        job = make_plan(built, WINDOW_Q)
        path = emit_param_config(job, tmp_path / "job.cfg")
        loaded = load_param_config(path, built.catalog)
        assert loaded == job

    def test_catalog_supplies_data_path(self, built, tmp_path):
        job = make_plan(built, GRID_Q)
        pairs = config_pairs(job)
        del pairs["array.path"]
        text = "\n".join(f"{k}={v}" for k, v in sorted(pairs.items()))
        cfg = tmp_path / "no_path.cfg"
        cfg.write_text(text + "\n")
        loaded = load_param_config(cfg, built.catalog)
        assert loaded.splits.data_path == built.data_path

    def test_comments_and_blank_lines_ignored(self, built, tmp_path):
        job = make_plan(built, GRID_Q)
        path = emit_param_config(job, tmp_path / "job.cfg")
        munged = "# leading comment\n\n" + path.read_text() + "\n# trailing\n"
        path.write_text(munged)
        assert load_param_config(path) == job


def _write_config(tmp_path, pairs: dict) -> str:
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(f"{k}={v}" for k, v in pairs.items()) + "\n")
    return str(path)


class TestConfigValidation:
    @pytest.fixture
    def pairs(self, built):
        return config_pairs(make_plan(built, GRID_Q))

    def test_unknown_key(self, tmp_path, pairs):
        pairs["geometry.flavor"] = "spicy"
        with pytest.raises(ConfigError, match="unknown config key"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_duplicate_key(self, tmp_path, pairs):
        path = tmp_path / "dup.cfg"
        path.write_text("mode=naive\nmode=naive\n")
        with pytest.raises(ConfigError, match="duplicate key"):
            load_param_config(path)

    def test_missing_key(self, tmp_path, pairs):
        del pairs["box.lo"]
        with pytest.raises(ConfigError, match="missing config key"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_not_key_value(self, tmp_path):
        path = tmp_path / "noeq.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_param_config(path)

    def test_holistic_optimized_rejected(self, built, tmp_path):
        pairs = config_pairs(make_plan(built, CIRC_Q))
        pairs["mode"] = "optimized"
        pairs["template"] = "ring_opt"
        with pytest.raises(ConfigError, match="holistic aggregator cannot run optimized"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_template_mode_mismatch(self, tmp_path, pairs):
        pairs["template"] = "grid_naive"  # mode stays optimized
        with pytest.raises(ConfigError, match="does not match"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_template_geometry_mismatch(self, tmp_path, pairs):
        pairs["template"] = "sliding_opt"
        with pytest.raises(ConfigError, match="does not match"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_unknown_aggregator(self, tmp_path, pairs):
        pairs["aggregator"] = "mode"
        with pytest.raises(ConfigError, match="unknown aggregate"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_unknown_template(self, tmp_path, pairs):
        pairs["template"] = "grid_fast"
        with pytest.raises(ConfigError, match="config key 'template'"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_box_out_of_bounds(self, tmp_path, pairs):
        pairs["box.hi"] = "16,15"
        with pytest.raises(ConfigError, match="outside physical layout"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_box_wrong_arity(self, tmp_path, pairs):
        pairs["box.hi"] = "15"
        with pytest.raises(ConfigError, match="expected 2 coordinates"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_schema_catalog_mismatch(self, built, tmp_path, pairs):
        pairs["array.dims"] = "x:0:15:8,y:0:15:8"  # different chunking
        with pytest.raises(ConfigError, match="does not match the catalog"):
            load_param_config(_write_config(tmp_path, pairs), built.catalog)

    def test_array_missing_from_catalog(self, built, tmp_path, pairs):
        pairs["array"] = "Z"
        with pytest.raises(ConfigError, match="unknown array"):
            load_param_config(_write_config(tmp_path, pairs), built.catalog)

    def test_bad_dims_text(self, tmp_path, pairs):
        pairs["array.dims"] = "x:0:15"
        with pytest.raises(ConfigError, match="name:start:end:chunk"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_bad_where(self, tmp_path, pairs):
        pairs["where.0"] = "val !! 3"
        with pytest.raises(ConfigError, match="bad where condition"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_non_numeric_where_constant(self, tmp_path, pairs):
        pairs["where.0"] = "val > abc"
        with pytest.raises(ConfigError, match="bad where condition"):
            load_param_config(_write_config(tmp_path, pairs))

    @pytest.mark.parametrize("constant", ["nan", "inf", "infinity", "1_0", "+5"])
    def test_where_constant_query_text_rejects(self, tmp_path, pairs, constant):
        pairs["where.0"] = f"val > {constant}"
        with pytest.raises(ConfigError, match="bad where condition"):
            load_param_config(_write_config(tmp_path, pairs))

    @pytest.mark.parametrize("constant,value", [("-5", -5), ("1e3", 1000.0)])
    def test_where_constant_query_text_accepts(self, tmp_path, pairs, constant, value):
        pairs["where.0"] = f"val > {constant}"
        loaded = load_param_config(_write_config(tmp_path, pairs))
        (cmp,) = loaded.query.predicate.conjuncts
        assert cmp.constant == value and type(cmp.constant) is type(value)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("geometry.partition.q", "3"),
            ("geometry.radius", "-5"),
            ("geometry.window.x", "9:9"),
            ("geometry.stride", "1"),
            ("geometry.mode", "nested"),
        ],
    )
    def test_key_the_plan_does_not_use(self, tmp_path, pairs, key, value):
        pairs[key] = value
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_param_config(_write_config(tmp_path, pairs))

    @pytest.mark.parametrize("text,key", [(GRID_Q, "template"), (HIER_Q, "geometry.mode")])
    def test_derived_key_missing(self, built, tmp_path, text, key):
        pairs = config_pairs(make_plan(built, text))
        del pairs[key]
        with pytest.raises(ConfigError, match=f"missing config key '{key}'"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_where_key_without_index(self, tmp_path, pairs):
        pairs["where.first"] = "val > 3"
        with pytest.raises(ConfigError, match="bad where key"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_where_keys_in_index_order(self, tmp_path, pairs):
        pairs["where.10"] = "val < 90"
        pairs["where.2"] = "val > 3"
        loaded = load_param_config(_write_config(tmp_path, pairs))
        assert loaded.query.predicate.render() == "val > 3 and val < 90"

    def test_where_attribute_mismatch(self, tmp_path, pairs):
        pairs["where.0"] = "temp > 3"
        with pytest.raises(ConfigError, match="attribute"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_bad_workers(self, tmp_path, pairs):
        pairs["workers"] = "0"
        with pytest.raises(ConfigError, match="workers"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_bad_stride(self, built, tmp_path):
        pairs = config_pairs(make_plan(built, WINDOW_Q))
        pairs["geometry.stride"] = "0"
        with pytest.raises(ConfigError, match="stride"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_bad_ring_mode(self, built, tmp_path):
        pairs = config_pairs(make_plan(built, HIER_Q))
        pairs["geometry.mode"] = "spiral"
        with pytest.raises(ConfigError, match="config key 'geometry.mode'"):
            load_param_config(_write_config(tmp_path, pairs))

    @pytest.mark.parametrize(
        "kind,ring_mode", [("circular", "nested"), ("hierarchical", "disjoint")]
    )
    def test_ring_mode_must_match_kind(self, built, tmp_path, kind, ring_mode):
        pairs = config_pairs(make_plan(built, HIER_Q))
        pairs["geometry.kind"] = kind
        pairs["geometry.mode"] = ring_mode
        with pytest.raises(ConfigError, match="config key 'geometry.mode'"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_negative_window_span(self, built, tmp_path):
        pairs = config_pairs(make_plan(built, WINDOW_Q))
        pairs["geometry.window.y"] = "1:-1"
        with pytest.raises(ConfigError, match="must be >= 0"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_bad_ring_step(self, built, tmp_path):
        pairs = config_pairs(make_plan(built, HIER_Q))
        pairs["geometry.step"] = "0"
        with pytest.raises(ConfigError, match="step must be >= 1"):
            load_param_config(_write_config(tmp_path, pairs))

    @pytest.mark.parametrize(
        "query, key, value, message",
        [
            (WINDOW_Q, "geometry.window.x", "1", "bad window spec '1' (want preceding:following)"),
            (
                GRID_Q,
                "array.element_type",
                "float32",
                "bad array schema in config: unsupported element type 'float32'",
            ),
            (GRID_Q, "mode", "fast", "unknown mode 'fast'"),
        ],
        ids=["window-spec", "element-type", "mode"],
    )
    def test_refused_value(self, built, tmp_path, query, key, value, message):
        pairs = config_pairs(make_plan(built, query))
        pairs[key] = value
        with pytest.raises(ConfigError) as info:
            load_param_config(_write_config(tmp_path, pairs))
        assert str(info.value) == message

    def test_unknown_geometry_kind(self, tmp_path, pairs):
        pairs["geometry.kind"] = "spiral"
        with pytest.raises(ConfigError, match="unknown geometry kind"):
            load_param_config(_write_config(tmp_path, pairs))

    @pytest.mark.parametrize("number", ["+1", "1_0", "1.0", "0x4", ""])
    @pytest.mark.parametrize(
        "query,key,template",
        [
            (GRID_Q, "geometry.partition.x", "{}"),
            (GRID_Q, "box.hi", "15,{}"),
            (GRID_Q, "array.dims", "x:0:15:{},y:0:15:4"),
            (GRID_Q, "workers", "{}"),
            (WINDOW_Q, "geometry.window.x", "1:{}"),
            (WINDOW_Q, "geometry.stride", "{}"),
            (HIER_Q, "geometry.radius", "{}"),
        ],
    )
    def test_integer_keys_use_query_grammar(
        self, built, tmp_path, query, key, template, number
    ):
        pairs = config_pairs(make_plan(built, query))
        pairs[key] = template.format(number)
        with pytest.raises(ConfigError, match=f"config key '{key}': bad integer"):
            load_param_config(_write_config(tmp_path, pairs))

    def test_negative_integers_load(self, tmp_path, pairs):
        pairs["array.dims"] = "x:-5:10:4,y:0:15:4"
        pairs["box.lo"] = "-5,0"
        pairs["box.hi"] = "10,15"
        del pairs["array.path"]
        loaded = load_param_config(_write_config(tmp_path, pairs))
        assert loaded.query.array.dims[0].start == -5
        assert loaded.query.box.lo == (-5, 0)

    def test_grid_missing_partition_dim(self, tmp_path, pairs):
        del pairs["geometry.partition.y"]
        with pytest.raises(ConfigError, match="missing config key"):
            load_param_config(_write_config(tmp_path, pairs))


def test_no_warning_straight_paths(built):
    # neither auto-holistic nor explicit-algebraic planning may warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_plan(built, CIRC_Q, "auto")
        make_plan(built, GRID_Q, "optimized")
        make_plan(built, CIRC_Q, "naive")
