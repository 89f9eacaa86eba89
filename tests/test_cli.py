import json
import math

import numpy as np
import pytest

from aqlmr.cli import main
from aqlmr.planner import emit_param_config, load_param_config
from conftest import build_array
from test_engine import record_reads, stale_file_size


@pytest.fixture
def data_dir(tmp_path):
    d = tmp_path / "data"
    rc = main(
        [
            "gen-data",
            "--name", "A",
            "--dims", "16x16",
            "--chunk", "4x4",
            "--fill", "ramp",
            "--out-dir", str(d),
        ]
    )
    assert rc == 0
    return d


GRID_Q = "select avg(val) from A grid as (partition by x 8, y 8)"


def _golden(specific: str, aggregator: str, box: str = "box.hi=15,15\nbox.lo=0,0") -> str:
    return (
        "# map/reduce job parameters\n"
        f"aggregator={aggregator}\n"
        "array=A\n"
        "array.attribute=val\n"
        "array.dims=x:0:15:4,y:0:15:4\n"
        "array.element_type=float64\n"
        "array.path={path}\n"
        f"{box}\n"
        f"{specific}"
    )


# translate output for four queries, one per template family, as the
# parameter-file format defines it; it must not drift
TRANSLATE_GOLDEN = [
    (
        "select avg(val) from A grid as (partition by x 4, y 4)",
        _golden(
            "geometry.kind=grid\ngeometry.partition.x=4\ngeometry.partition.y=4\n"
            "mode=optimized\ntemplate=grid_opt\n",
            "avg",
        ),
    ),
    (
        "select sum(val) from between (A, 2, 2, 13, 13) where val > 10 fixed window as"
        " (partition by x 1 preceding and 1 following, y 1 preceding and 1 following"
        " stride 2)",
        _golden(
            "geometry.kind=sliding\ngeometry.stride=2\ngeometry.window.x=1:1\n"
            "geometry.window.y=1:1\nmode=optimized\ntemplate=sliding_opt\n"
            "where.0=val > 10\n",
            "sum",
            "box.hi=13,13\nbox.lo=2,2",
        ),
    ),
    (
        "select stddev(val) from A hierarchical as (radius 1 step 2)",
        _golden(
            "geometry.kind=hierarchical\ngeometry.mode=nested\ngeometry.radius=1\n"
            "geometry.step=2\nmode=optimized\ntemplate=ring_opt\n",
            "stddev",
        ),
    ),
    (
        "select median(val) from A circular as (radius 1 step 2)",
        _golden(
            "geometry.kind=circular\ngeometry.mode=disjoint\ngeometry.radius=1\n"
            "geometry.step=2\nmode=naive\ntemplate=ring_naive\n",
            "median",
        ),
    ),
]


class TestGenData:
    def test_writes_both_files(self, data_dir, capsys):
        assert (data_dir / "A.bin").stat().st_size == 16 * 16 * 8
        meta = json.loads((data_dir / "A.meta.json").read_text())
        assert meta["name"] == "A"
        assert meta["dims"][0]["chunk"] == 4

    def test_bad_dims_exit_code(self, tmp_path, capsys):
        rc = main(
            ["gen-data", "--name", "A", "--dims", "axb", "--chunk", "2", "--out-dir", str(tmp_path)]
        )
        assert rc == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dims,chunk",
        [
            ("1_6x+8", "4x4"),
            ("16x8", "4x+4"),
            ("16x8.0", "4x4"),
            ("16x0x8", "4x4x4"),
            pytest.param("1" + "0" * 5000 + "x8", "4x4", id="5001-digits"),
        ],
    )
    def test_sizes_use_query_integers(self, tmp_path, capsys, dims, chunk):
        rc = main(
            ["gen-data", "--name", "A", "--dims", dims, "--chunk", chunk, "--out-dir", str(tmp_path)]
        )
        assert rc == 4
        assert "bad --" in capsys.readouterr().err
        assert not (tmp_path / "A.bin").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--dims", "8x8", "--chunk", "4x4", "--dim-names", "x"],
                "--dim-names needs 2 comma-separated names",
            ),
            (
                ["--dims", "8x8", "--chunk", "4"],
                "--chunk must have the same number of dimensions as --dims",
            ),
        ],
        ids=["dim-names", "chunk"],
    )
    def test_dimension_count_mismatch_is_exit_4(self, tmp_path, capsys, flags, message):
        rc = main(["gen-data", "--name", "A", *flags, "--out-dir", str(tmp_path / "data")])
        assert rc == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "data").exists()

    def test_size_past_the_address_space(self, tmp_path, capsys):
        dims = "1000000000000000000000x8"
        rc = main(["gen-data", "--name", "H", "--dims", dims, "--chunk", "4x4", "--out-dir", str(tmp_path)])
        assert rc == 4
        assert "too large to generate" in capsys.readouterr().err
        assert not (tmp_path / "H.bin").exists()
        assert not (tmp_path / "H.meta.json").exists()

    @pytest.mark.parametrize(
        "fill",
        ["constant:1e20", "constant:nan", "constant:1e400", "constant:-9223372036854775809",
         "constant:9223372036854775808", "constant:1.5", "constant:+5", "constant:1_0"],
    )
    def test_int64_constant_must_be_an_int64(self, tmp_path, capsys, fill):
        rc = main(
            ["gen-data", "--name", "K", "--dims", "4", "--chunk", "2", "--element-type", "int64",
             "--fill", fill, "--out-dir", str(tmp_path)]
        )
        assert rc == 4
        assert "bad constant fill" in capsys.readouterr().err
        assert not (tmp_path / "K.bin").exists()
        assert not (tmp_path / "K.meta.json").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--element-type", "int64", "--fill", "constant:1e20"], ["--fill", "waves"],
         ["--seed", "-1"], ["--dims", "1000000000000000000000x8"]],
        ids=["int64-constant", "fill", "seed", "size"],
    )
    def test_refusal_leaves_no_directory(self, tmp_path, capsys, flags):
        out = tmp_path / "new" / "data"
        args = ["gen-data", "--name", "K", "--dims", "4x4", "--chunk", "2x2", *flags]
        assert main([*args, "--out-dir", str(out)]) == 4
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "element_type, fill, value",
        [
            ("int64", "constant:-9223372036854775808", -(2**63)),
            ("int64", "constant:9007199254740993", 2**53 + 1),
            ("int64", "constant:1e3", 1000),
            ("float64", "constant:-2.5", -2.5),
            ("float64", "constant:9007199254740993", 2.0**53),
        ],
    )
    def test_constant_is_a_query_number(self, tmp_path, element_type, fill, value):
        rc = main(
            ["gen-data", "--name", "K", "--dims", "4", "--chunk", "2", "--element-type",
             element_type, "--fill", fill, "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        assert np.fromfile(tmp_path / "K.bin", element_type).tolist() == [value] * 4

    @pytest.mark.parametrize("seed", ["-1", "1_0", "+5", "1.0", "x"])
    def test_bad_seed_is_exit_4(self, tmp_path, capsys, seed):
        rc = main(
            ["gen-data", "--name", "K", "--dims", "4", "--chunk", "2", "--fill", "uniform",
             "--seed", seed, "--out-dir", str(tmp_path)]
        )
        assert rc == 4
        assert "bad --seed" in capsys.readouterr().err
        assert not (tmp_path / "K.bin").exists()
        assert not (tmp_path / "K.meta.json").exists()

    def test_custom_names_and_type(self, tmp_path):
        rc = main(
            [
                "gen-data",
                "--name", "T",
                "--dims", "8",
                "--chunk", "4",
                "--dim-names", "t",
                "--element-type", "int64",
                "--attribute", "temp",
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        meta = json.loads((tmp_path / "T.meta.json").read_text())
        assert meta["element_type"] == "int64"
        assert meta["attribute"] == "temp"
        assert meta["dims"][0]["name"] == "t"


class TestExplain:
    def test_prints_resolution(self, data_dir, capsys):
        rc = main(["explain", GRID_Q, "--data-dir", str(data_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "kind: grid" in out
        assert "groups: 4" in out

    def test_parse_error_is_exit_2(self, data_dir, capsys):
        rc = main(["explain", "select avg(val) from A", "--data-dir", str(data_dir)])
        assert rc == 2
        assert "missing shape clause" in capsys.readouterr().err

    def test_semantic_error_is_exit_3(self, data_dir, capsys):
        rc = main(["explain", GRID_Q.replace("from A", "from Zed"), "--data-dir", str(data_dir)])
        assert rc == 3
        assert "unknown array" in capsys.readouterr().err


class TestRun:
    def test_query_run_prints_groups(self, data_dir, capsys):
        rc = main(["run", "--query", GRID_Q, "--data-dir", str(data_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "groups: 4" in out
        assert "map_input_records: 256" in out

    def test_report_json(self, data_dir, tmp_path, capsys):
        report = tmp_path / "r.json"
        rc = main(
            [
                "run",
                "--query", GRID_Q,
                "--data-dir", str(data_dir),
                "--workers", "2",
                "--report", str(report),
            ]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["query"] == GRID_Q
        assert doc["mode"] == "optimized"
        assert doc["group_count"] == 4
        assert len(doc["groups"]) == 4
        assert doc["groups"][0]["extent"] == "(0,0)-(7,7)"
        assert doc["counters"]["map_input_records"] == 256
        assert set(doc["timings"]) == {"map", "shuffle", "reduce", "total"}

    def test_null_groups_in_report(self, data_dir, tmp_path):
        report = tmp_path / "r.json"
        rc = main(
            [
                "run",
                "--query",
                "select avg(val) from A where val < 8 grid as (partition by x 8, y 8)",
                "--data-dir", str(data_dir),
                "--report", str(report),
            ]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        values = [g["value"] for g in doc["groups"]]
        assert values[0] is not None
        assert values[1:] == [None, None, None]

    def test_missing_data_dir_with_query(self, data_dir, capsys):
        rc = main(["run", "--query", GRID_Q])
        assert rc == 2

    def test_runtime_error_is_exit_4(self, data_dir, capsys):
        (data_dir / "A.bin").unlink()
        rc = main(["run", "--query", GRID_Q, "--data-dir", str(data_dir)])
        assert rc == 4
        assert "error:" in capsys.readouterr().err

    def test_too_long_data_file_is_exit_4(self, data_dir, capsys):
        path = data_dir / "A.bin"
        path.write_bytes(path.read_bytes() + bytes(800))
        rc = main(["run", "--query", GRID_Q, "--data-dir", str(data_dir)])
        assert rc == 4
        assert "does not match metadata" in capsys.readouterr().err

    def test_file_shrinking_between_bands_is_exit_4(self, data_dir, capsys, monkeypatch):
        path = data_dir / "A.bin"
        path.write_bytes(path.read_bytes()[:-8])
        stale_file_size(monkeypatch, 16 * 16 * 8)
        reads = record_reads(monkeypatch)
        rc = main(["run", "--query", GRID_Q, "--data-dir", str(data_dir)])
        assert rc == 4
        assert "short read" in capsys.readouterr().err
        # four bands of four 4 x 4 splits, each one read; the last is short
        assert reads == [(0, 512), (512, 512), (1024, 512), (1536, 504)]

    def test_downgrade_warning_on_stderr(self, data_dir, capsys):
        rc = main(
            [
                "run",
                "--query", "select median(val) from A grid as (partition by x 8, y 8)",
                "--data-dir", str(data_dir),
                "--mode", "optimized",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "holistic aggregator cannot run optimized" in captured.err
        assert "groups: 4" in captured.out


class TestTranslateAndConfigRun:
    def test_translate_then_run_matches_direct(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        rc = main(
            [
                "translate", GRID_Q,
                "--data-dir", str(data_dir),
                "--mode", "naive",
                "--out", str(cfg),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "template: grid_naive" in out
        assert f"wrote {cfg}" in out
        text = cfg.read_text()
        assert "geometry.partition.x=8" in text
        assert "mode=naive" in text

        r1 = tmp_path / "from_cfg.json"
        r2 = tmp_path / "direct.json"
        assert main(["run", "--config", str(cfg), "--report", str(r1)]) == 0
        assert (
            main(
                [
                    "run",
                    "--query", GRID_Q,
                    "--data-dir", str(data_dir),
                    "--mode", "naive",
                    "--report", str(r2),
                ]
            )
            == 0
        )
        d1, d2 = json.loads(r1.read_text()), json.loads(r2.read_text())
        assert d1["groups"] == d2["groups"]
        assert d1["counters"] == d2["counters"]

    def test_bad_config_is_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode=warp\n")
        rc = main(["run", "--config", str(cfg)])
        assert rc == 3

    def test_bad_where_constant_is_exit_3(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        main(["translate", GRID_Q, "--data-dir", str(data_dir), "--out", str(cfg)])
        cfg.write_text(cfg.read_text() + "where.0=val > abc\n")
        capsys.readouterr()
        rc = main(["run", "--config", str(cfg)])
        assert rc == 3
        assert "bad where condition" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["geometry.partition.q=3", "geometry.radius=-5", "geometry.window.x=9:9"]
    )
    def test_key_a_grid_plan_does_not_use_is_exit_3(self, data_dir, tmp_path, capsys, line):
        cfg = tmp_path / "job.cfg"
        main(["translate", GRID_Q, "--data-dir", str(data_dir), "--out", str(cfg)])
        cfg.write_text(cfg.read_text() + line + "\n")
        capsys.readouterr()
        rc = main(["run", "--config", str(cfg)])
        assert rc == 3
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,key", [("geometry.window.x=+1:1_0", "geometry.window.x"), ("box.hi=7,+7", "box.hi")]
    )
    def test_non_grammar_integer_is_exit_3(self, data_dir, tmp_path, capsys, line, key):
        cfg = tmp_path / "job.cfg"
        query = (
            "select sum(val) from between (A, 0, 0, 7, 7) fixed window as "
            "(partition by x 1 preceding and 1 following, y 1 preceding and 1 following)"
        )
        main(["translate", query, "--data-dir", str(data_dir), "--out", str(cfg)])
        name = line.partition("=")[0]
        kept = [l for l in cfg.read_text().splitlines() if not l.startswith(name + "=")]
        cfg.write_text("\n".join(kept + [line]) + "\n")
        capsys.readouterr()
        rc = main(["run", "--config", str(cfg)])
        assert rc == 3
        assert f"config key '{key}'" in capsys.readouterr().err

    def test_config_without_data_path_is_exit_4(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        main(["translate", GRID_Q, "--data-dir", str(data_dir), "--out", str(cfg)])
        kept = [l for l in cfg.read_text().splitlines() if not l.startswith("array.path=")]
        cfg.write_text("\n".join(kept) + "\n")
        capsys.readouterr()
        rc = main(["run", "--config", str(cfg)])
        assert rc == 4
        assert "array 'A' has no data file" in capsys.readouterr().err

    def test_where_constants_round_trip(self, data_dir, tmp_path):
        # every constant query text can say is written in a form that loads back
        cfg = tmp_path / "job.cfg"
        query = (
            "select sum(val) from A where val > -1e300 and val < 1.5e-7 and val <> 123456789012"
            " and val >= -0.0 grid as (partition by x 8, y 8)"
        )
        assert main(["translate", query, "--data-dir", str(data_dir), "--out", str(cfg)]) == 0
        again = emit_param_config(load_param_config(cfg), tmp_path / "again.cfg")
        assert again.read_bytes() == cfg.read_bytes()

    @pytest.mark.parametrize("query,expected", TRANSLATE_GOLDEN)
    def test_translate_output_is_stable(self, data_dir, tmp_path, query, expected):
        cfg = tmp_path / "job.cfg"
        assert main(["translate", query, "--data-dir", str(data_dir), "--out", str(cfg)]) == 0
        assert cfg.read_text() == expected.format(path=data_dir / "A.bin")
        # loading the file and writing it back reproduces it byte for byte
        again = emit_param_config(load_param_config(cfg), tmp_path / "again.cfg")
        assert again.read_bytes() == cfg.read_bytes()

    def test_config_path_is_relative_to_the_file(self, data_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "other").mkdir()
        rc = main(["translate", GRID_Q, "--data-dir", "./data", "--out", "sub/job.cfg"])
        assert rc == 0
        assert "array.path=../data/A.bin" in (tmp_path / "sub" / "job.cfg").read_text()
        monkeypatch.chdir(tmp_path / "other")
        capsys.readouterr()
        assert main(["run", "--config", "../sub/job.cfg"]) == 0
        assert "map_input_records: 256" in capsys.readouterr().out

    def test_config_against_catalog(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        main(["translate", GRID_Q, "--data-dir", str(data_dir), "--out", str(cfg)])
        capsys.readouterr()
        rc = main(["run", "--config", str(cfg), "--data-dir", str(data_dir)])
        assert rc == 0


class TestBench:
    def test_reports_ratios(self, data_dir, tmp_path, capsys):
        report = tmp_path / "bench.json"
        rc = main(
            [
                "bench", GRID_Q,
                "--data-dir", str(data_dir),
                "--workers", "1,2",
                "--report", str(report),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        # one run per mode, whatever --workers lists
        assert [l.split(":")[0] for l in out.splitlines() if l.startswith("mode=")] == [
            "mode=naive",
            "mode=optimized",
        ]
        assert "map_output_records ratio" in out
        doc = json.loads(report.read_text())
        assert doc["ratios"]["map_output_records"] > 1
        assert doc["modes"]["naive"]["counters"]["map_output_records"] == 256
        assert isinstance(doc["modes"]["optimized"]["time"], float)

    @pytest.mark.parametrize("workers", ["1,x", "0", "2,-1", "1,1_0"])
    def test_bad_workers_list_is_exit_4(self, data_dir, capsys, workers):
        rc = main(["bench", GRID_Q, "--data-dir", str(data_dir), "--workers", workers])
        assert rc == 4
        assert "bad --workers" in capsys.readouterr().err

    def test_holistic_is_exit_3(self, data_dir, capsys):
        rc = main(
            [
                "bench",
                "select median(val) from A grid as (partition by x 8, y 8)",
                "--data-dir", str(data_dir),
            ]
        )
        assert rc == 3
        assert "holistic" in capsys.readouterr().err

    def test_non_finite_divergence_is_exit_4(self, tmp_path, capsys):
        """The naive pairs add 1e308 + 1e308 to inf, then -inf to nan; the
        optimized kernel adds each column first and reads -inf. bench must
        not let a nan or an infinity pass as close."""
        values = np.array([[1e308, 1e308], [-math.inf, 1.0]])
        build_array(tmp_path, extents=(2, 2), chunks=(2, 2), values=values)
        query = (
            "select sum(val) from A fixed window as (partition by"
            " x 0 preceding and 1 following, y 0 preceding and 1 following)"
        )
        assert main(["bench", query, "--data-dir", str(tmp_path)]) == 4
        assert "diverge" in capsys.readouterr().err

    def test_equal_infinities_agree(self, tmp_path):
        build_array(tmp_path, extents=(3,), chunks=(3,), values=np.array([math.inf, 1.0, 2.0]))
        query = "select sum(val) from A fixed window as (partition by x 1 preceding and 1 following)"
        assert main(["bench", query, "--data-dir", str(tmp_path)]) == 0


def _strict_json(path) -> dict:
    """The file as strict JSON: the bare tokens Infinity, -Infinity and NaN
    are refused."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


class TestStrictJsonReports:
    def test_run_report_writes_non_finite_values_as_strings(self, tmp_path, capsys):
        build_array(tmp_path, extents=(4, 4), chunks=(2, 2), fill="constant:1e308")
        report = tmp_path / "r.json"
        query = "select sum(val) from A grid as (partition by x 4, y 4)"
        rc = main(["run", "--query", query, "--data-dir", str(tmp_path), "--report", str(report)])
        assert rc == 0
        assert _strict_json(report)["groups"][0]["value"] == "inf"

    def test_run_report_writes_inf_minus_inf_and_nan_as_strings(self, tmp_path, capsys):
        # one 2x2 block each: inf, -inf, inf + -inf (nan) and a finite sum
        inf = np.inf
        values = np.array([[inf, 0, -inf, 0], [0, 0, 0, 0], [inf, -inf, 1, 2], [0, 0, 3, 4]])
        build_array(tmp_path, extents=(4, 4), chunks=(2, 2), values=values)
        report = tmp_path / "r.json"
        query = "select sum(val) from A grid as (partition by x 2, y 2)"
        for mode in ("naive", "optimized"):
            args = ["run", "--query", query, "--data-dir", str(tmp_path), "--mode", mode]
            assert main([*args, "--report", str(report)]) == 0
            doc = _strict_json(report)
            assert [g["value"] for g in doc["groups"]] == ["inf", "-inf", "nan", 10.0]
            assert all(math.isfinite(t) for t in doc["timings"].values())

    def test_bench_ratio_is_one_when_neither_mode_emits(self, data_dir, tmp_path, capsys):
        report = tmp_path / "bench.json"
        query = "select sum(val) from A where val < 0 grid as (partition by x 8, y 8)"
        rc = main(["bench", query, "--data-dir", str(data_dir), "--report", str(report)])
        assert rc == 0
        assert _strict_json(report)["ratios"] == {
            "map_output_records": 1.0,
            "bytes_shuffled": 1.0,
        }
        out = capsys.readouterr().out
        assert "map_output_records ratio (naive/optimized): 1.00" in out
        assert "bytes_shuffled ratio (naive/optimized): 1.00" in out


DATA_DIR_COMMANDS = {
    "explain": lambda d, tmp: ["explain", GRID_Q, "--data-dir", d],
    "translate": lambda d, tmp: ["translate", GRID_Q, "--data-dir", d, "--out", str(tmp / "j.cfg")],
    "run": lambda d, tmp: ["run", "--query", GRID_Q, "--data-dir", d],
    "bench": lambda d, tmp: ["bench", GRID_Q, "--data-dir", d],
}


class TestDataDir:
    @pytest.mark.parametrize("command", DATA_DIR_COMMANDS)
    @pytest.mark.parametrize("target", ["missing", "file"])
    def test_missing_data_dir_is_exit_4(self, tmp_path, capsys, command, target):
        path = tmp_path / target
        if target == "file":
            path.write_text("")
        rc = main(DATA_DIR_COMMANDS[command](str(path), tmp_path))
        assert rc == 4
        assert f"data directory not found: {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", DATA_DIR_COMMANDS)
    def test_empty_data_dir_is_exit_3(self, tmp_path, capsys, command):
        (tmp_path / "empty").mkdir()
        rc = main(DATA_DIR_COMMANDS[command](str(tmp_path / "empty"), tmp_path))
        assert rc == 3
        assert "unknown array 'A'" in capsys.readouterr().err


# past a double's range (and int()'s 4300-digit limit)
HUGE = "1" + "0" * 400
LONG = "1" + "0" * 5000


class TestOutOfRangeNumbers:
    @pytest.mark.parametrize("number", [HUGE, LONG], ids=["401-digits", "5001-digits"])
    def test_query_text_is_exit_2(self, data_dir, capsys, number):
        query = f"select sum(val) from A where val < {number} grid as (partition by x 8, y 8)"
        assert main(["run", "--query", query, "--data-dir", str(data_dir)]) == 2
        assert "is out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,forged",
        [("where.0=val > 10", f"where.0=val < {HUGE}"), ("box.hi=15,15", f"box.hi=15,{LONG}")],
        ids=["where", "box"],
    )
    def test_parameter_file_is_exit_3(self, data_dir, tmp_path, capsys, line, forged):
        cfg = tmp_path / "job.cfg"
        query = "select sum(val) from A where val > 10 grid as (partition by x 8, y 8)"
        assert main(["translate", query, "--data-dir", str(data_dir), "--out", str(cfg)]) == 0
        cfg.write_text(cfg.read_text().replace(line, forged))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg)]) == 3
        assert "is out of range" in capsys.readouterr().err


class TestWorkers:
    """--workers selects nothing, but translate and run check it as bench does."""

    @pytest.mark.parametrize("workers", ["0", "-1", "1_0", "+2", "x"])
    @pytest.mark.parametrize("command", ["translate", "run"])
    def test_bad_count_is_exit_4(self, data_dir, tmp_path, capsys, command, workers):
        cfg = tmp_path / "job.cfg"
        argv = ["translate", GRID_Q, "--out", str(cfg)]
        if command == "run":
            argv = ["run", "--query", GRID_Q]
        rc = main(argv + ["--data-dir", str(data_dir), "--workers", workers])
        assert rc == 4
        assert "bad --workers" in capsys.readouterr().err
        assert not cfg.exists()

    def test_translate_writes_no_workers_key(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        argv = ["translate", GRID_Q, "--data-dir", str(data_dir), "--out", str(cfg)]
        assert main(argv + ["--workers", "3"]) == 0
        assert "workers" not in cfg.read_text()
        assert main(["run", "--config", str(cfg), "--workers", "2"]) == 0


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_run_requires_query_or_config(self, capsys):
        assert main(["run"]) == 2
