import json

import pytest

from aqlmr.cli import main
from aqlmr.planner import emit_param_config, load_param_config


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
        "workers=1\n"
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
        "dims,chunk", [("1_6x+8", "4x4"), ("16x8", "4x+4"), ("16x8.0", "4x4"), ("16x0x8", "4x4x4")]
    )
    def test_sizes_use_query_integers(self, tmp_path, capsys, dims, chunk):
        rc = main(
            ["gen-data", "--name", "A", "--dims", dims, "--chunk", chunk, "--out-dir", str(tmp_path)]
        )
        assert rc == 4
        assert "bad --" in capsys.readouterr().err
        assert not (tmp_path / "A.bin").exists()

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
        assert doc["workers"] == [1, 2]
        assert doc["ratios"]["map_output_records"] > 1
        assert doc["modes"]["naive"]["counters"]["map_output_records"] == 256
        assert isinstance(doc["modes"]["optimized"]["time"], float)

    @pytest.mark.parametrize("workers", ["1,x", "0", "2,-1"])
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


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_run_requires_query_or_config(self, capsys):
        assert main(["run"]) == 2
