"""The README's code examples run as written."""

import re
import shlex
from pathlib import Path

from aqlmr import analyze, parse, plan
from aqlmr.cli import main
from conftest import build_array

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(heading: str, lang: str) -> list[str]:
    section = README.read_text().split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", section, re.S | re.M)
    return [body for block_lang, body in blocks if block_lang == lang]


def run_readme_commands(heading: str) -> None:
    """Run the section's shell block, one ``aqlmr`` command a line."""
    for line in readme_blocks(heading, "sh")[0].replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        assert argv[0] == "aqlmr", line
        assert main(argv[1:]) == 0, line


def test_library_use_snippet(tmp_path, monkeypatch, capsys):
    (tmp_path / "data").mkdir()
    built = build_array(tmp_path / "data", extents=(16, 16), chunks=(4, 4), fill="uniform")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(readme_blocks("Library use", "python")[0], namespace)
    result = namespace["result"]
    query = analyze(
        parse("select stddev(val) from A circular as (radius 2 step 3)"), built.catalog
    )
    assert len(result.values) == plan(query).geometry.group_count
    assert result.counters.bytes_read == built.schema.nbytes
    out = capsys.readouterr().out.splitlines()
    assert out == [repr(result.values), repr(result.counters.snapshot())]


def test_parameter_file_example(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_readme_commands("Quick start")
    run_readme_commands("Parameter files")
    (example,) = readme_blocks("Parameter files", "")
    assert (tmp_path / "job.cfg").read_text() == example
