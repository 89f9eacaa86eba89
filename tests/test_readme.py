"""The README's code examples run as written."""

import re
from pathlib import Path

from aqlmr import analyze, parse, plan
from conftest import build_array

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_python_block(heading: str) -> str:
    section = README.read_text().split(f"## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_snippet(tmp_path, monkeypatch, capsys):
    (tmp_path / "data").mkdir()
    built = build_array(tmp_path / "data", extents=(16, 16), chunks=(4, 4), fill="uniform")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(readme_python_block("Library use"), namespace)
    result = namespace["result"]
    query = analyze(
        parse("select stddev(val) from A circular as (radius 2 step 3)"), built.catalog
    )
    assert len(result.values) == plan(query).geometry.group_count
    assert result.counters.bytes_read == built.schema.nbytes
    out = capsys.readouterr().out.splitlines()
    assert out == [repr(result.values), repr(result.counters.snapshot())]
