"""The equivalence harness (scripts/equivalence.py) on its quick corpus."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "equivalence.py"


def run_harness(base: Path, change: Path, out: Path) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(SCRIPT), str(base), str(change), "--quick", "--out", str(out)]
    return subprocess.run(argv, capture_output=True, text=True, timeout=600)


def test_the_tree_matches_itself(tmp_path):
    done = run_harness(ROOT / "src", ROOT, tmp_path / "same.json")
    assert done.returncode == 0, done.stdout + done.stderr
    summary = done.stdout.splitlines()[-1]
    assert summary.startswith("equivalence: ") and " 0 differing;" in summary, summary
    assert (tmp_path / "same.json").exists()


def test_a_changed_counter_fails_and_is_named(tmp_path):
    mutant = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "aqlmr", mutant / "aqlmr", ignore=shutil.ignore_patterns("__pycache__"))
    engine = mutant / "aqlmr" / "engine.py"
    text = engine.read_text()
    assert "\nKEY_BYTES = 8\n" in text
    engine.write_text(text.replace("\nKEY_BYTES = 8\n", "\nKEY_BYTES = 9\n"))
    done = run_harness(ROOT / "src", mutant, tmp_path / "mutant.json")
    assert done.returncode == 1, done.stdout + done.stderr
    assert "counter: bytes_shuffled" in done.stdout
    assert " 0 counter," not in done.stdout.splitlines()[-1]
