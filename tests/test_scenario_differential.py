"""tests/scenario_differential.py finds no difference between a tree and
itself, and finds one error text changed in a copy."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = [sys.executable, str(ROOT / "tests" / "scenario_differential.py")]


def _differential(*args):
    return subprocess.run([*SCRIPT, *args], capture_output=True, text=True, cwd=ROOT)


def test_the_scenario_differential_finds_no_difference_between_src_and_itself():
    done = _differential(str(ROOT / "src"), "--n", "20")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "126 scenario files, 252 runs: every outcome is identical\n"


def test_the_scenario_differential_finds_a_changed_no_flow_text(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    sessions = copy / "idak" / "sessions.py"
    source = sessions.read_text(encoding="utf-8")
    old = "has emitted no flow"
    assert source.count(old) == 1
    sessions.write_text(source.replace(old, "emitted nothing"), encoding="utf-8")
    done = _differential(str(copy), "--n", "20")
    assert done.returncode == 1, done.stdout + done.stderr
    assert "has emitted no flow" in done.stdout and "emitted nothing" in done.stdout
