"""The scripts run end to end and keep to the CLI's size bounds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dualcount.bounds import MAX_RANK
from dualcount.cli import MAX_N, MAX_RANDOM_DRAWS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_duality_sweep_prints_a_matched_table():
    proc = run_script("run_duality_sweep.py", "--pair", "sp-so", "--max-n", "2",
                      "--gamma", "Z:2")
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split() == ["gamma", "n=0", "n=1", "n=2"]
    # Z_2 into Sp(n) and SO(2n+1): n + 1 classes each
    assert row.split() == ["Z:2", "1", "2", "3"]


@pytest.mark.parametrize("args", [
    ["--max-n", str(MAX_N + 1)],
    ["--max-n", "-1"],
    ["--pair", "psp-spin", "--gamma", "Z:3", "--max-n", str(MAX_RANK + 1)],
])
def test_duality_sweep_over_the_bound_prints_no_table(args):
    proc = run_script("run_duality_sweep.py", *args)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "error:" in proc.stderr


def test_identity_suite_proves_every_run():
    proc = run_script("run_identity_suite.py", "--random", "1", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # 7 fixed instantiations, 3 propositions, 1 draw per KF family
    assert len(lines) == 14
    assert all(line.split()[:1] == ["ok"] for line in lines)
    assert any(line.split()[1:5] == ["PropY", "cleared", "deg/ord", "16"]
               for line in lines)


def test_identity_suite_over_the_draw_bound_prints_nothing():
    proc = run_script("run_identity_suite.py", "--random", str(MAX_RANDOM_DRAWS + 1))
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert str(MAX_RANDOM_DRAWS) in proc.stderr
