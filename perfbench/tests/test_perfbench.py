"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, section):
    proc = _bench(run.ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] == run.SETUP_PROBES + len(run.plan(workload, 3, tiny=True))
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if section == "end_to_end":
            assert m["value"] > 0, name
    facts = json.loads(run.summary_path(workload, 3, bool(trace)).read_text())
    assert facts["iterations"] == 1 and facts["wall_s"] > 0
    assert facts["samples_per_iteration"] == len(run.plan(workload, 3, tiny=True))


def test_corrupted_reference_count_drives_fail_ratio_above_zero():
    reference = run.load_reference()
    first = run.plan("cold-queries", 3, tiny=True)[0]
    reference[first.key] = reference[first.key].replace('"count": ', '"count": 10', 1)
    result = run.measure("cold-queries", 3, 0, trace=False, tiny=True, reference=reference)
    assert [c.command for c in result.failures] == [first]
    assert len(result.failures) / result.attempted > 0


def test_wrong_expected_checks_count_fails():
    commands = [dataclasses.replace(c, checks=c.checks + 1)
                for c in run.plan("smatrix-grid", 0, tiny=True)]
    it = run.run_iteration(commands, run.load_reference(), False, "test")
    assert it.children[0].failure.startswith("checks 1 (expected 2)")


def test_a_child_past_its_timeout_is_reported_as_timed_out():
    child = run.spawn(run.plan("smatrix-grid", 0)[0], False, "test", timeout=0.2)
    assert child.status is None
    assert child.failure.startswith("timed out")


def test_traced_spans_nest_and_count_work():
    result = run.measure("proof-orbits", 0, 0, trace=True, tiny=True)
    assert not result.failures
    metrics = run.per_layer(result.iterations[0])
    assert metrics["series.cleared_difference_degree.calls"][0] == 1
    assert metrics["lattice.weyl_orbit_count.calls"][0] == 6 * 2  # both sides of 6 rows
    assert metrics["lattice.grid_points"][0] > 0
    shares = sum(metrics[f"{layer}.share"][0] for layer in run.LAYERS + ("import",))
    assert 0 < shares <= 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(1, 11)) == (100, 10)
    assert run.tail(range(1, 41)) == (75, 30)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "cold-queries", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
