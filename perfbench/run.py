"""Benchmark of the dualcount CLI: end-to-end metrics, or per-layer metrics traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Every operation is one run of the real CLI entry point ``cli.main`` in a fresh
child process (``perfbench/child.py``), with ``PYTHONPATH`` pointing at this
checkout's ``src``.  The benchmark is a closed loop with one client: it starts
the next child only after the previous one has exited and its output was
checked, and it runs no threads or pools of its own.  It runs the workload's
command list once, and again while one more iteration as long as the last would
end within ``--seconds``, and reports medians over those iterations.  Before
the loop it starts SETUP_PROBES import-only children, so that set-up time is a
median over several samples in every workload.

Every child's output is checked: exit status 0, stdout byte-identical to the
reference in ``reference.json`` (taken from the seed commit), the expected
``checks`` count and no ``failures`` for verify suites, and equal counts on
both sides of each dual pair in cold-queries.  A child that fails any check
counts in ``failed``; ``fail_ratio`` is failed / attempted.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` the children wrap the public layer functions and
the last line carries the per-layer metrics instead, and the spans of the run
are written as JSON lines to ``perfbench/out/spans-WORKLOAD-SEED.jsonl``.
Either way the run's wall time, iteration count, tail percentile and a digest of
its stdout go to ``perfbench/out/summary-WORKLOAD-SEED-traceT.json``, which
``report.py`` reads.
``--tiny`` swaps in small inputs with the same structure, for the tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_PROBES = 5
# a safety stop, far above any child of a correct program: a child still
# running after this long is killed and counts as failed ("timed out")
CHILD_TIMEOUT_S = 150

WORKLOADS = ("count-sweep", "smatrix-grid", "proof-orbits", "cold-queries")

# -- workload plans -------------------------------------------------------------

# the CLI's duality catalogue: cyclic to order 12, binary dihedral to index 6,
# and the three exceptional binary polyhedral groups
GAMMAS = (tuple(f"Z:{m}" for m in range(1, 13))
          + tuple(f"Dhat:{m}" for m in range(2, 7))
          + ("That", "Ohat", "Ihat"))
# dual target families; PSp and Spin counts are not covered for binary
# dihedral sources (exit 3), so that pair leaves them out
DUAL_FAMILIES = (
    ("Sp", "SO_odd", GAMMAS),
    ("SU", "PU", GAMMAS),
    ("PSp", "Spin_odd", tuple(g for g in GAMMAS if not g.startswith("Dhat"))),
)
QUERY_NS = (1, 2, 3)
# 16 dual pairs give 32 processes per iteration, so the tail is p68
COLD_PAIRS = 16
COLD_PAIRS_TINY = 2

# duality to n = 7 instead of the default 10, so that two iterations fit into
# a run: counting still does three quarters of the work (over 90% at n = 10,
# where one iteration takes about 40 s)
COUNT_DUALITY = ("verify", "duality", "--max-n", "7")

# identity draws change the work by about +-20% between CLI seeds, more than
# the bound on wall_s, so proof-orbits fixes the draw (seed 7, 12 identities)
PROOF_IDENTITIES = ("verify", "identities", "--random", "3", "--seed", "7")
PROOF_LATTICE = ("verify", "zn-lattice", "--max-rank", "7", "--max-n", "5")


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    checks: int | None = None  # expected "checks" of a verify report
    partner: int | None = None  # index of the dual command with the same count

    @property
    def key(self) -> str:
        return " ".join(self.args)


def cold_query_pool():
    """Every (left family, right family, gamma, n) a cold query may draw."""
    return [(left, right, g, n)
            for left, right, gammas in DUAL_FAMILIES
            for g in gammas for n in QUERY_NS]


def plan(workload: str, seed: int, tiny: bool = False) -> list[Command]:
    """The command list of one iteration; only cold-queries depends on seed."""
    if workload == "count-sweep":
        if tiny:
            return [Command(("verify", "duality", "--gamma", "Ohat", "--max-n", "2"), 9),
                    Command(("verify", "refined", "--max-n", "1"), 3)]
        return [Command(COUNT_DUALITY, 344), Command(("verify", "refined"), 13)]
    if workload == "smatrix-grid":
        if tiny:
            return [Command(("verify", "smatrix", "--type", "A1", "--max-n", "1"), 1)]
        return [Command(("verify", "smatrix"), 22)]
    if workload == "proof-orbits":
        if tiny:
            return [Command(("verify", "identities", "--prop", "KF1",
                             "--params", "1;1;3;1,1,1"), 1),
                    Command(("verify", "zn-lattice", "--max-rank", "1",
                             "--max-n", "2"), 6)]
        return [Command(PROOF_IDENTITIES, 12), Command(PROOF_LATTICE, 185)]
    if workload == "cold-queries":
        picks = random.Random(seed).sample(
            cold_query_pool(), COLD_PAIRS_TINY if tiny else COLD_PAIRS)
        commands = []
        for left, right, g, n in picks:
            commands.append(Command(("count", "--gamma", g, "--target", left, "--n", str(n))))
            commands.append(Command(("count", "--gamma", g, "--target", right, "--n", str(n)),
                                    partner=len(commands) - 1))
        return commands
    raise ValueError(f"unknown workload {workload!r}")


# -- children -------------------------------------------------------------


@dataclass
class Child:
    """One finished child process and what the checks made of it."""

    command: Command | None  # None for a set-up probe
    status: int | None  # None when killed after CHILD_TIMEOUT_S
    stdout: str
    latency_s: float  # spawn to exit
    setup_s: float | None  # spawn to dualcount.cli imported
    records: list = field(default_factory=list)  # spans and cache lines
    failure: str | None = None


def _child_env():
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def spawn(command: Command | None, trace: bool, run_id: str,
          timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one child to completion and read its record file."""
    OUT.mkdir(exist_ok=True)
    record = OUT / "child.jsonl"
    record.unlink(missing_ok=True)
    args = command.args if command else ()
    argv = [sys.executable, str(HERE / "child.py"), str(record),
            "1" if trace else "0", run_id, *args]
    start = time.monotonic()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_child_env(), cwd=ROOT) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
            status = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            status = None
    latency = time.monotonic() - start
    child = Child(command, status, out.decode(), latency, None)
    try:
        lines = [json.loads(line) for line in record.read_text().splitlines()]
    except FileNotFoundError:
        lines = []
    if lines and "imported" in lines[0]:
        child.setup_s = lines[0]["imported"] - start
        if Path(lines[0]["src"]) != SRC / "dualcount":
            child.failure = f"imported dualcount from {lines[0]['src']}, not {SRC}"
        child.records = lines[1:]
    if status is None:
        child.failure = f"timed out: killed after {timeout} s"
    elif status != 0:
        child.failure = f"exit status {status}: {err.decode()[-300:].strip()}"
    elif child.setup_s is None:
        child.failure = "no record written"
    return child


def check(child: Child, reference: dict, siblings: list[Child]) -> None:
    """Set child.failure if the output differs from what the seed commit gave."""
    cmd = child.command
    if child.failure or cmd is None:
        return
    if child.stdout != reference.get(cmd.key):
        child.failure = f"stdout differs from the reference: {child.stdout[:200]!r}"
        return
    report = json.loads(child.stdout)
    if cmd.checks is not None:
        if report["failures"] or report["checks"] != cmd.checks:
            child.failure = (f"checks {report['checks']} (expected {cmd.checks}), "
                             f"{len(report['failures'])} failures")
    # a failed partner is already counted; its stdout may not even be JSON
    if cmd.partner is not None and not siblings[cmd.partner].failure:
        mine = report["rows"][0]["count"]
        other = json.loads(siblings[cmd.partner].stdout)["rows"][0]["count"]
        if mine != other:
            child.failure = f"dual counts differ: {other} vs {mine}"


@dataclass
class Iteration:
    children: list[Child]
    wall_s: float  # first spawn to last verified result


def run_iteration(commands, reference, trace, run_id) -> Iteration:
    start = time.monotonic()
    children = []
    for i, cmd in enumerate(commands):
        child = spawn(cmd, trace, f"{run_id}/{i}")
        check(child, reference, children)
        children.append(child)
        if child.status is None:
            break
    return Iteration(children, time.monotonic() - start)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    probes: list[Child]
    iterations: list[Iteration]
    cpu_s: float  # user + system of the iterations' children, per iteration
    peak_rss_mb: float

    @property
    def children(self) -> list[Child]:
        return [c for it in self.iterations for c in it.children]

    @property
    def attempted(self) -> int:
        return len(self.probes) + len(self.children)

    @property
    def failures(self) -> list[Child]:
        return [c for c in self.probes + self.children if c.failure]


def measure(workload, seed, seconds, trace, tiny=False, reference=None) -> Run:
    """Set-up probes, then the closed loop over the workload's commands."""
    reference = load_reference() if reference is None else reference
    commands = plan(workload, seed, tiny)
    probes = [spawn(None, False, f"{workload}/{seed}/probe{i}") for i in range(SETUP_PROBES)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    loop_start = time.monotonic()
    iterations = []
    while True:
        it = run_iteration(commands, reference, trace, f"{workload}/{seed}/{len(iterations)}")
        iterations.append(it)
        # start another iteration only if one as long as the last ends in time
        if (any(c.status is None for c in it.children)
                or time.monotonic() - loop_start + it.wall_s > seconds):
            break
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return Run(workload, seed, trace, probes, iterations, cpu / len(iterations),
               after.ru_maxrss / 1024)


# -- end-to-end metrics ---------------------------------------------------------


def tail(samples):
    """Highest percentile with at least ten samples beyond it, as (pct, value).

    With ten samples or fewer no percentile has ten beyond it; the maximum
    (pct 100) is reported instead.
    """
    xs = sorted(samples)
    if len(xs) <= 10:
        return 100, xs[-1]
    rank = len(xs) - 10  # the rank-th smallest has exactly ten above it
    return math.floor(100 * rank / len(xs)), xs[rank - 1]


def _latencies_ms(it: Iteration) -> list[float]:
    return [c.latency_s * 1000 for c in it.children]


def end_to_end(run: Run) -> dict:
    # latency statistics are taken per iteration, so that the tail percentile
    # depends on the workload's command count and not on how many iterations fit
    setups = [c.setup_s for c in run.probes + run.children if c.setup_s is not None]
    return {
        "wall_s": (statistics.median(it.wall_s for it in run.iterations), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "cpu_s": (run.cpu_s, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "query_p50_ms": (statistics.median(
            statistics.median(_latencies_ms(it)) for it in run.iterations), "ms"),
        "query_tail_ms": (statistics.median(
            tail(_latencies_ms(it))[1] for it in run.iterations), "ms"),
    }


# -- per-layer metrics ------------------------------------------------------------

LAYERS = ("counting", "grouprep", "series", "lattice", "affine", "cli")
ERROR_PROBES = ("affine.verify_s_conjugation", "affine.unitarity_error",
                "affine.symmetry_error", "affine.charge_conjugation")


class SpanStats:
    """Per-function aggregates over the spans of one iteration."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)  # calls not nested in the same function
        self.max_call_s = defaultdict(float)
        self.values = defaultdict(list)
        self.outer_values = defaultdict(list)
        self.build_s = 0.0  # character_table calls that missed the cache
        self.cache = defaultdict(lambda: [0, 0])  # name -> [hits, misses]

    def add_child(self, records):
        spans = [r for r in records if "name" in r]
        covered = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        for s, cov in zip(spans, covered):
            name, dur = s["name"], s["end"] - s["start"]
            self.calls[name] += 1
            self.self_s[name] += dur - cov
            self.max_call_s[name] = max(self.max_call_s[name], dur)
            if s["value"] is not None:
                self.values[name].append(s["value"])
            if name == "grouprep.character_table" and s["value"]:
                self.build_s += dur
            parent = s["parent"]
            while parent is not None and spans[parent]["name"] != name:
                parent = spans[parent]["parent"]
            if parent is None:
                self.outer_s[name] += dur
                if s["value"] is not None:
                    self.outer_values[name].append(s["value"])
        for r in records:
            if "cache" in r:
                self.cache[r["cache"]][0] += r["hits"]
                self.cache[r["cache"]][1] += r["misses"]

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def span_stats(children: list[Child]):
    """SpanStats over the children, their summed wall time and set-up time."""
    st = SpanStats()
    for child in children:
        st.add_child(child.records)
    return (st, sum(c.latency_s for c in children),
            sum(c.setup_s or 0.0 for c in children))


def per_layer(iteration: Iteration) -> dict:
    st, total, setup = span_stats(iteration.children)
    hits, misses = st.cache["grouprep.character_table"]
    smat = st.values["affine.s_matrix"]
    classes = sum(st.outer_values["counting.count_homs"])
    degrees = sum(st.values["series.cleared_difference_degree"])
    points = sum(st.values["lattice.lattice_quotient"])
    errors = [v for name in ERROR_PROBES for v in st.values[name]]
    m = {}

    def fn_stats(name, *stats):
        for stat in stats:
            m[f"{name}.{stat}"] = (getattr(st, stat)[name], "count" if stat == "calls" else "s")

    fn_stats("counting.count_homs", "calls", "self_s", "max_call_s")
    m["counting.classes_counted"] = (classes, "count")
    m["counting.us_per_class"] = (_ratio(st.outer_s["counting.count_homs"], classes, 1e6), "us")
    fn_stats("counting.verify_swap_equivalence", "self_s")
    m["grouprep.character_table.misses"] = (sum(st.values["grouprep.character_table"]), "count")
    m["grouprep.character_table.build_s"] = (st.build_s, "s")
    m["grouprep.cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    fn_stats("series.prove_identity", "self_s")
    fn_stats("series.cleared_difference_degree", "calls", "self_s")
    m["series.cleared_difference_degree.degree_sum"] = (degrees, "count")
    fn_stats("series.expand", "calls", "self_s")
    m["series.expand.order_sum"] = (sum(st.values["series.expand"]), "count")
    m["series.us_per_degree"] = (
        _ratio(st.outer_s["series.cleared_difference_degree"], degrees, 1e6), "us")
    fn_stats("lattice.zn_duality_row", "self_s")
    fn_stats("lattice.weyl_orbit_count", "calls", "self_s", "max_call_s")
    m["lattice.grid_points"] = (points, "count")
    m["lattice.ns_per_point"] = (_ratio(st.outer_s["lattice.weyl_orbit_count"], points, 1e9), "ns")
    fn_stats("affine.s_matrix", "calls", "self_s", "max_call_s")
    m["affine.s_matrix.entries"] = (sum(v[2] for v in smat), "count")
    m["affine.s_matrix.reuse_ratio"] = (
        _ratio(len({(v[0], v[1]) for v in smat}), len(smat)), "ratio")
    fn_stats("affine.verify_s_conjugation", "self_s")
    m["affine.max_certified_error"] = (max(errors, default=0.0), "abs")
    fn_stats("cli.render", "self_s")
    for layer in LAYERS:
        m[f"{layer}.share"] = (_ratio(st.layer_self_s(layer), total), "ratio")
    m["import.share"] = (_ratio(setup, total), "ratio")
    return m


def median_metrics(per_iteration: list[dict]) -> dict:
    first = per_iteration[0]
    return {k: (statistics.median(m[k][0] for m in per_iteration), unit)
            for k, (_, unit) in first.items()}


def write_spans(run: Run) -> Path:
    path = OUT / f"spans-{run.workload}-{run.seed}.jsonl"
    with open(path, "w") as fh:
        for child in run.children:
            fh.writelines(json.dumps(r) + "\n" for r in child.records if "name" in r)
    return path


def self_time_table(run: Run) -> list[str]:
    """Self time by layer and by function, summed over the run's iterations."""
    st, total, setup = span_stats(run.children)
    lines = [f"self time, {run.workload}, {len(run.iterations)} iteration(s), "
             f"{total:.3f} s of child wall time:",
             f"  {'import (setup)':44s} {setup:10.3f} s {100 * setup / total:6.1f}%"]
    for layer in LAYERS:
        lines.append(f"  {layer:44s} {st.layer_self_s(layer):10.3f} s "
                     f"{100 * st.layer_self_s(layer) / total:6.1f}%")
        for name in sorted(st.calls):
            if name.split(".")[0] == layer:
                lines.append(f"    {name:42s} {st.self_s[name]:10.3f} s "
                             f"{st.calls[name]:8d} calls")
    return lines


# -- command line -------------------------------------------------------------


def summary_path(workload: str, seed: int, trace: bool) -> Path:
    return OUT / f"summary-{workload}-{seed}-trace{int(trace)}.json"


def summary(run: Run) -> dict:
    """What report.py compares between the untraced and the traced run."""
    samples = len(run.iterations[0].children)
    digest = hashlib.sha256("".join(c.stdout for c in run.iterations[0].children).encode())
    return {
        "wall_s": statistics.median(it.wall_s for it in run.iterations),
        "iterations": len(run.iterations),
        "samples_per_iteration": samples,
        "tail_percentile": tail(range(samples))[0],
        "stdout_sha256": digest.hexdigest(),
    }


def report_lines(run: Run, metrics: dict, facts: dict) -> list[str]:
    lines = [f"workload {run.workload} seed {run.seed} trace {int(run.trace)}: "
             f"{facts['iterations']} iteration(s), {len(run.probes)} set-up probes"]
    for c in run.failures:
        lines.append(f"FAILED {c.command.key if c.command else 'set-up probe'}: {c.failure}")
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} {value!r} {unit}")
    lines.append(f"fail_ratio {len(run.failures)}/{run.attempted} = "
                 f"{len(run.failures) / run.attempted!r}")
    if not run.trace:
        lines.append(f"query_tail_ms is p{facts['tail_percentile']} of "
                     f"{facts['samples_per_iteration']} samples per iteration, "
                     f"median over {facts['iterations']} iteration(s)")
    lines.append(f"summary written to {summary_path(run.workload, run.seed, run.trace)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs with the same structure, for tests")
    args = parser.parse_args(argv)
    if not (SRC / "dualcount" / "cli.py").is_file() or not REFERENCE.is_file():
        print(f"error: no dualcount sources at {SRC} or no reference at {REFERENCE}",
              file=sys.stderr)
        return 2
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    if run.trace:
        metrics = median_metrics([per_layer(it) for it in run.iterations])
        lines = self_time_table(run) + [f"spans written to {write_spans(run)}"]
    else:
        metrics = end_to_end(run)
        lines = []
    facts = summary(run)
    summary_path(run.workload, run.seed, run.trace).write_text(json.dumps(facts) + "\n")
    print("\n".join(lines + report_lines(run, metrics, facts)))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
