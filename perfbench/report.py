"""Run every workload untraced and traced, and print one summary.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--seed N] [--seconds S]

For each workload this runs ``run.py`` twice as separate processes, so each
run's ``RUSAGE_CHILDREN`` covers only its own children: once with tracing off
for the end-to-end metrics, once with tracing on for the per-layer metrics and
the self-time table.  It then prints every end-to-end metric with its unit and
fail_ratio, the tracing overhead (traced wall_s minus untraced wall_s), and
whether every child's stdout in the traced run was byte-identical to the
untraced run.  Each run's wall time and stdout digest come from the summary
file that ``run.py`` writes.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def bench(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    facts = json.loads(run.summary_path(workload, seed, bool(trace)).read_text())
    return lines[:-1], json.loads(lines[-1]), facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0)
    args = parser.parse_args(argv)
    summary = []
    for workload in run.WORKLOADS:
        plain_lines, plain, plain_facts = bench(workload, args.seed, args.seconds, 0)
        traced_lines, traced, traced_facts = bench(workload, args.seed, args.seconds, 1)
        print("\n".join(plain_lines + traced_lines), flush=True)
        wall, traced_wall = plain_facts["wall_s"], traced_facts["wall_s"]
        summary.append(f"== {workload}")
        summary += [f"  {name} {m['value']:.6g} {m['unit']}"
                    for name, m in plain["metrics"].items()]
        summary.append(f"  fail_ratio {plain['failed']}/{plain['attempted']} untraced, "
                       f"{traced['failed']}/{traced['attempted']} traced")
        summary.append(f"  query_tail_ms is p{plain_facts['tail_percentile']} of "
                       f"{plain_facts['samples_per_iteration']} samples per iteration")
        summary.append(f"  tracing overhead {traced_wall - wall:+.3f} s "
                       f"({traced_wall:.3f} s traced, {wall:.3f} s untraced)")
        same = plain_facts["stdout_sha256"] == traced_facts["stdout_sha256"]
        summary.append(f"  traced stdout byte-identical to untraced: {same}")
    print("\n".join(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
