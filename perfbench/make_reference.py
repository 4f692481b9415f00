"""Write reference.json: the exact stdout of every command a workload can run.

Usage: python3 perfbench/make_reference.py

Run this only on a commit whose outputs are known good: the benchmark treats
any later difference from these bytes as a failed operation.  The stored
reference was taken at commit a64c9ed.
"""

import json
import sys

import run


def all_commands():
    commands = {}
    for workload in run.WORKLOADS:
        for tiny in (False, True):
            for cmd in run.plan(workload, 0, tiny):
                commands[cmd.key] = cmd
    for left, right, g, n in run.cold_query_pool():
        for family in (left, right):
            cmd = run.Command(("count", "--gamma", g, "--target", family, "--n", str(n)))
            commands[cmd.key] = cmd
    return commands


def main() -> int:
    reference = {}
    for key, cmd in sorted(all_commands().items()):
        child = run.spawn(cmd, False, "reference", 600)
        if child.failure:
            print(f"{key}: {child.failure}", file=sys.stderr)
            return 1
        reference[key] = child.stdout
        print(f"{child.latency_s:8.2f} s  {key}", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
