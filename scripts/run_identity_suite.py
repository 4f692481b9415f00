#!/usr/bin/env python3
"""Prove the catalogued counting identities and time each proof.

Runs the fixed instantiations, the three parameter-free identities and, with
--random N, N extra random draws per parametrized family.
"""

import argparse
import sys
import time

from dualcount.cli import identity_runs, prove_run


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--random", type=int, default=0, metavar="N")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--order", type=int, default=200,
                    help="series depth for the identity with no rational form")
    args = ap.parse_args()

    runs = identity_runs()
    if args.random:
        runs += identity_runs(args.random, args.seed)
    failed = 0
    for identity, params in runs:
        start = time.monotonic()
        report = prove_run(identity, params, args.order)
        elapsed = time.monotonic() - start
        mark = "ok" if report["verdict"] == "proven" else "FAILED"
        failed += report["verdict"] != "proven"
        print(f"{mark:6s} {identity:5s} {report['method']:7s} "
              f"deg/ord {report['degree_or_order']:4d} {elapsed:6.2f}s  "
              f"{report['params']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
