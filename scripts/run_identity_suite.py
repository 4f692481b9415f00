#!/usr/bin/env python3
"""Prove the catalogued counting identities and time each proof.

Runs the fixed instantiations, the three parameter-free identities and, with
--random N, N extra random draws per parametrized family.  The flags are
checked as `dualcount verify identities` checks them, before any proof.
"""

import argparse
import sys
import time

from dualcount.cli import UsageError, identity_runs, parse_args
from dualcount.series import prove_identity


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--random", type=int, default=0, metavar="N")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:
        parse_args(["verify", "identities", "--random", str(args.random),
                    "--seed", str(args.seed)])
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    runs = identity_runs()
    if args.random:
        runs += identity_runs(args.random, args.seed)
    failed = 0
    for identity, params in runs:
        start = time.monotonic()
        report = prove_identity(identity, params)
        elapsed = time.monotonic() - start
        mark = "ok" if report["verdict"] == "proven" else "FAILED"
        failed += report["verdict"] != "proven"
        print(f"{mark:6s} {identity:5s} {report['method']:7s} "
              f"deg/ord {report['degree_or_order']:4d} {elapsed:6.2f}s  "
              f"{report['params']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
