#!/usr/bin/env python3
"""Sweep a duality pair over the standard group catalogue and print the table.

Each cell shows the matched count N(gamma, left(n)) = N(gamma, right(n));
mismatches are flagged inline and make the script exit nonzero.  The flags
are checked as `dualcount verify duality` checks them, once per group and
before any count, so the CLI's size bounds hold here too.
"""

import argparse
import itertools
import sys

from dualcount.cli import (DEFAULT_GAMMAS, DUALITY_PAIRS, UsageError,
                           duality_cells, parse_args)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pair", choices=sorted(DUALITY_PAIRS), default="sp-so")
    ap.add_argument("--max-n", type=int, default=8)
    ap.add_argument("--gamma", action="append",
                    help="restrict to specific groups (repeatable)")
    args = ap.parse_args()

    labels = args.gamma or DEFAULT_GAMMAS
    try:
        for label in labels:
            parse_args(["verify", "duality", "--pair", args.pair,
                        "--max-n", str(args.max_n), "--gamma", label])
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    header = ["gamma".ljust(8)] + [f"n={n}" for n in range(args.max_n + 1)]
    print("  ".join(h.rjust(6) for h in header))

    bad = 0
    cells = duality_cells(args.pair, labels, args.max_n)
    for label in labels:
        shown = []
        for passed, row in itertools.islice(cells, args.max_n + 1):
            if passed is None:
                shown.append("-")
            elif passed:
                shown.append(str(row["left"]))
            else:
                shown.append(f"{row['left']}!={row['right']}")
                bad += 1
        print("  ".join([label.ljust(8).rjust(6)] + [c.rjust(6) for c in shown]))

    if bad:
        print(f"{bad} mismatches", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
