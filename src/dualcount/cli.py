"""Command-line driver: counting runs, verification suites, and data dumps.

Every command, and every suite of `verify`, has its own argparse subparser
that declares only the flags its runner reads, so argparse refuses any other
flag and checks each size, group label and fixed choice as it parses.  A
suite's flags follow its name: `dualcount verify SUITE --help` lists them.
The suites live in `suites`, which yields one (passed, row) pair per check
and tallies them into one report.

Every command prints a single report.  JSON output is deterministic
(sorted keys, floats rounded to twelve digits), so repeated runs of the
same command are byte-identical.  Exit codes:

    0   the run completed and every check passed
    1   usage error (bad flags, bad labels, bad parameters)
    2   a verification check failed; the failing rows are in the report
        (and echoed to stderr as JSON when the format is not json)
    3   the request falls outside the covered range
    4   an internal consistency check failed: a defect in the program,
        never a property of the input

The package registers its lazy modules (`dualcount.LAZY`), so a command runs
the bodies of only those it uses: `suites` for verify, `refined` for
`sectors`, `verify refined` and the Ohat PSp and Spin counts.  csv loads only
for a `--format csv` report, and numpy only for `smatrix` and `verify smatrix`.

numpy's BLAS runs on one thread: before any command runs, `main` sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1, so that the
pool numpy starts when it loads has no threads that only spin-wait on these
small matrices.  A user who sets any of the three keeps their own setting,
and main then sets none of them: under `OPENBLAS_NUM_THREADS=4 dualcount
smatrix ...` OpenBLAS runs up to four threads, one per CPU at most.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from . import affine, lattice, mckay, refined, series, suites
from .bounds import MAX_ORDER, MAX_RANK
from .counting import count_rows
from .errors import InvariantError, NotCoveredError
from .grouprep import CYCLIC, GroupSpec, irrep_table_json


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4

# Largest target size n that count, sectors and the duality and refined
# suites accept, and the zn-lattice suite's largest modulus.  A count table
# to n costs slots x (2n + 1) x |grading group| cells of the counting kernel,
# each row one Python int per grade, and holds every size up to n.  Single
# counts at this bound take about 2 s on a 2-CPU machine: 1.9-2.4 s for
# `count --gamma Z:48 --target SU --n 10000`, 1.9-2.9 s with --target PU,
# and 1.0-1.2 s for `count --gamma Dhat:48 --target SO_odd --n 10000`.  A
# duality sweep reads one table per group and family, so its cost is linear
# in the bound: `verify duality --max-n 10000` takes 4.5 s with --pair sp-so,
# 5.9 s with su-pu and 1.3 s with psp-spin.  The refined suite reads one
# table per side too: `verify refined --max-n 10000` takes 2.3 s for Ohat,
# 0.8 s for Ihat and 1.3 s for That, and `verify zn-lattice --max-n 10000`
# 2.0 s.  Cyclic PSp and Spin sizes are ranks, held to bounds.MAX_RANK,
# which also keeps cyclic refined runs to n <= 100; their refined Sp/Spin
# rows are still counted one rank at a time.
MAX_N = 10_000

# Largest smatrix --digits: the entries are accurate to about 1e-15, and every
# float of a report is printed at twelve digits at most
MAX_DIGITS = 12

# genfun's truncation order when --order is not given
GENFUN_ORDER = 24

# Largest --max-n of verify oracle: its series expand to order 2 max_n + 1,
# which bounds.MAX_ORDER bounds.  Its counts read one table per group and
# family and its series expand once per group, so the suite is linear in the
# bound: `verify oracle --max-n 9999` makes 180033 checks in 2.0-2.3 s on a
# 2-CPU machine.
MAX_ORACLE_N = (MAX_ORDER - 1) // 2

# Largest --random of verify identities, in draws per KF family.  Every draw
# keeps to k, v <= 6 and at most 3 v values per list, and clears in at most
# about 6 ms (2 ms on average) on a 2-CPU machine, so the four families at the
# bound take about a minute and a half.
MAX_RANDOM_DRAWS = 10_000

FORMATS = ("json", "csv", "text")

DUALITY_PAIRS = {
    "sp-so": ("Sp", "SO_odd"),
    "su-pu": ("SU", "PU"),
    "psp-spin": ("PSp", "Spin_odd"),
}


class UsageError(Exception):
    pass


# -- argument parsing -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the exit-code contract
    # reserves 2 for verification failures, so route errors through our own
    # exception and let main() map them to exit 1
    def error(self, message):
        raise UsageError(message)


def _size(high: int | None = None, low: int = 0):
    """An argparse type: an int from low to high, or from low up when high is
    None."""
    def size(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"{value} is negative" if low == 0 else f"{value} is below {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"{value} exceeds the largest supported size {high}")
        return value
    return size


def _n_range(text: str) -> tuple[int, int]:
    """An argparse type: the inclusive range lo:hi of count --n-range."""
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"could not parse range {text!r}; expected lo:hi") from None
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError("range must satisfy 0 <= lo <= hi")
    if hi > MAX_N:
        raise argparse.ArgumentTypeError(
            f"{hi} exceeds the largest supported size {MAX_N}")
    return lo, hi


def _group_label(text: str) -> str:
    """An argparse type: a group label, refused when it names no group or a
    Z:m or Dhat:m over grouprep.MAX_GROUP_PARAM."""
    try:
        GroupSpec.from_label(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    """The command line: one subparser per command and per verify suite, each
    declaring only the flags its runner reads, so argparse refuses the rest."""
    parser = _Parser(prog="dualcount", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name, help_text, formats=FORMATS):
        p = subparsers.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--format", dest="fmt", choices=formats, default="json")
        return p

    # irreps, mckay, genfun and smatrix reports have no rows for csv to write
    rowless = ("json", "text")

    p = add(sub, "count", "count conjugacy classes of homomorphisms")
    p.add_argument("--gamma", required=True, type=_group_label,
                   help="source group, e.g. Z:7, Dhat:3, Ohat")
    p.add_argument("--target", required=True, help="target family, e.g. Sp, SO_odd, PU")
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=_size(MAX_N))
    size.add_argument("--n-range", dest="n_range", type=_n_range,
                      help="inclusive range lo:hi")

    p = add(sub, "sectors", "fixed/moved class counts of the two-torsion sectors")
    p.add_argument("--gamma", default="Ohat", type=_group_label)
    p.add_argument("--family", required=True, choices=("Sp", "Spin_odd"))
    p.add_argument("--n", type=_size(MAX_N), required=True)

    p = add(sub, "irreps", "irreducibles of a source group: dimension, reality, "
                           "conjugate partner and determinant", rowless)
    p.add_argument("--gamma", required=True, type=_group_label)

    p = add(sub, "mckay", "McKay graph of a source group", rowless)
    p.add_argument("--gamma", required=True, type=_group_label)

    p = add(sub, "genfun", "coefficients of a built-in generating function", rowless)
    p.add_argument("--gamma", required=True, type=_group_label)
    p.add_argument("--token", default="Sp",
                   help="series token: Sp, SO_odd, or refined:e,m:Sp|Spin")
    p.add_argument("--order", type=_size(MAX_ORDER), default=GENFUN_ORDER,
                   help="truncation order (default %(default)s)")

    p = add(sub, "smatrix", "modular S-matrix of an affine algebra at a level",
            rowless)
    p.add_argument("--type", dest="ade_type", required=True, help="e.g. A3, D4, E6")
    p.add_argument("--level", type=_size(low=1), required=True)
    p.add_argument("--digits", type=_size(MAX_DIGITS, low=1), default=12,
                   help="decimal places of each entry, 1 to 12 (default 12)")

    verify = sub.add_parser("verify", help="run a verification suite",
                            description="run a verification suite; "
                            "`verify SUITE --help` lists its flags")
    suite_parsers = verify.add_subparsers(dest="suite", required=True)

    p = add(suite_parsers, "duality", "Sp/SO, SU/PU and PSp/Spin count equality")
    p.add_argument("--gamma", type=_group_label, help="restrict to one source group")
    p.add_argument("--pair", choices=(*DUALITY_PAIRS, "all"))
    p.add_argument("--max-n", dest="max_n", type=_size(MAX_N), default=10,
                   help="largest n (default %(default)s)")

    p = add(suite_parsers, "refined", "two-torsion and unitary swap equivalences")
    p.add_argument("--gamma", type=_group_label, help="restrict to one source group")
    p.add_argument("--max-n", dest="max_n", type=_size(MAX_N), default=6,
                   help="largest n (default %(default)s)")

    p = add(suite_parsers, "identities",
            "exact proofs of the generating-function identities")
    one = p.add_mutually_exclusive_group()
    one.add_argument("--prop", help="run a single named identity")
    one.add_argument("--random", dest="random_draws",
                     type=_size(MAX_RANDOM_DRAWS, low=1),
                     help="random draws per parametrized family")
    p.add_argument("--params", help="parameter string for --prop")
    p.add_argument("--seed", type=int, help="seed of the --random draws (default 0)")

    p = add(suite_parsers, "zn-lattice", "Weyl-orbit counts across each dual pair")
    # no default for --max-rank: argparse takes a flag of an exclusive group
    # as given only when its value is not the default
    one = p.add_mutually_exclusive_group()
    one.add_argument("--pair", help="a pair label like Sp(2)/SO(5)")
    one.add_argument("--max-rank", dest="max_rank", type=_size(MAX_RANK, low=1),
                     help="largest rank of the swept pairs (default 4)")
    p.add_argument("--max-n", dest="max_n", type=_size(MAX_N, low=1), default=4,
                   help="largest modulus (default %(default)s)")

    p = add(suite_parsers, "smatrix", "S-matrix unitarity, symmetry and conjugation")
    p.add_argument("--type", dest="ade_type", help="restrict to one type")
    p.add_argument("--max-n", dest="max_n", type=_size(low=1),
                   help="with --type: largest level (default 2)")

    p = add(suite_parsers, "oracle", "reference counts and series-vs-count agreement")
    p.add_argument("--max-n", dest="max_n", type=_size(MAX_ORACLE_N), default=8,
                   help="largest n (default %(default)s)")
    return parser


def _cyclic_rank(cfg: argparse.Namespace, suite: str | None) -> int:
    """The largest n at which a run counts a cyclic group into PSp or Spin,
    which are Weyl orbits of rank n; 0 when it counts none.  It reads only
    the command line, so the check against bounds.MAX_RANK loads no lattice;
    the suites' default sizes lie far below that bound."""
    gamma = getattr(cfg, "gamma", None)
    if gamma is None or GroupSpec.from_label(gamma).family != CYCLIC:
        return 0
    if cfg.command == "count" and cfg.target in ("PSp", "Spin_odd"):
        return cfg.n if cfg.n is not None else cfg.n_range[1]
    if suite == "refined" or (
            suite == "duality" and cfg.pair in (None, "all", "psp-spin")):
        return cfg.max_n
    return 0


def _zn_sweep(cfg: argparse.Namespace):
    """The pairs and the largest modulus of a zn-lattice run."""
    max_rank = cfg.max_rank if cfg.max_rank is not None else 4
    return (cfg.pair,) if cfg.pair else lattice.dual_pairs(max_rank), cfg.max_n


def parse_args(argv=None) -> argparse.Namespace:
    """The parsed command line: `command`, `fmt`, `suite` for verify, and the
    dest of each flag that the command or suite declares.  UsageError for a
    line that argparse refuses or that breaks a rule between flags."""
    cfg = build_parser().parse_args(argv)
    suite = getattr(cfg, "suite", None)
    if suite == "identities":
        if cfg.params is not None and cfg.prop is None:
            raise UsageError("--params needs --prop")
        if cfg.seed is not None and cfg.random_draws is None:
            raise UsageError("--seed needs --random: only random draws are seeded")
    if suite == "smatrix" and cfg.max_n is not None and cfg.ade_type is None:
        raise UsageError("verify smatrix reads --max-n only with --type")
    rank = _cyclic_rank(cfg, suite)
    if rank > MAX_RANK:
        raise UsageError(
            f"{cfg.gamma} into PSp or Spin at n {rank} needs rank {rank}, over "
            f"the largest supported rank {MAX_RANK}")
    if suite == "zn-lattice":
        pairs, top = _zn_sweep(cfg)
        cells = lattice.zn_sweep_cells(pairs, top)
        if cells > lattice.MAX_ZN_CELLS:
            raise UsageError(
                f"zn-lattice to n {top} needs about {cells} kernel cells, "
                f"over the supported bound {lattice.MAX_ZN_CELLS}")
    return cfg


# -- commands -------------------------------------------------------------


def _run_count(cfg: argparse.Namespace):
    g = GroupSpec.from_label(cfg.gamma)
    ns = [cfg.n] if cfg.n is not None else range(cfg.n_range[0], cfg.n_range[1] + 1)
    return {"command": "count", "rows": count_rows(g, cfg.target, ns)}, EXIT_OK


def _run_sectors(cfg: argparse.Namespace):
    g = GroupSpec.from_label(cfg.gamma)
    rows = refined.sector_rows(g, cfg.family, cfg.n)
    return {"command": "sectors", "family": cfg.family, "rows": rows}, EXIT_OK


def _run_irreps(cfg: argparse.Namespace):
    g = GroupSpec.from_label(cfg.gamma)
    return {"command": "irreps", **irrep_table_json(g)}, EXIT_OK


def _run_mckay(cfg: argparse.Namespace):
    g = GroupSpec.from_label(cfg.gamma)
    return {"command": "mckay", "gamma": g.label, **mckay.mckay_json(g)}, EXIT_OK


def _run_genfun(cfg: argparse.Namespace):
    g = GroupSpec.from_label(cfg.gamma)
    terms = series.builtin_genfun(g, cfg.token)
    coeffs = series.expand(terms, cfg.order).integer_coeffs()
    return {"command": "genfun", "gamma": g.label, "token": cfg.token,
            "order": cfg.order, "coefficients": list(coeffs)}, EXIT_OK


def _run_smatrix(cfg: argparse.Namespace):
    sm = affine.s_matrix(cfg.ade_type, cfg.level)
    payload = affine.smatrix_json(sm, digits=cfg.digits)
    payload["entries"] = _Rounded(payload["entries"])
    return {"command": "smatrix", **payload}, EXIT_OK


def _run_verify(cfg: argparse.Namespace):
    # read when a verify command runs: _COMMANDS reading suites.run_verify
    # would run the body of suites on every import of cli
    return suites.run_verify(cfg)


_COMMANDS = {
    "count": _run_count,
    "sectors": _run_sectors,
    "irreps": _run_irreps,
    "mckay": _run_mckay,
    "genfun": _run_genfun,
    "smatrix": _run_smatrix,
    "verify": _run_verify,
}


def run(cfg: argparse.Namespace):
    """Execute a configuration; returns (report, exit_status)."""
    return _COMMANDS[cfg.command](cfg)


# -- output -------------------------------------------------------------


class _Rounded(list):
    """A list whose floats are rounded already, such as an S-matrix's L**2
    entries: _round_floats passes it through, so each is rounded once."""


def _round_floats(obj):
    """obj with every float rounded to twelve digits and -0.0 made 0.0."""
    if isinstance(obj, (bool, _Rounded)):
        return obj
    if isinstance(obj, float):
        return round(obj, 12) + 0.0
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _cell(value):
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(_round_floats(value), sort_keys=True)
    if isinstance(value, float):
        return repr(_round_floats(value))
    return value


def render(report: dict, fmt: str) -> str:
    """One deterministic string per report; no trailing newline."""
    if fmt == "json":
        return json.dumps(_round_floats(report), sort_keys=True)
    rows = report.get("rows", report.get("failures", []))
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        columns = sorted({key for row in rows for key in row})
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c, "")) for c in columns])
        return buf.getvalue().rstrip("\n")
    lines = []
    for key in sorted(report):
        if key in ("rows", "failures"):
            continue
        lines.append(f"{key}: {_cell(report[key])}")
    if "failures" in report:
        lines.append(f"failures: {len(report['failures'])}")
    for row in rows:
        lines.append("  " + " ".join(f"{k}={_cell(row[k])}" for k in sorted(row)))
    return "\n".join(lines)


# the thread counts of OpenBLAS, OpenMP and MKL, which numpy reads once, when
# it loads
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")


def use_one_blas_thread() -> None:
    """Set every BLAS_THREAD_VARIABLES name to 1, unless the environment sets
    any of them already: then it is the user's choice, and none is set.  An
    S-matrix is too little work for a second thread to do more than
    spin-wait."""
    if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))


def main(argv=None) -> int:
    use_one_blas_thread()
    try:
        cfg = parse_args(argv)
        report, status = run(cfg)
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NotCoveredError as e:
        print(str(e), file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    print(render(report, cfg.fmt))
    if status == EXIT_FAIL and cfg.fmt != "json":
        print(json.dumps(_round_floats(report["failures"]), sort_keys=True),
              file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
