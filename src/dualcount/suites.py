"""The verification suites of `dualcount verify`.

Each suite's runner yields one (passed, row) pair per check, and
`run_verify` tallies them into one report.  A run that checks nothing, every
check skipped, is not covered.
"""

from __future__ import annotations

import argparse
import random

from . import affine, lattice, refined, series
from .counting import DUALITY_PAIRS, Target, count_homs, count_table
from .errors import NotCoveredError
from .grouprep import GroupSpec

# the standard sweep: all cyclic groups to order 12, binary dihedral to
# index 6, and the three exceptional binary polyhedral groups
DEFAULT_GAMMAS = (
    tuple(f"Z:{m}" for m in range(1, 13))
    + tuple(f"Dhat:{m}" for m in range(2, 7))
    + ("That", "Ohat", "Ihat"))

# the psp-spin sweep keeps to the exceptional groups, so that its report is
# unchanged; `--gamma Z:m` runs the cyclic case, as zn-lattice does per modulus
PAIR_DEFAULT_GAMMAS = {
    "sp-so": DEFAULT_GAMMAS,
    "su-pu": DEFAULT_GAMMAS,
    "psp-spin": ("That", "Ohat", "Ihat"),
}

FIXED_IDENTITY_RUNS = (
    ("KF1", "1;1;3;1,1,1"),
    ("KF1", "2;1,2;2;1,2"),
    ("KF1", "4;1,3,2,2;2;2,4"),
    ("KF2", "2;1;3,2;1,2,2;1,1"),
    ("KF2", "4;1,2;1,1;2;1"),
    ("KF3", "1;2,2,0,0;2,2;1,1;;"),
    ("KF4", "1,2;1;2"),
)

# default grid for the S-matrix suite, unchanged so that its report stays the
# same; `verify smatrix --type T` reaches every other type, E7 and E8 too
SMATRIX_GRID = tuple(
    [(f"A{r}", n) for r in range(1, 5) for n in range(1, 5)]
    + [(t, n) for t in ("D4", "D5") for n in (1, 2)]
    + [("E6", n) for n in (1, 2)])

# spot checks with independently computed values
ORACLE_COUNTS = (
    ("That", "Sp", 1, 3),
    ("That", "Sp", 2, 7),
    ("That", "Spin_odd", 1, 3),
    ("Ohat", "Sp", 1, 4),
    ("Ohat", "SO_odd", 1, 4),
    ("Ohat", "Spin_odd", 1, 4),
    ("Ohat", "PSp", 1, 4),
    ("Ohat", "Spin_odd", 0, 2),
    ("Ohat", "PSp", 0, 2),
    ("Z:1", "U", 5, 1),
    ("Z:2", "SU", 2, 2),
    ("Z:2", "PU", 2, 2),
    ("Z:3", "SO_odd", 1, 2),
    ("Z:4", "Sp", 1, 3),
    ("Z:4", "PU", 2, 3),
)

ORACLE_GENFUN_GAMMAS = ("Z:1", "Z:2", "Z:3", "Z:4", "Dhat:2", "Dhat:3",
                        "That", "Ohat", "Ihat")


def duality_cells(pair: str, gammas, max_n: int):
    """(passed, row) for each group label of gammas and n = 0..max_n: whether
    the pair's two counts agree, or None where a count is not covered."""
    left_family, right_family = DUALITY_PAIRS[pair]
    for glabel in gammas:
        g = GroupSpec.from_label(glabel)
        lefts = count_table(g, left_family, max_n)
        rights = count_table(g, right_family, max_n)
        for n in range(max_n + 1):
            row = {"suite": "duality", "pair": pair, "gamma": g.label, "n": n}
            try:
                row["left"], row["right"] = lefts[n], rights[n]
            except NotCoveredError:
                yield None, row
                continue
            yield row["left"] == row["right"], row


def _suite_duality(cfg: argparse.Namespace):
    for name in DUALITY_PAIRS if cfg.pair in (None, "all") else (cfg.pair,):
        gammas = (cfg.gamma,) if cfg.gamma else PAIR_DEFAULT_GAMMAS[name]
        yield from duality_cells(name, gammas, cfg.max_n)


def _suite_refined(cfg: argparse.Namespace):
    gammas = (cfg.gamma,) if cfg.gamma else ("Ohat",)
    for glabel in gammas:
        g = GroupSpec.from_label(glabel)
        # the unitary refinement needs a nonempty weight lattice, so n >= 1
        plans = [(("Sp", "Spin_odd"), 0), (("SU", "PU"), 1)]
        for pair, start in plans:
            reports = refined.swap_equivalence_table(g, pair, cfg.max_n)
            for n in range(start, cfg.max_n + 1):
                try:
                    rep = reports[n]
                except NotCoveredError:
                    yield None, None
                    continue
                yield rep["equivalent"], {"suite": "refined", **rep}


def identity_runs(random_draws: int = 0, seed: int = 0) -> list:
    """(identity, params) pairs: the fixed instantiations and the three
    propositions, or with random_draws that many seeded draws per KF family."""
    if random_draws:
        rng = random.Random(seed)
        return [(fam, series.random_identity_params(fam, rng))
                for fam in ("KF1", "KF2", "KF3", "KF4")
                for _ in range(random_draws)]
    return list(FIXED_IDENTITY_RUNS) + [("PropX", None), ("PropA", None),
                                        ("PropY", None)]


def _suite_identities(cfg: argparse.Namespace):
    if cfg.prop:
        runs = [(cfg.prop, cfg.params)]
    else:
        runs = identity_runs(cfg.random_draws, cfg.seed or 0)
    for name, params in runs:
        rep = series.prove_identity(name, params)
        yield rep["verdict"] == "proven", {"suite": "identities", **rep}


def _suite_zn(cfg: argparse.Namespace):
    for pair in lattice.zn_sweep(cfg.pair, cfg.max_rank):
        # largest modulus first: each side's orbit table to max_n then holds
        # every smaller modulus
        rows = [lattice.zn_duality_row(pair, n) for n in range(cfg.max_n, 0, -1)]
        for row in reversed(rows):
            yield row["equal"], {"suite": "zn-lattice", **row}


def _suite_smatrix(cfg: argparse.Namespace):
    if cfg.ade_type:
        levels = range(1, (cfg.max_n if cfg.max_n is not None else 2) + 1)
        # refuse an oversized sweep or partner group before any work
        affine.check_levels(cfg.ade_type, levels)
        grid = [(cfg.ade_type, n) for n in levels]
    else:
        grid = SMATRIX_GRID
    for ade_type, level in grid:
        sm = affine.s_matrix(ade_type, level)
        _, _, conj_err = affine.charge_conjugation(sm)
        rep = affine.verify_s_conjugation(sm)
        errors = {
            "unitarity": affine.unitarity_error(sm),
            "symmetry": affine.symmetry_error(sm),
            "conjugation_permutation": conj_err,
            "center_action": rep["max_abs_error"],
        }
        failed = not rep["holds"] or max(errors.values()) >= affine.TOLERANCE
        yield not failed, {"suite": "smatrix", "type": ade_type, "level": level,
                       "holds": rep["holds"],
                       "errors": {k: float(v) for k, v in errors.items()}}


def _suite_oracle(cfg: argparse.Namespace):
    max_n = cfg.max_n

    def check(glabel, token, n, expected, got):
        return expected == got, {"suite": "oracle", "gamma": glabel,
                                 "target": token, "n": n,
                                 "expected": expected, "got": got}

    for glabel, family, n, expected in ORACLE_COUNTS:
        g = GroupSpec.from_label(glabel)
        yield check(glabel, family, n, expected, count_homs(g, Target(family, n)))

    # generating function coefficients against direct enumeration
    for glabel in ORACLE_GENFUN_GAMMAS:
        g = GroupSpec.from_label(glabel)
        try:
            sp = series.expand(series.builtin_genfun(g, "Sp"),
                               2 * max_n).integer_coeffs()
            so = series.expand(series.builtin_genfun(g, "SO_odd"),
                               2 * max_n + 1).integer_coeffs()
        except NotCoveredError:
            yield None, None
            continue
        sp_counts = count_table(g, "Sp", max_n)
        so_counts = count_table(g, "SO_odd", max_n)
        for n in range(max_n + 1):
            yield check(glabel, "Sp", n, sp_counts[n], sp[2 * n])
            yield check(glabel, "SO_odd", n, so_counts[n], so[2 * n + 1])
        # the two series live on opposite parities
        yield check(glabel, "Sp", -1, [0] * max_n,
                    [sp[2 * i + 1] for i in range(max_n)])
        yield check(glabel, "SO_odd", -1, [0] * (max_n + 1),
                    [so[2 * i] for i in range(max_n + 1)])


# each suite's runner yields (passed, row) per check: passed is None for a
# skipped check, and the row of a failed one is reported
_SUITE_RUNNERS = {
    "duality": _suite_duality,
    "refined": _suite_refined,
    "identities": _suite_identities,
    "zn-lattice": _suite_zn,
    "smatrix": _suite_smatrix,
    "oracle": _suite_oracle,
}


def run_verify(cfg: argparse.Namespace) -> dict:
    """The report of the verify suite cfg.suite.  NotCoveredError when the
    suite checked nothing: a report of no checks would pass vacuously."""
    checks = skipped = 0
    failures = []
    for passed, row in _SUITE_RUNNERS[cfg.suite](cfg):
        if passed is None:
            skipped += 1
            continue
        checks += 1
        if not passed:
            failures.append(row)
    if not checks:
        raise NotCoveredError(f"not covered: verify {cfg.suite} made no check "
                              f"here ({skipped} skipped)")
    return {"command": "verify", "suite": cfg.suite, "checks": checks,
            "skipped": skipped, "failures": failures}
