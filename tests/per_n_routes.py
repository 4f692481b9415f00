"""Per-n routes to the zn-lattice and refined sweeps, as the tests' oracle.

`verify zn-lattice` and `verify refined` read each side of a sweep from one
kernel table to the largest size.  Here every size builds its own tables,
at that size, and reads their last row: one Weyl-orbit count per modulus,
and one finite character table or swap report per n.  `graded_compositions`
reads one row of the composition kernel as a map from each grade to its
count.  `count_twisted` reads
one sector of `refined.sector_counts`, which builds both, for the tests that
query the sectors one at a time.
"""

from math import gcd

from dualcount import lattice
from dualcount.abgroup import AbGroup
from dualcount.counting import (Target, _fixed_slots, composition_rows,
                                count_homs, orbit_composition_rows)
from dualcount.errors import InvariantError, NotCoveredError
from dualcount.grouprep import (CYCLIC, ICOSAHEDRAL, OCTAHEDRAL, TETRAHEDRAL,
                                abelianization, irreps, onedim_permutations)
from dualcount.refined import (FRepCharacter, SectorCount, _oct_sp_sector_rows,
                               _oct_spin_sector_rows, _two_torsion_f_rep,
                               sector_counts, tables_swap_equivalent)


def graded_compositions(slots, group: AbGroup, total: int) -> dict:
    """Row total of `counting.composition_rows`, as a map from each grade to
    its count."""
    row = composition_rows(slots, group, total)[total]
    return dict(zip(group.elements(), row))


def count_twisted(g, family: str, n: int, w: int) -> SectorCount:
    """Fixed/moved class counts of sector w of the refined count."""
    if w not in (0, 1):
        raise ValueError("sector label must be 0 or 1")
    return sector_counts(g, family, n)[w]


def weyl_orbit_count(c, choice: str, n: int) -> int:
    """The level-n Kac points of grade 0 in Z = P/M*, up to the symmetries
    of M*/Q: one Burnside kernel run at the single total n."""
    if n < 1:
        raise ValueError("modulus must be positive")
    zmods, zrows, _, sub = lattice._center_grading(c, choice)
    marks, omega = lattice._kac_data(c.type[0], c.rank)
    zgroup = AbGroup(zmods)
    slots = [(marks[0], zgroup.identity)] + [
        (a, tuple(row[i] % d for row, d in zip(zrows, zmods)))
        for i, a in enumerate(marks[1:])]
    perms = [omega[h] for h in sub]
    row, = orbit_composition_rows(slots, zgroup, n, perms, len(sub), start=n)
    return row[0]


def su_f_rep(g, n: int) -> FRepCharacter:
    """The "su" table at n, each fixed count from a kernel table to n."""
    A = abelianization(g).group
    gcds = tuple(gcd(d, n) for d in A.moduli)
    # the componentwise smallest representatives of A/nA
    reps = AbGroup(gcds).elements()
    perms = onedim_permutations(g)
    slots = [(info.dim, info.det_element) for info in irreps(g)]
    counts = {}
    for z in AbGroup(gcds).elements():
        embedded = tuple(zi * (d // gi) for zi, d, gi in zip(z, A.moduli, gcds))
        by_det = graded_compositions(_fixed_slots(slots, perms[embedded], A),
                                     A, n)
        counts[z] = {w: by_det[w] for w in reps}
    return FRepCharacter.from_counts(gcds, counts)


def f_rep_character(g, side: str, n: int) -> FRepCharacter:
    """The finite character table of one side at n, from tables to n."""
    if n < 0 or (side == "su" and n < 1):
        raise ValueError("size out of range")
    if side == "su":
        return su_f_rep(g, n)
    if g.family != OCTAHEDRAL:
        raise NotCoveredError(f"not covered: {side} tables require Ohat")
    if side == "sp":
        return _two_torsion_f_rep(_oct_sp_sector_rows(n)[n])
    if side == "spin":
        return _two_torsion_f_rep(_oct_spin_sector_rows(n)[n])
    raise ValueError("side must be 'su', 'sp' or 'spin'")


def verify_swap_equivalence(g, pair, n: int) -> dict:
    """The swap report at n, every count and table made at that n."""
    pair = tuple(pair)
    if pair == ("SU", "PU"):
        table = f_rep_character(g, "su", n)
        ident = tables_swap_equivalent(table, table)
    elif pair != ("Sp", "Spin_odd"):
        raise ValueError("pair must be (SU, PU) or (Sp, Spin_odd)")
    elif g.family == OCTAHEDRAL:
        ident = tables_swap_equivalent(f_rep_character(g, "sp", n),
                                       f_rep_character(g, "spin", n))
    elif g.family in (TETRAHEDRAL, ICOSAHEDRAL):
        same = (count_homs(g, Target("Sp", n)) == count_homs(g, Target("Spin_odd", n))
                and count_homs(g, Target("PSp", n)) == count_homs(g, Target("SO_odd", n)))
        ident = "trivial" if same else None
    elif g.family == CYCLIC:
        if n == 0:
            raise NotCoveredError("not covered: rank-zero targets")
        ident = tables_swap_equivalent(
            lattice.refined_zn_characters("C", n, "sc", g.param),
            lattice.refined_zn_characters("B", n, "sc", g.param))
    else:
        raise NotCoveredError("not covered: the dihedral refinement")
    return {"gamma": g.label, "pair": "/".join(pair), "n": n,
            "equivalent": ident is not None, "identification": ident}


def outcome(read, n):
    """read(n), or the class of the error it raises: NotCoveredError,
    ValueError or InvariantError."""
    try:
        return read(n)
    except (NotCoveredError, ValueError, InvariantError) as e:
        return type(e)
