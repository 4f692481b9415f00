"""The enumeration oracle: constrained multiplicity vectors, listed one by one.

The library counts these vectors with the composition kernel
(dualcount.counting.composition_rows) and never lists them; the tests
compare its counts, and the constraints each vector satisfies, against this
listing.  The quotient and covering families are counted from the same
listing: PU as orbits of unitary vectors under tensoring with 1-dim
characters, the binary octahedral covers from the two-torsion sectors of
the listed vectors, cyclic covers from the Weyl orbits on the torus grid.
"""

from dualcount.affine import iter_vectors
from dualcount.counting import (Target, _build_slots, _orthogonal_slots,
                                _symplectic_slots)
from dualcount.errors import NotCoveredError
from dualcount.grouprep import (CYCLIC, ICOSAHEDRAL, OCTAHEDRAL, REAL,
                                TETRAHEDRAL, GroupSpec, abelianization,
                                irreps)
from dualcount.lattice import cartan_data
from dualcount.refined import SectorCount, twisted_irreps
from char_tables import tensor_with_onedim
from grid_orbits import grid_count


def _vector_as_dict(slots, vec) -> dict[str, int]:
    mv = {}
    for slot, c in zip(slots, vec):
        if not c:
            continue
        for name in slot.names:
            mv[name] = mv.get(name, 0) + slot.step * c
    return mv


def _vector_det(group_ab, slots, vec):
    acc = group_ab.identity
    for slot, c in zip(slots, vec):
        if c:
            acc = group_ab.add(acc, group_ab.scale(c, slot.det))
    return acc


def multiplicity_vectors(g: GroupSpec, t: Target):
    """Enumerate solution vectors as name -> multiplicity dicts.

    Covers the families whose classes are plain constrained multiplicity
    vectors (U, SU, Sp, O_odd, SO_odd); the quotient and covering-group
    families count orbits or sectors instead of vectors.
    """
    ab = abelianization(g)
    if t.family in ("U", "SU"):
        infos = irreps(g)
        weights = tuple(i.dim for i in infos)
        for vec in iter_vectors(weights, t.n):
            if t.family == "SU":
                det = ab.group.identity
                for info, c in zip(infos, vec):
                    if c:
                        det = ab.group.add(det, ab.group.scale(c, info.det_element))
                if det != ab.group.identity:
                    continue
            yield {i.name: c for i, c in zip(infos, vec) if c}
        return
    if t.family == "Sp":
        slots = _symplectic_slots(g)
        for vec in iter_vectors(tuple(s.weight for s in slots), 2 * t.n):
            yield _vector_as_dict(slots, vec)
        return
    if t.family in ("O_odd", "SO_odd"):
        slots = _orthogonal_slots(g)
        for vec in iter_vectors(tuple(s.weight for s in slots), 2 * t.n + 1):
            if t.family == "SO_odd":
                if _vector_det(ab.group, slots, vec) != ab.group.identity:
                    continue
            yield _vector_as_dict(slots, vec)
        return
    raise NotCoveredError(
        f"not covered: {t.family} classes are not plain multiplicity vectors")


def unitary_orbits(g: GroupSpec, n: int) -> set:
    """The unitary vectors of size n grouped into orbits under tensoring by
    every 1-dim character, each orbit a frozenset of vectors."""
    ab = abelianization(g)
    names = [i.name for i in irreps(g)]
    vectors = {
        tuple(mv.get(nm, 0) for nm in names)
        for mv in multiplicity_vectors(g, Target("U", n))
    }
    # where tensoring with each 1-dim character sends each irreducible, read
    # off the character products
    images = [[names.index(tensor_with_onedim(g, nm, ab.name_of[a]))
               for nm in names] for a in ab.group.elements()]
    orbits = set()
    for vec in vectors:
        orbit = []
        for image in images:
            moved = [0] * len(names)
            for i, c in enumerate(vec):
                moved[image[i]] = c
            orbit.append(tuple(moved))
        orbits.add(frozenset(orbit))
    return orbits


def enumerated_sector(family: str, n: int, w: int) -> SectorCount:
    """Fixed/moved counts of one Ohat sector by listing solution vectors."""
    oct_ = GroupSpec.binary_octahedral()
    A = abelianization(oct_).group
    if family == "Sp" and w == 1:
        slots = _build_slots(twisted_irreps(oct_), A, REAL)
        weights = tuple(s.weight for s in slots)
        return SectorCount(1, sum(1 for _ in iter_vectors(weights, 2 * n)), 0)
    if family == "Sp":
        # the involution tensors with 1'; fixed vectors equal their image
        slots = _build_slots(irreps(oct_), A, REAL)
        slot_of = {s.names[0]: k for k, s in enumerate(slots)}
        perm = [slot_of[tensor_with_onedim(oct_, s.names[0], "1'")]
                for s in slots]
        fixed = moved = 0
        for vec in iter_vectors(tuple(s.weight for s in slots), 2 * n):
            if all(vec[k] == vec[perm[k]] for k in range(len(vec))):
                fixed += 1
            else:
                moved += 1
        return SectorCount(0, fixed, moved)
    fixed = moved = 0
    for mv in multiplicity_vectors(oct_, Target("SO_odd", n)):
        c = (mv.get("1'", 0) - mv.get("3'", 0) + mv.get("2''", 0)) % 4
        assert c % 2 == 0
        if c // 2 != w:
            continue
        if mv.get("2''", 0) or (mv.get("1", 0) + mv.get("3", 0)
                                and mv.get("1'", 0) + mv.get("3'", 0)):
            fixed += 1
        else:
            moved += 2
    return SectorCount(w, fixed, moved)


def enumerated_count(g: GroupSpec, family: str, n: int) -> int:
    """N(g, family(n)) by listing, for every target family."""
    if family in ("U", "SU", "Sp", "O_odd", "SO_odd"):
        return sum(1 for _ in multiplicity_vectors(g, Target(family, n)))
    if family == "PU":
        return len(unitary_orbits(g, n))
    if n == 0:
        # Spin(1) is Z_2, and PSp(0) counts A/2A: both are the real 1-dim
        # characters
        return sum(1 for i in irreps(g) if i.dim == 1 and i.reality == REAL)
    spin = family == "Spin_odd"
    if g.family == CYCLIC:
        return grid_count(cartan_data("B" if spin else "C", n),
                          "sc" if spin else "adj", g.param)
    if g.family in (TETRAHEDRAL, ICOSAHEDRAL):
        return enumerated_count(g, "SO_odd" if spin else "Sp", n)
    if g.family == OCTAHEDRAL and spin:
        s = enumerated_sector("Spin_odd", n, 0)
        return s.fixed + s.moved
    if g.family == OCTAHEDRAL:
        return sum(enumerated_sector("Sp", n, w).dim_v0 for w in (0, 1))
    raise NotCoveredError(f"not covered: {family} for {g.label}")
