"""The enumeration oracle: constrained multiplicity vectors, listed one by one.

The library counts these vectors with the composition kernel
(dualcount.counting.graded_compositions) and never lists them; the tests
compare its counts, and the constraints each vector satisfies, against this
listing.
"""

from dualcount.counting import (Target, _orthogonal_slots, _symplectic_slots,
                                iter_vectors)
from dualcount.errors import NotCoveredError
from dualcount.grouprep import GroupSpec, abelianization, irreps


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
