"""The root data: the integer adjugate inverse against the Fraction oracle."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcount import lattice, rootdata
from frac_inverse import frac_inverse

CARTAN_TYPES = ([("A", r) for r in range(1, 13)]
                + [("D", r) for r in range(3, 13)]
                + [("E", r) for r in (6, 7, 8)]
                + [(letter, r) for letter in "BC" for r in range(1, 9)]
                + [("F", 4), ("G", 2)])


def _choices(letter, rank):
    """Every lattice choice that _lattice_basis accepts for the type."""
    if letter != "D":
        return ("adj", "sc")
    return ("adj", "sc", "so") + (("hs+", "hs-") if rank % 2 == 0 else ())


LATTICE_BASES = [(letter, rank, choice) for letter, rank in CARTAN_TYPES
                 if rank <= 8 for choice in _choices(letter, rank)]


def _as_fractions(adj, det):
    return [[Fraction(x, det) for x in row] for row in adj]


@pytest.mark.parametrize("letter,rank", CARTAN_TYPES, ids=lambda v: str(v))
def test_adjugate_inverts_each_cartan_matrix(letter, rank):
    c = rootdata.cartan_data(letter, rank)
    adj, det = rootdata._adjugate(c.cartan)
    assert _as_fractions(adj, det) == frac_inverse(c.cartan)
    # det C is the order of the center P/Q
    assert det == prod(c.center_moduli)


@pytest.mark.parametrize("letter,rank,choice", LATTICE_BASES, ids=lambda v: str(v))
def test_adjugate_inverts_each_lattice_basis(letter, rank, choice):
    basis = lattice._lattice_basis(rootdata.cartan_data(letter, rank), choice)
    adj, det = rootdata._adjugate(basis)
    assert _as_fractions(adj, det) == frac_inverse(basis)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda r: st.lists(st.lists(st.integers(-6, 6), min_size=r, max_size=r),
                       min_size=r, max_size=r)))
def test_adjugate_matches_the_fraction_inverse_or_refuses_a_singular_matrix(mat):
    try:
        want = frac_inverse(mat)
    except StopIteration:  # no pivot: the matrix is singular
        with pytest.raises(ValueError):
            rootdata._adjugate(mat)
        return
    adj, det = rootdata._adjugate(mat)
    assert _as_fractions(adj, det) == want


def test_lattice_reads_the_root_data_of_rootdata():
    # moved, not copied: one Cartan, Smith and Kac implementation
    for name in ("CartanData", "cartan_data", "_smith_normal_form", "_kac_data"):
        assert getattr(lattice, name) is getattr(rootdata, name)
