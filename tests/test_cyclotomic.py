"""Exact cyclotomic arithmetic."""

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dualcount import cyclotomic
from dualcount.abgroup import AbGroup, cyclotomic_poly
from dualcount.cyclotomic import Cyc
from rep_routes import homomorphisms, isomorphisms, kernel_of_scaling, scale


def test_cyclotomic_poly_small():
    # classical closed forms
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_zeta_satisfies_its_polynomial():
    for n in (1, 2, 3, 4, 5, 8, 12, 24):
        z = Cyc.zeta(n)
        acc = Cyc.from_rational(0, n)
        power = Cyc.from_rational(1, n)
        for c in cyclotomic_poly(n):
            acc = acc + power * c
            power = power * z
        assert acc == 0


def test_sqrt2_from_eighth_roots():
    b = Cyc.zeta(8) + Cyc.zeta(8, 7)
    assert (b * b).rational() == 2


def test_golden_ratio_from_fifth_roots():
    phi_plus = -(Cyc.zeta(5, 2) + Cyc.zeta(5, 3))
    phi_minus = -(Cyc.zeta(5, 1) + Cyc.zeta(5, 4))
    assert phi_plus * phi_plus == phi_plus + 1
    assert phi_minus * phi_minus == phi_minus + 1
    assert (phi_plus + phi_minus).rational() == 1
    assert (phi_plus * phi_minus).rational() == -1


def test_sum_of_all_roots_vanishes():
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 12):
        total = sum((Cyc.zeta(n, k) for k in range(1, n)), Cyc.zeta(n, 0))
        assert total == 0


def test_conjugate_is_inverse_on_roots():
    for n in (3, 4, 5, 8):
        z = Cyc.zeta(n)
        assert z.conjugate() == Cyc.zeta(n, n - 1)
        assert (z * z.conjugate()).rational() == 1


def test_galois_respects_products():
    x = Cyc.zeta(12) + 2
    y = Cyc.zeta(12, 7) - 1
    for k in (5, 7, 11):
        assert (x * y).galois(k) == x.galois(k) * y.galois(k)


def test_conductors_must_match():
    # i in Q(zeta_4) and in Q(zeta_8) has coordinate lists of lengths 2 and
    # 4: every operation that would pair them refuses
    i_in_4, i_in_8 = Cyc.zeta(4), Cyc.zeta(8, 2)
    for op in (lambda: i_in_4 + i_in_8, lambda: i_in_4 - i_in_8,
               lambda: i_in_4 * i_in_8, lambda: i_in_4 == i_in_8):
        with pytest.raises(ValueError, match="conductors 4 and 8 differ"):
            op()
    # rationals are taken at the element's own conductor
    assert i_in_8 * i_in_8 + 1 == 0


def test_complex_value_matches():
    x = Cyc.zeta(5) * 2 + Fraction(1, 3)
    expected = 2 * cmath.exp(2j * cmath.pi / 5) + 1 / 3
    assert abs(x.complex_value() - expected) < 1e-12


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(0, 7), st.integers(0, 7))
def test_ring_axioms_sampled(a, b, j, k):
    x = Cyc.zeta(8, j) * a
    y = Cyc.zeta(8, k) * b
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * y == x * y + y * y


@given(st.integers(1, 24), st.integers(0, 23))
def test_power_of_zeta_wraps(n, k):
    power = Cyc.from_rational(1, n)
    for _ in range(k):
        power = power * Cyc.zeta(n)
    assert Cyc.zeta(n, k) == power
    assert Cyc.zeta(n, k) * Cyc.zeta(n, n - (k % n)) == 1


def test_rational_accessors():
    assert Cyc.from_rational(Fraction(3, 4)).rational() == Fraction(3, 4)
    assert Cyc.from_rational(5).integer() == 5
    with pytest.raises(ValueError):
        Cyc.zeta(3).rational()
    with pytest.raises(ValueError):
        Cyc.from_rational(Fraction(1, 2)).integer()


# -- the Fraction-polynomial oracle -------------------------------------------
#
# Cyc keeps integer numerators over one denominator.  The oracle below is the
# former implementation: Fraction coefficients and products reduced by long
# division.  It shares no code with Cyc.


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num, den):
    """Exact division with remainder in Q[x]; den need not be monic."""
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / lead
        if c:
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return _poly_trim(q), _poly_trim(num)


@lru_cache(maxsize=None)
def _oracle_poly(n):
    p = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            p, rem = _poly_divmod(p, list(_oracle_poly(d)))
            assert not rem
    return tuple(p)


@lru_cache(maxsize=None)
def _oracle_zeta(n, k):
    """x^k mod Phi_n by long division, padded to the field degree."""
    deg = len(_oracle_poly(n)) - 1
    x = [Fraction(0)] * k + [Fraction(1)]
    rem = _poly_divmod(x, list(_oracle_poly(n)))[1]
    return tuple(rem + [Fraction(0)] * (deg - len(rem)))


class FractionCyc:
    """An element of Q(zeta_n) as Fraction coefficients in the power basis."""

    def __init__(self, n, coeffs):
        self.n = n
        self.phi = _oracle_poly(n)
        deg = len(self.phi) - 1
        cs = [Fraction(c) for c in coeffs]
        assert len(cs) <= deg
        self.coeffs = tuple(cs + [Fraction(0)] * (deg - len(cs)))

    @staticmethod
    def zeta(n, k=1):
        return FractionCyc(n, _oracle_zeta(n, k % n))

    def _substituted(self, m, k):
        """sum_j c_j zeta_m^(j k), summed coefficient-wise over x^(j k) mod Phi_m."""
        out = [Fraction(0)] * (len(_oracle_poly(m)) - 1)
        for j, c in enumerate(self.coeffs):
            for t, r in enumerate(_oracle_zeta(m, j * k % m)):
                out[t] += c * r
        return FractionCyc(m, out)

    def _coerce(self, other):
        if not isinstance(other, FractionCyc):
            other = FractionCyc(self.n, [other])
        assert other.n == self.n
        return self, other

    def __add__(self, other):
        a, b = self._coerce(other)
        return FractionCyc(a.n, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __sub__(self, other):
        a, b = self._coerce(other)
        return FractionCyc(a.n, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __mul__(self, other):
        a, b = self._coerce(other)
        prod = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                prod[i + j] += x * y
        return FractionCyc(a.n, _poly_divmod(prod, a.phi)[1])

    def galois(self, k):
        return self._substituted(self.n, k)

    def conjugate(self):
        return self.galois(self.n - 1)

    def __eq__(self, other):
        a, b = self._coerce(other)
        return a.coeffs == b.coeffs


def _pair(n, coeffs):
    return Cyc(n, coeffs), FractionCyc(n, coeffs)


def _agree(x, oracle):
    return x.n == oracle.n and x.coeffs == oracle.coeffs


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def _elements(draw, conductor=None):
    n = draw(st.integers(1, 24)) if conductor is None else conductor
    deg = len(cyclotomic_poly(n)) - 1
    return n, draw(st.lists(_rationals, min_size=deg, max_size=deg))


@st.composite
def _element_pairs(draw):
    n, a = draw(_elements())
    _, b = draw(_elements(n))
    return n, a, b


def test_oracle_polynomials_match():
    for n in range(1, 25):
        assert cyclotomic_poly(n) == _oracle_poly(n)


@settings(deadline=None)
@given(_element_pairs())
def test_ring_operations_match_the_oracle(operands):
    n, a, b = operands
    x, fx = _pair(n, a)
    y, fy = _pair(n, b)
    assert _agree(x + y, fx + fy)
    assert _agree(x - y, fx - fy)
    assert _agree(x * y, fx * fy)
    assert (x == y) == (fx == fy)
    assert (x + y == y + x) and (x * y == y * x)


@settings(deadline=None)
@given(_elements(), st.integers(0, 100))
def test_galois_and_conjugation_match_the_oracle(operand, k):
    n, coeffs = operand
    x, fx = _pair(n, coeffs)
    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    u = units[k % len(units)]
    assert _agree(x.galois(u), fx.galois(u))
    assert _agree(x.conjugate(), fx.conjugate() if n > 1 else fx)
    assert x.galois(1) == x


@given(_rationals, st.integers(1, 24), st.integers(1, 24))
def test_rationals_hash_like_fractions_at_every_conductor(value, n, m):
    x, y = Cyc.from_rational(value, n), Cyc.from_rational(value, m)
    assert x == value and y == value
    assert hash(x) == hash(y) == hash(value)
    assert x.rational() == value and type(x.rational()) is Fraction


@settings(deadline=None)
@given(_element_pairs())
def test_stored_form_is_integers_over_a_coprime_denominator(operands):
    n, a, b = operands
    x, y = Cyc(n, a), Cyc(n, b)
    for z in (x * y, x + y, x - y, x.galois(1), x.conjugate()):
        assert all(type(v) is int for v in z.nums)
        assert type(z.den) is int and z.den > 0
        assert gcd(z.den, *z.nums) == 1


def test_arithmetic_creates_no_fraction(monkeypatch):
    x = Cyc(12, [Fraction(1, 3), 2, Fraction(-5, 4), 7])
    y = Cyc(12, [1, Fraction(1, 2), 0, -3])

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was created")

    monkeypatch.setattr(cyclotomic, "Fraction", NoFraction)
    for z in (x * y, x + y, x - y, x * 3, x + 2, x.galois(5),
              x.conjugate(), y * y * y):
        assert all(type(v) is int for v in z.nums)
    assert x * x.conjugate() == x.conjugate() * x


# -- finite abelian groups --------------------------------------------------


def test_abgroup_basics():
    g = AbGroup((4, 6))
    assert g.order == 24
    assert g.exponent == 12
    assert g.add((3, 5), (2, 2)) == (1, 1)
    assert g.neg((1, 2)) == (3, 4)


def test_kernel_of_scaling():
    g = AbGroup((12,))
    ker = kernel_of_scaling(g, 8)
    # solutions of 8x = 0 mod 12: multiples of 3
    assert sorted(ker) == [(0,), (3,), (6,), (9,)]
    trivial = AbGroup(())
    assert kernel_of_scaling(trivial, 5) == [()]


def test_pairing_is_bilinear_root_of_unity():
    # the pairing is the exponent k of zeta_e^k, e the exponent, so it is
    # bilinear as a map into Z_e
    g = AbGroup((2, 4))
    e = g.exponent
    for chi in g.elements():
        for x in g.elements():
            k = g.pairing(chi, x)
            assert k in range(e)
            for y in g.elements():
                assert g.pairing(chi, g.add(x, y)) == (k + g.pairing(chi, y)) % e
                assert g.pairing(g.add(chi, y), x) == (k + g.pairing(y, x)) % e
    # pairing of generators: -1 = zeta_4^2, and i = zeta_4
    assert g.pairing((1, 0), (1, 0)) == 2
    assert g.pairing((0, 1), (0, 1)) == 1


def test_homs_and_isos():
    a = AbGroup((2, 2))
    b = AbGroup((4,))
    assert len(homomorphisms(a, b)) == 4  # images of each gen in {0, 2}
    assert isomorphisms(a, b) == []
    c = AbGroup((2, 2))
    isos = isomorphisms(a, c)
    assert len(isos) == 6  # GL(2, F2)
    assert len(isomorphisms(AbGroup((4,)), AbGroup((4,)))) == 2


@given(st.integers(1, 12), st.integers(1, 12))
def test_kernel_and_quotient_sizes_match(d, r):
    # |ker(r)| = |A/rA| = gcd(d, r) for A = Z_d; the quotient's size is what
    # the PSp(0) count reads (test_counting's test_size_zero_targets_are_trivial)
    g = AbGroup((d,))
    ker = kernel_of_scaling(g, r)
    assert len(set(ker)) == len(ker) == gcd(d, r)
    assert all(scale(g, r, x) == g.identity for x in ker)
