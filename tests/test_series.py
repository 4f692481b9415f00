"""Tests for series term lists, expansion, and identity proofs."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcount.errors import NotCoveredError
from dualcount.grouprep import CYCLIC, DIHEDRAL, OCTAHEDRAL, TETRAHEDRAL, GroupSpec
from dualcount.series import (
    MAX_IDENTITY_VALUES,
    GaussSeries,
    average,
    binom,
    builtin_genfun,
    canonical_params,
    cleared_difference_degree,
    expand,
    identity_sides,
    parse_identity_params,
    phase,
    product,
    prove_identity,
    qpow,
    random_identity_params,
    scalar,
    signed_sum,
)

ALL_GROUPS = (
    [GroupSpec.cyclic(m) for m in range(1, 8)]
    + [GroupSpec.binary_dihedral(m) for m in range(2, 7)]
    + [
        GroupSpec.binary_tetrahedral(),
        GroupSpec.binary_octahedral(),
        GroupSpec.binary_icosahedral(),
    ]
)


def coeff(s: GaussSeries, k: int) -> Fraction:
    """The coefficient of q^k in s, which must be real."""
    if not 0 <= k <= s.order:
        raise IndexError(f"coefficient {k} beyond truncation order {s.order}")
    if s.im[k]:
        raise ValueError(f"coefficient {k} is not real")
    return Fraction(s.re[k], s.den)

REFINED_TOKENS = (
    "refined:0,0:Sp",
    "refined:0,0:Spin",
    "refined:0,1:Sp",
    "refined:0,1:Spin",
    "refined:1,1:Spin",
)

FIXED_INSTANTIATIONS = (
    ("KF1", "1;1;3;1,1,1"),
    ("KF1", "2;1,2;2;1,2"),
    ("KF1", "4;1,3,2,2;2;2,4"),
    ("KF2", "2;1;3,2;1,2,2;1,1"),
    ("KF2", "4;1,2;1,1;2;1"),
    ("KF3", "1;2,2,0,0;2,2;1,1;;"),
    ("KF4", "1,2;1;2"),
)


# -- the seed's Fraction route, kept as the test oracle -------------------------
#
# Coefficients are GaussRat pairs of Fractions, every binomial factor multiplies
# by a GaussRat, and the cleared proof expands each term to the full degree.
# The oracle reads the flat terms of the built-in series and identity sides;
# for random expressions it builds its own value (see the end of this file).


class GaussRat:
    """a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussRat is immutable")

    @staticmethod
    def i_power(c: int) -> "GaussRat":
        return ((GaussRat(1), GaussRat(0, 1), GaussRat(-1), GaussRat(0, -1))[c % 4])

    def __add__(self, other):
        other = _as_gauss(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _as_gauss(other)
        return GaussRat(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = _as_gauss(other)
        return GaussRat(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def inverse(self) -> "GaussRat":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return GaussRat(self.re / n, -self.im / n)

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        other = _as_gauss(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def rational(self) -> Fraction:
        if self.im:
            raise ValueError(f"{self!r} is not real")
        return self.re

    def __repr__(self):
        if not self.im:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


def _as_gauss(x) -> GaussRat:
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    raise TypeError(f"cannot coerce {x!r} to GaussRat")


class FractionSeries:
    """Power series in q truncated at a fixed order, with GaussRat coefficients."""

    def __init__(self, order: int, coeffs=None):
        self.order = order
        coeffs = [_as_gauss(c) for c in coeffs or ()]
        coeffs += [GaussRat() for _ in range(order + 1 - len(coeffs))]
        self.coeffs = coeffs[:order + 1]

    @staticmethod
    def term(order: int, scalar, shift: int) -> "FractionSeries":
        s = FractionSeries(order)
        if 0 <= shift <= order:
            s.coeffs[shift] = _as_gauss(scalar)
        return s

    def __add__(self, other):
        return FractionSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return FractionSeries(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        out = [GaussRat() for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return FractionSeries(self.order, out)

    def scale(self, c) -> "FractionSeries":
        return FractionSeries(self.order, [a * c for a in self.coeffs])

    def apply_binom(self, u: GaussRat, k: int, e: int) -> "FractionSeries":
        """Multiply by (1 - u q^k)^e, exponent by exponent."""
        cur = list(self.coeffs)
        for _ in range(abs(e)):
            nxt = list(cur)
            for j in range(k, self.order + 1):
                if e > 0:
                    nxt[j] = nxt[j] - u * cur[j - k]
                else:
                    nxt[j] = nxt[j] + u * nxt[j - k]
            cur = nxt
        return FractionSeries(self.order, cur)

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def _oracle_terms(terms) -> list:
    """The flat terms as (scalar, qshift, {(phase, k): exponent}) in Fractions."""
    return [(GaussRat(Fraction(t.re, t.den), Fraction(t.im, t.den)), t.qshift,
             t.factors) for t in terms]


def oracle_expand(terms, order: int) -> FractionSeries:
    """The sum of flat terms, each expanded by the Fraction route."""
    total = FractionSeries(order)
    for s, shift, fac in _oracle_terms(terms):
        poly = FractionSeries.term(order, s, shift)
        for (c, k), e in fac.items():
            poly = poly.apply_binom(GaussRat.i_power(c), k, e)
        total = total + poly
    return total


def oracle_cleared_difference_degree(lhs, rhs) -> tuple[bool, int]:
    terms = _oracle_terms(lhs) + [
        (-s, shift, fac) for s, shift, fac in _oracle_terms(rhs)]
    if not terms:
        return True, 0
    need: dict = {}
    for _, _, fac in terms:
        for key, e in fac.items():
            need[key] = max(need.get(key, 0), -e)
    base_shift = -min(min((shift for _, shift, _ in terms), default=0), 0)
    degree = 0
    for _, shift, fac in terms:
        d = shift + base_shift
        for key, e in fac.items():
            d += (e + need.get(key, 0)) * key[1]
        for key, extra in need.items():
            if key not in fac:
                d += extra * key[1]
        degree = max(degree, d)
    total = FractionSeries(degree)
    for s, shift, fac in terms:
        poly = FractionSeries.term(degree, s, shift + base_shift)
        for key, extra in need.items():
            e = fac.get(key, 0) + extra
            if e:
                poly = poly.apply_binom(GaussRat.i_power(key[0]), key[1], e)
        total = total + poly
    return total.is_zero(), degree


def _gauss_coeffs(s: GaussSeries) -> list:
    return [GaussRat(Fraction(x, s.den), Fraction(y, s.den)) for x, y in zip(s.re, s.im)]


def test_gauss_rat_arithmetic():
    i = GaussRat(0, 1)
    assert i * i == GaussRat(-1)
    assert GaussRat.i_power(5) == i
    x = GaussRat(Fraction(2, 3), Fraction(-1, 2))
    assert x * x.inverse() == GaussRat(1)
    assert (x + i) - i == x
    assert GaussRat(7).rational() == Fraction(7)
    with pytest.raises(ValueError):
        GaussRat(1, 1).rational()


# -- Gaussian integer series -----------------------------------------------------


ONE_MINUS_Q = signed_sum((1, scalar(1)), (-1, qpow(1)))


def test_gauss_series_ring_ops():
    geo = binom(1)  # 1/(1 - q)
    assert expand(geo, 8).integer_coeffs() == [1] * 9
    assert expand(product(geo, ONE_MINUS_Q), 8) == expand(scalar(1), 8)
    assert expand(product(geo, geo), 8).integer_coeffs() == list(range(1, 10))
    # a product of sums multiplies out term by term: (1 + q)(1 - q) = 1 - q^2
    one_plus_q = signed_sum((1, scalar(1)), (1, qpow(1)))
    assert expand(product(one_plus_q, ONE_MINUS_Q), 8).integer_coeffs() == [
        1, 0, -1, 0, 0, 0, 0, 0, 0]
    assert expand(signed_sum((1, geo), (-1, geo)), 8) == GaussSeries(8)


def test_apply_binom_matches_explicit_product():
    # (1 - q)^3 as one binomial factor equals multiplying out by hand
    via = expand(binom(1, 3), 6)
    explicit = expand(product(*(ONE_MINUS_Q,) * 3), 6)
    assert via == explicit
    assert via.integer_coeffs() == [1, -3, 3, -1, 0, 0, 0]
    # the inverse factor undoes it on every shifted term
    undone = product(*(ONE_MINUS_Q,) * 3, binom(1, -3))
    assert expand(undone, 6) == expand(scalar(1), 6)


@pytest.mark.parametrize("c", range(4))
@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("e", [-3, -1, 1, 2])
def test_apply_binom_matches_the_fraction_route(c, k, e):
    # ((1 - i q)^-1 (1 - (-1)^a q^2)^2 + (1/3) q) (1 - i^c q^k)^e at a = 1
    terms = signed_sum((1, product(binom(1, -1, 1), binom(2, 2, 2))),
                       (1, product(scalar(1, 3), qpow(1))))
    via = expand(product(terms, binom(k, e, c)), 30)
    old = (FractionSeries.term(30, 1, 0).apply_binom(GaussRat.i_power(1), 1, -1)
           .apply_binom(GaussRat.i_power(2), 2, 2)
           + FractionSeries.term(30, Fraction(1, 3), 1))
    assert _gauss_coeffs(via) == old.apply_binom(GaussRat.i_power(c), k, e).coeffs


# -- expansion -----------------------------------------------------------------


def test_expand_geometric_series():
    s = expand(binom(2), 10)  # (1 - q^2)^-1
    assert s.integer_coeffs() == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_expand_average_kills_odd_powers():
    # averaging (1 - (-1)^a q)^-1 over a = 0, 1 keeps even powers only
    s = expand(average(lambda a: binom(1, -1, 2 * a), 2), 8)
    assert s.integer_coeffs() == [1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_expand_quarter_average_picks_multiples_of_four():
    s = expand(average(lambda b: binom(1, -1, b), 4), 8)
    assert s.integer_coeffs() == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_avg_equals_mean_of_substitutions():
    # (1 - (-1)^a q)^-1 (1 - q^2)^-1
    def body(a):
        return product(binom(1, -1, 2 * a), binom(2))

    direct = expand(average(body, 2), 12)
    parts = [expand(body(a), 12) for a in (0, 1)]
    mean = [(coeff(parts[0], j) + coeff(parts[1], j)) / 2 for j in range(13)]
    assert [coeff(direct, j) for j in range(13)] == mean


def test_coeff_rejects_fractional_result_only_when_nonintegral():
    half = product(scalar(1, 2), qpow(1))
    assert coeff(expand(half, 2), 1) == Fraction(1, 2)


@given(st.integers(1, 5), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_shift_matches_qpow_product(k, e):
    base = binom(k, -e)  # (1 - q^k)^-e
    shifted = product(qpow(3), base)
    a = expand(shifted, 12).integer_coeffs()
    b = expand(base, 12).integer_coeffs()
    assert a == [0, 0, 0] + b[:10]


# -- built-in series anchors ---------------------------------------------------


def test_tetrahedral_sp_series_anchor():
    s = expand(builtin_genfun(GroupSpec.binary_tetrahedral(), "Sp"), 8)
    assert s.integer_coeffs()[:9] == [1, 0, 3, 0, 7, 0, 14, 0, 25]


def test_octahedral_sp_coefficient_anchor():
    assert coeff(expand(builtin_genfun(GroupSpec.binary_octahedral(), "Sp"), 2), 2) == 4


def test_cyclic_so_series_anchor():
    s = expand(builtin_genfun(GroupSpec.cyclic(3), "SO_odd"), 7)
    assert s.integer_coeffs() == [0, 1, 0, 2, 0, 3, 0, 4]


def test_cyclic_one_sp_series_is_geometric_in_q_squared():
    s = expand(builtin_genfun(GroupSpec.cyclic(1), "Sp"), 8)
    assert s.integer_coeffs() == [1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_sp_series_vanish_in_odd_degree_and_so_in_even():
    for g in ALL_GROUPS:
        sp = expand(builtin_genfun(g, "Sp"), 9)
        so = expand(builtin_genfun(g, "SO_odd"), 9)
        for j in range(1, 10, 2):
            assert coeff(sp, j) == 0
        for j in range(0, 10, 2):
            assert coeff(so, j) == 0


def test_refined_sector_anchors():
    oct_ = GroupSpec.binary_octahedral()
    assert coeff(expand(builtin_genfun(oct_, "refined:0,1:Sp"), 2), 2) == 2
    assert coeff(expand(builtin_genfun(oct_, "refined:0,1:Spin"), 3), 3) == 2
    y00 = expand(builtin_genfun(oct_, "refined:0,0:Sp"), 8)
    assert y00.integer_coeffs() == [1, 0, 2, 0, 8, 0, 15, 0, 38]
    y00s = expand(builtin_genfun(oct_, "refined:0,0:Spin"), 9)
    assert y00s.integer_coeffs() == [0, 1, 0, 2, 0, 8, 0, 15, 0, 38]


def test_refined_tokens_require_octahedral():
    with pytest.raises(NotCoveredError):
        builtin_genfun(GroupSpec.binary_tetrahedral(), "refined:0,0:Sp")
    with pytest.raises(NotCoveredError):
        builtin_genfun(GroupSpec.cyclic(4), "refined:0,1:Spin")


def test_unknown_tokens_rejected():
    with pytest.raises(NotCoveredError):
        builtin_genfun(GroupSpec.binary_octahedral(), "refined:1,0:Sp")
    with pytest.raises(NotCoveredError):
        builtin_genfun(GroupSpec.binary_octahedral(), "refined:2,0:Spin")
    with pytest.raises(NotCoveredError):
        builtin_genfun(GroupSpec.cyclic(3), "SU")


def test_sector_series_sums():
    # symplectic-side sectors add up to the adjoint-form count
    # (2 at q^0, 4 at q^2); orthogonal-side sectors add up to the
    # simply-connected-form count (2 at q^1, 4 at q^3)
    oct_ = GroupSpec.binary_octahedral()
    n = 12

    def sector_sum(side):
        return expand(signed_sum(*[(1, builtin_genfun(oct_, f"refined:0,{m}:{side}"))
                                   for m in (0, 1)]), n).integer_coeffs()

    assert sector_sum("Sp")[:4] == [2, 0, 4, 0]
    assert sector_sum("Spin")[:8] == [0, 2, 0, 4, 0, 12, 0, 22]


def test_vanishing_sector_series_is_zero_to_high_order():
    z = expand(builtin_genfun(GroupSpec.binary_octahedral(), "refined:1,1:Spin"), 60)
    assert z == GaussSeries(60)


# -- identities ----------------------------------------------------------------


@pytest.mark.parametrize("identity,params", FIXED_INSTANTIATIONS)
def test_fixed_instantiations_prove_by_clearing(identity, params):
    report = prove_identity(identity, params)
    assert report["verdict"] == "proven"
    assert report["method"] == "cleared"
    assert report["identity"] == identity


@pytest.mark.parametrize("identity", ["PropX", "PropY", "PropA"])
def test_named_propositions_prove(identity):
    report = prove_identity(identity)
    assert report["verdict"] == "proven"
    assert report["params"] == ""


def test_vanishing_proposition_clears_exactly():
    # the (1,1) Spin sector series is a finite sum of rational functions whose
    # cleared numerator has degree 16 and vanishes
    assert prove_identity("PropY") == {
        "identity": "PropY",
        "params": "",
        "method": "cleared",
        "degree_or_order": 16,
        "verdict": "proven",
    }


def test_vanishing_proposition_by_series_to_order_200():
    lhs, rhs = identity_sides("PropY", None)
    assert expand(lhs, 200) == expand(rhs, 200)


def test_cleared_difference_reports_failure_degree():
    lhs = binom(1)  # (1 - q)^-1
    rhs = binom(2)  # (1 - q^2)^-1
    holds, degree = cleared_difference_degree(lhs, rhs)
    assert not holds
    assert degree >= 1
    ok, _ = cleared_difference_degree(lhs, binom(1))
    assert ok


def mainA_instantiation(g: GroupSpec) -> tuple[str, str]:
    """The identity and parameters whose two sides are the closed forms of
    q * Sp-series and SO-series for the given group."""
    if g.family == CYCLIC:
        l = g.param // 2
        return "KF1", f"1;1;{l};{','.join(['1'] * l)}"
    if g.family == DIHEDRAL:
        m = g.param
        if m % 2:
            t = (m - 1) // 2
            v0 = ",".join(["1"] + ["2"] * t)
            v1 = ",".join(["1"] * t)
            return "KF2", f"2;1;{t + 1},{t};{v0};{v1}"
        t = m // 2
        v00 = ",".join(["2"] * (t - 1))
        v01 = ",".join(["1"] * (t - 1))
        return "KF3", f"1;{t - 1},{t - 1},0,0;{v00};{v01};;"
    if g.family == TETRAHEDRAL:
        return "KF1", "2;1,2;2;1,2"
    if g.family == OCTAHEDRAL:
        return "KF2", "4;1,2;1,1;2;1"
    return "KF1", "4;1,3,2,2;2;2,4"


@pytest.mark.parametrize(
    "g",
    ALL_GROUPS,
    ids=lambda g: g.label,
)
def test_group_instantiations_reproduce_builtin_series(g):
    identity, params = mainA_instantiation(g)
    lhs, rhs = identity_sides(identity, params)
    n = 20
    shifted_sp = product(qpow(1), builtin_genfun(g, "Sp"))
    assert expand(lhs, n) == expand(shifted_sp, n)
    assert expand(rhs, n) == expand(builtin_genfun(g, "SO_odd"), n)


def test_invalid_identity_parameters_rejected():
    with pytest.raises(ValueError):
        prove_identity("KF1", "4;1,2,3,5;1;1")  # k1+k2 != k3+k4
    with pytest.raises(ValueError):
        prove_identity("KF1", "4;3,3,2,4;1;1")  # needs k1 < k3
    with pytest.raises(ValueError):
        prove_identity("KF2", "4;2,1;1,1;1;1")  # needs k1 < k2
    with pytest.raises(ValueError):
        prove_identity("KF4", "2,2;1;1")
    with pytest.raises(ValueError):
        prove_identity("KF1", "2;1,2;3;1,2")  # l disagrees with v list
    with pytest.raises(ValueError):
        prove_identity("KF9", "1;1;1;1")
    with pytest.raises(ValueError):
        prove_identity("PropX", "1;1")
    with pytest.raises(ValueError):
        prove_identity("KF1")


def test_canonical_params_round_trip():
    for identity, params in FIXED_INSTANTIATIONS:
        canon = canonical_params(identity, params)
        assert canon == params
        assert parse_identity_params(identity, canon) == parse_identity_params(
            identity, params
        )


@given(
    st.integers(1, 4),
    st.lists(st.integers(1, 5), min_size=0, max_size=3),
)
@settings(max_examples=25, deadline=None)
def test_random_single_factor_tuples_prove(k, v):
    params = {"k": (k,), "v": tuple(v)}
    report = prove_identity("KF1", params)
    assert report["verdict"] == "proven"


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.lists(st.integers(1, 4), min_size=0, max_size=2),
    st.lists(st.integers(1, 4), min_size=0, max_size=2),
)
@settings(max_examples=15, deadline=None)
def test_random_two_factor_average_tuples_prove(k, dk, v0, v1):
    params = {"k": (k,), "v0": tuple(v0), "v1": tuple(v1)}
    report = prove_identity("KF2", params)
    assert report["verdict"] == "proven"
    params2 = {"k": (k, k + dk), "v": tuple(v0)}
    report2 = prove_identity("KF1", params2)
    assert report2["verdict"] == "proven"


def test_series_and_cleared_methods_agree():
    for identity, params in (("KF1", "2;2,5;1;3"), ("KF2", "2;2;2,1;1,3;2")):
        lhs, rhs = identity_sides(identity, params)
        assert prove_identity(identity, params)["verdict"] == "proven"
        assert expand(lhs, 80) == expand(rhs, 80)


@pytest.mark.parametrize("identity", ["KF1", "KF2", "KF3", "KF4"])
def test_random_params_are_valid_and_canonical(identity):
    import random

    rng = random.Random(20260814)
    for _ in range(40):
        params = random_identity_params(identity, rng)
        # canonical form is a fixed point and the sides build without error
        assert canonical_params(identity, params) == params
        identity_sides(identity, params)


def test_random_params_are_deterministic_given_seed():
    import random

    draws = lambda: [random_identity_params("KF1", random.Random(5))
                     for _ in range(3)]
    assert draws() == draws()


def test_random_params_rejects_unparametrized():
    import random

    with pytest.raises(ValueError):
        random_identity_params("PropX", random.Random(0))


def test_random_draws_are_pinned():
    # the draws of a seed are part of verify identities --random --seed
    import random

    rng = random.Random(20260814)
    assert [random_identity_params(f, rng) for f in ("KF1", "KF2", "KF3", "KF4")
            for _ in range(2)] == [
        "4;3,5,4,4;0;", "4;4,6,5,5;1;3", "4;2,4;0,1;;2", "4;5,6;3,0;4,5,5;",
        "6;2,1,2,2;3,5;1;4,1;1,1", "1;0,0,0,0;;;;", "1,5;3;3,3,3", "3,4;0;"]


def test_identity_values_are_bounded():
    # the count takes in every k value and every v list
    top = MAX_IDENTITY_VALUES
    kf3 = lambda n: f"1;{n},0,0,1;{','.join(['1'] * n)};;;1"  # n + 2 values
    assert parse_identity_params("KF1", {"k": (1,), "v": (1,) * (top - 1)})
    assert parse_identity_params("KF3", kf3(top - 2))["v"][0] == (1,) * (top - 2)
    for identity, params in (("KF1", {"k": (1,), "v": (1,) * top}),
                             ("KF3", kf3(top - 1))):
        with pytest.raises(ValueError, match=f"at most {top} k and v values"):
            parse_identity_params(identity, params)


@pytest.mark.parametrize("params", [None, "", "1;1;0;", {"k": (1,), "v": ()}])
def test_an_unknown_identity_is_refused_before_its_parameters_are_read(params):
    with pytest.raises(ValueError, match=r"^unknown identity 'Bogus'; choose from \("):
        parse_identity_params("Bogus", params)


@pytest.mark.parametrize("identity,params,message", [
    ("KF1", "x;1;1;1", "s from 'x'"), ("KF1", "1;1;1.0;1", "l from '1.0'"),
    ("KF2", " ;1;1,1;2;1", "s from ''"), ("KF3", "k;1,0,0,0;1;;;", "k from 'k'"),
    ("KF4", "1,2;;2", "l from ''"), ("KF1", "1;1,x;1;1", "k values from 'x'")])
def test_a_parameter_that_is_no_int_is_named(identity, params, message):
    with pytest.raises(ValueError, match=f"^could not parse {message}$"):
        parse_identity_params(identity, params)


# -- the integer route against the Fraction route ---------------------------------


ORACLE_GROUPS = (
    [GroupSpec.cyclic(m) for m in range(1, 13)]
    + [GroupSpec.binary_dihedral(m) for m in range(2, 7)]
    + [
        GroupSpec.binary_tetrahedral(),
        GroupSpec.binary_octahedral(),
        GroupSpec.binary_icosahedral(),
    ]
)


@pytest.mark.parametrize(
    "identity,params",
    FIXED_INSTANTIATIONS + (("PropX", None), ("PropA", None)))
def test_cleared_routes_agree_on_fixed_instances(identity, params):
    lhs, rhs = identity_sides(identity, params)
    assert cleared_difference_degree(lhs, rhs) == oracle_cleared_difference_degree(lhs, rhs)


@pytest.mark.parametrize("identity", ["KF1", "KF2", "KF3", "KF4"])
def test_cleared_routes_agree_on_random_draws(identity):
    import random

    rng = random.Random(7)
    for _ in range(3):
        params = random_identity_params(identity, rng)
        lhs, rhs = identity_sides(identity, params)
        new = cleared_difference_degree(lhs, rhs)
        assert new == oracle_cleared_difference_degree(lhs, rhs), params
        assert new[0]


def test_broken_identity_fails_on_both_routes():
    lhs, rhs = identity_sides("KF4", "1,2;1;2")
    broken = signed_sum((1, lhs), (1, qpow(300)))
    new = cleared_difference_degree(broken, rhs)
    assert not new[0]
    assert new == oracle_cleared_difference_degree(broken, rhs)


@pytest.mark.parametrize("g", ORACLE_GROUPS, ids=lambda g: g.label)
@pytest.mark.parametrize("token", ["Sp", "SO_odd"])
def test_expand_routes_agree_on_builtins(g, token):
    terms = builtin_genfun(g, token)
    assert _gauss_coeffs(expand(terms, 25)) == oracle_expand(terms, 25).coeffs


@pytest.mark.parametrize("token", REFINED_TOKENS)
def test_expand_routes_agree_on_refined_tokens(token):
    terms = builtin_genfun(GroupSpec.binary_octahedral(), token)
    assert _gauss_coeffs(expand(terms, 25)) == oracle_expand(terms, 25).coeffs


def test_expand_routes_agree_on_the_vanishing_series_to_order_200():
    lhs, rhs = identity_sides("PropY", None)
    new = expand(lhs, 200)
    assert new == GaussSeries(200)
    assert _gauss_coeffs(new) == oracle_expand(lhs, 200).coeffs


# -- random expressions: the flat-term sum against the Fraction oracle ----------
#
# A random expression is a function of (env, order), env binding the variables
# a and b, that returns two things: its production term list, built with the
# combinators, and its oracle value, a FractionSeries built with the oracle's
# own multiply, add, scale and apply_binom.  So the oracle value never passes
# through the flat-term code.


EXPR_VARS = ("a", "b")


def _avg(var, n, inner):
    """The mean of inner over var = 0..n-1."""
    def build(env, order):
        parts = [inner({**env, var: v}, order) for v in range(n)]
        value = FractionSeries(order)
        for _, s in parts:
            value = value + s
        return (average(lambda v: parts[v][0], n),
                value.scale(GaussRat(Fraction(1, n))))
    return build


@st.composite
def _phases(draw):
    """c(env) for the phase i^c: a constant, plus a multiple of one variable."""
    var = draw(st.sampled_from((None,) + EXPR_VARS))
    mult = draw(st.integers(1, 3)) if var else 0
    const = draw(st.integers(0, 3))
    return lambda env: const + (mult * env[var] if var else 0)


@st.composite
def _binoms(draw, max_k):
    """(k, e, c): the factor (1 - i^c(env) q^k)^e."""
    e = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    return draw(st.integers(1, max_k)), e, draw(_phases())


@st.composite
def _exprs(draw, depth, max_k, max_shift):
    """An expression whose free variables are among EXPR_VARS."""
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.sampled_from(("num", "qpow", "phase", "binom")))
        if kind == "num":
            x = Fraction(draw(st.integers(0, 5)), draw(st.integers(1, 4)))
            return lambda env, order: (scalar(x.numerator, x.denominator),
                                       FractionSeries.term(order, x, 0))
        if kind == "qpow":
            k = draw(st.integers(1, max_shift))
            return lambda env, order: (qpow(k), FractionSeries.term(order, 1, k))
        if kind == "phase":
            c = draw(_phases())
            return lambda env, order: (
                phase(c(env)), FractionSeries.term(order, GaussRat.i_power(c(env)), 0))
        k, e, c = draw(_binoms(max_k))
        return lambda env, order: (binom(k, e, c(env)), FractionSeries.term(
            order, 1, 0).apply_binom(GaussRat.i_power(c(env)), k, e))
    inner = _exprs(depth - 1, max_k, max_shift)
    kind = draw(st.sampled_from(("prod", "sum", "avg", "cancel")))
    if kind == "prod":
        factors = draw(st.lists(inner, min_size=2, max_size=3))

        def build(env, order):
            parts = [f(env, order) for f in factors]
            value = parts[0][1]
            for _, s in parts[1:]:
                value = value * s
            return product(*[t for t, _ in parts]), value
        return build
    if kind == "sum":
        signs = st.sampled_from((1, -1))
        signed = draw(st.lists(st.tuples(signs, inner), min_size=2, max_size=3))

        def build(env, order):
            parts = [(sign, f(env, order)) for sign, f in signed]
            value = FractionSeries(order)
            for sign, (_, s) in parts:
                value = value + s if sign > 0 else value - s
            return signed_sum(*[(sign, t) for sign, (t, _) in parts]), value
        return build
    if kind == "avg":
        return _avg(draw(st.sampled_from(EXPR_VARS)), draw(st.sampled_from((2, 4))),
                    draw(inner))
    # a factor and its inverse, which cancel when the terms are merged
    body, (k, e, c) = draw(inner), draw(_binoms(max_k))

    def build(env, order):
        terms, value = body(env, order)
        u = GaussRat.i_power(c(env))
        return (product(terms, binom(k, e, c(env)), binom(k, -e, c(env))),
                value.apply_binom(u, k, e).apply_binom(u, k, -e))
    return build


def _closed(expr, order):
    """(terms, oracle value) with the variables bound: averaged over a = 0, 1
    and b = 0..3."""
    return _avg("a", 2, _avg("b", 4, expr))({}, order)


@given(_exprs(3, 6, 45), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_expand_matches_the_oracle_on_random_trees(expr, order):
    terms, value = _closed(expr, order)
    assert _gauss_coeffs(expand(terms, order)) == value.coeffs


@given(_exprs(2, 4, 12), st.one_of(st.none(), _exprs(2, 4, 12)))
@settings(max_examples=40, deadline=None)
def test_cleared_difference_matches_the_oracle_on_random_pairs(lhs, rhs):
    # rhs None: the expression against itself, an identity that holds
    lhs = _closed(lhs, 0)[0]
    rhs = lhs if rhs is None else _closed(rhs, 0)[0]
    assert cleared_difference_degree(lhs, rhs) == oracle_cleared_difference_degree(lhs, rhs)
