"""Characters, generalized Bernoulli numbers, zeta branches, local factors.

The one genuinely independent oracle here is the finite-level Riemann sum of
the c-regularized measure: it pins the closed moment formula that everything
else in the module leans on, using nothing but integer arithmetic and the
brute-force Teichmuller lift from ``oracles``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from iwa import lfunctions
from iwa.dieudonne import dcris_of_form
from iwa.lfunctions import (
    DirichletCharacter,
    c_smoothing_factor,
    euler_factor_E,
    euler_factor_Eprime,
    exceptional_zero_report,
    gen_bernoulli,
    geometric_product,
    geometric_ratio,
    kl_branch_values,
    kl_series,
    kl_series_report,
    kl_value,
    least_smoothing_c,
    remove_euler_factors,
    smoothed_moment,
)
from iwa.scalars import PadicScalar, Precision, PrecisionError, teichmuller
from iwa.series import DivisibilityError, FiniteCharacter, IwasawaElement, Series
from oracles import gen_bernoulli_padic, padic_residue, teich_pow

P24 = Precision(5, 12, 24)
PS = Precision(5, 24, 8)  # scalar work: deep p-precision, tiny x-window


def w_pow(p, j):
    return DirichletCharacter.teichmuller_power(p, j)


def char_mod13(p, s):
    """chi mod 13 sending the generator 2 to omega^s; then chi(13k+5) = omega^(9s)."""
    table = [None] * 13
    x = 1
    for t in range(12):
        table[x] = s * t
        x = x * 2 % 13
    return DirichletCharacter(p, 13, tuple(table))


def val_of_diff(a: PadicScalar, b: PadicScalar):
    d = a - b
    return d.valuation()


# ---------------------------------------------------------------- characters


class TestDirichletCharacter:
    def test_trivial_is_everywhere_one(self):
        ch = DirichletCharacter.trivial(5)
        assert ch.conductor == 1
        assert ch.exponent(12) == 0
        assert ch.value_fraction(7) == 1
        assert not ch.is_odd
        assert ch.order == 1

    def test_teichmuller_power_exponents(self):
        ch = w_pow(5, 2)
        assert ch.modulus == 5 and ch.conductor == 5
        # omega^2 at the primitive root has exponent 2
        assert ch.exponent(2) == 2
        assert ch.exponent(4) == 0  # 4 = 2^2, exponent 4 = 0 mod 4
        assert ch.exponent(5) is None
        assert not ch.is_odd and ch.order == 2
        assert w_pow(5, 1).is_odd and w_pow(5, 1).order == 4

    def test_quadratic_parities(self):
        assert DirichletCharacter.quadratic(5, 3).is_odd
        assert DirichletCharacter.quadratic(5, 4).is_odd
        assert not DirichletCharacter.quadratic(5, 8).is_odd
        assert not DirichletCharacter.quadratic(5, 5).is_odd
        q5 = DirichletCharacter.quadratic(5, 5)
        assert [q5.value_fraction(a) for a in range(1, 5)] == [1, -1, -1, 1]

    def test_quadratic_rejects_non_conductor(self):
        with pytest.raises(ValueError):
            DirichletCharacter.quadratic(5, 9)  # jacobi mod 9 is trivial on units
        with pytest.raises(ValueError):
            DirichletCharacter.quadratic(5, 6)

    @pytest.mark.parametrize("d", [-1, -3, -7])
    def test_quadratic_rejects_nonpositive_conductor(self, d):
        with pytest.raises(ValueError, match=f"no quadratic character of conductor {d}"):
            DirichletCharacter.quadratic(5, d)

    def test_constructor_rejects_bad_support(self):
        with pytest.raises(ValueError):
            DirichletCharacter(5, 4, (0, 0, None, 2))

    def test_constructor_rejects_non_multiplicative(self):
        with pytest.raises(ValueError):
            DirichletCharacter(5, 5, (None, 0, 1, 0, 0))

    def test_bad_table_raises_on_every_construction(self):
        # validation is cached per table, and lru_cache keeps no exceptions
        for _ in range(2):
            with pytest.raises(ValueError, match="not multiplicative"):
                DirichletCharacter(5, 5, (None, 0, 1, 0, 0))
            with pytest.raises(ValueError, match="unit group"):
                DirichletCharacter(5, 4, (0, 0, None, 2))

    def test_each_table_is_validated_once(self):
        lfunctions._checked_conductor.cache_clear()
        chars = [char_mod13(5, 1) for _ in range(3)]
        info = lfunctions._checked_conductor.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert all(ch == chars[0] and ch.conductor == 13 for ch in chars)

    def test_product_and_parity(self):
        q3 = DirichletCharacter.quadratic(5, 3)
        ch = q3 * w_pow(5, 2)
        assert ch.modulus == 15 and ch.conductor == 15
        assert ch.is_odd  # odd * even
        assert ch.order == 2

    def test_inverse_cancels(self):
        ch = char_mod13(5, 1)
        prod = ch * ch.inverse()
        assert prod.conductor == 1
        assert all(e in (None, 0) for e in prod.table)

    def test_primitive_strips_dead_modulus(self):
        q3 = DirichletCharacter.quadratic(5, 3)
        fat = q3 * DirichletCharacter.trivial(5, 5)
        assert fat.modulus == 15 and fat.conductor == 3
        assert fat.primitive() == q3

    def test_split_at_p(self):
        q3 = DirichletCharacter.quadratic(5, 3)
        eta0, d = (q3 * w_pow(5, 3)).split_at_p()
        assert eta0 == q3 and d == 3
        eta0, d = q3.split_at_p()
        assert eta0 == q3 and d is None
        eta0, d = w_pow(5, 2).split_at_p()
        assert eta0.conductor == 1 and d == 2

    def test_order_of_composite(self):
        assert (DirichletCharacter.quadratic(5, 3) * w_pow(5, 1)).order == 4

    @given(
        q_and_s=st.sampled_from(
            [(3, 0), (3, 2), (7, 0), (7, 2), (11, 2), (13, 1), (13, 2), (13, 3)]
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_cyclic_character_identities(self, q_and_s):
        q, s = q_and_s
        g = int(sympy.primitive_root(q))
        table = [None] * q
        x = 1
        for t in range(q - 1):
            table[x] = s * t
            x = x * g % q
        ch = DirichletCharacter(5, q, tuple(table))
        assert ch.conductor in (1, q)
        inv = ch.inverse()
        assert all(
            e in (None, 0) for e in (ch * inv).table
        ), "chi * chi^-1 must be trivial"
        assert ch.primitive().conductor == ch.conductor


# ------------------------------------------------- the character grid


def kronecker_discriminant(d):
    """The fundamental discriminant whose Kronecker symbol has conductor d."""
    return {4: -4, 8: 8}.get(d, d if d % 4 == 1 else -d)


def character_grid(p):
    """Trivial, quadratic and omega-power characters over p, and their products."""
    DC = DirichletCharacter
    trivials = [DC.trivial(p, m) for m in (1, 2, 4, 6, 9, p, 3 * p)]
    quads = [DC.quadratic(p, d) for d in (3, 4, 5, 8, 15, 21)]
    omegas = [w_pow(p, j) for j in range(p - 1)]
    products = [x * w for x in quads + trivials[2:4] for w in omegas]
    products += [x * y for x in quads for y in quads]
    return trivials + quads + omegas + products


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
class TestCharacterGrid:
    def test_quadratic_values_are_kronecker_symbols(self, p):
        for d in (3, 4, 5, 8, 15, 21):
            ch = DirichletCharacter.quadratic(p, d)
            assert ch.modulus == ch.conductor == d
            disc = kronecker_discriminant(d)
            for a in range(3 * d):
                assert ch.value_fraction(a) == sympy.kronecker_symbol(disc, a), (d, a)

    def test_primitive_agrees_on_units(self, p):
        for ch in character_grid(p):
            prim = ch.primitive()
            assert prim.modulus == prim.conductor == ch.conductor
            assert prim.primitive() == prim
            for a in range(ch.modulus):
                if math.gcd(a, ch.modulus) == 1:
                    assert prim.exponent(a) == ch.exponent(a), (ch, a)

    def test_inverse_cancels(self, p):
        for ch in character_grid(p):
            inv = ch.inverse()
            assert inv.modulus == ch.modulus and inv.conductor == ch.conductor
            assert inv.inverse() == ch
            assert (ch * inv) == DirichletCharacter.trivial(p, ch.modulus)

    def test_split_at_p_recombines(self, p):
        for ch in character_grid(p):
            eta0, d = ch.split_at_p()
            assert eta0.modulus == eta0.conductor and eta0.conductor % p != 0
            if d is None:
                assert ch.conductor % p != 0 and eta0 == ch.primitive()
            else:
                assert d % (p - 1) != 0
                assert (eta0 * w_pow(p, d)).primitive() == ch.primitive()


# ---------------------------------------------------------- input guards


@pytest.mark.parametrize("build", [
    lambda: DirichletCharacter.trivial(15, 3),
    lambda: DirichletCharacter.teichmuller_power(15, 1),
    lambda: DirichletCharacter.teichmuller_power(9, 1),
    lambda: DirichletCharacter.teichmuller_power(2, 1),
    lambda: DirichletCharacter.quadratic(21, 5),
    lambda: DirichletCharacter.trivial(1),
    lambda: DirichletCharacter(15, 1, (0,)),
], ids=["trivial-15", "omega-15", "omega-9", "omega-2", "quadratic-21", "trivial-1", "table-15"])
def test_a_character_needs_an_odd_prime(build):
    with pytest.raises(ValueError, match="p must be an odd prime, got"):
        build()


def _form7():
    return dcris_of_form(7, 1, 1, Precision(7, 12, 4))


@pytest.mark.parametrize("call", [
    lambda: w_pow(5, 1).value(2, Precision(7, 10)),
    lambda: gen_bernoulli(2, w_pow(5, 1), Precision(7, 10)),
    lambda: kl_value(w_pow(5, 2), -1, Precision(7, 10)),
    lambda: smoothed_moment(DirichletCharacter.trivial(5), 2, 1, 2, Precision(7, 10)),
    lambda: kl_branch_values(DirichletCharacter.trivial(5), 2, [-1], Precision(7, 4, 3)),
    lambda: kl_series(DirichletCharacter.trivial(5), 2, Precision(7, 4, 3)),
    lambda: kl_series_report(DirichletCharacter.trivial(5), 2, Precision(7, 4, 3)),
    lambda: euler_factor_E(_form7(), DirichletCharacter.trivial(5), 1),
    lambda: euler_factor_Eprime(_form7(), DirichletCharacter.trivial(5), 3),
    lambda: exceptional_zero_report(_form7(), DirichletCharacter.trivial(5), [1, 3]),
    lambda: remove_euler_factors(
        IwasawaElement.one(Precision(7, 10, 4)), [3], DirichletCharacter.trivial(5)
    ),
], ids=["value", "gen_bernoulli", "kl_value", "smoothed_moment", "kl_branch_values",
        "kl_series", "kl_series_report", "euler_factor_E", "euler_factor_Eprime",
        "exceptional_zero_report", "remove_euler_factors"])
def test_a_character_and_a_window_over_different_primes_are_refused(call):
    with pytest.raises(ValueError, match=r"p = 5 met a window over p = 7"):
        call()


# ------------------------------------- integer number theory against sympy


class TestAgainstSympy:
    """The int helpers of lfunctions agree with sympy, kept here as the oracle."""

    def test_bernoulli_numbers(self):
        # B_i(0) = B_i for i != 1, and sympy.bernoulli(i) is far cheaper than
        # the polynomial; the polynomial pins B_1 = B_1(0) = -1/2
        for i in range(301):
            if i != 1:
                assert lfunctions._bernoulli_number(i) == Fraction(sympy.bernoulli(i))
        for i in range(41):
            assert lfunctions._bernoulli_number(i) == Fraction(sympy.bernoulli(i, 0))

    def test_least_primitive_roots(self):
        for p in sympy.primerange(3, 10**4):
            assert lfunctions._primitive_root(p) == sympy.primitive_root(p), p

    def test_jacobi_symbols(self):
        for d in range(1, 500, 2):
            for a in range(d):
                assert lfunctions._jacobi(a, d) == sympy.jacobi_symbol(a, d), (a, d)

    def test_primitive_roots_mod_p_squared(self):
        # both tests read c mod p^2 only, so sympy is asked once per residue
        for p in sympy.primerange(2, 100):
            p2, cofactors = p * p, lfunctions._p2_cofactors(p)
            want = {c: sympy.is_primitive_root(c, p2) for c in range(1, p2) if c % p}
            for c in range(1, 6 * p2):
                if c % p:
                    got = all(pow(c, e, p2) != 1 for e in cofactors)
                    assert got == want[c % p2], (p, c)


# ----------------------------------------------------- generalized Bernoulli


class TestGenBernoulli:
    def test_trivial_small(self):
        triv = DirichletCharacter.trivial(5)
        assert gen_bernoulli(1, triv) == Fraction(1, 2)  # the lone parity exception
        assert gen_bernoulli(2, triv) == Fraction(1, 6)
        assert gen_bernoulli(4, triv) == Fraction(-1, 30)

    def test_quadratic_conductor_five(self):
        q5 = DirichletCharacter.quadratic(5, 5)
        # 5^(2-1) * sum chi(a) B_2(a/5): the a^2 term contributes (1-4-9+16)/25
        assert gen_bernoulli(2, q5) == Fraction(4, 5)
        assert gen_bernoulli(1, q5) == 0  # even character, odd weight

    def test_quadratic_conductor_three(self):
        q3 = DirichletCharacter.quadratic(5, 3)
        assert gen_bernoulli(1, q3) == Fraction(-1, 3)
        assert gen_bernoulli(2, q3) == 0  # odd character, even weight

    def test_irrational_needs_precision(self):
        with pytest.raises(ValueError):
            gen_bernoulli(2, w_pow(7, 2))

    @pytest.mark.parametrize("n,j", [(2, 2), (1, 1), (4, 4), (3, 3)])
    def test_omega_branch_matches_brute_force(self, n, j):
        # parity: omega^j(-1) = (-1)^j must equal (-1)^n for a nonzero value
        p, M = 7, 16
        prec = Precision(p, M, 8)
        lib = gen_bernoulli(n, w_pow(p, j), prec)
        big = p ** (M + 8)
        values = [0] + [pow(teich_pow(a, p, M + 8), j, big) for a in range(1, p)]
        orc = gen_bernoulli_padic(n, values, p, p, M)
        assert orc is not None
        if isinstance(lib, Fraction):  # order-two branch: exact rational route
            v_lib, unit_lib = padic_residue(lib, p, M)
        else:
            v_lib, unit_lib = lib.val, lib.unit
        v, unit = orc
        assert v_lib == v
        assert (unit_lib - unit) % p ** (M - 2) == 0

    def test_omega_branch_parity_zero(self):
        p = 7
        prec = Precision(p, 16, 8)
        lib = gen_bernoulli(1, w_pow(p, 2), prec)
        assert lib.valuation() is None or lib.valuation() >= 14


# ------------------------------------------------------------------ L-values


class TestKlValue:
    def test_branch_two_at_minus_one(self):
        # -(1 - 5) B_2 / 2 = 4 * (1/6) / 2 = 1/3
        got = kl_value(w_pow(5, 2), -1, PS)
        want = PadicScalar.from_fraction(Fraction(1, 3), PS, rel=24)
        assert (got - want).valuation() is None or (got - want).valuation() >= 22

    def test_branch_two_at_minus_five(self):
        # n = 6, psi = trivial: -(1 - 5^5) B_6 / 6 = 3124 / (42 * 6) = 781/63
        got = kl_value(w_pow(5, 2), -5, PS)
        want = PadicScalar.from_fraction(Fraction(781, 63), PS, rel=24)
        assert (got - want).valuation() is None or (got - want).valuation() >= 22

    def test_p7_trivial_at_minus_five(self):
        prec = Precision(7, 18, 8)
        got = kl_value(DirichletCharacter.trivial(7), -5, prec)
        want = PadicScalar.from_fraction(Fraction(2801, 42), prec, rel=18)
        assert (got - want).valuation() is None or (got - want).valuation() >= 16

    def test_odd_character_gives_exact_zero(self):
        got = kl_value(DirichletCharacter.quadratic(5, 3), -1, PS)
        assert got.val is None

    def test_pole_raises(self):
        with pytest.raises(ValueError, match="pole"):
            kl_value(DirichletCharacter.trivial(5), 1, PS)
        with pytest.raises(ValueError):
            kl_value(DirichletCharacter.quadratic(5, 3), 1, PS)
        with pytest.raises(ValueError):
            kl_value(DirichletCharacter.trivial(5), 2, PS)


# ------------------------------------------------ the regularized measure


QUAD3 = (0, 1, -1)
QUAD4 = (0, 1, 0, -1)


def finite_level_moment(p, f0, quad, j, m, c, v, K):
    """sum over units a < f0 p^v of omega^j(a) quad(a) a^m mu_c(a), mod p^K.

    mu_c(a) = B_1(a/N) - c B_1(b/N) with b = a/c mod N; for odd c this is the
    integer (a - cb)/N + (c-1)/2.  Everything here is plain integers plus the
    iterated-power Teichmuller lift — none of the library's machinery.
    """
    N = f0 * p**v
    cinv = pow(c, -1, N)
    mod = p**K
    tw = {a: pow(teich_pow(a, p, K), j % (p - 1), mod) for a in range(1, p)}
    tot = 0
    for a in range(1, N):
        if a % p == 0:
            continue
        q = quad[a % f0] if f0 > 1 else 1
        if q == 0:
            continue
        b = cinv * a % N
        mu = (a - c * b) // N + (c - 1) // 2
        w = tw[a % p] if j % (p - 1) else 1
        tot += w * q * pow(a, m, mod) * mu
    return tot % mod


def scalar_as_int(x: PadicScalar, p, K):
    if x.val is None:
        return 0
    assert x.val >= 0, "moments must be integral"
    assert x.val + x.rel >= K
    return x.unit * p**x.val % p**K


class TestMomentFormula:
    """The closed form against finite-level Riemann sums (the independent pin)."""

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_p5_trivial_tame(self, j, m):
        p, c, v, K = 5, 7, 6, 12
        prec = Precision(p, 14, 8)
        lib = smoothed_moment(DirichletCharacter.trivial(p), j, m, c, prec)
        ref = finite_level_moment(p, 1, None, j, m, c, v, K)
        diff = (ref - scalar_as_int(lib, p, K)) % p**K
        need = v - m - 2
        assert diff % p**need == 0, f"agreement only to {diff}"

    @pytest.mark.parametrize("j,m", [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)])
    def test_p3_quad4_tame(self, j, m):
        p, c, v, K = 3, 5, 7, 10
        prec = Precision(p, 14, 8)
        lib = smoothed_moment(DirichletCharacter.quadratic(3, 4), j, m, c, prec)
        ref = finite_level_moment(p, 4, QUAD4, j, m, c, v, K)
        diff = (ref - scalar_as_int(lib, p, K)) % p**K
        need = v - m - 2
        assert diff % p**need == 0

    @pytest.mark.parametrize("j,m", [(1, 0), (2, 0), (1, 1), (2, 1)])
    def test_p5_quad3_tame(self, j, m):
        p, c, v, K = 5, 7, 5, 10
        prec = Precision(p, 14, 8)
        lib = smoothed_moment(DirichletCharacter.quadratic(5, 3), j, m, c, prec)
        ref = finite_level_moment(p, 3, QUAD3, j, m, c, v, K)
        diff = (ref - scalar_as_int(lib, p, K)) % p**K
        need = v - m - 2
        assert diff % p**need == 0

    def test_at_least_one_nonzero(self):
        prec = Precision(5, 14, 8)
        lib = smoothed_moment(DirichletCharacter.trivial(5), 1, 0, 7, prec)
        assert lib.val is not None and lib.unit != 0

    def test_bad_smoothing_constant_rejected(self):
        prec = Precision(5, 14, 8)
        with pytest.raises(ValueError):
            smoothed_moment(DirichletCharacter.trivial(5), 1, 0, 1, prec)
        with pytest.raises(ValueError):
            smoothed_moment(DirichletCharacter.trivial(5), 1, 0, 10, prec)
        with pytest.raises(ValueError):
            smoothed_moment(DirichletCharacter.quadratic(5, 3), 1, 0, 9, prec)

    @given(
        p=st.sampled_from([3, 5, 7]),
        j=st.integers(0, 5),
        m=st.integers(0, 5),
        c_seed=st.integers(0, 40),
    )
    @settings(max_examples=50, deadline=None)
    def test_moments_are_integral(self, p, j, m, c_seed):
        c = next(
            cc for cc in range(2 + c_seed, 2 + c_seed + p + 1) if math.gcd(cc, p) == 1
        )
        prec = Precision(p, 12, 8)
        got = smoothed_moment(DirichletCharacter.trivial(p), j, m, c, prec)
        assert got.val is None or got.val >= 0


# ------------------------------------------------------------- the series


class TestKlSeries:
    def test_unit_branch_values_match_interpolation(self):
        vals = kl_branch_values(DirichletCharacter.trivial(5), 2, [-1, -5, -2], P24)
        for s, got in zip([-1, -5, -2], vals):
            want = kl_value(w_pow(5, 2), s, P24)
            d = (got - want).valuation()
            assert d is None or d >= 10, (s, d)

    def test_branch_two_spot_value(self):
        got = kl_branch_values(DirichletCharacter.trivial(5), 2, [-1], P24)[0]
        want = PadicScalar.from_fraction(Fraction(1, 3), P24, rel=24)
        d = (got - want).valuation()
        assert d is None or d >= 10

    def test_series_evaluation_agrees_with_branch_values(self):
        elem = kl_series(DirichletCharacter.trivial(5), 2, P24)
        vals = kl_branch_values(DirichletCharacter.trivial(5), 2, [-1, -3], P24)
        for s, want in zip([-1, -3], vals):
            got = elem.evaluate_at_character(FiniteCharacter(2, 0, s))
            d = (got - want).valuation()
            assert d is None or d >= 10, (s, d)

    def test_pole_branch_values(self):
        # branch 0 of the trivial character: series keeps its smoothing factor,
        # pointwise values still reach the interpolation numbers
        vals = kl_branch_values(DirichletCharacter.trivial(5), 0, [-3, -7], P24)
        want3 = PadicScalar.from_fraction(Fraction(-31, 30), P24, rel=24)
        d = (vals[0] - want3).valuation()
        assert d is None or d >= 10
        want7 = kl_value(DirichletCharacter.trivial(5), -7, P24)
        d = (vals[1] - want7).valuation()
        assert d is None or d >= 10

    def test_pole_branch_report(self):
        elem, rep = kl_series_report(DirichletCharacter.trivial(5), 0, P24)
        assert rep["pole_branch"] and not rep["smoothing_removed"]
        assert rep["parity"] == "even" and rep["branch"] == 0
        assert rep["nodes"] == P24.x_prec + P24.p_prec + 4

    def test_unit_branch_report(self):
        _, rep = kl_series_report(DirichletCharacter.trivial(5), 2, P24)
        assert not rep["pole_branch"] and rep["smoothing_removed"]
        assert rep["c"] > 1 and rep["tame_conductor"] == 1

    def test_quadratic_tame_branch(self):
        q3 = DirichletCharacter.quadratic(5, 3)
        got = kl_branch_values(q3, 1, [-1], P24)[0]
        want = kl_value(q3 * w_pow(5, 1), -1, P24)
        d = (got - want).valuation()
        assert d is None or d >= 10

    def test_p7_branch(self):
        prec = Precision(7, 10, 20)
        triv = DirichletCharacter.trivial(7)
        got = kl_branch_values(triv, 2, [-5], prec)[0]
        want = kl_value(w_pow(7, 2), -5, prec)
        d = (got - want).valuation()
        assert d is None or d >= 8

    def test_odd_branch_is_zero(self):
        q3 = DirichletCharacter.quadratic(5, 3)
        elem, rep = kl_series_report(q3, 0, P24)
        assert rep["parity"] == "odd"
        assert all(s.is_zero_to_precision for s in elem.components)
        vals = kl_branch_values(q3, 0, [-1, -2], P24)
        assert all(v.val is None for v in vals)

    def test_carried_omega_part_must_match_branch(self):
        with pytest.raises(ValueError, match="carries"):
            kl_series(w_pow(5, 3), 1, P24)

    def test_positive_s_rejected(self):
        with pytest.raises(ValueError):
            kl_branch_values(DirichletCharacter.trivial(5), 2, [1], P24)

    def test_node_cap(self):
        with pytest.raises(PrecisionError, match="cap"):
            kl_series(DirichletCharacter.trivial(5), 2, Precision(5, 200, 300))


class TestKlSelfChecks:
    """Both integrality checks of the construction raise from _kl_core."""

    def test_a_non_integral_moment_is_refused(self, monkeypatch):
        real = lfunctions.smoothed_moment

        def broken(eta, a, m, c, prec, rel=None):
            if m == 3:
                return PadicScalar.from_fraction(Fraction(1, prec.p), prec, rel)
            return real(eta, a, m, c, prec, rel)

        monkeypatch.setattr(lfunctions, "smoothed_moment", broken)
        with pytest.raises(ArithmeticError, match="non-integral") as info:
            kl_series(DirichletCharacter.trivial(5), 2, Precision(5, 6, 5))
        assert info.traceback[-1].name == "_kl_core"

    def test_nodes_of_the_wrong_generator_are_refused(self, monkeypatch):
        # nodes u^-m - 1 for u = 1 + p^2 while the moments sample the series
        # at u = 1 + p: the interpolating series is not integral
        monkeypatch.setattr(lfunctions, "u_for", lambda p: 1 + p * p)
        with pytest.raises(ArithmeticError, match="left Z_p") as info:
            kl_series(DirichletCharacter.trivial(5), 2, Precision(5, 6, 5))
        assert info.traceback[-1].name == "_kl_core"


# ------------------------------------------- the integer path vs its references


def fingerprint(x):
    """(val, unit, rel) of every scalar, exact Fractions, elements part by part."""
    if isinstance(x, PadicScalar):
        return ("scalar", x.val, x.unit, x.rel, x.prec)
    if isinstance(x, IwasawaElement):
        return ("element", x.prec, x.u, tuple(
            (s.prec, s.is_polynomial, fingerprint(s.a), s.b is None) for s in x.components
        ))
    if isinstance(x, (list, tuple)):
        return tuple(fingerprint(y) for y in x)
    return x  # Fractions and report dicts compare exactly as they are


def outcome(fn, *args):
    try:
        return fingerprint(fn(*args))
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)


def grid_characters(p):
    """Trivial, quadratic of conductors 3 and 4, omega-powers and products."""
    DC = DirichletCharacter
    q4 = DC.quadratic(p, 4)
    out = [DC.trivial(p), q4, w_pow(p, 1), w_pow(p, 2), q4 * w_pow(p, 1)]
    if p != 3:
        q3 = DC.quadratic(p, 3)
        out += [q3, q3 * w_pow(p, p - 2)]
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_l_function_layer_matches_the_scalar_references(p, monkeypatch):
    """Bernoulli numbers, moments, values and branch series on every branch and
    two windows, bit for bit and error for error, against tests/oracles.py."""
    for eta in grid_characters(p):
        c = next(c for c in range(2, 99) if math.gcd(c, p * eta.modulus) == 1)
        for n in range(-1, 8):
            for args in ((n, eta, Precision(p, 10)), (n, eta), (n, eta, Precision(p, 10), 0)):
                assert outcome(gen_bernoulli, *args) == outcome(
                    oracles.reference_gen_bernoulli, *args
                )
        for a in range(p - 1):
            for m, cc, rel in ((-1, c, None), (0, 1, None), (0, c, None), (3, c, None),
                               (3, c, 0)):
                args = (eta, a, m, cc, Precision(p, 6, 4), rel)
                assert outcome(smoothed_moment, *args) == outcome(
                    oracles.reference_smoothed_moment, *args
                )
        for prec in (Precision(p, 4, 3), Precision(p, 6, 4)):
            for s, rel in ((1, None), (0, None), (-1, None), (-4, None), (-1, 0)):
                args = (eta, s, prec, rel)
                assert outcome(kl_value, *args) == outcome(oracles.reference_kl_value, *args)
            for br in range(p - 1):
                assert_branch_matches_reference_core(eta, br, prec, monkeypatch)


def assert_branch_matches_reference_core(eta, br, prec, monkeypatch):
    """The series report and two branch-value calls, against the same calls
    run on oracles.reference_kl_core, outcome for outcome."""
    calls = [(kl_series_report, eta, br, prec),
             (kl_branch_values, eta, br, [0, -1, -3], prec),
             (kl_branch_values, eta, br, [-1, 1], prec)]
    got = [outcome(*call) for call in calls]
    # the three calls share one reference core; cores are read-only
    try:
        core = oracles.reference_kl_core(eta, br, prec)
    except (ArithmeticError, ValueError) as e:
        assert got == [(type(e), str(e))] * 3, (eta, br, prec)
        return
    with monkeypatch.context() as patch:
        patch.setattr(lfunctions, "_kl_core", lambda *_: core)
        want = [outcome(*call) for call in calls]
    assert got == want, (eta, br, prec)


@pytest.mark.parametrize("eta,br", [
    (DirichletCharacter.trivial(5), 2),
    (DirichletCharacter.quadratic(5, 3), 1),
    (DirichletCharacter.trivial(7), 2),
    (DirichletCharacter.trivial(5), 0),  # the pole branch
], ids=["trivial-5", "quadratic3-5", "trivial-7", "pole-5"])
def test_bench_branches_match_the_scalar_reference_at_a_mid_window(eta, br, monkeypatch):
    """The kl-series benchmark's (character, branch) pairs, the pole branch
    included, at (p, 12, 24): 40 interpolation nodes, against 11 and 14 in
    the grid windows above."""
    assert_branch_matches_reference_core(eta, br, Precision(eta.p, 12, 24), monkeypatch)


@pytest.mark.parametrize("call", [
    lambda: gen_bernoulli(3, w_pow(5, 1), Precision(5, 10, 4), rel=-2),
    lambda: kl_value(w_pow(5, 2), -1, Precision(5, 10, 4), rel=-2),
    lambda: smoothed_moment(DirichletCharacter.trivial(5), 1, 2, 7, Precision(5, 10, 4), rel=-2),
], ids=["gen_bernoulli", "kl_value", "smoothed_moment"])
def test_negative_rel_is_refused_by_name(call):
    with pytest.raises(ValueError, match="rel must be a nonnegative number of digits, got -2"):
        call()


# ------------------------------------------------- symmetric-square factors


def direct_factors(form, chi, j, branch):
    """The three factors by naked scalar arithmetic (negative powers and all)."""
    prec, rel = form.prec, 24
    p, k = prec.p, form.weight
    one = PadicScalar.from_int(1, prec, rel)
    e = chi.exponent(p)
    if e is None:
        return one, one, one
    g0 = int(sympy.primitive_root(p))
    chip = teichmuller(g0, prec, rel) ** e
    lam2 = -(
        teichmuller(form.eps_seed % p, prec, rel)
        * PadicScalar.from_fraction(Fraction(p) ** (k + 1), prec, rel)
    )
    pj1 = PadicScalar.from_fraction(Fraction(p) ** (j - 1), prec, rel)
    pmj = PadicScalar.from_fraction(Fraction(1, p**j), prec, rel)
    f1 = one - pj1 * chip * lam2 ** (-1)
    if branch == "E":
        f2 = one + chip ** (-1) * lam2 * pmj
    else:
        f2 = one + pj1 * chip * lam2 ** (-1)
    f3 = one - chip ** (-1) * lam2 * pmj
    return f1, f2, f3


class TestEulerFactors:
    def form(self, k, eps=1, p=5):
        return dcris_of_form(p, k, eps, Precision(p, 24, 8))

    def test_left_range_trivial_zero_at_top(self):
        # chi = eps: at j = k+1 the middle factor is 1 - 1 = 0 exactly
        rep = euler_factor_E(self.form(0), DirichletCharacter.trivial(5), 1)
        assert rep.zero_flags == (False, True, False)
        assert rep.values[1].val is None
        assert rep.product.val is None

    def test_left_range_minus_case(self):
        # chi(p) = -eps(p): the third factor vanishes instead
        q3 = DirichletCharacter.quadratic(5, 3)  # chi(5) = -1
        rep = euler_factor_E(self.form(0), q3, 1)
        assert rep.zero_flags == (False, False, True)

    def test_right_range_pair(self):
        rep = euler_factor_Eprime(self.form(0), DirichletCharacter.trivial(5), 2)
        assert rep.zero_flags == (False, True, False)
        q3 = DirichletCharacter.quadratic(5, 3)
        rep = euler_factor_Eprime(self.form(0), q3, 2)
        assert rep.zero_flags == (True, False, False)

    def test_interior_twists_never_vanish(self):
        f = self.form(2)
        for j in range(1, 3):
            assert not any(euler_factor_E(f, DirichletCharacter.trivial(5), j).zero_flags)
        for j in range(5, 7):
            assert not any(
                euler_factor_Eprime(f, DirichletCharacter.trivial(5), j).zero_flags
            )

    def test_order_four_character_never_vanishes(self):
        f = self.form(1)
        ch = char_mod13(5, 1)
        for j in (1, 2):
            assert not any(euler_factor_E(f, ch, j).zero_flags)
        for j in (3, 4):
            assert not any(euler_factor_Eprime(f, ch, j).zero_flags)

    def test_ramified_character_collapses_to_one(self):
        f = self.form(1)
        one = PadicScalar.from_int(1, f.prec, f.prec.p_prec)
        rep = euler_factor_E(f, w_pow(5, 1), 2)  # chi(5) = 0
        for v in rep.values:
            d = (v - one).valuation()
            assert d is None or d >= 20
        assert not any(rep.zero_flags)

    def test_range_validation(self):
        f = self.form(1)
        triv = DirichletCharacter.trivial(5)
        with pytest.raises(ValueError):
            euler_factor_E(f, triv, 3)
        with pytest.raises(ValueError):
            euler_factor_Eprime(f, triv, 2)

    @given(
        k=st.integers(0, 3),
        eps=st.integers(1, 4),
        s=st.one_of(st.none(), st.integers(0, 3)),
        jseed=st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_factors_match_direct_arithmetic(self, k, eps, s, jseed):
        form = dcris_of_form(5, k, eps, Precision(5, 24, 8))
        chi = w_pow(5, 1) if s is None else char_mod13(5, s)
        j = 1 + jseed % (2 * k + 2)
        if j <= k + 1:
            rep = euler_factor_E(form, chi, j, rel=24)
            branch = "E"
        else:
            rep = euler_factor_Eprime(form, chi, j, rel=24)
            branch = "Eprime"
        direct = direct_factors(form, chi, j, branch)
        prod = direct[0] * direct[1] * direct[2]
        for got, want, flag in zip(rep.values, direct, rep.zero_flags):
            d = (got - want).valuation()
            assert d is None or d >= 10, (j, branch, d)
            assert flag == (got.val is None)
        dp = (rep.product - prod).valuation()
        assert dp is None or dp >= 10


class TestExceptionalZeros:
    def test_trivial_character_is_exceptional(self):
        form = dcris_of_form(5, 0, 1, Precision(5, 24, 8))
        rep = exceptional_zero_report(form, DirichletCharacter.trivial(5), range(1, 3))
        assert rep["exceptional"] and rep["exceptional_js"] == [1, 2]
        assert rep["chi_p_exponent"] == 0 and rep["eps_exponent"] == 0
        by_j = {row["j"]: row for row in rep["rows"]}
        assert by_j[1]["branch"] == "E" and by_j[2]["branch"] == "Eprime"
        assert by_j[1]["zero_factors"] == ["1 + chi^(-1)(p) lambda^2 p^(-j)"]
        assert by_j[2]["zero_factors"] == ["1 + p^(j-1) chi(p) lambda^(-2)"]

    def test_minus_case_recorded_but_not_exceptional(self):
        form = dcris_of_form(5, 1, 1, Precision(5, 24, 8))
        q3 = DirichletCharacter.quadratic(5, 3)
        rep = exceptional_zero_report(form, q3, range(1, 5))
        assert not rep["exceptional"] and rep["exceptional_js"] == []
        by_j = {row["j"]: row for row in rep["rows"]}
        assert by_j[2]["zero_factors"] == ["1 - chi^(-1)(p) lambda^2 p^(-j)"]
        assert by_j[3]["zero_factors"] == ["1 - p^(j-1) chi(p) lambda^(-2)"]
        assert by_j[1]["zero_factors"] == [] and by_j[4]["zero_factors"] == []

    def test_ramified_character_no_zeros(self):
        form = dcris_of_form(5, 1, 1, Precision(5, 24, 8))
        rep = exceptional_zero_report(form, w_pow(5, 1), range(1, 5))
        assert rep["chi_p_exponent"] is None and not rep["exceptional"]
        assert all(row["zero_factors"] == [] for row in rep["rows"])

    def test_p7_grid_row(self):
        form = dcris_of_form(7, 1, 1, Precision(7, 20, 8))
        rep = exceptional_zero_report(form, DirichletCharacter.trivial(7), range(1, 5))
        assert rep["exceptional_js"] == [2, 3]

    def test_out_of_range_rejected(self):
        form = dcris_of_form(5, 0, 1, Precision(5, 24, 8))
        with pytest.raises(ValueError):
            exceptional_zero_report(form, DirichletCharacter.trivial(5), [3])


# ------------------------------------------------------------- smoothing


class TestSmoothing:
    def test_factor_at_central_twist(self):
        assert c_smoothing_factor(2, 1, 0, 1) == Fraction(3)  # c^2 - 1 = 3
        assert c_smoothing_factor(2, 1, 0, -1) == Fraction(3)

    def test_factor_vanishes_only_at_boundary(self):
        assert c_smoothing_factor(7, 3, 1, 1) == 0  # j = k+2, trivial value
        assert c_smoothing_factor(7, 4, 1, 1) == Fraction(49 - 7**4)

    def test_c_one_rejected(self):
        with pytest.raises(ValueError):
            c_smoothing_factor(1, 1, 0, 1)

    def test_padic_route_matches_rational(self):
        one = PadicScalar.from_int(1, PS, 24)
        got = c_smoothing_factor(3, 3, 1, one)
        want = PadicScalar.from_fraction(
            c_smoothing_factor(3, 3, 1, Fraction(1)), PS, 24
        )
        d = (got - want).valuation()
        assert d is None or d >= 20

    def test_least_c_trivial(self):
        triv = DirichletCharacter.trivial(5)
        assert least_smoothing_c(triv, 2, coprime_to=6) == 7
        assert least_smoothing_c(triv, 0, coprime_to=6) == 7
        assert least_smoothing_c(triv, 0) == 2

    def test_least_c_avoids_conductor(self):
        q3 = DirichletCharacter.quadratic(5, 3)
        c = least_smoothing_c(q3, 1, coprime_to=6)
        assert c > 1 and c % 3 != 0 and c % 5 != 0

    @pytest.mark.parametrize("coprime_to", [0, -6])
    def test_least_c_refuses_nonpositive_coprime_to(self, coprime_to):
        triv = DirichletCharacter.trivial(5)
        with pytest.raises(ValueError, match="coprime_to must be a positive integer"):
            least_smoothing_c(triv, 1, coprime_to=coprime_to)


# ------------------------------------------------------- Euler-factor surgery


def poly_elem(prec, rows):
    return IwasawaElement(
        prec, [Series.make(prec, row, is_polynomial=True) for row in rows]
    )


class TestRemoveEulerFactors:
    def test_trivial_point_value(self):
        prec = Precision(5, 20, 32)
        one = IwasawaElement.one(prec)
        out = remove_euler_factors(one, [3], DirichletCharacter.trivial(5))
        got = out.evaluate_at_character(FiniteCharacter(0))
        want = PadicScalar.from_fraction(Fraction(2, 3), prec, rel=20)
        d = (got - want).valuation()
        assert d is None or d >= 18

    def test_dead_character_leaves_untouched(self):
        prec = Precision(5, 20, 32)
        one = IwasawaElement.one(prec)
        out = remove_euler_factors(one, [3], DirichletCharacter.quadratic(5, 3))
        assert (out - one).is_zero_to_precision

    def test_repeated_prime_squares(self):
        prec = Precision(5, 20, 32)
        one = IwasawaElement.one(prec)
        out = remove_euler_factors(one, [3, 3], DirichletCharacter.trivial(5))
        got = out.evaluate_at_character(FiniteCharacter(0))
        want = PadicScalar.from_fraction(Fraction(4, 9), prec, rel=20)
        d = (got - want).valuation()
        assert d is None or d >= 18

    def test_composite_ell_rejected(self):
        prec = Precision(5, 20, 32)
        one = IwasawaElement.one(prec)
        triv = DirichletCharacter.trivial(5)
        for ell in (4, 6, 1, 0, -3):
            with pytest.raises(ValueError, match=rf"ell={ell}\b"):
                remove_euler_factors(one, [ell], triv)
        got = remove_euler_factors(one, [2], triv).evaluate_at_character(FiniteCharacter(0))
        d = (got - PadicScalar.from_fraction(Fraction(1, 2), prec, rel=20)).valuation()
        assert d is None or d >= 18

    def test_residual_prime_rejected(self):
        prec = Precision(5, 20, 32)
        with pytest.raises(ValueError, match="divisible by p"):
            remove_euler_factors(
                IwasawaElement.one(prec), [25], DirichletCharacter.trivial(5)
            )


class TestGeometricRatio:
    def test_unit_cofactor_roundtrip(self):
        prec = Precision(5, 20, 32)
        sym2 = poly_elem(
            prec, [[1 + a, 2 * a + 3, 5, 1] for a in range(4)]
        )
        kl = poly_elem(prec, [[2 + a * a, 5, 10] for a in range(4)])
        prod = geometric_product(sym2, kl, k=1)
        back = geometric_ratio(prod, kl, k=1)
        assert (back - sym2).is_zero_to_precision

    def test_one_is_identity(self):
        prec = Precision(5, 20, 32)
        sym2 = poly_elem(prec, [[3, 1], [1, 2], [0, 4], [2, 0]])
        prod = geometric_product(sym2, IwasawaElement.one(prec), k=2)
        assert (prod - sym2).is_zero_to_precision

    def test_non_multiple_raises(self):
        prec = Precision(5, 20, 32)
        sym2 = IwasawaElement.one(prec)
        # kl = X on every component; at k = 0 the twisted divisor u^-1(1+X) - 1
        # is not divisible by X but vanishes at X = p, where 1 does not
        kl = poly_elem(prec, [[0, 1]] * 4)
        prod = geometric_product(sym2, IwasawaElement.one(prec), k=0)
        with pytest.raises(DivisibilityError):
            geometric_ratio(prod, kl, k=0)


# ------------------------------------------------------ refusals and edges


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: lfunctions._ind(5, 10), "10 is not a unit mod 5", id="dlog-non-unit"),
    pytest.param(lambda: DirichletCharacter(5, 0, ()), "modulus must be positive",
                 id="modulus"),
    pytest.param(lambda: DirichletCharacter(5, 3, (None, 0)),
                 "value table must cover all residues", id="table-length"),
    pytest.param(lambda: DirichletCharacter.teichmuller_power(5, 1).value_fraction(2),
                 "character values are irrational; use value()", id="irrational"),
    pytest.param(lambda: DirichletCharacter.trivial(5) * DirichletCharacter.trivial(7),
                 "characters live over different primes", id="product-primes"),
    pytest.param(lambda: c_smoothing_factor(3, 1, 0, PadicScalar.from_int(5, PS)),
                 "(chi eps)(c) must be a unit", id="smoothing-scalar-non-unit"),
    pytest.param(lambda: c_smoothing_factor(3, 1, 0, 0), "(chi eps)(c) must be a unit",
                 id="smoothing-rational-zero"),
])
def test_named_errors(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)) as info:
        call()
    assert info.type is ValueError


def test_value_off_the_units_and_report_factors():
    chi = DirichletCharacter.trivial(5, 3)
    assert chi.value(3, PS).is_exact_zero
    rep = euler_factor_E(dcris_of_form(5, 0, 1, Precision(5, 12, 1)), chi, 1)
    assert rep.factors() == tuple(zip(rep.labels, rep.values, rep.zero_flags))
    assert len(rep.factors()) == 3


@pytest.mark.parametrize("x, y", [
    pytest.param((3, 0, 0), (5, 1, 2), id="no-digit-left"),  # O(5^3) - 5^5 * 1
    pytest.param((1, 7, 4), (1, 7, 6), id="cancellation"),
    pytest.param((1, 7, 4), (1, 2, 6), id="digits-left"),
])
def test_triple_difference_matches_the_scalar_rules(x, y):
    p = 5
    pp = [p**k for k in range(12)]
    want = PadicScalar(PS, *x) - PadicScalar(PS, *y)
    assert lfunctions._sub_triples(x, y, p, pp) == (want.val, want.unit, want.rel)
