"""Series arithmetic, cyclotomic factors, and the Iwasawa algebra layer."""

from __future__ import annotations

import re
from fractions import Fraction
from math import inf

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from iwa._kernel import (
    cyclotomic_cells,
    geometric_sum,
    polymul,
    polypow,
    taylor_shift,
)
from iwa.scalars import PadicScalar, Precision, PrecisionError, QuadExtScalar
from iwa.series import (
    DivisibilityError,
    FiniteCharacter,
    IwasawaElement,
    Part,
    Series,
    _back_substitute,
    _divisor_plan,
    _part,
    _reduce,
    _reduction_columns,
    _weierstrass_split,
    combine,
    cyclotomic_factor,
    divide_series,
    linear_combination,
    u_for,
    unpack_part,
)

from oracles import (
    back_substitute_pairs,
    back_substitute_scalars,
    divmod_cells_each_step,
    log1plus_coeffs,
    phi_ppow_coeffs,
    poly_compose_affine,
    poly_mul,
    reference_divide,
    reference_linear_combination,
    reference_remainder_mod,
    reference_remainder_mod_cyclotomic,
    reference_working_digits,
    series_from_cells,
)

P5 = Precision(5, 20, 16)


def frac_series(coeffs, prec=P5, poly=True, rel=None):
    return Series.make(prec, [Fraction(c) for c in coeffs], rel=rel, is_polynomial=poly)


def as_fracs(s: Series):
    return [c.lift() for c in s.a]


# ------------------------------------------------------------------- Series


def test_oracle_poly_mul_keeps_zeros_known_to_precision():
    # O(5^3) is zero only to precision: its products carry the cap
    zero3 = QuadExtScalar.from_padic(PadicScalar.inexact_zero(P5, 3), 1, 2)
    one = QuadExtScalar.one(P5, 1, 2)
    out = poly_mul([zero3, one], [one, one])
    assert len(out) == 3 and all(isinstance(c, QuadExtScalar) for c in out)
    assert out[0].is_zero_to_precision and out[0].a.abs_prec == 3
    assert out[1] == 1 and out[1].a.abs_prec == 3
    assert out[2] == 1 and out[2].a.abs_prec == 20
    assert all(c.b.is_exact_zero for c in out)


def test_series_mul_matches_exact_polynomials():
    f = frac_series([1, 2, 3])
    g = frac_series([Fraction(1, 2), 0, 7, 1])
    h = f * g
    want = poly_mul(as_fracs(f), as_fracs(g))
    assert h.is_polynomial and len(h.a) == 6
    for got, expect in zip(h.a, want):
        assert got == PadicScalar.from_fraction(expect, P5, rel=25)


def test_series_mul_truncates_at_x_prec():
    prec = Precision(5, 10, 4)
    f = Series.make(prec, [1] * 4, is_polynomial=False)
    g = Series.make(prec, [1] * 4, is_polynomial=False)
    h = f * g
    assert len(h.a) == 4 and not h.is_polynomial
    assert [c.lift() for c in h.a] == [1, 2, 3, 4]


def test_series_known_length_shrinks_with_truncated_inputs():
    # product of two non-polynomial prefixes is only known to the shorter window
    f = Series.make(P5, [1, 1, 1], is_polynomial=False)
    g = Series.make(P5, [2, 1], is_polynomial=False)
    h = f * g
    assert len(h.a) == 2
    # a factor of X on one side delays the other side's unknown tail
    f2 = Series.make(P5, [0, 1, 1], is_polynomial=False)
    assert len((f2 * g).a) == 3


def test_series_mul_precision_is_min_rule():
    f = Series.make(P5, [PadicScalar.from_int(1, P5, rel=8)], is_polynomial=True)
    g = Series.make(
        P5,
        [PadicScalar.from_int(1, P5, rel=12), PadicScalar.from_int(5, P5, rel=12)],
        is_polynomial=True,
    )
    h = f * g
    assert h.a[0].rel == 8
    # second coefficient: valuation 1, same window mod 5^8
    assert h.a[1].val == 1 and h.a[1].val + h.a[1].rel == 8


def test_series_add_keeps_polynomial_lengths():
    f = frac_series([1, 0, 0, 4])
    g = frac_series([1])
    s = f + g
    assert s.is_polynomial and len(s.a) == 4
    assert as_fracs(s) == [2, 0, 0, 4]


def test_series_alpha_mixing():
    # (alpha X) * (alpha X) = alpha^2 X^2 = -eps p^(k+1) X^2
    prec = Precision(5, 20, 8)
    al = QuadExtScalar.alpha(prec, 2, 1)
    f = Series.make(prec, [QuadExtScalar.zero(prec, 2, 1), al], is_polynomial=True)
    h = f * f
    assert h.b is not None
    assert h.coeff(2) == QuadExtScalar.from_padic(
        PadicScalar.from_int(-125, prec), 2, 1
    )
    assert h.coeff(1).is_zero_to_precision


def test_series_form_mixing_rules():
    prec = Precision(5, 20, 8)
    plain = frac_series([1, 1], prec=prec)
    formed = Series.make(
        prec, [QuadExtScalar.one(prec, 1, 2)], is_polynomial=True
    )
    prod = plain * formed
    assert prod.form == (1, 2)
    other = Series.make(prec, [QuadExtScalar.one(prec, 2, 2)], is_polynomial=True)
    with pytest.raises(ValueError):
        formed * other


def test_shift_val_is_exact():
    f = frac_series([1, 5, 25])
    g = f.shift_val(-2)
    assert [c.val for c in g.a] == [-2, -1, 0]
    assert [c.rel for c in g.a] == [c.rel for c in f.a]


def test_compose_affine_polynomial_exact():
    # f(X) = X^2 at 5 + 6X: 25 + 60X + 36X^2
    f = frac_series([0, 0, 1])
    c = PadicScalar.from_int(5, P5, rel=30)
    d = PadicScalar.from_int(6, P5, rel=30)
    g = f.compose_affine(c, d)
    assert as_fracs(g) == [25, 60, 36]
    assert g.is_polynomial


def test_compose_affine_matches_oracle_on_random_polys():
    import random

    rng = random.Random(7)
    for _ in range(20):
        coeffs = [Fraction(rng.randrange(-20, 20)) for _ in range(rng.randrange(1, 8))]
        f = frac_series(coeffs, rel=30)
        # c of valuation >= 1, or a unit: a polynomial takes any c in Z_p
        cv = Fraction(rng.choice([5, 1]) * rng.randrange(1, 9))
        dv = Fraction(rng.choice([1, 2, 3, 6, 11]))
        got = f.compose_affine(
            PadicScalar.from_fraction(cv, P5, rel=30),
            PadicScalar.from_fraction(dv, P5, rel=30),
        )
        want = poly_compose_affine(coeffs, cv, dv)
        for gc, wc in zip(got.a, want):
            assert gc == PadicScalar.from_fraction(wc, P5, rel=22)


def test_compose_affine_caps_tail_of_truncated_series():
    # non-polynomial input: top coefficients can only be trusted to (L-j)*v(c)
    f = Series.make(P5, [1] * 6, is_polynomial=False)
    c = PadicScalar.from_int(5, P5, rel=40)
    d = PadicScalar.from_int(1, P5, rel=40)
    g = f.compose_affine(c, d)
    assert g.a[5].abs_prec <= 1
    assert g.a[0].abs_prec <= 6


@pytest.mark.parametrize("c, d", [(Fraction(1, 5), 1), (5, Fraction(1, 5)), (Fraction(2, 25), 3)])
def test_compose_affine_refuses_c_or_d_of_negative_valuation(c, d):
    # the packed kernel works in Z_p: a polynomial at a non-integral c or d
    # is refused by name rather than failing inside the integer arithmetic
    f = frac_series([1, 2, 3])
    c, d = (PadicScalar.from_fraction(Fraction(x), P5) for x in (c, d))
    with pytest.raises(PrecisionError, match="valuation >= 0"):
        f.compose_affine(c, d)


def test_evaluate_polynomial_any_point():
    f = frac_series([1, 2, 1])
    x = PadicScalar.from_int(3, P5)
    assert f.evaluate(x) == PadicScalar.from_int(16, P5)


def test_evaluate_truncated_series_caps_precision():
    f = Series.make(P5, [1] * 10, is_polynomial=False)
    x = PadicScalar.from_int(5, P5)
    v = f.evaluate(x)
    # true value 1/(1-5) agrees mod 5^10 only
    assert v.abs_prec == 10
    assert v == PadicScalar.from_fraction(Fraction(1, 1 - 5), P5, rel=10)


def test_evaluate_at_exact_zero_returns_constant_term():
    f = Series.make(P5, [7, 9, 11], is_polynomial=False)
    assert f.evaluate(PadicScalar.exact_zero(P5)) == 7


# -------------------------------------------------------- cyclotomic factors


def test_cyclotomic_factor_p3_spec_case():
    prec = Precision(3, 10, 8)
    phi = cyclotomic_factor(1, 0, prec)
    assert phi.is_polynomial and len(phi.a) == 3
    assert as_fracs(phi) == [3, 3, 1]


def test_cyclotomic_factor_p5_m3_mod_25():
    prec = Precision(5, 2, 2)
    phi = cyclotomic_factor(3, 0, prec)
    assert phi.a[0] == PadicScalar.from_int(5, prec, rel=2)
    assert phi.a[1] == PadicScalar.exact_zero(prec)  # 0 mod 25


def test_cyclotomic_factor_value_at_one_is_p():
    for p, m in [(3, 2), (5, 1), (5, 2), (7, 3)]:
        prec = Precision(p, 12, p ** (m - 1) * (p - 1) + 2)
        phi = cyclotomic_factor(m, 0, prec)
        assert phi.evaluate(PadicScalar.exact_zero(prec)) == p


def test_cyclotomic_factor_matches_binomial_oracle():
    for p, m, j in [(5, 2, 0), (5, 2, 3), (7, 1, 2), (3, 3, 1)]:
        W = 14
        prec = Precision(p, W, 12)
        phi = cyclotomic_factor(m, j, prec)
        oracle = phi_ppow_coeffs(p, m, j, u_for(p), p**W, min(12, len(phi.a)))
        for n, want in enumerate(oracle):
            got = phi.a[n]
            assert got == PadicScalar.from_unit_val(prec, want, 0, rel=W) or (
                want == 0 and got.is_zero_to_precision
            )


def test_cyclotomic_factor_truncation_flag():
    prec = Precision(5, 5, 8)  # deg Phi_25 = 20 > 8
    phi = cyclotomic_factor(2, 0, prec)
    assert not phi.is_polynomial and len(phi.a) == 8


@st.composite
def cyclotomic_cases(draw):
    """(p, m, c, W, N) with N on either side of the factor's length deg + 1."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    m = draw(st.integers(1, 6))
    W = draw(st.integers(1, 40))
    c = (1 + p * draw(st.integers(0, p**W))) % p**W  # a principal unit
    edge = (p - 1) * p ** (m - 1) + 1
    near = st.integers(max(1, edge - 4), edge + 4)
    N = draw(near | st.integers(1, 64) if edge <= 200 else st.integers(1, 64))
    return p, m, c, W, N


@settings(max_examples=300, deadline=None)
@given(cyclotomic_cases())
def test_cyclotomic_cells_match_powering_and_binomial_oracle(case):
    p, m, c, W, N = case
    mod = p**W
    cells = cyclotomic_cells(p, m, c, mod, N)
    e = p ** (m - 1)
    # the length geometric_sum gives: min(N, deg + 1), never padded to N
    assert len(cells) == min(N, (p - 1) * e + 1)
    assert cells == geometric_sum(polypow([c, c], e, mod, N), p, mod, N)
    # j = -1 turns the oracle's u^(-j t e) into c^(t e)
    assert cells == phi_ppow_coeffs(p, m, -1, c, mod, len(cells))


@pytest.mark.parametrize(
    "p,W,N,levels",
    [
        # the first three are log-identity working windows (p, W, N), where the
        # rows are carried mod p^(W+V) with V = v_p((N-1)!) up to 38
        (5, 212, 64, (1, 2, 3, 4, 9, 20, 41)),
        (5, 116, 160, (1, 3, 4, 5, 12, 40)),
        (7, 106, 64, (1, 2, 3, 8, 35)),
        (3, 250, 170, (1, 4, 5, 6, 19, 40)),
        (11, 60, 130, (1, 2, 3, 14, 30)),
    ],
)
def test_cyclotomic_cells_match_binomial_oracle_at_work_windows(p, W, N, levels):
    mod = p**W
    u = u_for(p)
    for m in levels:
        for j in (1, 3):
            cells = cyclotomic_cells(p, m, pow(u, -j, mod), mod, N)
            assert len(cells) == min(N, (p - 1) * p ** (m - 1) + 1)
            assert cells == phi_ppow_coeffs(p, m, j, u, mod, len(cells))


def test_cyclotomic_cells_reject_level_zero():
    with pytest.raises(ValueError, match="level"):
        cyclotomic_cells(5, 0, 1, 5**3, 4)


def schoolbook(A, B, mod, trunc):
    """The integer convolution of A and B, each entry reduced mod ``mod``."""
    n = len(A) + len(B) - 1 if A and B else 0
    if trunc is not None:
        n = min(n, trunc)
    return [
        sum(A[i] * B[k - i] for i in range(len(A)) if 0 <= k - i < len(B)) % mod
        for k in range(n)
    ]


@st.composite
def polymul_cases(draw):
    """(A, B, mod, trunc): sparse and empty operands, entries in [0, mod)."""
    mod = draw(st.sampled_from([1, 2, 3, 5**3, 7**9, 2**64 + 13, 3**80]))
    # zeros are frequent, so the packed operands have runs of empty chunks
    entry = st.sampled_from([0, 0, 1, mod - 1]) | st.integers(0, mod - 1)
    A = draw(st.lists(entry, max_size=12))
    B = draw(st.lists(entry, max_size=12))
    trunc = draw(st.none() | st.integers(0, len(A) + len(B) + 3))
    return A, B, mod, trunc


@settings(max_examples=400, deadline=None)
@given(polymul_cases())
def test_polymul_matches_schoolbook_convolution(case):
    A, B, mod, trunc = case
    assert polymul(A, B, mod, trunc) == schoolbook(A, B, mod, trunc)


@st.composite
def taylor_shift_cases(draw):
    """(A, s, p, T): 1 to 80 entries in [0, p^T), and a shift s = p^e t with
    e >= 0, so that p need not divide it."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    T = draw(st.integers(1, 40))
    A = draw(st.lists(st.integers(0, p**T - 1), min_size=1, max_size=80))
    s = p ** draw(st.integers(0, T + 1)) * draw(st.integers(-(p**T), p**T))
    return A, s, p, T


@settings(max_examples=150, deadline=None)
@given(taylor_shift_cases())
@example(([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 7, 5, 4))
@example(([0, 1] * 20, -1, 3, 2))
def test_taylor_shift_is_the_affine_composition_and_undoes_itself(case):
    A, s, p, T = case
    mod = p**T
    shifted = taylor_shift(A, s, p, mod)
    assert shifted == [int(x) % mod for x in poly_compose_affine(A, Fraction(s), Fraction(1))]
    assert taylor_shift(shifted, -s, p, mod) == A


# ------------------------------------------------------------ IwasawaElement


def x_in_component(i: int, prec=P5) -> IwasawaElement:
    return IwasawaElement.from_component(i, Series.x(prec))


def test_elem_add_zero():
    F = x_in_component(2)
    assert F + IwasawaElement.zero(P5) == F


def test_elem_monomial_product():
    F = x_in_component(0)
    G = F * F
    want = IwasawaElement.from_component(0, Series.monomial(2, P5))
    assert G == want


def test_elem_orthogonal_idempotents():
    e1 = IwasawaElement.from_component(1, Series.constant(1, P5))
    e2 = IwasawaElement.from_component(2, Series.constant(1, P5))
    assert (e1 * e2).is_zero_to_precision


def test_elem_precision_mismatch_rejected():
    F = x_in_component(0)
    G = x_in_component(0, Precision(5, 10, 16))
    with pytest.raises(PrecisionError):
        F + G


def test_twist_of_monomial_spec_case():
    # twist(e_i X, 1) = e_{i-1} (6X + 5) at p = 5
    for i in range(4):
        F = x_in_component(i)
        T = F.twist(1)
        want = IwasawaElement.from_component(
            (i - 1) % 4, Series.make(P5, [5, 6], is_polynomial=True)
        )
        assert T == want


def test_twist_zero_is_identity():
    F = x_in_component(3)
    assert F.twist(0) is F


def test_twist_inverse_composes_to_identity():
    F = IwasawaElement.from_component(2, frac_series([2, 0, 1, 7]))
    assert F.twist(3).twist(-3) == F


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_twists_compose_as_a_group_action(data):
    # Tw_a Tw_b = Tw_(a+b): the wild maps compose as u^a (u^b (1+X)) = u^(a+b) (1+X)
    # and a component in slot i lands in slot i - a - b
    p = data.draw(st.sampled_from([3, 5, 7]))
    prec = Precision(p, 12, 6)
    coeffs = data.draw(st.lists(st.integers(-20, 20), min_size=1, max_size=5))
    f = Series.make(prec, coeffs, is_polynomial=True)
    i = data.draw(st.integers(0, p - 2))
    a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    F = IwasawaElement.from_component(i, f)
    got = F.twist(a).twist(b)
    assert got == F.twist(a + b)
    slot = (i - a - b) % (p - 1)
    assert all(s.is_zero_to_precision for k, s in enumerate(got.components) if k != slot)
    assert got.components[slot].is_zero_to_precision == f.is_zero_to_precision


def test_the_generator_is_derived_from_the_prime():
    for p in (3, 5, 7):
        prec = Precision(p, 6, 4)
        comps = [Series.zero(prec)] * (p - 1)
        assert IwasawaElement(prec, comps).u == IwasawaElement(prec, comps, 1 + p).u == 1 + p


def test_twist_is_ring_homomorphism_on_random_polys():
    import random

    rng = random.Random(3)
    for _ in range(10):
        f = frac_series([rng.randrange(-9, 9) for _ in range(4)], rel=30)
        g = frac_series([rng.randrange(-9, 9) for _ in range(4)], rel=30)
        i, jj, n = rng.randrange(4), rng.randrange(4), rng.choice([1, 2, -1])
        F = IwasawaElement.from_component(i, f)
        G = IwasawaElement.from_component(jj, g)
        assert (F * G).twist(n) == F.twist(n) * G.twist(n)


def test_project_resolution_of_identity():
    F = IwasawaElement(
        P5, [frac_series([i, 1]) for i in range(4)]
    )
    total = IwasawaElement.zero(P5)
    for j in range(4):
        total = total + F.idempotent_project(j)
    assert total == F
    P1 = F.idempotent_project(1)
    assert P1.idempotent_project(1) == P1


def test_project_annihilates_other_components():
    F = IwasawaElement.from_component(2, Series.monomial(3, P5))
    assert F.idempotent_project(1).is_zero_to_precision


def test_evaluate_at_character_monomial():
    # e_0 X at t = 1 evaluates to u - 1 = p
    F = x_in_component(0)
    v = F.evaluate_at_character(FiniteCharacter(0, 0, 1))
    assert v == PadicScalar.from_int(5, P5)


def test_evaluate_constant_any_twist():
    F = IwasawaElement.from_diagonal(Series.constant(Fraction(7, 3), P5))
    for t in (0, 1, 5):
        v = F.evaluate_at_character(FiniteCharacter(2, 0, t))
        assert v == PadicScalar.from_fraction(Fraction(7, 3), P5)


def test_evaluate_rejects_wild():
    F = x_in_component(0)
    with pytest.raises(ValueError):
        F.evaluate_at_character(FiniteCharacter(0, 1, 0))


def test_evaluate_is_ring_homomorphism():
    import random

    rng = random.Random(9)
    for _ in range(10):
        f = frac_series([rng.randrange(-9, 9) for _ in range(5)], rel=30)
        g = frac_series([rng.randrange(-9, 9) for _ in range(5)], rel=30)
        F, G = IwasawaElement.from_diagonal(f), IwasawaElement.from_diagonal(g)
        ch = FiniteCharacter(rng.randrange(4), 0, rng.choice([0, 1, 2]))
        assert (F * G).evaluate_at_character(ch) == F.evaluate_at_character(
            ch
        ) * G.evaluate_at_character(ch)


# ------------------------------------------------------------------ remainder


def test_remainder_of_constant_is_itself():
    prec = Precision(5, 20, 8)
    F = IwasawaElement.one(prec)
    r = F.remainder_mod_cyclotomic(1, 0)
    assert r == Series.constant(1, prec)


def test_remainder_detects_multiples():
    prec = Precision(5, 20, 24)
    phi = cyclotomic_factor(1, 0, prec, rel=26)
    f = frac_series([3, 1, 0, 2, 1], prec=prec, rel=26)
    F = IwasawaElement.from_diagonal(phi * f)
    r = F.remainder_mod_cyclotomic(1, 0)
    assert r.is_zero_to_precision
    G = IwasawaElement.from_diagonal(phi * f + Series.constant(1, prec))
    assert not G.remainder_mod_cyclotomic(1, 0).is_zero_to_precision


def test_remainder_respects_j_twist():
    prec = Precision(5, 18, 24)
    phi3 = cyclotomic_factor(1, 3, prec, rel=20)
    F = IwasawaElement.from_diagonal(phi3 * frac_series([1, 4], prec=prec, rel=20))
    assert F.remainder_mod_cyclotomic(1, 3).is_zero_to_precision
    assert not F.remainder_mod_cyclotomic(1, 0).is_zero_to_precision


def test_remainder_of_a_short_truncated_dividend_is_undetermined():
    # the unseen X^2 term of 1 + O(X) shifts the remainder mod X^2 + 5 by a
    # multiple of 5, so no coefficient is known; a polynomial is its own remainder
    phi = frac_series([5, 0, 1], prec=Precision(5, 20, 32))
    with pytest.raises(PrecisionError):
        Series.make(phi.prec, [1], is_polynomial=False).remainder_mod(phi)
    assert Series.make(phi.prec, [1], is_polynomial=True).remainder_mod(phi) == 1


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("poly", [False, True])
@pytest.mark.parametrize("form", [None, (1, 2)])
def test_remainder_mod_a_unit_is_the_empty_polynomial(n, poly, form):
    # a degree-0 modulus leaves no remainder coefficient, so nothing to cap
    # and nothing for a truncated dividend's tail to reach, even an empty one
    prec = Precision(5, 20, 8)
    F = Series.make(prec, [Fraction(c) for c in (1, 2, 3)[:n]], is_polynomial=poly)
    if form is not None:
        b = Series.make(prec, [Fraction(c) for c in (4, 0, 5)[:n]], is_polynomial=poly)
        F = Series(prec, F._a, b._a, form, poly)
    r = F.remainder_mod(Series.make(prec, [2], is_polynomial=True))
    assert r.is_polynomial and r.length == 0 and r.form == form
    assert (r._b is None) == (form is None)


def test_remainder_requires_room():
    prec = Precision(5, 10, 8)
    F = IwasawaElement.one(prec)
    with pytest.raises(PrecisionError):
        F.remainder_mod_cyclotomic(2, 0)  # deg 20 > 8


@pytest.mark.parametrize("p, m", [(7, 1), (3, 2)])
def test_remainder_refuses_a_level_whose_degree_fills_the_window(p, m):
    # deg Phi_{p^m} = 6 = x_prec: Phi needs 7 terms to be a polynomial, so
    # the reduction is refused as it is one degree higher
    prec = Precision(p, 8, 6)
    F = IwasawaElement.from_diagonal(Series.make(prec, [1, 2, 3], is_polynomial=True))
    with pytest.raises(PrecisionError, match="too small for deg Phi = 6"):
        F.remainder_mod_cyclotomic(m, 0)


@st.composite
def packed_remainder_cases(draw):
    """(cells, phi, p, Wp, W, n, budget) for the packed remainder.

    phi has degree D in 1..24 and a top that is a unit mod p^Wp, reduced or
    not; the dividend has D + 1 to 3D cells; both may hold unreduced and
    negative cells.  The columns are built to n >= len(cells), as a cached
    modulus' are to x_prec, within a budget of chunks that at times cuts
    them short of the dividend, and read at a width W <= Wp.
    """
    p = draw(st.sampled_from([3, 5, 7]))
    D = draw(st.integers(1, 24))
    Wp = draw(st.integers(1, 40))
    m = p**Wp
    cell = st.one_of(st.just(0), st.integers(0, m - 1), st.integers(-m, 2 * m))
    top = draw(st.integers(0, p ** (Wp - 1) - 1)) * p + draw(st.integers(1, p - 1))
    top += m * draw(st.integers(-2, 2))
    phi = draw(st.lists(cell, min_size=D, max_size=D)) + [top]
    L = draw(st.integers(D + 1, 3 * D))
    cells = draw(st.lists(cell, min_size=L, max_size=L))
    n = L + draw(st.integers(0, 2 * D))
    budget = draw(st.sampled_from([1, D, 3 * D, 2**14]))
    return cells, phi, p, Wp, draw(st.integers(1, Wp)), n, budget


@settings(max_examples=300, deadline=None)
@given(packed_remainder_cases())
def test_packed_remainder_matches_the_euclidean_loop(case):
    # one multiply-add per cell against the columns X^k mod phi, block by
    # block when they are fewer than the cells, gives the remainder of the
    # Euclidean loop that reduces every update
    cells, phi, p, Wp, W, n, budget = case
    D = len(phi) - 1
    cb, columns = _reduction_columns(p, phi, Wp, n, budget)
    assert len(columns) == min(n - D, max(budget // D, 1))
    want = divmod_cells_each_step(cells, phi, p**W)[1]
    assert _reduce(cells, D, cb, columns, p**W) == want


def remainder_or_error(fn, *args):
    try:
        r = fn(*args)
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)
    return r.is_polynomial, r.form, [(x.off, x.cells, x.abs_precs) for x in r._parts()]


def random_part(draw, p, n):
    return Part.from_triples(p, [column_triple(draw, p, -3, 6) for _ in range(n)])


@st.composite
def cyclotomic_remainder_cases(draw):
    """An element and a list of (m, j, growth order) to reduce it by.

    Components are polynomials or truncations, some shorter than a factor,
    of jagged precision, some with an alpha-part, some a cyclotomic factor
    times a short polynomial (a zero remainder); levels run from the linear
    factor to ones too large for the window.
    """
    p = draw(st.sampled_from([3, 5, 7]))
    prec = Precision(p, draw(st.integers(4, 24)), draw(st.integers(2, 40)))
    comps = []
    for _ in range(p - 1):
        n = draw(st.integers(0, prec.x_prec))
        poly = draw(st.booleans())
        kind = draw(st.sampled_from(["random", "alpha", "multiple"]))
        if kind == "multiple":
            m, j = draw(st.integers(0, 1)), draw(st.integers(-2, 4))
            seed = Series(prec, random_part(draw, p, draw(st.integers(1, 3))), is_polynomial=True)
            s = cyclotomic_factor(m, j, prec, rel=draw(st.integers(4, 30))) * seed
            comps.append(Series(prec, s._a, is_polynomial=poly and s.is_polynomial))
        else:
            b = random_part(draw, p, n) if kind == "alpha" else None
            form = (1, 2) if kind == "alpha" else None
            comps.append(Series(prec, random_part(draw, p, n), b, form, is_polynomial=poly))
    elem = IwasawaElement(prec, comps)
    orders = st.sampled_from([None, Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])
    checks = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(-3, 6), orders), min_size=1, max_size=6
    ))
    return elem, checks


@settings(max_examples=40, deadline=None)
@given(cyclotomic_remainder_cases())
def test_working_digits_match_the_finite_precision_scan(case):
    # the plain maximum of each part's precisions, with the finite ones
    # scanned only when an exact zero's inf is that maximum
    elem, _ = case
    assert elem._working_digits() == reference_working_digits(elem)


@pytest.mark.parametrize(
    "triples",
    [
        [],  # an empty part
        [(None, 0, 0)] * 3,  # exact zeros only
        [(2, 1, 5), (None, 0, 0), (-1, 2, 3)],  # an exact zero above finite caps
        [(-2, 1, 4), (-2, 3, 4)],  # one cap, below the offset
        [(0, 1, 30), (3, 0, 0)],  # a digit and a zero to precision
    ],
)
def test_working_digits_on_exact_zeros_and_one_cap(triples):
    prec = Precision(5, 6, 4)
    comps = [Series(prec, Part.from_triples(5, triples))] * 4
    assert IwasawaElement(prec, comps)._working_digits() == reference_working_digits(
        IwasawaElement(prec, comps)
    )


@settings(max_examples=200, deadline=None)
@given(cyclotomic_remainder_cases())
def test_remainder_mod_cyclotomic_matches_per_call_reference(case):
    # the cached modulus, the memoized width and the memoized part data give
    # the remainder the per-call reference gives, at every check in turn and
    # again once every memo is warm
    elem, checks = case
    for _ in range(2):
        for m, j, order in checks:
            assert remainder_or_error(
                elem.remainder_mod_cyclotomic, m, j, order
            ) == remainder_or_error(reference_remainder_mod_cyclotomic, elem, m, j, order)


@st.composite
def general_remainder_cases(draw):
    """(F, phi, growth order): any modulus, refused ones included."""
    p = draw(st.sampled_from([3, 5, 7]))
    prec = Precision(p, 20, 24)
    D = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["distinguished"] * 4 + ["offset", "top", "truncated", "alpha"]))
    low = [column_triple(draw, p, 1, 4) for _ in range(D)]
    top = (0, draw(st.integers(1, p - 1)), draw(st.integers(1, 12)))
    if kind == "offset":
        low = [(-1, 1, 10)] + low
    elif kind == "top":
        top = (1, 1, 10)
    phi = Series(prec, Part.from_triples(p, low + [top]), is_polynomial=kind != "truncated")
    if kind == "alpha":
        phi = Series(prec, phi._a, phi._a, (1, 2), is_polynomial=True)
    n = draw(st.integers(0, 12))
    F = Series(prec, random_part(draw, p, n), is_polynomial=draw(st.booleans()))
    order = draw(st.sampled_from([None, Fraction(0), Fraction(1)]))
    return F, phi, order


@settings(max_examples=200, deadline=None)
@given(general_remainder_cases())
def test_remainder_mod_matches_per_call_reference(case):
    # the same cells, or the same refusal raised in the same order
    F, phi, order = case
    assert remainder_or_error(F.remainder_mod, phi, order) == remainder_or_error(
        reference_remainder_mod, F, phi, order
    )


# ------------------------------------------------------------------- division


def test_divide_monomial():
    G = frac_series([3, 1, 4])
    F = Series.x(P5) * G
    Q = divide_series(F, Series.x(P5))
    assert Q == G


def test_divide_one_by_x_fails():
    with pytest.raises(DivisibilityError) as ei:
        divide_series(Series.constant(1, P5), Series.x(P5))
    assert ei.value.degree == 0


def test_divide_roundtrip_random():
    import random

    rng = random.Random(17)
    for _ in range(15):
        f = frac_series(
            [rng.randrange(-9, 9) for _ in range(rng.randrange(1, 6))], rel=30
        )
        g = frac_series(
            [0] * rng.randrange(0, 3)
            + [rng.choice([1, 2, 3, 4, 6, 7])]
            + [rng.randrange(-9, 9) for _ in range(3)],
            rel=30,
        )
        Q = divide_series(f * g, g)
        assert Q == f


def test_divide_reports_attained_length():
    F = Series.make(P5, [0, 1, 1, 1, 1, 1], is_polynomial=False)
    Q = divide_series(F, Series.x(P5))
    assert len(Q.a) == 5


# ------------------------------------------- division: zeros in the open disc

P32 = Precision(5, 20, 32)
TWIST = [Fraction(1, u_for(5)) - 1, Fraction(1, u_for(5))]  # u^-1(1+X) - 1


@pytest.mark.parametrize("g", [TWIST, [5, 0, 1]], ids=["twist", "X^2+5"])
def test_divide_recovers_cofactor_of_open_disc_zeros(g):
    # G vanishes in the open disc (at X = p, or at X^2 = -p) but is not
    # divisible by X: an exact multiple still divides, over the full window
    G = frac_series(g, prec=P32)
    H = frac_series([3, 1, 4, 1, 5], prec=P32)
    Q = divide_series(G * H, G)
    assert len(Q.a) == P32.x_prec
    assert Q == H
    assert Q.min_abs_prec() >= P32.p_prec


def test_divide_refuses_dividend_missing_open_disc_zeros():
    # (X+5)(1+X) = 6X mod X^2 + 5: the remainder's first nonzero degree is 1
    F = frac_series([5, 1], prec=P32) * frac_series([1, 1], prec=P32)
    with pytest.raises(DivisibilityError) as ei:
        divide_series(F, frac_series([5, 0, 1], prec=P32))
    assert ei.value.degree == 1


def test_divide_polynomials_keeps_full_window():
    Q = divide_series(frac_series([1], prec=P32), frac_series([1, 1], prec=P32))
    assert len(Q.a) == 32
    assert all(Q.coeff(n) == (-1) ** n for n in range(32))


def test_divide_roundtrip_random_open_disc_zeros():
    # divisors X^e * P * U with P distinguished of degree 2 and U of degree 2
    # a unit, so Weierstrass preparation needs more than one correction
    import random

    rng = random.Random(31)
    for _ in range(12):
        P = [5 * rng.randrange(-9, 9), 5 * rng.randrange(-9, 9), 1]
        U = [rng.choice([1, 2, 3, 4, 6]), rng.randrange(-9, 9), rng.randrange(1, 9)]
        G = frac_series([0] * rng.randrange(0, 2) + [1], prec=P32)
        for part in (P, U):
            G = G * frac_series(part, prec=P32, rel=25)
        H = frac_series([rng.randrange(-9, 9) for _ in range(4)], prec=P32, rel=25)
        F = G * H
        Q = divide_series(F, G)
        assert len(Q.a) == P32.x_prec and Q == H
        assert Q.min_abs_prec() >= P32.p_prec - 1
        # a truncated dividend is tested against the same zeros; its quotient
        # comes from back-substitution and keeps fewer digits
        Ft = Series(P32, F.a + (PadicScalar.exact_zero(P32),) * (20 - len(F.a)))
        assert divide_series(Ft, G) == H
        with pytest.raises(DivisibilityError):
            divide_series(Ft + frac_series([0, 0, 0, 1], prec=P32), G)


@st.composite
def weierstrass_cases(draw):
    """(p, W, v, P, U): P distinguished of degree 1 to 3 and U a unit, as
    cells mod p^W, and a content p^v."""
    p = draw(st.sampled_from([3, 5, 7]))
    W = draw(st.integers(1, 30))
    m = p**W
    P = [p * draw(st.integers(0, m // p - 1)) for _ in range(draw(st.integers(1, 3)))] + [1]
    U = [draw(st.integers(1, m - 1).filter(lambda c: c % p))]
    U += draw(st.lists(st.integers(0, m - 1), max_size=6))
    return p, W, draw(st.integers(-2, 3)), P, U


@settings(max_examples=300, deadline=None)
@given(weierstrass_cases())
def test_weierstrass_split_gives_back_its_factors(case):
    # the distinguished factor and the unit are unique mod p^W, so the split
    # of p^v * P * U, known to O(p^(v + W)), is P and p^v * U cell for cell
    p, W, v, P, U = case
    G = [sum(P[j] * U[i - j] for j in range(len(P)) if 0 <= i - j < len(U))
         for i in range(len(P) + len(U) - 1)]
    prec = Precision(p, W, 16)
    got = _weierstrass_split(Series(prec, unpack_part(p, (v, W, G), len(G)), is_polynomial=True))
    want = (unpack_part(p, (0, W, P), len(P)), unpack_part(p, (v, W, U), len(U)))
    assert [(x._a.off, x._a.cells, x._a.abs_precs) for x in got] == [
        (x.off, x.cells, x.abs_precs) for x in want]
    assert all(x.is_polynomial and x._b is None for x in got)


def test_divide_needs_a_dividend_window_past_the_open_disc_zeros():
    F = Series.make(P32, [1, 2], is_polynomial=False)
    with pytest.raises(PrecisionError):
        divide_series(F, frac_series([5, 0, 1], prec=P32))


def test_divide_by_alpha_part_divisor_uses_the_norm():
    one = QuadExtScalar.one(P32, 1, 2)
    alpha = QuadExtScalar.alpha(P32, 1, 2)
    G = Series.make(P32, [alpha - 5, one], is_polynomial=True)  # zero at 5 - alpha
    H = frac_series([3, 1, 4], prec=P32)
    Q = divide_series(G * H, G)
    assert len(Q.a) == P32.x_prec and Q == H
    assert Q.min_abs_prec() >= P32.p_prec
    with pytest.raises(DivisibilityError):
        divide_series(frac_series([1], prec=P32), G)


def test_divide_by_truncated_alpha_part_divisor_uses_the_norm():
    one = QuadExtScalar.one(P32, 1, 2)
    alpha = QuadExtScalar.alpha(P32, 1, 2)
    G = Series.make(
        P32, [one + alpha, alpha * 3, 7, one - alpha] * 4, is_polynomial=False
    )
    H = frac_series([3, 1, 4, 1, 5], prec=P32)
    F = G * H
    Q = divide_series(F, G)
    assert Q.b is not None and len(Q.a) == len(G.a)
    assert Q * G == F and Q == H
    assert Q.min_abs_prec() >= P32.p_prec - 1


@pytest.mark.parametrize("poly", [True, False], ids=["polynomial", "truncated"])
def test_divide_by_exactly_zero_alpha_part_is_division_over_qp(poly):
    # an alpha-part array of exact zeros is no alpha-part: no norm is taken
    g = [Fraction(1, 6) - 1, Fraction(1, 6), 3] + ([] if poly else [7] * 10)
    Gq = frac_series(g, prec=P32, poly=poly)
    zero = PadicScalar.exact_zero(P32)
    Ga = Series(P32, Gq.a, [zero] * len(g), (1, 2), poly)
    F = Gq * frac_series([3, 1, 4], prec=P32)
    Qq, Qa = divide_series(F, Gq), divide_series(F, Ga)
    assert triple_shape(Qq)[0] == triple_shape(Qa)[0]
    assert all(c.is_exact_zero for c in Qa.b or ())


def test_a_zero_known_to_less_than_the_others_keeps_its_bound():
    # coefficient 0 is O(5^-2): working at the valuation 5 of coefficient 1
    # must not hand it the seven digits up to O(5^5) that it never had
    P = Precision(5, 20, 8)
    low, high = PadicScalar.inexact_zero(P, -2), PadicScalar(P, 5, 3, 4)
    five, one = PadicScalar.from_int(5, P), PadicScalar.from_int(1, P)
    lin = Series.make(P, [5, 1], is_polynomial=True)  # X + 5, distinguished
    zero = PadicScalar.exact_zero(P)
    built = Series(P, [low, high], is_polynomial=True)
    summed = Series(P, [low], is_polynomial=True) + Series(P, [zero, high], is_polynomial=True)
    for s in (built, summed):
        outs = [s * 1, s.compose_affine(five, one), s.remainder_mod(lin)]
        outs.append((s * 1).compose_affine(five, one).remainder_mod(lin))
        for out in outs:
            assert out.a[0].is_zero_to_precision and out.a[0].abs_prec <= -2


# ------------------------------ division: the triple kernel against scalars


def triple_shape(s: Series):
    def part(cs):
        return None if cs is None else [(c.val, c.unit, c.rel) for c in cs]

    return part(s.a), part(s.b), s.form, s.is_polynomial


def outcome(fn, *args):
    """The result's triples and shape, or the class of the PrecisionError raised."""
    try:
        out = fn(*args)
    except PrecisionError as e:  # DivisibilityError and ExactZeroError included
        return type(e)
    return triple_shape(out) if isinstance(out, Series) else out


@st.composite
def scalars(draw, prec, zero=True, min_val=-2):
    """A PadicScalar mixing valuation and digits; exact and inexact zeros too."""
    p = prec.p
    kind = draw(st.sampled_from(["unit"] * 4 + (["exact", "inexact"] if zero else [])))
    v = draw(st.integers(min_val, 3))
    if kind == "exact":
        return PadicScalar.exact_zero(prec)
    if kind == "inexact":
        return PadicScalar.inexact_zero(prec, max(v, 1))
    rel = draw(st.integers(1, 12))
    u = draw(st.integers(0, p ** (rel - 1))) * p + draw(st.integers(1, p - 1))
    return PadicScalar(prec, v, u, rel)


@st.composite
def zeros(draw, prec):
    """The exact zero or a zero to precision O(p^A)."""
    A = draw(st.one_of(st.none(), st.integers(-1, 3)))
    return PadicScalar.exact_zero(prec) if A is None else PadicScalar.inexact_zero(prec, A)


@st.composite
def division_cases(draw):
    """(F, G) over p in {3, 5, 7} that divide_series sends to back-substitution.

    G is over Q_p, truncated or a polynomial without zeros in the open disc
    (its pivot a unit, nothing below valuation 0), maybe carrying form data;
    it may start with zeros to precision, exact or not (the cap path).  F may
    have an alpha-part, be a polynomial shorter than the window, and is
    usually zero to precision below G's pivot.
    """
    p = draw(st.sampled_from([3, 5, 7]))
    prec = Precision(p, 12, draw(st.integers(3, 12)))
    form = (draw(st.integers(0, 2)), draw(st.integers(1, p - 1)))
    d = draw(st.integers(0, 2))
    g_poly = draw(st.booleans())
    lead = [draw(zeros(prec)) for _ in range(d)]
    if g_poly:
        pivot = PadicScalar(prec, 0, draw(st.integers(1, p - 1)), draw(st.integers(1, 12)))
        rest = [draw(scalars(prec, min_val=0)) for _ in range(draw(st.integers(0, 4)))]
    else:
        pivot = draw(scalars(prec, zero=False))
        rest = [draw(scalars(prec)) for _ in range(draw(st.integers(0, prec.x_prec)))]
    G = Series(prec, lead + [pivot] + rest, None, draw(st.sampled_from([None, form])), g_poly)
    f_poly = draw(st.booleans())
    n = draw(st.integers(0, 5) if f_poly else st.integers(1, prec.x_prec))
    below = [draw(zeros(prec)) for _ in range(min(d, n))]
    if below and not draw(st.integers(0, 9)):
        below[-1] = draw(scalars(prec, zero=False))  # not divisible
    fa = below + [draw(scalars(prec)) for _ in range(n - len(below))]
    fb = [draw(scalars(prec)) for _ in fa] if draw(st.booleans()) else None
    f_form = form if fb is not None or draw(st.booleans()) else None
    F = Series(prec, fa, fb, f_form, f_poly)
    if draw(st.booleans()):
        # an exact multiple: back-substitution then cancels at every degree
        hb = None if fb is None else [draw(scalars(prec)) for _ in range(n)]
        F = G * Series(prec, [draw(scalars(prec)) for _ in range(n)], hb, f_form, f_poly)
    return F, G


@settings(max_examples=300, deadline=None)
@given(division_cases())
def test_divide_series_matches_scalar_back_substitution(case):
    F, G = case
    assert outcome(divide_series, F, G) == outcome(reference_divide, F, G)


@st.composite
def monic_division_cases(draw):
    """(F, G) over p in {3, 5, 7} with G a polynomial with zeros in the open disc.

    Past its leading zeros to precision, G is content p^v times a polynomial
    whose first lambda in {1, 2, 3} coefficients are p-divisible and whose
    coefficient lambda is a unit, with jagged precision.  F is mostly a
    polynomial multiple of G, at times of a G more precise than the divisor,
    at times perturbed at one degree or drawn at random (not divisible); it
    may have an alpha-part or be truncated.
    """
    p = draw(st.sampled_from([3, 5, 7]))
    prec = Precision(p, 12, draw(st.integers(4, 12)))
    form = (draw(st.integers(0, 2)), draw(st.integers(1, p - 1)))
    lam, v = draw(st.integers(1, 3)), draw(st.integers(-2, 2))
    lead = [draw(zeros(prec)) for _ in range(draw(st.integers(0, 2)))]
    low = [draw(scalars(prec, zero=i > 0, min_val=v + 1)) for i in range(lam)]
    unit = draw(st.integers(0, p**11)) * p + draw(st.integers(1, p - 1))
    pivot = PadicScalar(prec, v, unit, draw(st.integers(1, 12)))
    rest = [draw(scalars(prec, min_val=v)) for _ in range(draw(st.integers(0, 3)))]
    G = Series(prec, lead + low + [pivot] + rest, None, draw(st.sampled_from([None, form])), True)
    f_poly = draw(st.integers(0, 4)) > 0  # mostly the monic path
    n = draw(st.integers(1, 5))
    has_b = draw(st.booleans())
    f_form = form if has_b or draw(st.booleans()) else None

    def part(m):
        return [draw(scalars(prec)) for _ in range(m)]

    kind = draw(st.sampled_from(["multiple"] * 3 + ["precise", "perturbed", "random"]))
    if kind == "random":
        m = G.length + n - 1
        return Series(prec, part(m), part(m) if has_b else None, f_form, f_poly), G
    F = G * Series(prec, part(n), part(n) if has_b else None, f_form, f_poly)
    if kind == "precise":  # the dividend keeps digits the divisor has lost
        G = G.reduce_abs(v + draw(st.integers(1, 6)))
    elif kind == "perturbed":
        F = F + Series.monomial(draw(st.integers(0, F.length)), prec, draw(scalars(prec)))
    return F, G


@settings(max_examples=300, deadline=None)
@given(monic_division_cases())
def test_divide_series_by_open_disc_zeros_matches_scalar_reference(case):
    # the monic quotient runs on the reversed columns; end to end it must
    # give the scalar monic loop's triples after the division by U
    F, G = case
    assert outcome(divide_series, F, G) == outcome(reference_divide, F, G)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_triple_kernel_matches_scalar_loop(data):
    # any divisor, its constant term zero or not: the same triples or error
    p = data.draw(st.sampled_from([3, 5, 7]))
    prec = Precision(p, 12, 12)
    n = data.draw(st.integers(1, 10))
    m = data.draw(st.integers(1, n))
    den = Series(prec, [data.draw(scalars(prec)) for _ in range(m)], is_polynomial=True)
    num = Series(prec, [data.draw(scalars(prec)) for _ in range(n)], is_polynomial=True)
    if data.draw(st.booleans()):
        num = den * num  # cancellation at every degree

    def kernel():
        q = _back_substitute(num._a, den._a, n)
        return [(c.val, c.unit, c.rel) for c in Series(prec, q).a]

    def scalar_loop():
        return [(c.val, c.unit, c.rel) for c in back_substitute_scalars(num, den, n)]

    assert outcome(kernel) == outcome(scalar_loop)


def column_triple(draw, p, lo, hi, kinds=("digit",) * 4 + ("exact", "zero")):
    """A normalized (val, unit, rel) triple of valuation in lo..hi.

    (None, 0, 0) is an exact zero and (A, 0, 0) a zero known to O(p^A).
    """
    kind = draw(st.sampled_from(kinds))
    if kind == "exact":
        return None, 0, 0
    if kind == "zero":
        return draw(st.integers(lo, hi + 4)), 0, 0
    rel = draw(st.integers(1, 12))
    u = draw(st.integers(0, p ** (rel - 1) - 1)) * p + draw(st.integers(1, p - 1))
    return draw(st.integers(lo, hi)), u, rel


@st.composite
def back_substitution_cases(draw):
    """(num, den, n) for the division kernel, as Parts.

    The divisor is often shorter than n, and its pivot is rarely of least
    valuation, as in the signed logs; it holds exact zeros and zeros to
    precision, and at times has lost digits the dividend keeps.  The dividend
    is a short seed times the divisor (a sparse quotient: zeros to precision
    past the seed's degree), 1 to 4 terms anywhere in the window times the
    divisor (a sparse quotient whose digit-carrying terms may come late and
    lie below the earlier ones), a long one (a dense quotient), random, or
    zeros to precision (a quotient of zeros to precision, in closed form),
    read at one cap over the whole window, at jagged caps or as it is.
    """
    p = draw(st.sampled_from([3, 5, 7]))
    n = 64 if draw(st.integers(0, 19)) == 0 else draw(st.integers(0, 40))
    prec = Precision(p, 30, 2 * n + 16)
    v0 = draw(st.integers(-2, 3))
    pivot = draw(st.sampled_from(["digit"] * 18 + ["exact", "zero"]))
    den = [column_triple(draw, p, v0, v0, (pivot,))]
    kinds = draw(st.sampled_from([("digit",), ("digit",) * 3 + ("zero",), ("digit", "exact", "zero")]))
    length = draw(st.integers(0, n + 2))
    den += [column_triple(draw, p, v0 - 3, v0 + 5, kinds) for _ in range(length)]
    den = Part.from_triples(p, den)
    shape = draw(st.sampled_from(["sparse", "sparse", "terms", "terms", "dense", "random", "zero"]))
    if shape == "random":
        length = draw(st.integers(0, n + 2))
        num = Part.from_triples(p, [column_triple(draw, p, -3, 5) for _ in range(length)])
    elif shape == "zero":
        # bounds at or above every cap drawn below, so one cap reads as one cap
        length = draw(st.integers(0, n + 2))
        zeros = [column_triple(draw, p, 30, 30, ("zero",)) for _ in range(length)]
        num = Part.from_triples(p, zeros)
    else:
        if shape == "terms":
            seed = [(None, 0, 0)] * max(n, 1)
            for i in draw(st.lists(st.integers(0, len(seed) - 1), min_size=1, max_size=4)):
                seed[i] = column_triple(draw, p, -1, 4, ("digit",))
        else:
            length = draw(st.integers(1, 7)) if shape == "sparse" else max(n, 1)
            seed = [column_triple(draw, p, -1, 4) for _ in range(length)]
        seed = Part.from_triples(p, seed)
        num = (Series(prec, seed, is_polynomial=True) * Series(prec, den, is_polynomial=True))._a
        if draw(st.booleans()):  # the dividend keeps digits the divisor has lost
            den = den.reduce_abs(v0 + draw(st.integers(1, 6)))
    caps = draw(st.sampled_from(["one", "jagged", "as is"]))
    if caps == "one":
        pad = max(n - len(num), 0)
        num = Part(p, num.off, num.cells + [0] * pad, num.abs_precs + [inf] * pad)
        num = num.reduce_abs(draw(st.integers(-2, 30)))
    elif caps == "jagged":
        cut = [draw(st.one_of(st.just(inf), st.integers(-2, 30))) for _ in range(len(num))]
        # normalized under the lowered caps
        num = _part(p, num.off, num.cells, [min(A, c) for A, c in zip(num.abs_precs, cut)])
    return num, den, n


def columns_or_error(fn, *args):
    try:
        q = fn(*args)
    except PrecisionError as e:  # ExactZeroError included
        return type(e), str(e)
    return q.off, q.cells, q.abs_precs


@settings(max_examples=400, deadline=None)
@given(back_substitution_cases())
# the pivot (valuation -2, 3 digits) knows fewer digits than coefficient 1
# (valuation -3, 4 digits), so at degree 3 the cap comes from q_1's own cap
# carried along G*, not from the dividend's or the divisor's caps
@example((
    Part(5, -2, [0, 11465, 4953, 8455, 5338], [4] * 5),
    Part(5, -3, [410, 297, 510, 0], [1] * 4),
    9,
))
# 6/7 + O(1) + O(1)X + ...: the divisor's zeros to precision cap each q_m,
# m >= 1, at v(q_0) plus their cap; at degree 3 q_0's update reads it from WA
@example((
    Part.from_triples(7, [(0, 97, 3)] + [(3, 0, 0)] * 3),
    Part.from_triples(7, [(-1, 6, 1)] + [(0, 0, 0)] * 3),
    4,
))
# zeros to precision at one cap, by a divisor with a coefficient of lower
# valuation than its pivot: the closed form's caps fall along G*
@example((
    Part.from_triples(5, [(4, 0, 0)] * 6),
    Part.from_triples(5, [(1, 4, 3), (-1, 3, 8), (2, 1, 5)]),
    6,
))
# an exact-zero dividend coefficient past the pivot, over an exact-zero
# divisor coefficient: the cap at degree 1 is inf, so q_1 is exact
@example((
    Part.from_triples(5, [(0, 3, 6), (None, 0, 0), (None, 0, 0)]),
    Part.from_triples(5, [(0, 2, 4), (None, 0, 0)]),
    3,
))
# at degree 1 the dividend's cap 1 lies at its offset and below the
# quotient's base 3: no term reaches the value, a zero known to O(p^1)
@example((
    Part.from_triples(5, [(3, 1, 5), (1, 0, 0)]),
    Part.from_triples(5, [(0, 1, 8), (0, 2, 8)]),
    3,
))
# q_1 (valuation 0) lies below q_0 (valuation 3): the accumulator rescales
# q_0's products to the lower base
@example((
    Part.from_triples(5, [(3, 1, 5), (0, 1, 8), (0, 4, 8)]),
    Part.from_triples(5, [(0, 1, 8), (0, 1, 8)]),
    3,
))
def test_cap_first_kernel_matches_pair_walk(case):
    # every cap set first from the divisor's tables and every value from the
    # products the digit-carrying terms scatter: the same columns as forming
    # every product, or the same error
    num, den, n = case
    assert columns_or_error(_back_substitute, num, den, n) == columns_or_error(
        back_substitute_pairs, num, den, n
    )


def chains(k):
    """Every tuple of degrees >= 1 summing to k."""
    if k == 0:
        yield ()
    for i in range(1, k + 1):
        for rest in chains(k - i):
            yield (i, *rest)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cap_tables_are_least_chains(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    n = data.draw(st.integers(1, 8))
    v0 = data.draw(st.integers(-2, 3))
    den = [column_triple(data.draw, p, v0, v0, ("digit",))]
    den += [column_triple(data.draw, p, v0 - 3, v0 + 5) for _ in range(data.draw(st.integers(0, 9)))]
    den = Part.from_triples(p, den)
    reach = min(n, len(den))
    cells, abs_precs = tuple(den.cells[:reach]), tuple(den.abs_precs[:reach])
    gv, _, gr, slack, star, low, wa, col = _divisor_plan(p, den.off, cells, abs_precs, n)

    def cost(chain):  # a degree past the reach or at an exact zero has no chain
        return sum(gv[i] - v0 if i < reach else inf for i in chain)

    want_star = [min(map(cost, chains(k))) for k in range(n)]
    want_wa = [
        min((gv[i] + gr[i] + want_star[k - i] for i in range(1, min(k + 1, reach))), default=inf)
        for k in range(n)
    ]
    assert list(star) == want_star and list(wa) == want_wa
    assert list(low) == [min(want_star[: k + 1]) for k in range(n)]
    for got, table in zip(slack, (want_wa, want_star)):
        want = [min((table[k] - low[j + k] for k in range(1, n - j)), default=inf) for j in range(n)]
        assert list(got) == want
    assert col == cells[1:]


def test_cap_tables_key_holds_caps_and_reach():
    # equal valuations, other caps or a shorter reach: other tables, so a
    # cache keyed on valuations alone would hand jagged divisors wrong caps
    p, n = 5, 4
    base = Part.from_triples(p, [(0, 1, 10), (1, 1, 3), (1, 2, 10)])
    other_caps = Part.from_triples(p, [(0, 1, 10), (1, 1, 7), (1, 2, 10)])
    shorter = base.slice(0, 2)

    def tables(den):  # (G*, prefix minima, WA, cells from degree 1)
        return _divisor_plan(p, den.off, tuple(den.cells), tuple(den.abs_precs), n)[4:]

    t = tables(base)
    assert t[2] != tables(other_caps)[2]  # WA[1] is the cap of coefficient 1
    assert t[0] != tables(shorter)[0]  # G*[2]: degree 2 (cost 1) beats 1 + 1 (cost 2)
    for den in (base, other_caps, shorter):
        num = Part.from_triples(p, [(0, 1, 12)] + [(12, 0, 0)] * (n - 1))
        assert columns_or_error(_back_substitute, num, den, n) == columns_or_error(
            back_substitute_pairs, num, den, n
        )


# ------------------------------------------- packed cells into columns


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unpack_part_matches_wrap_then_shift(data):
    # pollack_log's old two passes: wrap at valuation 0 and cap, then shift
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    prec = Precision(p, 12, 12)
    n = data.draw(st.integers(0, 12))
    cell = st.builds(lambda u, k: u * p**k, st.integers(0, p**8), st.integers(0, 14))
    cells = data.draw(st.lists(cell, max_size=n))  # missing cells are zeros
    W = data.draw(st.integers(-3, 14))
    offset = data.draw(st.integers(-4, 6))
    caps = data.draw(st.none() | st.lists(st.integers(-4, 18), min_size=n, max_size=n))
    got = Series(prec, unpack_part(p, (-offset, W, cells), n, caps)).a
    padded = cells + [0] * (n - len(cells))
    # a width W <= 0 counts as 0: zeros known to O(p^-offset), or less under a cap
    want = series_from_cells(padded, prec, max(W, 0), caps).shift_val(-offset)
    assert [(c.val, c.unit, c.rel) for c in got] == [(c.val, c.unit, c.rel) for c in want.a]
    none = Series(prec, unpack_part(p, None, n)).a  # an all-exact-zero part
    assert len(none) == n and all(c.is_exact_zero for c in none)


@st.composite
def alpha_inputs(draw, prec):
    """(a, b, form, is_polynomial) of a series with an alpha-part, maybe empty.

    Besides the mix of ``scalars``, one coefficient is at times a zero known
    to less than every other coefficient's valuation.
    """
    n = draw(st.integers(0, prec.x_prec))
    form = (draw(st.integers(0, 2)), draw(st.integers(1, prec.p - 1)))
    a = [draw(scalars(prec)) for _ in range(n)]
    b = [draw(scalars(prec)) for _ in range(n)]
    if n and draw(st.booleans()):
        part = draw(st.sampled_from([a, b]))
        part[draw(st.integers(0, n - 1))] = PadicScalar.inexact_zero(prec, draw(st.integers(-5, -3)))
    return a, b, form, draw(st.booleans())


@st.composite
def alpha_series(draw, prec):
    """A series with an alpha-part, truncated or a polynomial, maybe empty."""
    return Series(prec, *draw(alpha_inputs(prec)))


def triples(scalars):
    return [(c.val, c.unit, c.rel, c.prec) for c in scalars]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_part_maps_act_coefficientwise_on_both_parts(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    prec = Precision(p, 12, 8)
    a, b, form, poly = data.draw(alpha_inputs(prec))
    s = Series(prec, a, b, form, poly)
    # the columns give back the scalars they were packed from
    assert (triples(s.a), triples(s.b), s.form, s.is_polynomial) == (triples(a), triples(b), form, poly)
    d = data.draw(st.integers(-3, 3))
    A = data.draw(st.integers(-2, 10))
    other = prec.with_p_prec(data.draw(st.integers(1, 20)))

    def each(fn, prec=prec):
        return Series(prec, [fn(c) for c in s.a], [fn(c) for c in s.b], s.form, s.is_polynomial)

    for got, want in (
        (-s, each(lambda c: -c)),
        (s.shift_val(d), each(lambda c: c.shift(d))),
        (s.reduce_abs(A), each(lambda c: c.reduce_abs(A))),
        (s.with_p_prec(other.p_prec), each(lambda c: c.with_prec(other), other)),
        (
            s.with_p_prec(other.p_prec).shift_val(d),
            each(lambda c: c.with_prec(other).shift(d), other),
        ),
    ):
        assert triple_shape(got) == triple_shape(want)
        assert got.prec == want.prec
        assert all(c.prec == want.prec for c in got.a + got.b)

    # sums and equality go coefficient by coefficient under the scalar rules,
    # missing coefficients counting as exact zeros
    t_a, t_b, _, t_poly = data.draw(alpha_inputs(prec))
    t = Series(prec, t_a, t_b, form, t_poly)
    known = min(s.known_length, t.known_length)
    L = max(s.length, t.length) if known == float("inf") else known

    def at(part, i):
        return part[i] if i < len(part) else PadicScalar.exact_zero(prec)

    pairs = [(at(s.a, i), at(t.a, i)) for i in range(L)] + [(at(s.b, i), at(t.b, i)) for i in range(L)]
    want = Series(prec, [x + y for x, y in pairs[:L]], [x + y for x, y in pairs[L:]], form, poly and t_poly)
    assert triple_shape(s + t) == triple_shape(want)
    for u, u_pairs in ((t, pairs), (s.reduce_abs(A), [(x, x.reduce_abs(A)) for x in s.a + s.b])):
        assert (s == u) == all(x == y for x, y in u_pairs)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_twist_moves_component_i_to_i_minus_n(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    prec = Precision(p, 10, 6)
    # components shared between slots, as twist's per-series memo sees them
    pool = [data.draw(alpha_series(prec)) for _ in range(2)] + [Series.zero(prec)]
    comps = [data.draw(st.sampled_from(pool)) for _ in range(p - 1)]
    el = IwasawaElement(prec, comps)
    n = data.draw(st.integers(-8, 8).filter(bool))
    rel = el._working_digits() + 4
    un = Fraction(u_for(p)) ** n
    c = PadicScalar.from_fraction(un - 1, prec, rel)
    d = PadicScalar.from_fraction(un, prec, rel)
    want = [None] * (p - 1)
    for i in range(p - 1):
        want[(i - n) % (p - 1)] = comps[i].compose_affine(c, d)
    got = el.twist(n).components
    assert [triple_shape(g) for g in got] == [triple_shape(w) for w in want]


# ------------------------------------ linear combinations against the fold


def fingerprint(s: Series):
    """Everything a Series stores: columns, length, flag, form, alpha-part."""
    parts = tuple(None if x is None else (x.off, x.cells, x.abs_precs) for x in (s._a, s._b))
    return s.prec, s.length, s.is_polynomial, s.form, s._b is not None, parts


def combination_outcome(fn, *args):
    """The fingerprint of the result, or the class and message of the error."""
    try:
        return fingerprint(fn(*args))
    except (ValueError, PrecisionError) as e:
        return type(e), str(e)


@st.composite
def combination_scalars(draw, prec, form):
    """A scalar of any kind the kernel takes, zeros included."""
    p = prec.p
    kind = draw(st.sampled_from(["int", "fraction", "zero", "padic", "quad"]))
    if kind == "int":
        return draw(st.integers(-(p**6), p**6))
    if kind == "fraction":
        den = draw(st.integers(1, 4)) * p ** draw(st.integers(0, 2))
        return Fraction(draw(st.integers(-(p**4), p**4)), den)
    if kind == "zero":
        return draw(st.sampled_from([0, Fraction(0), PadicScalar.exact_zero(prec)]))
    if kind == "padic":
        return draw(scalars(prec, min_val=-3))
    one = QuadExtScalar.one(prec, *form)
    alpha = QuadExtScalar.alpha(prec, *form)
    general = QuadExtScalar(draw(scalars(prec)), draw(scalars(prec)), *form)
    return draw(st.sampled_from([
        one, alpha * alpha, alpha * 2, alpha.inverse(), (alpha * alpha).inverse(),
        QuadExtScalar.zero(prec, *form), general,
    ]))


@st.composite
def combination_series(draw, prec, form):
    """A series with or without alpha-part, jagged, maybe all exact zeros,
    a polynomial or a truncation, at times longer than the X-window."""
    n = draw(st.integers(0, prec.x_prec + 2))
    if draw(st.integers(0, 5)):
        a = [draw(scalars(prec)) for _ in range(n)]
    else:
        a = [PadicScalar.exact_zero(prec)] * n
    b = [draw(scalars(prec)) for _ in range(n)] if draw(st.booleans()) else None
    if b is not None and n and draw(st.booleans()):
        b[draw(st.integers(0, n - 1))] = PadicScalar.inexact_zero(prec, draw(st.integers(-5, -3)))
    s_form = form if b is not None or draw(st.booleans()) else None
    return Series(prec, a, b, s_form, draw(st.booleans()))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_linear_combination_matches_the_fold_of_products_and_sums(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    prec = Precision(p, 12, 8)
    form = (data.draw(st.integers(0, 2)), data.draw(st.integers(1, p - 1)))
    n = data.draw(st.integers(1, 4))  # one term is a plain scalar multiple
    ss = [data.draw(combination_scalars(prec, form)) for _ in range(n)]
    xs = [data.draw(combination_series(prec, form)) for _ in range(n)]
    want = combination_outcome(reference_linear_combination, ss, xs)
    assert combination_outcome(linear_combination, ss, xs) == want
    if n == 1:
        assert combination_outcome(lambda s, x: x * s, ss[0], xs[0]) == want
        assert combination_outcome(lambda s, x: s * x, ss[0], xs[0]) == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_combine_matches_the_fold_of_products_and_sums(data):
    # any pairs of series, one-cell factors on either side among them; at
    # times all polynomials, whose sum is as long as the longest product
    p = data.draw(st.sampled_from([3, 5, 7]))
    prec = Precision(p, 12, 8)
    form = (data.draw(st.integers(0, 2)), data.draw(st.integers(1, p - 1)))
    poly = data.draw(st.booleans())

    def factor():
        x = data.draw(combination_series(prec, form))
        return x._map_parts(lambda part: part, is_polynomial=True) if poly else x

    pairs = [(factor(), factor()) for _ in range(data.draw(st.integers(1, 3)))]

    def fold(pairs):
        acc = None
        for x, y in pairs:
            acc = x * y if acc is None else acc + x * y
        return acc

    assert combination_outcome(combine, pairs) == combination_outcome(fold, pairs)


def test_combine_folds_b_b_terms_with_the_widest_teichmuller_unit():
    # the wider b*b term sits at the lower offset, so a unit known only to
    # the narrower width would move digits below the sum's cap
    prec = Precision(5, 20, 4)
    zero = PadicScalar.exact_zero(prec)
    narrow = Series(prec, [zero], [PadicScalar.from_fraction(3 * 5**5, prec, 2)], (1, 2), True)
    wide = Series(prec, [zero], [PadicScalar.from_fraction(7, prec, 10)], (1, 2), True)
    alpha = Series.constant(QuadExtScalar.alpha(prec, 1, 2), prec)
    want = fingerprint(narrow * alpha + wide * alpha)
    assert fingerprint(combine([(narrow, alpha), (wide, alpha)])) == want


@pytest.mark.parametrize("mixed", ["scalar", "series"])
def test_linear_combination_refuses_mixed_forms_like_the_fold(mixed):
    prec = Precision(5, 12, 8)
    alpha = QuadExtScalar.alpha(prec, 1, 2)
    x = Series(prec, [PadicScalar.from_int(3, prec)], [PadicScalar.from_int(1, prec)], (1, 2))
    if mixed == "scalar":
        ss, xs = (alpha, QuadExtScalar.alpha(prec, 1, 3)), (x, x)
    else:
        other = Series(prec, x._a, x._b, (0, 2))
        ss, xs = (alpha, 2), (x, other)
    want = combination_outcome(reference_linear_combination, ss, xs)
    assert want == (ValueError, "mixing series from different forms")
    assert combination_outcome(linear_combination, ss, xs) == want


def test_a_scalar_over_another_prime_is_refused():
    p5, p7 = Precision(5, 10, 8), Precision(7, 10, 8)
    s = Series.make(p5, [1, 2, 3], is_polynomial=True)
    seven = PadicScalar.from_fraction(7, p7)
    alpha7 = QuadExtScalar.alpha(p7, 1, 1)
    one = PadicScalar.from_int(1, p5)
    for fn in (
        lambda: Series(p5, [seven], is_polynomial=True),
        lambda: Series(p5, [one], [seven], (1, 2)),
        lambda: s * seven,
        lambda: seven * s,
        lambda: s * alpha7,
        lambda: linear_combination((1, seven), (s, s)),
        lambda: IwasawaElement.from_diagonal(s).scale(seven),
        lambda: Series.make(p5, [1, seven]),
        lambda: Series.make(p5, [alpha7]),
    ):
        with pytest.raises(PrecisionError, match=r"a scalar over p = 7 met a series over p = 5"):
            fn()


def test_a_series_over_another_prime_is_refused_by_equality():
    # read as a series over p = 5, the p = 7 series 1 would be 4 mod 5
    s5 = Series.make(Precision(5, 1, 4), [4], is_polynomial=True)
    s7 = Series.make(Precision(7, 1, 4), [1], is_polynomial=True)
    for fn, p, q in ((lambda: s5 == s7, 7, 5), (lambda: s7 == s5, 5, 7)):
        message = f"a series over p = {p} met a series over p = {q}"
        with pytest.raises(PrecisionError, match=message):
            fn()
    # another depth is compared digit for digit
    x10, x20 = (Series.make(Precision(5, n, 4), [4, 5], is_polynomial=True) for n in (10, 20))
    assert x10 == x20 and not x10 == x20 + 1


def test_series_over_other_windows_are_refused_in_both_orders():
    # with x_prec read off the left factor, c * s kept 1 cell and s * c 64
    s = Series.make(Precision(5, 20, 64), range(1, 65))
    c = Series.constant(2, Precision(5, 20))
    for fn in (lambda: c * s, lambda: s * c, lambda: c + s, lambda: s + c,
               lambda: combine([(s, s), (c, c)])):
        with pytest.raises(PrecisionError, match="precision mismatch between series"):
            fn()


def test_an_exact_rational_keeps_the_caps_of_the_series_it_meets():
    # read at p_prec = 10 digits, an exact 2 or 1 capped t's O(5^20) at O(5^10)
    t = Series.make(Precision(5, 10, 4), [1, 2, 3], rel=20, is_polynomial=True)
    for x in (2 * t, t * 2, t + 1, 1 + t, t - Fraction(1, 3), 1 - t):
        assert x._a.abs_precs == [20, 20, 20] and x.is_polynomial
    one_plus = (t + 1).coeff(0)
    assert one_plus == 2 and one_plus.abs_prec == 20
    # as the scalar rule reads it
    assert (PadicScalar.from_int(1, t.prec, 20) * 2).abs_prec == 20


# ------------------------------------------------------ refusals and edges


def _triple(x: PadicScalar):
    return x.val, x.unit, x.rel


_ONE = PadicScalar.from_int(1, P5)
_P5X3 = Precision(5, 10, 3)


@pytest.mark.parametrize("call, exc, fragment", [
    pytest.param(lambda: FiniteCharacter(0, -1), ValueError,
                 "wild_conductor_exponent must be an integer >= 0, not -1", id="wild-exponent"),
    pytest.param(lambda: Series(P5, [_ONE], [_ONE]), ValueError,
                 "a b-part needs form data", id="b-part-without-form"),
    pytest.param(lambda: Series(P5, [_ONE], [_ONE, _ONE], (1, 1)), ValueError,
                 "a/b coefficient arrays must have equal length", id="b-part-length"),
    pytest.param(lambda: Series.make(P5, [QuadExtScalar.alpha(P5, 1, 1),
                                          QuadExtScalar.alpha(P5, 2, 1)]),
                 ValueError, "mixing coefficients from different forms", id="make-forms"),
    pytest.param(lambda: frac_series([1, 2], poly=False).coeff(2), IndexError,
                 "coefficient 2 is beyond the known length 2", id="coeff-past-window"),
    pytest.param(lambda: Series.x(P5) + Series.x(Precision(5, 12, 16)), PrecisionError,
                 "precision mismatch between series", id="p-prec-mismatch"),
    pytest.param(lambda: frac_series([1, 2]).compose_affine(
                     PadicScalar.from_int(5, P5), PadicScalar.inexact_zero(P5, 3)),
                 PrecisionError, "affine composition needs a unit X-coefficient",
                 id="compose-zero-d"),
    pytest.param(lambda: frac_series([1, 2], poly=False).compose_affine(_ONE, _ONE),
                 PrecisionError, "composition with v(c) < 1 would lose all X-adic precision",
                 id="compose-unit-c"),
    pytest.param(lambda: frac_series([1, 2], poly=False).evaluate(_ONE), PrecisionError,
                 "evaluation outside the open unit disc", id="evaluate-unit"),
    pytest.param(lambda: frac_series([1, 2, 3]).remainder_mod(frac_series([5, 1], poly=False)),
                 ValueError, "modulus must be a polynomial over Q_p", id="modulus-truncated"),
    pytest.param(lambda: frac_series([1, 2, 3]).remainder_mod(
                     Series.make(P5, [5, QuadExtScalar.one(P5, 1, 1)], is_polynomial=True)),
                 ValueError, "modulus must be a polynomial over Q_p", id="modulus-alpha-part"),
    pytest.param(lambda: frac_series([1, 2, 3]).remainder_mod(
                     Series.make(P5, [PadicScalar.inexact_zero(P5, 3)], is_polynomial=True)),
                 ValueError, "modulus is zero at this precision", id="modulus-zero"),
    pytest.param(lambda: frac_series([1, 2, 3]).remainder_mod(frac_series([1, 5])),
                 ValueError, "modulus top coefficient must be a unit", id="modulus-top"),
    pytest.param(lambda: frac_series([1, 2, 3]).remainder_mod(frac_series([Fraction(1, 5), 1])),
                 ValueError, "modulus is not distinguished (offset != 0)", id="modulus-offset"),
    pytest.param(lambda: linear_combination((1,), ()), ValueError, "1 scalars for 0 series",
                 id="combination-lengths"),
    pytest.param(lambda: combine(()), ValueError, "combine needs at least one pair",
                 id="combine-empty"),
    pytest.param(lambda: cyclotomic_factor(-1, 0, P5), ValueError, "m must be an integer >= 0, not -1",
                 id="cyclotomic-level"),
    pytest.param(lambda: IwasawaElement(P5, []), ValueError, "need 4 components, got 0",
                 id="component-count"),
    pytest.param(lambda: IwasawaElement(P5, [Series.zero(P5)] * 4, 11), ValueError,
                 "u = 11 is not the generator image 1 + p = 6", id="generator-u"),
    pytest.param(lambda: Series.monomial(-1, P5), ValueError,
                 "n must be an integer >= 0, not -1", id="monomial-degree"),
    pytest.param(lambda: Series.monomial(1.5, P5), ValueError,
                 "n must be an integer >= 0, not 1.5", id="monomial-index"),
    pytest.param(lambda: x_in_component(0).twist(1.5), ValueError,
                 "n must be an integer, not 1.5", id="twist-index"),
    pytest.param(lambda: x_in_component(0).idempotent_project(1.5), ValueError,
                 "j must be an integer, not 1.5", id="project-index"),
    pytest.param(lambda: IwasawaElement.from_component(1.5, Series.x(P5)), ValueError,
                 "i must be an integer, not 1.5", id="component-index"),
    pytest.param(lambda: x_in_component(0).remainder_mod_cyclotomic(1.0, 0), ValueError,
                 "m must be an integer >= 0, not 1.0", id="remainder-level"),
    pytest.param(lambda: x_in_component(0).remainder_mod_cyclotomic(1, 0.5), ValueError,
                 "j must be an integer, not 0.5", id="remainder-twist"),
    pytest.param(lambda: cyclotomic_factor(1, 0.5, P5), ValueError,
                 "j must be an integer, not 0.5", id="cyclotomic-twist"),
    pytest.param(lambda: FiniteCharacter(0.5), ValueError,
                 "tame_exponent must be an integer, not 0.5", id="character-tame"),
    pytest.param(lambda: FiniteCharacter(0, 1.0), ValueError,
                 "wild_conductor_exponent must be an integer >= 0, not 1.0", id="character-wild"),
    pytest.param(lambda: FiniteCharacter(0, 0, 2.5), ValueError,
                 "cyclotomic_twist must be an integer, not 2.5", id="character-twist"),
    pytest.param(lambda: divide_series(Series.constant(1, P5), Series(
                     P5, [PadicScalar(P5, 0, 1, 1), PadicScalar.inexact_zero(P5, 0)],
                     is_polynomial=True)),
                 PrecisionError, "the divisor's Weierstrass degree is not determined",
                 id="weierstrass-width"),
    pytest.param(lambda: divide_series(Series.constant(1, _P5X3), Series.make(
                     _P5X3, [1, QuadExtScalar.alpha(_P5X3, 1, 1), 1], is_polynomial=True)),
                 PrecisionError, "the divisor's norm G*conj(G) does not fit in the X-window",
                 id="norm-window"),
    pytest.param(lambda: divide_series(frac_series([1]), Series.zero(P5)), DivisibilityError,
                 "divisor is zero at this precision", id="zero-divisor"),
])
def test_named_errors(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        call()
    assert info.type is exc


def test_kernel_powers_refuse_a_negative_exponent_and_start_from_one():
    with pytest.raises(ValueError, match="negative exponent"):
        polypow([1, 1], -1, 25)
    assert polypow([3, 1], 0, 25, 4) == [1]
    # Y = 0: every product 1 * Y is the empty list, read as 0
    assert geometric_sum([], 5, 25) == [1]


def test_one_column_linear_factor_is_its_truncated_constant_term():
    prec = Precision(5, 6, 1)
    s = cyclotomic_factor(0, 2, prec)
    assert not s.is_polynomial and s.length == 1
    assert _triple(s.coeff(0)) == _triple(PadicScalar.from_fraction(Fraction(1, 36) - 1, prec))


def test_evaluate_caps_both_coordinates_of_a_truncated_alpha_series():
    prec = Precision(5, 12, 4)
    alpha = QuadExtScalar.alpha(prec, 1, 1)
    q0 = alpha * Fraction(1, 5) + 2
    q1 = alpha + 3
    s = Series.make(prec, [q0, q1])
    x = PadicScalar.from_int(5, prec)
    got = s.evaluate(x)
    # Horner, then the tail's bound: cap L v(x) = 2, moved by each part's offset
    want = q1 * x + q0
    assert s._b.off == -1
    assert _triple(got.a) == _triple(want.a.reduce_abs(2))
    assert _triple(got.b) == _triple(want.b.reduce_abs(1))
    assert (got.k, got.eps_seed) == (1, 1)


def test_whole_range_slice_is_the_part_itself():
    x = frac_series([3, 1, 4, 1, 5])._a
    assert x.slice(0, len(x)) is x
    # any other range is a new part, normalized
    y = x.slice(1, len(x))
    assert y is not x and (y.off, y.cells, y.abs_precs) == (x.off, x.cells[1:], x.abs_precs[1:])


def test_edges_of_empty_and_exact_zero_parts():
    x = PadicScalar.from_int(5, P5)
    assert Series.zero(P5).evaluate(x).is_exact_zero
    z = Series.zero(P5, form=(1, 2)).evaluate(x)
    assert isinstance(z, QuadExtScalar) and z.is_exact_zero and (z.k, z.eps_seed) == (1, 2)
    # an empty truncation knows only the tail cap at L = 0, and the disc
    # still bounds x, as for any truncated series
    for F in (Series(P5, ()), Series(P5, (), (), (1, 2))):
        got = F.evaluate(x)
        for part in (got,) if F.form is None else (got.a, got.b):
            assert part.is_zero_to_precision and not part.is_exact_zero and part.abs_prec == 0
        with pytest.raises(PrecisionError, match="open unit disc"):
            F.evaluate(_ONE)
    # divide_series returns one when the shared window ends at the divisor's order
    prec = Precision(5, 10, 4)
    q = divide_series(Series.make(prec, [0, 0, 0, 0]), Series.monomial(4, prec))
    assert q.length == 0 and not q.is_polynomial
    assert q.evaluate(PadicScalar.from_int(5, prec)).abs_prec == 0
    # an all-exact part passes through affine composition untouched
    s = frac_series([0, 0, 0])
    out = s.compose_affine(x, _ONE)
    assert out.is_polynomial and all(c.is_exact_zero for c in out.a)
    # a top coefficient that is an exact zero does not count toward the degree
    f = frac_series([3, 1, 4, 1, 5])
    r3, r2 = f.remainder_mod(frac_series([5, 1, 0])), f.remainder_mod(frac_series([5, 1]))
    assert [_triple(c) for c in r3.a] == [_triple(c) for c in r2.a]
    assert r3.length == 1


def test_zero_dividend_by_a_divisor_with_open_disc_zeros_is_exact_zero():
    # nothing to solve for in the monic quotient: the dividend is shorter
    # than the divisor's distinguished factor X - 5
    q = divide_series(Series.zero(P5), frac_series([-5, 1]))
    assert q.length == P5.x_prec
    assert all(c.is_exact_zero for c in q.a)
