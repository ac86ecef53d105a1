"""Series arithmetic, cyclotomic factors, and the Iwasawa algebra layer."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwa._kernel import cyclotomic_cells, geometric_sum, polymul, polypow
from iwa.scalars import PadicScalar, Precision, PrecisionError, QuadExtScalar
from iwa.series import (
    DivisibilityError,
    FiniteCharacter,
    IwasawaElement,
    Series,
    _back_substitute,
    cyclotomic_factor,
    divide_series,
    linear_combination,
    u_for,
    unpack_part,
)

from oracles import (
    back_substitute_scalars,
    log1plus_coeffs,
    phi_ppow_coeffs,
    poly_compose_affine,
    poly_mul,
    reference_divide,
    reference_linear_combination,
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
        cv, dv = Fraction(5 * rng.randrange(1, 9)), Fraction(rng.choice([1, 2, 3, 6, 11]))
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
    """(A, B, mod, trunc): sparse and empty operands, entries outside [0, mod)."""
    mod = draw(st.sampled_from([1, 2, 3, 5**3, 7**9, 2**64 + 13, 3**80]))
    # zeros are frequent, so the packed operands have runs of empty chunks
    entry = st.sampled_from([0, 0, 1, mod - 1, mod, -1]) | st.integers(-3 * mod, 3 * mod)
    A = draw(st.lists(entry, max_size=12))
    B = draw(st.lists(entry, max_size=12))
    trunc = draw(st.none() | st.integers(0, len(A) + len(B) + 3))
    return A, B, mod, trunc


@settings(max_examples=400, deadline=None)
@given(polymul_cases())
def test_polymul_matches_schoolbook_convolution(case):
    A, B, mod, trunc = case
    assert polymul(A, B, mod, trunc) == schoolbook(A, B, mod, trunc)


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


# ------------------------------------------------------ refusals and edges


def _triple(x: PadicScalar):
    return x.val, x.unit, x.rel


_ONE = PadicScalar.from_int(1, P5)
_P5X3 = Precision(5, 10, 3)


@pytest.mark.parametrize("call, exc, fragment", [
    pytest.param(lambda: FiniteCharacter(0, -1), ValueError,
                 "wild conductor exponent must be >= 0", id="wild-exponent"),
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
    pytest.param(lambda: cyclotomic_factor(-1, 0, P5), ValueError, "m must be >= 0",
                 id="cyclotomic-level"),
    pytest.param(lambda: IwasawaElement(P5, []), ValueError, "need 4 components, got 0",
                 id="component-count"),
    pytest.param(lambda: IwasawaElement.zero(P5, u=11) + IwasawaElement.zero(P5),
                 PrecisionError, "mismatched cyclotomic generator images", id="generator-u"),
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


def test_edges_of_empty_and_exact_zero_parts():
    x = PadicScalar.from_int(5, P5)
    assert Series.zero(P5).evaluate(x).is_exact_zero
    z = Series.zero(P5, form=(1, 2)).evaluate(x)
    assert isinstance(z, QuadExtScalar) and z.is_exact_zero and (z.k, z.eps_seed) == (1, 2)
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
