"""Growth norms, order estimation, and exact division of distributions."""

from __future__ import annotations

from fractions import Fraction

import re

import pytest

from iwa.distributions import (
    Distribution,
    _certify_factors,
    divide_exact,
    growth_order,
    least_squares_slope,
    rho_norm,
)
from iwa.scalars import PadicScalar, Precision, PrecisionError, QuadExtScalar
from iwa.series import DivisibilityError, IwasawaElement, Series

from oracles import log1plus_coeffs, padic_unit_val, rho_norm_scan

P5 = Precision(5, 20, 16)


def diag(coeffs, prec=P5, poly=True, rel=None, order=0):
    body = IwasawaElement.from_diagonal(
        Series.make(prec, [Fraction(c) for c in coeffs], rel=rel, is_polynomial=poly)
    )
    return Distribution(body, Fraction(order))


def log_body(prec, n_terms=None):
    n = n_terms if n_terms is not None else prec.x_prec
    return Distribution(
        IwasawaElement.from_diagonal(
            Series.make(
                prec, log1plus_coeffs(n), rel=prec.p_prec + 6, is_polynomial=False
            )
        ),
        Fraction(1),
    )


# ------------------------------------------------------------------ rho_norm


def test_rho_norm_of_x_level_one():
    assert rho_norm(diag([0, 1]), 1) == Fraction(1, 4)


def test_rho_norm_of_p_times_one():
    F = diag([5])
    for m in (1, 2, 5):
        assert rho_norm(F, m) == 1


def test_rho_norm_of_zero_errors():
    Z = Distribution(IwasawaElement.zero(P5))
    with pytest.raises(ValueError):
        rho_norm(Z, 1)


def test_rho_norm_log_matches_coefficient_scan():
    prec = Precision(5, 30, 130)
    F = log_body(prec)
    vals = [None] + [
        padic_unit_val(c, 5)[0] for c in log1plus_coeffs(prec.x_prec)[1:]
    ]
    for m in (1, 2, 3):
        assert rho_norm(F, m) == rho_norm_scan(vals, 5, m)


def test_rho_norm_minimises_over_components():
    comps = [Series.constant(25, P5) for _ in range(4)]
    comps[2] = Series.constant(5, P5)
    F = Distribution(IwasawaElement(P5, comps))
    assert rho_norm(F, 1) == 1


def test_rho_norm_sees_half_integral_valuations():
    prec = Precision(5, 20, 8)
    al = QuadExtScalar.alpha(prec, 0, 1)  # valuation 1/2
    body = IwasawaElement.from_diagonal(
        Series.make(prec, [al], is_polynomial=True)
    )
    assert rho_norm(Distribution(body), 1) == Fraction(1, 2)


def test_rho_norm_submultiplicative_on_random_inputs():
    import random

    rng = random.Random(11)
    for _ in range(20):
        F = diag([rng.randrange(-50, 50) for _ in range(5)], rel=30)
        G = diag([rng.randrange(-50, 50) for _ in range(5)], rel=30)
        try:
            nF, nG = rho_norm(F, 2), rho_norm(G, 2)
        except ValueError:
            continue
        assert rho_norm(F * G, 2) >= nF + nG


# --------------------------------------------------------------- growth_order


def test_least_squares_slope_exact():
    assert least_squares_slope([1, 2, 3], [2, 4, 6]) == 2
    assert least_squares_slope([1, 2, 3, 4], [1, 1, 1, 1]) == 0


def test_growth_order_of_constant_is_zero():
    prec = Precision(5, 20, 30)
    F = Distribution(IwasawaElement.one(prec))
    assert growth_order(F, 3) == 0


def test_growth_order_of_bounded_element_is_small():
    prec = Precision(5, 20, 30)
    F = diag([1, 7, 3, 0, 2], prec=prec)
    assert abs(growth_order(F, 3)) <= Fraction(1, 4)


def test_growth_order_of_log_is_one():
    prec = Precision(5, 40, 130)
    F = log_body(prec)
    est = growth_order(F, 3)
    assert abs(est - 1) <= Fraction(1, 4)


def test_growth_order_depth_needs_window():
    prec = Precision(5, 20, 30)  # 30 < 5^2
    F = diag([1, 1] * 10, prec=prec, poly=False)  # truncated at X^20
    with pytest.raises(PrecisionError):
        growth_order(F, 3)
    with pytest.raises(ValueError):
        growth_order(F, 1)


# --------------------------------------------------------------- divide_exact


def test_divide_by_x_roundtrip():
    G = diag([3, 1, 4, 1, 5], order=1)
    X = diag([0, 1])
    Q = divide_exact(Distribution(X.body * G.body, Fraction(1)), X)
    assert Q.body == G.body
    assert Q.order_tag == 1


def test_divide_one_by_x_fails():
    one = diag([1])
    X = diag([0, 1])
    with pytest.raises(DivisibilityError) as ei:
        divide_exact(one, X)
    assert ei.value.degree == 0
    assert ei.value.component is not None


def test_divide_names_component_and_degree_of_a_missed_zero():
    # u^-1(1+X) - 1 vanishes at X = p; the constant 1 does not
    u = Fraction(6)
    one = diag([1])
    G = diag([1 / u - 1, 1 / u])
    with pytest.raises(DivisibilityError) as ei:
        divide_exact(one, G)
    assert ei.value.degree == 0
    assert ei.value.component == 0
    assert ei.value.payload()["component"] == 0


def test_divide_order_tag_clamps_at_zero():
    G = diag([1, 1], order=2)
    F = Distribution(G.body * G.body, Fraction(1))
    Q = divide_exact(F, G)
    assert Q.order_tag == 0


def test_divide_roundtrip_random_unit_leading():
    import random

    rng = random.Random(23)
    for _ in range(25):
        F = diag([rng.randrange(-9, 9) for _ in range(4)], rel=30)
        G = diag(
            [rng.choice([1, 2, 3, 4, 6])] + [rng.randrange(-9, 9) for _ in range(3)],
            rel=30,
        )
        got = divide_exact(F * G, G)
        assert got.body == F.body


def test_divide_zero_component_against_zero_component():
    # divisor supported on one tame component; dividend likewise
    f = Series.make(P5, [Fraction(2), Fraction(1)], rel=25, is_polynomial=True)
    g = Series.make(P5, [Fraction(1), Fraction(3)], rel=25, is_polynomial=True)
    F = Distribution(IwasawaElement.from_component(2, f * g))
    G = Distribution(IwasawaElement.from_component(2, g))
    Q = divide_exact(F, G)
    assert Q.body == IwasawaElement.from_component(2, f)


def test_divide_mismatched_support_fails():
    F = Distribution(IwasawaElement.from_component(1, Series.x(P5)))
    G = Distribution(IwasawaElement.from_component(2, Series.x(P5)))
    with pytest.raises(DivisibilityError) as ei:
        divide_exact(F, G)
    assert ei.value.component == 1


def test_certificate_failure_names_factor():
    from iwa.series import cyclotomic_factor

    prec = Precision(5, 20, 24)
    phi = cyclotomic_factor(1, 0, prec, rel=24)
    good = Series.make(prec, [1, 2, 0, 1], rel=24, is_polynomial=True)
    G = Distribution(
        IwasawaElement.from_diagonal(phi * good), cyclo_factors=((1, 0),)
    )
    bad = Distribution(IwasawaElement.one(prec))  # 1 is not divisible by Phi_5
    with pytest.raises(DivisibilityError) as ei:
        divide_exact(bad, G)
    assert ei.value.factor == (1, 0)
    payload = ei.value.payload()
    assert payload["factor"] == {"m": 1, "j": 0}


def test_certificate_skipped_when_factor_does_not_fit():
    prec = Precision(5, 12, 8)
    # claimed factor of degree 20 cannot be checked in a window of 8
    G = diag([1, 1], prec=prec)
    G = Distribution(G.body, cyclo_factors=((2, 0),))
    F = Distribution(G.body * G.body)
    assert divide_exact(F, G).body == G.body


def test_product_merges_certificates():
    A = Distribution(IwasawaElement.one(P5), Fraction(1, 2), ((2, 0),), 6)
    B = Distribution(IwasawaElement.one(P5), Fraction(1, 2), ((1, 0), (2, 0)), 8)
    C = A * B
    assert C.order_tag == 1
    assert C.cyclo_factors == ((2, 0), (1, 0))
    assert C.truncation_level == 6


def test_twist_relabels_certificates():
    A = Distribution(
        IwasawaElement.from_diagonal(Series.constant(1, P5)),
        Fraction(1),
        ((2, 1), (4, 1)),
    )
    assert A.twist(-1).cyclo_factors == ((2, 2), (4, 2))


def test_attained_reports_window_and_digits():
    F = diag([1, 1, 1], rel=12)
    M, N = F.attained()
    assert M == 12 and N == 3


# ------------------------------------------------------ refusals and edges


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: diag([1], order=-1), "growth order claim must be nonnegative",
                 id="negative-order"),
    pytest.param(lambda: rho_norm(diag([1, 2]), 0), "level m must be >= 1", id="rho-level"),
    pytest.param(lambda: least_squares_slope([1], [1]), "need at least two matched points",
                 id="one-point"),
    pytest.param(lambda: least_squares_slope([1, 1], [1, 2]), "degenerate abscissae",
                 id="equal-abscissae"),
])
def test_named_errors(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)) as info:
        call()
    assert info.type is ValueError


def test_certificate_skips_a_component_shorter_than_its_factor():
    # Phi_5 has degree 4; a truncated dividend of length 3 determines none of
    # its remainder, so the certificate is skipped, not failed
    F = diag([1, 2, 3], poly=False)
    G = Distribution(diag([1]).body, cyclo_factors=((1, 0),))
    with pytest.raises(PrecisionError, match="does not determine"):
        F.body.remainder_mod_cyclotomic(1, 0)
    assert _certify_factors(F, G) is None
    # the same factor on a window that determines the remainder does fail
    with pytest.raises(DivisibilityError, match="cyclotomic certificate at level 1"):
        _certify_factors(diag([1] + [0] * 15, poly=False), G)


def test_relabel_at_the_same_depth_is_the_identity():
    F = diag([1, 2])
    assert F.with_p_prec(F.prec.p_prec) is F
