"""Scalar layer: precision bookkeeping, Teichmuller lifts, the quadratic extension."""

from __future__ import annotations

import re
from fractions import Fraction
from math import inf
from time import perf_counter

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iwa.scalars import (
    _MR_BOUND,
    ExactZeroError,
    PadicScalar,
    Precision,
    PrecisionError,
    QuadExtScalar,
    _is_prime,
    _vp,
    alpha_from_form,
    teichmuller,
)
from iwa.dieudonne import dcris_of_form
from iwa.pollack import log_p_unit

P5 = Precision(5, 20)


def test_precision_rejects_bad_p():
    with pytest.raises(ValueError):
        Precision(4, 10)
    with pytest.raises(ValueError):
        Precision(2, 10)
    with pytest.raises(ValueError):
        Precision(5, 0)


def _accepts(p) -> bool:
    try:
        Precision(p, 1)
    except ValueError:
        return False
    return True


def _timed(fn, *args) -> float:
    start = perf_counter()
    assert fn(*args)
    return perf_counter() - start


def test_precision_accepts_exactly_the_odd_primes():
    small = range(10**5)
    assert {p for p in small if _accepts(p)} == {p for p in small if p != 2 and sympy.isprime(p)}
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
    # strong pseudoprimes to every prime base up to 23 and up to 37
    pseudoprimes = [3825123056546413051, 318665857834031151167461]
    for n in carmichael + pseudoprimes + [2**61 - 1, 10**18 + 9, 2**64 + 13, -7]:
        assert _accepts(n) == sympy.isprime(n), n


def test_precision_refuses_non_int_p():
    for p in (5.0, True, "5", Fraction(5), None):
        with pytest.raises(ValueError, match="p must be an int"):
            Precision(p, 10)


def test_precision_refuses_p_past_the_deterministic_bound():
    bound = _MR_BOUND
    assert _accepts(bound - 2) == sympy.isprime(bound - 2)
    # the bound is the least strong pseudoprime to all 13 bases: there the
    # test itself errs, which is why p from it on is refused
    assert _is_prime.__wrapped__(bound) and not sympy.isprime(bound)
    with pytest.raises(ValueError, match="deterministic"):
        Precision(bound, 10)
    with pytest.raises(ValueError, match="deterministic"):
        Precision(2**127 - 1, 10)


def test_large_primes_are_accepted_quickly():
    # trial division would take minutes here; the bound leaves a slow host
    # a wide margin over the sub-millisecond Miller-Rabin test
    test = _is_prime.__wrapped__
    best = min(_timed(test, 2**61 - 1) for _ in range(3))
    assert best < 0.01


# ---------------------------------------------------------------- PadicScalar


def test_from_int_normalizes():
    x = PadicScalar.from_int(50, P5)
    assert x.val == 2 and x.unit == 2 and x.rel == 20


def test_from_int_zero_is_exact():
    z = PadicScalar.from_int(0, P5)
    assert z.is_exact_zero and z.is_zero_to_precision


def test_exact_zero_valuation_raises():
    z = PadicScalar.exact_zero(P5)
    with pytest.raises(ExactZeroError):
        z.valuation()


def test_inexact_zero_valuation_is_the_bound():
    z = PadicScalar.inexact_zero(P5, 7)
    assert z.is_zero_to_precision and not z.is_exact_zero
    assert z.valuation() == 7


def test_from_fraction():
    x = PadicScalar.from_fraction(Fraction(1, 2), P5)
    assert x.val == 0 and x.rel == 20
    assert (x + x).lift() % 5**20 == 1
    y = PadicScalar.from_fraction(Fraction(3, 25), P5)
    assert y.val == -2


def test_add_minimum_absolute_precision():
    x = PadicScalar.from_int(1, P5, rel=20)           # known mod 5^20
    y = PadicScalar.from_int(25, P5, rel=20)          # known mod 5^22
    s = x + y
    assert s.val == 0 and s.rel == 20 and s.abs_prec == 20
    assert s.unit == 26


def test_add_cancellation_leaves_inexact_zero():
    x = PadicScalar.from_int(7, P5, rel=20)
    d = x + (-x)
    assert d.is_zero_to_precision and not d.is_exact_zero
    assert d.abs_prec == 20


def test_partial_cancellation_drops_relative_precision():
    x = PadicScalar.from_int(1, P5, rel=10)
    y = PadicScalar.from_int(5**4 - 1, P5, rel=10)
    s = x + y  # = 5^4 exactly, but each input only known mod 5^10
    assert s.val == 4 and s.rel == 6 and s.abs_prec == 10


def test_mul_adds_valuations_keeps_min_rel():
    x = PadicScalar.from_unit_val(P5, 3, 2, rel=8)
    y = PadicScalar.from_unit_val(P5, 4, -1, rel=12)
    z = x * y
    assert z.val == 1 and z.rel == 8 and z.unit == 12


def test_mul_by_inexact_zero():
    z = PadicScalar.inexact_zero(P5, 6)
    x = PadicScalar.from_unit_val(P5, 2, 3, rel=10)
    w = z * x
    assert w.is_zero_to_precision and w.abs_prec == 9  # O(5^6) * 2*5^3


def test_mul_by_exact_zero():
    assert (PadicScalar.exact_zero(P5) * PadicScalar.from_int(9, P5)).is_exact_zero


def test_division():
    x = PadicScalar.from_int(6, P5)
    y = PadicScalar.from_int(2, P5)
    assert (x / y) == PadicScalar.from_int(3, P5)
    with pytest.raises(ExactZeroError):
        x / PadicScalar.exact_zero(P5)
    with pytest.raises(PrecisionError):
        x / PadicScalar.inexact_zero(P5, 4)


def test_int_coercion_does_not_cap_precision():
    x = PadicScalar.from_unit_val(P5, 1, 30, rel=20)  # abs prec 50 > default target
    s = x + 1
    assert s.val == 0 and s.abs_prec == 50


def test_equality_is_at_shared_precision():
    x = PadicScalar.from_int(1, P5, rel=5)
    y = PadicScalar.from_int(1 + 5**5, P5, rel=20)
    assert x == y                       # indistinguishable mod 5^5
    z = PadicScalar.from_int(1 + 5**3, P5, rel=20)
    assert x != z
    assert PadicScalar.inexact_zero(P5, 4) == PadicScalar.from_int(5**4, P5)


def test_reduce_abs():
    x = PadicScalar.from_int(1 + 5**3, P5, rel=20)
    r = x.reduce_abs(3)
    assert r.unit == 1 and r.rel == 3
    assert x.reduce_abs(25) is x


def test_pow_negative():
    x = PadicScalar.from_int(10, P5)
    assert (x ** -2) * (x * x) == 1


# [PAPER] teichmuller(2) at p=5 to 3 digits is 57: 57 = 2 + 5 + 2*25, 57^4 = 1 mod 125
def test_teichmuller_of_2_mod_125():
    t = teichmuller(2, Precision(5, 3))
    assert t.val == 0 and t.unit == 57 and t.rel == 3


def test_teichmuller_of_minus_one_is_p_to_M_minus_one():
    for M in (1, 5, 20):
        prec = Precision(5, M)
        t = teichmuller(5 - 1, prec)
        assert t.unit == 5**M - 1
    t7 = teichmuller(-1, Precision(7, 10))
    assert t7.unit == 7**10 - 1


def test_teichmuller_of_multiple_of_p():
    assert teichmuller(10, P5).is_exact_zero


# ---------------------------------------------------------------- QuadExtScalar


def test_alpha_squared_is_minus_eps_p_to_kplus1():
    # p = 5, k = 2, eps = 1: alpha^2 = -125
    prec = Precision(5, 20)
    al = QuadExtScalar.alpha(prec, 2, 1)
    sq = al * al
    assert sq.b.is_zero_to_precision
    assert sq.a == PadicScalar.from_int(-125, prec)


def test_one_plus_alpha_times_one_minus_alpha():
    # (1 + alpha)(1 - alpha) = 1 - alpha^2 = 126 at p=5, k=2, eps=1
    prec = Precision(5, 20)
    al = QuadExtScalar.alpha(prec, 2, 1)
    one = QuadExtScalar.one(prec, 2, 1)
    prod = (one + al) * (one - al)
    assert prod.b.is_zero_to_precision
    assert prod.a == PadicScalar.from_int(126, prec)


def test_alpha_from_form_spec_case():
    # eps_p = -1, k = 0: alpha^2 = +5
    al = alpha_from_form(5, 0, -1, Precision(5, 20))
    sq = al * al
    assert sq.a == PadicScalar.from_int(5, Precision(5, 20))
    assert al.valuation() == Fraction(1, 2)


def test_quadext_valuation_mixes_halves():
    prec = Precision(5, 20)
    x = QuadExtScalar.from_parts(
        PadicScalar.from_int(25, prec), PadicScalar.from_int(25, prec), 2, 1
    )
    # v(25) = 2, v(25 alpha) = 2 + 3/2: min is 2
    assert x.valuation() == 2
    y = QuadExtScalar.from_parts(
        PadicScalar.from_int(125, prec), PadicScalar.from_int(5, prec), 2, 1
    )
    assert y.valuation() == Fraction(5, 2)


def test_quadext_inverse_roundtrip():
    prec = Precision(5, 20)
    x = QuadExtScalar.from_parts(
        PadicScalar.from_int(7, prec), PadicScalar.from_int(3, prec), 1, 2
    )
    prod = x * x.inverse()
    assert prod == QuadExtScalar.one(prec, 1, 2)


def test_quadext_mixed_form_rejected():
    prec = Precision(5, 20)
    x = QuadExtScalar.one(prec, 1, 1)
    y = QuadExtScalar.one(prec, 2, 1)
    with pytest.raises(ValueError):
        x * y


def test_quadext_exact_zero_valuation_raises():
    with pytest.raises(ExactZeroError):
        QuadExtScalar.zero(P5, 0, 1).valuation()


def test_an_operand_over_another_prime_is_refused():
    # read as 5-adic, the 7 of a 7-adic 7 would make 3 * 7 = 3 * 5^1 + O(5^11)
    p5, p7 = Precision(5, 10), Precision(7, 10)
    three, seven = PadicScalar.from_int(3, p5), PadicScalar.from_int(7, p7)
    qa, qb = QuadExtScalar.alpha(p5, 1, 1), QuadExtScalar.alpha(p7, 1, 1)
    ops = (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
           lambda x, y: x / y, lambda x, y: x == y)
    # a QuadExtScalar meets the other operand through its parts, in either order
    message = "a scalar over p = (7 met a scalar over p = 5|5 met a scalar over p = 7)"
    for x, y in ((three, seven), (qa, qb), (qa, seven)):
        for op in ops:
            for a, b in ((x, y), (y, x)):
                with pytest.raises(PrecisionError, match=message):
                    op(a, b)
    assert three * 7 == PadicScalar.from_int(21, p5)


# ---------------------------------------------------------------- properties

units = st.integers(min_value=1, max_value=5**12 - 1).filter(lambda n: n % 5 != 0)
vals = st.integers(min_value=-6, max_value=6)
rels = st.integers(min_value=1, max_value=12)


@st.composite
def scalars(draw):
    return PadicScalar.from_unit_val(P5, draw(units), draw(vals), draw(rels))


@given(scalars(), scalars(), scalars())
@settings(max_examples=150)
def test_ring_axioms_at_shared_precision(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(scalars(), scalars())
@settings(max_examples=150)
def test_add_abs_precision_is_min(x, y):
    s = x + y
    assert s.abs_prec == min(x.abs_prec, y.abs_prec)


@given(scalars(), scalars())
@settings(max_examples=150)
def test_mul_precision_rule(x, y):
    z = x * y
    assert z.val == x.val + y.val or z.is_zero_to_precision
    if not z.is_zero_to_precision:
        assert z.rel == min(x.rel, y.rel)
        assert z.unit % 5 != 0 and 0 < z.unit < 5**z.rel


@given(scalars(), scalars())
@settings(max_examples=150)
def test_division_roundtrip(x, y):
    assert (x / y) * y == x


@given(scalars())
@settings(max_examples=100)
def test_lift_reduces_back(x):
    y = PadicScalar.from_fraction(x.lift(), P5, rel=x.rel)
    assert y.val == x.val and y.unit == x.unit


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=18))
@settings(max_examples=60)
def test_teichmuller_is_root_of_unity(a, M):
    prec = Precision(5, M)
    t = teichmuller(a, prec)
    assert t ** 4 == PadicScalar.from_int(1, prec, rel=M)
    assert t.unit % 5 == a % 5


@st.composite
def quads(draw):
    a = PadicScalar.from_unit_val(P5, draw(units), draw(vals), draw(rels))
    b = PadicScalar.from_unit_val(P5, draw(units), draw(vals), draw(rels))
    return QuadExtScalar.from_parts(a, b, 1, draw(st.sampled_from([1, 2, 3, 4])))


@given(quads(), quads())
@settings(max_examples=100)
def test_quadext_norm_is_multiplicative(x, y):
    y = QuadExtScalar.from_parts(y.a, y.b, x.k, x.eps_seed)
    assert (x * y).norm() == x.norm() * y.norm()


@given(quads())
@settings(max_examples=100)
def test_quadext_division_roundtrip(x):
    try:
        inv = x.inverse()
    except PrecisionError:
        # the norm can land on an inexact zero at low working precision;
        # refusing to divide is the contract, not a bug
        assume(False)
    one = QuadExtScalar.one(P5, x.k, x.eps_seed, rel=30)
    assert x * inv == one


# ------------------------------------------------------ refusals and edges


def _triple(x: PadicScalar):
    return x.val, x.unit, x.rel


_A = PadicScalar.from_int(2, P5)
_O3 = PadicScalar.inexact_zero(P5, 3)


@pytest.mark.parametrize("call, exc, fragment", [
    pytest.param(lambda: _vp(0, 5), ValueError, "valuation of 0", id="vp-of-zero"),
    pytest.param(lambda: Precision(5, 10, 0), ValueError, "x_prec must be an integer >= 1, not 0", id="x-prec"),
    pytest.param(lambda: _A.with_prec(Precision(7, 20)), ValueError,
                 "cannot move a scalar to a different prime", id="with-prec-prime"),
    pytest.param(lambda: QuadExtScalar(_A, _A, 1, 5), ValueError,
                 "eps must be a unit (seed coprime to p)", id="eps-seed"),
    pytest.param(lambda: QuadExtScalar(_A, _A, -1, 1), ValueError,
                 "weight parameter k must be an integer >= 0, not -1", id="weight"),
    pytest.param(lambda: QuadExtScalar.zero(P5, 1, 1).inverse(), ExactZeroError,
                 "division by exact zero", id="quad-inverse-exact-zero"),
    pytest.param(lambda: QuadExtScalar(_O3, _O3, 1, 1).inverse(), PrecisionError,
                 "division by zero-to-precision", id="quad-inverse-inexact-zero"),
    pytest.param(lambda: alpha_from_form(5, 1, 1, Precision(7, 10)), ValueError,
                 "prec.p does not match p", id="alpha-prime"),
    pytest.param(lambda: Precision(5, 1.5, 8), ValueError,
                 "p_prec must be an integer >= 1, not 1.5", id="p-prec-float"),
    pytest.param(lambda: Precision(5, True, 8), ValueError,
                 "p_prec must be an integer >= 1, not True", id="p-prec-bool"),
    pytest.param(lambda: Precision(5, 10, 2.5), ValueError,
                 "x_prec must be an integer >= 1, not 2.5", id="x-prec-float"),
    pytest.param(lambda: Precision(5, 10, False), ValueError,
                 "x_prec must be an integer >= 1, not False", id="x-prec-bool"),
    pytest.param(lambda: QuadExtScalar(_A, _A, 1.5, 1), ValueError,
                 "weight parameter k must be an integer >= 0, not 1.5", id="weight-float"),
    pytest.param(lambda: alpha_from_form(5, 1.5, 1), ValueError,
                 "weight parameter k must be an integer >= 0, not 1.5", id="alpha-weight-float"),
    pytest.param(lambda: dcris_of_form(5, 1.5, 1), ValueError,
                 "weight parameter k must be an integer >= 0, not 1.5", id="dcris-weight-float"),
    pytest.param(lambda: log_p_unit(5, 5, 1.5, P5), ValueError,
                 "rel must be an integer >= 0, not 1.5", id="rel-float"),
    pytest.param(lambda: teichmuller(2, P5, -1), ValueError,
                 "rel must be an integer >= 0, not -1", id="teichmuller-rel"),
    pytest.param(lambda: teichmuller(2, P5, 1.5), ValueError,
                 "rel must be an integer >= 0, not 1.5",
                 id="teichmuller-rel-float"),
])
def test_named_errors(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        call()
    assert info.type is exc


def test_scalar_edges():
    assert PadicScalar.exact_zero(P5).abs_prec == inf
    assert PadicScalar.from_unit_val(P5, 0, 3).is_exact_zero
    assert _A.with_prec(P5) is _A
    # relabelling keeps every digit of both coordinates
    q = QuadExtScalar(_A, PadicScalar.from_unit_val(P5, 3, 1, rel=4), 1, 2)
    p30 = Precision(5, 30)
    moved = q.with_prec(p30)
    assert moved.prec == p30 and moved.b.prec == p30
    assert (_triple(moved.a), _triple(moved.b)) == (_triple(q.a), _triple(q.b))
    assert (moved.k, moved.eps_seed) == (1, 2)
    # a negative power is the power of the inverse
    for x in (q, QuadExtScalar.alpha(P5, 1, 1)):
        got, want = x ** -2, x.inverse() ** 2
        assert (_triple(got.a), _triple(got.b)) == (_triple(want.a), _triple(want.b))
    alpha = alpha_from_form(5, 1, 1)
    assert alpha.prec == Precision(5, 20) and (alpha.k, alpha.eps_seed) == (1, 1)
