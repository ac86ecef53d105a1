"""Golden SHA-256 digests of the library's outputs, and the script that writes them.

Each case is one call, hashed over a canonical JSON form of everything it
returns:

* ``pollack_log`` and ``log_identity_check`` over a grid of windows, and the
  plus and minus logs over three twists and over twist ranges that hold a
  multiple of p;
* the four bench roundtrip cases, ``factor_signed(synthesize(s, k, conv),
  k, conv)``, and the three gap-reject cases, each ``factor_report`` plus
  each row's ``divide_exact`` quotient or ``DivisibilityError.payload()``,
  on the seeds a bench run at seeds 1 and 901 draws in its first cycle;
* the four bench kl-series cases, ``kl_series_report`` at (p, 20, 64), and
  windows the bench never reaches: unit branches at p = 3 and p = 11, the
  p = 7 pole branch, and a 154-node window at (5, 30, 120); at the same
  windows, the moments ``_kl_core`` interpolates and its smoothing divisor;
* ``remove_euler_factors`` at p in {3, 5, 7}, on the trivial and the
  quadratic character of conductor 4, at s_shift in {0, 1}, by two prime
  lists, one with a repeated prime;
* the L-function layer on the trivial character, the quadratic character of
  conductor 4 and omega, over p in {3, 5, 7, 11}, and on a quartic
  character mod 13 at p = 5 (irrational values, conductor prime to p):
  ``kl_series_report`` on every branch at two windows, ``kl_branch_values``
  and ``kl_value`` at s in {0, -1, -3}, and ``gen_bernoulli`` and
  ``smoothed_moment`` at rel in {None, 2, 0}, a refused call hashed as its
  error's type and message;
* sums, differences, products and linear combinations of ``Series`` over
  Q_p and Q_p(alpha), with jagged, truncated, polynomial and exact-zero
  operands;
* ``Series`` products at p in {3, 5, 7}, every ordered pair of: alpha-parts
  whose b*b terms have unequal widths, one-cell factors (polynomial,
  truncated, over Q_p(alpha)), factors of exact zeros only, polynomials
  whose product runs past x_prec, and truncations against polynomials of
  positive order;
* ``_weierstrass_split`` of p^v * P * U, P distinguished of degree lambda in
  {1, 2, 3} and U a unit, at p in {3, 5, 7} and v in {0, 2}: at one cap, at
  jagged caps and cut to fewer than 2 lambda cells; and at lambda = 0, at
  width 1 and at width 0, a refusal;
* coordinates synthesized 40 digits above the window they are divided in,
  where the signed logs' work margin decides the digits kept;
* ``factor_signed(synthesize(s, k, conv), k, conv)`` on the windows where
  the dot and circ rows lose the most digits, k up to 4 at p in {3, 5, 7};
* ``divide_series`` and ``remainder_mod`` at their edges: pivots past zeros
  to precision, a unit divisor and a unit modulus, empty windows and
  dividends shorter than the modulus;
* divisions whose alpha-part is zero to precision (at one cap, at jagged
  caps, shorter than the window), and the division kernel
  ``_back_substitute`` on dividends that are zeros to precision, with its
  refusals of an exact or zero-to-precision pivot;
* the cyclotomic certificates' remainders, whole: ``remainder_mod_cyclotomic``
  by every factor of every row's signed log in the bench roundtrip and
  gap-reject cases (seeds 1 and 901), with growth order None and with the
  row's tag, and on random elements at p = 3 and p = 7 by the levels of
  degree D in {2, 6, 18, 42}, over the whole window and at length D + 1;
* ``_back_substitute`` on random dividends with dense quotients at
  n in {16, 64, 160} over p in {3, 5, 7}: at one cap, at jagged caps with
  exact zeros, and with a quotient coefficient of lower valuation than every
  earlier one;
* ``_back_substitute`` on dividends Q*G at n in {16, 64} over p in
  {3, 5, 7}, Q of 1, 3 or 7 terms from degree 0, of 3 terms spread over the
  window, each of lower valuation than the one before, or of n terms; G a
  unit pivot with coefficients of valuation 0..3 or -1..1, a divisor that
  has lost digits the dividend keeps, or a pivot of 2 digits, so that a
  quotient term's caps bind; Q*G read at one cap, at jagged caps and as it
  is; and
  ``_quotient_by_monic`` of such products, plus a remainder, by monic
  polynomials, on a Q_p part and on an alpha-part;
* the derived scalar operators on ``PadicScalar`` and ``QuadExtScalar``
  operands drawn from a fixed seed at p in {3, 5, 7}: exact zeros, zeros to
  O(p^A), negative valuations and 0 to 30 digits, against scalars and int
  and Fraction operands, ``a - b``, ``c - a``, ``a / b``, ``c / a``,
  ``a ** n`` for n in -3..6 and ``a == b``, a refused call hashed as its
  error's type and message;
* exact ints and Fractions, units and ones whose numerator or denominator
  p divides, on either side of ``+`` and ``*`` at p in {3, 5, 7}: against
  ``PadicScalar`` operands of negative, zero and positive valuation, a zero
  to precision and the exact zero, and against ``QuadExtScalar`` operands
  whose a is an exact zero, whose b is zero to precision, or whose two
  coordinates carry digits; ``from_int`` and ``from_fraction`` at rel 0;
  and ``2 * t``, ``t * 2``, ``t + 1/p``, ``1/p + t`` and ``t * q`` for
  series t of negative offset over Q_p and Q_p(alpha);
* affine substitution and the twists built on it, at p in {3, 5, 7} and
  N in {8, 64, 160}: ``Series.compose_affine`` on truncated, polynomial and
  alpha-part components at c of valuation 1 and 2 (d = 1 and d a unit
  other than 1), at c an exact zero and at a unit c (a polynomial's
  substitution; a truncation's refusal); ``IwasawaElement.twist`` and
  ``Distribution.twist`` by n in {1, -1, 3, -3, p - 1}; and
  ``geometric_product`` and ``geometric_ratio`` at k in {0, 2}, by a
  polynomial and by a truncated Kubota-Leopoldt stand-in;
* the mock global module, on bounded polynomial seeds at p in {3, 5, 7},
  k in {0, 1, 2}, both conventions and the windows (6, 8), (12, 16) and
  (20, 64): ``local_coordinates`` and ``unbounded_coordinates`` (eps seed
  1 and 2) of (1, 0), (0, 1), (1, 1), (2, 3), (0, 0) and a
  ``pr_rank_reduce`` pair, ``pr_rank_reduce`` for the four eigenvalue
  pairs, ``coleman_extract`` for plus, minus and dot, and
  ``doubly_signed_pair`` on the six ordered sign pairs at one window per
  (p, k), each window taken twice;
* the filtered phi-modules at the same p and k, eps seed in {1, 2} and
  p_prec in {6, 12, 20}: ``dcris_of_form``, ``sym_square``,
  ``wedge_square``, ``split_sym_square``, ``dual`` and
  ``eigenvectors_dual``;
* ``IwasawaElement.zero``, ``one`` and ``idempotent_project`` at the same
  primes and windows, and ``Series.make`` on mixed int, Fraction,
  ``PadicScalar`` and ``QuadExtScalar`` coefficients with and without
  ``rel``, its refusals of mixed forms and of a scalar over another prime
  hashed as errors.

A ``Series`` is its parts as (off, cells, abs_precs), its polynomial flag
and its form, and a bare part its (off, cells, abs_precs); an element is
its tame components' parts and flags; a distribution adds the order tag,
the cyclotomic factors, the truncation level and the meta dict; an
unbounded quadruple is its four distributions; a phi-module is its entries,
filtration, basis labels, provenance, form data and window; a report
or payload is the dict itself.  A
``PadicScalar`` is its (val, unit, rel) and its precision context, a
``QuadExtScalar`` its two coordinates, k and eps seed, a ``Fraction`` its
string, and a refused call ``{"error", "message"}``.

Keys are sorted and infinite precisions are written ``"inf"``.
``tests/test_golden.py`` recomputes every digest and compares it with
``tests/golden.json``.  A change that alters outputs on purpose rewrites the
file and names, in CHANGES.md, every digest that moved and why::

    PYTHONPATH=src python tests/write_golden.py

Standard library only, besides ``iwa`` itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import warnings
from fractions import Fraction
from math import inf
from pathlib import Path

from iwa.dieudonne import (
    PhiModule,
    change_of_basis,
    dcris_of_form,
    dual,
    eigenvectors_dual,
    split_sym_square,
    sym_square,
    wedge_square,
)
from iwa.distributions import Distribution, divide_exact
from iwa.lfunctions import (
    DirichletCharacter,
    _kl_core,
    gen_bernoulli,
    geometric_product,
    geometric_ratio,
    kl_branch_values,
    kl_series_report,
    kl_value,
    remove_euler_factors,
    smoothed_moment,
)
from iwa.pollack import LogKind, log_identity_check, pollack_log
from iwa.scalars import PadicScalar, Precision, QuadExtScalar
from iwa.series import (
    DivisibilityError,
    IwasawaElement,
    Part,
    Series,
    _back_substitute,
    _part,
    _quotient_by_monic,
    _weierstrass_split,
    cyclotomic_degree,
    cyclotomic_factor,
    divide_series,
    linear_combination,
)
from iwa.signed import (
    CONVENTIONS,
    EIGEN_SLOTS,
    MockGlobalModule,
    SignedQuadruple,
    UnboundedQuadruple,
    _divisor_rows,
    coleman_extract,
    doubly_signed_pair,
    factor_report,
    factor_signed,
    local_coordinates,
    pr_rank_reduce,
    synthesize,
    unbounded_coordinates,
)

GOLDEN = Path(__file__).with_name("golden.json")

# (p, M, N): the log-identity bench cases' work windows, one window at
# p = 3 and p = 11 each, windows too small for any factor, and wide windows
# whose levels straddle N, where every twist adds ell-basis levels
LOG_WINDOWS = (
    (5, 58, 64),
    (5, 46, 160),
    (7, 42, 64),
    (5, 42, 64),
    (3, 20, 40),
    (11, 10, 150),
    (5, 20, 2),
    (5, 5, 1),
    (3, 4, 3),
    (3, 30, 163),
    (5, 48, 256),
    (7, 44, 300),
    (5, 58, 16),
)
KINDS = ("plus", "minus", "full")
RS = (1, 2, 4)
SHIFTS = (0, 1)
# the plus and minus logs at p in {3, 5, 7} over three twists, and over twist
# ranges holding a multiple of p: (r, shift) = (3, 0), (3, p - 1), (2, p - 1)
TWIST_WINDOWS = ((3, 20, 40), (3, 30, 163), (5, 58, 64), (5, 46, 160), (7, 42, 64), (5, 58, 16))
# (p, r, M, N): the four log-identity bench cases, then the other primes
IDENTITY_CASES = (
    (5, 4, 20, 64),
    (5, 2, 20, 160),
    (7, 2, 20, 64),
    (5, 2, 20, 64),
    (3, 1, 12, 20),
    (3, 2, 10, 40),
    (11, 1, 8, 30),
    (7, 4, 6, 16),
)
SIGNS = ("plus", "minus", "dot", "circ")
BENCH_SEEDS = (1, 901)
# (p, k, convention, N) at p_prec 20, as in bench/workloads.py
ROUNDTRIP_CASES = (
    (5, 0, "theoremA", 64),
    (5, 1, "theoremA", 64),
    (5, 1, "lemmaFactorisation", 64),
    (7, 1, "theoremA", 64),
)
# (k, N) at p = 5 and p_prec 20, built 40 digits deeper
GAP_CASES = ((0, 160), (0, 64), (1, 64))
# (name, character, branch) at (p, 20, 64); branch 0 of the trivial
# character is the pole branch
KL_CASES = (
    ("trivial5", DirichletCharacter.trivial(5), 2),
    ("quadratic5_3", DirichletCharacter.quadratic(5, 3), 1),
    ("trivial7", DirichletCharacter.trivial(7), 2),
    ("trivial5", DirichletCharacter.trivial(5), 0),
)
# (name, character, branch, (p, M, N)): windows off the bench's grid
KL_WINDOW_CASES = (
    ("quadratic3_4", DirichletCharacter.quadratic(3, 4), 1, (3, 20, 40)),
    ("trivial11", DirichletCharacter.trivial(11), 2, (11, 10, 30)),
    ("trivial7", DirichletCharacter.trivial(7), 0, (7, 20, 64)),
    ("trivial5", DirichletCharacter.trivial(5), 2, (5, 30, 120)),
)
# p for the Euler-factor products, each over a window (p, 12, 24), the
# trivial and the quadratic character of conductor 4, and two prime lists,
# the second repeating a prime
EULER_PRIMES = (3, 5, 7)
EULER_SHIFTS = (0, 1)
# (k, N): seeds synthesized at p_prec 60, divided at p_prec 20
DEEP_CASES = ((0, 64), (1, 64))
# (p, k, convention, N) at p_prec 20: the roundtrips whose dot and circ rows
# keep the fewest digits
LOSS_CASES = (
    (3, 1, "lemmaFactorisation", 32),
    (3, 2, "theoremA", 40),
    (5, 4, "theoremA", 64),
    (7, 4, "theoremA", 64),
)
# (M, N): the two windows of the L-function slice, 13 and 26 nodes
LAYER_WINDOWS = ((5, 4), (10, 12))
LAYER_S = (0, -1, -3)
LAYER_RELS = (None, 2, 0)
# (p, M, N): windows for the certificate remainders at levels of degree
# 2, 6 and 18 (p = 3) and 6 and 42 (p = 7)
CERTIFICATE_WINDOWS = ((3, 20, 40), (7, 12, 64))
DENSE_PRIMES = (3, 5, 7)
DENSE_LENGTHS = (16, 64, 160)
SPARSE_PRIMES = (3, 5, 7)
PRODUCT_PRIMES = (3, 5, 7)
WEIERSTRASS_PRIMES = (3, 5, 7)
WEIERSTRASS_DEGREES = (1, 2, 3)
WEIERSTRASS_CONTENTS = (0, 2)
SPARSE_LENGTHS = (16, 64)
SCALAR_PRIMES = (3, 5, 7)
SCALAR_DRAWS = 24
POW_EXPONENTS = range(-3, 7)
# the affine-substitution and twist cases, at p_prec 20
AFFINE_PRIMES = (3, 5, 7)
AFFINE_LENGTHS = (8, 64, 160)
GEOMETRIC_WEIGHTS = (0, 2)
# the mock module and the phi-modules: primes, weights, eps seeds and (M, N)
MODULE_PRIMES = (3, 5, 7)
MODULE_WEIGHTS = (0, 1, 2)
MODULE_EPS = (1, 2)
MODULE_WINDOWS = ((6, 8), (12, 16), (20, 64))
# the coefficient pairs a mock module's local and unbounded coordinates are
# taken of; "pr" stands for the pr_rank_reduce pair at (alpha, -alpha)
MOCK_ELEMENTS = ((1, 0), (0, 1), (1, 1), (2, 3), (0, 0), "pr")
SIGN_PAIRS = tuple((a, b) for a in SIGNS[:3] for b in SIGNS[:3] if a != b)


def char_mod13(p: int, s: int) -> DirichletCharacter:
    """The character mod 13 sending its generator 2 to omega^s."""
    table, x = [None] * 13, 1
    for t in range(12):
        table[x] = s * t
        x = x * 2 % 13
    return DirichletCharacter(p, 13, tuple(table))


def layer_characters():
    """(name, character) for the L-function slice."""
    for p in (3, 5, 7, 11):
        yield f"trivial{p}", DirichletCharacter.trivial(p)
        yield f"quadratic{p}_4", DirichletCharacter.quadratic(p, 4)
        yield f"omega{p}", DirichletCharacter.teichmuller_power(p, 1)
    yield "quartic5_13", char_mod13(5, 1)


def outcome(call):
    """call(), or the type and message of the error it raises."""
    try:
        return call()
    except (ArithmeticError, ValueError) as e:
        return {"error": type(e).__name__, "message": str(e)}


def layer_cases():
    for name, eta in layer_characters():
        p = eta.p
        prec = Precision(p, 6)
        twists = [eta * DirichletCharacter.teichmuller_power(p, j) for j in range(p - 1)]
        c = next(c for c in range(2, 99) if math.gcd(c, p * eta.modulus) == 1)
        for M, N in LAYER_WINDOWS:
            window = Precision(p, M, N)
            for i in range(p - 1):
                yield (
                    f"kl_series_report/{name}/i{i}/M{M}/N{N}",
                    lambda eta=eta, i=i, w=window: outcome(lambda: kl_series_report(eta, i, w)),
                )
                yield (
                    f"kl_branch_values/{name}/i{i}/M{M}/N{N}",
                    lambda eta=eta, i=i, w=window: outcome(
                        lambda: kl_branch_values(eta, i, LAYER_S, w)),
                )
        yield f"kl_value/{name}", lambda twists=twists, prec=prec: [
            outcome(lambda: kl_value(chi, s, prec)) for chi in twists for s in LAYER_S
        ]
        for rel in LAYER_RELS:
            yield f"gen_bernoulli/{name}/rel{rel}", lambda twists=twists, prec=prec, rel=rel: [
                outcome(lambda: gen_bernoulli(n, chi, prec, rel))
                for chi in twists for n in range(10)
            ]
            yield f"smoothed_moment/{name}/rel{rel}", lambda eta=eta, c=c, prec=prec, rel=rel: [
                outcome(lambda: smoothed_moment(eta, a, m, c, prec, rel))
                for a in range(eta.p - 1) for m in (0, 1, 4, 9)
            ]


def kl_core_parts(eta: DirichletCharacter, i: int, prec: Precision) -> list:
    """The moments _kl_core interpolates, as smoothed_moment returns them,
    and its divisor, psi0(c) c and <c>, on an even branch."""
    core = _kl_core(eta, i, prec)
    moments = [smoothed_moment(core["eta0"], core["b"] - m, m, core["c"], core["wprec"],
                               core["rel"]) for m in range(core["nodes"])]
    return [moments, core["divisor"], core["psi0_c"], core["bracket_c"]]


def euler_cases():
    """remove_euler_factors on a seed element, by two prime lists per p."""
    for p in EULER_PRIMES:
        prec = Precision(p, 12, 24)
        F = seed_element(random.Random(p), prec)
        qs = [q for q in (2, 3, 5, 7, 11, 13) if q != p]
        for name, eta in (("trivial", DirichletCharacter.trivial(p)),
                          ("quadratic4", DirichletCharacter.quadratic(p, 4))):
            for primes in ((qs[0], qs[1]), (qs[1], qs[1], qs[2])):
                for shift in EULER_SHIFTS:
                    label = "_".join(map(str, primes))
                    yield (
                        f"remove_euler_factors/p{p}/{name}/l{label}/s{shift}",
                        lambda F=F, primes=primes, eta=eta, shift=shift:
                            remove_euler_factors(F, primes, eta, shift),
                    )


def seed_element(rng, prec: Precision) -> IwasawaElement:
    """A bench seed: per tame component, an integer polynomial of degree 6
    with coefficients in [-50, 50]."""
    return IwasawaElement(prec, [
        Series.make(prec, [rng.randint(-50, 50) for _ in range(7)], is_polynomial=True)
        for _ in range(prec.p - 1)
    ])


def gap_coordinates(rng, k: int, N: int) -> UnboundedQuadruple:
    """The gap-reject construction: seeds times logs of which the plus and
    minus rows carry only r = k + 1, pushed through M^-1 at p_prec 60 and
    read at p_prec 20."""
    conv = CONVENTIONS["theoremA"]
    base = Precision(5, 20, N)
    work = base.with_p_prec(60)
    rows = []
    for sign in conv.row_signs:
        lk = conv.log_kind(sign, k)
        if sign in ("plus", "minus"):
            lk = LogKind(lk.kind, k + 1, shift=lk.shift)
        log = pollack_log(lk, work)
        seed = seed_element(rng, base).with_p_prec(work.p_prec)
        rows.append(log * Distribution(seed, Fraction(0)))
    _, M_inv = change_of_basis(work, k, 1)
    coords = []
    for i in range(4):
        v = rows[0].scale(M_inv[i][0])
        for j in range(1, 4):
            v = v + rows[j].scale(M_inv[i][j])
        coords.append(v.with_p_prec(base.p_prec))
    return UnboundedQuadruple(*coords)


def gap_outcome(q: UnboundedQuadruple, k: int):
    """factor_report of q, then each row's quotient or rejection payload."""
    _, rows, logs = _divisor_rows(q, k, "theoremA", None)
    outcomes = []
    for row, log in zip(rows, logs):
        try:
            outcomes.append(divide_exact(row, log))
        except DivisibilityError as e:
            outcomes.append(e.payload())
    return [factor_report(q, k), outcomes]


def deep_roundtrip(k: int, N: int) -> SignedQuadruple:
    prec = Precision(5, 60, N)
    rng = random.Random(3)
    s = SignedQuadruple(*(seed_element(rng, prec) for _ in SIGNS))
    u = synthesize(s, k, "theoremA")
    return factor_signed(UnboundedQuadruple(*(d.with_p_prec(20) for d in u.vector())), k)


def scalar(prec: Precision, n, rel=None) -> PadicScalar:
    """n as a PadicScalar to ``rel`` digits; "O<A>" is a zero known to O(p^A)."""
    if isinstance(n, str):
        return PadicScalar.inexact_zero(prec, int(n[1:]))
    return PadicScalar.from_fraction(Fraction(n), prec, rel)


def series_operands():
    """Named Series over Precision(5, 12, 8): over Q_p and over Q_p(alpha)
    with alpha^2 = -2 * 5^2, polynomial, truncated with jagged precision
    (zeros to precision and negative valuations among them), and all exact
    zeros."""
    prec = Precision(5, 12, 8)

    def s(n, rel=None):
        return scalar(prec, n, rel)

    def q(a, b):
        return QuadExtScalar(a, b, 1, 2)

    return prec, {
        "poly": Series.make(prec, [3, -10, 0, 7], is_polynomial=True),
        "jagged": Series.make(prec, [s(2, 3), s(25, 5), s("O4"), s(Fraction(1, 5), 8),
                                     s(6), s(-1, 2), s(125, 1), s(4)]),
        "short": Series.make(prec, [s(Fraction(7, 25), 6), s(1), s("O2")]),
        "fuzz": Series.make(prec, [s("O3"), s("O1"), s("O5"), s("O3")]),
        "zero": Series.make(prec, [0, 0, 0], is_polynomial=True),
        "qpoly": Series.make(prec, [q(s(1), s(2)), s(5), q(s(0), s(-3, 4))],
                             is_polynomial=True),
        "qjagged": Series.make(prec, [q(s(3, 2), s(1, 6)), q(s("O3"), s(10)),
                                      q(s(Fraction(1, 5)), s("O2")), s(9, 4),
                                      q(s(0), s(25, 3)), s(1)]),
        "qzero": Series.make(prec, [q(s(0), s(0))] * 2, is_polynomial=True),
    }


def series_cases():
    prec, ops = series_operands()
    names = list(ops)
    for x in names:
        for y in names:
            X, Y = ops[x], ops[y]
            yield f"series/{x}.{y}", lambda X=X, Y=Y: [X + Y, X - Y, X * Y, X == Y]
    scalars = (
        3,
        Fraction(-2, 5),
        PadicScalar.from_fraction(Fraction(7, 3), prec, 4),
        PadicScalar.inexact_zero(prec, 2),
        QuadExtScalar(PadicScalar.from_int(1, prec, 5), PadicScalar.from_int(10, prec, 3), 1, 2),
        0,
    )
    for i, x in enumerate(names):
        trio = [ops[names[(i + d) % len(names)]] for d in range(3)]
        for j in range(len(scalars)):
            coeffs = [scalars[(j + d) % len(scalars)] for d in range(3)]
            yield (
                f"linear_combination/{x}/{j}",
                lambda coeffs=coeffs, trio=trio: linear_combination(coeffs, trio),
            )


def product_operands(p: int):
    """Named Series over Precision(p, 12, 8) for the product cases, with
    alpha^2 = -2 * p^2."""
    prec = Precision(p, 12, 8)

    def s(n, rel=None):
        return scalar(prec, n, rel)

    def q(a, b):
        return QuadExtScalar(a, b, 1, 2)

    return {
        "alpha_wide": Series.make(prec, [q(s(1, 10), s(2, 10)), q(s(p, 10), s(3, 9)),
                                         s(4, 10)], is_polynomial=True),
        "alpha_narrow": Series.make(prec, [q(s(2, 6), s(1, 2)), q(s(1, 5), s(p + 1, 3)),
                                           q(s(0), s(5, 2))], is_polynomial=True),
        "alpha_truncated": Series.make(prec, [q(s(3, 4), s(Fraction(1, p), 7)),
                                              q(s("O3"), s(2, 5)), s(1, 6), q(s(7, 8), s(1, 1)),
                                              s(2), q(s(0), s(p * p, 3))]),
        "cell": Series.constant(s(Fraction(7, 3), 4), prec),
        "cell_alpha": Series.constant(q(s(1, 5), s(p, 3)), prec),
        "cell_truncated": Series.make(prec, [s(6, 3)]),
        "zeros": Series.make(prec, [0, 0, 0], is_polynomial=True),
        "zeros_truncated": Series.make(prec, [0] * 8),
        "zeros_alpha": Series.make(prec, [q(s(0), s(0))] * 2, is_polynomial=True),
        "poly_long": Series.make(prec, [3, -1, 4, 1, -5, 9], is_polynomial=True),
        "poly_order2": Series.make(prec, [0, 0, 2, 7, 1, 8], is_polynomial=True),
        "truncated": Series.make(prec, [s(2, 3), s(p * p, 5), s("O4"), s(Fraction(1, p), 8),
                                        s(6), s(-1, 2), s(p**3, 1), s(4)]),
    }


def product_cases():
    """Series products, every ordered pair of product_operands."""
    for p in PRODUCT_PRIMES:
        ops = product_operands(p)
        for x, X in ops.items():
            for y, Y in ops.items():
                yield f"series_product/p{p}/{x}.{y}", lambda X=X, Y=Y: X * Y


def weierstrass_cases():
    """_weierstrass_split of p^v * P * U, P distinguished and U a unit."""
    for p in WEIERSTRASS_PRIMES:
        rng = random.Random(p)
        prec = Precision(p, 12, 16)
        for lam in WEIERSTRASS_DEGREES:
            P = [p * rng.randrange(p**5) for _ in range(lam)] + [1]
            U = [unit(rng, p, 6)] + [rng.randrange(p**6) for _ in range(4)]
            G = [sum(P[j] * U[i - j] for j in range(len(P)) if 0 <= i - j < len(U))
                 for i in range(len(P) + len(U) - 1)]
            n = len(G)
            for v in WEIERSTRASS_CONTENTS:
                shapes = {
                    "one_cap": (G, [v + 10] * n),
                    "jagged": (G, [v + 6 + 5 * i % 7 for i in range(n)]),
                    "short": (G[:max(lam + 1, 2 * lam - 1)], [v + 9] * n),
                }
                for shape, (cells, caps) in shapes.items():
                    part = _part(p, v, cells, caps[:len(cells)])
                    D = Series(prec, part, is_polynomial=True)
                    yield (
                        f"weierstrass_split/p{p}/lam{lam}/v{v}/{shape}",
                        lambda D=D: outcome(lambda: _weierstrass_split(D) or []),
                    )
        edges = {
            "lam0": _part(p, 0, [1, p, 2], [8, 8, 8]),
            "width1": _part(p, 0, [p, 1, 3], [1, 1, 1]),
            "width0": _part(p, 0, [p, 1, 3], [2, 0, 2]),
        }
        for name, part in edges.items():
            D = Series(prec, part, is_polynomial=True)
            yield (
                f"weierstrass_split/p{p}/{name}",
                lambda D=D: outcome(lambda: _weierstrass_split(D) or []),
            )


def division_edge_cases():
    """divide_series and remainder_mod at the edges of their windows, over
    Precision(5, 12, 8)."""
    prec = Precision(5, 12, 8)

    def s(n, rel=None):
        return scalar(prec, n, rel)

    def series(coeffs, poly=False):
        return Series.make(prec, [s(c) if isinstance(c, str) else c for c in coeffs],
                           is_polynomial=poly)

    seed = series([2, -1, 7], poly=True)
    # pivots at degree 2, past zeros to precision (and an exact zero)
    past = series(["O9", "O8", 10, 3, 1, 25, 6, 4])
    past_poly = series(["O3", 0, 10, 3, 1], poly=True)
    unit = series([3, 5, 1], poly=True)  # lambda = 0: no zeros in the open disc
    divisions = {
        "pivot_past_zeros": (seed * past, past),
        "pivot_past_zeros/truncated_seed": (series([1, 4, 0, 2, 9, 1, 3, 8]) * past, past),
        "pivot_past_zeros/poly": (seed * past_poly, past_poly),
        "pivot_past_zeros/miss": (series([0, 5, 1, 1]) + seed * past, past),
        "pivot_past_zeros/below": (series([1, 0, 0, 0, 0, 0, 0, 0]), past),
        "unit_divisor": (seed * unit, unit),
        "unit_divisor/truncated": (series([3, 1, 4, 1, 5, 9, 2, 6]), unit),
        "zero_divisor": (seed, series(["O4", "O2", 0])),
        "empty_window": (series([0, 0]), past),
        "empty_window/shorter": (series(["O5"]), past),
    }
    for name, (F, G) in divisions.items():
        yield f"divide_series/{name}", lambda F=F, G=G: outcome(lambda: divide_series(F, G))
    q = Series.make(prec, [QuadExtScalar(s(1), s(2), 1, 2), s(5), s(7)], is_polynomial=True)
    moduli = {
        "unit": series([2], poly=True),
        "unit_padded": series([3, "O4"], poly=True),
        "linear": series([5, 1], poly=True),
        "quadratic": series([10, 5, 1], poly=True),
    }
    dividends = {
        "poly": seed,
        "qpoly": q,
        "truncated": series([1, 2, 3, 4, 5, 6, 7, 8]),
        "short_poly": series([4], poly=True),
        "short_truncated": series([4, 1]),
        "empty": Series.zero(prec),
    }
    for m, phi in moduli.items():
        for d, F in dividends.items():
            yield (
                f"remainder_mod/{d}/{m}",
                lambda F=F, phi=phi: outcome(lambda: F.remainder_mod(phi)),
            )


def zero_alpha_cases():
    """Dividends over Q_p(alpha) whose alpha-part is zero to precision, by
    divisors over Q_p: at one cap over the window, at jagged caps, and as a
    polynomial shorter than a truncated divisor's window."""
    prec = Precision(5, 12, 8)
    form = (1, 2)
    divisors = {
        "truncated": Series.make(prec, [scalar(prec, c, 6) for c in (5, 2, 0, 1, 3, 7, 1, 4)]),
        "poly": Series.make(prec, [10, 1, 3], is_polynomial=True),
    }
    for dname, G in divisors.items():
        num = (Series.make(prec, [3, 1, 4, 1], is_polynomial=True) * G)._a
        n = len(num)
        zeros = {
            "one_cap": [(4, 0, 0)] * n,
            "one_cap_low": [(-2, 0, 0)] * n,
            "jagged": [(4 + i % 3, 0, 0) for i in range(n)],
            "with_exact": [(3, 0, 0), (None, 0, 0)] * (n // 2) + [(3, 0, 0)] * (n % 2),
        }
        for zname, triples in zeros.items():
            F = Series(prec, num, Part.from_triples(5, triples), form, G.is_polynomial)
            yield (
                f"divide_series/zero_alpha/{zname}/{dname}",
                lambda F=F, G=G: outcome(lambda: divide_series(F, G)),
            )
    G = divisors["truncated"]
    a = Part.from_triples(5, [(0, 2, 9), (1, 1, 8), (0, 3, 10)])
    F = Series(prec, a, Part.from_triples(5, [(5, 0, 0)] * 3), form, is_polynomial=True)
    yield "divide_series/zero_alpha/short", lambda F=F, G=G: outcome(lambda: divide_series(F, G))


def zero_dividend_cases():
    """_back_substitute on dividends that are zeros to precision, by divisors
    with digits, exact zeros and zeros to precision, at and past their
    length; then the pivots it refuses."""
    divisors = {
        "p5": (5, [(0, 3, 6), (1, 2, 4), (None, 0, 0), (2, 0, 0), (0, 1, 5), (3, 7, 2)]),
        "p5_low": (5, [(1, 4, 3), (-1, 3, 8), (2, 1, 5)]),
        "p3": (3, [(-1, 2, 5), (2, 0, 0), (1, 1, 4), (None, 0, 0), (-2, 1, 3)]),
        "p7_pivot_only": (7, [(2, 3, 4)]),
        "p3_lost": (3, [(0, 1, 1), (0, 2, 9), (1, 1, 1)]),
        "exact_pivot": (5, [(None, 0, 0), (0, 1, 3)]),
        "zero_pivot": (5, [(2, 0, 0), (0, 1, 3)]),
        "empty": (5, []),
    }
    for dname, (p, triples) in divisors.items():
        den = Part.from_triples(p, triples)
        for n in (0, 1, 6, 12):
            zeros = {
                "one_cap": [(3, 0, 0)] * n,
                "one_cap_low": [(-4, 0, 0)] * n,
                "one_cap_long": [(0, 0, 0)] * (n + 3),
                "jagged": [(3 + i % 4, 0, 0) for i in range(n)],
                "short": [(3, 0, 0)] * (n // 2),
                "exact": [(None, 0, 0)] * n,
                "with_exact": [(3, 0, 0)] * (n // 2) + [(None, 0, 0)] + [(3, 0, 0)] * n,
            }
            for zname, ztriples in zeros.items():
                num = Part.from_triples(p, ztriples)
                yield (
                    f"back_substitute/zero/{zname}/{dname}/n{n}",
                    lambda num=num, den=den, n=n: outcome(lambda: _back_substitute(num, den, n)),
                )


def row_remainders(rows, logs):
    """Each row reduced by every cyclotomic factor its log certifies, with
    growth order None and with the row's order tag."""
    return [
        [
            outcome(lambda: row.body.remainder_mod_cyclotomic(m, j, order))
            for m, j in log.cyclo_factors
            for order in (None, row.order_tag)
        ]
        for row, log in zip(rows, logs)
    ]


def bench_certificate_cases():
    """remainder_mod_cyclotomic on the rows the bench roundtrip and
    gap-reject cases divide, on the inputs ``cases`` draws for them."""
    for seed in BENCH_SEEDS:
        rng = random.Random(seed)
        for p, k, conv, N in ROUNDTRIP_CASES:
            s = SignedQuadruple(*(seed_element(rng, Precision(p, 20, N)) for _ in SIGNS))
            name = f"remainder_mod_cyclotomic/roundtrip/seed{seed}/p{p}/k{k}/{conv}/N{N}"
            yield name, lambda s=s, k=k, conv=conv: row_remainders(
                *_divisor_rows(synthesize(s, k, conv), k, conv, None)[1:])
        rng = random.Random(seed)
        for k, N in GAP_CASES:
            yield (
                f"remainder_mod_cyclotomic/gap_reject/seed{seed}/k{k}/N{N}",
                lambda q=gap_coordinates(rng, k, N), k=k: row_remainders(
                    *_divisor_rows(q, k, "theoremA", None)[1:]),
            )


def random_component(rng, prec: Precision, L: int, poly: bool, alpha: bool) -> Series:
    """A Series of length L with cells of valuation -1..3 and 9..12 digits,
    exact zeros and zeros to precision O(p^8)..O(p^12) among them, and an
    alpha-part of small integers if asked."""
    p = prec.p

    def coefficient():
        kind = rng.randrange(8)
        if kind == 0:
            c = PadicScalar.exact_zero(prec)
        elif kind == 1:
            c = PadicScalar.inexact_zero(prec, rng.randint(8, 12))
        else:
            c = scalar(prec, Fraction(unit(rng, p, 12), p) * p ** rng.randint(0, 4),
                       rng.randint(9, 12))
        if alpha:
            return QuadExtScalar(c, scalar(prec, rng.randint(1, 9), rng.randint(1, 8)), 1, 2)
        return c

    return Series.make(prec, [coefficient() for _ in range(L)], is_polynomial=poly)


def window_certificate_cases():
    """remainder_mod_cyclotomic on random elements at p = 3 and p = 7, by
    the levels of degree 2, 6, 18 and 42, on every twist, over the whole
    window and on dividends of length D + 1; component 1 is a multiple of
    the twist-1 factor, whose remainder is zero."""
    for p, M, N in CERTIFICATE_WINDOWS:
        prec = Precision(p, M, N)
        rng = random.Random(p)
        for m in (1, 2, 3):
            D = cyclotomic_degree(p, m)
            if D + 1 > N:
                continue
            for name, L in (("window", N), ("short", D + 1)):
                comps = [
                    random_component(rng, prec, L, poly=i % 2 == 0, alpha=i % 3 == 2)
                    for i in range(p - 1)
                ]
                seed = Series.make(prec, [rng.randint(-9, 9) for _ in range(L - D)],
                                   is_polynomial=True)
                comps[1] = cyclotomic_factor(m, 1, prec) * seed
                elem = IwasawaElement(prec, comps)
                yield (
                    f"remainder_mod_cyclotomic/p{p}/M{M}/N{N}/m{m}/{name}",
                    lambda elem=elem, m=m, p=p: [
                        outcome(lambda: elem.remainder_mod_cyclotomic(m, j, order))
                        for j in range(-1, p)
                        for order in (None, Fraction(1))
                    ],
                )


def unit(rng, p: int, rel: int) -> int:
    """A random unit mod p^rel."""
    u = rng.randrange(1, p**rel)
    return u + 1 if u % p == 0 else u


def dense_triples(rng, p: int, n: int, shape: str) -> list:
    """(val, unit, rel) triples of a dividend with a dense quotient: at one
    cap, at jagged caps with exact zeros and zeros to precision, or with its
    lowest valuation at degree n // 2, so that a later quotient coefficient
    has lower valuation than every earlier one."""
    out = []
    for i in range(n):
        kind = rng.randrange(6) if shape == "jagged" else 2
        v = rng.randint(0, 3)
        if shape == "dip":
            v = 0 if i == n // 2 else rng.randint(4, 6)
        if kind == 0:
            out.append((None, 0, 0))
        elif kind == 1:
            out.append((rng.randint(0, 20), 0, 0))
        else:
            rel = rng.randint(1, 25) if shape == "jagged" else 30 - v
            out.append((v, unit(rng, p, rel), rel))
    return out


def dense_division_cases():
    """_back_substitute on random dividends, not den times a short series,
    so that the quotient carries digits at every degree; the divisor has a
    unit pivot and n // 2 more coefficients of valuation 0..3."""
    for p in DENSE_PRIMES:
        for n in DENSE_LENGTHS:
            rng = random.Random(p * 1000 + n)
            den = [(0, unit(rng, p, 30), 30)]
            den += [(rng.randint(0, 3), unit(rng, p, 20), 20) for _ in range(n // 2)]
            den = Part.from_triples(p, den)
            for shape in ("one_cap", "jagged", "dip"):
                num = Part.from_triples(p, dense_triples(rng, p, n, shape))
                yield (
                    f"back_substitute/dense/{shape}/p{p}/n{n}",
                    lambda num=num, den=den, n=n: outcome(lambda: _back_substitute(num, den, n)),
                )


def sparse_quotients(rng, p: int, n: int) -> dict:
    """(val, unit, rel) triples of quotients: 1, 3 or 7 terms from degree
    0, 3 terms at degrees 0, n // 3 and 2n // 3 of valuations 3, 1 and -1,
    so that each rescales the terms before it, and n terms."""
    def term(v):
        return v, unit(rng, p, 12), 12

    out = {f"seed{t}": [term(rng.randint(0, 3)) for _ in range(t)] for t in (1, 3, 7)}
    spread = [(None, 0, 0)] * n
    for i, v in zip((0, n // 3, 2 * n // 3), (3, 1, -1)):
        spread[i] = term(v)
    out["spread"] = spread
    out["dense"] = [term(rng.randint(0, 3)) for _ in range(n)]
    return out


def sparse_divisors(rng, p: int, n: int) -> dict:
    """A unit pivot of 30 digits and n // 2 coefficients of valuation 0..3
    with 20 digits; coefficients of valuation -1..1, below the pivot's at
    times, as in the signed logs; the first divisor cut to O(p^3) after the
    dividend is formed (``lost``), so that the dividend keeps digits the
    divisor has lost; and its pivot cut to 2 digits, so that a quotient
    term's cap binds."""
    pivot = (0, unit(rng, p, 30), 30)
    tail = [(rng.randint(0, 3), unit(rng, p, 20), 20) for _ in range(n // 2)]
    return {
        "unit": [pivot] + tail,
        "declining": [pivot] + [(rng.randint(-1, 1), unit(rng, p, 20), 20) for _ in tail],
        "lost": [pivot] + tail,
        "short_pivot": [(0, pivot[1] % p**2, 2)] + tail,
    }


def read_caps(rng, num: Part, n: int, caps: str) -> Part:
    """num at one cap over the window, at jagged caps, or as it is."""
    p = num.p
    if caps == "one_cap":
        pad = max(n - len(num), 0)
        num = Part(p, num.off, num.cells + [0] * pad, num.abs_precs + [inf] * pad)
        return num.reduce_abs(min(num.abs_precs))
    if caps == "jagged":
        cut = [rng.choice((inf, 10, 12, 16)) for _ in num.abs_precs]
        return _part(p, num.off, num.cells, [min(A, c) for A, c in zip(num.abs_precs, cut)])
    return num


def sparse_division_cases():
    """_back_substitute on dividends Q*G read at several caps, and
    _quotient_by_monic on Q*P plus a remainder, P monic of degree 3."""
    for p in SPARSE_PRIMES:
        for n in SPARSE_LENGTHS:
            rng = random.Random(p * 100 + n)
            prec = Precision(p, 30, 2 * n + 16)
            divisors = sparse_divisors(rng, p, n)
            P = Series.make(prec, [p * rng.randint(1, 9), rng.randint(1, 9), p, 1],
                            is_polynomial=True)
            R = Series.make(prec, [rng.randint(1, 9), p**2], is_polynomial=True)
            for qname, q in sparse_quotients(rng, p, n).items():
                Q = Series(prec, Part.from_triples(p, q), is_polynomial=True)
                for dname, triples in divisors.items():
                    den = Part.from_triples(p, triples)
                    num = (Q * Series(prec, den, is_polynomial=True))._a
                    if dname == "lost":
                        den = den.reduce_abs(3)
                    for caps in ("one_cap", "jagged", "as_is"):
                        yield (
                            f"back_substitute/sparse/{qname}/{dname}/{caps}/p{p}/n{n}",
                            lambda num=read_caps(rng, num, n, caps), den=den, n=n: outcome(
                                lambda: _back_substitute(num, den, n)),
                        )
                F = Q * P + R
                alpha = Series(prec, F._a, F.reduce_abs(9)._a, (1, 2), is_polynomial=True)
                for fname, F in (("qp", F), ("alpha", alpha)):
                    yield (
                        f"quotient_by_monic/{qname}/{fname}/p{p}/n{n}",
                        lambda F=F, P=P: outcome(lambda: _quotient_by_monic(F, P)),
                    )


def random_padic(rng, prec: Precision) -> PadicScalar:
    """An exact zero, a zero to O(p^A), or unit * p^val + O(p^(val + rel))
    with val in -4..4, rel in 0..30 and a unit that may still carry p, so
    that the constructor normalizes it."""
    kind = rng.randrange(8)
    if kind == 0:
        return PadicScalar.exact_zero(prec)
    if kind == 1:
        return PadicScalar.inexact_zero(prec, rng.randint(-4, 8))
    return PadicScalar(prec, rng.randint(-4, 4), rng.randrange(1, prec.p**31), rng.randint(0, 30))


def random_rational(rng, p: int):
    """0, an int or a Fraction whose numerator and denominator may carry p."""
    if rng.randrange(8) == 0:
        return 0
    n = rng.choice((-1, 1)) * rng.randint(1, 60) * p ** rng.randint(0, 3)
    if rng.randrange(2):
        return n
    return Fraction(n, rng.randint(1, 20) * p ** rng.randint(0, 3))


def scalar_operations(a, b, c) -> list:
    """a - b, c - a, a / b, c / a, a ** n over POW_EXPONENTS and a == b."""
    return [
        outcome(lambda: a - b),
        outcome(lambda: c - a),
        outcome(lambda: a / b),
        outcome(lambda: c / a),
        [outcome(lambda: a**n) for n in POW_EXPONENTS],
        outcome(lambda: a == b),
    ]


def scalar_operator_cases():
    """The derived operators on random PadicScalar operands, then on random
    QuadExtScalar operands against QuadExtScalars, PadicScalars and
    rationals; one draw in eight mixes two forms' eps seeds."""
    for p in SCALAR_PRIMES:
        rng = random.Random(7000 + p)
        prec = Precision(p, rng.randint(1, 20))
        for i in range(SCALAR_DRAWS):
            a = random_padic(rng, prec)
            b = random_rational(rng, p) if rng.randrange(4) == 0 else random_padic(rng, prec)
            c = random_rational(rng, p)
            yield (
                f"scalar_ops/padic/p{p}/{i}",
                lambda a=a, b=b, c=c: scalar_operations(a, b, c),
            )
        for i in range(SCALAR_DRAWS):
            k, eps = rng.randint(0, 3), rng.randrange(1, p)
            a = QuadExtScalar(random_padic(rng, prec), random_padic(rng, prec), k, eps)
            kind = rng.randrange(8)
            if kind == 0:
                b = random_rational(rng, p)
            elif kind == 1:
                b = random_padic(rng, prec)
            else:
                eps_b = eps % (p - 1) + 1 if kind == 2 else eps
                b = QuadExtScalar(random_padic(rng, prec), random_padic(rng, prec), k, eps_b)
            c = random_rational(rng, p)
            yield (
                f"scalar_ops/quad/p{p}/{i}",
                lambda a=a, b=b, c=c: scalar_operations(a, b, c),
            )


def affine_points(rng, prec: Precision) -> dict:
    """Named (c, d) for compose_affine: c of valuation 1 (d = 1, d a unit
    other than 1, and c known to 6 digits only), c of valuation 2, c an
    exact zero, and a unit c."""
    p = prec.p

    def u():
        return unit(rng, p, 20) if rng.randrange(2) else -unit(rng, p, 20)

    d = scalar(prec, u())
    return {
        "v1": (scalar(prec, p * u()), scalar(prec, 1)),
        "v1_d": (scalar(prec, p * u()), d),
        "v1_short": (scalar(prec, p * u(), 6), d),
        "v2_d": (scalar(prec, p * p * u()), d),
        "zero_d": (PadicScalar.exact_zero(prec), d),
        "unit_d": (scalar(prec, u()), d),
    }


def affine_cases():
    """Series.compose_affine, the twists of IwasawaElement and Distribution,
    and geometric_product and geometric_ratio, on random components of
    length N; a refused call is hashed as its error."""
    for p in AFFINE_PRIMES:
        for N in AFFINE_LENGTHS:
            prec = Precision(p, 20, N)
            rng = random.Random(9000 + 10 * p + N)
            at = f"p{p}/N{N}"
            comps = {
                "truncated": random_component(rng, prec, N, poly=False, alpha=False),
                "poly": random_component(rng, prec, N, poly=True, alpha=False),
                "alpha": random_component(rng, prec, N, poly=False, alpha=True),
            }
            points = affine_points(rng, prec)
            for cname, F in comps.items():
                for pname, (c, d) in points.items():
                    yield (
                        f"compose_affine/{cname}/{pname}/{at}",
                        lambda F=F, c=c, d=d: outcome(lambda: F.compose_affine(c, d)),
                    )
            elem = IwasawaElement(prec, [
                random_component(rng, prec, N, poly=i % 3 == 0, alpha=i % 3 == 1)
                for i in range(p - 1)
            ])
            dist = Distribution(elem, Fraction(1), ((1, 0), (2, 1)), 3)
            for n in (1, -1, 3, -3, p - 1):
                yield f"twist/element/n{n}/{at}", lambda n=n, e=elem: e.twist(n)
                yield f"twist/distribution/n{n}/{at}", lambda n=n, t=dist: t.twist(n)
            kls = {
                "poly": seed_element(rng, prec),
                "window": IwasawaElement(prec, [
                    random_component(rng, prec, N, poly=False, alpha=False)
                    for _ in range(p - 1)
                ]),
            }
            for kname, kl in kls.items():
                for k in GEOMETRIC_WEIGHTS:
                    yield (
                        f"geometric/{kname}/k{k}/{at}",
                        lambda kl=kl, k=k, e=elem: [
                            outcome(lambda: geometric_product(e, kl, k)),
                            outcome(lambda: geometric_ratio(geometric_product(e, kl, k), kl, k)),
                        ],
                    )


def mock_module(rng, p: int, k: int, conv: str, window) -> MockGlobalModule:
    """A mock global module whose eight seeds are bench seed elements."""
    prec = Precision(p, *window)
    seeds = tuple(tuple(seed_element(rng, prec) for _ in SIGNS) for _ in range(2))
    return MockGlobalModule(k, seeds, conv)


def mock_element(G: MockGlobalModule, elem, eps: int = 1):
    return pr_rank_reduce(G, "am", eps) if elem == "pr" else elem


def mock_cases():
    """The mock module's coordinates, rank reduction, doubly-signed pairing
    and Coleman maps; a refused call is hashed as its error."""
    for p in MODULE_PRIMES:
        for k in MODULE_WEIGHTS:
            for conv in CONVENTIONS:
                for window in MODULE_WINDOWS:
                    G = mock_module(random.Random(100 * p + 10 * k + window[0]), p, k, conv,
                                    window)
                    at = f"p{p}/k{k}/{conv}/M{window[0]}/N{window[1]}"
                    yield f"local_coordinates/{at}", lambda G=G: [
                        outcome(lambda: local_coordinates(G, mock_element(G, e)))
                        for e in MOCK_ELEMENTS
                    ]
                    for eps in MODULE_EPS:
                        yield f"unbounded_coordinates/{at}/eps{eps}", lambda G=G, eps=eps: [
                            outcome(lambda: unbounded_coordinates(G, mock_element(G, e, eps), eps))
                            for e in MOCK_ELEMENTS
                        ]
                        yield f"pr_rank_reduce/{at}/eps{eps}", lambda G=G, eps=eps: [
                            outcome(lambda: pr_rank_reduce(G, lam_mu, eps))
                            for lam_mu in EIGEN_SLOTS
                        ]
                    if window == MODULE_WINDOWS[(p + k) % len(MODULE_WINDOWS)]:
                        yield f"doubly_signed_pair/{at}", lambda G=G: [
                            outcome(lambda: doubly_signed_pair(G, signs)) for signs in SIGN_PAIRS
                        ]
                    yield f"coleman_extract/{at}", lambda G=G, k=k, conv=conv: [
                        outcome(lambda: coleman_extract(local_coordinates(G, (2, 3)), sign, k,
                                                        conv))
                        for sign in SIGNS[:3]
                    ]


def module_cases():
    """The phi-modules of a form and the modules built from them."""
    for p in MODULE_PRIMES:
        for k in MODULE_WEIGHTS:
            for eps in MODULE_EPS:
                for M, _ in MODULE_WINDOWS:
                    D = dcris_of_form(p, k, eps, Precision(p, M))
                    S = sym_square(D)
                    at = f"p{p}/k{k}/eps{eps}/M{M}"
                    yield f"dcris_of_form/{at}", lambda D=D: D
                    yield f"sym_square/{at}", lambda S=S: S
                    yield f"wedge_square/{at}", lambda D=D: wedge_square(D)
                    yield f"split_sym_square/{at}", lambda S=S: split_sym_square(S)
                    yield f"dual/{at}", lambda D=D: dual(D)
                    yield f"eigenvectors_dual/{at}", lambda D=D: eigenvectors_dual(dual(D))


def element_cases():
    """IwasawaElement.zero, one and idempotent_project on every tame index."""
    for p in MODULE_PRIMES:
        for M, N in MODULE_WINDOWS:
            prec = Precision(p, M, N)
            elem = IwasawaElement(prec, [
                random_component(random.Random(p * M + i), prec, N, poly=i % 2 == 0,
                                 alpha=i % 3 == 2)
                for i in range(p - 1)
            ])
            at = f"p{p}/M{M}/N{N}"
            yield f"iwasawa_element/zero/{at}", lambda prec=prec: IwasawaElement.zero(prec)
            yield f"iwasawa_element/one/{at}", lambda prec=prec: IwasawaElement.one(prec)
            yield f"idempotent_project/{at}", lambda elem=elem, p=p: [
                elem.idempotent_project(j) for j in range(-1, p)
            ]


def make_cases():
    """Series.make on mixed coefficient lists, with rel None, 0, 3 and 25,
    and its refusals of two forms and of a scalar over another prime."""
    for p in MODULE_PRIMES:
        prec = Precision(p, 12, 8)
        pa = PadicScalar.from_fraction(Fraction(7, p), prec, 5)
        lists = {
            "rational": [3, Fraction(-2, p), 0, Fraction(p * p, 7), -p],
            "padic": [pa, 1, PadicScalar.exact_zero(prec), PadicScalar.inexact_zero(prec, 3),
                      Fraction(1, 3)],
            "quad": [QuadExtScalar(pa, PadicScalar.from_int(p, prec, 2), 1, 2), Fraction(5, 2),
                     0, pa, QuadExtScalar.zero(prec, 1, 2), -4],
            "two_forms": [QuadExtScalar.one(prec, 1, 2), QuadExtScalar.one(prec, 1, 1)],
            "other_prime": [1, PadicScalar.from_int(2, Precision(11, 4))],
            "empty": [],
        }
        for name, coeffs in lists.items():
            for rel in (None, 0, 3, 25):
                for poly in (False, True):
                    yield (
                        f"series_make/{name}/p{p}/rel{rel}/poly{int(poly)}",
                        lambda coeffs=coeffs, prec=prec, rel=rel, poly=poly: outcome(
                            lambda: Series.make(prec, coeffs, rel=rel, is_polynomial=poly)),
                    )


def exact_rationals(p: int) -> dict:
    """Named exact ints and Fractions: units, p in the numerator or the
    denominator, a negative valuation in the value, and 0."""
    return {
        "two": 2,
        "minus_seven": -7,
        "p_squared": p * p,
        "zero": 0,
        "third": Fraction(1, 3) if p != 3 else Fraction(1, 5),
        "over_p": Fraction(1, p),
        "p_over_7": Fraction(p, 7),
        "over_p_squared": Fraction(-3, p * p),
        "p_cubed_over_2": Fraction(p**3, 2),
    }


def exact_operand_cases():
    """An exact int or Fraction on either side of + and * with PadicScalar
    and QuadExtScalar operands, from_int and from_fraction at rel 0, and
    the same rationals against series whose offset is negative."""
    for p in SCALAR_PRIMES:
        prec = Precision(p, 10, 4)
        rationals = exact_rationals(p)
        padic = {
            "unit": PadicScalar.from_unit_val(prec, 2, 0, rel=10),
            "negative_val": PadicScalar.from_unit_val(prec, 1, -5, rel=25),
            "negative_val_short": PadicScalar.from_unit_val(prec, 3, -2, rel=4),
            "positive_val": PadicScalar.from_unit_val(prec, 4, 3, rel=20),
            "deep": PadicScalar.from_int(1, prec, 20),
            "zero_to_prec": PadicScalar.inexact_zero(prec, -2),
            "exact_zero": PadicScalar.exact_zero(prec),
        }
        s = padic
        quad = {
            "a_exact_zero": QuadExtScalar(s["exact_zero"], s["negative_val"], 1, 2),
            "b_zero_to_prec": QuadExtScalar(s["positive_val"], s["zero_to_prec"], 1, 2),
            "both_digits": QuadExtScalar(s["negative_val_short"], s["deep"], 2, 1),
            "both_digits_wide_b": QuadExtScalar(s["unit"], s["negative_val"], 0, 1),
        }
        for kind, operands in (("padic", padic), ("quad", quad)):
            for name, x in operands.items():
                yield f"exact_operand/{kind}/p{p}/{name}", lambda x=x, rs=rationals: [
                    [outcome(lambda: x + q), outcome(lambda: q + x),
                     outcome(lambda: x * q), outcome(lambda: q * x)]
                    for q in rs.values()
                ]
        yield f"exact_operand/rel0/p{p}", lambda prec=prec, rs=rationals: [
            [outcome(lambda: PadicScalar.from_fraction(q, prec, 0)),
             outcome(lambda: PadicScalar.from_int(q, prec, 0))]
            for q in rs.values()
        ]
        series = {
            "poly": Series.make(prec, [Fraction(1, p * p), 2, 3], rel=20, is_polynomial=True),
            "truncated": Series.make(prec, [PadicScalar.from_unit_val(prec, 1, -3, rel=25),
                                            PadicScalar.from_int(p, prec, 6), 1, 4]),
            "alpha": Series.make(prec, [QuadExtScalar(s["unit"], s["negative_val"], 1, 2),
                                        Fraction(2, p)], is_polynomial=True),
        }
        for name, t in series.items():
            yield f"exact_operand/series/p{p}/{name}", lambda t=t, rs=rationals: [
                2 * t, t * 2, t + Fraction(1, p), Fraction(1, p) + t,
                [outcome(lambda: t * q) for q in rs.values()],
            ]


def cases():
    """Every case name with the call that computes its output."""
    for p, M, N in LOG_WINDOWS:
        for kind in KINDS:
            for r in RS:
                for shift in SHIFTS:
                    spec = LogKind(kind, r, shift)
                    yield (
                        f"pollack_log/{kind}/r{r}/s{shift}/p{p}/M{M}/N{N}",
                        lambda spec=spec, prec=Precision(p, M, N): pollack_log(spec, prec),
                    )
    for p, M, N in TWIST_WINDOWS:
        for kind in KINDS[:2]:
            for r, shift in ((3, 0), (3, p - 1), (2, p - 1)):
                spec = LogKind(kind, r, shift)
                yield (
                    f"pollack_log/{kind}/r{r}/s{shift}/p{p}/M{M}/N{N}",
                    lambda spec=spec, prec=Precision(p, M, N): pollack_log(spec, prec),
                )
    for p, r, M, N in IDENTITY_CASES:
        yield (
            f"log_identity_check/p{p}/r{r}/M{M}/N{N}",
            lambda p=p, r=r, prec=Precision(p, M, N): log_identity_check(p, r, prec),
        )
    for seed in BENCH_SEEDS:
        rng = random.Random(seed)
        for p, k, conv, N in ROUNDTRIP_CASES:
            s = SignedQuadruple(*(seed_element(rng, Precision(p, 20, N)) for _ in SIGNS))
            yield (
                f"roundtrip/seed{seed}/p{p}/k{k}/{conv}/N{N}",
                lambda s=s, k=k, conv=conv: factor_signed(synthesize(s, k, conv), k, conv),
            )
        rng = random.Random(seed)
        for k, N in GAP_CASES:
            yield (
                f"gap_reject/seed{seed}/k{k}/N{N}",
                lambda q=gap_coordinates(rng, k, N), k=k: gap_outcome(q, k),
            )
    for name, eta, i in KL_CASES:
        yield (
            f"kl_series_report/{name}/i{i}",
            lambda eta=eta, i=i: kl_series_report(eta, i, Precision(eta.p, 20, 64)),
        )
    for name, eta, i, (p, M, N) in KL_WINDOW_CASES:
        yield (
            f"kl_series_report/{name}/i{i}/p{p}/M{M}/N{N}",
            lambda eta=eta, i=i, prec=Precision(p, M, N): kl_series_report(eta, i, prec),
        )
    for name, eta, i in KL_CASES:
        yield (
            f"kl_core/{name}/i{i}",
            lambda eta=eta, i=i: kl_core_parts(eta, i, Precision(eta.p, 20, 64)),
        )
    for name, eta, i, (p, M, N) in KL_WINDOW_CASES:
        yield (
            f"kl_core/{name}/i{i}/p{p}/M{M}/N{N}",
            lambda eta=eta, i=i, prec=Precision(p, M, N): kl_core_parts(eta, i, prec),
        )
    yield from euler_cases()
    yield from layer_cases()
    yield from series_cases()
    for k, N in DEEP_CASES:
        yield f"deep_roundtrip/p5/k{k}/N{N}", lambda k=k, N=N: deep_roundtrip(k, N)
    rng = random.Random(1)
    for p, k, conv, N in LOSS_CASES:
        s = SignedQuadruple(*(seed_element(rng, Precision(p, 20, N)) for _ in SIGNS))
        yield (
            f"roundtrip/loss/p{p}/k{k}/{conv}/N{N}",
            lambda s=s, k=k, conv=conv: factor_signed(synthesize(s, k, conv), k, conv),
        )
    yield from product_cases()
    yield from weierstrass_cases()
    yield from division_edge_cases()
    yield from zero_alpha_cases()
    yield from zero_dividend_cases()
    yield from bench_certificate_cases()
    yield from window_certificate_cases()
    yield from dense_division_cases()
    yield from sparse_division_cases()
    yield from scalar_operator_cases()
    yield from affine_cases()
    yield from mock_cases()
    yield from module_cases()
    yield from element_cases()
    yield from make_cases()
    yield from exact_operand_cases()


def _columns(part: Part) -> list:
    return [part.off, part.cells, ["inf" if A == inf else A for A in part.abs_precs]]


def _parts(series: Series) -> dict:
    return {
        "parts": [_columns(part) for part in series._parts()],
        "is_polynomial": series.is_polynomial,
    }


def _canonical(obj):
    if isinstance(obj, (dict, bool)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, PadicScalar):
        return {"val": obj.val, "unit": obj.unit, "rel": obj.rel,
                "prec": [obj.prec.p, obj.prec.p_prec, obj.prec.x_prec]}
    if isinstance(obj, QuadExtScalar):
        return {"a": _canonical(obj.a), "b": _canonical(obj.b), "k": obj.k, "eps": obj.eps_seed}
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, Series):
        return {**_parts(obj), "form": obj.form}
    if isinstance(obj, IwasawaElement):
        return [_parts(series) for series in obj.components]
    if isinstance(obj, Part):
        return _columns(obj)
    if isinstance(obj, SignedQuadruple):
        return [_canonical(obj.by_sign(sign)) for sign in SIGNS]
    if isinstance(obj, UnboundedQuadruple):
        return _canonical(obj.vector())
    if isinstance(obj, PhiModule):
        return {
            "entries": _canonical(obj.phi_matrix),
            "filtration": obj.filtration,
            "labels": obj.basis_labels,
            "provenance": obj.provenance,
            "form": [obj.weight, obj.eps_seed],
            "prec": [obj.prec.p, obj.prec.p_prec, obj.prec.x_prec],
        }
    return {
        "components": _canonical(obj.body),
        "order_tag": str(obj.order_tag),
        "cyclo_factors": obj.cyclo_factors,
        "truncation_level": obj.truncation_level,
        "meta": obj.meta,
    }


def digest(obj) -> str:
    """The SHA-256 of an output's canonical JSON form."""
    text = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def compute() -> dict[str, str]:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "window too small")
        return {name: digest(call()) for name, call in cases()}


def main() -> int:
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
