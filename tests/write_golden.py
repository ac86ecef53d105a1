"""Golden SHA-256 digests of the library's outputs, and the script that writes them.

Each case is one call, hashed over a canonical JSON form of everything it
returns:

* ``pollack_log`` and ``log_identity_check`` over a grid of windows;
* the four bench roundtrip cases, ``factor_signed(synthesize(s, k, conv),
  k, conv)``, and the three gap-reject cases, each ``factor_report`` plus
  each row's ``divide_exact`` quotient or ``DivisibilityError.payload()``,
  on the seeds a bench run at seeds 1 and 901 draws in its first cycle;
* the four bench kl-series cases, ``kl_series_report`` at (p, 20, 64), and
  windows the bench never reaches: unit branches at p = 3 and p = 11, the
  p = 7 pole branch, and a 154-node window at (5, 30, 120);
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
* coordinates synthesized 40 digits above the window they are divided in,
  where the signed logs' work margin decides the digits kept.

A ``Series`` is its parts as (off, cells, abs_precs), its polynomial flag
and its form; an element is its tame components' parts and flags; a
distribution adds the order tag, the cyclotomic factors, the truncation
level and the meta dict; a report or payload is the dict itself.  A
``PadicScalar`` is its (val, unit, rel) and its precision context, a
``Fraction`` its string, and a refused call ``{"error", "message"}``.

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

from iwa.dieudonne import change_of_basis
from iwa.distributions import Distribution, divide_exact
from iwa.lfunctions import (
    DirichletCharacter,
    gen_bernoulli,
    kl_branch_values,
    kl_series_report,
    kl_value,
    smoothed_moment,
)
from iwa.pollack import LogKind, log_identity_check, pollack_log
from iwa.scalars import PadicScalar, Precision, QuadExtScalar
from iwa.series import DivisibilityError, IwasawaElement, Series, linear_combination
from iwa.signed import (
    CONVENTIONS,
    SignedQuadruple,
    UnboundedQuadruple,
    _divisor_rows,
    factor_report,
    factor_signed,
    synthesize,
)

GOLDEN = Path(__file__).with_name("golden.json")

# (p, M, N): the log-identity bench cases' work windows, one window at
# p = 3 and p = 11 each, and windows too small for any factor
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
)
KINDS = ("plus", "minus", "full")
RS = (1, 2, 4)
SHIFTS = (0, 1)
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
# (k, N): seeds synthesized at p_prec 60, divided at p_prec 20
DEEP_CASES = ((0, 64), (1, 64))
# (M, N): the two windows of the L-function slice, 13 and 26 nodes
LAYER_WINDOWS = ((5, 4), (10, 12))
LAYER_S = (0, -1, -3)
LAYER_RELS = (None, 2, 0)


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


def series_operands():
    """Named Series over Precision(5, 12, 8): over Q_p and over Q_p(alpha)
    with alpha^2 = -2 * 5^2, polynomial, truncated with jagged precision
    (zeros to precision and negative valuations among them), and all exact
    zeros."""
    prec = Precision(5, 12, 8)

    def s(n, rel=None):
        if isinstance(n, str):  # "O<A>": a zero known to O(5^A)
            return PadicScalar.inexact_zero(prec, int(n[1:]))
        return PadicScalar.from_fraction(Fraction(n), prec, rel)

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
    yield from layer_cases()
    yield from series_cases()
    for k, N in DEEP_CASES:
        yield f"deep_roundtrip/p5/k{k}/N{N}", lambda k=k, N=N: deep_roundtrip(k, N)


def _parts(series: Series) -> dict:
    return {
        "parts": [
            [part.off, part.cells, ["inf" if A == inf else A for A in part.abs_precs]]
            for part in series._parts()
        ],
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
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, Series):
        return {**_parts(obj), "form": obj.form}
    if isinstance(obj, IwasawaElement):
        return [_parts(series) for series in obj.components]
    if isinstance(obj, SignedQuadruple):
        return [_canonical(obj.by_sign(sign)) for sign in SIGNS]
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
