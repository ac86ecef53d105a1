"""Signed logarithms as truncated distributions.

The plus/minus logarithms are infinite products over cyclotomic levels of one
parity,

    plus:   prod_{j} (1/p) prod_{n >= 1} Phi_{p^(2n)}  (u^{-j}(1+X)) / p
    minus:  prod_{j} (1/p) prod_{n >= 1} Phi_{p^(2n-1)}(u^{-j}(1+X)) / p

with j running over r consecutive twists starting at the shift.  Each level's
factor tends to 1 in the (p, X)-adic topology, so inside a window mod
(p^M, X^N) the product stabilizes: construction stops at the first level of
the right parity whose factor is indistinguishable from 1 in the window *and*
whose cyclotomic degree exceeds the window length.  Both facts are recorded.
Each level factor is built on its own from binomial rows, since
Phi_{p^m}(z) = sum_{i<p} z^(i p^(m-1)) and (1+X)^E has the row C(E, n): a
factor costs O(pN) steps and no convolution, and levels of the other parity
are never formed.

The product is only carried as deep as the output reads it.  Since
Phi_{p^m}(u^{-j}(1+X)) = X^deg mod p, a level of degree >= N is p times a
factor g integral in the window, and a level of degree < N has content 1.
Every constant term Phi_{p^m}(u^{-j}) has valuation exactly 1.  So the
product of all twists is p^A G, A counting the included levels of degree
>= N, and its constant term has valuation A + L, L counting those of degree
< N (known from the degrees alone).  The tail caps below trust no cell past
A + L + M digits, so G is formed mod p^(M+L+1) and scaled by p^A once.
Multiplying a level in takes one convolution at most: g is 1 + p^s delta
with s rising by about one per level, so only prod * delta is convolved, mod
p^(M+L+1-s), and not at all once s reaches M + L + 1.

All per-factor and per-twist 1/p normalizations are carried as a single
valuation offset over integral coefficient arithmetic, so nothing is lost to
division.  The unsigned logarithm is the product of classical p-adic
logarithm series log_p(u^{-j}(1+X)), assembled from exact rational
coefficients; the product identity tying the three together is checked
numerically by :func:`log_identity_check` (and, independently, in the test
suite against a rational-arithmetic oracle).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf

from ._kernel import cyclotomic_cells, polymul
from .distributions import Distribution
from .scalars import PadicScalar, Precision, _vp
from .series import IwasawaElement, Series, cyclotomic_degree, cyclotomic_factor
from .series import u_for, unpack_part

__all__ = ["LogKind", "pollack_log", "log_identity_check", "log_p_unit"]

_KINDS = ("plus", "minus", "full")


@dataclass(frozen=True)
class LogKind:
    """Which logarithm: plus/minus/full, how many twists r, and the shift."""

    kind: str
    r: int
    shift: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if self.r < 1:
            raise ValueError("r must be a positive integer")
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")

    @property
    def order(self) -> Fraction:
        return Fraction(self.r, 2) if self.kind != "full" else Fraction(self.r)


def _factor_is_trivial(cells, p: int, M: int) -> bool:
    """Phi/p == 1 in the window, i.e. Phi == p mod (p^(M+1), X^N)."""
    q = p ** (M + 1)
    if (cells[0] - p) % q:
        return False
    return all(c % q == 0 for c in cells[1:])


def _first_level(kind: str) -> int:
    return 2 if kind == "plus" else 1


def _short_levels(kind: str, p: int, N: int) -> int:
    """How many levels of the kind's parity have degree < N: those of content 1."""
    m = _first_level(kind)
    count = 0
    while cyclotomic_degree(p, m) < N:
        count += 1
        m += 2
    return count


def _times_level_factor(prod: list[int], g: list[int], mod: int, N: int):
    """polymul(prod, g, mod, N) for g = 1 + p^s delta, via prod delta mod mod / p^s."""
    delta = [(g[0] - 1) % mod] + g[1:]
    ps = gcd(mod, *delta)  # p^s, capped at mod
    out = (prod + [0] * (len(g) - 1))[:N]
    if ps != mod:
        for n, r in enumerate(polymul(prod, [d // ps for d in delta], mod // ps, N)):
            out[n] += ps * r
    return [a % mod for a in out]


def _signed_product(kind: str, j: int, p: int, u: int, R: int, N: int, M: int):
    """One twist's worth of the plus/minus product, stripped of its content.

    Returns (cells, included_count, stop_level).  The product of every factor
    of the right parity below the stop level is p^A times the cells, mod
    (p^(A+R), X^N), where A = included_count - _short_levels(kind, p, N)
    counts the included levels of degree >= N.  Each level factor
    Phi_{p^m}(u^{-j}(1+X)) comes straight from its binomial rows
    (:func:`cyclotomic_cells`) mod p^(R+1), deep enough for the stop test,
    which reads p^(M+1), as long as R >= M.  A level of degree >= N is
    X^deg = 0 mod p in the window, so it is divided by its content p; one of
    degree < N has content 1 and is taken as it is.  Either way the factor
    g is 1 + p^s delta, and it is multiplied in as prod + p^s (prod delta),
    the second product taken mod p^(R-s) and skipped once s reaches R.
    """
    q = p ** (R + 1)
    pR = p**R
    uj = pow(pow(u, -1, q), j, q)
    prod = [1]
    count = 0
    # levels certainly stabilize a little past M + log_p(N); 4M + 16 is a
    # generous safety margin, overrunning it means a genuine bug
    limit = 4 * M + 16
    for m in range(_first_level(kind), limit + 1, 2):
        phi = cyclotomic_cells(p, m, uj, q, N)
        deg = cyclotomic_degree(p, m)
        if deg > N and _factor_is_trivial(phi, p, M):
            return prod, count, m
        g = [c // p for c in phi] if deg >= N else phi
        prod = _times_level_factor(prod, g, pR, N)
        count += 1
    raise RuntimeError(  # pragma: no cover - safety net
        f"cyclotomic product did not stabilize by level {limit}"
    )


def log_p_unit(t: int, p: int, rel: int, prec: Precision) -> PadicScalar:
    """log_p(1 + t) for p | t, from the alternating series, to rel digits."""
    if t % p:
        raise ValueError("argument must be a principal unit: p must divide t")
    n_max = rel + 16
    acc = Fraction(0)
    term = Fraction(1)
    for n in range(1, n_max + 1):
        term *= t
        acc += term * Fraction((-1) ** (n + 1), n)
    return PadicScalar.from_fraction(acc, prec, rel=rel)


def pollack_log(spec: LogKind, prec: Precision) -> Distribution:
    """Construct the requested logarithm in the window given by ``prec``.

    The body is diagonal (the same series in every tame component).  The
    returned distribution carries the cyclotomic factors that fit the window
    as certificates, the stabilization level, and a meta dict recording the
    truncation evidence per twist.
    """
    p, M, N = prec.p, prec.p_prec, prec.x_prec
    u = u_for(p)
    js = range(spec.shift, spec.shift + spec.r)

    if spec.kind == "full":
        W = M + spec.r * (ceil_log(N, p) + 1) + 6
        # log_p(u^{-j}(1+X)) = -j*log_p(u) + log(1+X): log_p(u) and the
        # coefficients (-1)^(n+1)/n of log(1+X) are the same for every twist
        lam = log_p_unit(u - 1, p, W + 4, prec)
        tail = [
            PadicScalar.from_fraction(Fraction((-1) ** (n + 1), n), prec, rel=W)
            for n in range(1, N)
        ]
        body_series = Series.constant(1, prec, rel=W)
        for j in js:
            twist = Series(prec, (lam * (-j), *tail), None, None, is_polynomial=False)
            body_series = body_series * twist
        factors = [
            (m, j)
            for j in js
            for m in range(0, _max_level_fitting(p, N) + 1)
        ]
        meta = {"kind": "full", "window": (M, N), "twists": list(js)}
        return Distribution(
            IwasawaElement.from_diagonal(body_series),
            spec.order,
            tuple(factors),
            None,
            meta,
        )

    # plus/minus: estimate the per-twist factor count to size the working
    # modulus W the cells are reported at, form the stripped product G at
    # the depth the caps below read, and apply the whole offset at once
    est_levels = M + ceil_log(max(N, 2), p) + 8
    W = M + spec.r * (est_levels // 2 + 3) + 6
    L = spec.r * _short_levels(spec.kind, p, N)
    R = M + L + 1
    pR = p**R
    G = [1]
    A = -L  # the included levels of degree >= N, once every count is in
    offset = 0
    per_twist = []
    for j in js:
        cells, count, stop = _signed_product(spec.kind, j, p, u, R, N, M)
        G = polymul(G, cells, pR, N)
        A += count
        offset += count + 1  # each factor's 1/p plus the twist's own 1/p
        per_twist.append({"twist": j, "factors": count, "stabilized_at": stop})
    if all(t["factors"] == 0 for t in per_twist):
        warnings.warn(
            "window too small to include any nontrivial cyclotomic factor; "
            "the logarithm degenerates to a constant",
            stacklevel=2,
        )
    # the discarded tail multiplies the integral product by 1 + O(p^M), so
    # coefficient n is only trusted to (min valuation through degree n) + M;
    # the constant term has valuation A + L, so no cap passes A + L + M, and
    # p^A G, known mod p^(A+R), gives every cell and valuation the scan reads
    pA, pW = p**A, p**W
    total = [g * pA % pW for g in G]
    run = W
    caps = []
    for c in total:
        if c:
            run = min(run, _vp(c, p))
        caps.append(min(W, run + M))
    body = Series(prec, unpack_part(p, (-offset, W, total), len(total), caps))
    parity = 0 if spec.kind == "plus" else 1
    factors = [
        (m, j)
        for j in js
        for m in range(1, _max_level_fitting(p, N) + 1)
        if m % 2 == parity % 2
    ]
    meta = {
        "kind": spec.kind,
        "window": (M, N),
        "per_twist": per_twist,
        "valuation_offset": offset,
    }
    return Distribution(
        IwasawaElement.from_diagonal(body),
        spec.order,
        tuple(factors),
        min(t["stabilized_at"] for t in per_twist),
        meta,
    )


def ceil_log(n: int, p: int) -> int:
    out = 0
    q = 1
    while q < n:
        q *= p
        out += 1
    return out


def _max_level_fitting(p: int, N: int) -> int:
    """Largest m with deg Phi_{p^m} + 1 <= N (0 when only the linear factor fits)."""
    m = 0
    while cyclotomic_degree(p, m + 1) + 1 <= N:
        m += 1
    return m


def log_identity_check(p: int, r: int, prec: Precision | None = None) -> dict:
    """Verify p^(2r) * prod_j Tw_{-j}(X) * logplus_r * logminus_r = log_r.

    Everything is rebuilt at an internally elevated p-adic precision so the
    verdict covers the requested window.  The report carries the largest
    detected deviation ("exact-zero" when the difference is indistinguishable
    from zero) and the valuation depth to which zero-ness was confirmed.
    """
    if prec is None:
        prec = Precision(p, 30, 64)
    if prec.p != p:
        raise ValueError(f"window is for p = {prec.p}, not p = {p}")
    M, N = prec.p_prec, prec.x_prec
    # elevated enough that the signed products' truncation-tail caps still
    # leave at least M trusted digits on every coefficient
    lift = 6 + 2 * r * (1 + ceil_log(max(N, 2), p))
    work = Precision(p, M + lift, N)
    plus = pollack_log(LogKind("plus", r), work)
    minus = pollack_log(LogKind("minus", r), work)
    full = pollack_log(LogKind("full", r), work)

    lin = Series.constant(1, work, rel=M + 10)
    for j in range(r):
        lin = lin * cyclotomic_factor(0, j, work, rel=M + 10)
    lhs = (plus.body * minus.body).components[0] * lin
    lhs = lhs.shift_val(2 * r)
    diff = lhs - full.body.components[0]

    a = diff._a
    known = [n for n in range(min(len(a), N)) if a.abs_precs[n] != inf]
    # the valuation of a known-nonzero coefficient, if any, and the depth to
    # which zero-ness is confirmed
    worst = min((a.val(n) for n in known if a.cells[n]), default=None)
    confirmed = min((a.abs_precs[n] for n in known if not a.cells[n]), default=None)
    ok = worst is None
    return {
        "p": p,
        "r": r,
        "window": {"p_prec": M, "x_prec": N},
        "ok": ok,
        "deviation": "exact-zero" if ok else str(worst),
        "zero_confirmed_to": None if confirmed is None else min(confirmed, M),
    }
