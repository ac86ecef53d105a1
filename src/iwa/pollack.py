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
Levels of the other parity are never formed.

The product is only carried as deep as the output reads it.  Since
Phi_{p^m}(u^{-j}(1+X)) = X^deg mod p, a level of degree >= N is p times a
factor g integral in the window, and a level of degree < N has content 1.
Every constant term Phi_{p^m}(u^{-j}) has valuation exactly 1.  So the
product of all twists is p^A G, A counting the included levels of degree
>= N, and its constant term has valuation A + L, L counting those of degree
< N (known from the degrees alone).  The tail caps below trust no cell past
A + L + M digits, so G is formed mod p^R, R = M + L + 1, and scaled by p^A
once.

The levels of degree < N, and level 1, come from binomial rows, since
Phi_{p^m}(z) = sum_{i<p} z^(i p^(m-1)) and (1+X)^E has the row C(E, n), and
are multiplied in the X basis.  Every other level (m >= 2, degree >= N) is
written in the powers of ell = log(1+X).  With c = u^{-j}, e = p^(m-1) and
w = c^e, (1+X)^(ie) = exp(ie ell) gives

    Phi_{p^m}(c(1+X)) = sum_{i<p} w^i (1+X)^(ie) = sum_k e^k S_k ell^k / k!,

S_k = sum_{i<p} i^k w^i.  For m >= 2 the coefficient a_k = e^k S_k/(p k!)
of g = Phi/p is p-integral: S_0 has valuation exactly 1, and for k >= 1,
v_p(e^k/k!) >= k - (k-1)/(p-1) >= 1.  Its valuation is at least
k(m-1) - 1 - v_p(k!), so mod p^T only about T/(m-1) of the a_k survive: the
levels are short polynomials in ell, and their products mod p^T end in
zeros long before the sum of their lengths.

The twists' levels are Taylor shifts of one another.  u = 1 + p is a
principal unit, so with lambda = log_p u, u^{-j} = exp(-j lambda), and
u^{-j}(1+X) = exp(ell - j lambda).  So level m of twist j is, as a power
series in ell,

    g_m^(j)(ell) = g_m^(j0)(ell - (j - j0) lambda).

Only one twist j0 builds its levels; each twist multiplies its own number
of them and shifts the product by s = (j0 - j) lambda
(:func:`taylor_shift`).  p | lambda, so the shift maps Z/p^T[ell] to itself
and commutes with products mod p^T.  Truncating at ell^N is a ring map too,
but not one that commutes with the shift: coefficient n of Q(ell + s) reads
Q's coefficients n + i, times C(n+i, i) s^i, of valuation >= i.  So the
products are kept to ell^(N+T), past which no coefficient reaches ell^N mod
p^T, and cut to ell^N only after the shift; cut there, the product of the
shifts is the product mod (p^T, ell^N) of every twist's own levels.  ell
does not depend on the twist, so that product H goes back to the X basis
once per log: the coefficient of X^n in ell^k is k! s(n, k)/n!, s the
Stirling numbers of the first kind, read from packed columns kept per
(p, N), so the conversion is K big-int multiply-adds for an H of K terms.
That division by n! costs at most V = v_p((N-1)!) digits, so H is carried
mod p^T with T = R + V.  The levels from binomial rows of every twist are
multiplied in the X basis mod p^R, and the two products meet in one last
product.  Level 1 stays in the X basis because its a_k = S_k/(p k!) are
not integral.

Each twist keeps its own stop test.  Cell 0 of a level is a_0 =
Phi_{p^m}(c)/p, a sum of p powers of w, so the test refuses most levels
there, before any coefficient is built; where a_0 = 1 mod p^M the level is
built and converted up to its first cell that is not 0 mod p^M.

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
from functools import lru_cache
from fractions import Fraction
from math import inf, lcm

from ._kernel import _factorial_table, _unit_inverses, cyclotomic_cells, polymul
from ._kernel import stirling_columns, taylor_shift, vp_factorial
from .distributions import Distribution
from .scalars import PadicScalar, Precision, _check_int, _vp
from .series import IwasawaElement, Part, Series, cyclotomic_degree, cyclotomic_factor
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
        _check_int(1, r=self.r)
        _check_int(0, shift=self.shift)

    @property
    def order(self) -> Fraction:
        return Fraction(self.r, 2) if self.kind != "full" else Fraction(self.r)


def _is_one(cells, q: int) -> bool:
    """The cells read 1 mod q: a level factor Phi/p that is 1 in the window.

    ``cells`` may be an iterator; the test stops at the first cell that fails.
    """
    it = iter(cells)
    return (next(it) - 1) % q == 0 and all(c % q == 0 for c in it)


def _first_level(kind: str) -> int:
    return 2 if kind == "plus" else 1


def _short_levels(kind: str, p: int, N: int) -> int:
    """How many levels of the kind's parity have degree < N: those of content 1."""
    return (_max_level_fitting(p, N) - _first_level(kind)) // 2 + 1


def _ell_coefficients(p: int, m: int, w: int, T: int, N: int) -> list[int]:
    """Phi_{p^m}(c(1+X))/p as a polynomial in ell = log(1+X), mod (p^T, ell^N).

    For m >= 2, given w = c^e mod p^(T+1) with e = p^(m-1): with
    S_k = sum_{i<p} i^k w^i, the coefficient of ell^k is
    a_k = e^k S_k / (p k!), a p-adic integer, whose valuation is at least
    s_k = k(m-1) - 1 - v_p(k!).  So a_k is p^(s_k) S_k over the unit part
    of k!, and S_k is only needed mod p^(T+1).  The list stops once the
    lower bound k(m-1) - 1 - (k-1)/(p-1) of s_k, which rises with k,
    reaches T.  Trailing zeros are dropped.
    """
    pT, pT1 = p**T, p ** (T + 1)
    terms = [1]
    for _ in range(1, p):
        terms.append(terms[-1] * w % pT1)
    pvs, invs = _factorial_table(p, N, pT)
    a = [sum(terms) % pT1 // p]  # S_0 = Phi_{p^m}(c) has valuation exactly 1
    e = p ** (m - 1)
    ek = 1
    for k in range(1, N):
        if (k * (m - 1) - 1) * (p - 1) - (k - 1) >= T * (p - 1):
            break
        terms = [t * i % pT1 for i, t in enumerate(terms)]
        ek *= e
        ps = ek // (p * pvs[k])  # p^(s_k)
        a.append(sum(terms) * ps * invs[k] % pT if ps % pT else 0)
    return _trim(a)


def _ell_cells(h: list[int], p: int, N: int, T: int, R: int):
    """Yield the first N X-cells mod p^R of sum_k h_k ell^k, h_k known mod p^T.

    The coefficient of X^n in ell^k/k! is s(n, k)/n!, s the signed Stirling
    numbers of the first kind, so n! times cell n is sum_k k! h_k s(n, k),
    for 1 <= k < K = len(h) <= N.  Cells 0 and 1 are h_0 and h_1, so a stop
    test that refuses a level there reads nothing else.  The rest take one
    pass over the packed Stirling columns (:func:`stirling_columns`, kept per
    (p, N)): by Horner in the chunk shift, from k = K-1 down,
    acc = (acc << chunk) + (k! h_k mod p^T) col_k, after which chunk n-1 of
    acc is the sum for cell n, equal mod p^T to the sum over the rows reduced
    mod p^T.  The series must be integral in X: then the sum is divisible by
    p^(v_p(n!)), and dividing out n! leaves cell n mod p^(T - v_p(n!)).  So
    T >= R + v_p((N-1)!) gives every cell.

    For the levels and products :func:`_signed_product` passes, p divides
    every k! h_k with k >= 1, so Stirling numbers known only mod p^(T-1)
    would give the same cells; T is kept as it is.  That holds for a
    product of levels of several twists as for one twist's.  The twists c are
    principal units, so w = c^e = 1 mod p, and S_k = sum_{i<p} i^k w^i is
    sum_i i^k mod p: S_1 = p(p-1)/2 = 0 mod p.  So k! a_k = e^k S_k / p has
    valuation >= (m-1) + 1 - 1 >= 1 at k = 1, and >= k(m-1) - 1 >= 1 for
    k >= 2.  In a product of such levels, k! h_k is a sum of multinomial
    coefficients times products of k_i! a_(k_i) with some k_i >= 1.
    """
    pT, pR = p**T, p**R
    for n in range(min(N, 2)):
        yield h[n] % pR if n < len(h) else 0
    if N < 3:
        return
    pvs, invs = _factorial_table(p, N, pT)
    chunk, columns = stirling_columns(p, N, T)
    hs, f = [0], 1  # k! h_k mod p^T for k >= 1
    for k in range(1, len(h)):
        f = f * k % pT
        hs.append(h[k] * f % pT)
    acc, shift = 0, 8 * chunk
    for k in range(len(h) - 1, 0, -1):
        acc = (acc << shift) + hs[k] * columns[k]
    sums = acc.to_bytes(chunk * (N - 1), "little")
    for n in range(2, N):
        s = int.from_bytes(sums[(n - 1) * chunk : n * chunk], "little")
        yield s % pT // pvs[n] * invs[n] % pR


def _trim(f: list[int]) -> list[int]:
    """f without its last zero coefficients; a zero polynomial keeps one."""
    while len(f) > 1 and not f[-1]:
        f.pop()
    return f


def _tree_product(factors: list[list[int]], mod: int, N: int) -> list[int]:
    """The product of the polynomials mod (mod, X^N), multiplied in pairs,
    each product without its last zero coefficients.

    The ell-basis level factors are short, so pairing them keeps most
    products short, and their top coefficients have high valuation, so a
    product of levels mod p^T ends in zeros: at the log-identity bench
    window (5, 4, 64), one twist's plus and minus products keep 28 and 43
    nonzero coefficients of 118 and 141.  Truncation mod (p^T, ell^N) is a
    ring map, so the order of the factors does not change the product.
    """
    while len(factors) > 1:
        pairs = [factors[i : i + 2] for i in range(0, len(factors), 2)]
        factors = [_trim(polymul(*f, mod, N)) if len(f) == 2 else f[0] for f in pairs]
    return factors[0]


def _first_ell_level(kind: str, p: int, N: int) -> int:
    """The lowest level of the kind's parity written in the ell basis: m >= 2, degree >= N."""
    m = _first_level(kind) + 2 * _short_levels(kind, p, N)
    return m if m >= 2 else m + 2


def _level_constant(p: int, w: int, T: int) -> int:
    """a_0 = Phi_{p^m}(c)/p mod p^T, w = c^(p^(m-1)) mod p^(T+1): p powers of w."""
    pT1 = p ** (T + 1)
    term = total = 1
    for _ in range(1, p):
        term = term * w % pT1
        total += term
    return total % pT1 // p


def _ell_product(kind: str, js, ells: list[int], built: dict, p: int, u: int, T: int, N: int):
    """H: the product over the twists js of their ell-basis levels, mod
    (p^T, ell^N), without its last zeros.

    Twist js[i] takes the ells[i] lowest ell-basis levels m0, m0 + 2, ...,
    m0 = :func:`_first_ell_level`.  Only j0, the first twist with the most
    levels, has them: from ``built``, which maps (j, m) to a level its stop
    test built, or from :func:`_ell_coefficients`, mod (p^T, ell^(N+T)).
    Each twist's product is a prefix product of j0's levels, shifted by
    (j0 - j) lambda (:func:`taylor_shift`) and cut to ell^N; see
    :func:`_signed_product`.
    """
    pT, pT1 = p**T, p ** (T + 1)
    count = max(ells)
    j0 = js[ells.index(count)]
    m = _first_ell_level(kind, p, N)
    w = pow(u, -j0 * p ** (m - 1), pT1)
    levels = []
    for _ in range(count):
        levels.append(built.get((j0, m)) or _ell_coefficients(p, m, w, T, N + T))
        m += 2
        w = pow(w, p * p, pT1)
    prefixes, prefix, done = {}, [1], 0
    for n in sorted(set(ells)):
        prefix = _tree_product([prefix, *levels[done:n]], pT, N + T)
        prefixes[n], done = prefix, n
    vt = _vp(u - 1, p)
    lam = p**vt * _log_unit(u - 1, p, T - vt)
    shifted = [taylor_shift(prefixes[n], (j0 - j) * lam, p, pT)[:N] for j, n in zip(js, ells)]
    return _trim(_tree_product(shifted, pT, N))


def _signed_product(kind: str, js, p: int, u: int, R: int, N: int, M: int):
    """The plus/minus product over the twists ``js``, stripped of its content.

    Returns (cells, counts, stops), with one included count and one stop
    level per twist.  The product of every factor of the right parity
    below each twist's stop level is p^A times the cells, mod
    (p^(A+R), X^N), where A = sum(counts) - len(js) * _short_levels(kind,
    p, N) counts the included levels of degree >= N.  A level of degree
    >= N is X^deg = 0 mod p in the window, so it is divided by its content
    p; one of degree < N has content 1 and is taken as it is.

    Each twist runs its own level loop and stop tests.  Levels of degree
    < N, and level 1, come from their binomial rows
    (:func:`cyclotomic_cells`) mod p^(R+1) and are multiplied mod p^R.  The
    others (m >= 2, degree >= N) are written in the ell basis mod p^T,
    T = R + V with V = v_p((N-1)!).  The stop test asks whether a level of
    degree > N has Phi/p = 1 mod (p^M, X^N).  In the ell basis its cells 0
    and 1 are a_0 and a_1, and a_0 (:func:`_level_constant`) needs no other
    coefficient, so most levels are refused before any is built; the rest
    are built mod (p^T, ell^(N+T)), kept for :func:`_ell_product`, and
    converted up to their first cell that is not 0 mod p^M.

    The ell-basis levels of the twists are Taylor shifts of one another:
    with lambda = log_p u, u^(-j)(1+X) = exp(ell - j lambda), so

        g_m^(j)(ell) = g_m^(j0)(ell - (j - j0) lambda).

    So only one twist j0 builds its levels, and each twist's product Q is
    j0's, shifted (:func:`_ell_product`).  p | lambda, so mod p^T the shift
    is a ring map of Z/p^T[ell], and the product of the shifted Q is the
    product of every twist's own levels mod p^T.  Cutting at ell^N is a ring
    map as well, but it must come after the shift: coefficient n of
    Q(ell + s) is sum_i C(n+i, i) s^i q_(n+i), which reads q past ell^N,
    and its terms with i >= T vanish mod p^T.  So Q is carried to
    ell^(N+T), cut to ell^N once shifted, and the product H of the cut
    shifts is the product mod (p^T, ell^N) of every twist's levels.

    ell = log(1+X) is the same series for every twist, so H goes back to
    the X basis once (:func:`_ell_cells`).  That gives the product of the
    per-twist conversions: every twist shares R and T, the conversion is a
    ring map mod (p^T, ell^N) -> (p^R, X^N) on series integral in X (an
    error p^T d in h_k moves cell n by p^T d k! s(n, k)/n!, of valuation
    >= T - v_p(n!) >= R), a product of levels is integral in X, and cells
    are canonical residues mod p^R.
    """
    q = p ** (R + 1)
    pR, pM = p**R, p**M
    T = R + vp_factorial(N - 1, p)
    pT1 = p ** (T + 1)
    u_inv = pow(u, -1, pT1)
    low = [1]  # the levels from binomial rows, in the X basis mod p^R
    counts, stops, ells = [], [], []
    built = {}  # (j, m) -> the ell-basis level twist j's stop test built at level m
    # levels certainly stabilize a little past M + log_p(N); 4M + 16 is a
    # generous safety margin, overrunning it means a genuine bug
    limit = 4 * M + 16
    for j in js:
        c = pow(u_inv, j, pT1)
        w = pow(c, p ** (_first_level(kind) - 1), pT1)  # c^(p^(m-1)) at each level m
        count = ell = 0
        for m in range(_first_level(kind), limit + 1, 2):
            deg = cyclotomic_degree(p, m)
            if m >= 2 and deg >= N:
                if deg > N and (_level_constant(p, w, T) - 1) % pM == 0:
                    a = built[j, m] = _ell_coefficients(p, m, w, T, N + T)
                    if _is_one(_ell_cells(_trim(a[:N]), p, N, T, R), pM):
                        break
                ell += 1
            else:
                phi = cyclotomic_cells(p, m, c, q, N)
                g = [x // p for x in phi] if deg >= N else [x % pR for x in phi]
                if deg > N and _is_one(g, pM):
                    break
                low = polymul(low, g, pR, N)
            count += 1
            w = pow(w, p * p, pT1)
        else:
            raise RuntimeError(  # pragma: no cover - safety net
                f"cyclotomic product did not stabilize by level {limit}"
            )
        counts.append(count)
        stops.append(m)
        ells.append(ell)
    if any(ells):
        H = _ell_product(kind, js, ells, built, p, u, T, N)
        low = polymul(low, list(_ell_cells(H, p, N, T, R)), pR, N)
    return low, counts, stops


@lru_cache(maxsize=32)
def _lcm_upto(n: int) -> int:
    """lcm(1..n), for the few term counts the logarithms ask for."""
    return lcm(*range(1, n + 1))


def _log_unit(t: int, p: int, rel: int) -> int:
    """The unit of log_p(1 + t) mod p^rel, for p | t, t != 0: see :func:`log_p_unit`."""
    n_max = rel + 16
    L = _lcm_upto(n_max)
    V, vt = _vp(L, p), _vp(t, p)
    mod = p ** (V + vt + rel)
    acc = 0
    for n in range(n_max, 0, -1):
        acc = (acc + (L // n if n % 2 else -(L // n))) * t % mod
    m = p**rel
    return acc // p ** (V + vt) * pow(L // p**V, -1, m) % m


def log_p_unit(t: int, p: int, rel: int, prec: Precision) -> PadicScalar:
    """log_p(1 + t) for p | t: the alternating series' first rel + 16 terms, to
    rel digits, exactly as from_fraction reads their exact rational sum.

    The sum runs on integers.  With L = lcm(1..rel+16) = p^V L', L times
    it is sum_n (-1)^(n+1) (L/n) t^n, formed by Horner's rule mod
    p^(V + v(t) + rel).  For odd p every term past the first has valuation
    n v(t) - v_p(n) > v(t), so the sum has valuation exactly v(t), and its
    unit is that integer over p^(V + v(t)), divided by L' mod p^rel.
    t = 0 gives the exact zero, and a p other than prec.p is refused.
    """
    _check_int(t=t)
    _check_int(0, rel=rel)
    if p != prec.p:
        raise ValueError(f"window is for p = {prec.p}, not p = {p}")
    if t % p:
        raise ValueError("argument must be a principal unit: p must divide t")
    if t == 0:
        return PadicScalar.exact_zero(prec)
    return PadicScalar(prec, _vp(t, p), _log_unit(t, p, rel), rel)


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
    # the levels that fit the window: every one for the full log, those of
    # the kind's parity for the plus and minus logs
    top = _max_level_fitting(p, N)
    levels = range(top + 1) if spec.kind == "full" else range(_first_level(spec.kind), top + 1, 2)
    factors = tuple((m, j) for j in js for m in levels)

    if spec.kind == "full":
        W = M + spec.r * (ceil_log(N, p) + 1) + 6
        # log_p(u^{-j}(1+X)) = -j*log_p(u) + log(1+X): log_p(u) and the
        # coefficients (-1)^(n+1)/n of log(1+X) are the same for every twist;
        # the tail's triples read 1/n's unit part from the cached table
        lam = log_p_unit(u - 1, p, W + 4, prec)
        mW, inv = p**W, _unit_inverses(p, N, p**W)
        tail = [(-_vp(n, p), inv[n] if n % 2 else mW - inv[n], W) for n in range(1, N)]
        body_series = Series.constant(1, prec, rel=W)
        for j in js:
            head = lam * (-j)
            twist = Part.from_triples(p, [(head.val, head.unit, head.rel), *tail])
            body_series = body_series * Series(prec, twist)
        meta = {"kind": "full", "window": (M, N), "twists": list(js)}
        return Distribution(
            IwasawaElement.from_diagonal(body_series),
            spec.order,
            factors,
            None,
            meta,
        )

    # plus/minus: form the stripped product G at the depth the caps below
    # read, and apply the whole offset at once
    L = spec.r * _short_levels(spec.kind, p, N)
    R = M + L + 1
    G, counts, stops = _signed_product(spec.kind, js, p, u, R, N, M)
    A = sum(counts) - L  # the included levels of degree >= N
    offset = sum(counts) + spec.r  # each factor's 1/p plus each twist's own 1/p
    per_twist = [
        {"twist": j, "factors": count, "stabilized_at": stop}
        for j, count, stop in zip(js, counts, stops)
    ]
    if all(t["factors"] == 0 for t in per_twist):
        warnings.warn(
            "window too small to include any nontrivial cyclotomic factor; "
            "the logarithm degenerates to a constant",
            stacklevel=2,
        )
    # the discarded tail multiplies the integral product by 1 + O(p^M), so
    # coefficient n is only trusted to (min valuation through degree n) + M;
    # the constant term has valuation A + L, so no cap passes W = A + L + M,
    # and p^A G, known mod p^(A+R), gives every cell and valuation the scan reads
    W = A + L + M
    pA, pW = p**A, p**W
    total = [g * pA % pW for g in G]
    # the running minimum valuation drops only where p^run does not divide a
    # cell, and only there is a valuation taken; exact zeros divide every power
    run, prun = W, pW
    caps = []
    for c in total:
        if c % prun:
            run = _vp(c, p)
            prun = p**run
        caps.append(run + M)
    body = Series(prec, unpack_part(p, (-offset, W, total), len(total), caps))
    meta = {
        "kind": spec.kind,
        "window": (M, N),
        "per_twist": per_twist,
        "valuation_offset": offset,
    }
    return Distribution(
        IwasawaElement.from_diagonal(body),
        spec.order,
        factors,
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
    _check_int(1, r=r)
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
    # the bodies are diagonal: one tame component carries the whole product
    lhs = plus.body.components[0] * minus.body.components[0] * lin
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
