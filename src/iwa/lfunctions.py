"""Dirichlet characters with values in Z_p^x, p-adic L-values and series,
and the Euler-factor bookkeeping for the symmetric square.

The cast, roughly in dependency order:

* :class:`DirichletCharacter` — characters of (Z/m)^x whose values are roots
  of unity of order dividing p-1, stored as exponents of a fixed Teichmuller
  generator.  Everything downstream (Bernoulli sums, interpolation factors,
  Euler factors) consumes characters in this form.  Every table, products,
  inverses and primitive characters included, is built by one constructor,
  and each distinct table is validated once.  p must be an odd prime, checked
  before any table is built, and must match the prime of any window the
  character is used with; a mismatch raises a ValueError naming both.
* :func:`gen_bernoulli` — generalized Bernoulli numbers B_{n,chi}
  (Washington, Introduction to Cyclotomic Fields, 4.1).  The numbers B_i
  come from the recurrence sum_{k<=n} C(n+1, k) B_k = 0, memoized.  One
  integer row per n, (D, C(n,i) B_i D) with D the common denominator of
  B_0..B_n, is cached, and so, per (n, f), are the integers D f^n B_n(a/f)
  for the units a below f/2 (B_n(1 - x) = (-1)^n B_n(x)): the row times the
  powers of f summed against the powers of a in C.  Rational characters
  return one exact Fraction; irrational ones sum eta(a) D f^n B_n(a/f) on
  integers mod p^rel and build one scalar, with one modular inverse per call.
* :func:`kl_value` — the interpolation formula for p-adic L-values at
  s = 1 - n.  This is the oracle of record: the series construction below is
  certified against it and never the other way around.
* :func:`smoothed_moment` / :func:`kl_series` — the measure-theoretic
  construction.  The c-smoothed regularization of the B_1 distribution is a
  genuine Z_p-measure; its twisted moments have a closed form, each read
  with its twisted primitive character from a cache keyed by the exponent of
  omega.  A moment is the product of four (val, unit, rel) triples, the
  Bernoulli number, the Euler and smoothing factors (integers mod p^rel) and
  1/n, multiplied by PadicScalar's rules; the Teichmuller units and p^rel
  come from one cache keyed by (p, rel).  So a moment builds one
  PadicScalar, the one it returns, besides the Bernoulli number of an
  irrational character, and kl_value likewise.  The branch series is
  recovered by Newton interpolation through those moments at the points
  u^{-m} - 1.  Divided differences of an integral power series at points of
  pZ_p are p-integral, so the Newton coefficients are checked for
  integrality as a construction self-test, and the interpolation tail drops
  one digit per node past the window — the node budget makes the truncation
  error provably smaller than the requested precision.  The
  divided-difference table and its expansion into monomials (von zur
  Gathen-Gerhard, Modern Computer Algebra, ch. 5) are one kernel,
  _newton_part, on integers mod one power of p, which takes the moments as
  triples.  The nodes are a geometric progression shifted by -1
  (Bostan-Schost, J. Complexity 2005), so each step multiplies by a power
  of u and no unit is inverted per cell; the unit factors and powers of p
  this leaves are divided out once per diagonal entry.  Each cell's
  precision bound follows from its inputs' bounds as PadicScalar arithmetic
  gives it (the few cells where a node's digit cap may bind also read their
  valuation), so the Part is, digit for digit, what the same loops give on
  PadicScalars.  Dividing by an integer n reads the inverse of its unit part
  from a cached table.  The divisor that removes the smoothing factor,
  1 - psi0(c) c (1+X)^(-e_c) with e_c = log<c>/log(u), is built by
  _one_minus_power as a Part from triples (the two logarithms are summed on
  integers by pollack's kernel), as is every Euler factor of
  remove_euler_factors; no PadicScalar is built per coefficient.
* :func:`euler_factor_E` / :func:`euler_factor_Eprime` /
  :func:`exceptional_zero_report` — the three-factor products controlling
  trivial zeros of the symmetric square, with exact vanishing flags (each
  factor is 1 minus a root of unity times a power of p, so vanishing is
  decidable from exponents, not from numerics).
* :func:`remove_euler_factors`, :func:`geometric_product` — Iwasawa-algebra
  surgery: multiplying finitely many Euler factors back in (each l must be a
  prime other than p), and forming the twisted product that factors a
  symmetric-square element through a Kubota-Leopoldt one.

The small number theory (primitive roots, Jacobi symbols, conductors, the
primitive-root test mod p^2) runs on Python ints by trial division, ``pow``
and reciprocity; the module imports nothing beyond the standard library and
``iwa``.

Smoothing constants c are chosen odd, prime to the tame conductor, and
primitive roots mod p^2; for every branch except the trivial-character one
the constant 1 - chi omega^{-1}(c) c is a unit and the smoothing factor is
divided out exactly.  On the trivial branch that division is impossible (the
quotient has its pole on the closed unit disc), so the smoothed series itself
is returned and pointwise values divide the smoothing scalar out at each
evaluation point — costing at most two digits, never more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, repeat
from operator import mul

from ._kernel import _unit_inverses, vp_factorial
from .dieudonne import PhiModule
from .distributions import Distribution, divide_exact
from .pollack import _log_unit
from .scalars import (_MR_BOUND, PadicScalar, Precision, PrecisionError, _check_int,
                      _check_odd_prime, _is_prime, _triple, _vp, teichmuller)
from .series import FiniteCharacter, IwasawaElement, Part, Series, _part, u_for

__all__ = [
    "DirichletCharacter",
    "EulerFactorReport",
    "gen_bernoulli",
    "kl_value",
    "smoothed_moment",
    "kl_series",
    "kl_series_report",
    "kl_branch_values",
    "euler_factor_E",
    "euler_factor_Eprime",
    "exceptional_zero_report",
    "c_smoothing_factor",
    "least_smoothing_c",
    "remove_euler_factors",
    "geometric_product",
    "geometric_ratio",
]


# ----------------------------------------------------------- small utilities


def _prime_factors(n: int) -> list:
    """The distinct prime factors of n >= 1, by trial division."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def _primitive_root(p: int) -> int:
    """The least primitive root mod the odd prime p."""
    qs = _prime_factors(p - 1)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in qs):
        g += 1
    return g


@lru_cache(maxsize=None)
def _p2_cofactors(p: int) -> tuple:
    """phi/q for each prime q dividing phi = p(p-1), the order of (Z/p^2)^x.

    A unit c is a primitive root mod p^2 iff no c^(phi/q) is 1 mod p^2.
    """
    phi = p * (p - 1)
    return tuple(phi // q for q in _prime_factors(p - 1) + [p])


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by binary quadratic reciprocity."""
    a %= n
    s = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                s = -s
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            s = -s
        a %= n
    return s if n == 1 else 0


@lru_cache(maxsize=None)
def _dlog_table(p: int) -> dict:
    """Discrete logarithms mod p with respect to the fixed generator."""
    g = _primitive_root(p)
    table, x = {}, 1
    for e in range(p - 1):
        table[x] = e
        x = x * g % p
    return table


def _ind(p: int, a: int) -> int:
    try:
        return _dlog_table(p)[a % p]
    except KeyError:
        raise ValueError(f"{a} is not a unit mod {p}") from None


@lru_cache(maxsize=None)
def _bernoulli_number(n: int) -> Fraction:
    # the recurrence sum_{k<=n} C(n+1, k) B_k = 0 for n >= 1, solved for B_n;
    # at n = 1 it reads B_0 + 2 B_1 = 0, so B_1 = -1/2 = B_1(0), the value
    # of the Bernoulli polynomial at 0 that the row of B_n(x) needs.  The sum
    # runs up from k = 0, so each B_k it asks for finds its own terms cached
    # and the recursion stays two calls deep; an evicted B_k would recurse
    # again, so this cache stays unbounded (B_0..B_400 hold about 0.07 MB).
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    s = sum(math.comb(n + 1, k) * _bernoulli_number(k) for k in range(n) if k < 2 or k % 2 == 0)
    return -s / (n + 1)


@lru_cache(maxsize=128)
def _bernoulli_row(n: int) -> tuple:
    """(D, row) with D the common denominator of B_0..B_n and row[i] = C(n,i) B_i D.

    So D F^n B_n(a/F) = sum_i row[i] F^i a^(n-i) is an integer for integers a, F.
    Row n holds O(n^2 log n) bits, so the cache keeps the 128 rows last used:
    a window's moments read rows 1..x_prec + p_prec + 4, all of them warm at
    (p, 20, 64) (88 rows), while a window at the node cap no longer leaves
    its 400 rows cached.
    """
    bs = [_bernoulli_number(i) for i in range(n + 1)]
    D = math.lcm(*(b.denominator for b in bs))
    return D, tuple(math.comb(n, i) * (b * D).numerator for i, b in enumerate(bs))


@lru_cache(maxsize=1024)
def _bernoulli_sums(n: int, F: int) -> tuple:
    """(D F, units, sums): the units a <= F/2 prime to F (1 alone at F = 1)
    and, for each, the integer D F^n B_n(a/F) = sum_i C(n,i) B_i D F^i a^(n-i).

    D is the common denominator of B_0..B_n (see _bernoulli_row).  The row
    times the powers of F is formed once per (n, F) and summed against the
    powers of a in C (map and accumulate); at F = 1 the sum is the row's
    own.  Kept for the 1024 (n, F) last used: the four kl-series bench
    windows at (p, 20, 64) read 293 of them.
    """
    D, row = _bernoulli_row(n)
    if F == 1:
        return D, (1,), (sum(row),)
    row_f = [r * F**i for i, r in enumerate(row)][::-1]
    units = tuple(a for a in range(1, F // 2 + 1) if math.gcd(a, F) == 1)
    return D * F, units, tuple(
        sum(map(mul, row_f, accumulate(repeat(a, n), mul, initial=1))) for a in units)


@lru_cache(maxsize=64)
def _omega_units(p: int, rel: int) -> tuple:
    """(p^rel, units): units[e] is the unit of omega^e mod p^rel, omega the
    Teichmuller lift of the fixed generator; at rel = 0 every unit is 0.

    One lift per (p, rel), up to 64 of them, serves every character value,
    Bernoulli sum, Euler and smoothing factor at that many digits.
    """
    m = p**rel
    g = teichmuller(_primitive_root(p), Precision(p, 1), rel).unit
    return m, tuple(pow(g, e, m) for e in range(p - 1))


# -------------------------------------------------------------- characters


def _same_prime(chi: DirichletCharacter, p: int) -> None:
    if chi.p != p:
        raise ValueError(f"a character over p = {chi.p} met a window over p = {p}")


@lru_cache(maxsize=1024)
def _checked_conductor(p: int, modulus: int, table: tuple) -> int:
    """Validate a normalized exponent table mod ``modulus``; return its conductor.

    Cached, so each distinct table is checked once, O(modulus^2); a table
    that fails raises on every call, since lru_cache keeps no exceptions.
    """
    pm1 = p - 1
    for a in range(modulus):
        # gcd(a, 1) = 1, so modulus 1 needs no case of its own here or below
        if (table[a] is None) == (math.gcd(a, modulus) == 1):
            raise ValueError("table support must be exactly the unit group")
    for a in range(modulus):
        if table[a] is None:
            continue
        for b in range(a, modulus):
            if table[b] is None:
                continue
            if table[a * b % modulus] != (table[a] + table[b]) % pm1:
                raise ValueError("value table is not multiplicative")
    # the least divisor dd of the modulus with chi trivial on units = 1 mod dd;
    # dd = modulus qualifies, as its one such residue is 1 and multiplicativity
    # forces table[1] = 0
    return next(dd for dd in range(1, modulus + 1) if modulus % dd == 0 and all(
        table[a] in (None, 0) for a in range(1 % dd, modulus, dd)))


@dataclass(frozen=True)
class DirichletCharacter:
    """A character of (Z/modulus)^x with values of order dividing p - 1.

    Values are powers of a fixed generator of the (p-1)-st roots of unity in
    Z_p (the Teichmuller lift of the least primitive root mod p), and
    ``table[a]`` holds the exponent for each residue a, with None off the
    unit group.  Storing exponents keeps every identity exact: products,
    inverses, parity, and vanishing conditions are integer arithmetic mod
    p - 1, and a numeric value is only materialized on request.
    """

    p: int
    modulus: int
    table: tuple
    conductor: int = field(init=False, default=0)

    def __post_init__(self):
        _check_odd_prime(self.p)
        _check_int(1, modulus=self.modulus)
        if len(self.table) != self.modulus:
            raise ValueError("value table must cover all residues")
        pm1 = self.p - 1
        norm = tuple(None if e is None else e % pm1 for e in self.table)
        object.__setattr__(self, "table", norm)
        object.__setattr__(self, "conductor", _checked_conductor(self.p, self.modulus, norm))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _on_units(cls, p: int, modulus: int, exponent) -> "DirichletCharacter":
        """The character mod ``modulus`` with exponent(a) on each unit a and None
        elsewhere: every table is built here, after p and the modulus are
        checked."""
        _check_odd_prime(p)
        _check_int(1, modulus=modulus)
        return cls(p, modulus, tuple(
            exponent(a) if math.gcd(a, modulus) == 1 else None for a in range(modulus)
        ))

    @classmethod
    def trivial(cls, p: int, modulus: int = 1) -> "DirichletCharacter":
        return cls._on_units(p, modulus, lambda a: 0)

    @classmethod
    def teichmuller_power(cls, p: int, j: int) -> "DirichletCharacter":
        """omega^j as a character mod p."""
        _check_int(j=j)
        return cls._on_units(p, p, lambda a: j * _ind(p, a))

    @classmethod
    def quadratic(cls, p: int, d: int) -> "DirichletCharacter":
        """The quadratic character of conductor d (d in {1, 3, 4, 8, odd squarefree})."""
        _check_int(d=d)
        if d < 1 or (d % 2 == 0 and d not in (4, 8)):
            raise ValueError(f"no quadratic character of conductor {d}")

        def exponent(a):
            # (a/d) for odd d; the Kronecker symbols (-4/a) = (-1/a) and
            # (8/a) = (2/a) on odd a for d = 4, 8; p is checked by now
            sign = _jacobi(a, d) if d % 2 else _jacobi(-1 if d == 4 else 2, a)
            return 0 if sign == 1 else (p - 1) // 2

        ch = cls._on_units(p, d, exponent)
        if ch.conductor != d:
            raise ValueError(f"{d} is not the conductor of a primitive quadratic character")
        return ch

    # -- structure ---------------------------------------------------------

    def exponent(self, a: int):
        """The exponent of chi(a), or None when chi(a) = 0."""
        if type(a) is not int:
            _check_int(a=a)
        # modulus 1 gives table[0], which multiplicativity forces to be 0
        if math.gcd(a, self.modulus) != 1:
            return None
        return self.table[a % self.modulus]

    def value(self, a: int, prec: Precision, rel: int | None = None) -> PadicScalar:
        _same_prime(self, prec.p)
        e = self.exponent(a)
        if e is None:
            return PadicScalar.exact_zero(prec)
        rel = prec.p_prec if rel is None else rel
        return PadicScalar(prec, 0, _omega_units(self.p, rel)[1][e], rel)

    def value_fraction(self, a: int) -> Fraction:
        """chi(a) as an exact rational; requires a quadratic-valued character."""
        if not self.is_rational_valued:
            raise ValueError("character values are irrational; use value()")
        e = self.exponent(a)
        if e is None:
            return Fraction(0)
        return Fraction(1) if e == 0 else Fraction(-1)

    @property
    def is_rational_valued(self) -> bool:
        half = (self.p - 1) // 2
        return all(e in (0, half) for e in self.table if e is not None)

    @property
    def is_odd(self) -> bool:
        # multiplicativity (checked on a = b too) makes table[1] = 0 and
        # 2 table[-1] = 0 mod p - 1, so the value at -1 is 0 or half; at
        # modulus 1 or 2, -1 is the residue 1
        return self.table[self.modulus - 1] == (self.p - 1) // 2

    @property
    def order(self) -> int:
        pm1 = self.p - 1
        o = 1
        for e in self.table:
            if e:
                o = math.lcm(o, pm1 // math.gcd(e, pm1))
        return o

    def primitive(self) -> "DirichletCharacter":
        """The primitive character inducing this one."""
        f, m = self.conductor, self.modulus
        if f == m:
            return self
        # a unit mod f takes the value of its least lift to a unit mod m
        return self._on_units(self.p, f, lambda a: self.table[
            next(b for b in range(a, m, f) if math.gcd(b, m) == 1)])

    def __mul__(self, other):
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        if other.p != self.p:
            raise ValueError("characters live over different primes")
        return self._on_units(
            self.p, math.lcm(self.modulus, other.modulus),
            lambda a: self.exponent(a) + other.exponent(a),
        )

    def inverse(self) -> "DirichletCharacter":
        return self._on_units(self.p, self.modulus, lambda a: -self.table[a])

    def split_at_p(self):
        """Factor the primitive character as (prime-to-p part, omega-exponent).

        The second entry is None when the conductor is prime to p.  Values of
        order dividing p - 1 cannot see conductor p^2: if p^2 | f, the units
        = 1 mod f/p form a group of order p, on which psi is trivial, so f
        would not be the conductor.  So the p-part is a plain power of omega.
        """
        psi = self.primitive()
        f = psi.conductor
        if f % self.p:
            return psi, None
        # psi = eta0 omega^d, and at b = 1 mod f0, b = g mod p only omega^d speaks
        p, f0 = self.p, f // self.p
        b = 1
        while b % f0 != 1 % f0 or b % p != _primitive_root(p):
            b += 1
        d = psi.exponent(b)
        return (psi * DirichletCharacter.teichmuller_power(p, -d)).primitive(), d


@lru_cache(maxsize=256)
def _twisted_primitive(eta: DirichletCharacter, a: int) -> DirichletCharacter:
    """The primitive character inducing eta omega^a, for 0 <= a < p - 1.

    Cached, so the moments and values of one window build each twist once.
    """
    return (eta * DirichletCharacter.teichmuller_power(eta.p, a)).primitive()


# ------------------------------------------------- generalized Bernoulli


def gen_bernoulli(n: int, eta: DirichletCharacter, prec: Precision | None = None,
                  rel: int | None = None):
    """B_{n, eta} = f^{n-1} sum_a eta(a) B_n(a/f) over the conductor f.

    Quadratic-valued characters give an exact Fraction.  Characters with
    irrational values need a precision context and come back as a
    PadicScalar.  The parity convention is classical: the number vanishes
    unless eta(-1) = (-1)^n, except for the weight-one trivial case
    B_{1,triv} = 1/2.

    B_n(a/F) comes from integers kept per (n, F) (see _bernoulli_sums): with
    D the common denominator of B_0..B_n, D F^n B_n(a/F) is the integer
    sum_i C(n,i) B_i D F^i a^(n-i), so every character of conductor F reads
    the same sums, and no Fraction arithmetic runs per term: the rational
    path forms one exact Fraction.  The p-adic path runs on integers mod
    p^rel and builds one PadicScalar at its end, the one that summing the
    terms eta(a) B_n(a/F), each known to rel digits, and multiplying by
    F^(n-1) as PadicScalars gives: the sum keeps the least absolute
    precision of its terms, the product the least rel.  A negative rel
    raises a ValueError.
    """
    _check_int(0, n=n)
    if rel is not None:
        _check_int(0, rel=rel)
    if prec is not None:
        _same_prime(eta, prec.p)
    psi = eta.primitive()
    F = psi.conductor
    DF, units, sums = _bernoulli_sums(n, F)
    # B_n(1 - x) = (-1)^n B_n(x) and psi(F - a) = psi(-1) psi(a), so for
    # F > 2 the units above F/2 repeat the terms of those below, times
    # (-1)^n psi(-1): the sum is 0 or twice its lower half
    twice = 1 if F == 1 else 0 if psi.is_odd == (n % 2 == 0) else 2
    if psi.is_rational_valued:
        # F^(n-1) sum_a psi(a) B_n(a/F), with psi(a) = +-1
        tot = sum(s if psi.exponent(a) == 0 else -s for a, s in zip(units, sums))
        return Fraction(twice * tot, DF)
    if prec is None:
        raise ValueError(
            "character values are irrational over Q; pass a precision context"
        )
    rel = prec.p_prec + 8 if rel is None else rel
    # B_{n,psi} = sum_a psi(a) s_a / (D F), s_a the sums.  The term of a
    # has valuation v(s_a) - v(D F^n) and rel digits, so the sum is known
    # to p^(v - v(D F^n) + rel), v the least v(s_a), and F^(n-1) shifts
    # that by (n-1) v(F).  No s_a is 0: the rational roots of B_n are 0,
    # 1/2 and 1 (Inkeri 1959), and an irrational character has F > 2.
    p = psi.p
    m, pw = _omega_units(p, rel)
    v = min(_vp(s, p) for s in sums)
    tot = twice * sum(s * pw[psi.exponent(a)] for a, s in zip(units, sums)) // p**v
    vd = _vp(DF, p)
    return PadicScalar(prec, v - vd, tot * pow(DF // p**vd, -1, m), rel)


def _interpolation_factor(psi: DirichletCharacter, n: int, prec: Precision, rel: int,
                          factor: int) -> PadicScalar:
    """factor (1 - psi(p) p^(n-1)) B_{n, psi} / n for a primitive psi, n >= 1
    and an integer factor known mod p^rel, as one PadicScalar.

    The four are (val, unit, rel) triples: B_{n, psi} as gen_bernoulli gives
    it (a Fraction read to rel digits), the two factors integers mod p^rel
    that scalars._triple normalizes, and 1/n with its unit part read from a
    table.  Their product adds the valuations and keeps the least rel, as
    PadicScalar multiplication does factor by factor; an exact zero B stays
    the exact zero, and at rel = 0 the division by n raises.
    """
    p = psi.p
    B = gen_bernoulli(n, psi, prec, rel)
    vn = _vp(n, p)
    if rel == 0:
        raise PrecisionError(f"division by zero-to-precision O(p^{vn})")
    m, pw = _omega_units(p, rel)
    if isinstance(B, Fraction):
        if not B:
            return PadicScalar.exact_zero(prec)
        vu, vd = _vp(B.numerator, p), _vp(B.denominator, p)
        vb, ub, rb = vu - vd, B.numerator // p**vu * pow(B.denominator // p**vd, -1, m), rel
    else:
        vb, ub, rb = B.val, B.unit, B.rel
    ep = psi.exponent(p)
    ve, ue, re = _triple(p, 0, (1 if ep is None else 1 - pw[ep] * p ** (n - 1)) % m, rel)
    vf, uf, rf = _triple(p, 0, factor % m, rel)
    un = _unit_inverses(p, 1 << n.bit_length(), m)[n]
    return PadicScalar(prec, vb + ve + vf - vn, ub * ue * uf * un, min(rb, re, rf))


# ------------------------------------------------------------ L-values


def kl_value(eta: DirichletCharacter, one_minus_n: int, prec: Precision,
             rel: int | None = None) -> PadicScalar:
    """The p-adic L-value at s = 1 - n, n >= 1, by the interpolation formula

        L_p(eta, 1-n) = -(1 - eta omega^{-n}(p) p^{n-1}) B_{n, eta omega^{-n}} / n.

    Odd characters give exact zero (every branch value vanishes; that is a
    result, not an error).  The only pole of the theory sits at s = 1 on the
    trivial branch, and asking for it raises, as does a negative rel.
    """
    _check_int(one_minus_n=one_minus_n)
    _same_prime(eta, prec.p)
    rel = prec.p_prec + 6 if rel is None else rel
    _check_int(0, rel=rel)
    n = 1 - one_minus_n
    if n <= 0:
        if n == 0 and eta.primitive().conductor == 1:
            raise ValueError(
                "s = 1 is the pole of the zeta branch; no value exists there"
            )
        raise ValueError("values are defined at s = 1 - n with n >= 1")
    if eta.is_odd:
        return PadicScalar.exact_zero(prec)
    psi = _twisted_primitive(eta, -n % (eta.p - 1))
    return _interpolation_factor(psi, n, prec, rel, -1)


def smoothed_moment(eta: DirichletCharacter, omega_exponent: int, m: int, c: int,
                    prec: Precision, rel: int | None = None) -> PadicScalar:
    """The m-th moment of omega^a eta against the c-smoothed B_1 measure,

        int_{Zp^x} omega^a(x) eta(x) x^m dmu_c
            = (1 - psi(c) c^{m+1}) (1 - psi(p) p^m) B_{m+1, psi} / (m+1)

    for psi the primitive character inducing omega^a eta.  The closed form
    was pinned against finite-level Riemann sums of the regularized measure
    (see the companion tests); the c-factor kills the von Staudt denominator,
    so the result is always integral — callers rely on that.  A negative
    rel raises a ValueError.

    The smoothing factor is an integer mod p^rel, a triple beside the
    others of _interpolation_factor, so the moment is the one PadicScalar
    built.
    """
    rel = prec.p_prec + 8 if rel is None else rel
    _check_int(omega_exponent=omega_exponent, c=c)
    _check_int(0, m=m, rel=rel)
    _same_prime(eta, prec.p)
    p = eta.p
    if c <= 1 or math.gcd(c, p * eta.modulus) != 1:
        raise ValueError("smoothing constant must exceed 1 and be prime to p and the modulus")
    psi = _twisted_primitive(eta, omega_exponent % (p - 1))
    mod, pw = _omega_units(p, rel)
    smooth = 1 - pw[psi.exponent(c)] * pow(c, m + 1, mod)
    return _interpolation_factor(psi, m + 1, prec, rel, smooth)


# ------------------------------------------------------------ the series


_NODE_CAP = 400


def _kl_smoothing_c(p: int, eta0: DirichletCharacter, b: int, require_unit: bool) -> int:
    """Least admissible smoothing constant for the branch.

    Odd, prime to 6 and the tame conductor, a primitive root mod p^2, and —
    whenever the branch allows it — making 1 - eta0 omega^b(c) c a unit.
    """
    psi0 = eta0 * DirichletCharacter.teichmuller_power(p, b)
    g0 = _primitive_root(p)
    cofactors = _p2_cofactors(p)
    for c in range(2, 6 * p * p * max(eta0.modulus, 1)):
        if math.gcd(c, 6 * p * eta0.modulus) != 1:
            continue
        if any(pow(c, e, p * p) == 1 for e in cofactors):  # not a primitive root mod p^2
            continue
        if require_unit:
            # c is prime to psi0's modulus, lcm(modulus, p), so psi0(c) != 0;
            # 1 - psi0(c) c mod p: teichmuller reduces to g0^e mod p
            e = psi0.exponent(c)
            if (1 - pow(g0, e, p) * c) % p == 0:
                continue
        return c
    raise ValueError("no admissible smoothing constant found")  # pragma: no cover


def _log_unit_ratio(c: int, p: int, rel: int) -> tuple:
    """(val, unit, rel + 4) of log<c> / log(u), the exponent writing <c> as a
    power of u: the quotient of the two logarithms, each summed to rel + 4
    digits on integers, as PadicScalar division gives it."""
    t, mod = c ** (p - 1) - 1, p ** (rel + 4)
    den = (p - 1) * _log_unit(u_for(p) - 1, p, rel + 4)
    return _vp(t, p) - 1, _log_unit(t, p, rel + 4) * pow(den, -1, mod) % mod, rel + 4


def _product(p: int, val: int, unit: int, rel: int) -> tuple:
    """The triple of a product of triples: val the valuations' sum, unit the
    units' product and rel the least rel, as PadicScalar multiplication
    gives it; at rel 0 the zero to precision O(p^val)."""
    return (val, unit % p**rel, rel) if rel > 0 else (val, 0, 0)


def _one_minus_power(p: int, kappas: list, e: tuple, N: int, rel: int) -> list:
    """The Parts of 1 - kappa (1+X)^e mod X^N, one per kappa, from triples.

    kappa and e are (val, unit, rel) triples as PadicScalar stores them (val
    None: the exact zero), e not the exact zero; 1 and each 1/k carry rel
    digits.  Every cell is, digit for digit, what PadicScalar arithmetic
    gives for C(e, k) = C(e, k-1) (e - k + 1) / k from C(e, 0) = 1, then
    1 - kappa C(e, 0) and -(kappa C(e, k)): e - q for an exact int q keeps
    e's bound, a product adds valuations and keeps the least rel, and a sum
    keeps the least bound.  At rel = 0 and N >= 2 the division by 1 raises,
    as it does on scalars.  The coefficients are formed once for all kappas.
    """
    ev, eu, er = e
    A, mod = ev + er, p**rel
    if N > 1 and rel == 0:
        raise PrecisionError("division by zero-to-precision O(p^0)")
    inv = _unit_inverses(p, 1 << N.bit_length(), mod)
    coeffs = [_triple(p, 0, 1 % mod, rel)]
    for q in range(N - 1):
        # C(e, q + 1) = C(e, q) (e - q) / (q + 1), e - q at the lower
        # valuation v0 of the two, known to e's bound A
        vq = _vp(q, p) if q else 0
        v0 = min(ev, vq)
        x = eu * p ** (ev - v0) - q // p**vq * p ** (vq - v0)
        tv, tu, tr = _triple(p, v0, x % p ** max(A - v0, 0), A)
        cv, cu, cr = coeffs[-1]
        coeffs.append(_product(p, cv + tv - _vp(q + 1, p), cu * tu * inv[q + 1], min(cr, tr)))
    one, parts = coeffs[0], []
    for kv, ku, kr in kappas:
        if kv is None:  # 1 and exact zeros
            cells = [one] + [(None, 0, 0)] * (len(coeffs) - 1)
        else:
            cells = [_product(p, kv + cv, -ku * cu, min(kr, cr)) for cv, cu, cr in coeffs]
            v, u, r = cells[0]
            top, v0 = min(rel, v + r), min(0, v)
            x = one[1] * p**-v0 + u * p ** (v - v0)
            cells[0] = _triple(p, v0, x % p ** max(top - v0, 0), top)
        parts.append(Part.from_triples(p, cells))
    return parts


def _newton_part(p: int, u: int, rel: int, moments: list, N: int) -> Part:
    """The series through moments[m] at the nodes u^-m - 1, as a Part mod X^N.

    The moments are (val, unit, rel) triples, valuations >= 0 and none an
    exact zero, whose units may be left unreduced or negative; each node is
    known to ``rel`` digits.  The Part is, cell for cell
    and bound for bound, what PadicScalar arithmetic gives for the
    divided-difference table dd[row] <- (dd[row] - dd[row-1]) / (node[row]
    - node[row-col]) followed by the Newton expansion poly <- poly * (X -
    node[m]) + dd[m] from the top node down (von zur Gathen-Gerhard, Modern
    Computer Algebra, ch. 5).  There the node difference u^-row (1 - u^col)
    has valuation nv[col] = v(u^col - 1) and carries rel + mn - nv[col]
    digits, mn = min(nv[row], nv[row-col]).  A diagonal entry of negative
    valuation raises an ArithmeticError.

    Every cell is an integer mod one power of p, at least every bound, and
    every step is a ring step with a small exact multiplier.  Bounds are
    worked out without reading values, except at the flagged cells below.

    * Table: g_r <- u^(col-1) g_r - g_(r-1), with g the moments at col 0.
      Then g_r is dd_col[r] p^S[col] u^-(col r - col(col-1)/2) times
      prod_{c<=col} w_c, where 1 - u^c = w_c p^nv[c] and S[col] =
      sum_{c<=col} nv[c].  A difference is known to the smaller bound and
      the node difference is exact here, so a cell's bound is its rows'
      least moment bound unless the digit cap above binds.
    * The cap.  A difference of valuation x known to O(p^A) keeps
      min(A - x, rel + mn - nv[col]) digits.  If dd_col[r] is integral,
      x >= nv[col], so the cap can bind only where A > rel + mn: such cells
      are flagged from the bounds alone, and a flagged cell's bound is
      lowered from its valuation.  Every cell is integral once the diagonal
      is: the Newton coefficients are then integral, so is the
      interpolating polynomial, and its divided differences at integral
      nodes are sums of complete homogeneous polynomials in the nodes.  A
      table that is not integral has a diagonal entry of negative valuation
      whatever the precision, and raises here as the scalar table would.
      Bounds only fall and S only grows, so once no cell of a column can be
      flagged none later can, and the later diagonal bounds are running
      minima.
    * mn = nv[row] would give the same Part, so no input tells it from the
      scalar rule's min(nv[row], nv[row-col]) kept here.  A cell's bound is
      the least of its inputs' bounds and its cap (the cap is at least the
      flag threshold, as v(g_col[row]) >= S[col] in an integral table), so a
      diagonal bound is the least moment bound and cap over the rows up to
      its own.  The two forms differ where v(col) < v(row), so nv[row-col] =
      nv[col] and the cap is v(g_col[row]) + rel.  If v(dd_col[row]) >=
      v(dd_col[col]), the column's diagonal cell is capped at or below it.
      If not, dd_col[row] - dd_col[col] = sum_{col<i<=row} dd_(col+1)[i]
      (node[i] - node[i-col-1]) has a term of valuation at most
      v(dd_col[row]), and that next-column cell, whose mn is at most
      nv[col+1], is capped at or below it; if it is such a cell again,
      repeat up to a diagonal cell.  Either way a cell in a row <= row is
      capped at or below the cell's own cap, which so never sets a bound
      alone.  mn = 1 does differ: at the diagonal cell of row p the node
      difference node[p] - node[0] is known to p^(rel + 2), not p^(rel + 1)
      (see the tests).
    * Expansion: the cap leaves no table entry more than rel digits, so
      node[m] * poly[dg] is known to nv[m] past poly[dg]'s bound, and a
      bound follows min(bound[dg-1], bound[dg] + nv[m]).  The step is
      P <- u^m (P X + P + a_m) - P = u^m ((X - node[m]) P + a_m), with
      a_m = dd[m] u^(-m(m+1)/2) = g_m / (p^S[m] prod_{c<=m} w_c).  So P is
      poly u^(-m(m-1)/2), and the last step leaves the monomial
      coefficients themselves.
    """
    E = len(moments)
    bounds = [v + r for v, _, r in moments]
    M = p ** max(bounds)
    g = [x * p**v for v, x, _ in moments]
    nv, w, S, um = [math.inf], [1], [0], 1
    for m in range(1, E):
        um *= u
        nv.append(_vp(um - 1, p))
        w.append((1 - um) // p ** nv[m])
        S.append(S[-1] + nv[m])

    col, um = 1, 1  # um = u^(col-1)
    while col < E and max(bounds[col - 1:]) - S[col - 1] > rel + 1:
        vd, s = nv[col], S[col - 1]
        for r in range(E - 1, col - 1, -1):
            g[r] = x = (um * g[r] - g[r - 1]) % M
            b = min(bounds[r], bounds[r - 1])
            mn = min(nv[r], nv[r - col])
            if b - s > rel + mn:  # flagged: the cap may bind
                x %= p**b
                if x:
                    b = min(b, _vp(x, p) + rel + mn - vd)
            bounds[r] = b
        col += 1
        um *= u
    for k in range(col, E):  # no cap binds from here on
        bounds[k] = min(bounds[k], bounds[k - 1])
    for col in range(col, E):
        g[col:] = [(um * x - y) % M for x, y in zip(g[col:], g[col - 1:])]
        um *= u

    D = [b - s for b, s in zip(bounds, S)]
    for k in range(E):
        if D[k] < 0 or g[k] % p ** S[k]:
            raise ArithmeticError("divided differences left Z_p; the moment formula is off")
    M = p ** max(D)
    winv = 1
    for wk in w:
        winv = winv * wk % M
    winv = pow(winv, -1, M)
    a = [0] * E
    for k in range(E - 1, -1, -1):
        a[k] = g[k] // p ** S[k] * winv % M
        winv = winv * w[k] % M

    um = u ** (E - 1)
    P, pb = [um * a[-1] % M], [D[-1]]
    for m in range(E - 2, 0, -1):
        um //= u
        vm, top, topb = nv[m], P[-1], pb[-1]
        P = [(um * (x + y) - y) % M for x, y in zip([a[m]] + P, P)]
        pb = [x if x < y + vm else y + vm for x, y in zip([D[m]] + pb, pb)]
        if len(P) < N:
            P.append(um * top % M)
            pb.append(topb)
    if E > 1:  # node 0 is the exact zero: the product by X is a shift
        P, pb = [a[0]] + P[:N - 1], [D[0]] + pb[:N - 1]
    return _part(p, 0, P, pb)


def _kl_core(eta: DirichletCharacter, branch_i: int, prec: Precision) -> dict:
    """Everything shared by the series and the pointwise branch values.

    The moments come from smoothed_moment, called once per node through the
    module name, and reach _newton_part as (val, unit, rel) triples, negated
    on their units; the smoothing divisor is a Part that _one_minus_power
    builds from triples.  PadicScalars are built only where they are
    returned: one per moment, psi0(c) c and <c>.
    """
    _check_int(branch_i=branch_i)
    p = prec.p
    _same_prime(eta, p)
    pm1 = p - 1
    eta0, d = eta.split_at_p()
    i = branch_i % pm1
    if d is not None:
        if d % pm1 != i:
            raise ValueError(
                "the character already carries omega^%d; branch %d conflicts" % (d, i)
            )
    even = eta0.is_odd == (i % 2 == 1)
    b = (i - 1) % pm1
    pole = eta0.conductor == 1 and i == 0
    out = {
        "p": p,
        "i": i,
        "b": b,
        "eta0": eta0,
        "even": even,
        "pole": pole,
        "c": None,
        "nodes": 0,
    }
    if not even:
        return out
    c = _kl_smoothing_c(p, eta0, b, require_unit=not pole)
    E = prec.x_prec + prec.p_prec + 4
    if E > _NODE_CAP:
        raise PrecisionError(
            f"window needs {E} interpolation nodes; the stabilization cap is {_NODE_CAP}"
        )
    rel = prec.p_prec + E + vp_factorial(E, p) + 16
    wprec = prec.with_p_prec(rel)

    # The moments, integral, are the values at the nodes u^-m - 1, each
    # known to rel digits; _newton_part interpolates them.  No moment is an
    # exact zero, as the kernel asks: on an even branch B_{m+1,psi} has the
    # parity that makes it nonzero, and the smoothing and Euler factors and
    # 1/(m+1) are integer triples, of which a multiple of p^rel is the zero
    # to precision O(p^rel), never the exact zero.
    moments = []
    for m in range(E):
        v = smoothed_moment(eta0, b - m, m, c, wprec, rel)
        if v.val < 0:
            raise ArithmeticError(
                "smoothed moment came out non-integral; the regularization is broken"
            )
        moments.append((v.val, -v.unit, v.rel))
    N = prec.x_prec
    smoothed = IwasawaElement.from_component(
        i, Series(wprec, _newton_part(p, u_for(p), rel, moments, N)))

    mod, pw = _omega_units(p, rel)
    psi0_c = PadicScalar(wprec, 0, pw[_twisted_primitive(eta0, b).exponent(c)] * c, rel)
    ev, eu, er = _log_unit_ratio(c, p, rel)
    dpart, = _one_minus_power(p, [(0, psi0_c.unit, rel)], (ev, -eu % p**er, er), N, rel)
    divisor = IwasawaElement.from_component(i, Series(wprec, dpart))
    # <c> = c / omega(c), and omega(c) is the omega-power of c's index
    bracket_c = PadicScalar(wprec, 0, c * pow(pw[_ind(p, c)], -1, mod), rel)
    out.update(
        c=c,
        nodes=E,
        wprec=wprec,
        rel=rel,
        smoothed=smoothed,
        divisor=divisor,
        psi0_c=psi0_c,
        bracket_c=bracket_c,
    )
    return out


def kl_series_report(eta: DirichletCharacter, branch_i: int, prec: Precision):
    """The branch series together with its construction metadata.

    The metadata records the smoothing constant, the node budget, and whether
    the smoothing factor was divided out (every branch except the trivial
    one) or left in place (the trivial branch, whose de-smoothed quotient has
    a pole on the unit disc and is not an Iwasawa element).
    """
    core = _kl_core(eta, branch_i, prec)
    if not core["even"]:
        elem = IwasawaElement.zero(prec)
    elif core["pole"]:
        elem = core["smoothed"]
    else:
        elem = divide_exact(Distribution(core["smoothed"]), Distribution(core["divisor"])).body
    report = {
        "branch": core["i"],
        "parity": "even" if core["even"] else "odd",
        "pole_branch": core["pole"],
        "smoothing_removed": not core["pole"],
        "c": core["c"],
        "nodes": core["nodes"],
        "tame_conductor": core["eta0"].conductor,
    }
    return elem.with_p_prec(prec.p_prec), report


def kl_series(eta: DirichletCharacter, branch_i: int, prec: Precision) -> IwasawaElement:
    """The omega^i-branch Iwasawa series of the p-adic L-function of eta.

    Component ``branch_i`` carries the series K with K(u^s - 1) = L_p(eta
    omega^i, s); all other components are zero.  Evaluation goes through
    ``evaluate_at_character`` with cyclotomic twist t = s = 1 - n, and the
    construction is certified against :func:`kl_value` at those points.  The
    trivial branch comes back still multiplied by its smoothing factor — see
    :func:`kl_series_report`, which says when that happened.
    """
    return kl_series_report(eta, branch_i, prec)[0]


def kl_branch_values(eta: DirichletCharacter, branch_i: int, s_points,
                     prec: Precision) -> list:
    """Branch values L_p(eta omega^i, s) at integers s <= 0, via the series.

    Uniform across branches: the integral smoothed series is evaluated at
    u^s - 1 and the smoothing scalar is divided out pointwise.  On the
    trivial branch this is the only route (the quotient series does not
    exist); elsewhere it agrees with evaluating :func:`kl_series` directly.
    The pointwise division can cost up to two digits, nothing else is lossy;
    a smoothing scalar that vanished to precision would raise its
    PrecisionError.
    """
    s_points = list(s_points)
    for s in s_points:
        _check_int(s=s)
    core = _kl_core(eta, branch_i, prec)
    # an odd branch's values are zeros, but only at the points an even one answers
    if any(s > 0 for s in s_points):
        raise ValueError("branch values are computed at integers s <= 0")
    if not core["even"]:
        return [PadicScalar.exact_zero(prec) for _ in s_points]
    one = PadicScalar.from_int(1, core["wprec"], core["rel"])
    out = []
    for s in s_points:
        num = core["smoothed"].evaluate_at_character(
            FiniteCharacter(core["i"], 0, s)
        )
        den = one - core["psi0_c"] * core["bracket_c"] ** (-s)
        out.append(num / den)
    return out


# ------------------------------------------------- symmetric-square factors


@dataclass(frozen=True)
class EulerFactorReport:
    """Three labelled scalar factors at twist j, with exact vanishing flags."""

    j: int
    labels: tuple
    values: tuple
    zero_flags: tuple
    product: PadicScalar

    def factors(self):
        return tuple(zip(self.labels, self.values, self.zero_flags))


def _one_minus(t: int, v: int, p: int, prec: Precision, rel: int):
    """1 - omega^t p^v with an exact zero test: zero iff v = 0 and t = 0."""
    is_zero = v == 0 and t % (p - 1) == 0
    if is_zero:
        return PadicScalar.exact_zero(prec), True
    u = PadicScalar(prec, 0, _omega_units(p, rel)[1][t % (p - 1)], rel)
    term = u * PadicScalar.from_fraction(Fraction(p) ** v, prec, rel)
    return PadicScalar.from_int(1, prec, rel) - term, False


_E_LABELS = (
    "1 - p^(j-1) chi(p) lambda^(-2)",
    "1 + chi^(-1)(p) lambda^2 p^(-j)",
    "1 - chi^(-1)(p) lambda^2 p^(-j)",
)

_EPRIME_LABELS = (
    "1 - p^(j-1) chi(p) lambda^(-2)",
    "1 + p^(j-1) chi(p) lambda^(-2)",
    "1 - chi^(-1)(p) lambda^2 p^(-j)",
)


def _euler_report(form: PhiModule, chi: DirichletCharacter, j: int,
                  rel: int | None) -> EulerFactorReport:
    """The three factors at twist j, for E when j <= k+1 and for E' beyond.

    The first and last factors are shared; the half-range only picks the
    labels and the middle factor.
    """
    prec, p, k = form.prec, form.prec.p, form.weight
    _same_prime(chi, p)
    rel = prec.p_prec if rel is None else rel
    left = j <= k + 1
    half = (p - 1) // 2
    ec = chi.exponent(p)
    ee = _ind(p, form.eps_seed % p)
    one = PadicScalar.from_int(1, prec, rel)
    if ec is None:  # chi(p) = 0: every factor collapses to 1
        values, flags = (one,) * 3, (False,) * 3
    else:
        middle = (ee - ec, k + 1 - j) if left else (ec - ee, j - k - 2)
        values, flags = zip(*(
            _one_minus(t, v, p, prec, rel)
            for t, v in ((ec - ee + half, j - k - 2), middle, (ee - ec + half, k + 1 - j))
        ))
    prod = one
    for v in values:
        prod = prod * v
    labels = _E_LABELS if left else _EPRIME_LABELS
    return EulerFactorReport(j, labels, values, flags, prod)


def euler_factor_E(form: PhiModule, chi: DirichletCharacter, j: int,
                   rel: int | None = None) -> EulerFactorReport:
    """The three-factor product at twist 1 <= j <= k+1 (the left half-range).

    With lambda^2 = -eps(p) p^{k+1} the factors are
    (1 - p^{j-1} chi(p) lambda^{-2}) (1 + chi^{-1}(p) lambda^2 p^{-j})
    (1 - chi^{-1}(p) lambda^2 p^{-j}); the middle one is the classical
    trivial-zero suspect at j = k+1.
    """
    _check_int(j=j)
    k = form.weight
    if not 1 <= j <= k + 1:
        raise ValueError(f"left-range twist must satisfy 1 <= j <= {k + 1}")
    return _euler_report(form, chi, j, rel)


def euler_factor_Eprime(form: PhiModule, chi: DirichletCharacter, j: int,
                        rel: int | None = None) -> EulerFactorReport:
    """The three-factor product at twist k+2 <= j <= 2k+2 (the right half-range).

    Here the first two factors pair up as 1 -+ p^{j-1} chi(p) lambda^{-2};
    at j = k+2 exactly one of them vanishes according to the sign of
    chi eps^{-1}(p), and the report's flags say which.
    """
    _check_int(j=j)
    k = form.weight
    if not k + 2 <= j <= 2 * k + 2:
        raise ValueError(f"right-range twist must satisfy {k + 2} <= j <= {2 * k + 2}")
    return _euler_report(form, chi, j, rel)


def exceptional_zero_report(form: PhiModule, chi: DirichletCharacter, j_range) -> dict:
    """Vanishing-factor survey over a range of twists.

    Flags the twists j = k+1 and j = k+2 as the exceptional pair whenever
    eps chi^{-1}(p) = 1 — the case where the vanishing is forced by the local
    factor rather than the L-value.  Vanishings arising from
    eps chi^{-1}(p) = -1 (the complementary factor of the same pair) are
    listed on their rows like any other; the report never suppresses a zero.
    """
    p, k = form.prec.p, form.weight
    js = list(j_range)
    for j in js:
        _check_int(j=j)
    js = sorted(set(js))
    for j in js:
        if not 1 <= j <= 2 * k + 2:
            raise ValueError(f"twist {j} outside [1, {2 * k + 2}]")
    _same_prime(chi, p)
    ec = chi.exponent(p)
    ee = _ind(p, form.eps_seed % p)
    exceptional = ec is not None and (ee - ec) % (p - 1) == 0
    rows = []
    for j in js:
        rep = _euler_report(form, chi, j, None)
        rows.append({
            "j": j,
            "branch": "E" if j <= k + 1 else "Eprime",
            "report": rep,
            "zero_factors": [lbl for lbl, z in zip(rep.labels, rep.zero_flags) if z],
        })
    return {
        "p": p,
        "k": k,
        "chi_p_exponent": ec,
        "eps_exponent": ee,
        "exceptional": exceptional,
        "exceptional_js": [j for j in js if exceptional and j in (k + 1, k + 2)],
        "rows": rows,
    }


# ------------------------------------------------------------- smoothing


def c_smoothing_factor(c: int, j: int, k: int, chi_eps_at_c):
    """c^2 - c^{2j-2k-2} (chi eps)(c)^{-2}, the two-variable smoothing factor.

    ``chi_eps_at_c`` is the value of chi eps at c, as an exact rational for
    quadratic-valued characters or a PadicScalar otherwise; the return type
    follows the input.  At j = k+1 with (chi eps)(c) = 1 this is c^2 - 1.
    """
    _check_int(2, c=c)
    _check_int(j=j)
    _check_int(0, **{"weight parameter k": k})
    expo = 2 * j - 2 * k - 2
    if isinstance(chi_eps_at_c, PadicScalar):
        if chi_eps_at_c.val is None or chi_eps_at_c.val != 0:
            raise ValueError("(chi eps)(c) must be a unit")
        c2 = PadicScalar.from_int(c * c, chi_eps_at_c.prec, chi_eps_at_c.rel)
        cc = PadicScalar.from_fraction(
            Fraction(c) ** expo, chi_eps_at_c.prec, chi_eps_at_c.rel
        )
        return c2 - cc * chi_eps_at_c ** (-2)
    w = Fraction(chi_eps_at_c)
    if w == 0:
        raise ValueError("(chi eps)(c) must be a unit")
    return Fraction(c) ** 2 - Fraction(c) ** expo * w ** (-2)


def least_smoothing_c(chi_eps: DirichletCharacter, k: int, coprime_to: int = 1) -> int:
    """Least c > 1, prime to ``coprime_to`` and p, admissible for the even twists.

    Admissible means the smoothing factor is exactly nonzero at every even j
    with k+2 < j <= 2k+2.
    """
    _check_int(0, **{"weight parameter k": k})
    _check_int(1, coprime_to=coprime_to)
    # the factor vanishes only when c^{2j-2k-4} is the root of unity
    # (chi eps)(c)^{-2}; here 2j-2k-4 >= 2, and no positive power of an
    # integer c > 1 is a root of unity, so any c with chi eps(c) != 0, that
    # is prime to the modulus, will do.  n + 1 is prime to n, so the search
    # ends by then
    n = coprime_to * chi_eps.p * chi_eps.modulus
    return next(c for c in count(2) if math.gcd(c, n) == 1)


# ---------------------------------------------- Euler-factor surgery


def remove_euler_factors(F: IwasawaElement, primes, eta: DirichletCharacter,
                         s_shift: int = 0) -> IwasawaElement:
    """Multiply F by (1 - eta(l) l^{s_shift-1} [l]) for each listed prime l.

    [l] is the group element of l in the Iwasawa algebra: on the tame
    component omega^a it acts by omega^a(l), and on the wild variable by
    (1+X)^{e_l} with e_l the exponent writing <l> as a power of u.  Primes
    with eta(l) = 0 contribute the trivial factor; l = p is not an Euler
    factor of the algebra and is rejected, as is any l that is not a prime.

    Each factor is built from triples, no PadicScalar per coefficient: e_l
    from the integer logarithms, kappa = eta(l) l^(s_shift-1) omega^a(l) per
    component a, and 1 - kappa (1+X)^(e_l) by _one_minus_power to rel =
    p_prec + 8 digits, the binomial coefficients formed once per prime.
    """
    p = F.prec.p
    _same_prime(eta, p)
    _check_int(s_shift=s_shift)
    pm1 = p - 1
    N = F.prec.x_prec
    rel = F.prec.p_prec + 8
    out = F
    mod, pw = _omega_units(p, rel)
    for ell in primes:
        if isinstance(ell, int) and ell % p == 0:
            raise ValueError(
                f"ell={ell} is divisible by p={p}; only primes away from p "
                "have removable Euler factors"
            )
        if not isinstance(ell, int) or ell >= _MR_BOUND or not _is_prime(ell):
            raise ValueError(f"ell={ell!r} is not a prime below {_MR_BOUND}; "
                             "Euler factors are indexed by primes")
        e_eta = eta.exponent(ell)
        if e_eta is None:
            continue
        # kappa = eta(l) l^(s_shift-1) omega^a(l) on component a, a unit
        d, coef = _ind(p, ell), pw[e_eta] * pow(ell, s_shift - 1, mod)
        kappas = [(0, coef * pw[a * d % pm1] % mod, rel) for a in range(pm1)]
        parts = _one_minus_power(p, kappas, _log_unit_ratio(ell, p, rel), N, rel)
        out = out * IwasawaElement(F.prec, [Series(F.prec, part) for part in parts])
    return out


def geometric_product(sym2: IwasawaElement, kl: IwasawaElement, k: int) -> IwasawaElement:
    """The factorization product: sym2 times the (-(k+1))-twist of kl."""
    _check_int(0, **{"weight parameter k": k})
    return sym2 * kl.twist(-(k + 1))


def geometric_ratio(product: IwasawaElement, kl: IwasawaElement, k: int) -> IwasawaElement:
    """Recover sym2 from the factorization product; divisibility may fail.

    Division runs through divide_exact.  The twisted kl may vanish inside the
    open disc without being divisible by X (kl = X twists to u^-(k+1)(1+X) - 1,
    which vanishes at X = u^(k+1) - 1); a product that does not vanish there
    too is not a multiple and raises DivisibilityError with the offending
    coefficient's degree and component named.  For polynomial inputs the
    quotient keeps the full x_prec window.
    """
    _check_int(0, **{"weight parameter k": k})
    return divide_exact(
        Distribution(product), Distribution(kl.twist(-(k + 1)))
    ).body
