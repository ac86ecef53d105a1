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
  B_0..B_n, is cached, so D f^n B_n(a/f) is an integer, summed by Horner's
  rule in a over the row times the powers of f.  Rational characters
  return one exact Fraction; irrational ones read each B_n(a/f) as a
  scalar from its integer numerator and D f^n, with one modular inverse
  per call.
* :func:`kl_value` — the interpolation formula for p-adic L-values at
  s = 1 - n.  This is the oracle of record: the series construction below is
  certified against it and never the other way around.
* :func:`smoothed_moment` / :func:`kl_series` — the measure-theoretic
  construction.  The c-smoothed regularization of the B_1 distribution is a
  genuine Z_p-measure; its twisted moments have a closed form, each read
  with its twisted primitive character from a cache keyed by the exponent
  of omega.  The branch series is recovered by Newton interpolation through
  those moments at the points u^{-m} - 1.  Divided differences of an
  integral power series at points of pZ_p are p-integral, so every table
  entry is checked for integrality as a construction self-test, and the
  interpolation tail drops one digit per node past the window — the node
  budget makes the truncation error provably smaller than the requested
  precision.  The divided-difference table and its expansion into monomials
  (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 5) run on (val,
  unit, rel) triples under the scalar rules, so they give the PadicScalar
  results digit for digit: each cell is one two-term difference
  (_sub_triples) against a shared table of p-powers.  The node difference
  u^-r - u^-s is u^-r (1 - u^(r-s)), so its inverse unit is u^r times the
  inverse unit of 1 - u^(r-s): one modular inverse per column of the table,
  not one per cell.  The divisor that removes the smoothing factor raises
  1+X to log<c>/log(u), and pollack.log_p_unit sums both logarithms on
  integers.
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

from .dieudonne import PhiModule
from .distributions import Distribution, divide_exact
from .pollack import log_p_unit
from .scalars import (_MR_BOUND, PadicScalar, Precision, PrecisionError, _check_odd_prime,
                      _check_rel, _is_prime, _vp, teichmuller)
from .series import FiniteCharacter, IwasawaElement, Part, Series, u_for

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
    # and the recursion stays two calls deep.
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    s = sum(math.comb(n + 1, k) * _bernoulli_number(k) for k in range(n) if k < 2 or k % 2 == 0)
    return -s / (n + 1)


@lru_cache(maxsize=None)
def _bernoulli_row(n: int) -> tuple:
    """(D, row) with D the common denominator of B_0..B_n and row[i] = C(n,i) B_i D.

    So D F^n B_n(a/F) = sum_i row[i] F^i a^(n-i) is an integer for integers a, F.
    """
    bs = [_bernoulli_number(i) for i in range(n + 1)]
    D = math.lcm(*(b.denominator for b in bs))
    return D, tuple(math.comb(n, i) * (b * D).numerator for i, b in enumerate(bs))


@lru_cache(maxsize=None)
def _omega_powers(p: int, prec: Precision, rel: int) -> tuple:
    """Powers of the fixed Teichmuller generator, index = exponent.

    Memoized, so one Teichmuller lift serves every call at a precision; the
    tuple is shared by the callers, and scalars are immutable.
    """
    base = teichmuller(_primitive_root(p), prec, rel)
    out = [PadicScalar.from_int(1, prec, rel)]
    for _ in range(p - 2):
        out.append(out[-1] * base)
    return tuple(out)


def _sub_triples(x: tuple, y: tuple, p: int, pp) -> tuple:
    """x - y for (val, unit, rel) triples under PadicScalar's rules.

    Neither is an exact zero; units may be signed and unreduced.  As in
    series._back_substitute, the difference is the exact one reduced once,
    at the smaller absolute precision A, with the p-power stripped.  pp[k]
    is p^k, for k up to the larger rel of the two.
    """
    xv, xu, xr = x
    yv, yu, yr = y
    A = xv + xr if xv + xr < yv + yr else yv + yr
    if xv <= yv:
        v0, s = xv, xu
        if yv - xv < A - v0:  # deeper terms vanish mod p^(A - v0)
            s -= yu * pp[yv - xv]
    else:
        v0, s = yv, -yu
        if xv - yv < A - v0:
            s += xu * pp[xv - yv]
    w = A - v0
    if w <= 0:
        return A, 0, 0
    s %= pp[w]
    if s == 0:
        return A, 0, 0
    k = 0
    while s % p == 0:
        s //= p
        k += 1
    return v0 + k, s, w - k


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
    # the least divisor dd of the modulus with chi trivial on units = 1 mod dd
    for dd in range(1, modulus + 1):
        if modulus % dd == 0 and all(
            table[a] in (None, 0) for a in range(1 % dd, modulus, dd)
        ):
            return dd
    return modulus  # pragma: no cover - the full modulus always works


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
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
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
        elsewhere: every table is built here, after p is checked."""
        _check_odd_prime(p)
        return cls(p, modulus, tuple(
            exponent(a) if math.gcd(a, modulus) == 1 else None for a in range(modulus)
        ))

    @classmethod
    def trivial(cls, p: int, modulus: int = 1) -> "DirichletCharacter":
        return cls._on_units(p, modulus, lambda a: 0)

    @classmethod
    def teichmuller_power(cls, p: int, j: int) -> "DirichletCharacter":
        """omega^j as a character mod p."""
        return cls._on_units(p, p, lambda a: j * _ind(p, a))

    @classmethod
    def quadratic(cls, p: int, d: int) -> "DirichletCharacter":
        """The quadratic character of conductor d (d in {1, 3, 4, 8, odd squarefree})."""
        if d < 1 or (d % 2 == 0 and d not in (4, 8)):
            raise ValueError(f"no quadratic character of conductor {d}")
        half = (p - 1) // 2

        def exponent(a):
            # (a/d) for odd d; the Kronecker symbols (-4/a) = (-1/a) and
            # (8/a) = (2/a) on odd a for d = 4, 8
            sign = _jacobi(a, d) if d % 2 else _jacobi(-1 if d == 4 else 2, a)
            return 0 if sign == 1 else half

        ch = cls._on_units(p, d, exponent)
        if ch.conductor != d:
            raise ValueError(f"{d} is not the conductor of a primitive quadratic character")
        return ch

    # -- structure ---------------------------------------------------------

    def exponent(self, a: int):
        """The exponent of chi(a), or None when chi(a) = 0."""
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
        return _omega_powers(self.p, prec, rel)[e]

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

    B_n(a/F) is read from one cached integer row per n (see _bernoulli_row):
    with D the common denominator of B_0..B_n, D F^n B_n(a/F) is the integer
    sum_i C(n,i) B_i D F^i a^(n-i), evaluated by Horner's rule in a.  So no
    Fraction arithmetic runs per term: the rational path forms one exact
    Fraction, and the p-adic path reads each B_n(a/F) to the digits
    from_fraction gives the exact value, from integers and one modular
    inverse per call.  A negative rel raises a ValueError.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    _check_rel(rel)
    if prec is not None:
        _same_prime(eta, prec.p)
    psi = eta.primitive()
    F = psi.conductor
    D, row = _bernoulli_row(n)

    # D F^n B_n(a/F) = sum_i row[i] F^i a^(n-i): the F-powers enter the row
    # once per call, so Horner's rule in a multiplies by small ints only
    row_f, Fi = [], 1
    for r in row:
        row_f.append(r * Fi)
        Fi *= F

    def scaled(a):
        acc = 0
        for r in row_f:
            acc = acc * a + r
        return acc

    units = [a for a in range(1, F + 1) if math.gcd(a, F) == 1]
    if psi.is_rational_valued:
        # F^(n-1) sum_a psi(a) B_n(a/F), with psi(a) = +-1
        tot = sum(scaled(a) if psi.exponent(a) == 0 else -scaled(a) for a in units)
        return Fraction(tot, D * F)
    if prec is None:
        raise ValueError(
            "character values are irrational over Q; pass a precision context"
        )
    rel = prec.p_prec + 8 if rel is None else rel
    # B_n(a/F) = scaled(a) / (D F^n) as from_fraction reads it: valuation
    # v(scaled(a)) - v(D F^n), unit the quotient of the two prime-to-p parts,
    # so one modular inverse serves every a
    p, DF = psi.p, D * F**n
    vden = _vp(DF, p)
    inv = pow(DF // p**vden, -1, p**rel)
    pw = _omega_powers(p, prec, rel)
    tot = PadicScalar.exact_zero(prec)
    for a in units:
        s = scaled(a)
        if s:  # an exact zero adds nothing
            v = _vp(s, p)
            tot = tot + pw[psi.exponent(a)] * PadicScalar(prec, v - vden, s // p**v * inv, rel)
    return tot * PadicScalar.from_fraction(Fraction(F) ** (n - 1), prec, rel)


def _as_scalar(x, prec: Precision, rel: int) -> PadicScalar:
    if isinstance(x, PadicScalar):
        return x
    return PadicScalar.from_fraction(Fraction(x), prec, rel)


def _interpolation_factor(psi: DirichletCharacter, n: int, prec: Precision, rel: int,
                          pw) -> PadicScalar:
    """(1 - psi(p) p^(n-1)) B_{n, psi} / n for a primitive psi.

    ``pw`` are the omega-powers, read only when p does not divide the
    conductor of psi; it may be None otherwise.
    """
    p = psi.p
    one = PadicScalar.from_int(1, prec, rel)
    B = _as_scalar(gen_bernoulli(n, psi, prec, rel), prec, rel)
    ep = psi.exponent(p)
    if ep is None:
        euler = one
    else:
        euler = one - pw[ep] * PadicScalar.from_fraction(Fraction(p) ** (n - 1), prec, rel)
    return euler * B / PadicScalar.from_int(n, prec, rel)


# ------------------------------------------------------------ L-values


def kl_value(eta: DirichletCharacter, one_minus_n: int, prec: Precision,
             rel: int | None = None) -> PadicScalar:
    """The p-adic L-value at s = 1 - n, n >= 1, by the interpolation formula

        L_p(eta, 1-n) = -(1 - eta omega^{-n}(p) p^{n-1}) B_{n, eta omega^{-n}} / n.

    Odd characters give exact zero (every branch value vanishes; that is a
    result, not an error).  The only pole of the theory sits at s = 1 on the
    trivial branch, and asking for it raises, as does a negative rel.
    """
    _same_prime(eta, prec.p)
    _check_rel(rel)
    n = 1 - one_minus_n
    if n <= 0:
        if n == 0 and eta.primitive().conductor == 1:
            raise ValueError(
                "s = 1 is the pole of the zeta branch; no value exists there"
            )
        raise ValueError("values are defined at s = 1 - n with n >= 1")
    if eta.is_odd:
        return PadicScalar.exact_zero(prec)
    rel = prec.p_prec + 6 if rel is None else rel
    p = eta.p
    psi = _twisted_primitive(eta, -n % (p - 1))
    pw = None if psi.exponent(p) is None else _omega_powers(p, prec, rel)
    return -_interpolation_factor(psi, n, prec, rel, pw)


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
    """
    if m < 0:
        raise ValueError("moment index must be nonnegative")
    _same_prime(eta, prec.p)
    _check_rel(rel)
    p = eta.p
    if c <= 1 or math.gcd(c, p * eta.modulus) != 1:
        raise ValueError("smoothing constant must exceed 1 and be prime to p and the modulus")
    rel = prec.p_prec + 8 if rel is None else rel
    psi = _twisted_primitive(eta, omega_exponent % (p - 1))
    pw = _omega_powers(p, prec, rel)
    one = PadicScalar.from_int(1, prec, rel)
    ec = psi.exponent(c)
    smooth = one - pw[ec] * PadicScalar.from_int(c ** (m + 1), prec, rel)
    return smooth * _interpolation_factor(psi, m + 1, prec, rel, pw)


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


def _log_unit_ratio(c: int, p: int, prec: Precision, rel: int) -> PadicScalar:
    """log<c> / log(u): the exponent writing <c> as a power of u."""
    num = log_p_unit(c ** (p - 1) - 1, p, rel + 4, prec) / (p - 1)
    den = log_p_unit(u_for(p) - 1, p, rel + 4, prec)
    return num / den


def _binomial_series(exponent: PadicScalar, length: int, prec: Precision,
                     rel: int) -> list:
    """Coefficients of (1+X)^exponent to the given length."""
    out = [PadicScalar.from_int(1, prec, rel)]
    acc = PadicScalar.from_int(1, prec, rel)
    for k in range(1, length):
        acc = acc * (exponent - (k - 1)) / PadicScalar.from_int(k, prec, rel)
        out.append(acc)
    return out


def _kl_core(eta: DirichletCharacter, branch_i: int, prec: Precision) -> dict:
    """Everything shared by the series and the pointwise branch values."""
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
    rel = prec.p_prec + E + _vp(math.factorial(E), p) + 16
    wprec = prec.with_p_prec(rel)
    u = u_for(p)
    M = p**rel

    # Node m is u^-m - 1 = u^-m (1 - u^m) to rel digits, as a (val, unit, rel)
    # triple; node 0 is the exact zero.  1 - u^m = w[m] p^nv[m], w[m] a unit.
    nv = [math.inf] + [_vp(u**m - 1, p) for m in range(1, E)]
    w = [0] + [(1 - u**m) // p ** nv[m] for m in range(1, E)]
    u_pow = [pow(u, m, M) for m in range(E)]
    u_inv = pow(u, -1, M)
    nodes = [(None, 0, 0)] + [
        (nv[m], w[m] * pow(u_inv, m, M) % M, rel) for m in range(1, E)
    ]
    # No moment is an exact zero: on an even branch B_{m+1,psi} has the
    # parity that makes it nonzero, and the smoothing and Euler factors are
    # PadicScalar differences, which never return one.  So no triple in the
    # table or the expansion below has val None, and _sub_triples needs no
    # exact-zero case.
    dd = []
    for m in range(E):
        v = -smoothed_moment(eta0, b - m, m, c, wprec, rel)
        if v.val < 0:
            raise ArithmeticError(
                "smoothed moment came out non-integral; the regularization is broken"
            )
        dd.append((v.val, v.unit, v.rel))
    # dd[row] <- (dd[row] - dd[row-1]) / (node[row] - node[row-col]) on triples.
    # The node difference is u^-row (1 - u^col): valuation nv[col], known to
    # rel + min(nv[row], nv[row-col]) - nv[col] digits as a scalar difference
    # of the two nodes, and its inverse unit is u^row w[col]^-1.  The residue
    # is unique, so one modular inverse per column gives every cell's.  No
    # entry carries more than rel digits, so p^0..p^rel are all the powers
    # read here and in the expansion below.
    pp = [p**k for k in range(rel + 1)]
    for col in range(1, E):
        vd, wi = nv[col], pow(w[col], -1, M)
        for row in range(E - 1, col - 1, -1):
            x, xu, xr = _sub_triples(dd[row], dd[row - 1], p, pp)
            r = min(xr, rel + min(nv[row], nv[row - col]) - vd)
            dd[row] = (x - vd, xu * u_pow[row] * wi % pp[r] if r else 0, r)
    for entry in dd:
        if entry[0] < 0:
            raise ArithmeticError(
                "divided differences left Z_p; the moment formula is off"
            )

    # Newton form to monomials, truncated at X^N: poly <- poly * (X - node[m])
    # + dd[m], from the top node down.  Every entry is a normalized triple;
    # node 0 is the exact zero, where the product by X - node is a shift.
    N = prec.x_prec
    poly = [dd[E - 1]]
    for m in range(E - 2, -1, -1):
        nodev, nodeu, _ = nodes[m]
        nxt = [dd[m]] + poly[:N - 1]
        if nodev is not None:
            for dg in range(min(len(poly), N)):
                pv, pu, pr = poly[dg]
                r = min(rel, pr)  # node * poly[dg] at the smaller relative precision
                prod = (nodev + pv, nodeu * pu if r else 0, r)
                nxt[dg] = _sub_triples(nxt[dg], prod, p, pp)
        poly = nxt

    comps = [Series.zero(wprec) for _ in range(pm1)]
    comps[i] = Series(wprec, Part.from_triples(p, poly), is_polynomial=False)
    smoothed = IwasawaElement(wprec, comps, u)

    psi0 = eta0 * DirichletCharacter.teichmuller_power(p, b)
    psi0_c = psi0.value(c, wprec, rel) * c
    e_c = _log_unit_ratio(c, p, wprec, rel)
    dcoeffs = _binomial_series(-e_c, N, wprec, rel)
    one = PadicScalar.from_int(1, wprec, rel)
    dser = [one - psi0_c * dcoeffs[0]] + [-(psi0_c * t) for t in dcoeffs[1:]]
    dcomp = [Series.zero(wprec) for _ in range(pm1)]
    dcomp[i] = Series(wprec, tuple(dser), None, None, is_polynomial=False)
    divisor = IwasawaElement(wprec, dcomp, u)

    bracket_c = PadicScalar.from_fraction(Fraction(c), wprec, rel) / teichmuller(
        c % p, wprec, rel
    )
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
    core = _kl_core(eta, branch_i, prec)
    if not core["even"]:
        return [PadicScalar.exact_zero(prec) for _ in s_points]
    one = PadicScalar.from_int(1, core["wprec"], core["rel"])
    out = []
    for s in s_points:
        if s > 0:
            raise ValueError("branch values are computed at integers s <= 0")
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
    u = _omega_powers(p, prec, rel)[t % (p - 1)]
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
    js = sorted(set(int(j) for j in j_range))
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
    if c <= 1:
        raise ValueError("smoothing constant must exceed 1")
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
    if coprime_to < 1:
        raise ValueError(f"coprime_to must be a positive integer, got {coprime_to}")
    p, m = chi_eps.p, chi_eps.modulus
    for c in range(2, 4 * p * p * max(coprime_to, m, 2)):
        # the factor vanishes only when c^{2j-2k-4} is the root of unity
        # (chi eps)(c)^{-2}; here 2j-2k-4 >= 2, and no positive power of an
        # integer c > 1 is a root of unity, so any c with chi eps(c) != 0,
        # that is prime to the modulus, will do
        if math.gcd(c, coprime_to * p * m) == 1:
            return c
    raise ValueError("no admissible smoothing constant found")  # pragma: no cover


# ---------------------------------------------- Euler-factor surgery


def remove_euler_factors(F: IwasawaElement, primes, eta: DirichletCharacter,
                         s_shift: int = 0) -> IwasawaElement:
    """Multiply F by (1 - eta(l) l^{s_shift-1} [l]) for each listed prime l.

    [l] is the group element of l in the Iwasawa algebra: on the tame
    component omega^a it acts by omega^a(l), and on the wild variable by
    (1+X)^{e_l} with e_l the exponent writing <l> as a power of u.  Primes
    with eta(l) = 0 contribute the trivial factor; l = p is not an Euler
    factor of the algebra and is rejected, as is any l that is not a prime.
    """
    p = F.prec.p
    _same_prime(eta, p)
    pm1 = p - 1
    N = F.prec.x_prec
    rel = F.prec.p_prec + 8
    out = F
    pw = _omega_powers(p, F.prec, rel)
    for ell in primes:
        ell = int(ell)
        if ell % p == 0:
            raise ValueError(
                f"ell={ell} is divisible by p={p}; only primes away from p "
                "have removable Euler factors"
            )
        if ell >= _MR_BOUND or not _is_prime(ell):
            raise ValueError(f"ell={ell} is not a prime below {_MR_BOUND}; "
                             "Euler factors are indexed by primes")
        e_eta = eta.exponent(ell)
        if e_eta is None:
            continue
        d = _ind(p, ell)
        e_l = _log_unit_ratio(ell, p, F.prec, rel)
        wild = _binomial_series(e_l, N, F.prec, rel)
        coef = pw[e_eta] * PadicScalar.from_fraction(
            Fraction(ell) ** (s_shift - 1), F.prec, rel
        )
        one = PadicScalar.from_int(1, F.prec, rel)
        comps = []
        for a in range(pm1):
            tame = pw[a * d % pm1]
            head = one - coef * tame * wild[0]
            tail = [-(coef * tame * wk) for wk in wild[1:]]
            comps.append(Series(F.prec, tuple([head] + tail), None, None))
        out = out * IwasawaElement(F.prec, comps, F.u)
    return out


def geometric_product(sym2: IwasawaElement, kl: IwasawaElement, k: int) -> IwasawaElement:
    """The factorization product: sym2 times the (-(k+1))-twist of kl."""
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
    return divide_exact(
        Distribution(product), Distribution(kl.twist(-(k + 1)))
    ).body
