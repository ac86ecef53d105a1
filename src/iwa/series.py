"""Truncated power series over p-adic numbers, and the Iwasawa algebra.

A ``Series`` is one wild-direction component: coefficients of X^0..X^(L-1)
where X = gamma - 1 for the fixed generator gamma of the principal-unit part
of Z_p^x.  It has an a-part and, when the series takes values in the
quadratic extension, an alpha-part; a series without alpha-part mixes freely
into any form (Q_p sits inside every E).

An ``IwasawaElement`` is a full element of the algebra O[Delta][[X]] stored
pre-diagonalized: one Series per tame character omega^i, i = 0..p-2.  Tame
group elements never appear as such — constructors decompose them into the
idempotent basis, which turns twisting into an index shift plus the affine
substitution X -> u^n(1+X) - 1.

Precision semantics:

* each part is a ``Part`` of integer columns with per-coefficient (jagged)
  precision, as in Caruso-Roe-Vaccon and Sage's capped-relative polynomials:
  coefficient i is cells[i] * p^off + O(p^abs_precs[i]), with abs_precs[i]
  = inf for an exact zero, and ``off`` is the smallest valuation of a
  coefficient that is not an exact zero (O(p^A) counting as A), so no
  coefficient is known to less than p^off.  PadicScalars are built only at
  the edge: ``coeff()``, the read-only ``a``/``b`` properties, and the
  constructor, which packs scalars once;
* sums, negation, shifts and caps act cell by cell under the scalar rules;
  products, affine composition and remainders work modulo p^W at offset
  ``off``, with W = (smallest absolute precision) - off >= 0.  That uniform
  degrade *is* the min-rule for the result and keeps the hot loops in
  C-speed big-int arithmetic;
* a scalar multiple, and a linear combination sum_j s_j x_j of series
  (:func:`linear_combination`), takes one pass over the integer columns and
  one normalization per part: each scalar part times each series part is a
  term known modulo p^W as in a product, the terms are summed under the
  scalar rules, and the sum is normalized once;
* a series flagged ``is_polynomial`` has exactly-zero coefficients beyond its
  stored length.  Everything else is a truncation of something longer, and the
  operations that mix degrees (affine composition, evaluation, remainders)
  cap the affected coefficients' precision by the worst contribution a
  degree >= L tail could make.  Those caps are what make vanishing
  certificates honest rather than optimistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import inf

from ._kernel import compose_affine as _k_compose
from ._kernel import cyclotomic_cells as _k_cyclo
from ._kernel import polymul as _k_mul
from .scalars import (
    ExactZeroError,
    PadicScalar,
    Precision,
    PrecisionError,
    QuadExtScalar,
    _vp,
    teichmuller,
)


def u_for(p: int) -> int:
    """The fixed image of gamma under the cyclotomic character: u = 1 + p."""
    return 1 + p


class DivisibilityError(PrecisionError):
    """A claimed exact division failed, with enough context to report why.

    Fields (any may be None): ``degree`` — first offending X-degree;
    ``component`` — tame component index; ``factor`` — (m, j) of the
    cyclotomic factor whose remainder test failed; ``row`` — label attached
    by a caller dividing a specific row of a system.
    """

    def __init__(
        self,
        message: str,
        *,
        degree: int | None = None,
        component: int | None = None,
        factor: tuple[int, int] | None = None,
        row: str | None = None,
    ):
        super().__init__(message)
        self.degree = degree
        self.component = component
        self.factor = factor
        self.row = row

    def payload(self) -> dict:
        out: dict = {"error": "divisibility-failure", "message": str(self)}
        if self.row is not None:
            out["row"] = self.row
        if self.component is not None:
            out["component"] = self.component
        if self.degree is not None:
            out["degree"] = self.degree
        if self.factor is not None:
            out["factor"] = {"m": self.factor[0], "j": self.factor[1]}
        return out


@dataclass(frozen=True)
class FiniteCharacter:
    """A finite-order character datum omega^j * theta * chi_cyc^t.

    ``wild_conductor_exponent`` n means theta has conductor p^(n+1); n = 0 is
    the trivial wild part.  Numeric evaluation is only defined for n = 0 —
    wild characters enter through remainder tests mod cyclotomic polynomials.
    """

    tame_exponent: int
    wild_conductor_exponent: int = 0
    cyclotomic_twist: int = 0

    def __post_init__(self):
        if self.wild_conductor_exponent < 0:
            raise ValueError("wild conductor exponent must be >= 0")


# ------------------------------------------------------------- column layer


class Part:
    """One coefficient array as integer columns; see the module docstring.

    Coefficient i is cells[i] * p^off + O(p^abs_precs[i]), with cells[i]
    reduced mod p^(abs_precs[i] - off); an exact zero has cell 0 and
    abs_precs[i] = inf.  A part of exact zeros only has off 0.
    """

    __slots__ = ("p", "off", "cells", "abs_precs")

    def __init__(self, p, off, cells, abs_precs):
        self.p, self.off, self.cells, self.abs_precs = p, off, cells, abs_precs

    @classmethod
    def from_triples(cls, p, triples):
        """The part of normalized (val, unit, rel) triples, val None: exact zero."""
        off = min((v for v, _, _ in triples if v is not None), default=0)
        cells = [0 if v is None else u * p ** (v - off) for v, u, _ in triples]
        return cls(p, off, cells, [inf if v is None else v + r for v, _, r in triples])

    def __len__(self):
        return len(self.cells)

    @property
    def min_abs(self):
        return min(self.abs_precs, default=inf)

    def val(self, i):
        """Valuation of coefficient i: its bound A for O(p^A), None if exact."""
        A, c = self.abs_precs[i], self.cells[i]
        if A == inf:
            return None
        return A if c == 0 else self.off + _vp(c, self.p)

    def scalar(self, i, prec):
        A = self.abs_precs[i]
        if A == inf:
            return PadicScalar.exact_zero(prec)
        return PadicScalar(prec, self.off, self.cells[i], A - self.off)

    def packed(self):
        """(off, W, cells mod p^W) with W = min(abs_precs) - off; None if all exact."""
        A = self.min_abs
        if A == inf:
            return None
        m = self.p ** (A - self.off)
        return self.off, A - self.off, [c % m for c in self.cells]

    def neg(self):
        p, off, precs = self.p, self.off, self.abs_precs
        cells = [c and -c % p ** (A - off) for c, A in zip(self.cells, precs)]
        return Part(p, off, cells, precs)

    def shift(self, d):
        if self.min_abs == inf:
            return self
        return Part(self.p, self.off + d, self.cells, [A + d for A in self.abs_precs])

    def reduce_abs(self, cap):
        """Every coefficient known to at most O(p^cap); exact zeros become O(p^cap)."""
        return _part(self.p, self.off, self.cells, [min(A, cap) for A in self.abs_precs])

    def slice(self, start, stop):
        return _part(self.p, self.off, *_cols(self, start, stop))

    def reverse(self):
        return Part(self.p, self.off, self.cells[::-1], self.abs_precs[::-1])


def _cols(part, start, stop):
    """(cells, abs_precs) of degrees start..stop-1 as stored, exact zeros past the end."""
    pad = max(stop - max(len(part), start), 0)
    return part.cells[start:stop] + [0] * pad, part.abs_precs[start:stop] + [inf] * pad


def _part(p, off, cells, abs_precs):
    """The normalized Part of cells[i] * p^off + O(p^abs_precs[i]).

    Cells may be unreduced, and abs_precs[i] may lie below off: coefficient i
    is then a zero known to O(p^abs_precs[i]).  Normalizing reduces every
    cell and moves off to the smallest valuation present.
    """
    mods: dict = {}
    out = []
    low = inf  # the smallest bound among the zeros to precision
    for c, A in zip(cells, abs_precs):
        if A != inf:
            w = A - off
            c = c % mods.setdefault(w, p**w) if w > 0 else 0
            if not c and A < low:
                low = A
        out.append(c)
    g = math.gcd(*out)
    new = min(low, off + _vp(g, p) if g else inf)
    if new == inf:
        new = off = 0  # exact zeros only
    elif new < off:
        out = [c * p ** (off - new) for c in out]
    elif new > off:
        out = [c // p ** (new - off) for c in out]
    return Part(p, new, out, abs_precs)


def _add_parts(x, y, L):
    """x + y on degrees 0..L-1 under the scalar rules (missing parts: exact zeros).

    A sum is known to the smaller absolute precision of its terms, and an
    exact zero adds nothing, not even a precision bound.
    """
    (xc, xa), (yc, ya) = _cols(x, 0, L), _cols(y, 0, L)
    off = min((s.off for s in (x, y) if s.min_abs != inf), default=0)
    sx, sy = x.p ** max(x.off - off, 0), x.p ** max(y.off - off, 0)
    cells, abs_precs = [], []
    for cx, ax, cy, ay in zip(xc, xa, yc, ya):
        cells.append(cx * sx + cy * sy)
        abs_precs.append(ax if ay == inf else ay if ax == inf else min(ax, ay))
    return _part(x.p, off, cells, abs_precs)


def _sum_terms(p, L, terms):
    """The Part of the terms' sum on degrees 0..L-1 (no terms: exact zeros).

    A term (n, off, A, cells, mult) is cells[i] * mult * p^off + O(p^A) at
    degrees i < n and an exact zero past them, with at least n cells; cells
    and mult may be unreduced.  So each coefficient is known to the smallest
    A among the terms that reach it, and the sum is normalized once.
    """
    if not terms:
        return Part(p, 0, [0] * L, [inf] * L)
    base = min(t[1] for t in terms)
    cells, abs_precs = [0] * L, [inf] * L
    for n, off, A, xs, mult in terms:
        n = min(n, L)
        f = mult * p ** (off - base)
        if f:
            cells[:n] = [c + x * f for c, x in zip(cells[:n], xs)]
        abs_precs[:n] = [a if a < A else A for a in abs_precs[:n]]
    return _part(p, base, cells, abs_precs)


def unpack_part(p, packed, length, caps=None):
    """The Part of ``length`` cells packed as (off, W, cells): each is
    cells[i] * p^off + O(p^(off + W)), missing cells are zeros, and a width
    W <= 0 counts as 0 (zeros known to O(p^off)).  ``packed`` None gives exact
    zeros; ``caps`` optionally lowers cell i's width to caps[i].
    """
    if packed is None:
        return Part(p, 0, [0] * length, [inf] * length)
    off, W, cells = packed
    W = max(W, 0)
    abs_precs = [off + W] * length if caps is None else [off + min(W, cap) for cap in caps]
    return _part(p, off, cells[:length] + [0] * (length - len(cells)), abs_precs)


def cyclotomic_degree(p: int, m: int) -> int:
    """deg Phi_{p^m} = p^(m-1)(p-1), and 1 for the linear factor at m = 0."""
    return 1 if m == 0 else p ** (m - 1) * (p - 1)


def _divmod_cells(cells, phi, m):
    """Euclidean (quotient, remainder) of cells by phi mod m, phi's top a unit.

    Runs from the top down, so it is exact for a completely known dividend;
    the remainder has len(phi) - 1 cells.
    """
    D = len(phi) - 1
    top_inv = pow(phi[D] % m, -1, m)
    R = [c % m for c in cells]
    Q = [0] * max(len(R) - D, 0)
    for n in range(len(R) - 1, D - 1, -1):
        t = R[n] * top_inv % m
        if t:
            Q[n - D] = t
            base = n - D
            for i in range(D):
                if phi[i]:
                    R[base + i] = (R[base + i] - t * phi[i]) % m
        R[n] = 0
    return Q, R[:D]


def _tail_floor(part, order: float, L: int, p: int) -> int:
    """Worst valuation the unseen tail of a tempered series can reach.

    A growth order of ``order`` means coefficient valuations follow a trend
    val(n) >= C - order*log_p(n); the constant is calibrated on the visible
    window and the trend evaluated at the window edge, minus a digit of
    slack because the actual staircase is rougher than the trend.  Entries
    past the edge dive only logarithmically while every extra reduction step
    gains a whole digit, so the edge is where the bound is tightest.  The
    part must hold a coefficient that is not an exact zero.
    """
    vals = [(n, part.val(n)) for n in range(len(part))]
    trend = [v + order * math.log(max(n, 1), p) for n, v in vals if v is not None]
    return math.floor(min(trend) - order * math.log(L, p)) - 1


# ------------------------------------------------------------------ scalars

_SCALARS = (int, Fraction, PadicScalar, QuadExtScalar)


def _merge_forms(f, g):
    """The form data two operands share; None is Q_p and mixes into any form."""
    if f is None:
        return g
    if g is not None and f != g:
        raise ValueError("mixing series from different forms")
    return f


def _check_prime(c, p):
    """Refuse a scalar over another prime than the series it meets."""
    if c.prec.p != p:
        raise PrecisionError(f"a scalar over p = {c.prec.p} met a series over p = {p}")


def _scalar_triples(s, prec):
    """(a, b, form) of the scalar s as ``Series.constant(s, prec)`` stores it.

    a and b are (val, unit, rel) triples, None for an exact zero; b and form
    are None unless s is a QuadExtScalar.  An int or Fraction is read to
    prec.p_prec digits, and a scalar over another prime raises PrecisionError.
    """
    if isinstance(s, QuadExtScalar):
        parts, form = (s.a, s.b), (s.k, s.eps_seed)
    elif isinstance(s, PadicScalar):
        parts, form = (s, None), None
    else:
        parts, form = (PadicScalar.from_fraction(Fraction(s), prec), None), None
    for c in parts:
        if c is not None:
            _check_prime(c, prec.p)
    a, b = (None if c is None or c.val is None else (c.val, c.unit, c.rel) for c in parts)
    return a, b, form


# -------------------------------------------------------------------- Series


class Series:
    """One wild-direction truncated series; see the module docstring."""

    __slots__ = ("prec", "form", "_a", "_b", "is_polynomial")

    def __init__(self, prec, a, b=None, form=None, is_polynomial=False):
        """a and b are PadicScalar arrays, packed here once, or Parts.

        A scalar over another prime raises PrecisionError, as in make."""
        if b is not None and form is None:
            raise ValueError("a b-part needs form data (k, eps_seed)")
        if b is not None and len(b) != len(a):
            raise ValueError("a/b coefficient arrays must have equal length")

        def pack(part):
            if isinstance(part, Part):
                return part
            for c in part:
                _check_prime(c, prec.p)
            return Part.from_triples(prec.p, [(c.val, c.unit, c.rel) for c in part])

        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "_a", pack(a))
        object.__setattr__(self, "_b", None if b is None else pack(b))
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "is_polynomial", is_polynomial)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Series is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, prec: Precision, form=None) -> "Series":
        return cls(prec, (), None if form is None else (), form, is_polynomial=True)

    @classmethod
    def make(cls, prec, coeffs, *, form=None, rel=None, is_polynomial=False) -> "Series":
        """Build from a mixed list of scalars / QuadExtScalars / ints / Fractions."""
        aa, bb = [], []
        has_b = False
        for c in coeffs:
            cb = PadicScalar.exact_zero(prec)
            if isinstance(c, (PadicScalar, QuadExtScalar)):
                _check_prime(c, prec.p)
            if isinstance(c, QuadExtScalar):
                f = (c.k, c.eps_seed)
                if form is None:
                    form = f
                elif form != f:
                    raise ValueError("mixing coefficients from different forms")
                c, cb, has_b = c.a, c.b, True
            elif not isinstance(c, PadicScalar):
                c = PadicScalar.from_fraction(Fraction(c), prec, rel)
            aa.append(c)
            bb.append(cb)
        return cls(
            prec, aa, bb if has_b else None, form, is_polynomial=is_polynomial
        )

    @classmethod
    def constant(cls, c, prec: Precision, rel=None) -> "Series":
        return cls.make(prec, [c], rel=rel, is_polynomial=True)

    @classmethod
    def x(cls, prec: Precision, rel=None) -> "Series":
        return cls.make(prec, [0, 1], rel=rel, is_polynomial=True)

    @classmethod
    def monomial(cls, n: int, prec: Precision, c=1, rel=None) -> "Series":
        return cls.make(prec, [0] * n + [c], rel=rel, is_polynomial=True)

    # -- structure ---------------------------------------------------------

    @property
    def a(self) -> tuple:
        """The a-part as PadicScalars, built on each read."""
        return tuple(self._a.scalar(i, self.prec) for i in range(self.length))

    @property
    def b(self) -> tuple | None:
        """The alpha-part as PadicScalars; None when there is none."""
        if self._b is not None:
            return tuple(self._b.scalar(i, self.prec) for i in range(self.length))

    @property
    def length(self) -> int:
        return len(self._a)

    @property
    def known_length(self):
        return inf if self.is_polynomial else len(self._a)

    def _parts(self):
        return (self._a,) if self._b is None else (self._a, self._b)

    def coeff(self, n: int):
        """Coefficient of X^n; QuadExtScalar when the series has form data."""
        L = len(self._a)
        if n >= L and not self.is_polynomial:
            raise IndexError(f"coefficient {n} is beyond the known length {L}")
        zero = PadicScalar.exact_zero(self.prec)
        an = self._a.scalar(n, self.prec) if n < L else zero
        if self.form is None:
            return an
        bn = self._b.scalar(n, self.prec) if self._b is not None and n < L else zero
        return QuadExtScalar(an, bn, *self.form)

    def order_lower(self) -> int | None:
        """First index that could be nonzero (exact zeros skipped); None if none."""
        return self._first(lambda x, i: x.abs_precs[i] != inf)

    def first_nonzero(self) -> int | None:
        """First index whose coefficient is not zero to precision; None if none."""
        return self._first(lambda x, i: x.cells[i])

    def _first(self, hit) -> int | None:
        parts = self._parts()
        return next((i for i in range(len(self._a)) if any(hit(x, i) for x in parts)), None)

    @property
    def is_zero_to_precision(self) -> bool:
        return self.first_nonzero() is None

    def min_abs_prec(self):
        """Smallest coefficient absolute precision (inf for an all-exact polynomial)."""
        return min(x.min_abs for x in self._parts())

    def _merge_form(self, other: "Series"):
        return _merge_forms(self.form, other.form)

    def _coerce(self, other) -> "Series | None":
        if isinstance(other, _SCALARS):
            return Series.constant(other, self.prec)
        return other if isinstance(other, Series) else None

    def _check_compat(self, other: "Series"):
        if self.prec.p != other.prec.p or self.prec.p_prec != other.prec.p_prec:
            raise PrecisionError("precision mismatch between series")

    def _sum(self, other: "Series") -> tuple:
        """The a- and b-parts of self + other; b is None when neither has one."""
        known = min(self.known_length, other.known_length)
        L = max(len(self._a), len(other._a)) if known == inf else int(known)
        if self._b is None and other._b is None:
            return _add_parts(self._a, other._a, L), None
        empty = Part(self.prec.p, 0, [], [])
        b = _add_parts(self._b or empty, other._b or empty, L)
        return _add_parts(self._a, other._a, L), b

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_compat(other)
        form = self._merge_form(other)
        poly = self.is_polynomial and other.is_polynomial
        return Series(self.prec, *self._sum(other), form, is_polynomial=poly)

    __radd__ = __add__

    def __neg__(self):
        return self._map_parts(Part.neg)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return linear_combination((other,), (self,))
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compat(other)
        form = self._merge_form(other)
        p = self.prec.p
        cap = self.prec.x_prec
        of, og = self.order_lower(), other.order_lower()
        if of is None or og is None:
            return Series.zero(self.prec, form)
        if self.is_polynomial and other.is_polynomial:
            true_len = len(self._a) + len(other._a) - 1
            L = min(true_len, cap)
            poly = true_len <= cap
        else:
            known = min(self.known_length + og, other.known_length + of, cap)
            L = int(known)
            poly = False

        parts = (self._a, self._b, other._a, other._b)
        Fa, Fb, Ga, Gb = (None if x is None else x.packed() for x in parts)

        def conv(X, Y, shift=0):
            if X is None or Y is None:
                return unpack_part(p, None, L)
            (ox, wx, cx), (oy, wy, cy) = X, Y
            W = min(wx, wy)
            cells = _k_mul(cx, cy, p**W, L)
            if shift:
                # alpha^2 = -eps * p^(k+1) folds the b*b term into the a-part
                t = teichmuller(form[1], self.prec, W).unit if W else 0
                cells = [-c * t for c in cells]
            return unpack_part(p, (ox + oy + shift, W, cells), L)

        aa = conv(Fa, Ga)
        if Fb is not None and Gb is not None:
            aa = _add_parts(aa, conv(Fb, Gb, form[0] + 1), L)
        bb = None
        if self._b is not None or other._b is not None:
            bb = _add_parts(conv(Fa, Gb), conv(Fb, Ga), L)
        return Series(self.prec, aa, bb, form, is_polynomial=poly)

    __rmul__ = __mul__

    def shift_val(self, d: int) -> "Series":
        """Multiply by p**d exactly (valuation offset; no precision change)."""
        if d == 0:
            return self
        return self._map_parts(lambda x: x.shift(d))

    def reduce_abs(self, abs_prec: int) -> "Series":
        return self._map_parts(lambda x: x.reduce_abs(abs_prec))

    def with_p_prec(self, p_prec: int) -> "Series":
        """Relabel the container's p-adic depth without touching the digits.

        Coefficient precision lives in the columns, so this only swaps the
        ambient context — useful for mixing values produced under different
        working depths over the same prime.
        """
        if p_prec == self.prec.p_prec:
            return self
        return self._map_parts(lambda x: x, self.prec.with_p_prec(p_prec))

    def _map_parts(self, fn, prec=None, is_polynomial=None) -> "Series":
        """fn applied to the a-part and to the b-part, if any; the form is kept."""
        return Series(
            self.prec if prec is None else prec,
            fn(self._a),
            None if self._b is None else fn(self._b),
            self.form,
            is_polynomial=self.is_polynomial if is_polynomial is None else is_polynomial,
        )

    # -- composition and evaluation ---------------------------------------

    def compose_affine(self, c: PadicScalar, d: PadicScalar) -> "Series":
        """The series at c + d*X, for v(c) >= 1 and d a unit.

        A polynomial takes any c and d in Z_p; a c or d of negative valuation
        raises PrecisionError, since the packed kernel works modulo p^W.

        For a non-polynomial input of length L the degree >= L tail mixes into
        coefficient j with valuation at least (L - j) v(c) + (tail floor), and
        the result's precision is capped accordingly.
        """
        if d.is_zero_to_precision:
            raise PrecisionError("affine composition needs a unit X-coefficient")
        vc = inf if c.val is None else c.val
        if not self.is_polynomial and vc < 1:
            raise PrecisionError(
                "composition with v(c) < 1 would lose all X-adic precision"
            )
        if vc < 0 or d.val < 0:
            raise PrecisionError("affine composition needs c and d of valuation >= 0")
        L = len(self._a)
        if L == 0:
            return self
        p = self.prec.p

        def do_part(part):
            packed = part.packed()
            if packed is None:
                return part
            off, W, cells = packed
            W = min(W, c.abs_prec, d.abs_prec)
            caps = None
            if W > 0:
                m = p**W
                mc = 0 if c.is_zero_to_precision else c.unit * p**c.val % m
                cells = _k_compose(cells, mc, d.unit * p**d.val % m, m)
                if not self.is_polynomial and vc != inf:
                    floor = min(0, off)
                    caps = [int((L - j) * vc) + floor - off for j in range(L)]
            return unpack_part(p, (off, W, cells), L, caps)

        return self._map_parts(do_part)

    def evaluate(self, x: PadicScalar):
        """Horner evaluation at a scalar x with v(x) >= 1 (the open unit disc)."""
        L = len(self._a)
        if L == 0:
            if self.form is None:
                return PadicScalar.exact_zero(self.prec)
            return QuadExtScalar.zero(self.prec, *self.form)
        vx = inf if x.val is None else x.val
        if not self.is_polynomial and vx < 1:
            raise PrecisionError("evaluation outside the open unit disc")
        acc = self.coeff(L - 1)
        for n in range(L - 2, -1, -1):
            acc = acc * x + self.coeff(n)
        if not self.is_polynomial and vx != inf:
            cap = int(L * vx)
            # a missing alpha-part is exact zeros, and those have offset 0
            fa, fb = (min(0, 0 if x is None else x.off) for x in (self._a, self._b))
            if self.form is None:
                acc = acc.reduce_abs(cap + fa)
            else:
                a, b = acc.a.reduce_abs(cap + fa), acc.b.reduce_abs(cap + fb)
                acc = QuadExtScalar(a, b, *self.form)
        return acc

    # -- remainders --------------------------------------------------------

    def remainder_mod(self, phi: "Series", growth_order=None) -> "Series":
        """Remainder of this series modulo a distinguished polynomial.

        ``phi`` must be an honest polynomial (is_polynomial set) over Q_p with
        unit top coefficient and p-divisible lower coefficients — cyclotomic
        factors qualify.  For a non-polynomial dividend the unknown tail can
        seep down; each reduction trades at most deg(phi) degrees for at least
        min-valuation-gain digits, and the remainder's precision is capped by
        the resulting worst-case bound.  A non-polynomial dividend no longer
        than deg(phi) determines no remainder coefficient and raises
        PrecisionError.

        The cap needs a model of how deep the unseen tail coefficients sit.
        By default they are assumed no worse than the visible floor; for a
        dividend with genuinely unbounded growth pass ``growth_order`` so the
        floor is extrapolated along the tempered trend instead — otherwise
        the cap overstates what the window determines.
        """
        if not phi.is_polynomial or phi._b is not None:
            raise ValueError("modulus must be a polynomial over Q_p")
        D = len(phi._a) - 1
        while D >= 0 and not phi._a.cells[D]:
            D -= 1
        if D < 0:
            raise ValueError("modulus is zero at this precision")
        if phi._a.val(D) != 0:
            raise ValueError("modulus top coefficient must be a unit")
        L = len(self._a)
        if L <= D:
            if not self.is_polynomial:
                # the unseen X^L.. terms reduce into every remainder degree
                raise PrecisionError(
                    f"a truncated dividend of length {L} does not determine "
                    f"its remainder modulo a degree-{D} polynomial"
                )
            return self
        p = self.prec.p
        low = phi._a.slice(0, D + 1)
        offp, Wp, cphi = low.packed()
        if offp != 0:
            raise ValueError("modulus is not distinguished (offset != 0)")
        # all lower coefficients exactly zero: the modulus is X^D
        gmin = min((v for v in map(low.val, range(D)) if v is not None), default=Wp)

        def do_part(part):
            packed = part.packed()
            if packed is None:
                return unpack_part(p, None, D)
            off, W, cells = packed
            W = min(W, Wp)
            caps = None
            if W > 0:
                _, cells = _divmod_cells(cells, cphi, p**W)
                if not self.is_polynomial:
                    steps = -(-(L - D + 1) // D)  # ceil
                    if growth_order is not None:
                        floor = min(0, _tail_floor(part, float(growth_order), L, p))
                    else:
                        floor = min(0, off)
                    caps = [gmin * steps + floor - off] * D
            return unpack_part(p, (off, W, cells), D, caps)

        return self._map_parts(do_part, is_polynomial=True)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return not any(x is not None and any(x.cells) for x in self._sum(-other))

    __hash__ = None

    def __repr__(self):
        kind = "poly" if self.is_polynomial else "series"
        E = "" if self._b is None else " +alpha-part"
        return f"Series({kind}, len={len(self._a)}, p={self.prec.p}{E})"


def linear_combination(scalars, series) -> Series:
    """sum_j scalars[j] * series[j], in one pass over the integer columns.

    Scalars are ints, Fractions, PadicScalars or QuadExtScalars, and there is
    at least one term.  The result equals, cell for cell, the sum of the
    products x_j * Series.constant(s_j, x_j.prec) added from the left.
    Every nonzero pair of a scalar part and a series part is one term, known
    modulo p^W at the smaller of the two parts' packed widths W; the b*b
    term folds into the a-part through alpha^2 = -eps * p^(k+1).  The terms
    are summed under the scalar rules and each output part is normalized
    once.

    A zero scalar or an all-exact-zero series contributes the length-0
    polynomial zero.  The result is as long as the shortest truncated term,
    or the longest term when all are polynomials; a term s_j * x_j is
    min(len x_j, x_prec) long, and a polynomial if x_j is one that fits.
    """
    if len(scalars) != len(series) or not series:
        raise ValueError(f"{len(scalars)} scalars for {len(series)} series")
    first = series[0]
    prec, p = first.prec, first.prec.p
    form = None
    known, longest, has_b = inf, 0, False
    a_terms, b_terms, bb_terms = [], [], []
    for j, (s, x) in enumerate(zip(scalars, series)):
        sa, sb, sform = _scalar_triples(s, x.prec)
        tform = _merge_forms(x.form, sform)
        if j:
            first._check_compat(x)
        form = _merge_forms(form, tform)
        if (sa is None and sb is None) or x.min_abs_prec() == inf:
            has_b = has_b or tform is not None
            continue
        has_b = has_b or x._b is not None or sform is not None
        L = min(len(x._a), x.prec.x_prec)
        if x.is_polynomial and len(x._a) <= x.prec.x_prec:
            longest = max(longest, L)
        else:
            known = min(known, L)
        for X, x_is_b in ((x._a, False), (x._b, True)):
            if X is None or X.min_abs == inf:
                continue
            wx = X.min_abs - X.off
            for S, s_is_b in ((sa, False), (sb, True)):
                if S is None:
                    continue
                v, u, r = S
                W = min(wx, r)
                if x_is_b and s_is_b:
                    off = X.off + v + tform[0] + 1
                    bb_terms.append((L, off, off + W, X.cells, u))
                else:
                    off = X.off + v
                    terms = b_terms if x_is_b or s_is_b else a_terms
                    terms.append((L, off, off + W, X.cells, u))
    if bb_terms:
        # one Teichmuller unit at the widest term serves every narrower one
        W = max(A - off for _, off, A, _, _ in bb_terms)
        t = teichmuller(form[1], prec, W).unit if W else 0
        a_terms += [(n, off, A, xs, -u * t) for n, off, A, xs, u in bb_terms]
    L = longest if known == inf else known
    b = _sum_terms(p, L, b_terms) if has_b else None
    return Series(prec, _sum_terms(p, L, a_terms), b, form, is_polynomial=known == inf)


# ------------------------------------------------------- cyclotomic factors


def cyclotomic_factor(
    m: int, j: int, prec: Precision, *, u: int | None = None, rel: int | None = None
) -> Series:
    """Phi_{p^m}(u^{-j} (1+X)) truncated mod X^x_prec.

    Built from binomial rows (:func:`iwa._kernel.cyclotomic_cells`): with
    z = u^{-j}(1+X) and e = p^(m-1), the coefficient of X^n is
    sum_{i<p} u^{-j i e} C(i e, n).  No division anywhere, so every
    coefficient is known to the full working modulus.  The degenerate level
    m = 0 is the linear factor z - 1 (exactly X when j = 0), the one cut out
    by the trivial wild character; it is stored with exact rational
    coefficients.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    p = prec.p
    if u is None:
        u = u_for(p)
    W = prec.p_prec if rel is None else rel
    if m == 0:
        uj_exact = Fraction(1, u**j) if j >= 0 else Fraction(u ** (-j))
        coeffs = [uj_exact - 1, uj_exact]
        if prec.x_prec < 2:
            return Series.make(prec, coeffs[:1], rel=W, is_polynomial=False)
        return Series.make(prec, coeffs, rel=W, is_polynomial=True)
    mod = p**W
    N = prec.x_prec
    cells = _k_cyclo(p, m, pow(u, -j, mod), mod, N)  # min(N, deg + 1) cells
    aa = unpack_part(p, (0, W, cells), len(cells))
    return Series(prec, aa, is_polynomial=cyclotomic_degree(p, m) + 1 <= N)


# ------------------------------------------------------------ IwasawaElement


class IwasawaElement:
    """An element of the Iwasawa algebra, stored as p-1 tame components."""

    __slots__ = ("prec", "u", "components")

    def __init__(self, prec: Precision, components, u: int | None = None):
        components = tuple(components)
        if len(components) != prec.p - 1:
            raise ValueError(f"need {prec.p - 1} components, got {len(components)}")
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "u", u_for(prec.p) if u is None else u)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("IwasawaElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, prec: Precision, u: int | None = None) -> "IwasawaElement":
        z = Series.zero(prec)
        return cls(prec, [z] * (prec.p - 1), u)

    @classmethod
    def one(cls, prec: Precision, u: int | None = None) -> "IwasawaElement":
        c = Series.constant(1, prec)
        return cls(prec, [c] * (prec.p - 1), u)

    @classmethod
    def from_diagonal(
        cls, series: Series, u: int | None = None
    ) -> "IwasawaElement":
        """Embed a pure wild-direction series: the same series in every component."""
        return cls(series.prec, [series] * (series.prec.p - 1), u)

    @classmethod
    def from_component(
        cls, i: int, series: Series, u: int | None = None
    ) -> "IwasawaElement":
        prec = series.prec
        comps = [Series.zero(prec)] * (prec.p - 1)
        comps[i % (prec.p - 1)] = series
        return cls(prec, comps, u)

    # -- plumbing ----------------------------------------------------------

    def _check_compat(self, other: "IwasawaElement"):
        if self.prec != other.prec:
            raise PrecisionError("precision mismatch between Iwasawa elements")
        if self.u != other.u:
            raise PrecisionError("mismatched cyclotomic generator images")

    def _map_components(self, fn):
        return self._zip_components(self, lambda f, _: fn(f))

    def _zip_components(self, other, fn):
        memo: dict = {}
        out = []
        for f, g in zip(self.components, other.components):
            key = (id(f), id(g))
            if key not in memo:
                memo[key] = fn(f, g)
            out.append(memo[key])
        return IwasawaElement(self.prec, out, self.u)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, IwasawaElement):
            return NotImplemented
        self._check_compat(other)
        return self._zip_components(other, lambda f, g: f + g)

    def __sub__(self, other):
        if not isinstance(other, IwasawaElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._map_components(lambda s: -s)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if not isinstance(other, IwasawaElement):
            return NotImplemented
        self._check_compat(other)
        return self._zip_components(other, lambda f, g: f * g)

    __rmul__ = __mul__

    def scale(self, s) -> "IwasawaElement":
        return self._map_components(lambda c: c * s)

    def with_p_prec(self, p_prec: int) -> "IwasawaElement":
        """Relabel the ambient p-adic depth on every component (lossless)."""
        if p_prec == self.prec.p_prec:
            return self
        return IwasawaElement(
            self.prec.with_p_prec(p_prec),
            [s.with_p_prec(p_prec) for s in self.components],
            self.u,
        )

    # -- algebra-specific operations --------------------------------------

    def twist(self, n: int) -> "IwasawaElement":
        """Tw_n: sigma -> chi_cyc^n(sigma) sigma.

        Component i moves to i - n; the wild variable maps by
        X -> u^n (1+X) - 1.
        """
        if n == 0:
            return self
        pm1 = self.prec.p - 1
        rel = self._working_digits() + 4
        un = Fraction(self.u) ** n
        c = PadicScalar.from_fraction(un - 1, self.prec, rel)
        d = PadicScalar.from_fraction(un, self.prec, rel)
        k = n % pm1  # component i + n lands on i
        moved = self.components[k:] + self.components[:k]
        return IwasawaElement(self.prec, moved, self.u)._map_components(
            lambda x: x.compose_affine(c, d)
        )

    def idempotent_project(self, j: int) -> "IwasawaElement":
        pm1 = self.prec.p - 1
        z = Series.zero(self.prec)
        comps = [z] * pm1
        comps[j % pm1] = self.components[j % pm1]
        return IwasawaElement(self.prec, comps, self.u)

    def evaluate_at_character(self, ch: FiniteCharacter):
        """Value at omega^tame * chi_cyc^t; wild parts are not evaluated numerically."""
        if ch.wild_conductor_exponent != 0:
            raise ValueError(
                "wild characters are handled via remainder_mod_cyclotomic, "
                "not numeric evaluation"
            )
        comp = self.components[ch.tame_exponent % (self.prec.p - 1)]
        t = ch.cyclotomic_twist
        rel = self._working_digits() + 4
        x = PadicScalar.from_fraction(Fraction(self.u) ** t - 1, self.prec, rel)
        return comp.evaluate(x)

    def remainder_mod_cyclotomic(self, m: int, j: int, growth_order=None) -> Series:
        """Component j reduced mod Phi_{p^m}(u^{-j}(1+X)).

        A zero remainder certifies vanishing at every character chi_cyc^j theta
        with theta of wild conductor exponent m (m = 0: the linear factor for
        the trivial wild character).  ``growth_order`` feeds the remainder's
        trust cap; see Series.remainder_mod.
        """
        D = cyclotomic_degree(self.prec.p, m)
        if D + 1 > self.prec.x_prec:  # Phi is a polynomial only with D + 1 terms
            raise PrecisionError(
                f"x_prec={self.prec.x_prec} too small for deg Phi = {D}"
            )
        comp = self.components[j % (self.prec.p - 1)]
        phi = cyclotomic_factor(
            m, j, self.prec, u=self.u, rel=self._working_digits() + 4
        )
        return comp.remainder_mod(phi, growth_order=growth_order)

    # -- inspection --------------------------------------------------------

    def _working_digits(self) -> int:
        """A safe mantissa width covering every coefficient of every component.

        A part's coefficients lie in p^min(0, off) Z_p and are known to at
        most its largest finite absolute precision, so the difference covers
        them all.
        """
        out = self.prec.p_prec
        for s in {id(s): s for s in self.components}.values():
            for part in s._parts():
                top = max((A for A in part.abs_precs if A != inf), default=None)
                if top is not None:
                    out = max(out, top - min(0, part.off))
        return out

    @property
    def is_zero_to_precision(self) -> bool:
        return all(s.is_zero_to_precision for s in self.components)

    def min_x_length(self) -> int:
        return min(s.length for s in self.components)

    def min_abs_prec(self):
        return min(s.min_abs_prec() for s in self.components)

    def __eq__(self, other):
        if not isinstance(other, IwasawaElement):
            return NotImplemented
        self._check_compat(other)
        return all(f == g for f, g in zip(self.components, other.components))

    __hash__ = None

    def __repr__(self):
        nz = [i for i, s in enumerate(self.components) if not s.is_zero_to_precision]
        return f"IwasawaElement(p={self.prec.p}, u={self.u}, nonzero tame {nz})"


# ------------------------------------------------------------------ division


def _weierstrass_split(G: Series):
    """(P, U) with G = P*U, P distinguished and U = p^v times a unit; or None.

    By Weierstrass preparation (Washington, Introduction to Cyclotomic Fields,
    7.1) a polynomial G over Q_p whose content is p^v is p^v * P * unit, where
    P is monic of degree lambda, the first index of minimal valuation, with
    p-divisible lower coefficients: P carries G's zeros in the open unit disc.
    Returns None when lambda = 0, i.e. G has no such zeros.  Both factors are
    polynomials known to G's packed working width.
    """
    prec, p = G.prec, G.prec.p
    off, W, cells = G._a.packed()
    if W < 1:
        raise PrecisionError(
            "the divisor's Weierstrass degree is not determined at this precision"
        )
    lam = next(i for i, c in enumerate(cells) if c % p)
    if lam == 0:
        return None
    m = p**W
    P = [0] * lam + [1]
    U, R = _divmod_cells(cells, P, m)
    while any(R):
        # solve U * delta = R mod X^lam; since P is X^lam mod p, moving P by
        # delta leaves a remainder at least one digit deeper than R
        inv0 = pow(U[0], -1, m)
        delta = []
        for i in range(lam):
            s = R[i]
            for j in range(1, min(i, len(U) - 1) + 1):
                s -= U[j] * delta[i - j]
            delta.append(s * inv0 % m)
        P = [(c + e) % m for c, e in zip(P, delta)] + [1]
        U, R = _divmod_cells(cells, P, m)
    return (
        Series(prec, unpack_part(p, (0, W, P), len(P)), is_polynomial=True),
        Series(prec, unpack_part(p, (off, W, U), len(U)), is_polynomial=True),
    )


def _back_substitute(num, den, n):
    """The first n terms of Q with Q*den = num, on the parts' integer columns.

    ``den`` is a divisor over Q_p; both parts read as exact zeros past their
    end.  Each step obeys the scalar rules exactly: q[m] is num[m] plus the
    products -den[i]*q[m-i] (each at the smaller relative precision, exact
    zeros dropped), times 1/den[0] at the smaller relative precision.  A run
    of min-abs additions is the exact sum of its terms reduced once, at the
    smallest absolute precision among them, with the p-power stripped; so
    each degree reduces once.  Quotient coefficients are (val, unit, rel)
    triples until packed.  An exact or zero-to-precision den[0] raises as
    PadicScalar.inverse does.
    """
    p = den.p
    terms = []  # (i, val, unit, rel) of den's coefficients, exact zeros left out
    for i in range(min(n, len(den))):
        v = den.val(i)
        if v is not None:
            terms.append((i, v, den.cells[i] // p ** (v - den.off), den.abs_precs[i] - v))
    if not terms or terms[0][0]:
        raise ExactZeroError("division by exact zero")
    _, v0, u0, r0 = terms.pop(0)
    if r0 == 0:
        raise PrecisionError(f"division by zero-to-precision O(p^{v0})")
    vi, ri = -v0, r0
    ui = pow(u0, -1, p**r0)
    pw = [1]
    q = []
    for m in range(n):
        c = num.cells[m] if m < len(num) else 0
        A = num.abs_precs[m] if m < len(num) else inf
        live = [(num.off, c)] if c else []
        for i, gv, gu, gr in terms:
            if i > m:
                break
            qv, qu, qr = q[m - i]
            if qv is None:
                continue
            e = gv + qv
            rr = gr if gr < qr else qr
            if e + rr < A:
                A = e + rr
            if rr:
                live.append((e, -gu * qu))
        if A == inf:
            q.append((None, 0, 0))
            continue
        live = [t for t in live if t[0] < A]
        if live:
            base = min(e for e, _ in live)
            while len(pw) <= A - base:
                pw.append(pw[-1] * p)
            s = sum(c * pw[e - base] for e, c in live) % pw[A - base]
        else:
            s = 0
        if s == 0:
            sv, su, sr = A, 0, 0
        else:
            k = 0
            while s % p == 0:
                s //= p
                k += 1
            sv, su, sr = base + k, s, A - base - k
        r = sr if sr < ri else ri
        q.append((sv + vi, su * ui % pw[r] if r else 0, r))
    return Part.from_triples(p, q)


def _quotient_by_monic(F: Series, P: Series) -> Series:
    """Euclidean quotient of a polynomial F by a monic polynomial P over Q_p.

    It runs from the top: with n = deg F - deg P + 1, rev(F) = rev(Q) * rev(P)
    mod X^n, and rev(P) starts with P's top coefficient, a unit known to P's
    width.  So rev(Q) is the first n terms of _back_substitute(rev(F),
    rev(P)), one solve per part.
    """
    n = F.length - P.length + 1
    if n <= 0:  # nothing to solve for, and the kernel needs a divisor term
        return F._map_parts(lambda x: x.slice(0, 0))
    rev = P._a.reverse()
    return F._map_parts(lambda x: _back_substitute(x.reverse(), rev, n).reverse())


def divide_series(F: Series, G: Series, growth_order=None) -> Series:
    """Quotient Q with Q*G = F, refusing an F that misses G's zeros in the open disc.

    A divisor whose alpha-part is not exactly zero is divided through its
    norm: F/G is F*conj(G) / (G*conj(G)), and G*conj(G) lies over Q_p.  Let d be the lowest
    degree of the (Q_p) divisor that is nonzero to precision; F must vanish
    below it.  Beyond that, by Weierstrass preparation G/X^d = P * p^v * unit
    with P distinguished of degree lambda (see _weierstrass_split), and F is
    divisible by G exactly when F/X^d is divisible by P.  For a polynomial
    divisor (every coefficient known) with lambda > 0 this is tested: the
    remainder of F/X^d modulo P (Series.remainder_mod, with ``growth_order``
    as the model of a truncated dividend's tail) must be zero to precision,
    else DivisibilityError names the degree of its first nonzero coefficient.
    A truncated divisor's window certifies no lambda, so its open-disc zeros
    are checked only by the cyclotomic certificates divide_exact applies
    (Distribution.cyclo_factors).

    The quotient of two polynomials keeps the full x_prec window; otherwise
    its length is the shared window minus d.  It is computed by
    back-substitution from degree d on the integer columns under
    PadicScalar's precision rules (_back_substitute), the a- and b-parts of
    a Q_p(alpha) dividend as two Q_p solves; two polynomials with lambda > 0
    divide as (F/X^d quo P) / U, so no digit is lost to G's zeros.  The
    monic quotient F/X^d quo P is the same kernel run on the reversed
    columns (_quotient_by_monic): its relative precision is capped at P's
    width, which the division by U, known to that width, caps it to anyway.
    Precision follows scalar propagation, plus a cap accounting for any
    below-d coefficients of F or G that are only zero to finite precision.
    """
    F._check_compat(G)
    if G._b is not None and G._b.min_abs != inf:
        conj = Series(G.prec, G._a, G._b.neg(), G.form, G.is_polynomial)
        norm = G * conj  # its alpha-part cancels; only the Q_p part is kept
        if G.is_polynomial and not norm.is_polynomial:
            raise PrecisionError(
                "the divisor's norm G*conj(G) does not fit in the X-window"
            )
        return divide_series(
            F * conj, Series(G.prec, norm._a, is_polynomial=norm.is_polynomial),
            growth_order,
        )
    form = F._merge_form(G)
    window = min(F.known_length, G.known_length)  # inf for two polynomials

    d = G.first_nonzero()
    if d is None:
        raise DivisibilityError("divisor is zero at this precision")

    low_bounds = []
    for i in range(d):
        fparts = F._parts() if i < F.length else ()
        if any(x.cells[i] for x in fparts):
            raise DivisibilityError(
                f"dividend has a nonzero coefficient at degree {i}, below the "
                f"divisor's order {d}",
                degree=i,
            )
        # the coefficients here are zero to precision: keep their O(p^A) bounds
        low_bounds += [x.abs_precs[i] for x in (G._a,) + fparts if x.abs_precs[i] != inf]

    num = F._map_parts(lambda x: x.slice(d, F.length))
    den = Series(G.prec, G._a.slice(d, G.length), None, G.form, G.is_polynomial)
    split = _weierstrass_split(den) if G.is_polynomial else None
    if split is not None:
        P, U = split
        lam = P.length - 1
        if not F.is_polynomial and num.length <= lam:
            raise PrecisionError(
                f"a dividend window of {num.length} past degree {d} cannot test "
                f"the divisor's {lam} zeros in the open disc"
            )
        n = num.remainder_mod(P, growth_order=growth_order).first_nonzero()
        if n is not None:
            raise DivisibilityError(
                f"dividend misses the divisor's {lam} zero(s) in the open "
                f"disc: its remainder modulo their distinguished polynomial "
                f"is nonzero at degree {n}",
                degree=n,
            )
        if F.is_polynomial:
            num, den = _quotient_by_monic(num, P), U

    qlen = F.prec.x_prec if window == inf else max(window - d, 0)
    if not qlen:
        return Series(F.prec, (), None, form)
    qa = _back_substitute(num._a, den._a, qlen)
    qb = None
    if num.form is not None or den.form is not None:
        # a Q_p divisor acts on the a- and b-parts separately
        qb = _back_substitute(num._b or Part(F.prec.p, 0, [], []), den._a, qlen)
    if low_bounds:
        # below-pivot coefficients of F or G known only as O(p^A) perturb the
        # quotient by about G_top^{-1} * O(p^A) * Q; cap accordingly (the
        # offset 0 of an all-exact part is harmless: only min(0, vq) counts)
        vq = Fraction(qa.off)
        if qb is not None:
            vq = min(vq, qb.off + Fraction(form[0] + 1, 2))  # v(alpha)
        cap = math.floor(min(low_bounds) + min(0, vq) - G._a.val(d))
        qa, qb = qa.reduce_abs(cap), None if qb is None else qb.reduce_abs(cap)
    return Series(F.prec, qa, qb, form)
