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

The generator is fixed for the package: gamma -> u = 1 + p under the
cyclotomic character (:func:`u_for`).  Twists, cyclotomic factors
Phi_{p^m}(u^{-j}(1+X)) and character values all read that one u, derived
from the prime; no element or factor carries a u of its own.

Precision semantics:

* each part is a ``Part`` of integer columns with per-coefficient (jagged)
  precision, as in Caruso-Roe-Vaccon and Sage's capped-relative polynomials:
  coefficient i is cells[i] * p^off + O(p^abs_precs[i]), with abs_precs[i]
  = inf for an exact zero, and ``off`` is the smallest valuation of a
  coefficient that is not an exact zero (O(p^A) counting as A), so no
  coefficient is known to less than p^off.  PadicScalars are built only at
  the edge: ``coeff()``, the read-only ``a``/``b`` properties, and the
  constructor, which packs scalars once;
* negation, shifts and caps act cell by cell under the scalar rules;
  products, affine composition and remainders work modulo p^W at offset
  ``off``, with W = (smallest absolute precision) - off >= 0.  That uniform
  degrade *is* the min-rule for the result and keeps the hot loops in
  C-speed big-int arithmetic;
* sums, products and sums of products are summed once per output part by
  :func:`_sum_terms`, under the scalar rules: a sum adds the parts with
  their own bounds.  Products have one term builder, :func:`combine`
  (sum_j x_j y_j, a product its one-pair case, :func:`linear_combination`
  and scalar multiples its pairs with constants): one term per pair of
  parts, a scaling by a one-cell factor or else one convolution, known
  modulo p^W at the smaller packed width, with the b*b terms folded through
  alpha^2 = -eps p^(k+1);
* operands meet on one window: a sum or product of two series, as of two
  IwasawaElements, whose ``prec`` differ in p, p_prec or x_prec raises
  PrecisionError, while ``==`` compares across p_prec digit for digit.  An
  exact int or Fraction operand follows the scalar rule
  (``scalars._exact_operand``): it is read to max(A - v + 1, W, p_prec)
  digits, A the series' largest finite cap, v the operand's valuation and
  W the widest packed width min_abs - off of the series' parts, so a sum
  keeps every cap and a product every packed width.  An operand over
  another prime is refused by ``scalars._check_prime``;
* a quotient (:func:`divide_series`) follows the scalar rules of
  back-substitution, each coefficient's cap set before its value
  (:func:`_back_substitute`) and each value read from the products that
  the quotient terms carrying digits scatter ahead;
* a remainder is one multiply-add per dividend cell against the packed
  columns X^k mod phi (:func:`_reduction_columns`), cached per factor;
* most parts are known to one finite cap A on every degree, and then need
  no per-cell bookkeeping: such a part is reduced by one modulus, a sum of
  one-cap terms is known to the least cap, and a dividend of zeros to
  precision at one cap a has the quotient q_m = O(p^(a + min(G*[0..m]) -
  v0)), G* the min-plus star of the divisor's valuations less its pivot's;
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
from functools import lru_cache
from itertools import accumulate, repeat
from math import inf
from operator import add, mul, neg, sub

from ._kernel import _pack
from ._kernel import cyclotomic_cells as _k_cyclo
from ._kernel import polymul as _k_mul
from ._kernel import taylor_shift as _k_shift
from .scalars import (
    ExactZeroError,
    PadicScalar,
    Precision,
    PrecisionError,
    QuadExtScalar,
    _check_int,
    _check_prime,
    _check_types,
    _exact_operand,
    _triple,
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
        _check_int(tame_exponent=self.tame_exponent, cyclotomic_twist=self.cyclotomic_twist)
        _check_int(0, wild_conductor_exponent=self.wild_conductor_exponent)


# ------------------------------------------------------------- column layer


def _memo(obj) -> dict:
    """The private memo of an immutable Series or IwasawaElement.

    It holds values derived from the object alone, so they never go stale;
    it is made on first use, which keeps construction free of it.
    """
    try:
        return obj._memo
    except AttributeError:
        object.__setattr__(obj, "_memo", {})
        return obj._memo


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
        # exact zeros and zeros to precision have unit 0 and need no power
        cells = [u * p ** (v - off) if u else 0 for v, u, _ in triples]
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
        """Degrees start..stop-1, normalized; the whole range is the part itself."""
        if start == 0 and stop == len(self):
            return self
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
    cell and moves off to the smallest valuation present.  Most parts are
    known to one finite cap; their cells are reduced by one modulus.
    """
    A = abs_precs[0] if abs_precs else inf
    if A != inf and abs_precs.count(A) == len(abs_precs):
        w = A - off
        if w > 0:
            m = p**w
            out = [c % m for c in cells]
        else:
            out = [0] * len(cells)
        low = A if 0 in out else inf
    else:
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
        m = p ** (off - new)
        out = [c * m for c in out]
    elif new > off:
        m = p ** (new - off)
        out = [c // m for c in out]
    return Part(p, new, out, abs_precs)


def _sum_terms(p, L, terms):
    """The Part of the terms' sum on degrees 0..L-1 (no terms: exact zeros).

    A term (off, abs_precs, cells, mult) is cells[i] * mult * p^off +
    O(p^abs_precs[i]) at degrees i < len(abs_precs) and an exact zero past
    them; a missing cell is 0, and cells and mult may be unreduced.  A sum
    is known to the smallest bound among its terms (an exact zero adds no
    bound), the least cap when every term has one cap over the window.
    Sums, products and linear combinations of series all sum here, once.
    """
    base = min((t[0] for t in terms), default=0)
    cells = [0] * L
    for k, (off, precs, xs, mult) in enumerate(terms):
        m = min(len(precs), L, len(xs))
        f = mult * p ** (off - base)
        if not k:  # the first term fills the empty columns
            cells[:m] = xs[:m] if f == 1 else [x * f for x in xs[:m]]
        elif f:
            cells[:m] = [c + x * f for c, x in zip(cells, xs[:m])]
    caps = [t[1] for t in terms]
    if caps and L and all(len(c) >= L and c.count(c[0]) == len(c) for c in caps):
        abs_precs = [min(c[0] for c in caps)] * L
    else:
        abs_precs = [inf] * L
        for c in caps:
            n = min(len(c), L)
            abs_precs[:n] = [a if a < A else A for a, A in zip(abs_precs, c[:n])]
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


def _modulus(phi):
    """(D, off, cells, W, gmin, (0, ())): a modulus for Series.remainder_mod.

    ``phi`` must be a polynomial over Q_p whose top nonzero coefficient, at
    degree D, is a unit.  off, W and cells are its coefficients 0..D packed
    (Part.packed), and gmin is the least valuation of a lower coefficient
    (W when all are exact zeros).  The remainder refuses an offset other
    than 0 after its check of the dividend's length, and builds the
    reduction columns, which a cached modulus carries in the last slot.
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
    low = phi._a.slice(0, D + 1)
    off, W, cells = low.packed()
    gmin = min((v for v in map(low.val, range(D)) if v is not None), default=W)
    return D, off, tuple(cells), W, gmin, (0, ())


def _reduction_columns(p, phi, W, n, budget=2**14):
    """(cb, columns): X^k mod phi for D <= k < D + B, mod m = p^W, packed.

    ``phi`` is the cells of a polynomial of degree D >= 1, its top a unit
    mod m; column k - D holds X^k mod phi, a chunk of cb bytes a degree.
    With psi = phi / top and c = -psi_low mod m, X^D = c mod psi, and each
    column is the last shifted up a chunk, its top chunk t dropped and
    (t mod m) * c added: O(B) big-int steps, only t reduced, so chunk i stays
    below (i + 1) m^2.  B is n - D, or fewer past ``budget`` chunks; chunks
    of (B + 1) D m^3 hold B products of a cell below m with a column.
    """
    D = len(phi) - 1
    m = p**W
    B = min(n - D, max(budget // D, 1))
    inv = pow(phi[D], -1, m)
    cb = (((B + 1) * D * m**3).bit_length() + 7) // 8
    c = _pack([-x * inv % m for x in phi[:D]], cb)
    shift, top = 8 * cb, 8 * cb * (D - 1)
    mask = (1 << top) - 1
    return cb, list(accumulate(
        range(B - 1), lambda v, _: ((v & mask) << shift) + (v >> top) % m * c, initial=c))


def _reduce(cells, D, cb, columns, mod):
    """The D cells of (sum cells[k] X^k) mod phi, reduced mod ``mod``.

    ``columns`` are phi's (_reduction_columns), at a width ``mod`` divides.
    D + B cells take one multiply-add per cell past D, the sum's D chunks
    read mod ``mod``; more go by Horner's rule in blocks of B from the top.
    As each column is X^k mod phi, this is the Euclidean remainder, which is
    unique for a divisor whose top is a unit (von zur Gathen-Gerhard,
    Modern Computer Algebra, 9.1).
    """
    cells = [c % mod for c in cells]
    s = max(len(cells) - D - len(columns), 0)
    r = cells[s:]
    while True:
        z = sum(map(mul, r[D:], columns), _pack(r[:D], cb))
        zb = z.to_bytes(cb * D, "little")
        r = [int.from_bytes(zb[i : i + cb], "little") % mod for i in range(0, cb * D, cb)]
        if not s:
            return r
        t = max(s - len(columns), 0)
        r, s = cells[t:s] + r, t


def _tail_floor(part, order: float, L: int, p: int) -> int:
    """Worst valuation the unseen tail of a tempered series can reach.

    A growth order of ``order`` means valuations follow val(n) >= C -
    order*log_p(n); C is calibrated on the visible window and the trend read
    at the window edge, where the bound is tightest, less a digit of slack
    for the staircase.  The part must hold a coefficient that is not an
    exact zero.
    """
    vals = [(n, part.val(n)) for n in range(len(part))]
    trend = [v + order * math.log(max(n, 1), p) for n, v in vals if v is not None]
    return math.floor(min(trend) - order * math.log(L, p)) - 1


# ------------------------------------------------------------------ scalars

_SCALARS = (int, Fraction, PadicScalar, QuadExtScalar)
_EXACT_ZERO = (None, 0, 0)  # the (val, unit, rel) triple of an exact zero


def _merge_forms(f, g):
    """The form data two operands share; None is Q_p and mixes into any form."""
    if f is None:
        return g
    if g is not None and f != g:
        raise ValueError("mixing series from different forms")
    return f


def _scalar_triples(s, prec, rel=None):
    """(a, b, form) of the scalar s as ``Series.constant(s, prec, rel)`` stores it.

    a and b are (val, unit, rel) triples, None for an exact zero; b and form
    are None unless s is a QuadExtScalar.  An int or Fraction is read to rel
    digits (prec.p_prec when rel is None), and a scalar over another prime
    raises PrecisionError.
    """
    if isinstance(s, QuadExtScalar):
        parts, form = (s.a, s.b), (s.k, s.eps_seed)
    elif isinstance(s, PadicScalar):
        parts, form = (s, None), None
    else:
        _check_types("scalar", (s,), _SCALARS)
        parts, form = (PadicScalar.from_fraction(Fraction(s), prec, rel), None), None
    for c in parts:
        if c is not None:
            _check_prime(c, prec.p, host="series")
    a, b = (None if c is None or c.val is None else (c.val, c.unit, c.rel) for c in parts)
    return a, b, form


# -------------------------------------------------------------------- Series


class Series:
    """One wild-direction truncated series; see the module docstring."""

    __slots__ = ("prec", "form", "_a", "_b", "is_polynomial", "_memo")

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
                _check_prime(c, prec.p, host="series")
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
        """Build from a mixed list of scalars / QuadExtScalars / ints / Fractions;
        any other coefficient is refused by name."""
        coeffs = list(coeffs)
        _check_types("scalar", coeffs, _SCALARS)
        aa, bb = [], []
        has_b = False
        for c in coeffs:
            a, b, f = _scalar_triples(c, prec, rel)
            if f is not None:
                if form is None:
                    form = f
                elif form != f:
                    raise ValueError("mixing coefficients from different forms")
                has_b = True
            aa.append(a or _EXACT_ZERO)
            bb.append(b or _EXACT_ZERO)
        p = prec.p
        b = Part.from_triples(p, bb) if has_b else None
        return cls(prec, Part.from_triples(p, aa), b, form, is_polynomial=is_polynomial)

    @classmethod
    def constant(cls, c, prec: Precision, rel=None) -> "Series":
        return cls.make(prec, [c], rel=rel, is_polynomial=True)

    @classmethod
    def x(cls, prec: Precision, rel=None) -> "Series":
        return cls.make(prec, [0, 1], rel=rel, is_polynomial=True)

    @classmethod
    def monomial(cls, n: int, prec: Precision, c=1, rel=None) -> "Series":
        _check_int(0, n=n)
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
        if type(other) in (int, Fraction):  # exact: by the scalar rule
            parts = self._parts()
            caps = [A for x in parts for A in x.abs_precs if A != inf]
            width = max((x.min_abs - x.off for x in parts if x.min_abs != inf), default=0)
            other = _exact_operand(other, self.prec, max(caps, default=inf), width)
        if isinstance(other, _SCALARS):
            return Series.constant(other, self.prec)
        return other if isinstance(other, Series) else None

    def _check_compat(self, other: "Series"):
        if self.prec is not other.prec and self.prec != other.prec:
            raise PrecisionError("precision mismatch between series")

    def _sum(self, other: "Series") -> tuple:
        """The a- and b-parts of self + other; b is None when neither has one."""
        known = min(self.known_length, other.known_length)
        L = max(len(self._a), len(other._a)) if known == inf else int(known)

        def total(*parts):
            live = [x for x in parts if x is not None and x.min_abs != inf]
            return _sum_terms(self.prec.p, L, [(x.off, x.abs_precs, x.cells, 1) for x in live])

        b = None if self._b is None and other._b is None else total(self._b, other._b)
        return total(self._a, other._a), b

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
        other = self._coerce(other)
        return NotImplemented if other is None else combine(((self, other),))

    __rmul__ = __mul__

    def shift_val(self, d: int) -> "Series":
        """Multiply by p**d exactly (valuation offset; no precision change)."""
        if d == 0:
            return self
        return self._map_parts(lambda x: x.shift(d))

    def reduce_abs(self, abs_prec: int) -> "Series":
        return self._map_parts(lambda x: x.reduce_abs(abs_prec))

    def with_p_prec(self, p_prec: int) -> "Series":
        """Relabel the container's p-adic depth without touching the digits,
        which the columns hold: mixes values from other working depths."""
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
        Each part's cells are shifted by c (:func:`_kernel.taylor_shift`, one
        Kronecker product) and cell n is then scaled by d^n.  For a
        truncation of length L the degree >= L tail mixes into coefficient
        j at valuation (L - j) v(c) + (tail floor) or more, which caps it.
        """
        if d.is_zero_to_precision:
            raise PrecisionError("affine composition needs a unit X-coefficient")
        vc = inf if c.val is None else c.val
        if not self.is_polynomial and vc < 1:
            raise PrecisionError("composition with v(c) < 1 would lose all X-adic precision")
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
                ds = accumulate(repeat(d.unit * p**d.val % m, len(cells)),
                                lambda a, b: a * b % m, initial=1)
                cells = [x * y % m for x, y in zip(_k_shift(cells, mc, p, m), ds)]
                if not self.is_polynomial and vc != inf:
                    floor = min(0, off)
                    caps = [int((L - j) * vc) + floor - off for j in range(L)]
            return unpack_part(p, (off, W, cells), L, caps)

        return self._map_parts(do_part)

    def evaluate(self, x: PadicScalar):
        """Horner evaluation at a PadicScalar x with v(x) >= 1 (the open unit
        disc); any other x is refused by name."""
        if not isinstance(x, PadicScalar):
            raise ValueError(f"x must be a PadicScalar, not {x!r}")
        L = len(self._a)
        vx = inf if x.val is None else x.val
        if not self.is_polynomial and vx < 1:
            raise PrecisionError("evaluation outside the open unit disc")
        if L == 0:
            # an empty polynomial is the exact zero; of an empty truncation
            # only the tail cap at L = 0 is known, a zero to O(p^0) per part
            z = PadicScalar.inexact_zero(self.prec, 0)
            if self.is_polynomial:
                z = PadicScalar.exact_zero(self.prec)
            return z if self.form is None else QuadExtScalar(z, z, *self.form)
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
        than deg(phi) raises PrecisionError; modulo a unit (deg(phi) = 0) the
        remainder is the empty polynomial.  The cap assumes the unseen tail
        no worse than the visible floor; for a dividend with unbounded growth
        pass ``growth_order``, which extrapolates the floor along its trend.
        """
        return self._remainder(_modulus(phi), growth_order)

    def _remainder(self, modulus, growth_order) -> "Series":
        """remainder_mod by a modulus already read into columns (_modulus).

        Each part is reduced at the smaller of its own and the modulus'
        widths W by one multiply-add per cell against the columns X^k mod phi
        (_reduce), the Euclidean remainder by uniqueness; a one-off modulus
        has them built here.  Each part's offset, width and tail floor are
        read once per series and ``growth_order`` (_remainder_data).
        """
        D, offp, cphi, Wp, gmin, (cb, cols) = modulus
        if not D:  # mod a unit the remainder is empty, whatever the dividend
            return self._map_parts(lambda x: x.slice(0, 0), is_polynomial=True)
        L = len(self._a)
        if L <= D:
            if not self.is_polynomial:
                # the unseen X^L.. terms reduce into every remainder degree
                raise PrecisionError(
                    f"a truncated dividend of length {L} does not determine "
                    f"its remainder modulo a degree-{D} polynomial"
                )
            return self
        if offp != 0:
            raise ValueError("modulus is not distinguished (offset != 0)")
        p = self.prec.p
        if not cols:
            cb, cols = _reduction_columns(p, cphi, Wp, L)

        def do_part(part, data):
            if data is None:
                return unpack_part(p, None, D)
            off, W, floor = data
            W = min(W, Wp)
            cells, caps = [], None
            if W > 0:
                cells = _reduce(part.cells, D, cb, cols, p**W)
                if floor is not None:
                    steps = -(-(L - D + 1) // D)  # ceil
                    caps = [gmin * steps + floor - off] * D
            return unpack_part(p, (off, W, cells), D, caps)

        data = self._remainder_data(growth_order)
        a = do_part(self._a, data[0])
        b = None if self._b is None else do_part(self._b, data[1])
        return Series(self.prec, a, b, self.form, is_polynomial=True)

    def _remainder_data(self, growth_order) -> tuple:
        """Per part, None for exact zeros, else (off, W, floor): W =
        min(abs_precs) - off, and floor the tail's valuation floor, min(0,
        off) or with ``growth_order`` the trend's (_tail_floor); None for a
        polynomial or W = 0, where no cap is set.  Memoized on the series.
        """
        memo = _memo(self)
        key = ("remainder", growth_order)
        if key not in memo:
            L, p = len(self._a), self.prec.p
            data = []
            for part in self._parts():
                A = part.min_abs
                if A == inf:
                    data.append(None)
                    continue
                floor = None
                if not self.is_polynomial and A > part.off:  # no width: no cap
                    if growth_order is None:
                        floor = min(0, part.off)
                    else:
                        floor = min(0, _tail_floor(part, float(growth_order), L, p))
                data.append((part.off, A - part.off, floor))
            memo[key] = tuple(data)
        return memo[key]

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        """Equality to precision; a series over another prime is refused,
        one at another p_prec compared digit for digit."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        _check_prime(other, self.prec.p, "series", "series")
        return not any(x is not None and any(x.cells) for x in self._sum(-other))

    __hash__ = None

    def __repr__(self):
        kind = "poly" if self.is_polynomial else "series"
        E = "" if self._b is None else " +alpha-part"
        return f"Series({kind}, len={len(self._a)}, p={self.prec.p}{E})"


def _live_parts(s):
    """(s.order_lower(), (b, part, packed width) of each part not all exact
    zeros, b = 1 for the alpha-part), memoized on the series."""
    memo = _memo(s)
    if "live" not in memo:
        parts = [(b, Z, A - Z.off) for b, Z in enumerate(s._parts()) if (A := Z.min_abs) != inf]
        memo["live"] = s.order_lower(), parts
    return memo["live"]


def combine(pairs) -> Series:
    """sum_j x_j * y_j over pairs (x_j, y_j) of series, in one pass over the columns.

    There is at least one pair.  A product is the one-pair case, and the
    result equals, cell for cell, the products added from the left.  Every
    pair of an x-part and a y-part not all exact zeros is one term, known
    modulo p^W at the smaller packed width W and summed by :func:`_sum_terms`:
    a y-part of one cell scales x's cells, any other is one convolution
    (:func:`_kernel.polymul`).  The b*b terms fold into the a-part through
    alpha^2 = -eps * p^(k+1), one Teichmuller unit at the widest serving
    them all.  A pair with a factor of exact zeros only is the length-0
    polynomial zero.  Two polynomials multiply to a polynomial while the
    product fits in x's x_prec, and to its first x_prec terms otherwise;
    any other product is as long as both factors determine it, at most
    x_prec.  The sum is as long as the shortest truncated product, or the
    longest polynomial one.
    """
    first = form = None
    known, longest, has_b = inf, 0, False
    terms, bb_terms = ([], []), []  # a-part, alpha-part; b*b before the fold
    for x, y in pairs:
        x._check_compat(y)
        pform = x._merge_form(y)
        if first is None:
            first, p = x, x.prec.p
        first._check_compat(x)
        form = _merge_forms(form, pform)
        (of, xs), (og, ys) = _live_parts(x), _live_parts(y)
        if of is None or og is None:
            has_b = has_b or pform is not None
            continue
        has_b = has_b or x._b is not None or y._b is not None
        L = min(x.known_length + og, y.known_length + of, x.prec.x_prec)
        n = len(x._a) + len(y._a) - 1
        if x.is_polynomial and y.is_polynomial and n <= L:
            L = n
            longest = max(longest, n)
        else:
            known = min(known, L)
        for xb, X, wx in xs:
            for yb, Y, wy in ys:
                W = min(wx, wy)
                off = X.off + Y.off
                if len(Y.cells) == 1:
                    cells, mult = X.cells, Y.cells[0]
                else:
                    pW = p**W
                    cx, cy = ([c % pW for c in Z.cells] for Z in (X, Y))
                    cells, mult = _k_mul(cx, cy, pW, L), 1
                if xb and yb:
                    bb_terms.append((off + pform[0] + 1, W, L, cells, mult))
                else:
                    terms[xb or yb].append((off, [off + W] * L, cells, mult))
    if first is None:
        raise ValueError("combine needs at least one pair")
    if bb_terms:
        W = max(t[1] for t in bb_terms)
        t = teichmuller(form[1], first.prec, W).unit if W else 0
        terms[0].extend((off, [off + w] * m, cs, -u * t) for off, w, m, cs, u in bb_terms)
    L = longest if known == inf else known
    b = _sum_terms(p, L, terms[1]) if has_b else None
    return Series(first.prec, _sum_terms(p, L, terms[0]), b, form, is_polynomial=known == inf)


def linear_combination(scalars, series) -> Series:
    """sum_j scalars[j] * series[j]: :func:`combine` of each series with
    Series.constant(scalars[j], series[j].prec).

    Scalars are ints, Fractions, PadicScalars or QuadExtScalars, and there is
    at least one term.
    """
    if len(scalars) != len(series) or not series:
        raise ValueError(f"{len(scalars)} scalars for {len(series)} series")
    return combine((x, Series.constant(s, x.prec)) for s, x in zip(scalars, series))


# ------------------------------------------------------- cyclotomic factors


def cyclotomic_factor(m: int, j: int, prec: Precision, *, rel: int | None = None) -> Series:
    """Phi_{p^m}(u^{-j} (1+X)) truncated mod X^x_prec, u = u_for(p) = 1 + p.

    Built from binomial rows (:func:`iwa._kernel.cyclotomic_cells`): with
    z = u^{-j}(1+X) and e = p^(m-1), the coefficient of X^n is
    sum_{i<p} u^{-j i e} C(i e, n), known to the full working modulus.  The
    level m = 0 is the linear factor z - 1 (exactly X when j = 0), cut out
    by the trivial wild character, with exact rational coefficients.
    """
    W = prec.p_prec if rel is None else rel
    _check_int(0, m=m, rel=W)
    _check_int(j=j)
    p, u = prec.p, u_for(prec.p)
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


@lru_cache(maxsize=64)
def _cyclotomic_modulus(p, m, j, rel, x_prec):
    """_modulus of cyclotomic_factor(m, j) with its reduction columns X^k
    mod Phi, D <= k < x_prec, built once per content by X^(k+1) = X * X^k
    (_reduction_columns): every certificate at a window and working width
    shares them.  min((x_prec - D) D, 2^14) chunks of ~3 rel log2(p) bits.
    """
    factor = cyclotomic_factor(m, j, Precision(p, rel, x_prec), rel=rel)
    D, off, cells, W, gmin, _ = _modulus(factor)
    return D, off, cells, W, gmin, _reduction_columns(p, cells, W, x_prec)


# ------------------------------------------------------------ IwasawaElement


class IwasawaElement:
    """An element of the Iwasawa algebra, stored as p-1 tame components.

    The wild variable is X = gamma - 1 for the package's generator gamma -> u
    = 1 + p.  ``u`` is derived from the prime, not stored; the constructor's
    third argument, when given, must be that same 1 + p.
    """

    __slots__ = ("prec", "components", "_memo")

    def __init__(self, prec: Precision, components, u: int | None = None):
        components = tuple(components)
        if len(components) != prec.p - 1:
            raise ValueError(f"need {prec.p - 1} components, got {len(components)}")
        if u is not None and u != u_for(prec.p):
            raise ValueError(f"u = {u} is not the generator image 1 + p = {u_for(prec.p)}")
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "components", components)

    @property
    def u(self) -> int:
        """The image of gamma, u_for(p) = 1 + p."""
        return u_for(self.prec.p)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("IwasawaElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, prec: Precision) -> "IwasawaElement":
        return cls.from_diagonal(Series.zero(prec))

    @classmethod
    def one(cls, prec: Precision) -> "IwasawaElement":
        return cls.from_diagonal(Series.constant(1, prec))

    @classmethod
    def from_diagonal(cls, series: Series) -> "IwasawaElement":
        """Embed a pure wild-direction series: the same series in every component."""
        return cls(series.prec, [series] * (series.prec.p - 1))

    @classmethod
    def from_component(cls, i: int, series: Series) -> "IwasawaElement":
        _check_int(i=i)
        prec = series.prec
        comps = [Series.zero(prec)] * (prec.p - 1)
        comps[i % (prec.p - 1)] = series
        return cls(prec, comps)

    # -- plumbing ----------------------------------------------------------

    def _check_compat(self, other: "IwasawaElement"):
        if self.prec != other.prec:
            raise PrecisionError("precision mismatch between Iwasawa elements")

    @staticmethod
    def _zip_components(fn, *elements) -> "IwasawaElement":
        """The element whose component i is fn of the elements' components i.

        The elements share one window, else PrecisionError.  fn runs once
        per distinct tuple of component objects, keyed by identity, so
        components shared across tame indices (a diagonal element's, a
        zero's) share their result.  The result's window is that of fn's
        results (out[0].prec), so a relabel to another depth maps through
        here too.  This is the package's one component map.
        """
        first = elements[0]
        for e in elements[1:]:
            first._check_compat(e)
        memo: dict = {}
        out = []
        for xs in zip(*(e.components for e in elements)):
            key = tuple(map(id, xs))
            if key not in memo:
                memo[key] = fn(*xs)
            out.append(memo[key])
        return IwasawaElement(out[0].prec, out)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, IwasawaElement):
            return NotImplemented
        return self._zip_components(add, self, other)

    def __sub__(self, other):
        if not isinstance(other, IwasawaElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._zip_components(neg, self)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if not isinstance(other, IwasawaElement):
            return NotImplemented
        return self._zip_components(mul, self, other)

    __rmul__ = __mul__

    def scale(self, s) -> "IwasawaElement":
        return self._zip_components(lambda c: c * s, self)

    def with_p_prec(self, p_prec: int) -> "IwasawaElement":
        """Relabel the ambient p-adic depth on every component (lossless)."""
        if p_prec == self.prec.p_prec:
            return self
        return self._zip_components(lambda s: s.with_p_prec(p_prec), self)

    # -- algebra-specific operations --------------------------------------

    def twist(self, n: int) -> "IwasawaElement":
        """Tw_n: sigma -> chi_cyc^n(sigma) sigma.

        Component i moves to i - n; the wild variable maps by
        X -> u^n (1+X) - 1.
        """
        _check_int(n=n)
        if n == 0:
            return self
        pm1 = self.prec.p - 1
        rel = self._working_digits() + 4
        un = Fraction(self.u) ** n
        c = PadicScalar.from_fraction(un - 1, self.prec, rel)
        d = PadicScalar.from_fraction(un, self.prec, rel)
        k = n % pm1  # component i + n lands on i
        moved = IwasawaElement(self.prec, self.components[k:] + self.components[:k])
        return self._zip_components(lambda x: x.compose_affine(c, d), moved)

    def idempotent_project(self, j: int) -> "IwasawaElement":
        _check_int(j=j)
        return IwasawaElement.from_component(j, self.components[j % (self.prec.p - 1)])

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

        The result is Series.remainder_mod by cyclotomic_factor(m, j) at the
        working width rel = _working_digits() + 4 (memoized on this element),
        by the factor's reduction columns, cached under (p, m, j, rel, x_prec)
        (_cyclotomic_modulus).
        """
        _check_int(0, m=m)
        _check_int(j=j)
        p = self.prec.p
        D = cyclotomic_degree(p, m)
        if D + 1 > self.prec.x_prec:  # Phi is a polynomial only with D + 1 terms
            raise PrecisionError(f"x_prec={self.prec.x_prec} too small for deg Phi = {D}")
        comp = self.components[j % (p - 1)]
        rel = self._working_digits() + 4
        modulus = _cyclotomic_modulus(p, m, j, rel, self.prec.x_prec)
        return comp._remainder(modulus, growth_order)

    # -- inspection --------------------------------------------------------

    def _working_digits(self) -> int:
        """A safe mantissa width covering every coefficient of every component.

        A part's coefficients lie in p^min(0, off) Z_p and are known to at
        most its largest finite absolute precision, so the difference covers
        them all; the finite ones are scanned only when an exact zero's inf
        is the maximum.  Memoized on the element.
        """
        memo = _memo(self)
        if "digits" not in memo:
            out = self.prec.p_prec
            for s in {id(s): s for s in self.components}.values():
                for part in s._parts():
                    top = max(part.abs_precs, default=None)
                    if top == inf:
                        top = max((A for A in part.abs_precs if A != inf), default=None)
                    if top is not None:
                        out = max(out, top - min(0, part.off))
            memo["digits"] = out
        return memo["digits"]

    @property
    def is_zero_to_precision(self) -> bool:
        return all(s.is_zero_to_precision for s in self.components)

    def min_x_length(self) -> int:
        return min(s.length for s in self.components)

    def min_abs_prec(self):
        return min(s.min_abs_prec() for s in self.components)

    def __eq__(self, other):
        """Equality to precision, component by component under Series.__eq__:
        another depth is compared digit for digit, and an element over
        another prime is refused by name, as its first component is, through
        scalars._check_prime."""
        if not isinstance(other, IwasawaElement):
            return NotImplemented
        return all(f == g for f, g in zip(self.components, other.components))

    __hash__ = None

    def __repr__(self):
        nz = [i for i, s in enumerate(self.components) if not s.is_zero_to_precision]
        return f"IwasawaElement(p={self.prec.p}, u={self.u}, nonzero tame {nz})"


# ------------------------------------------------------------------ division


def _weierstrass_split(G: Series):
    """(P, U) with G = P*U, P distinguished and U = p^v times a unit; or None.

    By Weierstrass preparation (Washington, Introduction to Cyclotomic Fields,
    7.1) a polynomial G over Q_p of content p^v is p^v * P * unit, P monic of
    degree lambda, the first index of minimal valuation, with p-divisible
    lower coefficients: P carries G's zeros in the open unit disc (None when
    lambda = 0).  Both factors are known to G's packed working width W.

    P starts at X^lambda.  While the remainder R of G by P (:func:`_reduce`)
    is not 0 mod p^W, P moves by the delta with u * delta = R mod X^lambda,
    u the cells of G quo X^lambda.  As P = X^lambda mod p, G quo P is u mod
    p.  So when R = 0 mod p^j, delta is too, and G - (P + delta) * (G quo P)
    is R - delta * u mod p^(j+1): X^lambda times a multiple of p^j.  As
    X^lambda = P + delta mod p, the remainder by P + delta is 0 mod p^(j+1).
    Each step gains a digit, and the loop ends at the unique distinguished P
    mod p^W.  U is then G at width W quo P (:func:`_quotient_by_monic`).
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
    u = cells[lam:]
    inv0 = pow(u[0], -1, m)
    P = [0] * lam + [1]
    while any(R := _reduce(cells, lam, *_reduction_columns(p, P, W, len(cells)), m)):
        delta = []
        for i in range(lam):
            s = R[i] - sum(map(mul, u[1:i + 1], delta[::-1]))
            delta.append(s * inv0 % m)
        P = [(c + e) % m for c, e in zip(P, delta)] + [1]
    P = Series(prec, unpack_part(p, (0, W, P), len(P)), is_polynomial=True)
    G = Series(prec, unpack_part(p, (off, W, cells), len(cells)), is_polynomial=True)
    return P, _quotient_by_monic(G, P)


@lru_cache(maxsize=64)
def _divisor_plan(p, off, cells, abs_precs, n):
    """What _back_substitute reads of a divisor, cached by content and n.

    gv, gu, gr: each coefficient's valuation (inf for an exact zero, A for
    O(p^A)), unit and relative precision.  On degrees 0..n-1: G*, the
    min-plus star of (gv_i - v0), i >= 1, v0 = gv[0] (G*[k] the least sum of
    gv_i - v0 over chains of degrees summing to k); low, its prefix minima;
    WA[k], the least gv_i + gr_i + G*[k - i], i >= 1 (inf at 0); the slacks
    of degree j, the least WA[k] - low[j + k] and the least G*[k] - low[j +
    k] over k >= 1 with j + k < n (inf at n - 1); and the cells from degree
    1, which a quotient term scatters.
    """
    gv, gu, gr = zip(*[_triple(p, off, c, A) for c, A in zip(cells, abs_precs)])
    g = [v - gv[0] for v in gv[1:]]
    ga = [v + r for v, r in zip(gv[1:], gr[1:])]
    star, wa = [0], [inf]
    for _ in range(1, n):
        back = star[::-1]  # G*[k - 1], ..., G*[0] pair with degrees 1..k
        star.append(min(map(add, g, back), default=inf))
        wa.append(min(map(add, ga, back), default=inf))
    low = tuple(accumulate(star, min))
    slack = tuple(
        tuple(min(map(sub, t[1:n - j], low[j + 1:]), default=inf) for j in range(n))
        for t in (wa, star)
    )
    return gv, gu, gr, slack, tuple(star), low, tuple(wa), cells[1:]


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

    Degree m's sum has the cap A_m, the least of num's cap numA_m and the
    pair terms gv_i + qv_j + min(gr_i, qr_j) = min(gA_i + qv_j, gv_i + qA_j),
    i + j = m, i >= 1 (v valuation, r relative precision, A = v + r cap,
    inf for an exact zero; the tables are _divisor_plan's).  Each cap is set
    before its value, in one form:

    * caps.  A zero-to-precision q_j has qv_j = A_j - v0 and rel 0, so its
      pair term is (gv_i - v0) + A_j; a digit-carrying q_j has qA_j <= A_j -
      v0, so that bound lies at or above its own pair terms, and adding it
      changes no minimum.  Then A_m = min(numA_m, D_m, min over i of (gv_i
      - v0 + A_(m-i))), D_m the pair terms of the digit-carrying q_j, and
      the min-plus recurrence unrolls along chains:
          A_m = min(C[m], min over digit-carrying j < m of
                    min(qv_j + WA[m - j], qA_j + v0 + G*[m - j])),
      C[m] = min over s <= m of (numA_s + G*[m - s]), which for num known
      to one cap a on degrees 0..n-1 is a + low[m].  So the caps start at
      C, and each digit-carrying q_j lowers the later ones as it is found;
    * the skip.  With top[j] the most C[m] - low[m] reaches over m > j
      (a at one cap), C[m] <= top[j] + low[m] for every later m.  So a term
      j with qv_j + min_k (WA[k] - low[j + k]) >= top[j] and qA_j + v0 +
      min_k (G*[k] - low[j + k]) >= top[j], k >= 1 (_divisor_plan's slacks),
      lies at or above every later cap, and its update is skipped;
    * values.  Each digit-carrying q_j adds its products -den[i]*q_j, on
      the divisor's cells and the representative qu_j p^(qv_j - qbase),
      to an accumulator for degrees j + 1..j + reach - 1 at exponent den.off
      + qbase (qbase the least qv_j so far, a lower one rescaling what is
      accumulated).  Degree m reads num's cell plus that sum mod p^A_m:
      congruent to the sum of the pairs the scalar rules keep, since any
      representative of a factor agrees with it to its own cap, a pair
      with gv_i + qv_j >= A_m is 0 mod p^A_m, and a zero-to-precision
      factor adds a 0 cell.  A degree with no digits costs one multiply-add
      and one reduction.

    A num whose cells are all 0 gives no digit-carrying term, so the
    quotient is q_m = O(p^(C[m] - v0)), and exact where C[m] is inf.
    """
    p = den.p
    reach = min(n, len(den))
    if not reach or den.abs_precs[0] == inf:
        raise ExactZeroError("division by exact zero")
    gv, gu, gr, (wslack, gslack), star, low, wa, col = _divisor_plan(
        p, den.off, tuple(den.cells[:reach]), tuple(den.abs_precs[:reach]), n
    )
    v0, u0, r0 = gv[0], gu[0], gr[0]
    if r0 == 0:
        raise PrecisionError(f"division by zero-to-precision O(p^{v0})")
    ui = pow(u0, -1, p**r0)
    off = num.off
    cells, numA = _cols(num, 0, n)
    a = numA[0]
    if numA.count(a) == n:
        caps, top = [a + t for t in low], [a] * n
    else:
        caps = [min(map(add, numA[: m + 1], star[m::-1])) for m in range(n)]
        # top[j], the most any later caps[m] - low[m] reaches
        top = [*accumulate(map(sub, caps[:0:-1], low[:0:-1]), max)][::-1] + [-inf]
    if not any(cells):
        qcaps = [A - v0 for A in caps]
        qoff = min(qcaps)
        return Part(p, 0 if qoff == inf else qoff, [0] * n, qcaps)
    acc = [0] * n  # the digit-carrying terms' products, at exponent E
    E = inf
    b, sc, sa = off, 1, 0  # the sum's base exponent; scales of num's cells and acc
    pw = [1]
    q = []
    for m in range(n):
        A = caps[m]
        if A == inf:
            q.append((None, 0, 0))
            continue
        s = 0
        if b < A:
            while len(pw) <= A - b:
                pw.append(pw[-1] * p)
            s = (cells[m] * sc + acc[m] * sa) % pw[A - b]
        if not s:
            q.append((A - v0, 0, 0))
            continue
        sv, su, sr = _triple(p, b, s, A)
        r = sr if sr < r0 else r0
        qv, qu = sv - v0, su * ui % pw[r]
        q.append((qv, qu, r))
        if qv + wslack[m] < top[m] or sv + r + gslack[m] < top[m]:
            caps[m + 1:] = map(min, caps[m + 1:], map(add, wa[1:], repeat(qv)),
                               map(add, star[1:], repeat(sv + r)))
        e = den.off + qv
        if e < E:
            if E != inf:
                acc[m + 1:] = map(mul, acc[m + 1:], repeat(p ** (E - e)))
            E = e
            b = min(off, E)
            sc, sa = p ** (off - b), p ** (E - b)
        acc[m + 1:m + reach] = map(add, acc[m + 1:m + reach],
                                   map(mul, col, repeat(-qu * p ** (e - E))))
    return Part.from_triples(p, q)


def _quotient_by_monic(F: Series, P: Series) -> Series:
    """Euclidean quotient of a polynomial F by a monic polynomial P over Q_p.

    With n = deg F - deg P + 1, rev(F) = rev(Q) * rev(P) mod X^n, and rev(P)
    starts with P's unit top: rev(Q) is the first n terms of
    _back_substitute(rev(F), rev(P)), one solve per part.
    """
    n = F.length - P.length + 1
    if n <= 0:  # nothing to solve for, and the kernel needs a divisor term
        return F._map_parts(lambda x: x.slice(0, 0))
    rev = P._a.reverse()
    return F._map_parts(lambda x: _back_substitute(x.reverse(), rev, n).reverse())


def divide_series(F: Series, G: Series, growth_order=None) -> Series:
    """Quotient Q with Q*G = F, refusing an F that misses G's zeros in the open disc.

    A divisor whose alpha-part is not exactly zero is divided through its
    norm: F/G is F*conj(G) / (G*conj(G)), and G*conj(G) lies over Q_p.  Let
    d be the lowest degree of the (Q_p) divisor that is nonzero to
    precision; F must vanish below it.  By Weierstrass preparation G/X^d =
    P * p^v * unit with P distinguished of degree lambda (_weierstrass_split),
    and F is divisible by G exactly when F/X^d is divisible by P.  For a
    polynomial divisor with lambda > 0 this is tested: the remainder of F/X^d
    mod P (Series.remainder_mod, ``growth_order`` modelling a truncated
    dividend's tail) must be zero to precision, else DivisibilityError names
    the degree of its first nonzero coefficient.  A truncated divisor's
    open-disc zeros are checked only by divide_exact's cyclotomic
    certificates.

    The quotient of two polynomials keeps the full x_prec window, else the
    shared window minus d.  It is back-substitution from degree d under
    PadicScalar's precision rules (_back_substitute), one Q_p solve per part;
    two polynomials with lambda > 0 divide as (F/X^d quo P) / U, so no digit
    is lost to G's zeros, the monic quotient being the same kernel on the
    reversed columns (_quotient_by_monic), capped at P's width as the
    division by U caps it anyway.  Below-d coefficients of F or G that are
    only zero to finite precision cap the quotient.
    """
    F._check_compat(G)
    if G._b is not None and G._b.min_abs != inf:
        conj = Series(G.prec, G._a, G._b.neg(), G.form, G.is_polynomial)
        norm = G * conj  # its alpha-part cancels; only the Q_p part is kept
        if G.is_polynomial and not norm.is_polynomial:
            raise PrecisionError("the divisor's norm G*conj(G) does not fit in the X-window")
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
