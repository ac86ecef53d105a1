"""Truncated power series over p-adic scalars, and the Iwasawa algebra.

A ``Series`` is one wild-direction component: coefficients of X^0..X^(L-1)
where X = gamma - 1 for the fixed generator gamma of the principal-unit part
of Z_p^x.  Coefficients are PadicScalars, with an optional second array for
the alpha-part when the series takes values in the quadratic extension; a
series without b-part mixes freely into any form (Q_p sits inside every E).

An ``IwasawaElement`` is a full element of the algebra O[Delta][[X]] stored
pre-diagonalized: one Series per tame character omega^i, i = 0..p-2.  Tame
group elements never appear as such — constructors decompose them into the
idempotent basis, which turns twisting into an index shift plus the affine
substitution X -> u^n(1+X) - 1.

Precision semantics:

* every coefficient carries its own (valuation, digits) bookkeeping from the
  scalar layer;
* bulk operations (products, affine composition, remainders) run packed: each
  coefficient array is lowered to integer mantissas modulo p^W at a common
  valuation offset, where W is the smallest absolute precision present minus
  the offset.  That uniform degrade *is* the min-rule for the result and keeps
  the hot loops in C-speed big-int arithmetic;
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


# ------------------------------------------------------------- packed layer


def _pack_part(coeffs, p):
    """(offset, W, cells) for a coefficient array; None if all exact zeros.

    cells[i] * p^offset == coeffs[i] mod p^(offset + W).  W is the smallest
    absolute precision present minus the offset (the min-rule working width).
    """
    off = None
    min_abs = None
    for c in coeffs:
        if c.val is None:
            continue
        a = c.val + c.rel
        min_abs = a if min_abs is None else min(min_abs, a)
        if c.rel:
            off = c.val if off is None else min(off, c.val)
    if min_abs is None:
        return None
    if off is None:
        off = min_abs
    W = max(min_abs - off, 0)
    mod = p**W if W else 1
    cells = []
    for c in coeffs:
        if c.val is None or c.rel == 0 or W == 0:
            cells.append(0)
        else:
            cells.append(c.unit * p ** (c.val - off) % mod)
    return off, W, cells


def _unpack_part(prec, off, W, cells, length):
    out = []
    for i in range(length):
        v = cells[i] if i < len(cells) else 0
        out.append(PadicScalar(prec, off, v, W))
    return tuple(out)


def _combine_packed(pieces, p, length):
    """Sum of packed pieces [(off, W, cells), ...] aligned to a common offset."""
    pieces = [pc for pc in pieces if pc is not None]
    if not pieces:
        return None
    off = min(pc[0] for pc in pieces)
    W = min(pc[0] + pc[1] for pc in pieces) - off
    if W <= 0:
        return off + W, 0, [0] * length
    mod = p**W
    acc = [0] * length
    for o, _w, cells in pieces:
        sh = p ** (o - off)
        for i in range(min(length, len(cells))):
            if cells[i]:
                acc[i] = (acc[i] + cells[i] * sh) % mod
    return off, W, acc


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


def _val_floor(coeffs) -> int | None:
    """Smallest coefficient valuation bound in an array (None if all exact zero)."""
    out = None
    for c in coeffs:
        if c.val is None:
            continue
        out = c.val if out is None else min(out, c.val)
    return out


def _tail_floor(coeffs, order: float, L: int, p: int) -> int | None:
    """Worst valuation the unseen tail of a tempered series can reach.

    A growth order of ``order`` means coefficient valuations follow a trend
    val(n) >= C - order*log_p(n); the constant is calibrated on the visible
    window and the trend evaluated at the window edge, minus a digit of
    slack because the actual staircase is rougher than the trend.  Entries
    past the edge dive only logarithmically while every extra reduction step
    gains a whole digit, so the edge is where the bound is tightest.
    """
    chat = None
    for n, c in enumerate(coeffs):
        if c.val is None:
            continue
        t = c.val + order * math.log(max(n, 1), p)
        chat = t if chat is None else min(chat, t)
    if chat is None:
        return None
    return math.floor(chat - order * math.log(L, p)) - 1


# -------------------------------------------------------------------- Series


class Series:
    """One wild-direction truncated series; see the module docstring."""

    __slots__ = ("prec", "form", "a", "b", "is_polynomial")

    def __init__(self, prec, a, b=None, form=None, is_polynomial=False):
        if b is not None and form is None:
            raise ValueError("a b-part needs form data (k, eps_seed)")
        if b is not None and len(b) != len(a):
            raise ValueError("a/b coefficient arrays must have equal length")
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "a", tuple(a))
        object.__setattr__(self, "b", tuple(b) if b is not None else None)
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
            if isinstance(c, QuadExtScalar):
                f = (c.k, c.eps_seed)
                if form is None:
                    form = f
                elif form != f:
                    raise ValueError("mixing coefficients from different forms")
                aa.append(c.a)
                bb.append(c.b)
                has_b = True
            elif isinstance(c, PadicScalar):
                aa.append(c)
                bb.append(PadicScalar.exact_zero(prec))
            else:
                aa.append(PadicScalar.from_fraction(Fraction(c), prec, rel))
                bb.append(PadicScalar.exact_zero(prec))
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
    def length(self) -> int:
        return len(self.a)

    @property
    def known_length(self):
        return inf if self.is_polynomial else len(self.a)

    def coeff(self, n: int):
        """Coefficient of X^n; QuadExtScalar when the series has form data."""
        if n >= len(self.a):
            if self.is_polynomial:
                if self.form is None:
                    return PadicScalar.exact_zero(self.prec)
                return QuadExtScalar.zero(self.prec, *self.form)
            raise IndexError(f"coefficient {n} is beyond the known length {len(self.a)}")
        if self.form is None:
            return self.a[n]
        bn = self.b[n] if self.b is not None else PadicScalar.exact_zero(self.prec)
        return QuadExtScalar(self.a[n], bn, *self.form)

    def order_lower(self) -> int | None:
        """First index that could be nonzero (exact zeros skipped); None if none."""
        for i in range(len(self.a)):
            if self.a[i].val is not None:
                return i
            if self.b is not None and self.b[i].val is not None:
                return i
        return None

    @property
    def is_zero_to_precision(self) -> bool:
        return all(c.is_zero_to_precision for c in self.a) and (
            self.b is None or all(c.is_zero_to_precision for c in self.b)
        )

    def min_abs_prec(self):
        """Smallest coefficient absolute precision (inf for an all-exact polynomial)."""
        out = inf
        for part in (self.a, self.b) if self.b is not None else (self.a,):
            for c in part:
                if c.val is not None:
                    out = min(out, c.val + c.rel)
        return out

    def _merge_form(self, other: "Series"):
        if self.form is None:
            return other.form
        if other.form is None:
            return self.form
        if self.form != other.form:
            raise ValueError("mixing series from different forms")
        return self.form

    def _part_at(self, part, i):
        if part is None or i >= len(part):
            return PadicScalar.exact_zero(self.prec)
        return part[i]

    def _check_compat(self, other: "Series"):
        if self.prec.p != other.prec.p or self.prec.p_prec != other.prec.p_prec:
            raise PrecisionError("precision mismatch between series")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, PadicScalar, QuadExtScalar)):
            other = Series.constant(other, self.prec)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compat(other)
        form = self._merge_form(other)
        known = min(self.known_length, other.known_length)
        L = max(len(self.a), len(other.a)) if known == inf else int(known)
        aa = [self._part_at(self.a, i) + other._part_at(other.a, i) for i in range(L)]
        need_b = self.b is not None or other.b is not None
        bb = None
        if need_b:
            bb = [
                self._part_at(self.b, i) + other._part_at(other.b, i) for i in range(L)
            ]
        return Series(
            self.prec,
            aa,
            bb,
            form,
            is_polynomial=self.is_polynomial and other.is_polynomial,
        )

    __radd__ = __add__

    def __neg__(self):
        return Series(
            self.prec,
            [-c for c in self.a],
            None if self.b is None else [-c for c in self.b],
            self.form,
            is_polynomial=self.is_polynomial,
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, PadicScalar, QuadExtScalar)):
            other = Series.constant(other, self.prec)
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicScalar, QuadExtScalar)):
            other = Series.constant(other, self.prec)
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
            true_len = len(self.a) + len(other.a) - 1
            L = min(true_len, cap)
            poly = true_len <= cap
        else:
            known = min(self.known_length + og, other.known_length + of, cap)
            L = int(known)
            poly = False
        if L <= 0:
            return Series.zero(self.prec, form)

        Fa = _pack_part(self.a, p)
        Ga = _pack_part(other.a, p)
        Fb = _pack_part(self.b, p) if self.b is not None else None
        Gb = _pack_part(other.b, p) if other.b is not None else None

        def conv(X, Y):
            if X is None or Y is None:
                return None
            ox, wx, cx = X
            oy, wy, cy = Y
            W = min(wx, wy)
            if W <= 0:
                return ox + oy, 0, [0] * L
            return ox + oy, W, _k_mul(cx, cy, p**W, L)

        a_pieces = [conv(Fa, Ga)]
        b_pieces = [conv(Fa, Gb), conv(Fb, Ga)]
        cross = conv(Fb, Gb)
        if cross is not None:
            # alpha^2 = -eps * p^(k+1) folds the b*b term into the a-part
            k, eps_seed = form
            o, W, cells = cross
            if W > 0:
                t = teichmuller(eps_seed, self.prec, W).unit
                m = p**W
                cells = [c * (m - t) % m for c in cells]
            a_pieces.append((o + k + 1, W, cells))

        pa = _combine_packed(a_pieces, p, L)
        pb = _combine_packed(b_pieces, p, L)
        aa = (
            _unpack_part(self.prec, *pa, L)
            if pa is not None
            else tuple(PadicScalar.exact_zero(self.prec) for _ in range(L))
        )
        bb = None
        if self.b is not None or other.b is not None:
            bb = (
                _unpack_part(self.prec, *pb, L)
                if pb is not None
                else tuple(PadicScalar.exact_zero(self.prec) for _ in range(L))
            )
        return Series(self.prec, aa, bb, form, is_polynomial=poly)

    __rmul__ = __mul__

    def shift_val(self, d: int) -> "Series":
        """Multiply by p**d exactly (valuation offset; no precision change)."""
        if d == 0:
            return self
        return Series(
            self.prec,
            [c.shift(d) for c in self.a],
            None if self.b is None else [c.shift(d) for c in self.b],
            self.form,
            is_polynomial=self.is_polynomial,
        )

    def truncate(self, L: int) -> "Series":
        if L >= len(self.a):
            return self
        return Series(
            self.prec,
            self.a[:L],
            None if self.b is None else self.b[:L],
            self.form,
            is_polynomial=False,
        )

    def reduce_abs(self, abs_prec: int) -> "Series":
        return Series(
            self.prec,
            [c.reduce_abs(abs_prec) for c in self.a],
            None if self.b is None else [c.reduce_abs(abs_prec) for c in self.b],
            self.form,
            is_polynomial=self.is_polynomial,
        )

    def with_p_prec(self, p_prec: int) -> "Series":
        """Relabel the container's p-adic depth without touching the digits.

        Coefficient precision lives on the coefficients themselves, so this
        only swaps the ambient context — useful for mixing values produced
        under different working depths over the same prime.
        """
        if p_prec == self.prec.p_prec:
            return self
        prec = self.prec.with_p_prec(p_prec)
        return Series(
            prec,
            [c.with_prec(prec) for c in self.a],
            None if self.b is None else [c.with_prec(prec) for c in self.b],
            self.form,
            is_polynomial=self.is_polynomial,
        )

    # -- composition and evaluation ---------------------------------------

    def compose_affine(self, c: PadicScalar, d: PadicScalar) -> "Series":
        """The series at c + d*X, for v(c) >= 1 and d a unit.

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
        L = len(self.a)
        if L == 0:
            return self

        def do_part(part):
            packed = _pack_part(part, self.prec.p)
            if packed is None:
                return tuple(PadicScalar.exact_zero(self.prec) for _ in part)
            off, W, cells = packed
            if c.abs_prec != inf:
                W = min(W, int(c.abs_prec))
            if d.abs_prec != inf:
                W = min(W, int(d.abs_prec))
            if W <= 0:
                return tuple(PadicScalar.inexact_zero(self.prec, off) for _ in part)
            m = self.prec.p**W
            mc = 0 if c.is_zero_to_precision else c.unit * self.prec.p**c.val % m
            md = d.unit * self.prec.p**d.val % m
            out_cells = _k_compose(cells, mc, md, m, L)
            out = _unpack_part(self.prec, off, W, out_cells, L)
            if not self.is_polynomial and vc != inf:
                floor = min(0, _val_floor(part) or 0)
                out = tuple(
                    s.reduce_abs(int((L - j) * vc) + floor) for j, s in enumerate(out)
                )
            return out

        aa = do_part(self.a)
        bb = do_part(self.b) if self.b is not None else None
        return Series(self.prec, aa, bb, self.form, is_polynomial=self.is_polynomial)

    def evaluate(self, x: PadicScalar):
        """Horner evaluation at a scalar x with v(x) >= 1 (the open unit disc)."""
        if len(self.a) == 0:
            if self.form is None:
                return PadicScalar.exact_zero(self.prec)
            return QuadExtScalar.zero(self.prec, *self.form)
        vx = inf if x.val is None else x.val
        if not self.is_polynomial and vx < 1:
            raise PrecisionError("evaluation outside the open unit disc")
        acc = self.coeff(len(self.a) - 1)
        for n in range(len(self.a) - 2, -1, -1):
            acc = acc * x + self.coeff(n)
        if not self.is_polynomial and vx != inf:
            L = len(self.a)
            if self.form is None:
                floor = min(0, _val_floor(self.a) or 0)
                acc = acc.reduce_abs(int(L * vx) + floor)
            else:
                fa = min(0, _val_floor(self.a) or 0)
                fb = min(0, _val_floor(self.b) or 0) if self.b is not None else 0
                acc = QuadExtScalar(
                    acc.a.reduce_abs(int(L * vx) + fa),
                    acc.b.reduce_abs(int(L * vx) + fb),
                    *self.form,
                )
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
        if not phi.is_polynomial or phi.b is not None:
            raise ValueError("modulus must be a polynomial over Q_p")
        D = len(phi.a) - 1
        while D >= 0 and phi.a[D].is_zero_to_precision:
            D -= 1
        if D < 0:
            raise ValueError("modulus is zero at this precision")
        if phi.a[D].val != 0:
            raise ValueError("modulus top coefficient must be a unit")
        L = len(self.a)
        if L <= D:
            if not self.is_polynomial:
                # the unseen X^L.. terms reduce into every remainder degree
                raise PrecisionError(
                    f"a truncated dividend of length {L} does not determine "
                    f"its remainder modulo a degree-{D} polynomial"
                )
            return self
        p = self.prec.p
        offp, Wp, cphi = _pack_part(phi.a[: D + 1], p)
        if offp != 0:
            raise ValueError("modulus is not distinguished (offset != 0)")
        gmin = min(
            (c.val for c in phi.a[:D] if c.val is not None), default=None
        )
        if gmin is None:
            gmin = Wp  # all lower coefficients exactly zero: the modulus is X^D

        def do_part(part):
            packed = _pack_part(part, p)
            if packed is None:
                return tuple(PadicScalar.exact_zero(self.prec) for _ in range(D))
            off, W, cells = packed
            W = min(W, Wp)
            if W <= 0:
                return tuple(
                    PadicScalar.inexact_zero(self.prec, off) for _ in range(D)
                )
            _, R = _divmod_cells(cells, cphi, p**W)
            out = _unpack_part(self.prec, off, W, R, D)
            if not self.is_polynomial:
                steps = -(-(L - D + 1) // D)  # ceil
                if growth_order is not None:
                    tf = _tail_floor(part, float(growth_order), L, p)
                    floor = min(0, 0 if tf is None else tf)
                else:
                    floor = min(0, _val_floor(part) or 0)
                cap = gmin * steps + floor
                out = tuple(s.reduce_abs(cap) for s in out)
            return out

        aa = do_part(self.a)
        bb = do_part(self.b) if self.b is not None else None
        return Series(self.prec, aa, bb, self.form, is_polynomial=True)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, PadicScalar, QuadExtScalar)):
            other = Series.constant(other, self.prec)
        if not isinstance(other, Series):
            return NotImplemented
        known = min(self.known_length, other.known_length)
        L = max(len(self.a), len(other.a)) if known == inf else int(known)
        for i in range(L):
            if not (self._part_at(self.a, i) == other._part_at(other.a, i)):
                return False
            if self.b is not None or other.b is not None:
                if not (self._part_at(self.b, i) == other._part_at(other.b, i)):
                    return False
        return True

    def __ne__(self, other):
        r = self.__eq__(other)
        if r is NotImplemented:
            return r
        return not r

    __hash__ = None

    def __repr__(self):
        kind = "poly" if self.is_polynomial else "series"
        E = "" if self.b is None else " +alpha-part"
        return f"Series({kind}, len={len(self.a)}, p={self.prec.p}{E})"


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
    poly = p ** (m - 1) * (p - 1) + 1 <= N
    aa = tuple(PadicScalar(prec, 0, c, W) for c in cells)
    return Series(prec, aa, None, None, is_polynomial=poly)


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
        memo: dict = {}
        out = []
        for s in self.components:
            key = id(s)
            if key not in memo:
                memo[key] = fn(s)
            out.append(memo[key])
        return IwasawaElement(self.prec, out, self.u)

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
        self._check_compat(other)
        return self._zip_components(other, lambda f, g: f - g)

    def __neg__(self):
        return self._map_components(lambda s: -s)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicScalar, QuadExtScalar)):
            return self.scale(other)
        if not isinstance(other, IwasawaElement):
            return NotImplemented
        self._check_compat(other)
        return self._zip_components(other, lambda f, g: f * g)

    __rmul__ = __mul__

    def scale(self, s) -> "IwasawaElement":
        return self._map_components(lambda c: c * s)

    def shift_val(self, d: int) -> "IwasawaElement":
        return self._map_components(lambda c: c.shift_val(d))

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
        memo: dict = {}

        def comp(s: Series) -> Series:
            key = id(s)
            if key not in memo:
                memo[key] = s.compose_affine(c, d)
            return memo[key]

        out = [None] * pm1
        for i in range(pm1):
            out[(i - n) % pm1] = comp(self.components[i])
        return IwasawaElement(self.prec, out, self.u)

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
        D = 1 if m == 0 else self.prec.p ** (m - 1) * (self.prec.p - 1)
        if D > self.prec.x_prec:
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
        """A safe mantissa width covering every coefficient of every component."""
        out = self.prec.p_prec
        seen = set()
        for s in self.components:
            if id(s) in seen:
                continue
            seen.add(id(s))
            for part in (s.a, s.b) if s.b is not None else (s.a,):
                for cz in part:
                    if cz.val is not None:
                        out = max(out, cz.val + cz.rel - min(0, cz.val))
        return out

    @property
    def is_zero_to_precision(self) -> bool:
        return all(s.is_zero_to_precision for s in self.components)

    def min_x_length(self) -> int:
        return min(len(s.a) for s in self.components)

    def min_abs_prec(self):
        return min(s.min_abs_prec() for s in self.components)

    def __eq__(self, other):
        if not isinstance(other, IwasawaElement):
            return NotImplemented
        self._check_compat(other)
        return all(f == g for f, g in zip(self.components, other.components))

    def __ne__(self, other):
        r = self.__eq__(other)
        if r is NotImplemented:
            return r
        return not r

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
    off, W, cells = _pack_part(G.a, p)
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
        Series(prec, [PadicScalar(prec, 0, c, W) for c in P], is_polynomial=True),
        Series(prec, _unpack_part(prec, off, W, U, len(U)), is_polynomial=True),
    )


def _quotient_by_monic(F: Series, P: Series) -> Series:
    """Euclidean quotient of a polynomial F by a monic polynomial P."""
    D = len(P.a) - 1
    R = [F.coeff(n) for n in range(len(F.a))]
    q = [None] * max(len(R) - D, 0)
    for n in range(len(R) - 1, D - 1, -1):
        t = q[n - D] = R[n]
        for i in range(D):
            R[n - D + i] = R[n - D + i] - t * P.a[i]
    return Series.make(F.prec, q, form=F.form, is_polynomial=True)


def _triples(part, length):
    """(val, unit, rel) of each coefficient, exact zeros (val None) past the end."""
    out = [(c.val, c.unit, c.rel) for c in part[:length]]
    return out + [(None, 0, 0)] * (length - len(out))


def _back_substitute(num, den, p):
    """Q with Q*den = num, one degree at a time, on (val, unit, rel) triples.

    ``num`` gives Q's length and ``den`` is a divisor over Q_p.  Every triple
    is a PadicScalar's normalized state (val None: the exact zero) and each
    step obeys the scalar rules exactly: q[m] is num[m] plus the products
    -den[i]*q[m-i] (each at the smaller relative precision, exact zeros
    dropped), times 1/den[0] at the smaller relative precision.  A run of
    min-abs additions is the exact sum of its terms reduced once, at the
    smallest absolute precision among them, with the p-power stripped; so
    each degree reduces once.  An exact or zero-to-precision den[0] raises
    as PadicScalar.inverse does.
    """
    v0, u0, r0 = den[0]
    if v0 is None:
        raise ExactZeroError("division by exact zero")
    if r0 == 0:
        raise PrecisionError(f"division by zero-to-precision O(p^{v0})")
    vi, ri = -v0, r0
    ui = pow(u0, -1, p**r0)
    terms = [(i, v, u, r) for i, (v, u, r) in enumerate(den) if i and v is not None]
    pw = [1]
    q = []
    for m, (v, u, r) in enumerate(num):
        A = inf if v is None else v + r
        live = [(v, u)] if v is not None and r else []
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
    return q


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
    back-substitution from degree d on (val, unit, rel) integer triples under
    PadicScalar's precision rules (_back_substitute), the a- and b-parts of
    a Q_p(alpha) dividend as two Q_p solves; two polynomials with lambda > 0
    divide as (F/X^d quo P) / (G/X^d quo P), so no digit is lost to G's
    zeros.  Precision follows scalar propagation, plus a cap accounting for
    any below-d coefficients of F or G that are only zero to finite
    precision.
    """
    F._check_compat(G)
    if G.b is not None and any(c.val is not None for c in G.b):
        conj = Series(G.prec, G.a, [-c for c in G.b], G.form, G.is_polynomial)
        norm = G * conj  # its alpha-part cancels; only the Q_p part is kept
        if G.is_polynomial and not norm.is_polynomial:
            raise PrecisionError(
                "the divisor's norm G*conj(G) does not fit in the X-window"
            )
        return divide_series(
            F * conj, Series(G.prec, norm.a, is_polynomial=norm.is_polynomial),
            growth_order,
        )
    form = F._merge_form(G)
    if F.is_polynomial and G.is_polynomial:
        window = None
    elif G.is_polynomial:
        window = len(F.a)
    elif F.is_polynomial:
        window = len(G.a)
    else:
        window = min(len(F.a), len(G.a))

    d = next((i for i, c in enumerate(G.a) if not c.is_zero_to_precision), None)
    if d is None:
        raise DivisibilityError("divisor is zero at this precision")

    low_bounds = []
    for i in range(d):
        fi = F.coeff(i) if i < len(F.a) or F.is_polynomial else None
        if fi is not None and not fi.is_zero_to_precision:
            raise DivisibilityError(
                f"dividend has a nonzero coefficient at degree {i}, below the "
                f"divisor's order {d}",
                degree=i,
            )
        parts = [G.a[i]]
        if fi is not None:
            parts += (fi.a, fi.b) if isinstance(fi, QuadExtScalar) else (fi,)
        for pt in parts:
            if pt.val is not None and pt.rel == 0:
                low_bounds.append(pt.val)

    num = Series(
        F.prec, F.a[d:], None if F.b is None else F.b[d:], F.form, F.is_polynomial
    )
    den = Series(G.prec, G.a[d:], None, G.form, G.is_polynomial)
    split = _weierstrass_split(den) if G.is_polynomial else None
    if split is not None:
        P, U = split
        lam = len(P.a) - 1
        if not F.is_polynomial and len(num.a) <= lam:
            raise PrecisionError(
                f"a dividend window of {len(num.a)} past degree {d} cannot test "
                f"the divisor's {lam} zeros in the open disc"
            )
        rem = num.remainder_mod(P, growth_order=growth_order)
        for n in range(len(rem.a)):
            if not rem.coeff(n).is_zero_to_precision:
                raise DivisibilityError(
                    f"dividend misses the divisor's {lam} zero(s) in the open "
                    f"disc: its remainder modulo their distinguished polynomial "
                    f"is nonzero at degree {n}",
                    degree=n,
                )
        if F.is_polynomial:
            num, den = _quotient_by_monic(num, P), U

    qlen = F.prec.x_prec if window is None else max(window - d, 0)
    aa, bb = [], None
    if qlen:
        g = _triples(den.a, qlen)
        qa = _back_substitute(_triples(num.a, qlen), g, F.prec.p)
        aa = [PadicScalar(F.prec, *t) for t in qa]
        if num.form is not None or den.form is not None:
            # a Q_p divisor acts on the a- and b-parts separately
            qb = _back_substitute(_triples(num.b or (), qlen), g, F.prec.p)
            bb = [PadicScalar(F.prec, *t) for t in qb]

    if low_bounds and aa:
        # below-pivot coefficients of F or G known only as O(p^A) perturb the
        # quotient by about G_top^{-1} * O(p^A) * Q; cap accordingly
        vals = [Fraction(c.val) for c in aa if c.val is not None]
        if bb is not None:
            half = Fraction(form[0] + 1, 2)  # v(alpha)
            vals += [c.val + half for c in bb if c.val is not None]
        vq = min(vals, default=Fraction(0))
        cap_f = min(low_bounds) + min(Fraction(0), vq) - G.a[d].val
        cap = cap_f.numerator // cap_f.denominator  # floor
        aa = [c.reduce_abs(cap) for c in aa]
        if bb is not None:
            bb = [c.reduce_abs(cap) for c in bb]
    return Series(F.prec, aa, bb, form)
