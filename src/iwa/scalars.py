"""p-adic scalars with tracked precision, and a ramified quadratic extension.

Two layers live here.  ``PadicScalar`` models an element of Q_p known to finite
precision: a unit mantissa times a power of p, together with the number of
known mantissa digits.  ``QuadExtScalar`` is a pair (a, b) standing for
a + b*alpha, where alpha^2 = -eps * p^(k+1) for a Teichmuller unit eps; this is
the quadratic extension generated by a root of X^2 - a_p X + eps p^(k+1) when
a_p = 0, so alpha has valuation (k+1)/2 and the extension is ramified for even
k, split-by-accident never (k+1 odd gives genuine square roots only up to
units; we never need the field to be a field of matrices, just arithmetic).

Precision rules are the usual ones:

* addition works at the smaller *absolute* precision — cancellation is allowed
  to eat relative digits;
* multiplication and division add/subtract valuations and keep the smaller
  *relative* precision;
* the exact zero is its own state.  It has no valuation; asking for one raises
  ``ExactZeroError`` instead of producing a large number that looks meaningful.

A zero known only to precision O(p^A) is stored with an empty mantissa and
``val == A``: its "valuation" attribute is the bound A, and ``valuation()``
returns that bound (the only information available), flagged by
``is_zero_to_precision``.

Relative precision is *not* silently capped at ``Precision.p_prec``: that field
is the construction target (new scalars made from exact data default to it),
but computations may carry more digits when a pipeline works at an enlarged
internal modulus to deliver the target absolute precision at negative
valuations.  Operations only ever lose precision by the min-rules above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class PrecisionError(ArithmeticError):
    """Raised when an operation cannot be carried out at the available precision."""


class ExactZeroError(PrecisionError):
    """Raised when an exact zero is asked for a valuation or used as a divisor."""


def _vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# Miller-Rabin with the 13 prime bases up to 41 is deterministic below this
# bound (Sorenson and Webster, Math. Comp. 86 (2017), psi_13)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


@lru_cache(maxsize=128)
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for an int 0 <= n < _MR_BOUND."""
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(n % q == 0 for q in _MR_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_odd_prime(p) -> None:
    """Raise a ValueError naming p unless it is an int and an odd prime: the one
    check of p behind Precision and lfunctions.DirichletCharacter."""
    if isinstance(p, bool) or not isinstance(p, int):
        raise ValueError(f"p must be an int, got {p!r}")
    if p >= _MR_BOUND:
        raise ValueError(
            f"p = {p} is past {_MR_BOUND}, the bound below which the "
            "primality test is deterministic"
        )
    if p == 2 or not _is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def _check_rel(rel) -> None:
    """Raise a ValueError naming rel when it is a negative digit count; None,
    the caller's default, passes."""
    if rel is not None and rel < 0:
        raise ValueError(f"rel must be a nonnegative number of digits, got {rel}")


@dataclass(frozen=True)
class Precision:
    """Working precision: p-adic target ``p_prec`` and series truncation ``x_prec``.

    ``p_prec`` is the default number of mantissa digits for scalars built from
    exact data; ``x_prec`` is the X-adic truncation length used by the series
    layer (series carry coefficients of X^0 .. X^(x_prec - 1)).

    ``p`` must be an int (not a bool) and an odd prime.  Primality is decided
    by a Miller-Rabin test on the 13 prime bases up to 41, which is
    deterministic for p < 3317044064679887385961981 (about 3.3e24); p at or
    past that bound is refused with a ValueError that names it.
    """

    p: int
    p_prec: int
    x_prec: int = 1

    def __post_init__(self) -> None:
        _check_odd_prime(self.p)
        if self.p_prec < 1:
            raise ValueError("p_prec must be >= 1")
        if self.x_prec < 1:
            raise ValueError("x_prec must be >= 1")

    def with_p_prec(self, p_prec: int) -> "Precision":
        return Precision(self.p, p_prec, self.x_prec)


class PadicScalar:
    """An element of Q_p known to finite precision.

    State: ``unit * p**val + O(p**(val + rel))`` with ``unit`` coprime to p and
    reduced mod p**rel.  Two degenerate shapes:

    * exact zero — ``val is None`` (and unit == rel == 0);
    * zero to precision O(p^A) — ``val == A``, ``unit == 0``, ``rel == 0``.
    """

    __slots__ = ("prec", "val", "unit", "rel")

    def __init__(self, prec: Precision, val: int | None, unit: int, rel: int):
        # normalize; this is the only constructor, classmethods funnel here
        p = prec.p
        if val is None:
            unit, rel = 0, 0
        else:
            if rel < 0:
                # all claimed digits gone; what survives is the absolute bound
                val, unit, rel = val + rel, 0, 0
            elif rel == 0:
                unit = 0
            else:
                unit %= p**rel
                if unit == 0:
                    val, rel = val + rel, 0
                else:
                    # 0 < unit < p^rel, so v < rel
                    v = _vp(unit, p)
                    if v:
                        val, unit, rel = val + v, unit // p**v, rel - v
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "rel", rel)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("PadicScalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact_zero(cls, prec: Precision) -> "PadicScalar":
        return cls(prec, None, 0, 0)

    @classmethod
    def inexact_zero(cls, prec: Precision, abs_prec: int) -> "PadicScalar":
        """The zero known only modulo p^abs_prec."""
        return cls(prec, abs_prec, 0, 0)

    @classmethod
    def from_int(cls, n: int, prec: Precision, rel: int | None = None) -> "PadicScalar":
        if n == 0:
            return cls.exact_zero(prec)
        r = prec.p_prec if rel is None else rel
        v = _vp(n, prec.p)
        return cls(prec, v, n // prec.p**v, r)

    @classmethod
    def from_fraction(
        cls, q: Fraction | int, prec: Precision, rel: int | None = None
    ) -> "PadicScalar":
        if isinstance(q, int):
            return cls.from_int(q, prec, rel)
        if q == 0:
            return cls.exact_zero(prec)
        r = prec.p_prec if rel is None else rel
        p = prec.p
        num, den = q.numerator, q.denominator
        vn, vd = _vp(num, p), _vp(den, p)
        m = p**r
        u = (num // p**vn) * pow(den // p**vd, -1, m) % m
        return cls(prec, vn - vd, u, r)

    @classmethod
    def from_unit_val(
        cls, prec: Precision, unit: int, val: int, rel: int | None = None
    ) -> "PadicScalar":
        """Scalar ``unit * p**val`` carrying ``rel`` digits; unit may be any integer."""
        if unit == 0:
            return cls.exact_zero(prec)
        r = prec.p_prec if rel is None else rel
        return cls(prec, val, unit, r)

    # -- state predicates --------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.val is None

    @property
    def is_zero_to_precision(self) -> bool:
        """True for any scalar indistinguishable from 0: exact zero or empty mantissa."""
        return self.val is None or self.rel == 0

    @property
    def abs_prec(self) -> int | float:
        """Absolute precision: the value is known modulo p^abs_prec (inf if exact)."""
        if self.val is None:
            return float("inf")
        return self.val + self.rel

    def valuation(self) -> int:
        """Valuation of the scalar.

        For a zero known only to O(p^A) this returns the bound A — the only
        information available; check ``is_zero_to_precision`` when the
        difference matters.  The exact zero raises ``ExactZeroError``.
        """
        if self.val is None:
            raise ExactZeroError("exact zero has no valuation")
        return self.val

    def lift(self) -> Fraction:
        """A rational representative (0 for either kind of zero)."""
        if self.is_zero_to_precision:
            return Fraction(0)
        return Fraction(self.unit) * Fraction(self.prec.p) ** self.val

    def shift(self, d: int) -> "PadicScalar":
        """Multiply by p**d exactly: valuation moves, mantissa and digit count don't."""
        if self.val is None or d == 0:
            return self
        return PadicScalar(self.prec, self.val + d, self.unit, self.rel)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "PadicScalar | None":
        if isinstance(other, PadicScalar):
            return other
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return PadicScalar.exact_zero(self.prec)
            # exact rational: give it enough digits that *our* precision rules
            # the outcome (its absolute precision strictly exceeds ours)
            q = Fraction(other)
            v = _vp(q.numerator, self.prec.p) - _vp(q.denominator, self.prec.p)
            if self.val is None:
                r = self.prec.p_prec
            else:
                r = max(1, self.val + self.rel - v + 1, self.prec.p_prec)
            return PadicScalar.from_fraction(q, self.prec, r)
        return None

    def __add__(self, other) -> "PadicScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.val is None:
            return o
        if o.val is None:
            return self
        p = self.prec.p
        A = min(self.val + self.rel, o.val + o.rel)
        v0 = min(self.val, o.val)
        w = A - v0
        if w <= 0:
            return PadicScalar.inexact_zero(self.prec, A)
        m = p**w
        s = 0
        if self.rel:
            s += self.unit * p ** (self.val - v0)
        if o.rel:
            s += o.unit * p ** (o.val - v0)
        s %= m
        if s == 0:
            return PadicScalar.inexact_zero(self.prec, A)
        return PadicScalar(self.prec, v0, s, w)

    __radd__ = __add__

    def __neg__(self) -> "PadicScalar":
        if self.is_zero_to_precision:
            return self
        return PadicScalar(self.prec, self.val, self.prec.p**self.rel - self.unit, self.rel)

    def __sub__(self, other) -> "PadicScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "PadicScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "PadicScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.val is None or o.val is None:
            return PadicScalar.exact_zero(self.prec)
        r = min(self.rel, o.rel)
        if r == 0:
            return PadicScalar.inexact_zero(self.prec, self.val + o.val)
        return PadicScalar(
            self.prec, self.val + o.val, self.unit * o.unit % self.prec.p**r, r
        )

    __rmul__ = __mul__

    def inverse(self) -> "PadicScalar":
        if self.val is None:
            raise ExactZeroError("division by exact zero")
        if self.rel == 0:
            raise PrecisionError(f"division by zero-to-precision O(p^{self.val})")
        m = self.prec.p**self.rel
        return PadicScalar(self.prec, -self.val, pow(self.unit, -1, m), self.rel)

    def __truediv__(self, other) -> "PadicScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "PadicScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "PadicScalar":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = PadicScalar.from_int(1, self.prec, max(self.rel, self.prec.p_prec) or None)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- comparisons -------------------------------------------------------

    def reduce_abs(self, abs_prec: int) -> "PadicScalar":
        """Forget digits beyond absolute precision ``abs_prec``."""
        if self.val is None:
            return PadicScalar.inexact_zero(self.prec, abs_prec)
        if self.val + self.rel <= abs_prec:
            return self
        if self.rel == 0:
            return PadicScalar.inexact_zero(self.prec, abs_prec)
        return PadicScalar(self.prec, self.val, self.unit, abs_prec - self.val)

    def with_prec(self, prec: Precision) -> "PadicScalar":
        """Relabel the precision context, keeping every carried digit.

        Lossless: ``rel`` is not tied to ``p_prec``, so moving between
        contexts over the same prime never discards information.
        """
        if prec.p != self.prec.p:
            raise ValueError("cannot move a scalar to a different prime")
        if prec == self.prec:
            return self
        if self.val is None:
            return PadicScalar.exact_zero(prec)
        return PadicScalar(prec, self.val, self.unit, self.rel)

    def __eq__(self, other) -> bool:
        """Equality at shared precision: no detectable difference."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero_to_precision

    __hash__ = None  # equality is at-shared-precision, not a congruence for hashing

    def __repr__(self) -> str:
        p = self.prec.p
        if self.val is None:
            return "PadicScalar(0 exact)"
        if self.rel == 0:
            return f"PadicScalar(O({p}^{self.val}))"
        return f"PadicScalar({self.unit}*{p}^{self.val} + O({p}^{self.val + self.rel}))"


def teichmuller(a: int, prec: Precision, rel: int | None = None) -> PadicScalar:
    """The Teichmuller representative of a mod p, to ``rel`` digits.

    Computed by iterating x -> x^p until stable; recomputable at any precision,
    which is how form data stores roots of unity (by their mod-p seed).
    Multiples of p map to the exact zero.
    """
    r = prec.p_prec if rel is None else rel
    p = prec.p
    a %= p
    if a == 0:
        return PadicScalar.exact_zero(prec)
    m = p**r
    x = a % m
    for _ in range(r + 1):
        y = pow(x, p, m)
        if y == x:
            break
        x = y
    return PadicScalar(prec, 0, x, r)


class QuadExtScalar:
    """a + b*alpha in the quadratic extension with alpha^2 = -eps * p^(k+1).

    ``eps`` is stored by its Teichmuller seed (an integer in 1..p-1; -1 is
    accepted and means p-1), so alpha^2 can be recomputed at any working
    precision.  Elements of Q_p embed with b = exact zero; arithmetic keeps
    the two coordinates' precisions separate.
    """

    __slots__ = ("a", "b", "k", "eps_seed")

    def __init__(self, a: PadicScalar, b: PadicScalar, k: int, eps_seed: int):
        p = a.prec.p
        seed = eps_seed % p
        if seed == 0:
            raise ValueError("eps must be a unit (seed coprime to p)")
        if k < 0:
            raise ValueError("weight parameter k must be >= 0")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "eps_seed", seed)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("QuadExtScalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_padic(cls, a: PadicScalar, k: int, eps_seed: int) -> "QuadExtScalar":
        return cls(a, PadicScalar.exact_zero(a.prec), k, eps_seed)

    @classmethod
    def from_parts(
        cls, a: PadicScalar, b: PadicScalar, k: int, eps_seed: int
    ) -> "QuadExtScalar":
        return cls(a, b, k, eps_seed)

    @classmethod
    def zero(cls, prec: Precision, k: int, eps_seed: int) -> "QuadExtScalar":
        z = PadicScalar.exact_zero(prec)
        return cls(z, z, k, eps_seed)

    @classmethod
    def one(
        cls, prec: Precision, k: int, eps_seed: int, rel: int | None = None
    ) -> "QuadExtScalar":
        return cls(
            PadicScalar.from_int(1, prec, rel), PadicScalar.exact_zero(prec), k, eps_seed
        )

    @classmethod
    def alpha(
        cls, prec: Precision, k: int, eps_seed: int, rel: int | None = None
    ) -> "QuadExtScalar":
        return cls(
            PadicScalar.exact_zero(prec), PadicScalar.from_int(1, prec, rel), k, eps_seed
        )

    # -- form data ---------------------------------------------------------

    @property
    def prec(self) -> Precision:
        return self.a.prec

    def alpha_sq(self, rel: int | None = None) -> PadicScalar:
        """The scalar alpha^2 = -eps * p^(k+1) at the requested precision."""
        prec = self.a.prec
        if rel is None:
            rel = max(self.a.rel, self.b.rel, prec.p_prec) + 2
        eps = teichmuller(self.eps_seed, prec, rel)
        return eps * PadicScalar.from_int(-(prec.p ** (self.k + 1)), prec, rel)

    def _like(self, a: PadicScalar, b: PadicScalar) -> "QuadExtScalar":
        return QuadExtScalar(a, b, self.k, self.eps_seed)

    def _coerce(self, other) -> "QuadExtScalar | None":
        if isinstance(other, QuadExtScalar):
            if other.k != self.k or other.eps_seed != self.eps_seed:
                raise ValueError("mixing scalars from different forms")
            return other
        if isinstance(other, PadicScalar):
            return QuadExtScalar.from_padic(other, self.k, self.eps_seed)
        if isinstance(other, (int, Fraction)):
            c = self.a._coerce(other)
            if self.b.val is not None and not self.b.is_zero_to_precision:
                # make sure the coerced exact rational doesn't cap the b side either
                c2 = self.b._coerce(other)
                if c2.val is not None and c.val is not None:
                    if c2.abs_prec > c.abs_prec:
                        c = c2
            return QuadExtScalar.from_padic(c, self.k, self.eps_seed)
        return None

    # -- predicates --------------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.a.val is None and self.b.val is None

    @property
    def is_zero_to_precision(self) -> bool:
        return self.a.is_zero_to_precision and self.b.is_zero_to_precision

    def valuation(self) -> Fraction:
        """min(v(a), v(b) + (k+1)/2), as an element of (1/2)Z.

        Zero parts follow the ``PadicScalar.valuation`` convention (precision
        bound for inexact zeros, skipped if exact); the exact zero raises.
        """
        cands = []
        if self.a.val is not None:
            cands.append(Fraction(self.a.val))
        if self.b.val is not None:
            cands.append(self.b.val + Fraction(self.k + 1, 2))
        if not cands:
            raise ExactZeroError("exact zero has no valuation")
        return min(cands)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "QuadExtScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._like(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "QuadExtScalar":
        return self._like(-self.a, -self.b)

    def __sub__(self, other) -> "QuadExtScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._like(self.a - o.a, self.b - o.b)

    def __rsub__(self, other) -> "QuadExtScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "QuadExtScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        asq = self.alpha_sq(
            max(self.a.rel, self.b.rel, o.a.rel, o.b.rel, self.prec.p_prec) + 2
        )
        return self._like(
            self.a * o.a + self.b * o.b * asq, self.a * o.b + self.b * o.a
        )

    __rmul__ = __mul__

    def reduce_abs(self, abs_prec: int) -> "QuadExtScalar":
        """Cap both coordinates' absolute precision."""
        return self._like(self.a.reduce_abs(abs_prec), self.b.reduce_abs(abs_prec))

    def with_prec(self, prec: Precision) -> "QuadExtScalar":
        """Relabel both coordinates' precision context (lossless)."""
        return self._like(self.a.with_prec(prec), self.b.with_prec(prec))

    def conjugate(self) -> "QuadExtScalar":
        return self._like(self.a, -self.b)

    def norm(self) -> PadicScalar:
        """a^2 - alpha^2 b^2 (the norm to Q_p)."""
        asq = self.alpha_sq(max(self.a.rel, self.b.rel, self.prec.p_prec) + 2)
        return self.a * self.a - asq * self.b * self.b

    def inverse(self) -> "QuadExtScalar":
        if self.is_exact_zero:
            raise ExactZeroError("division by exact zero")
        if self.is_zero_to_precision:
            raise PrecisionError("division by zero-to-precision")
        n = self.norm().inverse()
        c = self.conjugate()
        return self._like(c.a * n, c.b * n)

    def __truediv__(self, other) -> "QuadExtScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "QuadExtScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "QuadExtScalar":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadExtScalar.one(
            self.prec,
            self.k,
            self.eps_seed,
            max(self.a.rel, self.b.rel, self.prec.p_prec) + 1,
        )
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self - o
        return d.a.is_zero_to_precision and d.b.is_zero_to_precision

    __hash__ = None

    def __repr__(self) -> str:
        return f"QuadExtScalar({self.a!r} + ({self.b!r})*alpha; k={self.k}, eps={self.eps_seed})"


def alpha_from_form(p: int, k: int, eps_p: int, prec: Precision | None = None) -> QuadExtScalar:
    """alpha for the form data (p, k, eps_p): a fixed root of X^2 + eps_p p^(k+1).

    ``eps_p`` is the nebentypus value at p given by its Teichmuller seed
    (+-1 accepted literally).  The returned scalar satisfies
    alpha * alpha == -eps_p * p^(k+1) and has valuation (k+1)/2.
    """
    if prec is None:
        prec = Precision(p, 20)
    if prec.p != p:
        raise ValueError("prec.p does not match p")
    return QuadExtScalar.alpha(prec, k, eps_p)
