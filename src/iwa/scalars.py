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

One function, ``_triple``, puts an integer known mod p^A into the stored
(val, unit, rel) form: the ``PadicScalar`` constructor, the division walk and
divisor tables of ``series`` and the integer Kubota-Leopoldt factors of
``lfunctions`` all call it.  Both scalar classes derive ``-``, ``/``, ``**``
and ``==`` from one base, ``_Scalar``, out of their own ``_coerce``, ``+``,
unary ``-``, ``*`` and ``inverse``.

The argument contract.  Every integer argument of the package's public
callables (a weight, twist, level, index, digit count or seed) is checked
where it enters by one helper, ``_check_int``.  It refuses a bool (Python
counts it as an int), any other value that is not an int, and a value below
the least one the argument allows, with a ValueError in one of two shapes:

    <name> must be an integer, not <value!r>
    <name> must be an integer >= <least>, not <value!r>

Domain checks past that (a prime p, a twist range, a unit seed) raise
ValueErrors of their own that name the argument.  Hot internal paths (the
``PadicScalar`` constructor, the column kernels) take their data as already
checked; methods that internal paths call often (``shift``,
``reduce_abs``, ``inexact_zero``, ``DirichletCharacter.exponent``) call
``_check_int`` only for a value whose type is not int.

The operand contract.  Each decision about how two operands meet has one
owner here, which both scalar classes and ``series`` call:

* an operand over another prime than the one it meets is refused by
  ``_check_prime`` with a PrecisionError, ``a <kind> over p = <q> met a
  <host> over p = <p>``.  It runs in ``PadicScalar._coerce``, so a
  QuadExtScalar is refused through its parts;
* an exact int or Fraction is read into digits by one reader,
  ``_rational_triple``, behind ``from_int``, ``from_fraction`` and the
  Bernoulli numbers of ``lfunctions``.  As an operand its digit count is
  set by ``_exact_operand``, which reads both precisions of the other
  operand: enough digits that the other's precision rules the outcome, an
  absolute precision past the other's, at least the other's relative
  precision and at least ``p_prec`` digits.  Both scalar classes and
  ``Series`` read it so, a ``QuadExtScalar`` past the wider of its a-part
  and of an alpha-part that carries digits and to the larger rel of the
  two, a ``Series`` past its largest finite cap and to its widest packed
  width.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf


class PrecisionError(ArithmeticError):
    """Raised when an operation cannot be carried out at the available precision."""


class ExactZeroError(PrecisionError):
    """Raised when an exact zero is asked for a valuation or used as a divisor."""


def _triple(p: int, off: int, x: int, A) -> tuple:
    """(val, unit, rel) of x * p^off + O(p^A), for x reduced mod p^(A - off):
    the one normalization of the scalar format.  A zero is the zero to
    precision (A, 0, 0), and A may be inf."""
    if not x:
        return A, 0, 0
    while x % p == 0:
        x //= p
        off += 1
    return off, x, A - off


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


def _check_int(least=None, /, **named) -> None:
    """Refuse each named argument that is not an int, or is below ``least``;
    see the module docstring for the two messages."""
    for name, value in named.items():
        if isinstance(value, bool) or not isinstance(value, int) or (
                least is not None and value < least):
            at_least = "" if least is None else f" >= {least}"
            raise ValueError(f"{name} must be an integer{at_least}, not {value!r}")


def _check_types(name, values, kinds=(int, Fraction)) -> None:
    """Refuse by ``name`` the first of ``values`` whose type is not one of
    ``kinds``, where Fraction() would have read a float or a numeric string
    as a rational.  Types match exactly, so a bool is refused, as _check_int
    refuses it, and a list of cells is checked in one pass in C, not by a
    Python test per cell."""
    if not set(map(type, values)).issubset(kinds):
        bad = next(v for v in values if type(v) not in kinds)
        names = ", ".join(k.__name__ for k in kinds)
        raise ValueError(f"{name} must be one of {names}, not {bad!r}")


def _check_prime(x, p: int, kind: str = "scalar", host: str = "scalar") -> None:
    """Refuse an operand x, a ``kind`` over ``x.prec.p``, that meets a
    ``host`` over another prime p: the one prime check of an operand, behind
    both scalar classes and ``series``."""
    if x.prec.p != p:
        raise PrecisionError(f"a {kind} over p = {x.prec.p} met a {host} over p = {p}")


def _check_odd_prime(p) -> None:
    """Raise a ValueError naming p unless it is an int and an odd prime: the one
    check of p behind Precision and lfunctions.DirichletCharacter."""
    _check_int(p=p)
    if p >= _MR_BOUND:
        raise ValueError(
            f"p = {p} is past {_MR_BOUND}, the bound below which the "
            "primality test is deterministic"
        )
    if p == 2 or not _is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


@dataclass(frozen=True)
class Precision:
    """Working precision: p-adic target ``p_prec`` and series truncation ``x_prec``.

    ``p_prec`` is the default number of mantissa digits for scalars built from
    exact data; ``x_prec`` is the X-adic truncation length used by the series
    layer (series carry coefficients of X^0 .. X^(x_prec - 1)).

    ``p`` must be an odd prime, and ``p_prec`` and ``x_prec`` integers >= 1,
    each refused by name as the module docstring's argument contract says.
    Primality is decided by a Miller-Rabin test on the 13 prime
    bases up to 41, which is deterministic for p < 3317044064679887385961981
    (about 3.3e24); p at or past that bound is refused with a ValueError that
    names it.
    """

    p: int
    p_prec: int
    x_prec: int = 1

    def __post_init__(self) -> None:
        _check_odd_prime(self.p)
        _check_int(1, p_prec=self.p_prec, x_prec=self.x_prec)

    def with_p_prec(self, p_prec: int) -> "Precision":
        """This window at another depth; only the new p_prec is checked."""
        _check_int(1, p_prec=p_prec)
        out = object.__new__(Precision)
        out.__dict__.update(p=self.p, p_prec=p_prec, x_prec=self.x_prec)
        return out


class _Scalar:
    """The operators both scalar classes derive from their own _coerce, +,
    unary -, * and inverse; _pow_one is the 1 that ** starts from."""

    __slots__ = ()

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out, base = self._pow_one(), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        """Equality at shared precision: no detectable difference."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero_to_precision

    __hash__ = None  # equality is at-shared-precision, not a congruence for hashing


class PadicScalar(_Scalar):
    """An element of Q_p known to finite precision.

    State: ``unit * p**val + O(p**(val + rel))`` with ``unit`` coprime to p and
    reduced mod p**rel.  Two degenerate shapes:

    * exact zero — ``val is None`` (and unit == rel == 0);
    * zero to precision O(p^A) — ``val == A``, ``unit == 0``, ``rel == 0``.
    """

    __slots__ = ("prec", "val", "unit", "rel")

    def __init__(self, prec: Precision, val: int | None, unit: int, rel: int):
        # normalize; this is the only constructor, classmethods funnel here.
        # At rel <= 0 all claimed digits are gone: only the bound val + rel stays
        if val is None:
            unit, rel = 0, 0
        else:
            x = unit % prec.p**rel if rel > 0 else 0
            val, unit, rel = _triple(prec.p, val, x, val + rel)
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
        if type(abs_prec) is not int:
            _check_int(abs_prec=abs_prec)
        return cls(prec, abs_prec, 0, 0)

    @classmethod
    def from_int(cls, n: int, prec: Precision, rel: int | None = None) -> "PadicScalar":
        _check_int(n=n)
        return cls.from_fraction(n, prec, rel)

    @classmethod
    def from_fraction(
        cls, q: Fraction | int, prec: Precision, rel: int | None = None
    ) -> "PadicScalar":
        r = prec.p_prec if rel is None else rel
        _check_types("q", (q,))
        _check_int(0, rel=r)
        if q == 0:
            return cls.exact_zero(prec)
        return cls(prec, *_rational_triple(q, prec.p, r))

    @classmethod
    def from_unit_val(
        cls, prec: Precision, unit: int, val: int, rel: int | None = None
    ) -> "PadicScalar":
        """Scalar ``unit * p**val`` carrying ``rel`` digits; unit may be any integer."""
        r = prec.p_prec if rel is None else rel
        _check_int(unit=unit, val=val)
        _check_int(0, rel=r)
        if unit == 0:
            return cls.exact_zero(prec)
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
            return inf
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
        if type(d) is not int:
            _check_int(d=d)
        if self.val is None or d == 0:
            return self
        return PadicScalar(self.prec, self.val + d, self.unit, self.rel)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "PadicScalar | None":
        if isinstance(other, PadicScalar):
            _check_prime(other, self.prec.p)
            return other
        if isinstance(other, (int, Fraction)):
            return _exact_operand(other, self.prec, self.abs_prec, self.rel)
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

    def _pow_one(self) -> "PadicScalar":
        return PadicScalar.from_int(1, self.prec, max(self.rel, self.prec.p_prec))

    # -- comparisons -------------------------------------------------------

    def reduce_abs(self, abs_prec: int) -> "PadicScalar":
        """Forget digits beyond absolute precision ``abs_prec``."""
        if type(abs_prec) is not int:
            _check_int(abs_prec=abs_prec)
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

    def __repr__(self) -> str:
        p = self.prec.p
        if self.val is None:
            return "PadicScalar(0 exact)"
        if self.rel == 0:
            return f"PadicScalar(O({p}^{self.val}))"
        return f"PadicScalar({self.unit}*{p}^{self.val} + O({p}^{self.val + self.rel}))"


def _rational_triple(q, p: int, rel: int) -> tuple:
    """(val, unit, rel) of the nonzero exact int or Fraction q read to rel
    digits, normalized as _triple normalizes: the one reader of an exact
    rational into p-adic digits."""
    num, den = q.numerator, q.denominator
    vn, vd = _vp(num, p), _vp(den, p)
    m = p**rel
    return _triple(p, vn - vd, num // p**vn * pow(den // p**vd, -1, m) % m, vn - vd + rel)


def _exact_operand(q, prec: Precision, abs_prec, rel: int) -> PadicScalar:
    """The exact int or Fraction q as the operand of a value known to
    O(p^abs_prec), inf for an exact one, with rel digits: the one rule for
    its digits.

    q is read to max(abs_prec - v(q) + 1, rel, prec.p_prec) digits, the
    first term left out at an infinite abs_prec, so that the other
    operand's precision rules the outcome: a sum stays known to abs_prec
    and a product keeps rel digits.  A 0 is the exact zero.
    """
    if q == 0:
        return PadicScalar.exact_zero(prec)
    p, r = prec.p, max(rel, prec.p_prec)
    if abs_prec != inf:
        r = max(abs_prec - _vp(q.numerator, p) + _vp(q.denominator, p) + 1, r)
    return PadicScalar(prec, *_rational_triple(q, p, r))


def teichmuller(a: int, prec: Precision, rel: int | None = None) -> PadicScalar:
    """The Teichmuller representative of a mod p, to ``rel`` digits.

    Computed by iterating x -> x^p until stable; recomputable at any precision,
    which is how form data stores roots of unity (by their mod-p seed).
    Multiples of p map to the exact zero.
    """
    r = prec.p_prec if rel is None else rel
    _check_int(a=a)
    _check_int(0, rel=r)
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


class QuadExtScalar(_Scalar):
    """a + b*alpha in the quadratic extension with alpha^2 = -eps * p^(k+1).

    ``eps`` is stored by its Teichmuller seed (an integer in 1..p-1; -1 is
    accepted and means p-1), so alpha^2 can be recomputed at any working
    precision.  Elements of Q_p embed with b = exact zero; arithmetic keeps
    the two coordinates' precisions separate.
    """

    __slots__ = ("a", "b", "k", "eps_seed")

    def __init__(self, a: PadicScalar, b: PadicScalar, k: int, eps_seed: int):
        _check_int(eps_seed=eps_seed)
        seed = eps_seed % a.prec.p
        if seed == 0:
            raise ValueError("eps must be a unit (seed coprime to p)")
        _check_int(0, **{"weight parameter k": k})
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
            # read past the wider coordinate, an alpha-part without digits
            # left out, and to the larger rel of the two
            a, b = self.a, self.b
            A = a.abs_prec
            if b.rel and (A == inf or b.abs_prec > A):
                A = b.abs_prec
            c = _exact_operand(other, self.prec, A, max(a.rel, b.rel))
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

    def _pow_one(self) -> "QuadExtScalar":
        rel = max(self.a.rel, self.b.rel, self.prec.p_prec) + 1
        return QuadExtScalar.one(self.prec, self.k, self.eps_seed, rel)

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
