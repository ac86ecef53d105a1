"""Tempered distributions: growth-tagged Iwasawa elements.

A distribution here is an element of the Iwasawa algebra together with a
*claimed* growth order r, meaning the coefficients are asserted to grow no
faster than O(log_p^r).  The claim is a tag, not an enforced invariant: it can
be audited numerically with :func:`growth_order`, which estimates the order
from the decay of the rho_m norms across levels.

The m-th radius is rho_m = p^(-1/(p^(m-1)(p-1))), the radius that reaches
characters of conductor p^m.  All norms are handled in valuation form (bigger
valuation = smaller norm), so everything stays in exact rational arithmetic.

divide_exact is the workhorse behind every "divisible by log" step: it divides
component by component (series.divide_series), after first checking any
cyclotomic-factor certificates attached to the divisor.  Divisibility is the
Weierstrass condition: the dividend must vanish at every zero of the divisor
in the open unit disc.  A polynomial divisor is tested against its
distinguished polynomial directly, and the quotient of two polynomials keeps
the full X-window.  A truncated divisor (a log) certifies no Weierstrass
degree from its window; its zeros are checked only through the cyclotomic
certificates.  A failed certificate or a nonzero remainder raises
DivisibilityError naming the first offending coefficient and its component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import Precision, PrecisionError
from .series import (
    DivisibilityError,
    IwasawaElement,
    Series,
    cyclotomic_degree,
    divide_series,
)

__all__ = [
    "Distribution",
    "rho_norm",
    "growth_order",
    "divide_exact",
    "least_squares_slope",
]


@dataclass(frozen=True)
class Distribution:
    """An Iwasawa-algebra element tagged with a claimed growth order.

    ``cyclo_factors`` lists levels (m, j) of cyclotomic polynomials
    Phi_{p^m}(u^{-j}(1+X)) known by construction to divide the body; divisions
    by this distribution check those factors against the dividend first.
    ``truncation_level`` records the first level whose factor is
    indistinguishable from 1 inside the working window (if any was recorded);
    factors at or above it are not representable and are not certified.
    """

    body: IwasawaElement
    order_tag: Fraction = Fraction(0)
    cyclo_factors: tuple = ()
    truncation_level: int | None = None
    meta: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "order_tag", Fraction(self.order_tag))
        if self.order_tag < 0:
            raise ValueError("growth order claim must be nonnegative")

    @property
    def prec(self) -> Precision:
        return self.body.prec

    def attained(self) -> tuple:
        """The (p-adic, X-adic) precision actually carried: (min abs prec, window)."""
        return (self.body.min_abs_prec(), self.body.min_x_length())

    def __mul__(self, other):
        if isinstance(other, Distribution):
            merged = tuple(dict.fromkeys(self.cyclo_factors + other.cyclo_factors))
            levels = [
                t for t in (self.truncation_level, other.truncation_level) if t is not None
            ]
            return Distribution(
                self.body * other.body,
                self.order_tag + other.order_tag,
                merged,
                min(levels) if levels else None,
            )
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, Distribution):
            return Distribution(
                self.body + other.body,
                max(self.order_tag, other.order_tag),
            )
        return NotImplemented

    def scale(self, s) -> "Distribution":
        return Distribution(self.body.scale(s), self.order_tag)

    def twist(self, n: int) -> "Distribution":
        # Tw_n sends 1+X to u^n(1+X), so a factor Phi(u^{-j}(1+X)) becomes
        # Phi(u^{-(j-n)}(1+X)): the certificate's twist index drops by n.
        twisted = tuple((m, j - n) for m, j in self.cyclo_factors)
        return Distribution(
            self.body.twist(n), self.order_tag, twisted, self.truncation_level
        )

    def with_p_prec(self, p_prec: int) -> "Distribution":
        """Relabel the ambient p-adic depth; tags and certificates survive."""
        if p_prec == self.prec.p_prec:
            return self
        return Distribution(
            self.body.with_p_prec(p_prec),
            self.order_tag,
            self.cyclo_factors,
            self.truncation_level,
            self.meta,
        )


def rho_norm(F: Distribution, m: int) -> Fraction:
    """Valuation form of the rho_m norm: min_n v_p(a_n) + n/(p^(m-1)(p-1)).

    Scanned per tame component and minimised across components.  An
    alpha-part coefficient b counts as b*alpha, of valuation v(b) + (k+1)/2.
    A coefficient that is zero only to precision O(p^A) counts as A: the true
    valuation is at least A, so the scan stays a lower bound of the
    valuation-form norm.  Raises ValueError when every coefficient is zero at
    the stated precision.
    """
    if m < 1:
        raise ValueError("level m must be >= 1")
    denom = cyclotomic_degree(F.prec.p, m)
    best = None
    for comp in F.body.components:
        shifts = (0,) if comp.form is None else (0, Fraction(comp.form[0] + 1, 2))
        for part, shift in zip(comp._parts(), shifts):
            for n in range(len(part)):
                v = part.val(n)
                if v is None:
                    continue
                cand = v + shift + Fraction(n, denom)
                if best is None or cand < best:
                    best = cand
    if best is None:
        raise ValueError("rho_norm of a distribution that is zero to precision")
    return best


def least_squares_slope(xs, ys) -> Fraction:
    """Exact least-squares slope through (xs, ys), all rational."""
    n = len(xs)
    if n < 2 or n != len(ys):
        raise ValueError("need at least two matched points")
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    if denom == 0:
        raise ValueError("degenerate abscissae")
    return (n * sxy - sx * sy) / denom


def growth_order(F: Distribution, depth: int) -> Fraction:
    """Estimate the growth order as the slope of -rho_norm against the level.

    Needs window length >= p^(depth-1) so the level-depth norm can see the
    coefficients that dominate it; raises PrecisionError otherwise.  Bounded
    elements estimate to ~0, log-type elements of order r to ~r.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    p = F.prec.p
    need = p ** (depth - 1)
    # polynomial components are completely known (tail exactly zero), so only
    # truncated components constrain the usable window
    have = min(s.known_length for s in F.body.components)
    if have < need:
        raise PrecisionError(
            f"growth estimation at depth {depth} needs a window of length "
            f">= {need}, only {have} available"
        )
    levels = list(range(1, depth + 1))
    return least_squares_slope(levels, [-rho_norm(F, m) for m in levels])


def _certify_factors(F: Distribution, G: Distribution) -> None:
    """Check the dividend against every certified cyclotomic factor of G.

    A factor is checked only when the dividend's window determines the
    remainder: remainder_mod_cyclotomic raises PrecisionError, and the factor
    is skipped, when its degree does not fit in x_prec or the dividend's
    component is a truncated series no longer than that degree.  Remainder
    coefficients whose propagated precision has degraded to nothing pass
    vacuously.  Both reliefs can only miss a failure, never report a spurious
    one.  The dividend's growth order feeds the remainder's trust cap: a
    tempered dividend has tail coefficients diving below its visible floor,
    and ignoring that would let truncation fold-down masquerade as a genuine
    nonzero remainder.
    """
    p = F.prec.p
    for m, j in G.cyclo_factors:
        try:
            rem = F.body.remainder_mod_cyclotomic(m, j, growth_order=F.order_tag)
        except PrecisionError:
            continue
        # coefficients whose propagated precision has degraded to nothing are
        # inexact zeros and pass vacuously; any known-nonzero one is a failure
        n = rem.first_nonzero()
        if n is not None:
            raise DivisibilityError(
                f"dividend fails the cyclotomic certificate at level {m} "
                f"(twist {j}): remainder coefficient at degree {n} is "
                f"nonzero at its propagated precision",
                degree=n,
                component=j % (p - 1),
                factor=(m, j),
            )


def divide_exact(F: Distribution, G: Distribution) -> Distribution:
    """Quotient Q with Q * G = F to the attained precision.

    Cyclotomic certificates attached to G are verified against F first; then
    each tame component is divided by divide_series.  A polynomial component
    of G is tested for its zeros in the open disc (Weierstrass preparation),
    with F's order tag as the growth model of a truncated dividend's tail; a
    truncated component of G relies on the certificates alone.  Quotients of
    polynomial components keep the full x_prec window.  The quotient's order
    tag is the difference of the claims, clamped at 0.  Raises
    DivisibilityError, carrying the offending ``degree`` and ``component``,
    when F is not divisible at the stated precision.
    """
    F.body._check_compat(G.body)
    _certify_factors(F, G)
    comps = []
    for idx, (fc, gc) in enumerate(zip(F.body.components, G.body.components)):
        if gc.is_zero_to_precision:
            if fc.is_zero_to_precision:
                comps.append(Series.zero(F.prec, form=fc.form or gc.form))
                continue
            raise DivisibilityError(
                "divisor component is zero to precision but the dividend is not",
                component=idx,
            )
        try:
            comps.append(divide_series(fc, gc, growth_order=F.order_tag))
        except DivisibilityError as e:
            if e.component is None:
                e.component = idx
            raise
    tag = F.order_tag - G.order_tag
    if tag < 0:
        tag = Fraction(0)
    return Distribution(IwasawaElement(F.prec, comps, u=F.body.u), tag)
