"""Independent oracles for expected values.

Everything here deliberately avoids the library under test: exact Fractions,
binomial sums, textbook recurrences, and (for root-juggling only) sympy.
Tests freeze values computed by these and compare the library against them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

# ---------------------------------------------------------- exact poly algebra


def poly_mul(A: list[Fraction], B: list[Fraction], trunc: int | None = None):
    n = len(A) + len(B) - 1 if A and B else 0
    if trunc is not None:
        n = min(n, trunc)
    out = [Fraction(0)] * n
    for i, a in enumerate(A):
        if a == 0:
            continue
        for j, b in enumerate(B):
            if i + j < n and b != 0:
                out[i + j] += a * b
    return out


def poly_add(A, B):
    n = max(len(A), len(B))
    return [
        (A[i] if i < len(A) else 0) + (B[i] if i < len(B) else 0) for i in range(n)
    ]


def poly_compose_affine(A, c: Fraction, d: Fraction, trunc: int | None = None):
    """A(c + dX) by exact binomial expansion."""
    n = len(A)
    cap = n if trunc is None else min(n, trunc)
    out = [Fraction(0)] * cap
    for i, ai in enumerate(A):
        if ai == 0:
            continue
        for j in range(min(i, cap - 1) + 1):
            out[j] += ai * comb(i, j) * c ** (i - j) * d**j
    return out


# ----------------------------------------------------------------- logarithms


def log1plus_coeffs(n_terms: int) -> list[Fraction]:
    """[0, 1, -1/2, 1/3, ...]: the classical log(1+X) series."""
    return [Fraction(0)] + [
        Fraction((-1) ** (n - 1), n) for n in range(1, n_terms)
    ]


# ------------------------------------------------------ cyclotomic polynomials


def phi_ppow_coeffs(p: int, m: int, j: int, u: int, pmod: int, n_terms: int):
    """Coefficients of Phi_{p^m}(u^{-j}(1+X)) mod pmod, by direct binomial sums.

    Phi_{p^m}(z) = sum_{t<p} z^{t p^(m-1)}; coefficient of X^n is
    sum_t u^{-j t p^(m-1)} C(t p^(m-1), n).
    """
    q = p ** (m - 1)
    out = []
    for n in range(n_terms):
        s = 0
        for t in range(p):
            s += pow(u, -j * t * q, pmod) * comb(t * q, n)
        out.append(s % pmod)
    return out


# ----------------------------------------------------------------- rho norms


def rho_norm_scan(vals: list[Fraction | None], p: int, m: int) -> Fraction:
    """min over n of v(a_n) + n / (p^(m-1)(p-1)); vals[n] = valuation or None."""
    den = p ** (m - 1) * (p - 1)
    best = None
    for n, v in enumerate(vals):
        if v is None:
            continue
        cand = Fraction(v) + Fraction(n, den)
        if best is None or cand < best:
            best = cand
    return best


def least_squares_slope(xs: list[Fraction], ys: list[Fraction]) -> Fraction:
    n = len(xs)
    sx = sum(xs, Fraction(0))
    sy = sum(ys, Fraction(0))
    sxx = sum((x * x for x in xs), Fraction(0))
    sxy = sum((x * y for x, y in zip(xs, ys)), Fraction(0))
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


# ------------------------------------------------------------------ Bernoulli


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """B_n with B_1 = -1/2, by the textbook recurrence (independent of sympy)."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    # sum_{k=0}^{n} C(n+1, k) B_k = 0
    s = Fraction(0)
    for k in range(n):
        s += comb(n + 1, k) * bernoulli_number(k)
    return -s / (n + 1)


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    return sum(
        (comb(n, k) * bernoulli_number(k) * x ** (n - k) for k in range(n + 1)),
        Fraction(0),
    )


def padic_unit_val(q: Fraction, p: int):
    """(valuation, unit numerator, unit denominator) of a nonzero rational."""
    num, den = q.numerator, q.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


def padic_residue(q: Fraction, p: int, M: int) -> tuple[int, int]:
    """(valuation, unit mod p^M); q must be nonzero."""
    v, num, den = padic_unit_val(q, p)
    m = p**M
    return v, num * pow(den, -1, m) % m


def teich_pow(a: int, p: int, M: int) -> int:
    """Teichmuller lift of a mod p^M by brute iteration of x -> x^p."""
    x = a % p**M
    for _ in range(M + 2):
        y = pow(x, p, p**M)
        if y == x:
            break
        x = y
    return x


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def gen_bernoulli_padic(
    n: int, values: list[int], f: int, p: int, M: int
) -> tuple[int, int] | None:
    """f^(n-1) sum_a chi(a) B_n(a/f) as a p-adic (valuation, unit mod p^M).

    ``values[a mod f]`` is chi(a) as an integer mod a comfortably larger power
    of p (0 where gcd(a, f) > 1).  Denominators are cleared exactly:
    D f^n B_n(a/f) is an integer for D = lcm of Bernoulli denominators, so the
    whole sum reduces to big / (D f).  Returns None when the sum is zero to
    the working precision.
    """
    D = 1
    for k in range(n + 1):
        d = bernoulli_number(k).denominator
        D = D * d // _gcd(D, d)
    head = M + 8 + n
    mm = p**head
    big = 0
    for a in range(1, f + 1):
        ch = values[a % f]
        if ch == 0:
            continue
        t = bernoulli_poly(n, Fraction(a, f)) * D * f**n
        assert t.denominator == 1
        big = (big + ch * t.numerator) % mm
    if big == 0:
        return None
    v = 0
    while big % p == 0:
        big //= p
        v += 1
    vc, w, wden = padic_unit_val(Fraction(D * f), p)
    assert wden == 1
    unit = big * pow(w, -1, p**M) % p**M
    return v - vc, unit


# ----------------------------------------------------- Frobenius polynomials


def frobenius_polys_by_roots(ell: int, a: int, eps: int, k: int, c: Fraction):
    """(P, Q) as Fraction coefficient lists, expanded from the actual roots.

    alpha, beta are the roots of X^2 - aX + eps*ell^(k+1).  P has inverse
    roots c*{alpha^2, alpha*beta, beta^2}; Q has c*{alpha^2, alpha*beta,
    alpha*beta, beta^2}.  sympy does the symbolic expansion; the results are
    symmetric in the roots, hence rational.
    """
    import sympy

    x = sympy.symbols("x")
    disc = sympy.sqrt(sympy.Integer(a * a - 4 * eps * ell ** (k + 1)))
    al = (sympy.Integer(a) + disc) / 2
    be = (sympy.Integer(a) - disc) / 2
    cc = sympy.Rational(c.numerator, c.denominator)
    roots3 = [al * al, al * be, be * be]
    roots4 = [al * al, al * be, al * be, be * be]

    def expand(roots):
        e = sympy.Integer(1)
        for r in roots:
            e = sympy.expand(e * (1 - cc * r * x))
        cs = sympy.Poly(sympy.expand(sympy.radsimp(e)), x).all_coeffs()[::-1]
        out = []
        for ci in cs:
            ci = sympy.nsimplify(sympy.expand(ci))
            out.append(Fraction(int(sympy.numer(ci)), int(sympy.denom(ci))))
        return out

    return expand(roots3), expand(roots4)


# ------------------------------------------------ reference back-substitution
#
# The one oracle here built on the library: divide_series's division loop as
# it ran on PadicScalar / QuadExtScalar objects before it moved to integer
# triples.  The scalar layer is the specification the triple kernel must
# reproduce bit for bit, so it is the reference.


def back_substitute_scalars(num, den, qlen: int) -> list:
    """The first qlen coefficients of num/den, one scalar operation at a time."""
    g0 = den.coeff(0)
    q: list = []
    for mdeg in range(qlen):
        s = num.coeff(mdeg)
        for i in range(1, mdeg + 1):
            gi = den.coeff(i)
            if gi.is_exact_zero:
                continue
            s = s - gi * q[mdeg - i]
        q.append(s / g0)
    return q


def reference_divide(F, G):
    """divide_series(F, G) by scalar back-substitution, for a Q_p divisor G.

    G must have no zeros in the open disc to test: it is truncated, or a
    polynomial whose lowest coefficient nonzero to precision has the least
    valuation.  Window, pivot and the cap for below-pivot zeros to precision
    follow divide_series.
    """
    from iwa.scalars import QuadExtScalar
    from iwa.series import DivisibilityError, Series

    form = F._merge_form(G)
    d = next((i for i in range(len(G.a)) if not G.coeff(i).is_zero_to_precision), None)
    if d is None:
        raise DivisibilityError("divisor is zero at this precision")
    if F.is_polynomial and G.is_polynomial:
        qlen = F.prec.x_prec
    else:  # the shorter truncated window, less the divisor's order
        qlen = max(min(len(S.a) for S in (F, G) if not S.is_polynomial) - d, 0)
    low_bounds = []
    for i in range(d):
        fi = F.coeff(i) if i < len(F.a) or F.is_polynomial else None
        if fi is not None and not fi.is_zero_to_precision:
            raise DivisibilityError("dividend nonzero below the divisor's order", degree=i)
        for c in (G.coeff(i), fi):
            if c is None:
                continue
            for pt in (c.a, c.b) if isinstance(c, QuadExtScalar) else (c,):
                if pt.val is not None and pt.rel == 0:
                    low_bounds.append(pt.val)
    num = Series(F.prec, F.a[d:], None if F.b is None else F.b[d:], F.form, F.is_polynomial)
    den = Series(G.prec, G.a[d:], None, G.form, G.is_polynomial)
    q = back_substitute_scalars(num, den, qlen)
    if low_bounds and q:
        vq = min(
            (Fraction(c.valuation()) for c in q if not c.is_exact_zero),
            default=Fraction(0),
        )
        cap_f = min(low_bounds) + min(Fraction(0), vq) - Fraction(G.coeff(d).valuation())
        cap = cap_f.numerator // cap_f.denominator
        q = [c.reduce_abs(cap) for c in q]
    return Series.make(F.prec, q, form=form)


# ------------------------------------------- reference signed-log products
#
# pollack._signed_product as it ran before each level factor came from its
# binomial rows: (u^{-j}(1+X))^(p^(m-1)) by p-th powering at every level, the
# skipped parity included, then Phi_p of it by a geometric sum.  Built on the
# library's packed kernel, because the new construction must reproduce it
# cell for cell, lengths included.


def reference_signed_product(kind: str, j: int, p: int, u: int, W: int, N: int, M: int):
    """(cells, included_count, stop_level) for one twist, by powering."""
    from iwa._kernel import geometric_sum, polymul, polypow

    pW = p**W
    uj = pow(pow(u, -1, pW), j, pW)
    x = [uj, uj][:N]  # u^{-j}(1+X), truncated
    prod = [1]
    count = 0
    m = 0
    while True:
        m += 1
        if m > 4 * M + 16:
            raise RuntimeError(f"cyclotomic product did not stabilize by level {m}")
        if m > 1:
            x = polypow(x, p, pW, N)  # now (u^{-j}(1+X))^(p^(m-1))
        if (m % 2 == 0) != (kind == "plus"):
            continue
        phi = geometric_sum(x, p, pW, N)
        if p ** (m - 1) * (p - 1) > N:
            q = p ** (M + 1)  # Phi/p == 1 mod (p^M, X^N)
            if (phi[0] - p) % q == 0 and all(c % q == 0 for c in phi[1:]):
                return prod, count, m
        prod = polymul(prod, phi, pW, N)
        count += 1
