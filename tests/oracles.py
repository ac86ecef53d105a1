"""Independent oracles for expected values.

Everything here deliberately avoids the library under test: exact Fractions,
binomial sums, textbook recurrences, and (for root-juggling only) sympy.
Tests freeze values computed by these and compare the library against them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, inf

# ---------------------------------------------------------- exact poly algebra


def _is_exact_zero(c) -> bool:
    """An exact zero: the rational 0 or a scalar whose zero is exact.

    A scalar that is only zero to precision compares equal to 0 but is not
    one, so a product must keep it: O(p^A) * b is O(p^(A + v(b))).
    """
    exact = getattr(c, "is_exact_zero", None)
    return c == 0 if exact is None else exact


def poly_mul(A: list[Fraction], B: list[Fraction], trunc: int | None = None):
    n = len(A) + len(B) - 1 if A and B else 0
    if trunc is not None:
        n = min(n, trunc)
    out = [Fraction(0)] * n
    for i, a in enumerate(A):
        if _is_exact_zero(a):
            continue
        for j, b in enumerate(B):
            if i + j < n and not _is_exact_zero(b):
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


def reference_log_p_unit(t: int, p: int, rel: int, prec):
    """pollack.log_p_unit as it ran on Fractions: the first rel + 16 terms of
    the alternating series summed exactly, then read to rel digits."""
    from iwa.scalars import PadicScalar

    if t % p:
        raise ValueError("argument must be a principal unit: p must divide t")
    acc = Fraction(0)
    term = Fraction(1)
    for n in range(1, rel + 17):
        term *= t
        acc += term * Fraction((-1) ** (n + 1), n)
    return PadicScalar.from_fraction(acc, prec, rel=rel)


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


@lru_cache(maxsize=None)
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
# The oracles here built on the library: divide_series's division loops as
# they ran on PadicScalar / QuadExtScalar objects before they moved to
# integer triples.  The scalar layer is the specification the triple kernel
# must reproduce bit for bit, so it is the reference.


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


def back_substitute_pairs(num, den, n):
    """series._back_substitute as it ran before it set each cap first.

    The first n terms of Q with Q*den = num, on the parts' integer columns,
    walking every pair (i, m - i) in reach at every degree m and forming each
    product before the cap drops it.

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
    from iwa.scalars import ExactZeroError, PrecisionError
    from iwa.series import Part

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


# ------------------------------------- reference remainders and certificates
#
# How the cyclotomic certificates ran before they shared their work: every
# factor rebuilt by cyclotomic_factor, the element's working width and the
# component's packing and tail floor recomputed per factor, and a Euclidean
# loop that reduces every update.  Built on the library's cyclotomic_factor,
# Part.packed, _tail_floor and unpack_part, which the one-pass path must
# reproduce cell for cell, error messages included.


def divmod_cells_each_step(cells, phi, m):
    """series._divmod_cells as it ran before it reduced only the pivot.

    Euclidean (quotient, remainder) of cells by phi mod m, phi's top a unit,
    from the top down, with every cell reduced mod m after every update.
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


def reference_remainder_mod(F, phi, growth_order=None):
    """Series.remainder_mod with the modulus and each part read per call."""
    from iwa.scalars import PrecisionError
    from iwa.series import _tail_floor, unpack_part

    if not phi.is_polynomial or phi._b is not None:
        raise ValueError("modulus must be a polynomial over Q_p")
    D = len(phi._a) - 1
    while D >= 0 and not phi._a.cells[D]:
        D -= 1
    if D < 0:
        raise ValueError("modulus is zero at this precision")
    if phi._a.val(D) != 0:
        raise ValueError("modulus top coefficient must be a unit")
    if D == 0:  # mod a unit the remainder is empty, whatever the dividend
        return F._map_parts(lambda x: x.slice(0, 0), is_polynomial=True)
    L = len(F._a)
    if L <= D:
        if not F.is_polynomial:
            raise PrecisionError(
                f"a truncated dividend of length {L} does not determine "
                f"its remainder modulo a degree-{D} polynomial"
            )
        return F
    p = F.prec.p
    low = phi._a.slice(0, D + 1)
    offp, Wp, cphi = low.packed()
    if offp != 0:
        raise ValueError("modulus is not distinguished (offset != 0)")
    gmin = min((v for v in map(low.val, range(D)) if v is not None), default=Wp)

    def do_part(part):
        packed = part.packed()
        if packed is None:
            return unpack_part(p, None, D)
        off, W, cells = packed
        W = min(W, Wp)
        caps = None
        if W > 0:
            _, cells = divmod_cells_each_step(cells, cphi, p**W)
            if not F.is_polynomial:
                steps = -(-(L - D + 1) // D)
                if growth_order is not None:
                    floor = min(0, _tail_floor(part, float(growth_order), L, p))
                else:
                    floor = min(0, off)
                caps = [gmin * steps + floor - off] * D
        return unpack_part(p, (off, W, cells), D, caps)

    return F._map_parts(do_part, is_polynomial=True)


def reference_working_digits(elem) -> int:
    """IwasawaElement._working_digits, every cell's precision read per call."""
    out = elem.prec.p_prec
    for s in {id(s): s for s in elem.components}.values():
        for part in s._parts():
            top = max((A for A in part.abs_precs if A != inf), default=None)
            if top is not None:
                out = max(out, top - min(0, part.off))
    return out


def reference_remainder_mod_cyclotomic(elem, m, j, growth_order=None):
    """IwasawaElement.remainder_mod_cyclotomic, the factor rebuilt per call."""
    from iwa.scalars import PrecisionError
    from iwa.series import cyclotomic_degree, cyclotomic_factor

    D = cyclotomic_degree(elem.prec.p, m)
    if D + 1 > elem.prec.x_prec:
        raise PrecisionError(f"x_prec={elem.prec.x_prec} too small for deg Phi = {D}")
    comp = elem.components[j % (elem.prec.p - 1)]
    rel = reference_working_digits(elem) + 4
    phi = cyclotomic_factor(m, j, elem.prec, u=elem.u, rel=rel)
    return reference_remainder_mod(comp, phi, growth_order)


def reference_certify(F, G) -> None:
    """distributions._certify_factors with one reference remainder per factor."""
    from iwa.scalars import PrecisionError
    from iwa.series import DivisibilityError

    p = F.prec.p
    for m, j in G.cyclo_factors:
        try:
            rem = reference_remainder_mod_cyclotomic(F.body, m, j, F.order_tag)
        except PrecisionError:
            continue
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


def quotient_by_monic_scalars(F, P):
    """Euclidean quotient of a polynomial F by a monic polynomial P, top down.

    P's top coefficient is taken as exactly 1, so no step divides.
    """
    from iwa.series import Series

    D = P.length - 1
    low = [P.coeff(i) for i in range(D)]
    R = [F.coeff(n) for n in range(F.length)]
    q = [None] * max(len(R) - D, 0)
    for n in range(len(R) - 1, D - 1, -1):
        t = q[n - D] = R[n]
        for i in range(D):
            R[n - D + i] = R[n - D + i] - t * low[i]
    return Series.make(F.prec, q, form=F.form, is_polynomial=True)


def reference_divide(F, G):
    """divide_series(F, G) by scalar loops, for a Q_p divisor G.

    Window, pivot and the cap for below-pivot zeros to precision follow
    divide_series.  A polynomial G with zeros in the open disc is split and
    its zeros tested by the library (_weierstrass_split, remainder_mod),
    which this reference takes as given; two polynomials then divide as
    (F quo P) / U, by the scalar monic loop and scalar back-substitution.
    """
    from iwa.scalars import PrecisionError, QuadExtScalar
    from iwa.series import DivisibilityError, Series, _weierstrass_split

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
    split = _weierstrass_split(den) if G.is_polynomial else None
    if split is not None:
        P, U = split
        if not F.is_polynomial and num.length < P.length:
            raise PrecisionError("the dividend window cannot test the divisor's zeros")
        if num.remainder_mod(P).first_nonzero() is not None:
            raise DivisibilityError("dividend misses the divisor's zeros in the open disc")
        if F.is_polynomial:
            num, den = quotient_by_monic_scalars(num, P), U
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


# ------------------------------------- reference linear combinations
#
# How a scalar multiple and signed._mat_apply ran before linear_combination:
# each s * x a Series product with the constant Series.constant(s, x.prec),
# packed convolutions and a normalization per part pair, then a left fold of
# sums.  Built on the library's Series product and sum, which the one-pass
# kernel must reproduce cell for cell.


def reference_linear_combination(scalars, series):
    """sum_j scalars[j] * series[j] as the left fold of products and sums."""
    from iwa.series import Series

    acc = None
    for s, x in zip(scalars, series):
        term = x * Series.constant(s, x.prec)
        acc = term if acc is None else acc + term
    return acc


def reference_mat_apply(M, vec):
    """signed._mat_apply as the fold of scale-then-add over distributions."""
    from iwa.distributions import Distribution
    from iwa.series import IwasawaElement

    out = []
    for row in M:
        acc = None
        for s, d in zip(row, vec):
            comps = [reference_linear_combination((s,), (c,)) for c in d.body.components]
            term = Distribution(IwasawaElement(d.prec, comps, d.body.u), d.order_tag)
            acc = term if acc is None else acc + term
        out.append(acc)
    return tuple(out)


# ------------------------------------------------- small matrices over E
#
# Kernels over the library's scalar type, for dimensions up to four: the
# tests multiply, tensor and invert the Frobenius matrices and the change of
# basis with them, and compare what dieudonne writes down in closed form.


def mat_mul(A, B):
    n, m, l = len(A), len(B), len(B[0])
    return tuple(
        tuple(sum((A[i][t] * B[t][j] for t in range(m)), start=A[i][0] * 0) for j in range(l))
        for i in range(n)
    )


def kron(A, B):
    """Kronecker product, ordering basis pairs row-major."""
    n, m = len(A), len(B)
    return tuple(
        tuple(A[i][j] * B[s][t] for j in range(n) for t in range(m))
        for i in range(n)
        for s in range(m)
    )


def is_identity(A) -> bool:
    n = len(A)
    for i in range(n):
        for j in range(n):
            want = 1 if i == j else 0
            if not (A[i][j] - want).is_zero_to_precision:
                return False
    return True


def charpoly(A) -> list:
    """det(X*I - A) as an ascending coefficient list over E.

    Faddeev-LeVerrier would need divisions; with dim <= 4 a Laplace
    expansion over polynomial entries is simpler and stays division-free.
    """
    n = len(A)
    one = A[0][0] * 0 + 1
    zero = A[0][0] * 0

    def pdet(rows, cols):
        if not rows:
            return [one]
        i = rows[0]
        out = None
        for idx, j in enumerate(cols):
            # entry (i, j) of X*I - A as a degree <= 1 polynomial
            e = [zero - A[i][j], one] if i == j else [zero - A[i][j]]
            sub = pdet(rows[1:], cols[:idx] + cols[idx + 1 :])
            # poly_mul starts from Fraction(0); lift every coefficient into E
            term = [zero + c for c in poly_mul(e, sub)]
            if idx % 2:
                term = [zero - c for c in term]
            if out is None:
                out = term + [zero] * (len(rows) + 1 - len(term))
            else:
                term = term + [zero] * (len(out) - len(term))
                out = [a + b for a, b in zip(out, term)]
        return out

    return pdet(tuple(range(n)), tuple(range(n)))


def gauss_inverse(A):
    """Inverse by Gauss-Jordan elimination with valuation pivoting."""
    n = len(A)
    one = A[0][0] * 0 + 1
    zero = A[0][0] * 0
    work = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        pivot = None
        best = None
        for r in range(col, n):
            c = work[r][col]
            if c.is_zero_to_precision:
                continue
            v = c.valuation()
            if best is None or v < best:
                best, pivot = v, r
        if pivot is None:
            raise ZeroDivisionError("matrix is singular to working precision")
        work[col], work[pivot] = work[pivot], work[col]
        inv = work[col][col].inverse()
        work[col] = [c * inv for c in work[col]]
        for r in range(n):
            if r == col:
                continue
            f = work[r][col]
            if f.is_exact_zero:
                continue
            work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


# ------------------------------------------- reference signed-log products
#
# pollack._signed_product as it ran before each level factor came from its
# binomial rows: (u^{-j}(1+X))^(p^(m-1)) by p-th powering at every level, the
# skipped parity included, then Phi_p of it by a geometric sum, all mod p^W.
# Built on the library's packed kernel, because the new construction must
# reproduce it cell for cell, lengths included.


def _powering_signed_product(kind: str, j: int, p: int, u: int, W: int, N: int, M: int):
    """(cells mod p^W, included_count, stop_level) for one twist, by powering."""
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


def reference_signed_product(kind: str, j: int, p: int, u: int, R: int, N: int, M: int):
    """pollack._signed_product's contract, by powering: strip p^A, reduce mod p^R.

    A counts the included levels of degree >= N.  At most 2M + 9 levels of
    one parity are tried, so a product known mod p^(R + 2M + 9) still knows
    its quotient by p^A mod p^R; the stop test reads p^(M+1).
    """
    prod, count, stop = _powering_signed_product(
        kind, j, p, u, max(R, M + 1) + 2 * M + 9, N, M
    )
    first = 2 if kind == "plus" else 1
    A = count - sum(
        1 for m in range(first, stop, 2) if p ** (m - 1) * (p - 1) < N
    )
    pA, pR = p**A, p**R
    assert all(c % pA == 0 for c in prod)
    return [c // pA % pR for c in prod], count, stop


# pollack._ell_cells as it ran before the Stirling numbers came from packed
# columns: one Stirling row per cell, built from the last and not kept.


def ell_cells_by_rows(h: list[int], p: int, N: int, T: int, R: int):
    """Yield the first N X-cells mod p^R of sum_k h_k ell^k, h_k known mod p^T.

    The coefficient of X^n in ell^k/k! is s(n, k)/n!, s the signed Stirling
    numbers of the first kind, so n! times cell n is sum_k k! h_k s(n, k).
    The rows come one at a time from s(n+1, k) = s(n, k-1) - n s(n, k) and
    are not kept; each is reduced mod p^T.  The series must be integral in
    X: then the sum is divisible by p^(v_p(n!)), and dividing out n! leaves
    cell n mod p^(T - v_p(n!)).  So T >= R + v_p((N-1)!) gives every cell.
    """
    from operator import mul

    from iwa._kernel import _factorial_table

    pT, pR = p**T, p**R
    pvs, invs = _factorial_table(p, N, pT)
    yield h[0] % pR
    hs, f = [], 1  # k! h_k for k >= 1
    for k in range(1, len(h)):
        f = f * k % pT
        hs.append(h[k] * f % pT)
    row = [1]  # s(n, k) for 1 <= k <= min(n, len(hs)), from n = 1
    for n in range(1, N):
        if n > 1:  # row n from row n - 1
            r = n - 1
            new = [-r * row[0] % pT]
            new += [(a - r * b) % pT for a, b in zip(row, row[1:])]
            if len(row) < len(hs):
                new.append(row[-1])
            row = new
        yield sum(map(mul, hs, row)) % pT // pvs[n] * invs[n] % pR


# pollack_log's plus/minus assembly as it ran before the product was
# stripped of its content: every level factor (from its binomial rows)
# multiplied in mod p^W as p + p^t delta, every twist's product mod p^W, and
# the tail caps scanned over the cells mod p^W.  The stripped product must
# reproduce its Distribution coefficient for coefficient, caps and meta
# included.


def _times_level_factor_mod_pW(prod, phi, p: int, pW: int, N: int):
    from iwa._kernel import polymul

    delta = [(phi[0] - p) % pW] + phi[1:]
    pt = gcd(pW, *delta)  # p^t, capped at pW
    out = ([p * a for a in prod] + [0] * (len(phi) - 1))[:N]
    if pt != pW:
        for n, r in enumerate(polymul(prod, [d // pt for d in delta], pW // pt, N)):
            out[n] += pt * r
    return [a % pW for a in out]


def _signed_product_mod_pW(kind: str, j: int, p: int, u: int, W: int, N: int, M: int):
    """(cells mod p^W, included_count, stop_level), unstripped, from binomial rows."""
    from iwa._kernel import cyclotomic_cells
    from iwa.series import cyclotomic_degree

    pW = p**W
    q = p ** (M + 1)  # Phi/p == 1 mod (p^M, X^N)
    uj = pow(pow(u, -1, pW), j, pW)
    prod = [1]
    count = 0
    limit = 4 * M + 16
    for m in range(2 if kind == "plus" else 1, limit + 1, 2):
        phi = cyclotomic_cells(p, m, uj, pW, N)
        if cyclotomic_degree(p, m) > N and (phi[0] - p) % q == 0 and all(
            c % q == 0 for c in phi[1:]
        ):
            return prod, count, m
        prod = _times_level_factor_mod_pW(prod, phi, p, pW, N)
        count += 1
    raise RuntimeError(f"cyclotomic product did not stabilize by level {limit}")


def reference_pollack_log(spec, prec):
    """pollack_log(spec, prec) for a plus/minus spec, every product mod p^W."""
    import warnings

    from iwa._kernel import polymul
    from iwa.distributions import Distribution
    from iwa.pollack import _max_level_fitting, ceil_log
    from iwa.scalars import _vp
    from iwa.series import IwasawaElement, Series, u_for, unpack_part

    p, M, N = prec.p, prec.p_prec, prec.x_prec
    u = u_for(p)
    js = range(spec.shift, spec.shift + spec.r)
    est_levels = M + ceil_log(max(N, 2), p) + 8
    W = M + spec.r * (est_levels // 2 + 3) + 6
    total = [1]
    offset = 0
    per_twist = []
    pW = p**W
    for j in js:
        cells, count, stop = _signed_product_mod_pW(spec.kind, j, p, u, W, N, M)
        total = polymul(total, cells, pW, N)
        offset += count + 1
        per_twist.append({"twist": j, "factors": count, "stabilized_at": stop})
    if all(t["factors"] == 0 for t in per_twist):
        warnings.warn(
            "window too small to include any nontrivial cyclotomic factor; "
            "the logarithm degenerates to a constant",
            stacklevel=2,
        )
    run = W
    caps = []
    for c in total:
        c %= pW
        if c:
            run = min(run, _vp(c, p))
        caps.append(min(W, run + M))
    body = Series(prec, unpack_part(p, (-offset, W, total), len(total), caps))
    parity = 0 if spec.kind == "plus" else 1
    factors = [
        (m, j)
        for j in js
        for m in range(1, _max_level_fitting(p, N) + 1)
        if m % 2 == parity % 2
    ]
    meta = {
        "kind": spec.kind,
        "window": (M, N),
        "per_twist": per_twist,
        "valuation_offset": offset,
    }
    return Distribution(
        IwasawaElement.from_diagonal(body),
        spec.order,
        tuple(factors),
        min(t["stabilized_at"] for t in per_twist),
        meta,
    )


# ---------------------------------------------- reference cells-to-scalars
#
# How pollack_log turned its integral product into a Series before every
# packed part went through series.unpack_part: wrap the cells at valuation 0,
# cap each one's absolute precision, then shift the whole series by the
# valuation offset.  Built on the library's scalars, since unpack_part must
# reproduce it scalar for scalar.


def series_from_cells(cells, prec, W: int, caps=None):
    """Wrap integer coefficients known mod p^W into a Series.

    ``caps`` optionally limits the claimed absolute precision per coefficient
    (used to account for the discarded tail of an infinite product).
    """
    from iwa.scalars import PadicScalar
    from iwa.series import Series

    p = prec.p
    pW = p**W
    coeffs = []
    for n, c in enumerate(cells):
        c %= pW
        a = W if caps is None else min(W, caps[n])
        if c == 0:
            coeffs.append(PadicScalar.inexact_zero(prec, a))
        else:
            coeffs.append(PadicScalar(prec, 0, c, W).reduce_abs(a))
    return Series(prec, tuple(coeffs), None, None, is_polynomial=False)


# ------------------------------------------ reference Kubota-Leopoldt series
#
# lfunctions' Bernoulli numbers, moments and branch series as they ran before
# they moved to integers: B_n(a/f) as a Fraction sum term by term, the
# omega-powers rebuilt on every call, and the divided differences and the
# Newton-to-monomial expansion one PadicScalar operation at a time.  Built on
# the library's scalars and its unchanged helpers, since the integer loops
# must reproduce these scalar for scalar, error messages included.


def reference_omega_powers(p: int, prec, rel: int) -> list:
    from iwa.lfunctions import _primitive_root
    from iwa.scalars import PadicScalar, teichmuller

    base = teichmuller(_primitive_root(p), prec, rel)
    out = [PadicScalar.from_int(1, prec, rel)]
    for _ in range(p - 2):
        out.append(out[-1] * base)
    return out


def reference_gen_bernoulli(n: int, eta, prec=None, rel=None):
    """B_{n, eta} = f^{n-1} sum_a eta(a) B_n(a/f), each B_n(a/f) a Fraction sum."""
    from iwa.scalars import PadicScalar

    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    psi = eta.primitive()
    F = psi.conductor
    units = [a for a in range(1, F + 1) if _gcd(a, F) == 1]
    if psi.is_rational_valued:
        tot = Fraction(0)
        for a in units:
            tot += psi.value_fraction(a) * bernoulli_poly(n, Fraction(a, F))
        return Fraction(F) ** (n - 1) * tot
    if prec is None:
        raise ValueError(
            "character values are irrational over Q; pass a precision context"
        )
    rel = prec.p_prec + 8 if rel is None else rel
    pw = reference_omega_powers(psi.p, prec, rel)
    tot = PadicScalar.exact_zero(prec)
    for a in units:
        term = PadicScalar.from_fraction(bernoulli_poly(n, Fraction(a, F)), prec, rel)
        tot = tot + pw[psi.exponent(a)] * term
    return tot * PadicScalar.from_fraction(Fraction(F) ** (n - 1), prec, rel)


def _reference_interpolation_factor(psi, n: int, prec, rel: int):
    """(1 - psi(p) p^(n-1)) B_{n, psi} / n for a primitive psi."""
    from iwa.scalars import PadicScalar

    p = psi.p
    one = PadicScalar.from_int(1, prec, rel)
    B = reference_gen_bernoulli(n, psi, prec, rel)
    if not isinstance(B, PadicScalar):
        B = PadicScalar.from_fraction(B, prec, rel)
    ep = psi.exponent(p)
    euler = one
    if ep is not None:
        pw = reference_omega_powers(p, prec, rel)
        euler = one - pw[ep] * PadicScalar.from_fraction(Fraction(p) ** (n - 1), prec, rel)
    return euler * B / PadicScalar.from_int(n, prec, rel)


def reference_kl_value(eta, one_minus_n: int, prec, rel=None):
    from iwa.lfunctions import DirichletCharacter
    from iwa.scalars import PadicScalar

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
    psi = (eta * DirichletCharacter.teichmuller_power(eta.p, -n)).primitive()
    return -_reference_interpolation_factor(psi, n, prec, rel)


def reference_smoothed_moment(eta, omega_exponent: int, m: int, c: int, prec, rel=None):
    from iwa.lfunctions import DirichletCharacter
    from iwa.scalars import PadicScalar

    if m < 0:
        raise ValueError("moment index must be nonnegative")
    p = eta.p
    if c <= 1 or _gcd(c, p * eta.modulus) != 1:
        raise ValueError("smoothing constant must exceed 1 and be prime to p and the modulus")
    rel = prec.p_prec + 8 if rel is None else rel
    psi = (eta * DirichletCharacter.teichmuller_power(p, omega_exponent)).primitive()
    pw = reference_omega_powers(p, prec, rel)
    one = PadicScalar.from_int(1, prec, rel)
    smooth = one - pw[psi.exponent(c)] * PadicScalar.from_fraction(
        Fraction(c) ** (m + 1), prec, rel
    )
    return smooth * _reference_interpolation_factor(psi, m + 1, prec, rel)


def newton_table_scalars(moments: list, nodes: list) -> list:
    """Divided differences of the moments at the nodes, in place, by scalars."""
    dd = list(moments)
    E = len(dd)
    for col in range(1, E):
        for row in range(E - 1, col - 1, -1):
            dd[row] = (dd[row] - dd[row - 1]) / (nodes[row] - nodes[row - col])
    return dd


def newton_to_monomial_scalars(dd: list, nodes: list, N: int) -> list:
    """The Newton form sum_m dd[m] prod_{k<m} (X - nodes[k]) mod X^N, by scalars."""
    from iwa.scalars import PadicScalar

    zero = PadicScalar.exact_zero(dd[0].prec)
    poly = [dd[-1]]
    for m in range(len(dd) - 2, -1, -1):
        nxt = [zero] * min(len(poly) + 1, N)
        for dg in range(len(poly)):
            if dg + 1 < N:
                nxt[dg + 1] = nxt[dg + 1] + poly[dg]
            nxt[dg] = nxt[dg] - nodes[m] * poly[dg]
        nxt[0] = nxt[0] + dd[m]
        poly = nxt
    return poly


def reference_kl_core(eta, branch_i: int, prec) -> dict:
    """lfunctions._kl_core with the scalar loops and the references above."""
    from iwa import lfunctions as lf
    from iwa.lfunctions import DirichletCharacter
    from iwa.scalars import PadicScalar, PrecisionError, _vp, teichmuller
    from iwa.series import IwasawaElement, Series, u_for

    p = prec.p
    pm1 = p - 1
    eta0, d = eta.split_at_p()
    i = branch_i % pm1
    if d is not None and d % pm1 != i:
        raise ValueError(
            "the character already carries omega^%d; branch %d conflicts" % (d, i)
        )
    even = eta0.is_odd == (i % 2 == 1)
    b = (i - 1) % pm1
    pole = eta0.conductor == 1 and i == 0
    out = {"p": p, "i": i, "b": b, "eta0": eta0, "even": even, "pole": pole,
           "c": None, "nodes": 0}
    if not even:
        return out
    c = lf._kl_smoothing_c(p, eta0, b, require_unit=not pole)
    E = prec.x_prec + prec.p_prec + 4
    if E > lf._NODE_CAP:
        raise PrecisionError(
            f"window needs {E} interpolation nodes; the stabilization cap is {lf._NODE_CAP}"
        )
    rel = prec.p_prec + E + _vp(factorial(E), p) + 16
    wprec = prec.with_p_prec(rel)
    u = u_for(p)
    nodes = [PadicScalar.from_fraction(Fraction(u) ** (-m) - 1, wprec, rel) for m in range(E)]
    moments = []
    for m in range(E):
        v = -reference_smoothed_moment(eta0, b - m, m, c, wprec, rel)
        if v.val is not None and v.val < 0:
            raise ArithmeticError(
                "smoothed moment came out non-integral; the regularization is broken"
            )
        moments.append(v)
    dd = newton_table_scalars(moments, nodes)
    if any(e.val is not None and e.val < 0 for e in dd):
        raise ArithmeticError("divided differences left Z_p; the moment formula is off")
    poly = newton_to_monomial_scalars(dd, nodes, prec.x_prec)

    def on_branch(coeffs):
        comps = [Series.zero(wprec) for _ in range(pm1)]
        comps[i] = Series(wprec, tuple(coeffs), None, None, is_polynomial=False)
        return IwasawaElement(wprec, comps, u)

    psi0 = eta0 * DirichletCharacter.teichmuller_power(p, b)
    psi0_c = reference_omega_powers(p, wprec, rel)[psi0.exponent(c)] * c
    e_c = reference_log_p_unit(c ** (p - 1) - 1, p, rel + 4, wprec) / (p - 1) / (
        reference_log_p_unit(u - 1, p, rel + 4, wprec)
    )
    dcoeffs = lf._binomial_series(-e_c, prec.x_prec, wprec, rel)
    one = PadicScalar.from_int(1, wprec, rel)
    dser = [one - psi0_c * dcoeffs[0]] + [-(psi0_c * t) for t in dcoeffs[1:]]
    bracket_c = PadicScalar.from_fraction(Fraction(c), wprec, rel) / teichmuller(
        c % p, wprec, rel
    )
    out.update(c=c, nodes=E, wprec=wprec, rel=rel, smoothed=on_branch(poly),
               divisor=on_branch(dser), psi0_c=psi0_c, bracket_c=bracket_c)
    return out
