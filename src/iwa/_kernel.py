"""Packed integer polynomial arithmetic.

Everything here works on plain lists of nonnegative ints understood as
coefficients modulo ``mod`` (little-endian: index = X-degree).  Polynomial
products go through Kronecker substitution: coefficients are packed into one
big integer at a byte-aligned chunk width large enough that the raw
convolution cannot carry between chunks, multiplied as integers, and sliced
back out.  Packing joins one fixed-width byte string per coefficient, and
CPython's big-int multiply then does the heavy lifting in C at subquadratic
cost, which is what makes series products at x_prec ~ 600 cheap.  The cost
of a product grows with the digits of ``mod``, so callers pass the smallest
modulus their output reads: the signed logarithms multiply their level
factors stripped of content, mod p^(M+L+1) for a window of depth M with L
factors of content 1, not at the p^W their cells are reported at.  Their high
levels are short polynomials in log(1+X), multiplied here in pairs mod
p^(M+L+1+V) with V = v_p((N-1)!).

Not everything is a product: :func:`compose_affine` is a Horner loop, and a
cyclotomic level factor has a closed form in binomial rows
(:func:`cyclotomic_cells`).  Those rows are never carried exactly: each is a
falling factorial kept mod ``mod`` * p^V, just wide enough for the p-part of
n! to divide out, and n! comes from a factorial table cached per (p, length,
modulus), so one table serves every level and twist of a window, and the
signed logarithms' conversion out of the log(1+X) basis reads it too.
:func:`polypow` and :func:`geometric_sum` build the same level factor by
powering and are kept as its reference.

The conversion out of the log(1+X) basis also reads the Stirling numbers
s(n, k), 1 <= k <= n < N, from a table of packed columns
(:func:`stirling_columns`): column k holds s(k, k), ..., s(N-1, k) mod p^T
at a chunk wide enough for N (p^T)^2, so a weighted sum of columns is one
big-int multiply-add per column.  The table is kept per (p, N), not per T:
it stays at the deepest T asked so far, which every shallower T reads as it
is, and is rebuilt for a deeper one.  It holds about N^2/2 chunks of about
2T log2(p)/8 bytes: some 0.7 MB at (p, N, T) = (5, 160, 90), 21 MB at
(5, 630, 179).  The last 16 windows are kept.
"""

from __future__ import annotations

from functools import lru_cache


def _pack(cells: list[int], cb: int) -> int:
    return int.from_bytes(b"".join([v.to_bytes(cb, "little") for v in cells]), "little")


def polymul(A: list[int], B: list[int], mod: int, trunc: int | None = None) -> list[int]:
    """Coefficients of A*B mod ``mod``, truncated to ``trunc`` terms."""
    if not A or not B or mod == 1:
        n = 0 if (not A or not B) else len(A) + len(B) - 1
        if trunc is not None:
            n = min(n, trunc)
        return [0] * n
    out_len = len(A) + len(B) - 1
    if trunc is not None:
        out_len = min(out_len, trunc)
    if out_len <= 0:
        return []
    # chunk sizing assumes entries < mod; normalize so callers may pass
    # coefficients carried at a wider working modulus
    if any(a >= mod or a < 0 for a in A):
        A = [a % mod for a in A]
    if any(b >= mod or b < 0 for b in B):
        B = [b % mod for b in B]
    bound = (mod - 1) * (mod - 1) * min(len(A), len(B)) + 1
    cb = (bound.bit_length() + 7) // 8
    z = _pack(A, cb) * _pack(B, cb)
    zb = z.to_bytes(cb * (len(A) + len(B)), "little")
    return [
        int.from_bytes(zb[i * cb : (i + 1) * cb], "little") % mod
        for i in range(out_len)
    ]


def polypow(A: list[int], e: int, mod: int, trunc: int | None = None) -> list[int]:
    """A**e mod (mod, X^trunc) by binary powering."""
    if e < 0:
        raise ValueError("negative exponent")
    out = [1 % mod]
    if e == 0:
        return out
    base = [a % mod for a in A]
    if trunc is not None:
        base = base[:trunc]
    while e:
        if e & 1:
            out = polymul(out, base, mod, trunc)
        e >>= 1
        if e:
            base = polymul(base, base, mod, trunc)
    return out


def geometric_sum(Y: list[int], p: int, mod: int, trunc: int | None = None) -> list[int]:
    """1 + Y + ... + Y^(p-1) mod (mod, X^trunc), by Horner."""
    acc = [1 % mod]
    for _ in range(p - 1):
        acc = polymul(acc, Y, mod, trunc)
        if not acc:
            acc = [0]
        acc[0] = (acc[0] + 1) % mod
    return acc


@lru_cache(maxsize=64)
def _factorial_table(p: int, L: int, mod: int):
    """For n < L, with n! = p^v_n * unit_n: the lists p^v_n and unit_n^-1 mod ``mod``.

    ``mod`` must be a power of p, so that every unit part is invertible.
    Keyed by (p, L, mod), one table serves every level and twist of a window.
    """
    pvs, ks = [1] * L, [1] * L  # ks[n]: the unit part of n
    for n in range(1, L):
        k, pv = n, pvs[n - 1]
        while k % p == 0:
            k //= p
            pv *= p
        pvs[n], ks[n] = pv, k
    unit = 1
    for k in ks:
        unit = unit * k % mod
    # one inverse, for the last unit, then down the table: 1/unit_(n-1) = k_n/unit_n
    invs = [0] * L
    inv = pow(unit, -1, mod)
    for n in range(L - 1, -1, -1):
        invs[n] = inv
        inv = inv * ks[n] % mod
    return pvs, invs


_STIRLING_WINDOWS = 16
# (p, N) -> (T, chunk, columns) from _stirling_table, least recently used first
_stirling: dict = {}


def _stirling_table(p: int, N: int, T: int):
    """The Stirling numbers s(n, k) mod p^T for 1 <= k <= n < N, packed by column.

    Returns (chunk, columns): columns[k] is ``_pack`` of s(k, k), ...,
    s(N-1, k), each reduced mod p^T, at a byte chunk wide enough for
    N (p^T)^2, so a sum of fewer than N products of two entries never
    carries; columns[0] is 0.  Column k comes from column k-1 by
    s(n+1, k) = s(n, k-1) - n s(n, k).
    """
    pT = p**T
    chunk = ((N * pT * pT).bit_length() + 7) // 8
    columns = [0]
    prev = [1] + [0] * (N - 1)  # s(n, 0)
    for k in range(1, N):
        col = [0] * N
        c = col[k] = 1
        for n in range(k, N - 1):
            c = col[n + 1] = (prev[n] - n * c) % pT
        columns.append(_pack(col[k:], chunk))
        prev = col
    return chunk, columns


def stirling_columns(p: int, N: int, T: int):
    """(chunk, columns) of :func:`_stirling_table` for (p, N), valid mod p^T.

    One table is kept per (p, N), at the deepest T asked so far, for the
    last ``_STIRLING_WINDOWS`` windows.  A shallower T reads it as it is:
    its entries agree with s(n, k) mod every lower power of p, and its
    chunk is wider than that T needs.  A deeper T rebuilds it.
    """
    entry = _stirling.pop((p, N), None)
    if entry is None or entry[0] < T:
        entry = (T, *_stirling_table(p, N, T))
    _stirling[p, N] = entry
    if len(_stirling) > _STIRLING_WINDOWS:
        del _stirling[next(iter(_stirling))]
    return entry[1], entry[2]


def cyclotomic_cells(p: int, m: int, c: int, mod: int, trunc: int) -> list[int]:
    """Phi_{p^m}(c(1+X)) mod (mod, X^trunc) for m >= 1, from binomial rows.

    ``mod`` must be a power of p.  With e = p^(m-1), Phi_{p^m}(z) =
    sum_{i<p} z^(i e), so the coefficient of X^n is sum_{i<p} c^(i e)
    C(i e, n) = S_n / n!, where S_n = sum_i c^(i e) F_{i,n} over the falling
    factorials F_{i,n} = E (E-1) ... (E-n+1) of E = i e.  Each F_{i,n} is
    carried mod Q = mod * p^V with V = v_p((L-1)!), which p^(v_p(n!)) divides
    exactly; the weights only matter mod ``mod``.  Then S_n mod Q takes one
    exact division by p^(v_p(n!)) and one multiply by the inverse unit part
    of n! mod ``mod``, both read from a factorial table cached per
    (p, L, mod) and so shared by every level and twist of a window.  The
    cells equal ``geometric_sum(polypow([c, c], e, mod, trunc), p, mod,
    trunc)``, length included: min(trunc, (p-1) e + 1).
    """
    if m < 1:
        raise ValueError("level must be >= 1")
    e = p ** (m - 1)
    L = min(trunc, (p - 1) * e + 1)
    pvs, invs = _factorial_table(p, L, mod)
    Q = mod * pvs[-1]
    acc = [0] * L
    step = pow(c, e, mod)
    w = 1
    for i in range(p):
        E = i * e
        acc[0] += w
        f = w
        for n in range(1, min(L, E + 1)):
            f = f * (E - n + 1) % Q
            acc[n] += f
        w = w * step % mod
    return [a % Q // pv * inv % mod for a, pv, inv in zip(acc, pvs, invs)]


def compose_affine(A: list[int], c: int, d: int, mod: int) -> list[int]:
    """A(c + d*X) mod ``mod``, by Horner in (c + d*X): len(A) coefficients."""
    c %= mod
    d %= mod
    res: list[int] = []
    for coeff in reversed(A):
        new = [0] * (len(res) + 1)
        for k, v in enumerate(res):
            if v:
                new[k] = (new[k] + v * c) % mod
                new[k + 1] = (new[k + 1] + v * d) % mod
        new[0] = (new[0] + coeff) % mod
        res = new
    return res
