"""Packed integer polynomial arithmetic.

Everything here works on plain lists of nonnegative ints understood as
coefficients modulo ``mod`` (little-endian: index = X-degree).  Polynomial
products go through Kronecker substitution: coefficients are packed into one
big integer at a byte-aligned chunk width large enough that the raw
convolution cannot carry between chunks, multiplied as integers, and sliced
back out.  CPython's big-int multiply (or gmpy2's, when installed) then does
the heavy lifting in C at subquadratic cost, which is what makes series
products at x_prec ~ 600 cheap.
"""

from __future__ import annotations

try:  # gmpy2 is optional; plain ints are fine, just slower on huge operands
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _mpz = None


def _bigmul(x: int, y: int) -> int:
    if _mpz is None:
        return x * y
    return int(_mpz(x) * _mpz(y))


def _pack(cells: list[int], cb: int) -> int:
    buf = bytearray(cb * len(cells))
    for i, v in enumerate(cells):
        if v:
            buf[i * cb : i * cb + (v.bit_length() + 7) // 8] = v.to_bytes(
                (v.bit_length() + 7) // 8, "little"
            )
    return int.from_bytes(buf, "little")


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
    z = _bigmul(_pack(A, cb), _pack(B, cb))
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


def compose_affine(
    A: list[int], c: int, d: int, mod: int, trunc: int | None = None
) -> list[int]:
    """A(c + d*X) mod (mod, X^trunc), by Horner in (c + d*X)."""
    cap = len(A) if trunc is None else min(trunc, len(A))
    if cap <= 0 or not A:
        return []
    c %= mod
    d %= mod
    res: list[int] = []
    for coeff in reversed(A):
        L = min(len(res) + 1, cap)
        new = [0] * L
        for k in range(len(res)):
            v = res[k]
            if v:
                if k < L:
                    new[k] = (new[k] + v * c) % mod
                if k + 1 < L:
                    new[k + 1] = (new[k + 1] + v * d) % mod
        new[0] = (new[0] + coeff) % mod
        res = new
    return res
