"""Filtered Frobenius modules for the local symmetric-square setup.

Everything here is small exact linear algebra over the quadratic extension
E = Q_p(alpha), alpha^2 = -eps * p^(k+1): the rank-2 crystalline module of a
non-ordinary form, its symmetric and alternating squares, the splitting of
the symmetric square into a line and a plane, and the 4x4 change of basis
that diagonalizes the tensor square of the dual in the (v_alpha, v_{-alpha})
eigenbasis.  Hodge data is carried as filtration jump tables; Frobenius as a
matrix acting on column coordinates.

No general-purpose linear algebra library is used on purpose: dimensions
never exceed four and every check must stay exact in E, so the two kernels
(a matrix-vector product and a Laplace determinant) are spelled out over the
scalar type, and the change of basis and its inverse are written down in
closed form rather than computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .scalars import Precision, QuadExtScalar

__all__ = [
    "PhiModule",
    "dcris_of_form",
    "sym_square",
    "wedge_square",
    "split_sym_square",
    "dual",
    "eigenvectors_dual",
    "change_of_basis",
    "mat_vec",
]

Matrix = tuple[tuple[QuadExtScalar, ...], ...]
Vector = tuple[QuadExtScalar, ...]


# -- matrix kernels over E -------------------------------------------------


def mat_vec(A: Matrix, v: Vector) -> Vector:
    return tuple(sum((A[i][j] * v[j] for j in range(len(v))), start=A[i][0] * 0) for i in range(len(A)))


def det(A: Matrix) -> QuadExtScalar:
    n = len(A)
    if n == 1:
        return A[0][0]
    out = None
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1 :] for row in A[1:])
        term = A[0][j] * det(minor)
        if j % 2:
            term = -term
        out = term if out is None else out + term
    return out


# -- filtration bookkeeping ------------------------------------------------


def _filtration_from_weights(weights: list[int], dim: int) -> tuple:
    """Jump table (i, dim Fil^i) from the Hodge-Tate weight multiset."""
    ws = sorted(weights)
    assert len(ws) == dim
    table = [(ws[0], dim)]
    for w in ws:
        i = w + 1
        d = sum(1 for x in ws if x >= i)
        if table[-1][0] == i:
            table[-1] = (i, d)
        elif table[-1][1] != d:
            table.append((i, d))
    return tuple(table)


def _weights_from_filtration(filtration, dim: int) -> list[int]:
    ws = []
    prev = dim
    for i, d in filtration:
        ws.extend([i - 1] * (prev - d))
        prev = d
    return ws


def fil_dim(module: "PhiModule", i: int) -> int:
    """Dimension of Fil^i, reading the jump table (full before the first entry)."""
    d = module.dim
    for jump, dd in module.filtration:
        if i >= jump:
            d = dd
    return d


# -- the module type -------------------------------------------------------


@dataclass(frozen=True)
class PhiModule:
    """A filtered module with bijective Frobenius, coordinates over E."""

    dim: int
    basis_labels: tuple[str, ...]
    phi_matrix: Matrix
    filtration: tuple[tuple[int, int], ...]
    weight: int
    eps_seed: int
    prec: Precision
    provenance: str = ""

    def __post_init__(self):
        if len(self.basis_labels) != self.dim or len(self.phi_matrix) != self.dim:
            raise ValueError("basis and matrix sizes must match dim")
        dims = [d for _, d in self.filtration]
        if any(a < b for a, b in zip(dims, dims[1:])):
            raise ValueError("filtration dimensions must be weakly decreasing")
        if det(self.phi_matrix).is_zero_to_precision:
            raise ValueError("phi must be invertible")

    def phi(self, v: Vector) -> Vector:
        return mat_vec(self.phi_matrix, v)

    def hodge_tate_weights(self) -> list[int]:
        return _weights_from_filtration(self.filtration, self.dim)


# -- constructions ---------------------------------------------------------


def _module(of, labels, matrix, weights, provenance: str) -> PhiModule:
    """The module on ``labels`` with Frobenius ``matrix``, its filtration read
    from the Hodge-Tate ``weights``; the form data (k, eps_seed) and the
    window are ``of``'s, a parent module or the (k, eps_seed, prec) of a form."""
    if isinstance(of, PhiModule):
        of = (of.weight, of.eps_seed, of.prec)
    dim = len(labels)
    return PhiModule(dim, labels, matrix, _filtration_from_weights(weights, dim), *of, provenance)


def dcris_of_form(p: int, k: int, eps_p: int, prec: Precision | None = None) -> PhiModule:
    """The rank-2 module of a p-non-ordinary form of weight k+2.

    Basis (omega, omega2) with omega2 = p^(-k-1) phi(omega), so
    phi(omega) = p^(k+1) omega2 and phi(omega2) = -eps_p * omega; the Hodge
    filtration jumps at 1 (losing omega2) and at k+2 (losing omega).
    """
    if prec is None:
        prec = Precision(p, 20, 1)
    if prec.p != p:
        raise ValueError("precision context is for a different prime")
    z = QuadExtScalar.zero(prec, k, eps_p)
    eps = _teich_eps(prec, k, eps_p)
    pk1 = QuadExtScalar.one(prec, k, eps_p) * (p ** (k + 1))
    return _module((k, eps_p, prec), ("omega", "omega2"), ((z, -eps), (pk1, z)), [0, k + 1],
                   "dcris")


def _teich_eps(prec: Precision, k: int, eps_seed: int) -> QuadExtScalar:
    from .scalars import teichmuller

    return QuadExtScalar.from_padic(teichmuller(eps_seed, prec), k, eps_seed)


def sym_square(D: PhiModule) -> PhiModule:
    """Symmetric square on the monomial basis (e1^2, e1*e2, e2^2)."""
    if D.dim != 2:
        raise ValueError("symmetric square is implemented for rank 2 only")
    (a, b), (c, d) = D.phi_matrix
    matrix = (
        (a * a, a * b, b * b),
        (a * c * 2, a * d + b * c, b * d * 2),
        (c * c, c * d, d * d),
    )
    h1, h2 = sorted(D.hodge_tate_weights())
    e1, e2 = D.basis_labels
    return _module(D, (f"{e1}^2", f"{e1}*{e2}", f"{e2}^2"), matrix, [2 * h1, h1 + h2, 2 * h2],
                   "sym_square")


def wedge_square(D: PhiModule) -> PhiModule:
    """Alternating square: the determinant line."""
    if D.dim != 2:
        raise ValueError("alternating square is implemented for rank 2 only")
    e1, e2 = D.basis_labels
    return _module(D, (f"{e1}^{e2}",), ((det(D.phi_matrix),),), [sum(D.hodge_tate_weights())],
                   "wedge_square")


def split_sym_square(S: PhiModule) -> tuple[PhiModule, PhiModule]:
    """Split Sym^2 into the invariant line <e1*e2> and the plane <e1^2, e2^2>.

    Only valid for the anti-diagonal Frobenius of the non-ordinary case,
    where the middle basis vector is already an eigenvector.
    """
    if S.provenance != "sym_square":
        raise ValueError("input was not built by sym_square")
    m = S.phi_matrix
    off_line = (m[0][1], m[2][1])
    off_plane = (m[1][0], m[1][2])
    if not all(x.is_zero_to_precision for x in off_line + off_plane):
        raise ValueError("symmetric square does not split along the monomial basis")
    ws = sorted(S.hodge_tate_weights())
    sq1, cross, sq2 = S.basis_labels
    line = _module(S, (cross,), ((m[1][1],),), [ws[1]], "split_line")
    plane = _module(S, (sq1, sq2), ((m[0][0], m[0][2]), (m[2][0], m[2][2])), [ws[0], ws[2]],
                    "split_plane")
    return line, plane


def dual(D: PhiModule) -> PhiModule:
    """The dual module in the basis (omega', phi(omega')).

    Frobenius on the dual of the rank-2 module has eigenvalues the inverses
    of the original ones, and phi^2 acts by 1/alpha^2; in this basis the
    matrix is ((0, 1/alpha^2), (1, 0)).
    """
    if D.provenance != "dcris" or D.dim != 2:
        raise ValueError("dual basis (omega', phi omega') is set up for dcris modules")
    prec, k, eps = D.prec, D.weight, D.eps_seed
    z = QuadExtScalar.zero(prec, k, eps)
    one = QuadExtScalar.one(prec, k, eps)
    alpha = QuadExtScalar.alpha(prec, k, eps)
    inv_asq = (alpha * alpha).inverse()
    return _module(D, ("omega'", "phi(omega')"), ((z, inv_asq), (one, z)),
                   [-h for h in D.hodge_tate_weights()], "dual")


def eigenvectors_dual(Dstar: PhiModule) -> tuple[Vector, Vector]:
    """Eigenvectors v_lambda = phi(omega') + (1/lambda) omega', lambda = +-alpha.

    Each satisfies phi(v_lambda) = (1/lambda) v_lambda, which pins the
    eigenvalues of Frobenius on the dual as +-1/alpha.
    """
    if Dstar.provenance != "dual":
        raise ValueError("eigenvectors are defined on the dual module")
    prec, k, eps = Dstar.prec, Dstar.weight, Dstar.eps_seed
    one = QuadExtScalar.one(prec, k, eps)
    alpha = QuadExtScalar.alpha(prec, k, eps)
    inv = alpha.inverse()
    v_plus = (inv, one)
    v_minus = (-inv, one)
    return v_plus, v_minus


@lru_cache(maxsize=64, typed=True)
def change_of_basis(prec: Precision, k: int, eps_seed: int) -> tuple[Matrix, Matrix]:
    """The 4x4 matrix from the v_lambda (x) v_mu coordinates to the mixed
    symmetric/antisymmetric tensor coordinates, and its inverse.

    Columns are ordered (alpha,alpha), (-alpha,-alpha), (alpha,-alpha),
    (-alpha,alpha); rows express phi(w')(x)phi(w'), w'(x)w', the symmetric
    cross tensor, and the antisymmetric cross tensor.  Both M and M^-1 are
    written down over E at ``prec``; M^-1 has rows (1/4)(1, alpha^-2,
    +-alpha^-1, 0) and (1/4)(1, -alpha^-2, 0, -+alpha^-1), with its four
    zeros exact.  The pair is cached per (window, k, eps), and a repeat call
    returns the same objects; the cache is typed, so a k or eps of True or
    1.0 misses the entry of 1 and is refused by QuadExtScalar.
    """
    one = QuadExtScalar.one(prec, k, eps_seed)
    z = QuadExtScalar.zero(prec, k, eps_seed)
    alpha = QuadExtScalar.alpha(prec, k, eps_seed)
    asq = alpha * alpha
    two_a = alpha * 2
    M = (
        (one, one, one, one),
        (asq, asq, -asq, -asq),
        (two_a, -two_a, z, z),
        (z, z, -two_a, two_a),
    )
    q = one / 4
    q_ia = alpha.inverse() / 4
    q_iasq = asq.inverse() / 4
    M_inv = (
        (q, q_iasq, q_ia, z),
        (q, q_iasq, -q_ia, z),
        (q, -q_iasq, z, -q_ia),
        (q, -q_iasq, z, q_ia),
    )
    return M, M_inv
