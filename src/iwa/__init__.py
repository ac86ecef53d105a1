"""Precision-tracked p-adic machinery for signed factorizations of symmetric squares.

The layers, bottom to top:

* :mod:`iwa._kernel` — Kronecker-packed integer polynomials: products,
  the Taylor shift f(X) -> f(X + s) and cyclotomic level factors on lists
  of ints mod p^W;
  the packed Stirling columns that :mod:`iwa.pollack` reads to leave the
  log(1+X) basis; and cached tables of factorials and of inverses of the
  unit parts of integers, read by :mod:`iwa.pollack` and, to divide by
  integers, by :mod:`iwa.lfunctions`.
* :mod:`iwa.scalars` — Q_p scalars with explicit precision, and the ramified
  quadratic extension Q_p(alpha) with alpha^2 = -eps * p^(k+1).
* :mod:`iwa.series` — truncated power series stored as integer columns with
  per-coefficient precision (scalars only at the edge), and elements of the
  Iwasawa algebra of Z_p^x (one series per tame character component).
* :mod:`iwa.distributions` — tempered distributions: an Iwasawa element with a
  growth order and the norms/division that go with it.
* :mod:`iwa.pollack` — plus/minus/full logarithms built from cyclotomic
  polynomial products, with truncation certificates.
* :mod:`iwa.dieudonne` — the rank-2 crystalline module of the form, its
  symmetric square, and the 4x4 change of basis used by the factorization.
* :mod:`iwa.signed` — signed factorization of quadruples of unbounded
  distributions, Coleman extraction, and mock global modules.
* :mod:`iwa.lfunctions` — Kubota-Leopoldt branches, Euler-type factors at p,
  exceptional-zero reports, smoothing factors.

The package has no runtime dependency: it imports only the standard library,
and all of its arithmetic is exact, on Python ints and Fractions.
"""

__version__ = "0.1.0"

from .scalars import (  # noqa: F401
    ExactZeroError,
    PadicScalar,
    Precision,
    PrecisionError,
    QuadExtScalar,
    alpha_from_form,
    teichmuller,
)
from .series import (  # noqa: F401
    DivisibilityError,
    FiniteCharacter,
    IwasawaElement,
    Series,
    cyclotomic_factor,
)
from .distributions import (  # noqa: F401
    Distribution,
    divide_exact,
    growth_order,
    rho_norm,
)
from .pollack import LogKind, log_identity_check, pollack_log  # noqa: F401
from .dieudonne import PhiModule, change_of_basis, dcris_of_form  # noqa: F401
from .signed import (  # noqa: F401
    CONVENTIONS,
    MockGlobalModule,
    SignedQuadruple,
    UnboundedQuadruple,
    coleman_extract,
    factor_report,
    factor_signed,
    synthesize,
)
