"""Dense symmetric matrix kit for Laplacian algebra.

Thin contract-checked wrappers over NumPy and SciPy primitives, plus the
specialized inverse everything else is built from: the group inverse of a
connected graph's Laplacian, from one Cholesky factorization of its
rank-one shift.

Matrices are float64 ndarrays throughout; functions are pure and never
mutate their inputs.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import PreconditionError, SingularMatrixError

# Numerical thresholds shared by every module.
# Scale for pivot and spectral-rank cutoffs and for per-entry agreement of two
# routes to the same quantity.
ENTRY_TOL = 1e-9
# Acceptable magnitude for defining-identity residuals such as |M X M - M|.
RESIDUAL_TOL = 1e-8
# Largest absolute asymmetry accepted before a nominally symmetric input is
# rejected.
SYMMETRY_TOL = 1e-12


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return m


def _require_finite(m: np.ndarray, what: str) -> None:
    # NaN compares False with every bound, so each check after this one
    # would let a non-finite entry through
    if not np.isfinite(m).all():
        raise ValueError(f"{what} must not contain infs or NaNs")


def require_symmetric(a, what: str = "matrix") -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    _require_finite(m, what)
    if m.size and float(np.abs(m - m.T).max()) > SYMMETRY_TOL:
        raise ValueError(f"{what} is not symmetric to within {SYMMETRY_TOL}")
    return m


def _lift(out: np.ndarray, a: np.ndarray) -> None:
    # add kron(a, I_n) to the C-contiguous (p n x q n) array out in place, for
    # a of shape (p, q): on the (p, n, q, n) view, kron(a, I_n) is a at every
    # [:, k, :, k] and zero elsewhere, so one fancy-index add writes it with
    # the bits of a, where np.kron would build it and its zeros first
    (p, q), n = a.shape, out.shape[0] // a.shape[0]
    k = np.arange(n)
    out.reshape(p, n, q, n)[:, k, :, k] += a


def inverse(a) -> np.ndarray:
    """Inverse of a nonsingular square matrix, from one LAPACK LU factorization.

    Calls ``dgetrf`` and ``dgetrs`` directly, the routines that
    ``scipy.linalg.lu_factor`` and ``lu_solve`` wrap.  Raises
    ``SingularMatrixError`` when a pivot falls below ``ENTRY_TOL`` times the
    largest pivot during elimination, and ``ValueError`` for a non-square or
    non-finite matrix.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"cannot invert non-square shape {m.shape}")
    n = m.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    _require_finite(m, "matrix")
    # both info codes are left unread: a negative one flags an illegal
    # argument, which a square float64 matrix cannot give, and dgetrf's
    # positive one, an exact zero pivot, fails the pivot test below
    lu, piv, _ = scipy.linalg.lapack.dgetrf(m)
    diag = np.abs(np.diag(lu))
    if float(diag.min()) <= ENTRY_TOL * max(1.0, float(diag.max())):
        raise SingularMatrixError("matrix is singular to working tolerance")
    # a column-major identity, which LAPACK overwrites with the inverse
    return scipy.linalg.lapack.dgetrs(lu, piv, np.eye(n, order="F"), overwrite_b=True)[0]


def _cholesky_inverse(a: np.ndarray) -> np.ndarray:
    # invert a column-major symmetric matrix in place from one Cholesky
    # factor; the result holds the inverse in its upper triangle and the
    # factor's zeros below it.  The matrices inverted here are Laplacians made
    # positive definite by a shift or by grounding, so a failed or tiny pivot
    # means the graph is disconnected.
    c, info = scipy.linalg.lapack.dpotrf(a, overwrite_a=True)
    pivots = np.diag(c) ** 2
    if info != 0 or float(pivots.min()) <= ENTRY_TOL * max(1.0, float(pivots.max())):
        raise PreconditionError("graph is disconnected (algebraic connectivity is zero)")
    x, info = scipy.linalg.lapack.dpotri(c, overwrite_c=True)
    if info != 0:
        raise SingularMatrixError("laplacian shift is singular to working tolerance")
    return x


def _symmetric_inverse(s: np.ndarray) -> np.ndarray:
    # the full inverse of the positive definite matrix in s's lower triangle,
    # overwriting s: LAPACK inverts s.T in place, column-major, from its upper
    # triangle, which leaves the inverse in the lower triangle of z; adding the
    # mirror doubles the diagonal exactly, and halving it restores its bits
    z = _cholesky_inverse(s.T).T
    z += z.T
    z.reshape(-1)[:: len(z) + 1] *= 0.5
    return z


def _shift(lap) -> np.ndarray:
    # validate a Laplacian and return L + J/n as a new array
    m = require_symmetric(lap, "laplacian")
    n = m.shape[0]
    if n == 0:
        raise ValueError("laplacian must have at least one vertex")
    if float(np.abs(m.sum(axis=1)).max()) > RESIDUAL_TOL:
        raise ValueError("laplacian rows must sum to zero")
    return m + 1.0 / n


def group_inverse_laplacian(lap) -> np.ndarray:
    """Group inverse of the Laplacian of a connected graph.

    Computed through the rank-one shift ``(L + J/n)^-1 - J/n`` with J the
    all-ones matrix, inverted from one Cholesky factor of ``L + J/n``.
    That shift is positive definite exactly when the graph is connected,
    so the factorization is also the connectivity test.  Satisfies
    ``L X L = L``, ``X L X = X``, ``L X = X L`` and ``X 1 = 0``; the result
    is exactly symmetric.

    Raises
    ------
    ValueError
        If the matrix is not symmetric with zero row sums, or has an
        infinite or NaN entry.
    PreconditionError
        If the graph is disconnected (or the matrix is not positive
        semidefinite), detected as a Cholesky factorization of ``L + J/n``
        that fails or has a pivot at most ``ENTRY_TOL`` times the largest
        pivot.
    SingularMatrixError
        If LAPACK cannot invert the Cholesky factor.
    """
    x = _symmetric_inverse(_shift(lap))
    x -= 1.0 / len(x)
    return x


def group_inverse_trace_and_sum(lap) -> tuple[float, float]:
    """``(tr X, 1'X1)`` of the group inverse ``X`` of a connected graph's Laplacian.

    Read off the one triangle of ``(L + J/n)^-1`` that LAPACK writes and
    ``group_inverse_laplacian`` mirrors, without forming ``X`` or a second
    ``n x n`` array: its diagonal minus ``1/n`` is the diagonal of ``X``,
    bit for bit, and ``1'X1 = 2 * (triangle sum) - (diagonal sum) - n``.
    The second number is zero up to rounding, since ``X 1 = 0``.
    Validation and errors are those of ``group_inverse_laplacian``.
    """
    # L + J/n is symmetric, so its transpose is the column-major array that
    # LAPACK factors and inverts in place, with no copy
    x = _cholesky_inverse(_shift(lap).T)
    n = x.shape[0]
    diagonal = np.diagonal(x)
    trace = float((diagonal - 1.0 / n).sum())
    return trace, 2.0 * float(x.sum()) - float(diagonal.sum()) - n
