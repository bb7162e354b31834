"""Small dense linear-algebra kit.

All routines take plain numpy ``float64`` matrices (2-d, row-major) and leave
the arithmetic to LAPACK (``eigvalsh``, ``solve``).  They add the symmetry,
definiteness and residual checks that set-up relies on, and turn LAPACK's
failures into the package's errors.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    SingularMatrix,
)

# Absolute entrywise tolerance for treating a matrix as symmetric.
SYMMETRY_TOL = 1e-10


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got ndim={a.ndim}")
    return a


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = _as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def _require_symmetric(a: np.ndarray, name: str = "matrix") -> None:
    if not np.isfinite(a).all():
        raise NotSymmetric(f"{name} has a non-finite entry")
    skew = np.max(np.abs(a - a.T)) if a.size else 0.0
    if skew > SYMMETRY_TOL:
        raise NotSymmetric(f"{name} is not symmetric: max |{name} - {name}^T| = {skew:.3e}")


def symmetric_eigenvalues(a, name: str = "a") -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, from LAPACK (``eigvalsh``).

    Raises :class:`NotSymmetric` when ``max |a - a^T| > 1e-10`` or an entry
    is not finite, naming ``a`` ``name``, and :class:`SingularMatrix` when
    the LAPACK driver fails.
    """
    a = _as_square(a, name)
    _require_symmetric(a, name)
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"symmetric eigensolve failed: {exc}") from exc


def require_positive_definite(a, name: str = "a") -> float:
    """Smallest eigenvalue of a symmetric positive definite matrix.

    Raises what :func:`symmetric_eigenvalues` raises, and
    :class:`NotPositiveDefinite` when the smallest eigenvalue is not strictly
    positive, naming ``a`` ``name`` and giving that eigenvalue.
    """
    low = float(symmetric_eigenvalues(a, name)[0])
    if not low > 0.0:
        raise NotPositiveDefinite(f"{name} is not positive definite: smallest eigenvalue {low:.3e}")
    return low


def solve_lyapunov(a_m, q_tilde) -> np.ndarray:
    """Solve the continuous Lyapunov equation ``a_m^T P + P a_m = -q_tilde``.

    The equation is vectorized column-major into
    ``(I (x) a_m^T + a_m^T (x) I) vec(P) = -vec(q_tilde)`` and handed to
    LAPACK (``np.linalg.solve``).  The result is symmetrized as
    ``(P + P^T) / 2``.

    Parameters
    ----------
    a_m : (n, n) array
        Hurwitz for a positive definite solution to exist; a spectrum with
        eigenvalues summing to zero in pairs makes the vectorized system
        singular.
    q_tilde : (n, n) symmetric array

    Raises
    ------
    SingularMatrix
        When a coefficient of the vectorized system is not finite (``a_m``
        near the float range), when LAPACK finds that system singular, when
        the solution or its residual is not finite (``q_tilde`` near the
        float range), or when the substituted residual exceeds ``1e-9``
        (ill-conditioned system).
    """
    a_m = _as_square(a_m, "a_m")
    q_tilde = _as_square(q_tilde, "q_tilde")
    if q_tilde.shape != a_m.shape:
        raise DimensionMismatch(f"q_tilde shape {q_tilde.shape} does not match a_m {a_m.shape}")
    _require_symmetric(q_tilde, "q_tilde")

    n = a_m.shape[0]
    eye = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = np.kron(eye, a_m.T) + np.kron(a_m.T, eye)
    if not np.isfinite(coeff).all():
        raise SingularMatrix("a_m is too large: the vectorized lyapunov system is not finite")
    rhs = -q_tilde.flatten(order="F")
    try:
        p = np.linalg.solve(coeff, rhs).reshape((n, n), order="F")
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"lyapunov system is singular: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        p = 0.5 * (p + p.T)
        residual = np.max(np.abs(a_m.T @ p + p @ a_m + q_tilde))
    if not (np.isfinite(p).all() and np.isfinite(residual)):
        raise SingularMatrix("q_tilde is too large: the lyapunov solution overflows")
    if residual > 1e-9:
        raise SingularMatrix(f"lyapunov residual {residual:.3e} exceeds 1e-9")
    return p
