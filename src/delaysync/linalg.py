"""Small dense linear-algebra kit.

All routines work on plain numpy ``float64`` arrays: matrices are 2-d and
row-major, vectors 1-d.  The factorizations and solvers are written out by
hand so that their failure thresholds stay exactly the documented ones.
Symmetric eigenvalues come from LAPACK instead: set-up needs them of l-by-l
fleet matrices (the graph's symmetric part, the adaptation rates), where a
hand-written sweep grows cubically with the fleet, and they only classify
checks, never entering the integrated trace.
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


def _as_vector(b, name: str = "vector") -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got ndim={b.ndim}")
    return b


def _require_symmetric(a: np.ndarray, name: str = "matrix") -> None:
    if not np.isfinite(a).all():
        raise NotSymmetric(f"{name} has a non-finite entry")
    skew = np.max(np.abs(a - a.T)) if a.size else 0.0
    if skew > SYMMETRY_TOL:
        raise NotSymmetric(f"{name} is not symmetric: max |a - a^T| = {skew:.3e}")


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by Gaussian elimination with partial pivoting.

    Parameters
    ----------
    a : (n, n) array
    b : (n,) array

    Returns
    -------
    (n,) solution vector.

    Raises
    ------
    SingularMatrix
        If any pivot magnitude falls to or below ``1e-12`` times the largest
        entry magnitude of the original matrix.
    """
    a = _as_square(a, "a").copy()
    b = _as_vector(b, "b").copy()
    n = a.shape[0]
    if b.shape[0] != n:
        raise DimensionMismatch(f"b has length {b.shape[0]}, expected {n}")
    floor = 1e-12 * (np.max(np.abs(a)) if n else 0.0)

    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if np.abs(a[p, k]) <= floor:
            raise SingularMatrix(f"pivot {np.abs(a[p, k]):.3e} at column {k} below floor {floor:.3e}")
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        factors = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= np.outer(factors, a[k, k:])
        b[k + 1:] -= factors * b[k]

    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def cholesky(a) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix.

    Returns ``L`` with ``L @ L.T == a``.  Raises :class:`NotSymmetric` when
    ``max |a - a^T| > 1e-10`` and :class:`NotPositiveDefinite` when a pivot
    ``a[j, j] - sum(L[j, :j]**2)`` is not strictly positive.
    """
    a = _as_square(a, "a")
    _require_symmetric(a, "a")
    n = a.shape[0]
    low = np.zeros((n, n))
    for j in range(n):
        d = a[j, j] - low[j, :j] @ low[j, :j]
        if d <= 0.0:
            raise NotPositiveDefinite(f"pivot {d:.3e} at diagonal {j} is not positive")
        low[j, j] = np.sqrt(d)
        low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


def symmetric_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, from LAPACK (``eigvalsh``).

    Raises :class:`NotSymmetric` when ``max |a - a^T| > 1e-10`` or an entry
    is not finite, and :class:`SingularMatrix` when the LAPACK driver fails.
    """
    a = _as_square(a, "a")
    _require_symmetric(a, "a")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"symmetric eigensolve failed: {exc}") from exc


def solve_lyapunov(a_m, q_tilde) -> np.ndarray:
    """Solve the continuous Lyapunov equation ``a_m^T P + P a_m = -q_tilde``.

    The equation is vectorized column-major into
    ``(I (x) a_m^T + a_m^T (x) I) vec(P) = -vec(q_tilde)`` and handed to
    :func:`solve_linear`.  The result is symmetrized as ``(P + P^T) / 2``.

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
        From the vectorized solve, or when the substituted residual exceeds
        ``1e-9`` (ill-conditioned system).
    """
    a_m = _as_square(a_m, "a_m")
    q_tilde = _as_square(q_tilde, "q_tilde")
    if q_tilde.shape != a_m.shape:
        raise DimensionMismatch(f"q_tilde shape {q_tilde.shape} does not match a_m {a_m.shape}")
    _require_symmetric(q_tilde, "q_tilde")

    n = a_m.shape[0]
    eye = np.eye(n)
    coeff = np.kron(eye, a_m.T) + np.kron(a_m.T, eye)
    rhs = -q_tilde.flatten(order="F")
    p = solve_linear(coeff, rhs).reshape((n, n), order="F")
    p = 0.5 * (p + p.T)

    residual = np.max(np.abs(a_m.T @ p + p @ a_m + q_tilde))
    if residual > 1e-9:
        raise SingularMatrix(f"lyapunov residual {residual:.3e} exceeds 1e-9")
    return p
