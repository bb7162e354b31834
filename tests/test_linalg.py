"""Dense linear-algebra kit: hand oracles plus randomized identities."""

import numpy as np
import pytest

from delaysync import linalg
from delaysync.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    SingularMatrix,
)


def test_cholesky_rejections():
    """The positive-definite check refuses the matrices that have no
    Cholesky factor: an asymmetric one and an indefinite one."""
    with pytest.raises(NotSymmetric, match="^w is not symmetric"):
        linalg.require_positive_definite(np.array([[1.0, 2.0], [0.0, 1.0]]), "w")
    # symmetric but indefinite (eigenvalues 3 and -1)
    message = r"^w is not positive definite: smallest eigenvalue -1\.000e\+00$"
    with pytest.raises(NotPositiveDefinite, match=message):
        linalg.require_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]), "w")


def test_symmetric_eigenvalues_hand_case():
    eigs = linalg.symmetric_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.max(np.abs(eigs - [1.0, 3.0])) < 1e-12


def test_symmetric_eigenvalues_diagonal_passthrough():
    eigs = linalg.symmetric_eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(eigs, [-1.0, 2.0, 3.0])


def test_symmetric_eigenvalues_invariants():
    """Ascending order, trace, and Frobenius norm are preserved."""
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        m = rng.normal(size=(n, n))
        a = 0.5 * (m + m.T)
        eigs = linalg.symmetric_eigenvalues(a)
        assert eigs.shape == (n,)
        assert np.all(np.diff(eigs) >= 0.0)
        assert abs(np.sum(eigs) - np.trace(a)) < 1e-9
        assert abs(np.sum(eigs**2) - np.sum(a * a)) < 1e-9


def test_symmetric_eigenvalues_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        linalg.symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetric_eigenvalues_rejects_non_finite():
    with pytest.raises(NotSymmetric):
        linalg.symmetric_eigenvalues(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(NotSymmetric):
        linalg.symmetric_eigenvalues(np.diag([1.0, np.inf]))


def test_symmetric_eigenvalues_maps_lapack_failure(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(linalg.np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(SingularMatrix, match="did not converge"):
        linalg.symmetric_eigenvalues(np.eye(3))


def test_lyapunov_hand_solution():
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    p = linalg.solve_lyapunov(a, 0.2 * np.eye(2))
    assert np.max(np.abs(p - [[0.25, 0.05], [0.05, 0.05]])) <= 1e-9


def test_lyapunov_randomized_residual():
    """Stable random systems: residual within tolerance, solution exactly
    symmetric and positive definite."""
    rng = np.random.default_rng(19)
    for _ in range(15):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(n, n))
        # strict diagonal dominance with negative diagonal keeps a Hurwitz
        a -= np.diag(np.sum(np.abs(a), axis=1) + 1.0)
        m = rng.normal(size=(n, n))
        q = m @ m.T + np.eye(n)
        p = linalg.solve_lyapunov(a, q)
        assert np.array_equal(p, p.T)
        assert np.max(np.abs(a.T @ p + p @ a + q)) <= 1e-9
        assert linalg.require_positive_definite(p) > 0.0


def test_lyapunov_singular_for_mirrored_spectrum():
    # eigenvalues 1 and -1 sum to zero pairwise, so the vectorized system
    # has no unique solution
    with pytest.raises(SingularMatrix):
        linalg.solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))


def test_lyapunov_maps_lapack_failure(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(linalg.np.linalg, "solve", singular)
    with pytest.raises(SingularMatrix, match="Singular matrix"):
        linalg.solve_lyapunov(-np.eye(2), np.eye(2))


def test_lyapunov_requires_symmetric_weight():
    with pytest.raises(NotSymmetric):
        linalg.solve_lyapunov(-np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_lyapunov_shape_check():
    with pytest.raises(DimensionMismatch):
        linalg.solve_lyapunov(-np.eye(2), np.eye(3))
