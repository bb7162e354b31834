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


def test_solve_linear_needs_row_swap():
    # zero leading pivot, solvable only through the pivoting path
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = linalg.solve_linear(a, np.array([3.0, 5.0]))
    assert np.array_equal(x, [5.0, 3.0])


def test_solve_linear_random_consistency():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        x_true = rng.normal(size=n)
        x = linalg.solve_linear(a, a @ x_true)
        assert np.max(np.abs(x - x_true)) < 1e-9


def test_solve_linear_rejects_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        linalg.solve_linear(a, np.array([1.0, 2.0]))


def test_solve_linear_shape_checks():
    with pytest.raises(DimensionMismatch):
        linalg.solve_linear(np.eye(2), np.ones(3))
    with pytest.raises(DimensionMismatch):
        linalg.solve_linear(np.ones((2, 3)), np.ones(2))


def test_cholesky_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = rng.normal(size=(n, n))
        a = m @ m.T + n * np.eye(n)
        low = linalg.cholesky(a)
        assert np.max(np.abs(low @ low.T - a)) < 1e-10
        assert np.array_equal(np.triu(low, 1), np.zeros((n, n)))


def test_cholesky_rejections():
    with pytest.raises(NotSymmetric):
        linalg.cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))
    # symmetric but indefinite (eigenvalues 3 and -1)
    with pytest.raises(NotPositiveDefinite):
        linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


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
        linalg.cholesky(p)


def test_lyapunov_singular_for_mirrored_spectrum():
    # eigenvalues 1 and -1 sum to zero pairwise, so the vectorized system
    # has no unique solution
    with pytest.raises(SingularMatrix):
        linalg.solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))


def test_lyapunov_requires_symmetric_weight():
    with pytest.raises(NotSymmetric):
        linalg.solve_lyapunov(-np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_lyapunov_shape_check():
    with pytest.raises(DimensionMismatch):
        linalg.solve_lyapunov(-np.eye(2), np.eye(3))
