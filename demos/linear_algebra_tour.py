"""Tour of the dense kit: pivoted solve, factorization, spectra, and the
steady-state energy matrix the run-time checks are built on."""

import numpy as np

from delaysync import cholesky, solve_linear, solve_lyapunov, symmetric_eigenvalues
from delaysync.cli import load_scenario

# ---------------------------------------------------------------- solving

# the top-left zero forces a row swap on the very first pivot
a = np.array([[0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [3.0, 0.0, 1.0]])
b = np.array([4.0, 2.0, 5.0])
x = solve_linear(a, b)
print("pivoted solve, zero in the leading corner:")
print("  x        =", x)
print("  residual = %.3e" % np.max(np.abs(a @ x - b)))

# ---------------------------------------------------------- factorization

spd = np.array([[4.0, 2.0], [2.0, 3.0]])
low = cholesky(spd)
print("\ncholesky of [[4,2],[2,3]]:")
print("  L =", low.tolist())
print("  reconstruction error = %.3e" % np.max(np.abs(low @ low.T - spd)))

# ---------------------------------------------------------------- spectra

# the ring fleet's structure matrix; its symmetric part sets the level
# the connectivity check compares against
ring = load_scenario("example2")
from delaysync import build_matrices  # noqa: E402  (kept near its one use)

mats = build_matrices(ring.topology)
sym = 0.5 * (mats.laplacian_like + mats.laplacian_like.T)
print("\neigenvalues of the ring structure matrix (symmetric part):")
print(" ", symmetric_eigenvalues(sym))

# ------------------------------------------------------- energy equation

lead = load_scenario("example1").leader
q_tilde = 0.2 * np.eye(lead.state_dim)
p = solve_lyapunov(lead.a_m, q_tilde)
print("\nsteady-state energy matrix for the builtin leader, weight 0.2 I:")
print("  P =", p.tolist())
print("  equation residual = %.3e" % np.max(np.abs(lead.a_m.T @ p + p @ lead.a_m + q_tilde)))
print("  cholesky diagonal =", np.diag(cholesky(p)), "(so P is positive definite)")
