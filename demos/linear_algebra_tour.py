"""Tour of the set-up checks: spectra, positive definiteness, and the
steady-state energy matrix the run-time checks are built on."""

import numpy as np

from delaysync import (
    NotPositiveDefinite,
    build_matrices,
    require_positive_definite,
    solve_lyapunov,
    symmetric_eigenvalues,
)
from delaysync.cli import load_scenario

# ---------------------------------------------------------------- spectra

# the ring fleet's structure matrix; its symmetric part sets the level
# the connectivity check compares against
ring = load_scenario("example2")
mats = build_matrices(ring.topology)
sym = 0.5 * (mats.laplacian_like + mats.laplacian_like.T)
print("eigenvalues of the ring structure matrix (symmetric part):")
print(" ", symmetric_eigenvalues(sym))

# --------------------------------------------------- positive definiteness

print("\npositive definiteness, read off the smallest eigenvalue:")
spd = [[4.0, 2.0], [2.0, 3.0]]
print("  [[4,2],[2,3]]: smallest eigenvalue %.6g" % require_positive_definite(spd))
try:
    require_positive_definite([[1.0, 2.0], [2.0, 1.0]], "indefinite")
except NotPositiveDefinite as exc:
    print("  [[1,2],[2,1]]: refused:", exc)

# ------------------------------------------------------- energy equation

lead = load_scenario("example1").leader
q_tilde = 0.2 * np.eye(lead.state_dim)
p = solve_lyapunov(lead.a_m, q_tilde)
print("\nsteady-state energy matrix for the builtin leader, weight 0.2 I:")
print("  P =", p.tolist())
print("  equation residual = %.3e" % np.max(np.abs(lead.a_m.T @ p + p @ lead.a_m + q_tilde)))
print("  smallest eigenvalue = %.6g (so P is positive definite)" % require_positive_definite(p, "P"))
