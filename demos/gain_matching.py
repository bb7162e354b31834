"""Ideal gain solve for the builtin fleet, then a run with those gains
frozen in.  With nothing left to learn the fleet rides the leader from the
first applied input and the gap stays at roundoff."""

import dataclasses

import numpy as np

from delaysync import matching_gains, run_scenario
from delaysync.cli import load_scenario

sc = load_scenario("example1")
gains = matching_gains(sc.fleet, sc.leader)

print("ideal gains per agent (state / lag / reference / input-scale):")
for i in range(sc.fleet.num_agents):
    print(
        "  agent %d: %-24s %-24s %-10s %s"
        % (
            i + 1,
            np.round(gains.theta_x[i].ravel(), 6).tolist(),
            np.round(gains.theta_zeta[i].ravel(), 6).tolist(),
            np.round(gains.theta_r[i].ravel(), 6).tolist(),
            np.round(gains.theta_phi[i].ravel(), 6).tolist(),
        )
    )

# the four conditions for every agent at once, on the stacked (l, ...) arrays
a, a_zeta, b = sc.fleet.a, sc.fleet.a_zeta, sc.fleet.b
worst = max(
    np.max(np.abs(a + b @ np.swapaxes(gains.theta_x, 1, 2) - sc.leader.a_m)),
    np.max(np.abs(a_zeta + b @ np.swapaxes(gains.theta_zeta, 1, 2))),
    np.max(np.abs(b @ gains.theta_r - sc.leader.b_m)),
    np.max(np.abs(sc.leader.b_m @ gains.theta_phi - b)),
)
print("worst residual over all four matching conditions: %.3e" % worst)

ell = sc.fleet.num_agents
frozen = dataclasses.replace(
    sc,
    theta0=np.stack([gains.stacked_regressor_gain(i) for i in range(ell)]),
    phi_phi0=np.stack(gains.theta_phi),
    gamma_theta=np.zeros((ell, ell)),
    gamma_phi=np.zeros((ell, ell)),
    duration=40.0,
)
trace = run_scenario(frozen)
gap = np.max(np.abs(trace.x - trace.x_m[:, None, :]))
print("\nfrozen-gain run over %.0f s: worst |x_i - x_m| = %.3e" % (frozen.duration, gap))
