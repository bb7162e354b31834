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

worst = 0.0
for i, ag in enumerate(sc.fleet.agents):
    worst = max(
        worst,
        np.max(np.abs(ag.a + ag.b @ gains.theta_x[i].T - sc.leader.a_m)),
        np.max(np.abs(ag.a_zeta + ag.b @ gains.theta_zeta[i].T)),
        np.max(np.abs(ag.b @ gains.theta_r[i] - sc.leader.b_m)),
        np.max(np.abs(sc.leader.b_m @ gains.theta_phi[i] - ag.b)),
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
