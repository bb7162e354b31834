"""Controller signal chain: regressor, prediction, control, applied input,
and the reference formulas of the mismatch, auxiliary input, augmented
error and adaptation laws (``chain_oracle``) that the closed-loop
right-hand side is tested against."""

import inspect

import numpy as np
import pytest

import delaysync.adaptive as adaptive_module
from chain_oracle import (
    augmented_error,
    auxiliary_input,
    gain_derivatives,
    leader_block_derivative,
    mismatch,
    predict_leader_regressor,
)
from delaysync.adaptive import applied_input, control, regressor
from delaysync.errors import DimensionMismatch, ValidationError
from delaysync.plant import LeaderModel
from delaysync.topology import Topology, build_matrices

LEADER = LeaderModel(a_m=np.array([[0.0, 1.0], [-2.0, -3.0]]), b_m=np.array([[0.0], [-2.0]]))
P_BLOCK = np.array([[0.25, 0.05], [0.05, 0.05]])
P_B = P_BLOCK @ LEADER.b_m  # the (n, p) product the adaptation laws take


def single_agent_setup():
    """The rates (gamma_theta, gamma_phi, r_signs) of one agent with unit
    rates and a negative reference gain, and its graph matrices."""
    topo = Topology(1, np.zeros((1, 1)), np.ones(1), 0.1)
    rates = (np.eye(1), np.eye(1), np.array([-1.0]))
    return rates, build_matrices(topo)


# ---------------------------------------------------------------- regressor


def test_regressor_concatenates():
    out = regressor([1.0, 2.0], [3.0, 4.0], [5.0])
    assert np.array_equal(out, [1.0, 2.0, 3.0, 4.0, 5.0])


def test_regressor_zeros():
    assert np.array_equal(regressor(np.zeros(2), np.zeros(2), np.zeros(1)), np.zeros(5))


def test_regressor_scalar_case():
    assert np.array_equal(regressor([7.0], [8.0], [9.0]), [7.0, 8.0, 9.0])


def test_regressor_rejects_length_mismatch():
    with pytest.raises(DimensionMismatch):
        regressor([1.0, 2.0], [3.0], [5.0])


# ---------------------------------------------------------------- predictor


def test_prediction_at_equilibrium_is_zero():
    out = predict_leader_regressor(
        LEADER, np.zeros(2), lambda s: np.zeros(1), 0.0, 5.0, 3.0, 0.005
    )
    assert np.array_equal(out, np.zeros(5))


def test_prediction_matches_scalar_exponential():
    m = LeaderModel(a_m=np.array([[-1.0]]), b_m=np.array([[0.0]]))
    out = predict_leader_regressor(
        m, np.array([1.0]), lambda s: np.zeros(1), 0.0, 1.0, 0.0, 0.01
    )
    assert abs(out[0] - np.exp(-1.0)) < 1e-8
    assert out[1] == out[0]  # zero state delay, same prediction point
    assert out[2] == 0.0


def test_prediction_requires_divisible_step():
    with pytest.raises(ValidationError):
        predict_leader_regressor(LEADER, np.zeros(2), lambda s: np.zeros(1), 0.0, 5.0, 3.0, 0.4)


def test_prediction_hold_is_identity_on_constant_input():
    r_of = lambda s: np.array([0.7])
    args = (LEADER, np.array([0.4, -0.2]), r_of, 2.0, 5.0, 3.0, 0.1)
    assert np.array_equal(
        predict_leader_regressor(*args, hold_reference=False),
        predict_leader_regressor(*args, hold_reference=True),
    )


# ------------------------------------------------------- control & mismatch


def test_control_zero_gains():
    assert np.array_equal(control(np.zeros((4, 5, 1)), np.ones(5)), np.zeros((4, 1)))


def test_control_dot_product():
    theta = np.zeros((1, 5, 1))
    theta[0, :, 0] = [1.0, 0.0, 0.0, 0.0, 2.0]
    u = control(theta, np.array([3.0, 0.0, 0.0, 0.0, 1.0]))
    assert u[0, 0] == 5.0


def test_control_with_uniform_small_gains():
    theta = np.full((1, 5, 1), -0.0125)
    u = control(theta, np.ones(5))
    assert u[0, 0] == -0.0625


TAU_U = 5.0


def test_mismatch_vanishes_for_frozen_gains_on_track():
    theta = np.full((2, 5, 1), 0.3)
    eta = np.tile(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), (2, 1))
    u_app = applied_input(theta, eta[0], TAU_U, TAU_U)
    out = mismatch(theta, eta, u_app)
    assert np.array_equal(out, np.zeros((2, 1)))


def test_mismatch_is_linear_in_the_regressor():
    theta = np.zeros((1, 5, 1))
    theta[0, :, 0] = [0.5, -1.0, 0.0, 2.0, 0.25]
    eta_m = np.array([1.0, 2.0, -1.0, 0.5, 4.0])
    u_app = applied_input(theta, eta_m, 7.5, TAU_U)
    out = mismatch(theta, 2.0 * eta_m[None, :], u_app)
    expected = theta[0, :, 0] @ eta_m
    assert abs(out[0, 0] - expected) < 1e-15


def test_mismatch_separates_current_and_delayed_gains():
    now = np.zeros((1, 5, 1))
    now[0, 0, 0] = 1.0
    old = np.zeros((1, 5, 1))
    old[0, 4, 0] = 1.0
    eta = np.zeros((1, 5))
    eta[0, 0] = 2.0
    eta_m = np.zeros(5)
    eta_m[4] = 3.0
    out = mismatch(now, eta, applied_input(old, eta_m, TAU_U, TAU_U))
    assert out[0, 0] == -1.0


def test_applied_input_is_zero_before_tau_u():
    """Nothing commanded reaches the plant before one input delay; from
    then on (a float rounding early included) the delayed gains act."""
    theta = np.full((2, 5, 1), 0.3)
    eta_m = np.ones(5)
    assert np.array_equal(applied_input(theta, eta_m, 0.0, TAU_U), np.zeros((2, 1)))
    assert np.array_equal(applied_input(theta, eta_m, TAU_U - 0.01, TAU_U), np.zeros((2, 1)))
    assert np.array_equal(applied_input(theta, eta_m, TAU_U - 1e-12, TAU_U), control(theta, eta_m))
    rows = applied_input(np.stack([theta] * 3), np.stack([eta_m] * 3), np.array([4.0, 5.0, 6.0]), TAU_U)
    assert np.array_equal(rows[0], np.zeros((2, 1)))
    assert np.array_equal(rows[1:], np.stack([control(theta, eta_m)] * 2))


def test_auxiliary_input_examples():
    assert np.array_equal(auxiliary_input(np.zeros((4, 1, 1)), np.zeros((4, 1))), np.zeros((4, 1)))
    phi_phi = np.array([-0.4, -0.3, -0.2, -0.1]).reshape(4, 1, 1)
    out = auxiliary_input(phi_phi, np.ones((4, 1)))
    assert np.array_equal(out.ravel(), [-0.4, -0.3, -0.2, -0.1])
    out = auxiliary_input(np.array([[[-1.5]]]), np.array([[2.0]]))
    assert out[0, 0] == -3.0


# ------------------------------------------------------------ error & gains


def test_augmented_error_zero_when_matched():
    _, m = single_agent_setup()
    x = np.array([1.0, -2.0])
    assert np.array_equal(augmented_error(m, x[None], x, np.zeros((1, 2))), np.zeros((1, 2)))


def test_augmented_error_balanced_ring_cancels_constant_states():
    w = np.zeros((4, 4))
    for i in range(4):
        w[i, (i - 1) % 4] = 0.3
        w[i, (i + 1) % 4] = 0.3
    m = build_matrices(Topology(4, w, np.full(4, 0.4), 0.1))
    out = augmented_error(m, np.ones((4, 2)), np.ones(2), np.zeros((4, 2)))
    assert np.max(np.abs(out)) < 1e-15


def test_augmented_error_single_block_leader_broadcast():
    _, m = single_agent_setup()
    out = augmented_error(m, np.array([[1.0, 0.0]]), np.zeros(2), np.zeros((1, 2)))
    assert np.array_equal(out, [[1.0, 0.0]])


def test_augmented_error_rejects_wrong_lengths():
    _, m = single_agent_setup()
    with pytest.raises(DimensionMismatch):
        augmented_error(m, np.zeros((1, 3)), np.zeros(2), np.zeros((1, 2)))
    with pytest.raises(DimensionMismatch):
        augmented_error(m, np.zeros((1, 2)), np.zeros(3), np.zeros((1, 2)))


def test_signal_functions_accept_leading_axes():
    """Evaluated over stacked rows, every chain function reproduces its
    one-row values bit for bit; the trace recording relies on this."""
    rng = np.random.default_rng(7)
    w = np.array([[0.0, 0.3, 0.3], [0.5, 0.0, 0.0], [0.0, 0.6, 0.0]])
    m = build_matrices(Topology(3, w, np.array([0.4, 0.5, 0.4]), 0.1))
    rows = 4
    x, x_del, x_a = (rng.normal(size=(rows, 3, 2)) for _ in range(3))
    x_m, x_m_del = (rng.normal(size=(rows, 2)) for _ in range(2))
    theta, theta_del = (rng.normal(size=(rows, 3, 5, 1)) for _ in range(2))
    phi_phi = rng.normal(size=(rows, 3, 1, 1))
    r = rng.normal(size=(rows, 1))
    t = np.array([1.0, 4.0, 5.0, 6.0])

    def chain(sl, r_fleet):
        eta = regressor(x[sl], x_del[sl], r_fleet)
        u_app = applied_input(theta_del[sl], regressor(x_m[sl], x_m_del[sl], r[sl]), t[sl], TAU_U)
        phi = mismatch(theta[sl], eta, u_app)
        e_a = augmented_error(m, x[sl], x_m[sl], x_a[sl])
        return eta, u_app, phi, auxiliary_input(phi_phi[sl], phi), e_a

    stacked = chain(np.s_[:], r[:, None, :])
    for k in range(rows):
        for whole, one in zip(stacked, chain(k, r[k])):
            assert np.array_equal(whole[k], one)


def test_leader_block_derivative_hand_values():
    # [0*1 + 1*0, -2*1 - 3*0] + b_m * 0.5 and [1, -3] + b_m * 0.5
    out = leader_block_derivative(LEADER, np.array([1.0, 0.0]), np.array([0.5]))
    assert np.array_equal(out, [0.0, -3.0])
    out = leader_block_derivative(LEADER, np.array([0.0, 1.0]), np.array([0.5]))
    assert np.array_equal(out, [1.0, -4.0])


def test_gain_derivatives_vanish_at_zero_error():
    rates, m = single_agent_setup()
    d_theta, d_phi = gain_derivatives(
        *rates, m, P_B, np.zeros((1, 2)), np.ones((1, 5)), np.ones((1, 1))
    )
    assert np.array_equal(d_theta, np.zeros((1, 5, 1)))
    assert np.array_equal(d_phi, np.zeros((1, 1, 1)))


def test_gain_derivatives_hand_chain():
    """One agent, unit rates: the error projects to s = -0.1 and both
    updates follow by scalar multiplication."""
    rates, m = single_agent_setup()
    eta = np.zeros((1, 5))
    eta[0, 0] = 1.0
    phi = np.array([[2.0]])
    d_theta, d_phi = gain_derivatives(*rates, m, P_B, np.array([[1.0, 0.0]]), eta, phi)
    # s = b_m^T P e_a = -2 * 0.05 = -0.1
    assert np.max(np.abs(d_theta[0, :, 0] - [-0.1, 0.0, 0.0, 0.0, 0.0])) < 1e-15
    assert abs(d_phi[0, 0, 0] - 0.2) < 1e-15


def test_gain_derivatives_scale_with_eta():
    rates, m = single_agent_setup()
    eta = np.zeros((1, 5))
    eta[0, :] = [1.0, 0.0, 0.0, 0.0, 2.0]
    d_theta, _ = gain_derivatives(*rates, m, P_B, np.array([[1.0, 0.0]]), eta, np.zeros((1, 1)))
    assert np.max(np.abs(d_theta[0, :, 0] - [-0.1, 0.0, 0.0, 0.0, -0.2])) < 1e-15


def test_controller_module_never_touches_follower_dynamics():
    """The whole module must work from the leader model, the graph, and the
    reference-gain signs alone."""
    source = inspect.getsource(adaptive_module)
    for fleet_name in ("AgentDynamics", "FleetDynamics", "a_zeta"):
        assert fleet_name not in source
