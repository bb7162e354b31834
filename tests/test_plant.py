"""Agent and leader models, fleet and auxiliary derivatives, ideal-gain solving."""

import numpy as np
import pytest

from chain_oracle import aux_derivative, fleet_derivative
from delaysync.errors import DimensionMismatch, NoMatchingSolution
from delaysync.plant import (
    AgentDynamics,
    FleetDynamics,
    LeaderModel,
    matching_gains,
)
from delaysync.topology import Topology, build_matrices

LEADER = LeaderModel(a_m=np.array([[0.0, 1.0], [-2.0, -3.0]]), b_m=np.array([[0.0], [-2.0]]))


def second_order_agent(k, d, zk, zd, bg):
    return AgentDynamics(
        a=np.array([[0.0, 1.0], [-k, -d]]),
        a_zeta=np.array([[0.0, 0.0], [zk, zd]]),
        b=np.array([[0.0], [bg]]),
    )


FLEET = [
    second_order_agent(3.0, 2.0, 0.3, 0.15, 3.0),
    second_order_agent(4.0, 3.0, 0.4, 0.2, 4.0),
    second_order_agent(5.0, 4.0, 0.5, 0.25, 5.0),
    second_order_agent(6.0, 5.0, 0.6, 0.3, 6.0),
]


# ------------------------------------------------------------------- models


def test_agent_validation():
    with pytest.raises(DimensionMismatch):
        AgentDynamics(a=np.ones((2, 3)), a_zeta=np.zeros((2, 2)), b=np.ones((2, 1)))
    with pytest.raises(DimensionMismatch):
        AgentDynamics(a=np.eye(2), a_zeta=np.zeros((3, 3)), b=np.ones((2, 1)))
    with pytest.raises(DimensionMismatch):
        AgentDynamics(a=np.eye(2), a_zeta=np.zeros((2, 2)), b=np.ones(2))
    ag = FLEET[0]
    assert ag.state_dim == 2
    assert ag.input_dim == 1


def test_leader_validation():
    with pytest.raises(DimensionMismatch):
        LeaderModel(a_m=np.ones((2, 3)), b_m=np.ones((2, 1)))
    with pytest.raises(DimensionMismatch):
        LeaderModel(a_m=np.eye(2), b_m=np.ones((3, 1)))
    assert LEADER.state_dim == 2
    assert LEADER.input_dim == 1


def test_fleet_stacking():
    dyn = FleetDynamics(FLEET)
    assert dyn.num_agents == 4
    assert dyn.state_dim == 2
    assert dyn.input_dim == 1
    assert np.array_equal(dyn.a[2], FLEET[2].a)
    assert all(got is ag for got, ag in zip(dyn, FLEET))
    with pytest.raises(DimensionMismatch):
        FleetDynamics([])
    scalar = AgentDynamics(a=[[-1.0]], a_zeta=[[0.0]], b=[[1.0]])
    with pytest.raises(DimensionMismatch):
        FleetDynamics([FLEET[0], scalar])


# -------------------------------------------------------------- derivatives


def test_agent_derivative_scalar_hand_case():
    ag = AgentDynamics(a=[[-1.0]], a_zeta=[[0.5]], b=[[2.0]])
    dyn = FleetDynamics([ag])
    drive = dyn.delayed_drive(np.array([[2.0]]), np.array([[3.0]]))
    # 0.5*2 + 2*3, then -1*1 on top
    assert drive[0, 0] == 7.0
    assert fleet_derivative(dyn, np.array([[1.0]]), drive)[0, 0] == 6.0


def test_agent_derivative_matches_per_agent_loop():
    rng = np.random.default_rng(31)
    dyn = FleetDynamics(FLEET)
    for _ in range(10):
        x = rng.normal(size=(4, 2))
        xd = rng.normal(size=(4, 2))
        ud = rng.normal(size=(4, 1))
        stacked = fleet_derivative(dyn, x, dyn.delayed_drive(xd, ud))
        for i, ag in enumerate(FLEET):
            direct = ag.a @ x[i] + ag.a_zeta @ xd[i] + ag.b @ ud[i]
            assert np.max(np.abs(stacked[i] - direct)) < 1e-14


def test_fleet_derivative_accepts_leading_axes():
    rng = np.random.default_rng(5)
    dyn = FleetDynamics(FLEET)
    x, xd = rng.normal(size=(2, 3, 4, 2))
    ud = rng.normal(size=(3, 4, 1))
    drives = dyn.delayed_drive(xd, ud)
    rows = fleet_derivative(dyn, x, drives)
    for k in range(3):
        assert np.array_equal(drives[k], dyn.delayed_drive(xd[k], ud[k]))
        assert np.array_equal(rows[k], fleet_derivative(dyn, x[k], drives[k]))


def test_aux_derivative_routes_inputs_through_graph():
    topo = Topology(2, np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([0.5, 0.5]), 0.1)
    m = build_matrices(topo)
    x_a = np.zeros((2, 2))
    u_a = np.array([[1.0], [0.0]])
    out = aux_derivative(LEADER, m, x_a, u_a)
    # L @ u_a = [1, -0.5]; each block is b_m times that entry
    assert np.array_equal(out, [[0.0, -2.0], [0.0, 1.0]])
    # state part is blockwise a_m
    out = aux_derivative(LEADER, m, np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros((2, 1)))
    assert np.array_equal(out, [[0.0, -2.0], [0.0, 0.0]])


# ----------------------------------------------------------------- matching


def test_matching_gains_hand_values():
    g = matching_gains(FLEET, LEADER)
    assert np.max(np.abs(g.theta_x[0].ravel() - [1.0 / 3.0, -1.0 / 3.0])) <= 1e-9
    assert np.max(np.abs(g.theta_zeta[0].ravel() - [-0.1, -0.05])) <= 1e-9
    assert abs(g.theta_r[0][0, 0] + 2.0 / 3.0) <= 1e-9
    assert abs(g.theta_phi[0][0, 0] + 1.5) <= 1e-9
    # all reference gains are negative for this fleet: b entries oppose b_m
    assert all(g.theta_r[i][0, 0] < 0.0 for i in range(4))


def test_matching_conditions_hold_for_whole_fleet():
    g = matching_gains(FLEET, LEADER)
    for i, ag in enumerate(FLEET):
        assert np.max(np.abs(ag.a + ag.b @ g.theta_x[i].T - LEADER.a_m)) <= 1e-9
        assert np.max(np.abs(ag.a_zeta + ag.b @ g.theta_zeta[i].T)) <= 1e-9
        assert np.max(np.abs(ag.b @ g.theta_r[i] - LEADER.b_m)) <= 1e-9
        assert np.max(np.abs(LEADER.b_m @ g.theta_phi[i] - ag.b)) <= 1e-9


def test_stacked_regressor_gain_layout():
    g = matching_gains(FLEET, LEADER)
    stacked = g.stacked_regressor_gain(0)
    assert stacked.shape == (5, 1)
    assert np.array_equal(stacked, np.vstack([g.theta_x[0], g.theta_zeta[0], g.theta_r[0]]))


def test_matching_rejects_misaligned_input_direction():
    # input enters on the first state only, leader drives the second: the
    # reference condition b theta_r = b_m has no solution
    bad = AgentDynamics(a=np.array([[0.0, 1.0], [-1.0, -1.0]]), a_zeta=np.zeros((2, 2)), b=np.array([[1.0], [0.0]]))
    with pytest.raises(NoMatchingSolution):
        matching_gains([bad], LEADER)


def test_matching_names_the_first_agent_that_cannot_match():
    # agent 3's delayed coupling acts on the first state, which its input
    # cannot reach; agent 4 also fails, on an earlier condition
    third = AgentDynamics(a=FLEET[2].a, a_zeta=[[0.1, 0.0], [0.5, 0.25]], b=FLEET[2].b)
    fourth = AgentDynamics(a=FLEET[3].a, a_zeta=FLEET[3].a_zeta, b=[[1.0], [0.0]])
    with pytest.raises(
        NoMatchingSolution, match=r"^agent 3: delayed-state matching residual 1\.000e-01 exceeds 1e-09$"
    ):
        matching_gains(FLEET[:2] + [third, fourth], LEADER)


def test_matching_rejects_dimension_mismatch():
    scalar = AgentDynamics(a=[[-1.0]], a_zeta=[[0.0]], b=[[1.0]])
    with pytest.raises(DimensionMismatch):
        matching_gains([scalar], LEADER)
