"""Graph construction, balance and connectivity checks, reachability."""

import math
import time
from collections import deque

import numpy as np
import pytest

from delaysync.errors import DimensionMismatch, UnbalancedTopology
from delaysync.topology import (
    Topology,
    TopologyMatrices,
    build_matrices,
    check_balanced,
    check_threshold,
    leader_reachable,
)


def ring4(side=0.3, leader=0.4, threshold=0.1):
    """Four agents in a cycle, each leaning `side` on both neighbours."""
    w = np.zeros((4, 4))
    for i in range(4):
        w[i, (i - 1) % 4] = side
        w[i, (i + 1) % 4] = side
    return Topology(4, w, np.full(4, leader), threshold)


def pinned4(threshold=0.1):
    """Four agents, leader-only links."""
    return Topology(4, np.zeros((4, 4)), np.ones(4), threshold)


# ---------------------------------------------------------------- validation


def test_rejects_negative_weight():
    w = np.zeros((2, 2))
    w[0, 1] = -0.1
    with pytest.raises(UnbalancedTopology):
        Topology(2, w, np.array([1.1, 1.0]), 0.1)


def test_rejects_self_weight():
    w = np.array([[0.5, 0.0], [0.0, 0.0]])
    with pytest.raises(UnbalancedTopology):
        Topology(2, w, np.array([0.5, 1.0]), 0.1)


def test_rejects_unbalanced_rows():
    w = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(UnbalancedTopology):
        Topology(2, w, np.array([0.4, 0.5]), 0.1)


def test_rejects_bad_threshold():
    with pytest.raises(UnbalancedTopology):
        Topology(1, np.zeros((1, 1)), np.ones(1), 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rejects_non_finite_weights(bad):
    """A NaN compares False against every sign and balance check, so
    finiteness is checked on its own."""
    with pytest.raises(UnbalancedTopology, match="finite"):
        Topology(2, np.array([[0.0, bad], [0.5, 0.0]]), np.array([0.5, 0.5]), 0.1)
    with pytest.raises(UnbalancedTopology, match="finite"):
        Topology(2, np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([0.5, bad]), 0.1)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_rejects_non_finite_threshold(bad):
    with pytest.raises(UnbalancedTopology, match="finite"):
        Topology(1, np.zeros((1, 1)), np.ones(1), bad)


def test_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        Topology(2, np.zeros((2, 3)), np.ones(2), 0.1)
    with pytest.raises(DimensionMismatch):
        Topology(2, np.zeros((2, 2)), np.ones(3), 0.1)
    with pytest.raises(DimensionMismatch):
        Topology(0, np.zeros((0, 0)), np.ones(0), 0.1)


# ------------------------------------------------------------------ matrices


def test_matrices_are_identity_minus_weights():
    topo = ring4()
    m = build_matrices(topo)
    assert np.array_equal(m.laplacian_like, np.eye(4) - topo.follower_weights)
    assert np.array_equal(m.pinning, np.full((4, 1), 0.4))


def test_balanced_for_valid_topologies():
    assert check_balanced(build_matrices(ring4()))
    assert check_balanced(build_matrices(pinned4()))


def test_balanced_detects_tampering():
    # bypass the constructor check by assembling matrices directly
    m = build_matrices(ring4())
    bad = TopologyMatrices(
        laplacian_like=m.laplacian_like + 0.01,
        pinning=m.pinning,
    )
    assert not check_balanced(bad)


def test_balance_identity_holds_exactly_for_dyadic_weights():
    """Weights built from eighths make L @ 1 - g exactly zero."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        ell = int(rng.integers(2, 7))
        w = rng.integers(0, 3, size=(ell, ell)).astype(float) / 8.0
        np.fill_diagonal(w, 0.0)
        g = 1.0 - w.sum(axis=1)
        if np.any(g < 0.0):
            continue
        m = build_matrices(Topology(ell, w, g, 0.01))
        gap = m.laplacian_like @ np.ones(ell) - m.pinning[:, 0]
        assert np.array_equal(gap, np.zeros(ell))
        assert check_balanced(m)


# ----------------------------------------------------------------- threshold


def test_threshold_ring_spectrum():
    rep = check_threshold(build_matrices(ring4()), 0.1)
    # cycle of four with weight 0.3 per side: symmetric-part eigenvalues
    # 1 - 0.6 cos(2 pi k / 4) for k = 0..3, nonzero minimum 0.4
    assert abs(rep.min_nonzero_eigenvalue - 0.4) <= 1e-9
    assert rep.min_nonzero_leader_weight == 0.4
    assert rep.zero_leader_weights == ()
    assert rep.passed


def test_threshold_large_ring_spectrum():
    """The symmetric part of a 0.3/0.3/0.4 ring's L has eigenvalues
    1 - 0.6 cos(2 pi k / l); the smallest, at k = 0, is the leader weight."""
    ell = 256
    w = np.zeros((ell, ell))
    idx = np.arange(ell)
    w[idx, (idx - 1) % ell] = 0.3
    w[idx, (idx + 1) % ell] = 0.3
    rep = check_threshold(build_matrices(Topology(ell, w, np.full(ell, 0.4), 0.1)), 0.1)
    assert abs(rep.min_nonzero_eigenvalue - 0.4) < 1e-9
    assert rep.passed


def test_threshold_pinned_spectrum():
    rep = check_threshold(build_matrices(pinned4()), 0.1)
    assert abs(rep.min_nonzero_eigenvalue - 1.0) <= 1e-12
    assert rep.min_nonzero_leader_weight == 1.0
    assert rep.passed


def test_threshold_can_fail_on_level():
    rep = check_threshold(build_matrices(ring4()), 0.5)
    assert not rep.passed


def test_threshold_flags_unpinned_agents():
    w = np.zeros((3, 3))
    w[0, 1] = w[0, 2] = 0.3
    w[2, 0] = w[2, 1] = 0.5  # agent 3 has no leader link
    g = np.array([0.4, 1.0, 0.0])
    rep = check_threshold(build_matrices(Topology(3, w, g, 0.1)), 0.1)
    assert rep.zero_leader_weights == (2,)
    assert not rep.passed


# -------------------------------------------------------------- reachability


def test_reachable_through_chain():
    # leader -> 1 -> 2 -> 3
    w = np.zeros((3, 3))
    w[1, 0] = 1.0
    w[2, 1] = 1.0
    topo = Topology(3, w, np.array([1.0, 0.0, 0.0]), 0.1)
    assert leader_reachable(topo)


def test_unreachable_pair():
    # agents 3 and 4 only listen to each other
    w = np.zeros((4, 4))
    w[2, 3] = 1.0
    w[3, 2] = 1.0
    topo = Topology(4, w, np.array([1.0, 1.0, 0.0, 0.0]), 0.1)
    assert not leader_reachable(topo)


def test_reachability_is_relabeling_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ell = int(rng.integers(2, 7))
        w = rng.integers(0, 2, size=(ell, ell)).astype(float) / 4.0
        np.fill_diagonal(w, 0.0)
        g = 1.0 - w.sum(axis=1)
        if np.any(g < 0.0):
            continue
        topo = Topology(ell, w, g, 0.01)
        perm = rng.permutation(ell)
        relabeled = Topology(ell, w[np.ix_(perm, perm)], g[perm], 0.01)
        assert leader_reachable(topo) == leader_reachable(relabeled)


def test_builtin_graphs_are_reachable():
    assert leader_reachable(ring4())
    assert leader_reachable(pinned4())


def _reference_reachable(topo):
    """leader_reachable as a deque BFS that visits one agent at a time."""
    frontier = deque(int(i) for i in np.flatnonzero(topo.leader_weights > 0.0))
    seen = set(frontier)
    while frontier:
        j = frontier.popleft()
        for i in np.flatnonzero(topo.follower_weights[:, j] > 0.0):
            i = int(i)
            if i not in seen:
                seen.add(i)
                frontier.append(i)
    return len(seen) == topo.num_agents


def _random_topology(rng, ell):
    """A seeded digraph on ``ell`` agents with sparse links and few pinned
    agents, rows normalised to one; an agent nothing links to is pinned."""
    w = rng.random((ell, ell)) * (rng.random((ell, ell)) < 2.0 / ell)
    np.fill_diagonal(w, 0.0)
    g = rng.random(ell) * (rng.random(ell) < 0.1)
    g[w.sum(axis=1) + g == 0.0] = 1.0
    total = w.sum(axis=1) + g
    return Topology(ell, w / total[:, None], g / total, 0.01)


def test_reachability_matches_the_reference_bfs():
    rng = np.random.default_rng(11)
    outcomes = []
    for ell in range(1, 41):
        for _ in range(5):
            topo = _random_topology(rng, ell)
            want = _reference_reachable(topo)
            assert leader_reachable(topo) is want
            outcomes.append(want)
    assert 0 < sum(outcomes) < len(outcomes)  # both kinds of graph are drawn


def test_reachability_of_a_deep_chain_is_fast():
    # leader -> 1 -> 2 -> ... -> 2000: one BFS level per agent
    ell = 2000
    w = np.zeros((ell, ell))
    w[np.arange(1, ell), np.arange(ell - 1)] = 1.0
    g = np.zeros(ell)
    g[0] = 1.0
    topo = Topology(ell, w, g, 0.1)
    start = time.perf_counter()
    assert leader_reachable(topo)
    assert time.perf_counter() - start < 0.5
    # cut after agent 1000: the rest only listen along the chain
    w[1000, 999] = 0.0
    w[1000, 1001] = 1.0
    assert not leader_reachable(Topology(ell, w, g, 0.1))
