"""Directed interaction topology between a leader and its follower fleet.

Each follower listens to a weighted set of peers plus, optionally, the
leader.  The weights of every agent (peers plus leader) must sum to one, so
the in-degree matrix is the identity and the graph matrix used by the
controller is ``L = I - W`` with ``W`` the follower weight matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, UnbalancedTopology

# Row sums may deviate from one by at most this much.
BALANCE_TOL = 1e-12
# Eigenvalues and weights below this magnitude count as zero.
ZERO_EIG_TOL = 1e-10


@dataclass(frozen=True)
class Topology:
    """Weighted digraph of one leader and ``num_agents`` followers.

    ``follower_weights[i, j]`` is how strongly agent ``i`` weighs agent
    ``j``; ``leader_weights[i]`` is agent ``i``'s direct leader weight.
    Weights are finite and nonnegative, the diagonal of ``follower_weights``
    is zero, each row of combined weights sums to one, and the threshold is
    finite and positive.
    """

    num_agents: int
    follower_weights: np.ndarray
    leader_weights: np.ndarray
    threshold: float

    def __post_init__(self):
        w = np.asarray(self.follower_weights, dtype=float)
        g = np.asarray(self.leader_weights, dtype=float)
        n = self.num_agents
        if n < 1:
            raise DimensionMismatch("need at least one agent")
        if w.shape != (n, n):
            raise DimensionMismatch(f"follower_weights shape {w.shape}, expected {(n, n)}")
        if g.shape != (n,):
            raise DimensionMismatch(f"leader_weights shape {g.shape}, expected {(n,)}")
        if not (np.isfinite(w).all() and np.isfinite(g).all()):
            raise UnbalancedTopology("weights must be finite")
        if np.any(w < 0.0) or np.any(g < 0.0):
            raise UnbalancedTopology("weights must be nonnegative")
        if np.any(w.diagonal() != 0.0):
            raise UnbalancedTopology("self-weights must be zero")
        if not 0.0 < self.threshold < math.inf:
            raise UnbalancedTopology(f"threshold must be finite and positive, got {self.threshold}")
        deviation = np.max(np.abs(w.sum(axis=1) + g - 1.0))
        if deviation > BALANCE_TOL:
            raise UnbalancedTopology(f"row weight sums deviate from 1 by {deviation:.3e}")
        object.__setattr__(self, "follower_weights", w)
        object.__setattr__(self, "leader_weights", g)


@dataclass(frozen=True)
class TopologyMatrices:
    """Matrix form of a :class:`Topology`.

    ``laplacian_like`` is the (l, l) ``I - W``, which acts on fleet states
    blockwise, one n-vector per agent.  ``pinning`` is the (l, 1) column of
    leader weights ``g`` that scales the leader block.
    """

    laplacian_like: np.ndarray
    pinning: np.ndarray


def build_matrices(topo: Topology) -> TopologyMatrices:
    """Assemble the graph matrices of ``topo`` (its row sums are checked
    when it is built)."""
    w = topo.follower_weights
    g = topo.leader_weights
    return TopologyMatrices(laplacian_like=np.eye(topo.num_agents) - w, pinning=g[:, None].copy())


def check_balanced(m: TopologyMatrices) -> bool:
    """True when ``L @ 1 - g`` vanishes (max deviation <= 1e-12)."""
    ones = np.ones(m.laplacian_like.shape[0])
    return bool(np.max(np.abs(m.laplacian_like @ ones - m.pinning[:, 0])) <= BALANCE_TOL)


@dataclass(frozen=True)
class ThresholdReport:
    """Spectral connectivity report produced by :func:`check_threshold`.

    ``min_nonzero_eigenvalue`` is the smallest nonzero eigenvalue of the
    symmetric part of ``L``; ``min_nonzero_leader_weight`` the smallest
    nonzero leader weight.  ``zero_leader_weights`` lists agents whose
    direct leader weight is zero; any such agent fails the check, since the
    auxiliary feedback path of an agent the leader does not weight degrades
    exactly like a disconnected one (see :func:`leader_reachable` for the
    path-existence view).
    """

    min_nonzero_eigenvalue: float | None
    min_nonzero_leader_weight: float | None
    zero_leader_weights: tuple[int, ...]
    passed: bool


def check_threshold(m: TopologyMatrices, threshold: float) -> ThresholdReport:
    """Check the connectivity threshold on ``L`` and the leader weights.

    The follower graph enters through the eigenvalues of the symmetric part
    ``(L + L^T) / 2``; eigenvalues and weights below ``1e-10`` in magnitude
    are classified as zero.
    """
    sym = 0.5 * (m.laplacian_like + m.laplacian_like.T)
    eigs = linalg.symmetric_eigenvalues(sym)
    nonzero_eigs = eigs[np.abs(eigs) > ZERO_EIG_TOL]
    min_eig = float(np.min(nonzero_eigs)) if nonzero_eigs.size else None

    weights = m.pinning[:, 0]
    zero_idx = tuple(int(i) for i in np.flatnonzero(np.abs(weights) <= ZERO_EIG_TOL))
    nonzero_w = weights[np.abs(weights) > ZERO_EIG_TOL]
    min_w = float(np.min(nonzero_w)) if nonzero_w.size else None

    passed = (
        min_eig is not None
        and min_eig >= threshold
        and min_w is not None
        and min_w >= threshold
        and not zero_idx
    )
    return ThresholdReport(
        min_nonzero_eigenvalue=min_eig,
        min_nonzero_leader_weight=min_w,
        zero_leader_weights=zero_idx,
        passed=passed,
    )


def leader_reachable(topo: Topology) -> bool:
    """True when a directed path from the leader reaches every agent.

    Edges are ``leader -> i`` for positive leader weight and ``j -> i``
    for positive follower weight ``w[i, j]``.
    """
    adjacent = topo.follower_weights > 0.0
    seen = topo.leader_weights > 0.0
    frontier = seen
    # One BFS level per pass: the agents that listen to the last level and
    # were not reached before; O(l^2) over all levels.
    while frontier.any():
        frontier = adjacent[:, frontier].any(axis=1) & ~seen
        seen |= frontier
    return bool(seen.all())
