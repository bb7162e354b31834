"""What the structural checks say about the builtin graphs, and about one
deliberately broken graph."""

import numpy as np

from delaysync import (
    Topology,
    build_matrices,
    check_balanced,
    check_threshold,
    leader_reachable,
)
from delaysync.cli import load_scenario


def show(label, topo):
    m = build_matrices(topo)
    print(f"== {label}: {topo.num_agents} agents, threshold {topo.threshold}")
    print("agent-to-agent weights:")
    print(topo.follower_weights)
    print("leader weights:", topo.leader_weights)
    print("row-sum balance holds:", check_balanced(m))
    rep = check_threshold(m, topo.threshold)
    print(
        "connectivity: passed=%s  min nonzero eigenvalue=%s  min leader weight=%s"
        % (rep.passed, rep.min_nonzero_eigenvalue, rep.min_nonzero_leader_weight)
    )
    if rep.zero_leader_weights:
        print("  agents with no direct leader weight:", rep.zero_leader_weights)
    print("every agent reaches the leader:", leader_reachable(topo))
    print()


show("pinned fleet (example1)", load_scenario("example1").topology)
show("ring fleet (example2)", load_scenario("example2").topology)

# Two agents that only watch each other.  Rows still sum to one, so the
# balance check is happy, but no path leads back to the leader and the
# connectivity report flags the zero leader weights.
mutual = Topology(
    num_agents=2,
    follower_weights=np.array([[0.0, 1.0], [1.0, 0.0]]),
    leader_weights=np.zeros(2),
    threshold=0.1,
)
show("mutual pair, leader ignored", mutual)
