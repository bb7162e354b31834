"""delaysync: distributed adaptive leader tracking with state and input delays.

A fleet of linear agents, each with a delayed internal coupling and a
delayed input channel, follows a stable reference model over a weighted
graph.  The package provides the set-up checks built on LAPACK (symmetric
spectra, positive definiteness, the Lyapunov equation), graph checks, a
fixed-step delay integrator, the plant and controller pieces, a scenario
harness, and a small CLI (``delaysync run|validate|list-builtins``).
"""

from .adaptive import (
    applied_input,
    control,
    leader_block_derivative,
    predict_leader_regressor,
    regressor,
)
from .dde import DdeState, HistoryBuffer, run, step_rk4
from .errors import (
    DelaySyncError,
    DimensionMismatch,
    DivergenceDetected,
    EmptyTrace,
    ExpiredQuery,
    FutureQuery,
    NoMatchingSolution,
    NonFiniteState,
    NotHurwitz,
    NotPositiveDefinite,
    NotSymmetric,
    ParseError,
    SingularMatrix,
    SingularWeight,
    TraceTooLarge,
    UnbalancedTopology,
    ValidationError,
)
from .harness import (
    CheckResult,
    ReferenceSignal,
    Scenario,
    SimTrace,
    TraceMetrics,
    TraceTally,
    metrics,
    run_blocks,
    run_scenario,
    validate_scenario,
)
from .linalg import (
    require_positive_definite,
    solve_lyapunov,
    symmetric_eigenvalues,
)
from .plant import (
    AgentDynamics,
    FleetDynamics,
    LeaderModel,
    MatchingGains,
    matching_gains,
)
from .topology import (
    ThresholdReport,
    Topology,
    TopologyMatrices,
    build_matrices,
    check_balanced,
    check_threshold,
    leader_reachable,
)

__version__ = "0.1.0"

__all__ = [
    "AgentDynamics",
    "CheckResult",
    "DdeState",
    "DelaySyncError",
    "DimensionMismatch",
    "DivergenceDetected",
    "EmptyTrace",
    "ExpiredQuery",
    "FleetDynamics",
    "FutureQuery",
    "HistoryBuffer",
    "LeaderModel",
    "MatchingGains",
    "NoMatchingSolution",
    "NonFiniteState",
    "NotHurwitz",
    "NotPositiveDefinite",
    "NotSymmetric",
    "ParseError",
    "ReferenceSignal",
    "Scenario",
    "SimTrace",
    "SingularMatrix",
    "SingularWeight",
    "ThresholdReport",
    "Topology",
    "TopologyMatrices",
    "TraceMetrics",
    "TraceTally",
    "TraceTooLarge",
    "UnbalancedTopology",
    "ValidationError",
    "applied_input",
    "build_matrices",
    "check_balanced",
    "check_threshold",
    "control",
    "leader_block_derivative",
    "leader_reachable",
    "matching_gains",
    "metrics",
    "predict_leader_regressor",
    "regressor",
    "require_positive_definite",
    "run",
    "run_blocks",
    "run_scenario",
    "solve_lyapunov",
    "step_rk4",
    "symmetric_eigenvalues",
    "validate_scenario",
]
