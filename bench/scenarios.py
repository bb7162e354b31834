"""Seeded scenario files for the benchmark workloads, in the CLI text format.

Each workload is a list of members; a member is one scenario file that the
benchmark hands to ``delaysync run``.  The files are written from plain
numbers here rather than from the package's own objects, so the inputs stay
fixed while the package's internals change.  Every number is written with
``repr``, which ``float`` parses back to the identical double.

Seeds pick members from finite catalogues (``catalogue``), so that every
member the benchmark can run has a reference summary in ``reference.json``
recorded by ``record_reference.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

WORKLOADS = ("pinned_long", "ring_large", "gamma_sweep")

# The four second-order followers and the leader of the builtin examples,
# copied literally so that the files match ``example1``/``example2``.
_LEADER = {"state_dim": 2, "input_dim": 1, "a_m": [0, 1, -2, -3], "b_m": [0, -2]}
_EXAMPLE_AGENTS = [
    {"a": [0, 1, -3, -2], "a_zeta": [0, 0, 0.3, 0.15], "b": [0, 3]},
    {"a": [0, 1, -4, -3], "a_zeta": [0, 0, 0.4, 0.2], "b": [0, 4]},
    {"a": [0, 1, -5, -4], "a_zeta": [0, 0, 0.5, 0.25], "b": [0, 5]},
    {"a": [0, 1, -6, -5], "a_zeta": [0, 0, 0.6, 0.3], "b": [0, 6]},
]
_EXAMPLE_THETA0 = [-0.0125] * 5 + [-0.01] * 5 + [-0.0075] * 5 + [-0.005] * 5
_EXAMPLE_PHI_PHI0 = [-0.4, -0.3, -0.2, -0.1]

# pinned_long: example1 over 40 s at h = 0.005 (8000 steps, one run).
PINNED_DURATION = 40.0

# ring_large: RING_AGENTS agents on a ring, 2000 steps of h = 0.01.  The
# seed selects one of RING_VARIANTS seeded rings.
RING_AGENTS = 128
RING_STEP = 0.01
RING_DURATION = 20.0
RING_VARIANTS = 8

# gamma_sweep: SWEEP_MEMBERS variants of example2, half square and half
# sine, drawn without repeats from the catalogue below.  The horizon must
# exceed 2 * tau_u = 10 s: before that, members that differ only in the
# adaptation rate produce identical traces.
SWEEP_MEMBERS = 8
SWEEP_DURATION = 15.0
SWEEP_GAMMA_SCALES = (0.5, 1.0, 2.0, 5.0, 10.0)
SWEEP_GAIN_SCALES = (0.5, 1.0, 2.0)
SWEEP_KINDS = ("square", "sine")


@dataclass(frozen=True)
class Member:
    """One scenario of a workload: its catalogue key, file and step count."""

    key: str
    path: Path
    steps: int


def _numbers(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def scenario_text(sections: dict[str, dict]) -> str:
    """Render {section: {key: value}} in the CLI format; lists are flattened
    row-major number rows, strings are written as they are."""
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        for key, value in entries.items():
            if isinstance(value, str):
                text = value
            elif isinstance(value, (list, tuple)):
                text = _numbers(value)
            else:
                text = repr(value) if isinstance(value, int) else repr(float(value))
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


def _identity(ell: int, scale: float = 1.0) -> list[float]:
    return [scale if i == j else 0.0 for i in range(ell) for j in range(ell)]


def _ring_weights(ell: int, side: float) -> list[float]:
    w = [[0.0] * ell for _ in range(ell)]
    for i in range(ell):
        w[i][(i - 1) % ell] = side
        w[i][(i + 1) % ell] = side
    return [v for row in w for v in row]


def _sections(agents, follower_weights, leader_weights, controller, simulation, reference):
    sections = {"simulation": simulation, "reference": reference, "leader": dict(_LEADER)}
    for i, agent in enumerate(agents, start=1):
        sections[f"agent.{i}"] = agent
    sections["topology"] = {
        "follower_weights": follower_weights,
        "leader_weights": leader_weights,
        "threshold": 0.1,
    }
    sections["controller"] = controller
    return sections


def _example(topology: str, duration: float, gamma_scale=1.0, gain_scale=1.0, kind="square"):
    ell = len(_EXAMPLE_AGENTS)
    if topology == "pinned":
        follower, leader = [0.0] * (ell * ell), [1.0] * ell
    else:
        follower, leader = _ring_weights(ell, 0.3), [0.4] * ell
    controller = {
        "gamma_theta": _identity(ell, gamma_scale),
        "gamma_phi": _identity(ell, gamma_scale),
        "q_tilde": [0.2, 0, 0, 0.2],
        "theta0": [gain_scale * v for v in _EXAMPLE_THETA0],
        "phi_phi0": [gain_scale * v for v in _EXAMPLE_PHI_PHI0],
        "r_signs": [-1] * ell,
    }
    simulation = {"tau_x": 3, "tau_u": 5, "step": 0.005, "duration": duration}
    reference = {"kind": kind, "amplitude": 1, "period": 40, "offset": 0}
    return _sections(_EXAMPLE_AGENTS, follower, leader, controller, simulation, reference)


def _ring(variant: int):
    """A ring of RING_AGENTS second-order agents drawn from Random(variant):
    stiffness k in [3, 6], damping in [2, 5], delayed coupling 0.1k/0.05k
    like the examples, input gain in [3, 6], small initial states and gains."""
    rng = random.Random(variant)
    ell = RING_AGENTS
    agents, x0, theta0, phi_phi0 = [], [], [], []
    for _ in range(ell):
        k = rng.uniform(3.0, 6.0)
        c = rng.uniform(2.0, 5.0)
        agents.append(
            {"a": [0, 1, -k, -c], "a_zeta": [0, 0, 0.1 * k, 0.05 * k], "b": [0, rng.uniform(3.0, 6.0)]}
        )
        x0 += [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)]
        theta0 += [rng.uniform(-0.02, 0.0) for _ in range(5)]
        phi_phi0.append(rng.uniform(-0.4, -0.1))
    controller = {
        "gamma_theta": _identity(ell),
        "gamma_phi": _identity(ell),
        "q_tilde": [0.2, 0, 0, 0.2],
        "theta0": theta0,
        "phi_phi0": phi_phi0,
        # b_m = (0, -2) and b_i = (0, g) with g > 0 make every ideal
        # reference gain -2/g negative.
        "r_signs": [-1] * ell,
    }
    simulation = {"tau_x": 3, "tau_u": 5, "step": RING_STEP, "duration": RING_DURATION, "x0": x0}
    reference = {"kind": "square", "amplitude": 1, "period": 40, "offset": 0}
    return _sections(agents, _ring_weights(ell, 0.3), [0.4] * ell, controller, simulation, reference)


def catalogue(workload: str) -> dict[str, tuple[Callable[[], dict], int]]:
    """Every member a workload can draw: key -> (section builder, step count)."""
    if workload == "pinned_long":
        return {"example1": (partial(_example, "pinned", PINNED_DURATION), round(PINNED_DURATION / 0.005))}
    if workload == "ring_large":
        steps = round(RING_DURATION / RING_STEP)
        return {f"ring{v}": (partial(_ring, v), steps) for v in range(RING_VARIANTS)}
    if workload == "gamma_sweep":
        steps = round(SWEEP_DURATION / 0.005)
        return {
            f"g{g}-k{k}-{kind}": (partial(_example, "ring", SWEEP_DURATION, g, k, kind), steps)
            for kind in SWEEP_KINDS
            for g in SWEEP_GAMMA_SCALES
            for k in SWEEP_GAIN_SCALES
        }
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def pick(workload: str, seed: int) -> list[str]:
    """Catalogue keys the seed selects, in run order."""
    keys = list(catalogue(workload))
    if workload == "pinned_long":
        return keys
    if workload == "ring_large":
        return [keys[seed % RING_VARIANTS]]
    rng = random.Random(seed)
    half = SWEEP_MEMBERS // 2
    squares = rng.sample([k for k in keys if k.endswith("-square")], half)
    sines = rng.sample([k for k in keys if k.endswith("-sine")], half)
    # Alternate the kinds so any prefix of the run order is balanced.
    return [k for pair in zip(squares, sines) for k in pair]


def write_member(workload: str, key: str, directory: Path) -> Member:
    """Write one catalogue member of ``workload`` into ``directory``."""
    build, steps = catalogue(workload)[key]
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{key}.txt"
    path.write_text(scenario_text(build()))
    return Member(key=key, path=path, steps=steps)


def write_workload(workload: str, seed: int, directory: Path) -> list[Member]:
    """Write the seed's members of ``workload`` into ``directory``."""
    return [write_member(workload, key, directory) for key in pick(workload, seed)]
