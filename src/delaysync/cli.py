"""Command line front end: scenario files, builtin examples, CSV traces.

Scenario files are strict line-oriented key = value text. Sections:

    [simulation]   tau_x, tau_u, step, duration; optional x0, xm0, xa0
    [reference]    optional section: kind, amplitude, period, offset
    [leader]       state_dim, input_dim, a_m, b_m
    [agent.N]      a, a_zeta, b  (N = 1, 2, ... with no gaps)
    [topology]     follower_weights, leader_weights, threshold
    [controller]   gamma_theta, gamma_phi, q_tilde, theta0, phi_phi0, r_signs

Matrices are flat row-major comma-separated numbers; shapes come from
state_dim, input_dim, and the agent count.  theta0 is one row of
(2*state_dim+input_dim)*input_dim numbers per agent, phi_phi0 one row of
input_dim**2 per agent.  Unknown sections or keys, nan/inf numbers and
non-integer dimensions are hard errors; the only defaults are the
reference waveform (square, amplitude 1, period 40, offset 0) and zero
initial states.

    delaysync run <builtin|file> [--out DIR] [--set section.key=value ...]
    delaysync validate <builtin|file> [--set ...]
    delaysync list-builtins

Exit codes: 0 success, 1 parse or validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import g17
from .errors import DelaySyncError, ParseError, ValidationError
from .harness import (
    ReferenceSignal,
    Scenario,
    SimTrace,
    metrics,
    run_scenario,
    validate_scenario,
)
from .plant import AgentDynamics, LeaderModel
from .topology import Topology

_SIMULATION_KEYS = {"tau_x", "tau_u", "step", "duration", "x0", "xm0", "xa0"}
_REFERENCE_KEYS = {"kind", "amplitude", "period", "offset"}
_LEADER_KEYS = {"state_dim", "input_dim", "a_m", "b_m"}
_AGENT_KEYS = {"a", "a_zeta", "b"}
_TOPOLOGY_KEYS = {"follower_weights", "leader_weights", "threshold"}
_CONTROLLER_KEYS = {"gamma_theta", "gamma_phi", "q_tilde", "theta0", "phi_phi0", "r_signs"}

# trace.csv is formatted in blocks of rows holding about this many values,
# which bounds the memory of one block whatever the trace's width.
CSV_BLOCK_VALUES = 6 * 2**10

_SECTION_KEYS = {
    "simulation": _SIMULATION_KEYS,
    "reference": _REFERENCE_KEYS,
    "leader": _LEADER_KEYS,
    "topology": _TOPOLOGY_KEYS,
    "controller": _CONTROLLER_KEYS,
}

# The two ready-made setups: four second-order followers with one delayed
# internal coupling each, a stable two-state leader, identity adaptation
# rates, and a square-wave excitation.  They differ only in the graph:
# example1 pins every agent directly to the leader with no peer links;
# example2 is the sparser ring where each agent leans 0.3 on each
# neighbour and only 0.4 on the leader.
_EXAMPLE_COMMON = """
[simulation]
tau_x = 3
tau_u = 5
step = 0.005
duration = 200

[reference]
kind = square
amplitude = 1
period = 40
offset = 0

[leader]
state_dim = 2
input_dim = 1
a_m = 0, 1, -2, -3
b_m = 0, -2

[agent.1]
a = 0, 1, -3, -2
a_zeta = 0, 0, 0.3, 0.15
b = 0, 3

[agent.2]
a = 0, 1, -4, -3
a_zeta = 0, 0, 0.4, 0.2
b = 0, 4

[agent.3]
a = 0, 1, -5, -4
a_zeta = 0, 0, 0.5, 0.25
b = 0, 5

[agent.4]
a = 0, 1, -6, -5
a_zeta = 0, 0, 0.6, 0.3
b = 0, 6

[controller]
gamma_theta = 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1
gamma_phi = 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1
q_tilde = 0.2, 0, 0, 0.2
theta0 = -0.0125, -0.0125, -0.0125, -0.0125, -0.0125, -0.01, -0.01, -0.01, -0.01, -0.01, -0.0075, -0.0075, -0.0075, -0.0075, -0.0075, -0.005, -0.005, -0.005, -0.005, -0.005
phi_phi0 = -0.4, -0.3, -0.2, -0.1
r_signs = -1, -1, -1, -1
"""

BUILTINS = {
    "example1": _EXAMPLE_COMMON
    + """
[topology]
follower_weights = 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
leader_weights = 1, 1, 1, 1
threshold = 0.1
""",
    "example2": _EXAMPLE_COMMON
    + """
[topology]
follower_weights = 0, 0.3, 0, 0.3, 0.3, 0, 0.3, 0, 0, 0.3, 0, 0.3, 0.3, 0, 0.3, 0
leader_weights = 0.4, 0.4, 0.4, 0.4
threshold = 0.1
""",
}


@dataclass(frozen=True)
class CliInvocation:
    command: str
    scenario_source: str | None = None
    output_dir: str = "out"
    overrides: tuple[str, ...] = field(default_factory=tuple)


def _tokenize(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Raw pass: sections of key -> (value string, line number)."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            _check_section_name(name, lineno)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", line=lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line!r}", line=lineno)
        if current is None:
            raise ParseError("key outside any [section]", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        allowed = _AGENT_KEYS if current.startswith("agent.") else _SECTION_KEYS[current]
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} in [{current}]", line=lineno)
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r} in [{current}]", line=lineno)
        sections[current][key] = (value.strip(), lineno)
    return sections


def _check_section_name(name: str, lineno: int | None) -> None:
    if name in _SECTION_KEYS:
        return
    if name.startswith("agent."):
        tail = name[len("agent.") :]
        if tail.isdigit() and int(tail) >= 1:
            return
        raise ParseError(f"agent sections are [agent.1], [agent.2], ...; got [{name}]", line=lineno)
    raise ParseError(f"unknown section [{name}]", line=lineno)


def _apply_overrides(
    sections: dict[str, dict[str, tuple[str, int]]], overrides: tuple[str, ...]
) -> None:
    """key=value pairs like simulation.duration=50, applied as raw text."""
    for item in overrides:
        if "=" not in item:
            raise ParseError(f"override {item!r} must look like section.key=value")
        target, _, value = item.partition("=")
        section, dot, key = target.strip().rpartition(".")
        if not dot:
            raise ParseError(f"override target {target!r} must be section.key")
        _check_section_name(section, None)
        allowed = _AGENT_KEYS if section.startswith("agent.") else _SECTION_KEYS[section]
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} in [{section}]")
        sections.setdefault(section, {})[key] = (value.strip(), 0)


def _floats(raw: str, lineno: int, key: str, count: int | None = None) -> np.ndarray:
    parts = [p.strip() for p in raw.split(",")]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ParseError(f"{key} contains a non-numeric entry", line=lineno or None)
    if not all(map(math.isfinite, values)):
        raise ParseError(f"{key} contains a non-finite entry", line=lineno or None)
    if count is not None and len(values) != count:
        raise ParseError(f"{key} needs {count} numbers, got {len(values)}", line=lineno or None)
    return np.array(values)


def _scalar(raw: str, lineno: int, key: str) -> float:
    return float(_floats(raw, lineno, key, count=1)[0])


def _dimension(sections, key: str) -> int:
    raw, line = _need(sections, "leader", key)
    value = _scalar(raw, line, key)
    if not value.is_integer() or value < 1:
        raise ParseError(f"{key} must be a positive integer, got {raw}", line=line or None)
    return int(value)


def _need(sections, section: str, key: str) -> tuple[str, int]:
    try:
        return sections[section][key]
    except KeyError:
        raise ParseError(f"missing {key!r} in [{section}]")


def parse_scenario_file(text: str, name: str = "scenario") -> Scenario:
    """Strict parse of the scenario format; see the module docstring."""
    return build_scenario(_tokenize(text), name)


def build_scenario(sections, name: str = "scenario") -> Scenario:
    for required in ("simulation", "leader", "topology", "controller"):
        if required not in sections:
            raise ParseError(f"missing section [{required}]")

    n = _dimension(sections, "state_dim")
    p = _dimension(sections, "input_dim")
    q = 2 * n + p

    raw, line = _need(sections, "leader", "a_m")
    a_m = _floats(raw, line, "a_m", n * n).reshape(n, n)
    raw, line = _need(sections, "leader", "b_m")
    b_m = _floats(raw, line, "b_m", n * p).reshape(n, p)
    leader = LeaderModel(a_m=a_m, b_m=b_m)

    indices = sorted(
        int(s[len("agent.") :]) for s in sections if s.startswith("agent.")
    )
    if not indices:
        raise ParseError("no [agent.N] sections found")
    if indices != list(range(1, len(indices) + 1)):
        raise ParseError(f"agent sections must be numbered 1..{len(indices)} without gaps")
    agents = []
    for i in indices:
        sec = f"agent.{i}"
        raw, line = _need(sections, sec, "a")
        a = _floats(raw, line, f"{sec}.a", n * n).reshape(n, n)
        raw, line = _need(sections, sec, "a_zeta")
        a_zeta = _floats(raw, line, f"{sec}.a_zeta", n * n).reshape(n, n)
        raw, line = _need(sections, sec, "b")
        b = _floats(raw, line, f"{sec}.b", n * p).reshape(n, p)
        agents.append(AgentDynamics(a=a, a_zeta=a_zeta, b=b))
    ell = len(agents)

    raw, line = _need(sections, "topology", "follower_weights")
    follower_weights = _floats(raw, line, "follower_weights", ell * ell).reshape(ell, ell)
    raw, line = _need(sections, "topology", "leader_weights")
    leader_weights = _floats(raw, line, "leader_weights", ell)
    raw, line = _need(sections, "topology", "threshold")
    threshold = _scalar(raw, line, "threshold")
    topology = Topology(
        num_agents=ell,
        follower_weights=follower_weights,
        leader_weights=leader_weights,
        threshold=threshold,
    )

    raw, line = _need(sections, "controller", "gamma_theta")
    gamma_theta = _floats(raw, line, "gamma_theta", ell * ell).reshape(ell, ell)
    raw, line = _need(sections, "controller", "gamma_phi")
    gamma_phi = _floats(raw, line, "gamma_phi", ell * ell).reshape(ell, ell)
    raw, line = _need(sections, "controller", "q_tilde")
    q_tilde = _floats(raw, line, "q_tilde", n * n).reshape(n, n)
    raw, line = _need(sections, "controller", "theta0")
    theta0 = _floats(raw, line, "theta0", ell * q * p).reshape(ell, q, p)
    raw, line = _need(sections, "controller", "phi_phi0")
    phi_phi0 = _floats(raw, line, "phi_phi0", ell * p * p).reshape(ell, p, p)
    raw, line = _need(sections, "controller", "r_signs")
    r_signs = _floats(raw, line, "r_signs", ell)

    raw, line = _need(sections, "simulation", "tau_x")
    tau_x = _scalar(raw, line, "tau_x")
    raw, line = _need(sections, "simulation", "tau_u")
    tau_u = _scalar(raw, line, "tau_u")
    raw, line = _need(sections, "simulation", "step")
    step = _scalar(raw, line, "step")
    raw, line = _need(sections, "simulation", "duration")
    duration = _scalar(raw, line, "duration")

    sim = sections["simulation"]
    x0 = np.zeros(ell * n)
    if "x0" in sim:
        raw, line = sim["x0"]
        x0 = _floats(raw, line, "x0", ell * n)
    xm0 = np.zeros(n)
    if "xm0" in sim:
        raw, line = sim["xm0"]
        xm0 = _floats(raw, line, "xm0", n)
    xa0 = np.zeros(ell * n)
    if "xa0" in sim:
        raw, line = sim["xa0"]
        xa0 = _floats(raw, line, "xa0", ell * n)

    ref_kwargs = {}
    if "reference" in sections:
        refsec = sections["reference"]
        if "kind" in refsec:
            ref_kwargs["kind"] = refsec["kind"][0]
        for key in ("amplitude", "period", "offset"):
            if key in refsec:
                raw, line = refsec[key]
                ref_kwargs[key] = _scalar(raw, line, key)
    reference = ReferenceSignal(**ref_kwargs)

    return Scenario(
        fleet=agents,
        leader=leader,
        topology=topology,
        gamma_theta=gamma_theta,
        gamma_phi=gamma_phi,
        q_tilde=q_tilde,
        theta0=theta0,
        phi_phi0=phi_phi0,
        r_signs=r_signs,
        tau_x=tau_x,
        tau_u=tau_u,
        step=step,
        duration=duration,
        reference=reference,
        x0=x0,
        xm0=xm0,
        xa0=xa0,
        name=name,
    )


def load_scenario(source: str, overrides: tuple[str, ...] = ()) -> Scenario:
    """Builtin name or file path, plus --set style raw-text overrides."""
    if source in BUILTINS:
        text = BUILTINS[source]
        name = source
    else:
        path = Path(source)
        if not path.is_file():
            raise ParseError(
                f"{source!r} is neither a builtin ({', '.join(sorted(BUILTINS))}) nor a file"
            )
        text = path.read_text()
        name = path.stem
    sections = _tokenize(text)
    _apply_overrides(sections, tuple(overrides))
    return build_scenario(sections, name)


def _axis_names(prefix: str, ell: int, width: int) -> list[str]:
    if width == 1:
        return [f"{prefix}_{i}" for i in range(1, ell + 1)]
    return [f"{prefix}_{i}_{k}" for i in range(1, ell + 1) for k in range(1, width + 1)]


def trace_columns(trace: SimTrace) -> list[str]:
    """CSV column names matching the row layout of write_trace_csv."""
    _, ell, n = trace.x.shape
    p = trace.u.shape[2]
    q = trace.theta.shape[2]
    cols = ["t"]
    cols += _axis_names("x", ell, n)
    cols += [f"xm_{j}" for j in range(1, n + 1)]
    cols += _axis_names("xa", ell, n)
    cols += _axis_names("e", ell, n)
    cols += _axis_names("ea", ell, n)
    cols += _axis_names("u", ell, p)
    cols += _axis_names("ua", ell, p)
    cols += _axis_names("phi", ell, p)
    cols += _axis_names("theta", ell, q * p)
    cols += _axis_names("phi_phi", ell, p * p)
    cols.append("V_d")
    return cols


def _csv_rows(trace: SimTrace, a: int, b: int, buffers: g17.Buffers) -> np.ndarray:
    """Rows ``[a, b)`` of trace.csv as uint8 text, byte for byte as
    ``np.savetxt`` with ``fmt="%.17g"`` and ``delimiter=","`` writes them.

    Only this block is copied out of the trace's arrays.
    """
    fields = (
        trace.times, trace.x, trace.x_m, trace.x_a, trace.e, trace.e_a, trace.u,
        trace.u_aux, trace.phi, trace.theta, trace.phi_phi, trace.v_d,
    )
    block = np.concatenate([f[a:b].reshape(b - a, -1) for f in fields], axis=1)
    return g17.csv_rows(block, buffers)


def write_trace_csv(trace: SimTrace, path) -> None:
    """Full-precision CSV; %.17g text reproduces every double exactly.

    The rows are formatted by ``g17.csv_rows`` in blocks of about
    CSV_BLOCK_VALUES values and written in order; the bytes are those
    ``np.savetxt`` writes.  The whole trace is never copied: the write
    holds one block, its text and the formatter's buffers, whatever the
    trace's size.  The file is written as ``<path>.partial`` and renamed to
    ``path`` only once complete; on any failure the partial file is
    removed.
    """
    columns = trace_columns(trace)
    rows = trace.num_rows
    per_block = max(1, CSV_BLOCK_VALUES // len(columns))
    buffers = g17.Buffers(per_block * len(columns))
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "wb") as out:
            out.write(",".join(columns).encode() + b"\n")
            for a in range(0, rows, per_block):
                out.write(_csv_rows(trace, a, min(a + per_block, rows), buffers))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_summary(sc: Scenario, trace: SimTrace, path) -> None:
    summary = metrics(trace)
    ell = sc.num_agents
    lines = [
        f"scenario: {sc.name}",
        f"rows: {trace.num_rows}",
        f"duration: {sc.duration:.17g}",
        f"step: {sc.step:.17g}",
        f"peak_error: {summary.peak_error:.17g}",
        f"final_window_mean: {summary.final_window_mean:.17g}",
        f"settling_time: {summary.settling_time:.17g}",
        f"max_vd_slope: {summary.max_vd_slope:.17g}",
    ]
    flat_theta = summary.theta_final.reshape(ell, -1)
    for i in range(ell):
        for k in range(flat_theta.shape[1]):
            lines.append(f"theta_final_{i + 1}_{k + 1}: {flat_theta[i, k]:.17g}")
    flat_phi = summary.phi_phi_final.reshape(ell, -1)
    for i in range(ell):
        if flat_phi.shape[1] == 1:
            lines.append(f"phi_phi_final_{i + 1}: {flat_phi[i, 0]:.17g}")
        else:
            for k in range(flat_phi.shape[1]):
                lines.append(f"phi_phi_final_{i + 1}_{k + 1}: {flat_phi[i, k]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def run_command(inv: CliInvocation) -> int:
    if inv.command == "list-builtins":
        for name in sorted(BUILTINS):
            print(name)
        return 0

    try:
        sc = load_scenario(inv.scenario_source, inv.overrides)
        checks = validate_scenario(sc) if inv.command == "validate" else []
    except DelaySyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if inv.command == "validate":
        for c in checks:
            print(f"{c.name}={'pass' if c.passed else 'fail'}")
        bad = [c for c in checks if not c.passed]
        for c in bad:
            print(f"error: {c.name}: {c.detail}", file=sys.stderr)
        return 1 if bad else 0

    try:
        trace = run_scenario(sc)  # validates; failed checks ride on the error
        out = Path(inv.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_trace_csv(trace, out / "trace.csv")
        write_summary(sc, trace, out / "summary.txt")
    except ValidationError as exc:
        for line in [f"{c.name}: {c.detail}" for c in exc.failed] or [str(exc)]:
            print(f"error: {line}", file=sys.stderr)
        return 1
    except (DelaySyncError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out / 'trace.csv'} ({trace.num_rows} rows) and {out / 'summary.txt'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="delaysync",
        description="Distributed adaptive leader tracking under state and input delays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario and write trace.csv + summary.txt")
    p_run.add_argument("scenario", help="builtin name or scenario file path")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="SECTION.KEY=VALUE",
        help="override a scenario entry, e.g. --set simulation.duration=50",
    )

    p_val = sub.add_parser("validate", help="run the structural checks and print pass/fail")
    p_val.add_argument("scenario", help="builtin name or scenario file path")
    p_val.add_argument(
        "--set", action="append", default=[], dest="overrides", metavar="SECTION.KEY=VALUE"
    )

    sub.add_parser("list-builtins", help="print the names of the bundled scenarios")

    args = parser.parse_args(argv)
    inv = CliInvocation(
        command=args.command,
        scenario_source=getattr(args, "scenario", None),
        output_dir=getattr(args, "out", "out"),
        overrides=tuple(getattr(args, "overrides", ())),
    )
    return run_command(inv)


if __name__ == "__main__":
    sys.exit(main())
