"""Scenario numbers: each read by one float(), and each agent key read once
for the whole fleet, against the readers they replaced."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from delaysync import cli
from delaysync.cli import BUILTINS, load_scenario, parse_scenario_file
from delaysync.errors import ParseError


def _reference_floats(raw, lineno, key, count=None):
    """The number reader ``cli._floats`` replaced: a list of stripped
    entries, a list of floats and a ``math.isfinite`` pass."""
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


def _outcome(read, *args):
    """What ``read(*args)`` gives: its array's dtype, shape and bytes, or
    its ParseError's text and line."""
    try:
        values = read(*args)
    except ParseError as exc:
        return str(exc), exc.line
    return values.dtype.str, values.shape, values.tobytes()


NUMBER_CORPUS = (
    "\t1,\u00a02 ,\t-3\u00a0",  # tabs and no-break spaces around entries
    "+1, .5, 5., 1E5, 1_000",
    "-0.0, 0, -0",
    "\u0663, 1e-320",  # an Arabic-Indic digit three and a subnormal
    "1e309",  # overflows to inf
    "nan",
    "1, -inf",
    "",
    "1,,2",
    "0x10",
    "1, fast, inf",
)


@pytest.mark.parametrize("count", [None, 3])
@pytest.mark.parametrize("raw", NUMBER_CORPUS)
def test_numbers_read_as_the_reference_reader_reads_them(raw, count):
    for line in (0, 7):
        want = _outcome(_reference_floats, raw, line, "key", count)
        assert _outcome(cli._floats, raw, line, "key", count) == want


def test_numbers_accept_what_float_accepts():
    values = cli._floats("+1, .5, 5., 1E5, 1_000, \u0663, -0.0", 0, "key")
    assert values.tolist() == [1.0, 0.5, 5.0, 1e5, 1000.0, 3.0, 0.0]
    assert math.copysign(1.0, values[-1]) == -1.0


def _fleet_text(ell=5):
    """A scenario of ``ell`` pinned second-order agents, agent i with its
    own a, a_zeta and b."""
    eye = ", ".join("1" if i == j else "0" for i in range(ell) for j in range(ell))
    agents = "".join(
        f"[agent.{i}]\na = 0, 1, -{i + 2}, -{i + 1}\na_zeta = 0, 0, 0.{i}, 0.05\n"
        f"b = 0, {i + 2}\n\n"
        for i in range(1, ell + 1)
    )
    return (
        "[simulation]\ntau_x = 3\ntau_u = 5\nstep = 0.005\nduration = 1\n\n"
        "[leader]\nstate_dim = 2\ninput_dim = 1\na_m = 0, 1, -2, -3\nb_m = 0, -2\n\n"
        f"{agents}"
        f"[topology]\nfollower_weights = {', '.join(['0'] * ell * ell)}\n"
        f"leader_weights = {', '.join(['1'] * ell)}\nthreshold = 0.1\n\n"
        f"[controller]\ngamma_theta = {eye}\ngamma_phi = {eye}\nq_tilde = 0.2, 0, 0, 0.2\n"
        f"theta0 = {', '.join(['0'] * ell * 5)}\nphi_phi0 = {', '.join(['-0.5'] * ell)}\n"
        f"r_signs = {', '.join(['-1'] * ell)}\n"
    )


def _by_sections(monkeypatch, load, *args):
    """``load(*args)`` with every agent section read by itself with
    ``cli._read`` and every number by ``_reference_floats``: the scenario
    reader before a key was read once for the whole fleet."""

    def fleet(sections, dims):
        agents = [cli._read(sections, f"agent.{i}", dims) for i in range(1, dims["l"] + 1)]
        return cli.FleetDynamics(**{key: np.stack([ag[key] for ag in agents]) for key in agents[0]})

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_floats", _reference_floats)
        patch.setattr(cli, "_fleet", fleet)
        return load(*args)


def _scenario_numbers(sc):
    """Every number a Scenario was read to, by name: dtype, shape and bytes."""
    arrays = {name: getattr(sc, name) for name in (
        "gamma_theta", "gamma_phi", "q_tilde", "theta0", "phi_phi0", "r_signs", "x0", "xm0", "xa0"
    )}
    arrays |= {
        f"agent.{i + 1}.{key}": getattr(sc.fleet, key)[i]
        for i in range(sc.fleet.num_agents)
        for key in ("a", "a_zeta", "b")
    }
    arrays |= {key: getattr(sc.fleet, key) for key in ("a", "a_zeta", "b")}
    arrays |= {"a_m": sc.leader.a_m, "b_m": sc.leader.b_m}
    arrays |= {key: getattr(sc.topology, key) for key in ("follower_weights", "leader_weights")}
    ref = sc.reference
    arrays["scalars"] = np.array([
        sc.tau_x, sc.tau_u, sc.step, sc.duration, sc.topology.threshold,
        ref.amplitude, ref.period, ref.offset,
    ])
    numbers = {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in arrays.items()}
    return numbers, ref.kind, sc.name


@pytest.mark.parametrize(
    "edits, where",
    [
        ([("a_zeta = 0, 0, 0.3, 0.05", "a_zeta = 0, 0, 0.3x, 0.05")], "agent.3.a_zeta contains a non-numeric"),
        ([("a = 0, 1, -5, -4", "a = 0, 1, -inf, -4")], "agent.3.a contains a non-finite"),
        ([("b = 0, 6", "b = 0, 6, 1")], "agent.4.b needs 2 numbers, got 3"),
        ([("b = 0, 4\n", "")], "missing 'b' in \\[agent.2\\]"),
        ([("a = 0, 1, -4, -3", "a = 0, 1, -4"), ("b = 0, 6", "b = 0, nan")], "agent.2.a needs 4"),
        ([("a = 0, 1, -6, -5", "a = 0, 1, -6, y"), ("b = 0, 4", "b = 0, -3e999")], "agent.2.b contains a non-finite"),
    ],
    ids=["non_numeric", "non_finite", "wrong_count", "missing_key", "two_bad_count", "two_bad_later_key"],
)
def test_bad_agent_raises_what_reading_its_section_raises(edits, where, monkeypatch):
    text = _fleet_text()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    with pytest.raises(ParseError, match=where) as want:
        _by_sections(monkeypatch, parse_scenario_file, text)
    with pytest.raises(ParseError) as got:
        parse_scenario_file(text)
    assert (str(got.value), got.value.line) == (str(want.value), want.value.line)


def test_fleet_is_read_once_per_key_to_the_numbers_of_its_sections(monkeypatch):
    text = _fleet_text()
    want = _scenario_numbers(_by_sections(monkeypatch, parse_scenario_file, text))
    sections_read = []
    read = cli._read
    monkeypatch.setattr(cli, "_read", lambda sections, section, dims: (
        sections_read.append(section) or read(sections, section, dims)
    ))
    assert _scenario_numbers(parse_scenario_file(text)) == want
    assert not [s for s in sections_read if s.startswith("agent.")]


def _bench_scenarios():
    """bench/scenarios.py, which writes the benchmark's scenario files."""
    path = Path(__file__).resolve().parents[1] / "bench" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("bench_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_builtins_and_bench_members_load_to_the_numbers_of_their_sections(tmp_path, monkeypatch):
    scenarios = _bench_scenarios()
    sources = list(BUILTINS)
    for workload in scenarios.WORKLOADS:
        members = scenarios.write_workload(workload, 3, tmp_path / workload)
        sources += [str(m.path) for m in members]
    assert len(sources) == 12
    for source in sources:
        want = _scenario_numbers(_by_sections(monkeypatch, load_scenario, source))
        assert _scenario_numbers(load_scenario(source)) == want, source
