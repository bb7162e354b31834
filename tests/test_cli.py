"""Scenario text format, overrides, and the three subcommands."""

import errno
import io
import itertools
import os
import re
import signal
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from delaysync import cli, g17, harness
from delaysync.cli import (
    BUILTINS,
    load_scenario,
    main,
    parse_scenario_file,
    trace_columns,
    write_trace_csv,
)
from delaysync.errors import DivergenceDetected, ParseError, TraceTooLarge, ValidationError
from delaysync.harness import run_scenario, validate_scenario

TINY = """
[simulation]
tau_x = 1
tau_u = 2
step = 0.01
duration = 1

[leader]
state_dim = 1
input_dim = 1
a_m = -1
b_m = 1

[agent.1]
a = -2
a_zeta = 0.1
b = 1

[topology]
follower_weights = 0
leader_weights = 1
threshold = 0.1

[controller]
gamma_theta = 1
gamma_phi = 1
q_tilde = 1
theta0 = 0, 0, 0
phi_phi0 = 0
r_signs = 1
"""


# ------------------------------------------------------------------ parsing


def test_builtins_parse_and_differ():
    one = load_scenario("example1")
    two = load_scenario("example2")
    assert one.num_agents == two.num_agents == 4
    assert np.array_equal(one.topology.follower_weights, np.zeros((4, 4)))
    assert np.count_nonzero(two.topology.follower_weights) == 8
    assert one.name == "example1"


def test_unknown_source_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_scenario("example3")
    with pytest.raises(ParseError):
        load_scenario(str(tmp_path / "missing.cfg"))


def test_tiny_file_round_trip(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    sc = load_scenario(str(path))
    assert sc.name == "tiny"
    assert sc.num_agents == 1
    assert sc.leader.a_m[0, 0] == -1.0
    assert sc.reference.kind == "square"  # default excitation


def test_parse_reports_line_numbers():
    bad = TINY.replace("a_zeta = 0.1", "a_zeta = 0.1\nwhoops = 3")
    with pytest.raises(ParseError, match=r"line 17"):
        parse_scenario_file(bad)


def test_parse_rejects_unknown_section():
    with pytest.raises(ParseError, match="unknown section"):
        parse_scenario_file(TINY + "\n[mystery]\nkey = 1\n")


def test_parse_rejects_duplicate_key():
    doubled = TINY.replace("duration = 1", "duration = 1\nduration = 2")
    with pytest.raises(ParseError, match="duplicate key"):
        parse_scenario_file(doubled)


def test_parse_rejects_duplicate_section():
    with pytest.raises(ParseError, match="duplicate section"):
        parse_scenario_file(TINY + "\n[simulation]\ntau_x = 1\n")


def test_parse_rejects_key_outside_section():
    with pytest.raises(ParseError, match="outside"):
        parse_scenario_file("stray = 1\n" + TINY)


def test_parse_rejects_bare_words():
    with pytest.raises(ParseError, match="key = value"):
        parse_scenario_file(TINY + "\njust some words\n")


def test_parse_rejects_agent_zero():
    with pytest.raises(ParseError, match=r"agent\.1"):
        parse_scenario_file(TINY.replace("[agent.1]", "[agent.0]"))


def test_parse_rejects_agent_gaps():
    gappy = TINY.replace(
        "[agent.1]",
        "[agent.1]\na = -2\na_zeta = 0.1\nb = 1\n\n[agent.3]",
    )
    with pytest.raises(ParseError, match="without gaps"):
        parse_scenario_file(gappy)


def test_parse_rejects_wrong_count():
    with pytest.raises(ParseError, match="needs 1 numbers"):
        parse_scenario_file(TINY.replace("b_m = 1", "b_m = 1, 2"))


def test_parse_rejects_non_numeric():
    with pytest.raises(ParseError, match="non-numeric"):
        parse_scenario_file(TINY.replace("b_m = 1", "b_m = fast"))


def test_parse_rejects_missing_key():
    with pytest.raises(ParseError, match="missing 'duration'"):
        parse_scenario_file(TINY.replace("duration = 1", ""))


def test_delay_order_becomes_validation_error():
    with pytest.raises(ValidationError, match="tau_x"):
        parse_scenario_file(TINY.replace("tau_x = 1", "tau_x = 3"))


# ---------------------------------------------------------------- overrides


def test_overrides_replace_values(tmp_path):
    sc = load_scenario("example1", overrides=("simulation.duration=50",))
    assert sc.duration == 50.0


def test_overrides_touch_reference_section():
    sc = load_scenario("example1", overrides=("reference.kind=sine", "reference.period=10"))
    assert sc.reference.kind == "sine"
    assert sc.reference.period == 10.0


def test_overrides_split_on_last_dot():
    sc = load_scenario("example1", overrides=("agent.1.b=0, 7",))
    assert sc.fleet.b[0, 1, 0] == 7.0


def test_override_validation():
    with pytest.raises(ParseError, match="section.key"):
        load_scenario("example1", overrides=("duration=50",))
    with pytest.raises(ParseError, match="unknown key"):
        load_scenario("example1", overrides=("simulation.tempo=50",))
    with pytest.raises(ParseError, match="must look like"):
        load_scenario("example1", overrides=("simulation.duration",))


# --------------------------------------------------------------- subcommands


def run_cli(*argv):
    return main(list(argv))


def test_list_builtins_names(capsys):
    assert run_cli("list-builtins") == 0
    out = capsys.readouterr().out.split()
    assert out == sorted(BUILTINS)


def test_validate_prints_all_checks(capsys):
    assert run_cli("validate", "example2") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "balanced=pass",
        "threshold(0.1)=pass",
        "reachable=pass",
        "lyapunov_residual=pass",
        "matching=pass",
    ]


def test_validate_failure_sets_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY.replace("r_signs = 1", "r_signs = -1"))
    assert run_cli("validate", str(path)) == 1
    captured = capsys.readouterr()
    assert "matching=fail" in captured.out
    assert "error" in captured.err


def test_run_writes_trace_and_summary(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    assert run_cli("run", str(path), "--out", str(out_dir)) == 0
    lines = (out_dir / "trace.csv").read_text().splitlines()
    assert len(lines) == 102  # header plus 101 rows
    sc = load_scenario(str(path))
    trace = run_scenario(sc)
    assert lines[0].split(",") == trace_columns(trace)
    summary = (out_dir / "summary.txt").read_text()
    assert "rows: 101" in summary
    assert "peak_error:" in summary
    assert "theta_final_1_3:" in summary


def test_trace_csv_round_trips_exactly(tmp_path):
    """%.17g prints doubles losslessly, so reading the file back must
    reproduce every stored value bit for bit."""
    sc = load_scenario("example1", overrides=("simulation.duration=12",))
    trace = run_scenario(sc)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (trace.num_rows, len(trace_columns(trace)))
    flat = np.column_stack(
        [
            trace.times,
            trace.x.reshape(trace.num_rows, -1),
            trace.x_m,
            trace.x_a.reshape(trace.num_rows, -1),
            trace.e.reshape(trace.num_rows, -1),
            trace.e_a.reshape(trace.num_rows, -1),
            trace.u.reshape(trace.num_rows, -1),
            trace.u_aux.reshape(trace.num_rows, -1),
            trace.phi.reshape(trace.num_rows, -1),
            trace.theta.reshape(trace.num_rows, -1),
            trace.phi_phi.reshape(trace.num_rows, -1),
            trace.v_d,
        ]
    )
    assert np.array_equal(data, flat)


def test_trace_columns_order():
    sc = load_scenario("example1", overrides=("simulation.duration=0",))
    trace = run_scenario(sc)
    cols = trace_columns(trace)
    assert cols[0] == "t"
    assert cols[1] == "x_1_1"
    assert cols[-1] == "V_d"
    assert "xm_1" in cols and "theta_1_1" in cols and "phi_phi_4" in cols
    assert len(cols) == 1 + 8 + 2 + 8 + 8 + 8 + 4 + 4 + 4 + 20 + 4 + 1


def test_zero_duration_run_has_single_row(tmp_path, capsys):
    out_dir = tmp_path / "flat"
    code = run_cli(
        "run", "example1", "--out", str(out_dir), "--set", "simulation.duration=0"
    )
    assert code == 0
    lines = (out_dir / "trace.csv").read_text().splitlines()
    assert len(lines) == 2


def test_run_parse_failure_exits_one(tmp_path, capsys):
    assert run_cli("run", "no-such-scenario", "--out", str(tmp_path / "x")) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("fault", ["undecodable", "unreadable"])
def test_unreadable_scenario_file_exits_one(tmp_path, capsys, monkeypatch, command, fault):
    """A scenario file that cannot be decoded as text, or read at all, is
    a parse error naming the file: exit 1, one error line, no output
    directory."""
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe" + TINY.encode())
    if fault == "unreadable":
        def denied(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", denied)
    argv = [command, str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith(f"error: cannot read scenario file {str(path)!r}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("source", ["file", "override"])
@pytest.mark.parametrize("number", ["\u00b2", "01", "\u0661"], ids=["superscript", "leading_zero", "arabic_indic"])
def test_agent_section_number_other_than_ascii_digits_exits_one(tmp_path, capsys, command, source, number):
    """An agent section is numbered in ASCII digits without a leading zero.
    Any other number, from a file (with its line) or through --set, gets
    the one parse error that names the section: exit 1, one error line."""
    path = tmp_path / "tiny.cfg"
    lines = TINY.splitlines()
    expected = f"agent sections are [agent.1], [agent.2], ...; got [agent.{number}]"
    if source == "file":
        lineno = lines.index("[agent.1]") + 1
        lines[lineno - 1] = f"[agent.{number}]"
        expected = f"line {lineno}: {expected}"
        argv = [command, str(path)]
    else:
        argv = [command, str(path), "--set", f"agent.{number}.a=-2"]
    path.write_text("\n".join(lines) + "\n")
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {expected}"]
    assert not (tmp_path / "o").exists()


def test_run_invalid_scenario_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY.replace("r_signs = 1", "r_signs = -1"))
    assert run_cli("run", str(bad), "--out", str(tmp_path / "x")) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: matching: declared r_signs [-1.0] but computed [1.0]"]
    assert not (tmp_path / "x").exists()


def test_run_validates_once_and_solves_gains_at_most_twice(tmp_path, monkeypatch):
    calls = {"validate": 0, "gains": 0}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    validate = counting(harness.validate_scenario, "validate")
    monkeypatch.setattr(harness, "validate_scenario", validate)
    monkeypatch.setattr(cli, "validate_scenario", validate)
    monkeypatch.setattr(harness, "matching_gains", counting(harness.matching_gains, "gains"))
    code = run_cli(
        "run", "example2", "--set", "simulation.duration=1", "--out", str(tmp_path / "o")
    )
    assert code == 0
    assert calls["validate"] == 1
    assert calls["gains"] <= 2


@pytest.mark.parametrize(
    "overrides",
    [
        ("simulation.duration=1e7",),
        # 2.68 GiB of leader table, two thirds of it stage inputs
        ("simulation.tau_u=300000", "simulation.duration=0"),
    ],
    ids=["long_horizon", "long_input_delay"],
)
def test_run_refuses_oversized_trace_before_allocating(tmp_path, capsys, overrides):
    sets = [arg for o in overrides for arg in ("--set", o)]
    tracemalloc.start()
    began = time.perf_counter()
    try:
        code = run_cli("run", "example1", *sets, "--out", str(tmp_path / "o"))
        elapsed = time.perf_counter() - began
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: run would record ") and "GiB" in err[0]
    assert peak < 64 * 2**20
    assert elapsed < 10.0
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "override, message",
    [
        ("simulation.tau_u=inf", "non-finite"),
        ("simulation.duration=nan", "non-finite"),
        ("agent.1.a=nan, 1, -3, -2", "non-finite"),
        ("reference.amplitude=inf", "non-finite"),
        ("leader.state_dim=2.5", "positive integer"),
        ("simulation.step=1e-320", "step 1e-320 does not divide tau_x"),
        ("simulation.tau_u=1e308", "does not divide tau_u=1e+308"),
        ("reference.period=1e-320", "reference period 1e-320 is too short"),
        (
            "topology.follower_weights=0, nan, 0, 0.3, 0.3, 0, 0.3, 0, "
            "0, 0.3, 0, 0.3, 0.3, 0, 0.3, 0",
            "non-finite",
        ),
    ],
    ids=["tau_u_inf", "duration_nan", "agent_a_nan", "amplitude_inf", "state_dim_fraction",
         "step_subnormal", "tau_u_huge", "period_subnormal", "weight_nan"],
)
def test_validate_rejects_non_finite_and_fractional_input(override, message, capsys):
    assert run_cli("validate", "example2", "--set", override) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


# Adaptation rates of example1's four agents, each with one fault.  Each
# agent adapts at its own rate, so any off-diagonal entry is refused.
COUPLED = "must be diagonal (one rate per agent), entry (1, 2)"
BAD_RATES = {
    "indefinite": (
        "-1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1",
        "must be positive semidefinite, entry (1, 1) is -1",
    ),
    "indefinite_coupled": ("1, 2, 0, 0, 2, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1", COUPLED),
    "non_symmetric": ("1, 0.5, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1", COUPLED),
    "singular_coupled": ("1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1", COUPLED),
    "positive_definite_coupled": (
        "1, 0.2, 0, 0, 0.2, 1, 0.2, 0, 0, 0.2, 1, 0.2, 0, 0, 0.2, 1", COUPLED
    ),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("kind", list(BAD_RATES))
@pytest.mark.parametrize("key", ["gamma_theta", "gamma_phi"])
def test_bad_rates_exit_one_naming_the_field(tmp_path, capsys, command, kind, key):
    """Rates that are not one nonnegative rate per agent are refused when
    the scenario is loaded: exit 1, one error line naming the field and
    the entry, no output directory."""
    value, message = BAD_RATES[kind]
    with pytest.raises(ValidationError, match=f"^{key} {re.escape(message)}"):
        load_scenario("example1", (f"controller.{key}={value}",))
    argv = [command, "example1", "--set", f"controller.{key}={value}"]
    if command == "run":
        argv += ["--set", "simulation.duration=1", "--out", str(tmp_path / "o")]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith(f"error: {key} {message}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "overrides",
    [
        ("simulation.tau_x=1e-12", "simulation.duration=1"),
        ("simulation.tau_x=1e-12", "simulation.tau_u=1e-12", "simulation.duration=1"),
        ("simulation.step=1e300", "simulation.duration=0.05"),
    ],
    ids=["tau_x", "both_delays", "huge_step"],
)
def test_state_delay_shorter_than_a_step_exits_one(tmp_path, capsys, overrides):
    """The loop steps in blocks of at most tau_x, so a state delay that
    rounds to zero steps is refused when the scenario is loaded."""
    argv = ["run", "example1", "--out", str(tmp_path / "o")]
    for override in overrides:
        argv += ["--set", override]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: delays must satisfy step <= tau_x")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["square", "sine"])
def test_reference_phase_that_overflows_exits_one_before_the_run(tmp_path, capsys, kind):
    """A period so short that the reference's phase over the run is not
    finite is refused when the scenario is loaded: exit 1, one error line
    naming the reference, no output directory."""
    argv = ["run", "example1", "--set", f"reference.kind={kind}", "--set", "reference.period=1e-320",
            "--set", "simulation.duration=1", "--out", str(tmp_path / "o")]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: reference period 1e-320 is too short: the phase at "
                   "duration + tau_u = 6.0 is not finite"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "q_tilde, message",
    [
        ("0.2, 0.1, 0, 0.2", "q_tilde is not symmetric"),
        ("-0.2, 0, 0, 0.2", "q_tilde is not positive definite: smallest eigenvalue -2.000e-01"),
        ("1e308, 0, 0, 1e308", "q_tilde is too large"),
        ("1.7e308, 0, 0, 1.7e308", "q_tilde is too large"),
    ],
    ids=["non_symmetric", "indefinite", "overflows_p", "overflows_solve"],
)
def test_bad_q_tilde_is_named_in_the_lyapunov_check(tmp_path, capsys, command, q_tilde, message):
    argv = [command, "example1", "--set", f"controller.q_tilde={q_tilde}"]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: lyapunov_residual: {message}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_leader_matrix_near_the_float_range_fails_the_lyapunov_check(tmp_path, capsys, command):
    """A leader matrix whose vectorized Lyapunov system overflows fails the
    Lyapunov check naming a_m, and its ideal gains the matching check: exit
    1, those two error lines, no numpy warning and no output directory."""
    argv = [command, "example2", "--set", "leader.a_m=1e308,0,-1,1e200"]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == ("error: lyapunov_residual: a_m is too large: "
                      "the vectorized lyapunov system is not finite")
    assert len(err) == 2 and err[1].startswith("error: matching: agent 1: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "override",
    ["agent.1.b=0,0", "agent.1.b=0,1e-160", "agent.1.b=0,1e-300", "leader.b_m=0,1e-300"],
)
def test_degenerate_input_matrix_fails_matching(tmp_path, capsys, command, override):
    """An input matrix that is zero, or so small that the ideal gains'
    squares overflow, fails the matching check: exit 1, one error line
    naming the agent, no numpy warning and no trace."""
    argv = [command, "example1", "--set", override]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: matching: agent 1: ")
    assert not (tmp_path / "o" / "trace.csv").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_numerically_zero_reference_gain_fails_matching(tmp_path, capsys, command):
    """b_m = (0, -1e-13) makes agent 1's ideal reference gain -3.3e-14, too
    small to weigh the energy monitor by: the scenario is refused before any
    step is taken, with exit 1, one error line and no trace."""
    argv = [command, "example1", "--set", "leader.b_m=0,-1e-13"]
    if command == "run":
        argv += ["--set", "simulation.duration=20", "--out", str(tmp_path / "o")]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: matching: agent 1: ideal reference gain")
    assert err[0].endswith("is numerically zero")
    assert not (tmp_path / "o" / "trace.csv").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("key, label", [("gamma_theta", "theta"), ("gamma_phi", "phi_phi")])
def test_frozen_channel_with_gain_error_fails_matching(tmp_path, capsys, command, key, label):
    """A zero rate on agent 1's channel keeps its gains at their initial
    values, which differ from the ideal ones, so the energy monitor would
    fail on every row: the matching check fails before any step is taken,
    with exit 1, one error line naming the agent and the channel, and no
    output directory."""
    argv = [command, "example1", "--set", f"controller.{key}=0,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: matching: agent 1: {label} adaptation is frozen (rate at or below 1e-12) "
        "but its gain error is nonzero"
    ]
    if command == "validate":
        assert "matching=fail" in captured.out.splitlines()
    assert not (tmp_path / "o").exists()


def test_small_input_matrix_with_representable_gains_runs(tmp_path, capsys):
    """Ideal gains near 1e150 still square to a finite energy monitor."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("run", "example1", "--set", "agent.1.b=0,1e-150",
                       "--set", "simulation.duration=1", "--out", str(tmp_path))
    assert code == 0
    v_d = np.loadtxt(tmp_path / "trace.csv", delimiter=",", skiprows=1)[:, -1]
    assert np.all(np.isfinite(v_d)) and v_d[-1] > 1e150


def test_readme_scenario_table_matches_the_schema():
    """README's table of sections and keys lists exactly the keys the
    parser reads, and marks exactly the optional ones."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `\[([\w.]+)\]` \| (.*) \|$", readme, flags=re.MULTILINE)
    table = {}
    for section, keys in rows:
        required, _, optional = keys.partition("optional")
        table[section] = (re.findall(r"`(\w+)`", required), re.findall(r"`(\w+)`", optional))
    schema = {
        section: (
            [k for k, how in keys.items() if not isinstance(how, cli._Optional)],
            [k for k, how in keys.items() if isinstance(how, cli._Optional)],
        )
        for section, keys in cli._SCHEMA.items()
    }
    assert table == schema


def test_readme_trace_columns_follow_the_row_layout():
    """README's list of trace.csv columns under "Trace format" names
    exactly the column prefixes of harness.ROW_FIELDS, in file order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Columns, in order: (.*?)\. For the builtins", readme, flags=re.DOTALL)
    prefixes = re.findall(r"`(\w+?)(?:_i)?(?:_k)?`", listed.group(1))
    assert prefixes == list(harness.ROW_FIELDS.values())


@pytest.mark.parametrize("setting, leader_row, line", [
    ("reference.amplitude=1e7", 1011,
     "error: state magnitude 1.232e+29 at t=5.005 exceeds 1e+06"),
    ("leader.a_m=0, 1, -2000, -3000", 1003,
     "error: state magnitude 2.963e+06 at t=5.015 exceeds 1e+06"),
], ids=["huge_reference", "unstable_leader"])
def test_leader_divergence_yields_no_row_and_exits_two(setting, leader_row, line, tmp_path,
                                                       capsys):
    """A leader table that passes the limit ends the run before any row is
    yielded.  With a huge reference the leader's first row past it, which
    the leader pass returns, is row 1011, and the fleet, stepped up to the
    row before, passes it first (t = 5.005, row 1001); with a leader whose
    RK4 step is unstable at h = 0.005 the leader's row 1003 is the one
    reported.  Both scenarios pass
    validation, and the CLI exits 2 with that one line and writes no file."""
    sets = ("simulation.duration=20", setting)
    sc = load_scenario("example1", sets)
    assert all(c.passed for c in validate_scenario(sc))
    h, lead = sc.step, round((sc.duration + sc.tau_u) / sc.step)
    n, du = sc.state_dim, round(sc.tau_u / sc.step)
    table = np.zeros((lead + 1, n + 4 * sc.input_dim))
    table[0, :n] = sc.xm0
    with np.errstate(over="ignore", invalid="ignore"):
        harness._stage_inputs(sc.reference, table[:, n:], du, h)
        first = harness._leader_pass(sc.leader.rk4_matrices(h)[0], table, h)
        past = ~(np.abs(table[:, :n]).max(axis=1) <= harness.DIVERGENCE_LIMIT)
    assert np.flatnonzero(past)[0] == leader_row == first[0]
    with pytest.raises(DivergenceDetected) as info:
        next(harness.run_blocks(sc))
    assert f"error: {info.value}" == line
    out = tmp_path / "out"
    argv = ["run", "example1", "--out", str(out), *[a for s in sets for a in ("--set", s)]]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert os.listdir(out) == []


def test_run_unwritable_output_exits_two(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = run_cli("run", "example1", "--out", str(blocker), "--set", "simulation.duration=0")
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unwritable_summary_exits_two_and_leaves_no_trace(tmp_path, capsys):
    """A summary.txt that cannot be written (a directory stands in its
    place) ends the run with exit 2 and one error line, and leaves neither
    this run's trace.csv nor a partial summary."""
    out_dir = tmp_path / "out"
    (out_dir / "summary.txt").mkdir(parents=True)
    code = run_cli("run", "example1", "--out", str(out_dir), "--set", "simulation.duration=2")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: [Errno {errno.EISDIR}] ")
    assert os.listdir(out_dir) == ["summary.txt"]
    assert os.listdir(out_dir / "summary.txt") == []


def test_main_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "overrides, when",
    [
        # The commanded input reads leader rows tau_u past the last step; a
        # leader that blows up there (from t=5.005, the first row driven by
        # the reference) must stop the run like any other state.
        (("reference.amplitude=1e308", "simulation.duration=1"), 5.005),
        (("reference.amplitude=1e9", "simulation.duration=1"), 5.005),
        # An unstable agent passes the limit at t=4.21, before the first
        # leader row past it (5.005) in the table made before the loop: the
        # earlier time wins.
        (
            ("agent.1.a=0,1,3,2", "simulation.x0=3e-3,0,0,0,0,0,0,0",
             "reference.amplitude=1e9", "simulation.duration=8"),
            4.21,
        ),
    ],
    ids=["leader_1e308", "leader_1e9", "fleet_first"],
)
def test_divergence_exits_two_at_its_first_time(tmp_path, capsys, overrides, when):
    sets = [arg for o in overrides for arg in ("--set", o)]
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("run", "example1", "--out", str(tmp_path), *sets)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: state magnitude")
    assert f"at t={when:g} " in err[0]
    assert not (tmp_path / "trace.csv").exists()
    assert not (tmp_path / "trace.csv.partial").exists()
    assert not (tmp_path / "summary.txt").exists()


@pytest.mark.parametrize("duration", ["1", "8"], ids=["leader_ahead", "fleet_reads_leader"])
def test_leader_overflow_stops_with_one_error_line(tmp_path, capsys, duration):
    """A leader driven past the float range ends the run through the
    divergence check alone, whether only the look-ahead rows overflow or
    the fleet would read them: warnings are errors here, and no numpy
    warning reaches stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(
            "run", "example1", "--out", str(tmp_path),
            "--set", "reference.amplitude=1e308", "--set", f"simulation.duration={duration}",
        )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: state magnitude")
    assert "at t=5.005 " in err[0]
    assert not (tmp_path / "trace.csv").exists()
    assert not (tmp_path / "trace.csv.partial").exists()
    assert not (tmp_path / "summary.txt").exists()


def test_gain_overflow_is_divergence_with_one_error_line(tmp_path, capsys):
    """Adaptation rates of 1e150 overflow the fleet state to NaN in the
    first step after the input arrives: the divergence check reports it at
    that step's time, and no numpy warning reaches stderr."""
    huge = ", ".join("1e150" if i % 5 == 0 else "0" for i in range(16))
    sets = ("simulation.duration=12", f"controller.gamma_theta={huge}",
            f"controller.gamma_phi={huge}")
    with pytest.raises(DivergenceDetected) as info:
        run_scenario(load_scenario("example1", sets))
    assert info.value.time == pytest.approx(5.005, abs=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("run", "example1", "--out", str(tmp_path),
                       *[arg for s in sets for arg in ("--set", s)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: non-finite state at t=5.005"]
    assert not (tmp_path / "trace.csv").exists()
    assert not (tmp_path / "trace.csv.partial").exists()
    assert not (tmp_path / "summary.txt").exists()


# --------------------------------------------------------------- trace.csv


def savetxt_bytes(trace):
    """trace.csv as np.savetxt writes the whole trace stacked into one array."""
    rows = trace.num_rows
    data = np.column_stack(
        [trace.times]
        + [
            a.reshape(rows, -1)
            for a in (
                trace.x, trace.x_m, trace.x_a, trace.e, trace.e_a, trace.u,
                trace.u_aux, trace.phi, trace.theta, trace.phi_phi,
            )
        ]
        + [trace.v_d]
    )
    buf = io.BytesIO()
    np.savetxt(
        buf, data, fmt="%.17g", delimiter=",", header=",".join(trace_columns(trace)), comments=""
    )
    return buf.getvalue()


def ring_text(ell, duration):
    """A ring of ``ell`` second-order agents, each leaning 0.3 on both
    neighbours and 0.4 on the leader, with four stiffness levels."""
    def nums(values):
        return ", ".join(f"{v:g}" for v in values)

    ring = [[0.0] * ell for _ in range(ell)]
    for i in range(ell):
        ring[i][i - 1] = ring[i][(i + 1) % ell] = 0.3
    eye = nums(float(i == j) for i in range(ell) for j in range(ell))
    parts = [
        f"[simulation]\ntau_x = 3\ntau_u = 5\nstep = 0.01\nduration = {duration}",
        "[leader]\nstate_dim = 2\ninput_dim = 1\na_m = 0, 1, -2, -3\nb_m = 0, -2",
    ]
    for i in range(ell):
        k = 3 + i % 4
        parts.append(
            f"[agent.{i + 1}]\na = 0, 1, {-k}, {1 - k}\n"
            f"a_zeta = 0, 0, {0.1 * k:g}, {0.05 * k:g}\nb = 0, {k}"
        )
    parts.append(
        f"[topology]\nfollower_weights = {nums(v for row in ring for v in row)}\n"
        f"leader_weights = {nums([0.4] * ell)}\nthreshold = 0.1"
    )
    parts.append(
        f"[controller]\ngamma_theta = {eye}\ngamma_phi = {eye}\nq_tilde = 0.2, 0, 0, 0.2\n"
        f"theta0 = {nums([-0.01] * 5 * ell)}\nphi_phi0 = {nums([-0.2] * ell)}\n"
        f"r_signs = {nums([-1] * ell)}"
    )
    return "\n\n".join(parts) + "\n"


@pytest.fixture(scope="module")
def traces():
    """example1 over 12 s (2401 rows of 72 values: 28 blocks of 85 rows and
    one of 21), a 64-agent ring (1501 rows of 1156: 300 blocks of 5 rows and
    one of 1), and a single row."""
    return {
        "example1": run_scenario(load_scenario("example1", ("simulation.duration=12",))),
        "ring64": run_scenario(parse_scenario_file(ring_text(64, 15), "ring64")),
        "one_row": run_scenario(load_scenario("example1", ("simulation.duration=0",))),
    }


@pytest.mark.parametrize("name", ["example1", "ring64", "one_row"])
def test_trace_csv_matches_savetxt(traces, name, tmp_path):
    trace = traces[name]
    write_trace_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == savetxt_bytes(trace)
    assert os.listdir(tmp_path) == ["trace.csv"]


def test_trace_csv_of_non_finite_and_signed_zero_values_matches_savetxt(tmp_path):
    """nan, inf and -0.0 take the formatter's Python path, inside rows whose
    other values do not."""
    rows, ell, n, p, q = 3, 2, 2, 1, 5
    rng = np.random.default_rng(7)

    def values(*shape):
        return rng.standard_normal((rows,) + shape)

    trace = harness.SimTrace(
        times=np.array([0.0, 0.005, 0.01]),
        x=values(ell, n), x_m=values(n), x_a=values(ell, n), e=values(ell, n),
        e_a=values(ell, n), u=values(ell, p), u_aux=values(ell, p), phi=values(ell, p),
        theta=values(ell, q, p), phi_phi=values(ell, p, p), v_d=np.array([np.nan, np.inf, -0.0]),
        tau_u=2.0,
    )
    trace.x[0, 0] = [-np.inf, 0.0]
    trace.x_m[1] = [-0.0, np.nan]
    trace.theta[2, 1, :, 0] = [5e-324, -1.7976931348623157e308, 1e-300, -1e300, 0.5]
    write_trace_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == savetxt_bytes(trace)


def formatter_paths(monkeypatch):
    """Name each way trace.csv is formatted, in turn: in a forked child
    where there is os.fork, then in this process, with os.fork removed."""
    if hasattr(os, "fork"):
        yield "fork"
    monkeypatch.delattr(os, "fork", raising=False)
    yield "in_process"


def test_trace_csv_memory_is_bounded_by_a_block(traces, tmp_path, monkeypatch):
    """The write holds one block, not a copy of the trace, whether it
    formats in a forked child or in this process."""
    trace = traces["ring64"]
    arrays = (
        trace.times, trace.x, trace.x_m, trace.x_a, trace.e, trace.e_a, trace.u,
        trace.u_aux, trace.phi, trace.theta, trace.phi_phi, trace.v_d,
    )
    for path in formatter_paths(monkeypatch):
        tracemalloc.start()
        try:
            write_trace_csv(trace, tmp_path / f"{path}.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * sum(a.nbytes for a in arrays), path


def failing_on_second_chunk(monkeypatch, fail):
    """Make the formatter call ``fail()`` in place of formatting its second
    chunk.  A formatter in the writer's forked child counts its own calls
    from zero."""
    csv_rows = g17.csv_rows
    calls = []

    def failing(block, buffers=None):
        calls.append(None)
        if len(calls) == 2:
            fail()
        return csv_rows(block, buffers)

    monkeypatch.setattr(g17, "csv_rows", failing)


def disk_full():
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def assert_one_error_and_no_output(code, capsys, out_dir, error):
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {error}"]
    assert os.listdir(out_dir) == []


def test_trace_csv_write_failure_exits_two_and_leaves_no_file(tmp_path, capsys, monkeypatch):
    """A write that fails part way (here the disk fills on the second chunk
    formatted, in the child or in this process) ends the run with the
    error as one line and no trace file, whole or partial."""
    failing_on_second_chunk(monkeypatch, disk_full)
    for path in formatter_paths(monkeypatch):
        out_dir = tmp_path / path
        code = run_cli("run", "example1", "--out", str(out_dir), "--set", "simulation.duration=12")
        assert_one_error_and_no_output(
            code, capsys, out_dir, f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        )
        assert not (out_dir / "trace.csv.partial").exists()
        assert not (out_dir / "summary.txt").exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_trace_csv_writer_killed_by_a_signal_exits_two(tmp_path, capsys, monkeypatch):
    """A formatter child that a signal kills part way is an error naming
    the signal, and leaves no file."""
    failing_on_second_chunk(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    out_dir = tmp_path / "out"
    code = run_cli("run", "example1", "--out", str(out_dir), "--set", "simulation.duration=12")
    assert_one_error_and_no_output(code, capsys, out_dir, "trace.csv formatter was killed by SIGKILL")


@pytest.fixture(params=["fork", "in_process"])
def start(request, monkeypatch):
    """Where the formatter runs: in a forked child, or in this process
    where there is no os.fork."""
    if request.param == "fork" and not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    if request.param == "in_process" and hasattr(os, "fork"):
        monkeypatch.delattr(os, "fork")
    return request.param


def test_divergence_after_rows_were_sent_exits_two(start, tmp_path, capsys, monkeypatch):
    """A loop that diverges after the formatter has been sent rows stops
    it, reaps it and leaves no file: an unstable agent passes the limit at
    t=8.935, after eleven blocks of 152 rows (1672 rows) were sent."""
    rows = cli._rows
    sent = []

    def counting(*args):
        chunk = rows(*args)
        sent.append(chunk.size)
        return chunk

    monkeypatch.setattr(cli, "_rows", counting)
    out_dir = tmp_path / "out"
    code = run_cli("run", "example1", "--out", str(out_dir),
                   "--set", "agent.1.a=0,1,3,2", "--set", "simulation.duration=20")
    assert sum(sent) >= 972 * 72
    assert_one_error_and_no_output(
        code, capsys, out_dir, "state magnitude 4.148e+14 at t=8.935 exceeds 1e+06"
    )


def test_trace_csv_written_in_process_without_fork(tmp_path, monkeypatch):
    """Where there is no os.fork the rows are formatted in this process,
    into the same bytes."""
    out_dir = tmp_path / "forked"
    argv = ["run", "example1", "--set", "simulation.duration=12"]
    assert run_cli(*argv, "--out", str(out_dir)) == 0
    monkeypatch.delattr(os, "fork")
    assert run_cli(*argv, "--out", str(tmp_path / "in_process")) == 0
    for name in ("trace.csv", "summary.txt"):
        assert (tmp_path / "in_process" / name).read_bytes() == (out_dir / name).read_bytes()


def test_stream_that_ends_between_chunks_is_formatted_but_not_kept(start, traces, tmp_path,
                                                                     monkeypatch):
    """Blocks that stop with an error after 486 rows, which end inside the
    formatter's sixth chunk of 85 rows, are formatted to the last row
    received, and the file is removed rather than renamed."""
    sc = load_scenario("example1", ("simulation.duration=12",))
    sent = list(itertools.islice(harness.run_blocks(sc), 3))
    received = sum(block.num_rows for block in sent)
    assert received % cli._chunk_rows(72) != 0

    def blocks():
        yield from sent
        raise RuntimeError("the loop stopped")

    unlink = Path.unlink
    removed = {}

    def keeping(self, missing_ok=False):
        removed[self.name] = self.read_bytes()
        unlink(self, missing_ok=missing_ok)

    monkeypatch.setattr(Path, "unlink", keeping)
    with pytest.raises(RuntimeError, match="the loop stopped"):
        write_trace_csv(blocks(), tmp_path / "trace.csv")
    assert os.listdir(tmp_path) == []
    lines = savetxt_bytes(traces["example1"]).splitlines(keepends=True)
    assert removed == {"trace.csv.partial": b"".join(lines[: 1 + received])}


def test_trace_csv_formatter_memory_is_bounded_by_a_chunk(traces, tmp_path):
    """The formatter, which runs in the writer's child, holds one chunk,
    its text and its buffers, not the trace: run in this process on the
    raw rows the writer sends for the ring64 trace, its tracemalloc peak
    stays under the bound the writer keeps."""
    trace = traces["ring64"]
    columns = len(trace_columns(trace))
    per_chunk = cli._chunk_rows(columns)
    stream = tmp_path / "stream"
    with open(stream, "wb", buffering=0) as f:
        for a in range(0, trace.num_rows, per_chunk):
            cli._write_all(f.fileno(), cli._rows(trace, a, min(a + per_chunk, trace.num_rows)))
    tracemalloc.start()
    try:
        with open(stream, "rb") as f, open(tmp_path / "rows.csv", "wb") as out:
            cli._format_rows(cli._read_chunks(f, columns), out.fileno(), columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "rows.csv").read_bytes() == savetxt_bytes(trace).partition(b"\n")[2]
    arrays = [getattr(trace, name) for name in harness.ROW_FIELDS]
    assert peak < 0.25 * sum(a.nbytes for a in arrays)


@pytest.mark.parametrize(
    "argv, code, forks",
    [
        (["validate", "example1"], 0, 0),
        (["run", "example1", "--set", "controller.q_tilde=-0.2, 0, 0, 0.2"], 1, 0),
        (["run", "example1", "--set", "simulation.duration=1e7"], 2, 0),
        (["run", "example1", "--set", "simulation.duration=1"], 0, 1),
    ],
    ids=["validate", "run_invalid", "run_oversized", "run"],
)
def test_only_a_run_that_writes_forks(argv, code, forks, tmp_path, capsys, monkeypatch):
    """The formatter child is started by a run's trace write alone: not by
    validate, nor by a run refused at validation or at the size check."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    fork = os.fork
    calls = []

    def counting():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    out = ["--out", str(tmp_path / "o")] if argv[0] == "run" else []
    assert run_cli(*argv, *out) == code
    assert len(calls) == forks


# ------------------------------------------------------------ streamed runs


def two_input_text():
    """Three agents with two input channels each on a weighted digraph,
    tau_u = 30 steps: 200 steps wrap the state window several times."""
    def nums(values):
        return ", ".join(f"{v:g}" for v in np.ravel(values))

    rng = np.random.default_rng(5)
    parts = [
        "[simulation]\ntau_x = 0.1\ntau_u = 0.3\nstep = 0.01\nduration = 2\n"
        "x0 = 0.5, -0.3, 0.1, 0.2, -0.4, 0\nxm0 = 0.2, -0.1\n"
        "xa0 = 0.05, 0, -0.05, 0.1, 0, 0.02",
        "[reference]\nkind = sine\namplitude = 1\nperiod = 1.5",
        "[leader]\nstate_dim = 2\ninput_dim = 2\na_m = 0, 1, -2, -3\nb_m = 1, 0, 0, -2",
    ]
    for i in range(3):
        parts.append(
            f"[agent.{i + 1}]\na = 0, 1, {-1 - 0.2 * i:g}, -1\n"
            f"a_zeta = 0, 0.1, 0.2, {-0.1 * i:g}\nb = 1, {0.2 * i:g}, 0.1, 1.5"
        )
    parts.append(
        "[topology]\nfollower_weights = 0, 0.3, 0.2, 0.25, 0, 0.25, 0.2, 0.3, 0\n"
        "leader_weights = 0.5, 0.5, 0.5\nthreshold = 0.1"
    )
    parts.append(
        "[controller]\ngamma_theta = 0.5, 0, 0, 0, 0.5, 0, 0, 0, 0.5\n"
        "gamma_phi = 0.5, 0, 0, 0, 0.5, 0, 0, 0, 0.5\nq_tilde = 1, 0, 0, 1\n"
        f"theta0 = {nums(rng.normal(scale=0.1, size=(3, 6, 2)))}\n"
        f"phi_phi0 = {nums(np.tile(0.3 * np.eye(2), (3, 1, 1)))}\nr_signs = 1, 1, 1"
    )
    return "\n\n".join(parts) + "\n"


STREAMED = {
    "example1": lambda: "example1",
    "example2_sine": lambda: "example2",
    "two_input": two_input_text,
    "ring32": lambda: ring_text(32, 40),
}
STREAMED_SETS = {
    "example1": ("simulation.duration=12",),
    "example2_sine": ("simulation.duration=12", "reference.kind=sine"),
}


@pytest.mark.parametrize("case", ["example1", "two_input"])
def test_size_check_counts_every_trace_column(case, tmp_path, monkeypatch):
    """The size check of run_blocks counts a trace row as wide as
    trace.csv's header, for a one-input and a two-input fleet, so a column
    added to the layout is counted against MAX_RUN_BYTES."""
    source = STREAMED[case]()
    if source not in BUILTINS:
        path = tmp_path / f"{case}.cfg"
        path.write_text(source)
        source = str(path)
    sc = load_scenario(source, ("simulation.duration=1",))
    columns = len(trace_columns(next(harness.run_blocks(sc))))
    monkeypatch.setattr(harness, "MAX_RUN_BYTES", 0)
    with pytest.raises(TraceTooLarge, match=rf"trace rows of {columns} values"):
        harness.run_blocks(sc)


@pytest.mark.parametrize("case", list(STREAMED))
def test_streamed_run_writes_the_files_of_the_whole_trace(case, tmp_path, capsys):
    """``run`` writes each block of rows as the loop yields it and keeps only
    what summary.txt needs, yet writes trace.csv and summary.txt byte for
    byte as they are written from run_scenario's whole trace, whose fields
    are the blocks joined.  The loop yields each block as it steps it, a
    span of rows (the last block of steps holding what is left), then the
    last row alone.  Every case has more rows than 2 (tau_u + 1) and a
    block, so both delay lines wrap round at least once; the two-input
    fleet (201 rows, tau_u 30 rows) and the 32-agent ring (4001 rows, tau_u
    500 rows) wrap them several times."""
    source = STREAMED[case]()
    if source not in BUILTINS:
        path = tmp_path / f"{case}.cfg"
        path.write_text(source)
        source = str(path)
    sets = STREAMED_SETS.get(case, ())
    sc = load_scenario(source, sets)
    trace = run_scenario(sc)
    blocks = list(harness.run_blocks(sc))
    assert blocks[-1].num_rows == 1
    span = min(round(sc.tau_x / sc.step),
               harness.OPERAND_VALUES // harness._block_values(sc.num_agents,
                                                              sc.state_dim, sc.input_dim))
    assert trace.num_rows > 2 * (round(sc.tau_u / sc.step) + 1) + span
    total = trace.num_rows - 1
    assert [b.num_rows for b in blocks[:-2]] == [span] * (len(blocks) - 2)
    assert blocks[-2].num_rows == total - span * ((total - 1) // span)
    for name in harness.ROW_FIELDS:
        joined = np.concatenate([getattr(b, name) for b in blocks])
        assert np.array_equal(joined, getattr(trace, name), equal_nan=True), name
    write_trace_csv(trace, tmp_path / "whole.csv")
    cli.write_summary(sc, trace, tmp_path / "whole.txt")

    out = tmp_path / "out"
    argv = ["run", source, "--out", str(out)]
    assert run_cli(*argv, *[a for s in sets for a in ("--set", s)]) == 0
    assert (out / "trace.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert (out / "summary.txt").read_bytes() == (tmp_path / "whole.txt").read_bytes()
    assert sorted(os.listdir(out)) == ["summary.txt", "trace.csv"]


def test_streamed_run_memory_does_not_grow_with_the_horizon(tmp_path, capsys):
    """A CLI run holds a window of states and one block of rows, not the
    trace: on a 32-agent ring, the tracemalloc peak of a 40 s run exceeds
    that of a 10 s run by less than 10% of the 40 s trace's bytes."""
    def peak(duration):
        path = tmp_path / f"ring{duration}.cfg"
        path.write_text(ring_text(32, duration))
        out = tmp_path / f"out{duration}"
        tracemalloc.start()
        try:
            assert run_cli("run", str(path), "--out", str(out)) == 0
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return top, out / "trace.csv"

    short, _ = peak(10)
    long, csv = peak(40)
    with open(csv) as f:
        columns = f.readline().count(",") + 1
    trace_bytes = 8 * 4001 * columns
    assert long - short < 0.1 * trace_bytes
