"""Command line front end: scenario files, builtin examples, CSV traces.

Scenario files are strict line-oriented key = value text, in sections
[simulation], [reference], [leader], [agent.N] (N = 1, 2, ... with no
gaps), [topology] and [controller]; _SCHEMA declares every key and how it
is read.  Matrices are flat row-major comma-separated numbers; shapes come
from state_dim, input_dim, and the agent count.  Unknown sections or keys,
nan/inf numbers and non-integer dimensions are hard errors; the only
defaults are the reference waveform (square, amplitude 1, period 40,
offset 0) and zero initial states.  Every value is checked once, by the
constructor it feeds: Scenario, Topology, ReferenceSignal and the plant
models.

    delaysync run <builtin|file> [--out DIR] [--set section.key=value ...]
    delaysync validate <builtin|file> [--set ...]
    delaysync list-builtins

``run`` streams: it hands each block of rows ``harness.run_blocks`` yields
to one forked child, which formats trace.csv while the loop integrates the
next block, and keeps of them only what summary.txt needs
(``harness.TraceTally``).

Exit codes: 0 success, 1 parse or validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import sys
import threading
import traceback
import warnings
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

try:
    import fcntl
except ImportError:  # no fcntl: the pipe keeps its default size
    fcntl = None

import numpy as np

from . import g17
from .errors import DelaySyncError, ParseError, ValidationError
from .harness import (
    RECORD_VALUES,
    ROW_FIELDS,
    ReferenceSignal,
    Scenario,
    SimTrace,
    TraceTally,
    metrics,
    run_blocks,
    validate_scenario,
)
from .plant import AgentDynamics, LeaderModel
from .topology import Topology

# trace.csv is formatted in chunks of rows holding about this many values,
# which bounds the memory of one chunk whatever the trace's width.
CSV_BLOCK_VALUES = 6 * 2**10

DIMENSION, SCALAR, TEXT = "dimension", "scalar", "text"


class _Optional(NamedTuple):
    """A key that may be left out: a matrix then reads as zeros, and any
    other value takes its constructor's default."""

    read: str | Callable


# The scenario file schema: section -> key -> how its value is read.  Each
# key but the two dimensions is named after the constructor argument it
# feeds.  DIMENSION is a positive integer, SCALAR one number, TEXT the raw
# string, and a function of (n, p, l) -- state_dim, input_dim and the agent
# count -- the shape of a row-major matrix.
_SCHEMA = {
    "simulation": {
        "tau_x": SCALAR,
        "tau_u": SCALAR,
        "step": SCALAR,
        "duration": SCALAR,
        "x0": _Optional(lambda n, p, l: (l * n,)),
        "xm0": _Optional(lambda n, p, l: (n,)),
        "xa0": _Optional(lambda n, p, l: (l * n,)),
    },
    "reference": {
        "kind": _Optional(TEXT),
        "amplitude": _Optional(SCALAR),
        "period": _Optional(SCALAR),
        "offset": _Optional(SCALAR),
    },
    "leader": {
        "state_dim": DIMENSION,
        "input_dim": DIMENSION,
        "a_m": lambda n, p, l: (n, n),
        "b_m": lambda n, p, l: (n, p),
    },
    "agent.N": {
        "a": lambda n, p, l: (n, n),
        "a_zeta": lambda n, p, l: (n, n),
        "b": lambda n, p, l: (n, p),
    },
    "topology": {
        "follower_weights": lambda n, p, l: (l, l),
        "leader_weights": lambda n, p, l: (l,),
        "threshold": SCALAR,
    },
    "controller": {
        "gamma_theta": lambda n, p, l: (l, l),
        "gamma_phi": lambda n, p, l: (l, l),
        "q_tilde": lambda n, p, l: (n, n),
        "theta0": lambda n, p, l: (l, 2 * n + p, p),
        "phi_phi0": lambda n, p, l: (l, p, p),
        "r_signs": lambda n, p, l: (l,),
    },
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
            keys = _keys(name, lineno)
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
        if key not in keys:
            raise ParseError(f"unknown key {key!r} in [{current}]", line=lineno)
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r} in [{current}]", line=lineno)
        sections[current][key] = (value.strip(), lineno)
    return sections


def _keys(name: str, lineno: int | None = None) -> dict:
    """The schema entries of section ``name``, one for every [agent.N];
    raises ParseError for a name that is no section's."""
    if name.startswith("agent."):
        tail = name[len("agent.") :]
        if tail.isdigit() and int(tail) >= 1:
            return _SCHEMA["agent.N"]
        raise ParseError(f"agent sections are [agent.1], [agent.2], ...; got [{name}]", line=lineno)
    if name not in _SCHEMA:
        raise ParseError(f"unknown section [{name}]", line=lineno)
    return _SCHEMA[name]


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
        if key not in _keys(section):
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


def _read(sections, section: str, dims: dict) -> dict:
    """The values of ``section``'s keys as _SCHEMA reads them, by key.

    ``dims`` holds the agent count ``l``; the dimensions are stored there
    as they are read instead of being returned, so every other value is a
    constructor argument.
    """
    given = sections.get(section, {})
    # Agent keys repeat in every agent section, so their messages name it.
    prefix = f"{section}." if section.startswith("agent.") else ""
    values = {}
    for key, how in _keys(section).items():
        optional = isinstance(how, _Optional)
        how = how.read if optional else how
        shape = how(dims["state_dim"], dims["input_dim"], dims["l"]) if callable(how) else None
        if key not in given:
            if not optional:
                raise ParseError(f"missing {key!r} in [{section}]")
            if shape is not None:
                values[key] = np.zeros(shape)
            continue
        raw, line = given[key]
        label = prefix + key
        if shape is not None:
            values[key] = _floats(raw, line, label, math.prod(shape)).reshape(shape)
        elif how == TEXT:
            values[key] = raw
        elif how == SCALAR:
            values[key] = _scalar(raw, line, label)
        else:
            value = _scalar(raw, line, label)
            if not value.is_integer() or value < 1:
                raise ParseError(f"{label} must be a positive integer, got {raw}", line=line or None)
            dims[key] = int(value)
    return values


def parse_scenario_file(text: str, name: str = "scenario") -> Scenario:
    """Strict parse of the scenario format; see the module docstring."""
    return build_scenario(_tokenize(text), name)


def build_scenario(sections, name: str = "scenario") -> Scenario:
    """The Scenario of tokenized ``sections``, each read as _SCHEMA says."""
    for section, keys in _SCHEMA.items():
        required = not all(isinstance(how, _Optional) for how in keys.values())
        if required and section != "agent.N" and section not in sections:
            raise ParseError(f"missing section [{section}]")
    indices = sorted(int(s[len("agent.") :]) for s in sections if s.startswith("agent."))
    if not indices:
        raise ParseError("no [agent.N] sections found")
    if indices != list(range(1, len(indices) + 1)):
        raise ParseError(f"agent sections must be numbered 1..{len(indices)} without gaps")
    dims = {"l": len(indices)}
    leader = LeaderModel(**_read(sections, "leader", dims))
    agents = [AgentDynamics(**_read(sections, f"agent.{i}", dims)) for i in indices]
    topology = Topology(num_agents=dims["l"], **_read(sections, "topology", dims))
    return Scenario(
        fleet=agents,
        leader=leader,
        topology=topology,
        **_read(sections, "controller", dims),
        **_read(sections, "simulation", dims),
        reference=ReferenceSignal(**_read(sections, "reference", dims)),
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


def _chunk_rows(columns: int) -> int:
    """Rows in one chunk of trace.csv: about CSV_BLOCK_VALUES values, and
    at least one row."""
    return max(1, CSV_BLOCK_VALUES // columns)


def _rows(trace: SimTrace, a: int, b: int) -> np.ndarray:
    """Rows ``[a, b)`` of trace.csv as one float64 array; only these rows
    are copied out of the trace's arrays."""
    rows = [getattr(trace, name)[a:b].reshape(b - a, -1) for name in ROW_FIELDS]
    return np.concatenate(rows, axis=1)


def _write_all(fd: int, data) -> None:
    """Write every byte of the buffer ``data`` to the file descriptor ``fd``."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view) :]


def _send(fd: int, rows: np.ndarray) -> None:
    """One chunk message: the (rows, columns) of ``rows`` as two int64, then
    its float64 values row by row.  A message of no rows (_END) ends the
    stream."""
    _write_all(fd, np.array(rows.shape, np.int64))
    if rows.size:
        _write_all(fd, rows)


_END = np.zeros((0, 0))


def _format_chunks(source: int, out: int, status: int) -> int:
    """Read chunk messages from the file descriptor ``source``, format each
    with ``g17.csv_rows`` into one reused ``g17.Buffers``, and write the
    text to ``out``, until the end message.

    Returns 0 once the end message is read and 1 when ``source`` ends
    before it or the work fails.  A failure is first reported on
    ``status``: an OSError as its errno and strerror, anything else as its
    type and text.  Closes ``source`` and ``status``, not ``out``.  Its
    memory is one chunk, its text and the formatter's buffers, whatever
    the length of the stream.
    """
    try:
        with open(source, "rb") as chunks:
            shape = np.empty(2, np.int64)
            values = buffers = None
            while chunks.readinto(shape) == shape.nbytes:
                rows, columns = shape.tolist()
                if rows == 0:
                    return 0
                if buffers is None:
                    size = _chunk_rows(columns) * columns
                    values, buffers = np.empty(size), g17.Buffers(size)
                block = values[: rows * columns].reshape(rows, columns)
                if chunks.readinto(block) < block.nbytes:
                    break
                _write_all(out, g17.csv_rows(block, buffers))
        return 1
    except Exception as exc:
        if isinstance(exc, OSError) and exc.errno is not None:
            report = [exc.errno, exc.strerror]
        else:  # not an I/O failure: a defect, whose traceback goes to stderr
            traceback.print_exc()
            report = [None, f"{type(exc).__name__}: {exc}"]
        os.write(status, json.dumps(report).encode())
        return 1
    finally:
        os.close(status)


@contextlib.contextmanager
def _formatter(out: int) -> Iterator[Callable[[np.ndarray], None]]:
    """Run _format_chunks on the file descriptor ``out`` in one forked child
    (in a thread where there is no ``os.fork``) and yield the function
    that sends it a chunk of rows down a pipe.

    When the body ends, the end message is sent, the pipe closed and the
    child reaped.  A failure the child reported is raised here, an OSError
    as an OSError of the same errno and strerror, and so is a child that
    a signal killed or that exited otherwise than 0.  When the body
    raises, the pipe is closed, the child reaped and the body's exception
    goes on; a send that finds the child gone raises the child's failure.
    """
    source, chunks = os.pipe()
    reports, status = os.pipe()
    # A pipe that holds a whole yielded block (harness.RECORD_VALUES) lets
    # the loop hand a block over and integrate the next while the child
    # formats it; the default 64 KiB would hold the loop back a chunk at a
    # time.  Where the size cannot be set, the default works, only slower.
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        with contextlib.suppress(OSError):
            fcntl.fcntl(chunks, fcntl.F_SETPIPE_SZ, 8 * RECORD_VALUES)
    if hasattr(os, "fork"):
        # The child calls no BLAS and starts no threads: it formats with
        # numpy's elementwise routines and writes.  So the BLAS threads
        # this process may hold, which Python >= 3.12 warns about at a
        # fork, cannot leave it waiting on a lock they held.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "This process", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(chunks)
                os.close(reports)
                code = _format_chunks(source, out, status)
            finally:
                os._exit(code)
        os.close(source)
        os.close(status)

        def wait() -> int:
            return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    else:
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(_format_chunks(source, out, status))
        )
        thread.start()

        def wait() -> int:
            thread.join()
            return codes[0] if codes else 1

    try:
        yield lambda rows: _send(chunks, rows)
        _send(chunks, _END)
    except BrokenPipeError:
        pass  # the child stopped early: its report or exit status says why
    finally:
        os.close(chunks)
        code = wait()
        with open(reports, "rb") as f:
            report = f.read()
    if report:
        number, text = json.loads(report)
        if number is not None:
            raise OSError(number, text)
        raise DelaySyncError(f"trace.csv formatter failed: {text}")
    if code < 0:
        raise DelaySyncError(f"trace.csv formatter was killed by {signal.Signals(-code).name}")
    if code:
        raise DelaySyncError(f"trace.csv formatter exited with status {code}")


def write_trace_csv(trace: SimTrace | Iterable[SimTrace], path) -> None:
    """Full-precision CSV of a trace, or of its blocks of rows in order as
    ``harness.run_blocks`` yields them; %.17g text reproduces every double
    exactly.

    Two processes share the work.  This one writes the header and copies
    each block, as it arrives, in chunks of about CSV_BLOCK_VALUES values
    down a pipe to one forked child (a thread where there is no
    ``os.fork``), which formats them with ``g17.csv_rows`` and writes the
    text; so a run's loop integrates while its rows are formatted.  The
    bytes are those ``np.savetxt`` writes of the whole trace, however it is
    split into blocks.  Neither side copies a block or the trace whole:
    each holds a chunk at a time, the child also its text and the
    formatter's buffers.  The file is written as ``<path>.partial`` and
    renamed to ``path`` only once the child has written all of it; on any
    failure, the blocks' own included, the child is reaped and the partial
    file removed.
    """
    blocks = [trace] if isinstance(trace, SimTrace) else trace
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    per_chunk = None
    try:
        with open(partial, "wb", buffering=0) as out, _formatter(out.fileno()) as send:
            for block in blocks:
                if per_chunk is None:
                    columns = trace_columns(block)
                    per_chunk = _chunk_rows(len(columns))
                    _write_all(out.fileno(), ",".join(columns).encode() + b"\n")
                rows = block.num_rows
                for a in range(0, rows, per_chunk):
                    send(_rows(block, a, min(a + per_chunk, rows)))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_summary(sc: Scenario, trace: SimTrace | TraceTally, path) -> None:
    """summary.txt: the metrics of a trace, whole or tallied as it was
    written, and its final gains."""
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


def run_command(args: argparse.Namespace) -> int:
    """Carry out one parsed command line; returns the exit code."""
    if args.command == "list-builtins":
        for name in sorted(BUILTINS):
            print(name)
        return 0

    try:
        sc = load_scenario(args.scenario, tuple(args.overrides))
        checks = validate_scenario(sc) if args.command == "validate" else []
    except DelaySyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        for c in checks:
            print(f"{c.name}={'pass' if c.passed else 'fail'}")
        bad = [c for c in checks if not c.passed]
        for c in bad:
            print(f"error: {c.name}: {c.detail}", file=sys.stderr)
        return 1 if bad else 0

    try:
        # validates and sizes the run; failed checks ride on the error
        blocks = run_blocks(sc)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        tally = TraceTally(sc.tau_u)
        write_trace_csv(map(tally.add, blocks), out / "trace.csv")
        write_summary(sc, tally, out / "summary.txt")
    except ValidationError as exc:
        for line in [f"{c.name}: {c.detail}" for c in exc.failed] or [str(exc)]:
            print(f"error: {line}", file=sys.stderr)
        return 1
    except (DelaySyncError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out / 'trace.csv'} ({tally.num_rows} rows) and {out / 'summary.txt'}")
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

    return run_command(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
