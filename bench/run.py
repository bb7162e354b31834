"""delaysync benchmark: ``delaysync run`` end to end on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/`` of the
same tree.  Workloads (see scenarios.py for sizes and README.md for why):
pinned_long, ring_large, gamma_sweep.  Each run is in-process
``delaysync.cli.main(["run", <scenario file>, "--out", <dir>])``, one at a
time (closed loop, one client, single thread), and its outputs are checked.

--trace 0  runs the members round-robin for S seconds and times set-up
           (``cli.load_scenario`` + ``harness.validate_scenario`` over all
           members) between the runs; prints the end-to-end metrics.
--trace 1  after one warm-up run, runs each member untraced and then
           traced, pass after pass while the next pass fits in S seconds, and prints the per-layer metrics
           (per ``delaysync run``) from spans recorded around the calls into
           each module; spans are written to .bench_work/<workload>/spans.npz.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; correct is false when any run fails its
checks, set-up validation fails or traced passes count differently.  Work
files go to .bench_work/ in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import checks
import scenarios
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up is timed between the runs, so that it sees the machine in the same
# state as they do: before each run, rounds over all members repeat until
# SETUP_SLICE seconds have passed (at least one round).
SETUP_SLICE = 0.05

# metric -> (span name, field of Tracer.totals); values are per CLI run.
SPAN_METRICS = {
    "linalg.eig_s": ("linalg.symmetric_eigenvalues", "s"),
    "linalg.eig_calls": ("linalg.symmetric_eigenvalues", "calls"),
    "linalg.cholesky_s": ("linalg.cholesky", "s"),
    "linalg.cholesky_calls": ("linalg.cholesky", "calls"),
    "linalg.lyapunov_s": ("linalg.solve_lyapunov", "s"),
    "topology.check_threshold_s": ("topology.check_threshold", "s"),
    "adaptive.config_s": ("adaptive.ControllerConfig", "s"),
    "harness.validate_s": ("harness.validate_scenario", "s"),
    "harness.validate_calls": ("harness.validate_scenario", "calls"),
    "plant.matching_gains_calls": ("plant.matching_gains", "calls"),
    "dde.steps": ("dde.step_rk4", "calls"),
    "dde.rhs_evals": ("dde.rhs", "calls"),
    "dde.rhs_s": ("dde.rhs", "s"),
    "dde.step_self_s": ("dde.step_rk4", "self_s"),
    "dde.history_sample_calls": ("dde.HistoryBuffer.sample", "calls"),
    "dde.history_sample_s": ("dde.HistoryBuffer.sample", "s"),
    "adaptive.gain_derivatives_s": ("adaptive.gain_derivatives", "s"),
    "plant.fleet_derivative_s": ("plant.FleetDynamics.derivative", "s"),
    "harness.run_self_s": ("harness.run_scenario", "self_s"),
    "harness.energy_series_s": ("harness.energy_series", "s"),
    "dde.ode_steps": ("dde.rk4_ode_step", "calls"),
    "dde.leader_table_s": ("dde.rk4_ode_step", "s"),
    "cli.load_s": ("cli.load_scenario", "s"),
    "cli.csv_write_s": ("cli.write_trace_csv", "s"),
    "cli.summary_write_s": ("cli.write_summary", "s"),
}
# One validation and one matching-gain solve per run do all the useful work.
USEFUL_FRACS = {
    "harness.validate_useful_frac": "harness.validate_calls",
    "plant.matching_gains_useful_frac": "plant.matching_gains_calls",
}
END_TO_END_UNITS = {"setup_s": "s", "run_wall_s": "s", "steps_per_s": "1/s", "peak_rss_mib": "MiB"}


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def import_program() -> SimpleNamespace:
    """The package from ./src, or exit non-zero without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import delaysync
        from delaysync import adaptive, cli, dde, harness, linalg, plant
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import delaysync from {SRC}: {exc}")
    if SRC.resolve() not in Path(delaysync.__file__).resolve().parents:
        raise SystemExit(f"bench: delaysync imported from {delaysync.__file__}, not {SRC}")
    return SimpleNamespace(
        adaptive=adaptive, cli=cli, dde=dde, harness=harness, linalg=linalg, plant=plant
    )


class Runner:
    """Runs members through the CLI one at a time and checks every run."""

    def __init__(self, prog, work: Path, reference: dict):
        self.prog = prog
        self.out = work / "out"
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.broken = False  # a check outside any single run failed

    def fail(self, what: str, problem: str, run: bool = True) -> None:
        if run:
            self.failed += 1
        else:
            self.broken = True
        print(f"bench: FAILED {what}: {problem}", file=sys.stderr)

    def run(self, member: scenarios.Member) -> tuple[float, bool]:
        """Wall seconds of one ``delaysync run`` and whether its outputs passed."""
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["run", str(member.path), "--out", str(self.out)]
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.prog.cli.main(argv)
        except Exception:
            traceback.print_exc()
        wall = time.perf_counter() - start
        self.attempted += 1
        if rc != 0:
            problem = f"exit code {rc}"
        else:
            problem = checks.check_outputs(self.out, member.steps, self.reference.get(member.key))
        if problem:
            self.fail(member.key, problem)
        return wall, problem is None


def time_setup(prog, members, samples: list[float]) -> bool:
    """Append one set-up time per round; False when a validation check fails."""
    passed = True
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        for m in members:
            results = prog.harness.validate_scenario(prog.cli.load_scenario(str(m.path)))
            passed = passed and all(c.passed for c in results)
        end = time.perf_counter()
        samples.append(end - start)
        if end - begin >= SETUP_SLICE:
            return passed


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile (nearest rank) with ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 0, -1):
        idx = max(math.ceil(pct * n / 100) - 1, 0)
        if n - idx - 1 >= 10:
            return pct, ordered[idx]
    return None


def end_to_end(prog, runner: Runner, members, seconds: float) -> dict[str, float]:
    setup, setup_ok = [], True
    walls, steps, hashes = [], 0, []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        start = time.perf_counter()
        setup_ok = time_setup(prog, members, setup) and setup_ok
        deadline += time.perf_counter() - start  # the run window stays `seconds`
        m = members[i % len(members)]
        wall, ok = runner.run(m)
        walls.append(wall)
        if ok:
            steps += m.steps
            if m is members[0] and len(hashes) < 2:
                hashes.append(checks.output_hash(runner.out))
        i += 1
    # Rerun bit-identity: the first member, run twice, writes identical files.
    while len(hashes) < 2:
        _, ok = runner.run(members[0])
        if not ok:
            break
        hashes.append(checks.output_hash(runner.out))
    if len(hashes) == 2 and hashes[0] != hashes[1]:
        runner.fail(members[0].key, "rerun output differs from the first run")

    if not setup_ok:
        runner.fail("set-up", "a validation check failed", run=False)
    median_wall = statistics.median(walls)
    tail = tail_percentile(walls)
    print(f"setup_s {statistics.median(setup):.6f} s (median of {len(setup)})")
    print(
        f"run_wall_s {median_wall:.6f} s (median of n={len(walls)}); "
        + (f"p{tail[0]} {tail[1]:.6f} s" if tail else "no percentile has 10 samples beyond it")
    )
    metrics = {
        "setup_s": statistics.median(setup),
        "run_wall_s": median_wall,
        "steps_per_s": steps / sum(walls),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"steps_per_s {metrics['steps_per_s']:.3f} 1/s ({steps} steps)")
    print(f"peak_rss_mib {metrics['peak_rss_mib']:.3f} MiB")
    print(f"failed_frac {runner.failed / runner.attempted:.6g} ({runner.failed} of {runner.attempted} runs)")
    return metrics


def install(tracer: Tracer, prog) -> None:
    """Wrap each name where the program looks it up."""
    cli, harness = prog.cli, prog.harness
    for attr, name in (
        ("load_scenario", "cli.load_scenario"),
        ("validate_scenario", "harness.validate_scenario"),
        ("run_scenario", "harness.run_scenario"),
        ("write_trace_csv", "cli.write_trace_csv"),
        ("write_summary", "cli.write_summary"),
    ):
        tracer.patch(cli, attr, name)
    for attr, name in (
        ("validate_scenario", "harness.validate_scenario"),
        ("rk4_ode_step", "dde.rk4_ode_step"),
        ("matching_gains", "plant.matching_gains"),
        ("ControllerConfig", "adaptive.ControllerConfig"),
        ("_energy_series", "harness.energy_series"),
        ("build_matrices", "topology.build_matrices"),
        ("check_balanced", "topology.check_balanced"),
        ("check_threshold", "topology.check_threshold"),
        ("leader_reachable", "topology.leader_reachable"),
    ):
        tracer.patch(harness, attr, name)
    for attr in ("kron", "solve_linear", "cholesky", "symmetric_eigenvalues", "solve_lyapunov"):
        tracer.patch(prog.linalg, attr, f"linalg.{attr}")
    tracer.patch(prog.adaptive, "gain_derivatives", "adaptive.gain_derivatives")
    for module, cls, attr in ((prog.plant, "FleetDynamics", "derivative"), (prog.dde, "HistoryBuffer", "sample")):
        name = f"{module.__name__.removeprefix('delaysync.')}.{cls}.{attr}"
        if hasattr(module, cls):
            tracer.patch(getattr(module, cls), attr, name)
        else:
            tracer.missing.add(name)

    def step_wrapper(step_rk4):
        step = tracer.wrap(step_rk4, "dde.step_rk4")
        last = [None, None]  # the derivative seen last and its traced version

        def traced_step(derivative, *args, **kwargs):
            if derivative is not last[0]:
                last[:] = [derivative, tracer.wrap(derivative, "dde.rhs")]
            return step(last[1], *args, **kwargs)

        return traced_step

    tracer.patch(harness, "step_rk4", "dde.step_rk4", wrapper=step_wrapper)


def per_layer(prog, runner: Runner, members, seconds: float, work: Path) -> dict[str, float]:
    tracer = Tracer()
    overheads, csv_bytes, pass_counts = [], [], []
    begin = time.perf_counter()
    runner.run(members[0])  # warm-up, so first-call costs stay out of the pairs
    while True:
        pass_start = time.perf_counter()
        first_run = tracer.run_id
        for m in members:
            plain, _ = runner.run(m)
            with tracer:
                install(tracer, prog)
                traced, _ = runner.run(m)
            if (runner.out / "trace.csv").is_file():
                csv_bytes.append((runner.out / "trace.csv").stat().st_size)
            overheads.append(traced - plain)
            tracer.run_id += 1
        totals = tracer.totals(runs=range(first_run, tracer.run_id))
        pass_counts.append({name: t["calls"] for name, t in totals.items()})
        now = time.perf_counter()
        if now + (now - pass_start) - begin > seconds:
            break
    if any(counts != pass_counts[0] for counts in pass_counts[1:]):
        runner.fail("trace", "span counts differ between traced passes", run=False)
    if tracer.missing:
        print(f"bench: not traced, absent from the program: {sorted(tracer.missing)}")
    tracer.save(work / "spans.npz")

    runs = tracer.run_id
    totals = tracer.totals()
    metrics = {}
    for metric, (span, field) in SPAN_METRICS.items():
        value = totals.get(span, {}).get(field, 0) / runs
        metrics[metric] = int(value) if field == "calls" and value == int(value) else value
    for metric, calls in USEFUL_FRACS.items():
        metrics[metric] = 1.0 / metrics[calls] if metrics[calls] else 0.0
    metrics["cli.csv_bytes"] = statistics.mean(csv_bytes) if csv_bytes else 0
    metrics["trace.overhead_s"] = statistics.median(overheads)
    print(f"traced {runs} runs in {len(pass_counts)} passes; {len(tracer.start)} spans")
    for metric, value in metrics.items():
        print(f"{metric} {value:.6g} {layer_unit(metric)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prog = import_program()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    members = scenarios.write_workload(args.workload, args.seed, work / "scenarios")
    print(
        f"workload {args.workload} seed {args.seed}: "
        + ", ".join(f"{m.key} ({m.steps} steps)" for m in members)
    )
    runner = Runner(prog, work, checks.load_reference().get(args.workload, {}))
    if args.trace:
        metrics = per_layer(prog, runner, members, args.seconds, work)
        units = {m: layer_unit(m) for m in metrics}
    else:
        metrics = end_to_end(prog, runner, members, args.seconds)
        units = END_TO_END_UNITS
    result = {
        "correct": runner.failed == 0 and not runner.broken,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
