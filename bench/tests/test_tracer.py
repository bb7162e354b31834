"""Span recording, self times, and restoration of every patched name."""

import types

import pytest

import run
from tracer import Tracer


class Box:
    def method(self, x):
        return x + 1


def test_patches_are_restored_also_when_the_block_raises():
    module = types.ModuleType("fake")
    module.f = lambda x: 2 * x
    original_f, original_method = module.f, Box.__dict__["method"]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            tracer.patch(module, "f", "fake.f")
            tracer.patch(Box, "method", "fake.Box.method")
            assert module.f is not original_f
            assert module.f(3) == 6 and Box().method(1) == 2
            raise RuntimeError("boom")
    assert module.f is original_f
    assert Box.__dict__["method"] is original_method
    assert tracer.totals()["fake.f"]["calls"] == 1


def test_missing_names_are_listed_not_created():
    module = types.ModuleType("fake")
    tracer = Tracer()
    with tracer:
        tracer.patch(module, "gone", "fake.gone")
    assert not hasattr(module, "gone")
    assert tracer.missing == {"fake.gone"}


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    tracer.run_id = 4
    outer()
    outer()
    t = tracer.totals()
    assert t["outer"]["calls"] == 2 and t["inner"]["calls"] == 6
    assert t["outer"]["self_s"] + t["inner"]["s"] == pytest.approx(t["outer"]["s"], rel=1e-9)
    assert t["inner"]["self_s"] == pytest.approx(t["inner"]["s"], rel=1e-12)
    spans = tracer.arrays()
    assert set(spans["run"]) == {4}
    assert list(spans["parent"][:4]) == [-1, 0, 0, 0]
    assert tracer.totals(runs=[0]) == {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in tracer.names}


def _attributes(prog):
    owners = [prog.cli, prog.harness, prog.linalg, prog.adaptive, prog.plant.FleetDynamics, prog.dde.HistoryBuffer]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_install_restores_every_program_name_and_counts_repeat(tmp_path):
    prog = run.import_program()
    before = _attributes(prog)
    member = run.scenarios.write_member("gamma_sweep", "g1.0-k1.0-sine", tmp_path)
    runner = run.Runner(prog, tmp_path, run.checks.load_reference()["gamma_sweep"])
    tracer = Tracer()
    for run_id in range(2):
        tracer.run_id = run_id
        with tracer:
            run.install(tracer, prog)
            assert prog.harness.step_rk4 is not before[id(prog.harness), "step_rk4"]
            _, ok = runner.run(member)
        assert ok
        after = _attributes(prog)
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)
    assert not tracer.missing
    first, second = tracer.totals(runs=[0]), tracer.totals(runs=[1])
    assert {n: t["calls"] for n, t in first.items()} == {n: t["calls"] for n, t in second.items()}
    steps = first["dde.step_rk4"]["calls"]
    assert steps == member.steps
    assert first["dde.rhs"]["calls"] == 4 * steps
    assert first["harness.run_scenario"]["calls"] == 1
