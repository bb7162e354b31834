"""The seeded scenario generator and the recorded references."""

import contextlib
import io

import pytest

import checks
import scenarios
from delaysync import cli


def _numbers_by_key(text: str) -> dict:
    """{(section, key): numbers or text} of a scenario file, parsed plainly."""
    out, section = {}, None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            section = line[1:-1]
            continue
        key, _, value = line.partition("=")
        try:
            out[section, key.strip()] = [float(v) for v in value.split(",")]
        except ValueError:
            out[section, key.strip()] = value.strip()
    return out


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_same_seed_writes_identical_files(workload, tmp_path):
    first = scenarios.write_workload(workload, 7, tmp_path / "a")
    second = scenarios.write_workload(workload, 7, tmp_path / "b")
    assert [m.key for m in first] == [m.key for m in second]
    for a, b in zip(first, second):
        assert a.path.read_bytes() == b.path.read_bytes()


def test_seeds_choose_different_members():
    sweeps = {tuple(scenarios.pick("gamma_sweep", seed)) for seed in range(10)}
    rings = {tuple(scenarios.pick("ring_large", seed)) for seed in range(10)}
    assert len(sweeps) == 10
    assert len(rings) == scenarios.RING_VARIANTS


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_every_catalogue_member_validates(workload, tmp_path):
    for key in scenarios.catalogue(workload):
        member = scenarios.write_member(workload, key, tmp_path)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["validate", str(member.path)]) == 0, key


def test_pinned_long_is_example1_with_a_longer_horizon(tmp_path):
    (member,) = scenarios.write_workload("pinned_long", 0, tmp_path)
    ours = _numbers_by_key(member.path.read_text())
    builtin = _numbers_by_key(cli.BUILTINS["example1"])
    builtin["simulation", "duration"] = [scenarios.PINNED_DURATION]
    assert ours == builtin
    assert member.steps == 8000


def test_sweep_members_are_example2_variants(tmp_path):
    members = scenarios.write_workload("gamma_sweep", 3, tmp_path)
    assert len(members) == scenarios.SWEEP_MEMBERS
    assert len({m.key for m in members}) == len(members)
    kinds = [_numbers_by_key(m.path.read_text())["reference", "kind"] for m in members]
    assert kinds == ["square", "sine"] * (len(members) // 2)
    builtin = _numbers_by_key(cli.BUILTINS["example2"])
    varied = {"gamma_theta", "gamma_phi", "theta0", "phi_phi0", "kind", "duration"}
    for m in members:
        ours = _numbers_by_key(m.path.read_text())
        assert ours["simulation", "duration"][0] > 2 * ours["simulation", "tau_u"][0]
        for (section, key), value in builtin.items():
            if key not in varied:
                assert ours[section, key] == value, (m.key, section, key)


def test_ring_is_large_and_balanced(tmp_path):
    (member,) = scenarios.write_workload("ring_large", 5, tmp_path)
    values = _numbers_by_key(member.path.read_text())
    ell = scenarios.RING_AGENTS
    assert sum(1 for section, key in values if key == "a_zeta") == ell
    w = values["topology", "follower_weights"]
    g = values["topology", "leader_weights"]
    for i in range(ell):
        row = w[i * ell : (i + 1) * ell]
        assert sorted(row)[-2:] == [0.3, 0.3] and row[i] == 0.0
        assert sum(row) + g[i] == pytest.approx(1.0, abs=1e-12)
    assert member.steps == round(scenarios.RING_DURATION / scenarios.RING_STEP)


def test_reference_covers_exactly_the_catalogues():
    reference = checks.load_reference()
    assert set(reference) == set(scenarios.WORKLOADS)
    for workload in scenarios.WORKLOADS:
        assert set(reference[workload]) == set(scenarios.catalogue(workload))


def test_summary_digest_and_tolerance(tmp_path):
    text = "\n".join(
        [
            "scenario: s",
            "rows: 3",
            "duration: 0.01",
            "step: 0.005",
            "peak_error: 2",
            "final_window_mean: 1",
            "settling_time: inf",
            "max_vd_slope: -0.5",
            "theta_final_1_1: 3",
            "theta_final_1_2: -4",
            "phi_phi_final_1: 1",
        ]
    )
    digest = checks.summary_digest(text)
    assert digest["theta_final_l2"] == 5.0
    assert digest["theta_final_sum"] == -1.0
    assert digest["phi_phi_final_l2"] == 1.0
    (tmp_path / "summary.txt").write_text(text)
    (tmp_path / "trace.csv").write_text("t,x\n0,1\n0.005,1\n0.01,1\n")
    assert checks.check_outputs(tmp_path, 2, digest) is None
    assert "rows" in checks.check_outputs(tmp_path, 3, digest)
    off = dict(digest, peak_error=2.0 * (1 + 1e-5))
    assert "peak_error" in checks.check_outputs(tmp_path, 2, off)
    (tmp_path / "trace.csv").write_text("t,x\n0,1\n0.005,nan\n0.01,1\n")
    assert "non-finite" in checks.check_outputs(tmp_path, 2, digest)
