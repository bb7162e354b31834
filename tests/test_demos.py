"""The quick demos run to completion against the installed package.

``fleet_tracking_run`` and ``leader_prediction`` integrate full builtin runs
and take several seconds each, so they are left out here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import delaysync

DEMOS = Path(__file__).resolve().parents[1] / "demos"
PACKAGE_ROOT = str(Path(delaysync.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "name", ["delay_stepping", "gain_matching", "linear_algebra_tour", "topology_gallery"]
)
def test_demo_exits_zero(name, tmp_path):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
