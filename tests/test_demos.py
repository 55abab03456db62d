"""The demos run end to end, each in its own process and directory."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


CASES = {
    "soliton_propagation": ([], []),
    "spectral_toolbox": ([], []),
    "stability_contrast": ([], ["stability_map.csv"]),
    "convergence_sweeps": (["--quick"], ["spatial_sweep.csv", "temporal_sweep.csv"]),
}


@pytest.mark.parametrize(
    "demo, args, written", [(demo, *case) for demo, case in CASES.items()], ids=list(CASES)
)
def test_demo_exits_cleanly(tmp_path, package_env, demo, args, written):
    done = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py"), *args],
        cwd=tmp_path, env=package_env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # a demo writes its CSVs and nothing else
    assert sorted(path.name for path in tmp_path.iterdir()) == written
