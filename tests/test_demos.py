"""The demos run end to end, each in its own process and directory."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "argv",
    [
        ["soliton_propagation.py"],
        ["spectral_toolbox.py"],
        ["stability_contrast.py"],
        ["convergence_sweeps.py", "--quick"],
    ],
    ids=lambda argv: argv[0].removesuffix(".py"),
)
def test_demo_exits_cleanly(tmp_path, package_env, argv):
    done = subprocess.run(
        [sys.executable, str(DEMOS / argv[0]), *argv[1:]],
        cwd=tmp_path, env=package_env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
