"""The demos run end to end, each in its own process and directory."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", ["soliton_propagation"])
def test_demo_exits_cleanly(tmp_path, package_env, demo):
    done = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py")],
        cwd=tmp_path, env=package_env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # a demo only prints
    assert not any(tmp_path.iterdir())
