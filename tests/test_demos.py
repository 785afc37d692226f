"""Every demo script runs to completion; each asserts its own claims."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path, cli_env):
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=cli_env, capture_output=True, text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
