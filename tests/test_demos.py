"""Every script in demos/ and every python block in README.md runs with warnings as errors."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def run_warnings_as_errors(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(cwd))
    return subprocess.run([sys.executable, "-W", "error", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    # demo 04 writes its spectrum to the temporary directory
    proc = run_warnings_as_errors([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run(tmp_path):
    assert README_BLOCKS
    for block in README_BLOCKS:
        proc = run_warnings_as_errors(["-c", block], tmp_path)
        assert proc.returncode == 0, proc.stderr
