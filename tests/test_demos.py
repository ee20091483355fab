"""Every script in demos/ and every python block in README.md runs with warnings as errors, and demo 03's
closing claim holds for the table it prints."""

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
    if script.name.startswith("03_"):
        assert qh4_claim_contradictions(proc.stdout) == []


def test_readme_python_blocks_run(tmp_path):
    assert README_BLOCKS
    for block in README_BLOCKS:
        proc = run_warnings_as_errors(["-c", block], tmp_path)
        assert proc.returncode == 0, proc.stderr


def qh4_claim_contradictions(stdout):
    """Each row of demo 03's QH4 table (kappa, d vs GOE, GUE, GSE) that contradicts a clause of the
    closing claim under it.  A sentence's clauses hold through its "through kappa = K"; an order of
    magnitude said after "beyond" is said of every row."""
    table, claim = stdout.split("d vs GSE\n", 1)[1].split("\n\n", 1)
    rows = [tuple(map(float, line.split())) for line in table.splitlines()]
    found, wrong = set(), []
    for sentence in re.split(r"(?<=\.)\s+(?=[A-Z])", " ".join(claim.split())):
        through = re.search(r"through kappa = ([\d.]+)", sentence, re.I)
        if m := re.search(r"d vs GUE stays below ([\d.]+)", sentence):
            found.add("GUE below")
            wrong += [row for row in rows if row[0] <= float(through[1]) and not row[2] < float(m[1])]
        if (at := sentence.find("order of magnitude")) >= 0:
            found.add("order of magnitude")
            every_row = "beyond" in sentence[:at]
            wrong += [row for row in rows if (every_row or row[0] <= float(through[1]))
                      and not min(row[1], row[3]) >= 10.0 * row[2]]
        if m := re.search(r"by kappa = ([\d.]+), d vs GOE is within ([\d.]+) of d vs GUE", sentence):
            found.add("GOE catches up")
            wrong += [row for row in rows
                      if row[0] == float(m[1]) and not abs(row[1] - row[2]) <= float(m[2])]
    assert found >= {"GUE below", "order of magnitude"}, claim
    return wrong
