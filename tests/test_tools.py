"""The scripts under tools/ that need no optional dependency."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
AB_OPS = ROOT / "tools" / "ab_ops.py"
KINDS = ("experiment", "spectrum", "verify", "classify-1e5")


def ab_ops(parent, change):
    return subprocess.run([sys.executable, str(AB_OPS), str(parent), str(change), "--reps", "1", "--ops", "8"],
                          capture_output=True, text=True, timeout=300)


def test_ab_ops_tree_against_itself():
    run = ab_ops(ROOT, ROOT)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].split()[-5:] == ["CHANGE/PARENT", "ratio", "Q1", "ratio", "Q3"]
    for kind in KINDS:
        (line,) = [ln for ln in lines if ln.split()[0] == kind]
        ratio, q1, q3 = map(float, line.split()[-3:])
        assert ratio > 0.0 and 0.0 < q1 <= q3


def test_ab_ops_fails_on_a_one_ulp_change_in_d(tmp_path):
    shutil.copytree(ROOT / "src" / "spacinglab", tmp_path / "src" / "spacinglab")
    stats = tmp_path / "src" / "spacinglab" / "stats.py"
    text = stats.read_text()
    assert text.count("    d = float(d)\n") == 1
    stats.write_text(text.replace("    d = float(d)\n", "    d = float(np.nextafter(d, 2.0))\n"))
    run = ab_ops(ROOT, tmp_path)
    assert run.returncode == 1
    assert run.stderr.startswith("error: experiment operation 0, value 1: ")


@pytest.mark.parametrize("line, nudged", [
    ("    mean = total / arr.size\n", "    mean = float(np.nextafter(total / arr.size, 0.0))\n"),
    ("SpacingSample(raw=arr, mean=mean,", "SpacingSample(raw=arr, mean=float(np.nextafter(mean, 0.0)),"),
], ids=["mean-line", "stored-mean-only"])
def test_ab_ops_fails_on_a_one_ulp_change_in_the_mean(tmp_path, line, nudged):
    shutil.copytree(ROOT / "src" / "spacinglab", tmp_path / "src" / "spacinglab")
    stats = tmp_path / "src" / "spacinglab" / "stats.py"
    text = stats.read_text()
    assert text.count(line) == 1
    stats.write_text(text.replace(line, nudged))
    run = ab_ops(ROOT, tmp_path)
    assert run.returncode == 1
    assert run.stderr.startswith("error: experiment operation 0, value ")
