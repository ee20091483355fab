"""The scripts under tools/ that need no optional dependency."""

import shutil
import subprocess
import sys
import textwrap
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


def nudged(tmp_path, wrapper):
    """A copy of the package whose stats.py ends in ``wrapper``, which rebinds one of its functions."""
    shutil.copytree(ROOT / "src" / "spacinglab", tmp_path / "src" / "spacinglab")
    stats = tmp_path / "src" / "spacinglab" / "stats.py"
    stats.write_text(stats.read_text() + textwrap.dedent(wrapper))
    return tmp_path


def test_ab_ops_fails_on_a_one_ulp_change_in_d(tmp_path):
    run = ab_ops(ROOT, nudged(tmp_path, """
        _exact_ks_test = ks_test

        def ks_test(sample, kind):
            r = _exact_ks_test(sample, kind)
            return KsResult(d=float(np.nextafter(r.d, 2.0)), n=r.n, p_value=r.p_value)
    """))
    assert run.returncode == 1
    assert run.stderr.startswith("error: experiment operation 0, value 1: ")


@pytest.mark.parametrize("normalized", ["s.raw / mean", "s.normalized"], ids=["mean-line", "stored-mean-only"])
def test_ab_ops_fails_on_a_one_ulp_change_in_the_mean(tmp_path, normalized):
    # sampling, unfolding and normalize all reach SpacingSample through the module's _own
    run = ab_ops(ROOT, nudged(tmp_path, f"""
        _exact_own = _own

        def _own(arr):
            s = _exact_own(arr)
            mean = float(np.nextafter(s.mean, 0.0))
            return SpacingSample(raw=s.raw, mean=mean, normalized={normalized})
    """))
    assert run.returncode == 1
    assert run.stderr.startswith("error: experiment operation 0, value ")
