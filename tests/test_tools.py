"""The scripts under tools/ that need no optional dependency."""

import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
AB_OPS = ROOT / "tools" / "ab_ops.py"
KINDS = ("experiment", "spectrum", "verify", "classify-1e5", "family", "rate", "curve", "csv", "spectrum-file")


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


def nudged(tmp_path, wrapper, module="stats.py"):
    """A copy of the package whose ``module`` ends in ``wrapper``, which rebinds one of its functions."""
    shutil.copytree(ROOT / "src" / "spacinglab", tmp_path / "src" / "spacinglab")
    source = tmp_path / "src" / "spacinglab" / module
    source.write_text(source.read_text() + textwrap.dedent(wrapper))
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


def test_ab_ops_fails_on_a_one_ulp_change_in_local_unfolding(tmp_path):
    # of the two spectra an 8-operation round parses, the second is unfolded by local:21
    run = ab_ops(ROOT, nudged(tmp_path, """
        _exact_unfold = unfold

        def unfold(spectrum, method):
            s = _exact_unfold(spectrum, method)
            if not isinstance(method, LocalWindow):
                return s
            return stats.SpacingSample(raw=s.raw, mean=s.mean, normalized=np.nextafter(s.normalized, 2.0))
    """, module="ingest.py"))
    assert run.returncode == 1
    assert run.stderr.startswith("error: spectrum operation 7, value ")


def test_ab_ops_fails_on_a_one_ulp_change_in_one_curves_cdf(tmp_path):
    # the KS passes call curves._cdf, not cdf, so only the curve kind can see this
    run = ab_ops(ROOT, nudged(tmp_path, """
        _exact_cdf = cdf

        def cdf(kind, x):
            out = _exact_cdf(kind, x)
            return np.nextafter(out, 2.0) if canonical_kind(kind) == "GPOE" else out
    """, module="curves.py"))
    assert run.returncode == 1
    assert run.stderr.startswith("error: curve operation ")


def test_ab_ops_fails_on_a_one_ulp_change_in_a_small_x_approximant(tmp_path):
    run = ab_ops(ROOT, nudged(tmp_path, """
        _exact_small_x_approx = small_x_approx

        def small_x_approx(kind, x):
            out = _exact_small_x_approx(kind, x)
            return np.nextafter(out, 2.0) if canonical_kind(kind) == "GPUE" else out
    """, module="curves.py"))
    assert run.returncode == 1
    assert run.stderr.startswith("error: curve operation ")


def test_ab_ops_fails_on_a_one_ulp_change_in_a_threaded_acceptance_rate(tmp_path):
    # verify reads acceptance rates on one worker, so only the rate kind can see this
    run = ab_ops(ROOT, nudged(tmp_path, """
        _exact_acceptance_rate = acceptance_rate

        def acceptance_rate(kind, n_raw, config):
            rate = _exact_acceptance_rate(kind, n_raw, config)
            return float(np.nextafter(rate, 2.0)) if config.workers > 1 else rate
    """, module="ensembles.py"))
    assert run.returncode == 1
    assert run.stderr.startswith("error: rate operation ")


def test_ab_ops_fails_on_a_changed_family_fact(tmp_path):
    # nothing else reads reference_curve, so only the family kind can see this
    run = ab_ops(ROOT, nudged(tmp_path, """
        _exact_reference_curve = EnsembleKind.reference_curve

        EnsembleKind.reference_curve = property(
            lambda kind: "GOE" if kind.kappa == 1.2 else _exact_reference_curve.fget(kind))
    """, module="ensembles.py"))
    assert run.returncode == 1
    assert run.stderr.startswith("error: family operation ")


def test_ab_ops_fails_on_one_changed_byte_of_a_csv_table(tmp_path):
    # only the csv kind writes a table, and only its special values reach this inf
    run = ab_ops(ROOT, nudged(tmp_path, """
        _exact_exact_text = _exact_text

        def _exact_text(values):
            words = _exact_exact_text(values).copy()
            words.view(np.uint8).reshape(-1, _SLOT)[np.isposinf(values), 0] = ord("I")
            return words
    """, module="cli.py"))
    assert run.returncode == 1
    assert run.stderr.startswith("error: csv operation ")
    assert "b'inf,-inf'] != CHANGE [b'Inf,-inf']" in run.stderr


def test_ab_ops_fails_on_a_one_ulp_change_in_the_plain_decimal_route(tmp_path):
    # only the spectrum-file kind reads a file, and only its repr file takes the route
    run = ab_ops(ROOT, nudged(tmp_path, """
        _exact_read_plain = _read_plain

        def _read_plain(path, start):
            values = _exact_read_plain(path, start)
            if values is None:
                return None
            return np.nextafter(values, np.inf)
    """, module="ingest.py"))
    assert run.returncode == 1
    assert run.stderr.startswith("error: spectrum-file operation ")
    assert ", value 0, entry 0: " in run.stderr
