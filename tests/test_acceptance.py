"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Criterion 4's "every non-matching curve at d > 0.05" is asserted exactly as
stated even though the two closest curve pairs sit at analytic sup-CDF
distance 0.026 (GPOE-GPUE) and 0.037 (GOE-GPUE); those parameterized cases
fail by construction of the curves themselves, not by a sampling defect
(see README, "Known-red acceptance cases").  Best-fit classification is
nevertheless exact for all five ensembles, which
``test_c04_best_fit_recovers_ensemble`` and the verify suite demonstrate.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from spacinglab import cli, curves, ensembles, ingest, stats, verify

SEED = 42
MC_N = 200_000
DICHOTOMY_N = 100_000

# pre-build oracle bounds for criterion 9 (see notes): max relative deviation
# of the density from the printed small-x approximants over [0.1, 0.5]
GPOE_APPROX_DEV = 0.0189458
GPUE_APPROX_DEV = 0.0333258


def report(criterion: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag}: {criterion}{suffix}")


@pytest.fixture(scope="module")
def mc_ks_matrix():
    """KS distances of n=2e5 seed-42 samples of each ensemble vs each curve."""
    cfg = ensembles.SamplerConfig(seed=SEED)
    matrix = {}
    for tag in curves.CURVE_ORDER:
        sample, _ = ensembles.sample_spacings(ensembles.EnsembleKind(tag), MC_N, cfg)
        matrix[tag] = {k: stats.ks_test(sample, k).d for k in curves.CURVE_ORDER}
    return matrix


def test_c01_gpoe_constants():
    c = curves.constants("GPOE")
    ok = abs(c.alpha - 0.5818) <= 5e-5 and abs(c.beta - 0.4569) <= 5e-5
    report("criterion 1: GPOE constants", ok, f"alpha={c.alpha:.6f} beta={c.beta:.6f}")
    assert ok


def test_c02_gpue_constants():
    c = curves.constants("GPUE")
    ok = (
        abs(c.alpha - 2.5433) <= 5e-4
        and abs(c.beta - 0.5267) <= 5e-4
        and abs(c.gamma - 1.0263) <= 5e-4
    )
    report(
        "criterion 2: GPUE constants", ok,
        f"alpha={c.alpha:.6f} beta={c.beta:.6f} gamma={c.gamma:.6f}",
    )
    assert ok


@pytest.mark.parametrize("kind", curves.CURVE_ORDER)
def test_c03_normalization_and_unit_mean(kind):
    m0 = curves.moment(kind, 0)
    m1 = curves.moment(kind, 1)
    ok = abs(m0 - 1.0) <= 1e-8 and abs(m1 - 1.0) <= 1e-6
    report(f"criterion 3: {kind} m0/m1", ok, f"m0-1={m0-1:.2e} m1-1={m1-1:.2e}")
    assert ok


@pytest.mark.parametrize("kind", curves.CURVE_ORDER)
def test_c04_matching_curve(kind, mc_ks_matrix):
    d = mc_ks_matrix[kind][kind]
    ok = d < 0.01
    report(f"criterion 4: {kind} vs own curve d<0.01", ok, f"d={d:.4f}")
    assert ok


@pytest.mark.parametrize("kind", curves.CURVE_ORDER)
def test_c04_best_fit_recovers_ensemble(kind, mc_ks_matrix):
    row = mc_ks_matrix[kind]
    best = min(row, key=lambda k: (row[k], curves.CURVE_ORDER.index(k)))
    ok = best == kind
    report(f"criterion 4: {kind} sample best fit is its own curve", ok, f"best={best}")
    assert ok


@pytest.mark.parametrize(
    "sample_kind,curve_kind",
    [(a, b) for a in curves.CURVE_ORDER for b in curves.CURVE_ORDER if a != b],
    ids=lambda val: val,
)
def test_c04_nonmatching_curves(sample_kind, curve_kind, mc_ks_matrix):
    d = mc_ks_matrix[sample_kind][curve_kind]
    ok = d > 0.05
    report(
        f"criterion 4: {sample_kind} sample vs {curve_kind} curve d>0.05",
        ok,
        f"d={d:.4f}",
    )
    assert ok


def test_c05_rejection_rates():
    cfg = ensembles.SamplerConfig(seed=SEED)
    gpoe = ensembles.acceptance_rate(ensembles.GPOE, 100_000, cfg)
    gpue = ensembles.acceptance_rate(ensembles.GPUE, 100_000, cfg)
    target = 1.0 - 1.0 / math.sqrt(2.0)
    ok = abs(gpoe - 0.5) <= 0.005 and abs(gpue - target) <= 0.005
    report("criterion 5: rejection rates", ok, f"gpoe={gpoe:.4f} gpue={gpue:.4f}")
    assert ok


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
def test_c06_qh3_dichotomy(kappa):
    cfg = ensembles.SamplerConfig(seed=SEED)
    sample, _ = ensembles.sample_spacings(ensembles.qh3(kappa), DICHOTOMY_N, cfg)
    d = stats.ks_test(sample, "GOE").d
    ok = d < 0.01
    report(f"criterion 6: QH3 kappa={kappa} vs GOE", ok, f"d={d:.4f}")
    assert ok


def test_c07_qh4_dichotomy():
    cfg = ensembles.SamplerConfig(seed=SEED)
    ds = {}
    for kappa in (0.0, 0.25, 0.5):
        sample, _ = ensembles.sample_spacings(ensembles.qh4(kappa), DICHOTOMY_N, cfg)
        ds[kappa] = stats.ks_test(sample, "GUE").d
    ok = (
        all(d < 0.02 for d in ds.values())
        and ds[0.0] < 0.01
        and ds[0.25] >= ds[0.0] - 0.003
        and ds[0.5] >= ds[0.25] - 0.003
    )
    report(
        "criterion 7: QH4 vs GUE across kappa", ok,
        " ".join(f"d({k})={v:.4f}" for k, v in ds.items()),
    )
    assert ok


def test_c08_jacobian_proportionality():
    # documented constants: 1/4 for the 3-parameter map (reference |s|) and
    # 1/2 for the 4-parameter map (reference (s^2/4) sinh 2theta)
    r3 = verify.jacobian_ratios(ensembles.GPOE)
    r4 = verify.jacobian_ratios(ensembles.GPUE)
    dev3 = float(np.max(np.abs(r3 / 0.25 - 1.0)))
    dev4 = float(np.max(np.abs(r4 / 0.5 - 1.0)))
    ok = dev3 <= 1e-6 and dev4 <= 1e-6
    report("criterion 8: Jacobian proportionality", ok,
           f"dev3={dev3:.2e} dev4={dev4:.2e}")
    assert ok


def test_c09_small_x_regression_bounds():
    # evaluate on the open interval: clip the right endpoint inside (0, 0.5)
    xs = np.linspace(0.1, 0.5, 4001)
    xs[-1] = np.nextafter(0.5, 0.0)
    dev = {}
    for kind in ("GPOE", "GPUE"):
        p = curves.pdf(kind, xs)
        a = curves.small_x_approx(kind, xs)
        dev[kind] = float(np.max(np.abs(p - a) / p))
    ok = (
        0.8 * GPOE_APPROX_DEV <= dev["GPOE"] <= 1.2 * GPOE_APPROX_DEV
        and 0.8 * GPUE_APPROX_DEV <= dev["GPUE"] <= 1.2 * GPUE_APPROX_DEV
    )
    report("criterion 9: small-x approximant regression", ok,
           f"gpoe={dev['GPOE']:.5f} gpue={dev['GPUE']:.5f}")
    assert ok


def test_c10_repulsion_ordering():
    xs = np.arange(0.05, 0.3501, 0.05)
    stack = [curves.pdf(k, xs) for k in ("GPOE", "GPUE", "GOE", "GUE", "GSE")]
    ok = all(np.all(stack[i] > stack[i + 1]) for i in range(4))
    report("criterion 10: repulsion ordering", ok)
    assert ok


def test_c11_cli_determinism(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    base = ["sample", "--ensemble", "gpoe", "--n", "5000", "--seed", "17"]
    assert cli.main(base + ["--out", str(a)]) == 0
    assert cli.main(base + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    assert cli.main(base + ["--workers", "4", "--out", str(c)]) == 0
    raw = lambda p: sorted(float(ln.split(",")[0]) for ln in p.read_text().splitlines()[1:])
    same_multiset = raw(a) == raw(c)
    ok = identical and same_multiset
    report("criterion 11: CLI determinism and worker invariance", ok)
    assert ok


DATA = Path(__file__).resolve().parent.parent / "data"


def test_c12_riemann_zeros_classification():
    # the first 10 000 zeros, t from 10 to 9878, unfolded by a 51-level window
    spectrum = ingest.load_spectrum(DATA / "riemann_zeros.txt")
    assert spectrum.levels.size == 10_000
    sample = ingest.unfold(spectrum, ingest.LocalWindow(51))
    fit = stats.classify(sample)
    ok = fit.best_fit == "GUE"
    report("criterion 12: Riemann zeros classified as GUE", ok,
           " ".join(f"{k}={r.d:.4f}" for k, r in fit.ks.items()))
    assert ok


def test_c12_riemann_zeros_at_t1e6_classification():
    # the 10 105 zeros with t from 1e6 to 1 005 300, unfolded as in criterion 12
    spectrum = ingest.load_spectrum(DATA / "riemann_zeros_t1e6.txt")
    assert spectrum.levels.size == 10_105
    sample = ingest.unfold(spectrum, ingest.LocalWindow(51))
    fit = stats.classify(sample)
    ok = fit.best_fit == "GUE"
    report("criterion 12 at t = 1e6: Riemann zeros classified as GUE", ok,
           " ".join(f"{k}={r.d:.4f}" for k, r in fit.ks.items()))
    assert ok


def riemann_siegel_theta(t: np.ndarray) -> np.ndarray:
    return t / 2 * np.log(t / (2 * np.pi)) - t / 2 - np.pi / 8 + 1 / (48 * t)


@pytest.mark.parametrize("name", ["riemann_zeros.txt", "riemann_zeros_t1e6.txt"])
def test_c12_riemann_zeros_unfolded_by_counting_function(name):
    # the smooth zero count N(t) = theta(t)/pi + 1 unfolds the zeros with no fit
    # and no window (Odlyzko, Math. Comp. 48 (1987) 273), so the verdict does not
    # rest on the package's unfolding
    levels = ingest.load_spectrum(DATA / name).levels
    fit = stats.classify(stats.normalize(np.diff(riemann_siegel_theta(levels) / np.pi)))
    ok = fit.best_fit == "GUE"
    report(f"criterion 12, {name} unfolded by theta/pi: classified as GUE", ok,
           " ".join(f"{k}={r.d:.4f}" for k, r in fit.ks.items()))
    assert ok


@pytest.mark.parametrize("name", ["riemann_zeros.txt", "riemann_zeros_t1e6.txt"])
def test_c12_riemann_zeros_reject_every_curve(name):
    # GUE is the nearest curve, but none of the five fits: they are 2x2 surmises, and
    # the zeros follow the large-N GUE law with finite-height corrections (Bogomolny
    # et al., J. Phys. A 39 (2006) 10743), which KS resolves at n ~ 1e4.  The printed p
    # is conservative, as the spacings are scaled to their own mean (see
    # stats.ks_test), so p < 0.01 rejects a curve at the 1 % level.
    sample = ingest.unfold(ingest.load_spectrum(DATA / name), ingest.LocalWindow(51))
    fit = stats.classify(sample)
    ok = all(r.p_value < 0.01 for r in fit.ks.values())
    report(f"criterion 12, {name}: KS rejects every curve at 1 %", ok,
           " ".join(f"{k}={r.p_value:.3g}" for k, r in fit.ks.items()))
    assert ok
