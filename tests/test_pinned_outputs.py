"""Exact outputs of the sample -> KS path, the rejection rates, the Jacobian
check, the verify table and the curves on a grid.

Speed work on these paths must keep every bit, so the values are pinned as
reprs and SHA-256 digests rather than within a tolerance.  They were recorded
with numpy 2.4.6 and scipy 1.17.1 on x86-64; another numpy, scipy or libm may
move last bits, and then they must be re-recorded from a version known to be
right.
"""

import hashlib

import numpy as np
import pytest

from spacinglab import curves, ensembles, stats, verify

# ks_test(sample_spacings(GPUE, 1000, seed 7), curve): repr of (d, p)
KS_GPUE_1000_SEED7 = {
    "GOE": ("0.057760393985547664", "0.002530397059110506"),
    "GUE": ("0.12186932135935197", "2.5155473455648156e-13"),
    "GSE": ("0.1999464348183102", "3.7677267753906756e-35"),
    "GPOE": ("0.035439406295669884", "0.16214088196784684"),
    "GPUE": ("0.021774645984199315", "0.7301615010537205"),
}
# ks_test(sample_spacings(GOE/GPOE, n, seed 7), curve) at n = 20 000 and 100 000,
# sizes where ks_test bounds d block by block instead of scanning every point
KS_LARGE_SEED7 = {
    ("GOE", 20_000): {
        "GOE": ("0.00527886150477247", "0.6329880257450706"),
        "GUE": ("0.06758483041562963", "8.949364531571905e-80"),
        "GSE": ("0.14394640178811985", "0.0"),
        "GPOE": ("0.06664794393599482", "1.3692485768014728e-77"),
        "GPUE": ("0.04176872113672242", "9.857597202471746e-31"),
    },
    ("GOE", 100_000): {
        "GOE": ("0.002241900644359557", "0.696286981374646"),
        "GUE": ("0.0677219201425246", "0.0"),
        "GSE": ("0.14426747135144863", "0.0"),
        "GPOE": ("0.06329972310832221", "0.0"),
        "GPUE": ("0.03838452632158387", "2.1162949556789217e-128"),
    },
    ("GPOE", 20_000): {
        "GOE": ("0.06136237439849046", "7.768861630509648e-66"),
        "GUE": ("0.12837099428966958", "1.070361862038344e-286"),
        "GSE": ("0.20574913660697008", "0.0"),
        "GPOE": ("0.003862055573857992", "0.9266042698400293"),
        "GPUE": ("0.024783221431854824", "4.277037606268413e-11"),
    },
    ("GPOE", 100_000): {
        "GOE": ("0.06153897625107427", "0.0"),
        "GUE": ("0.12962369916700478", "0.0"),
        "GSE": ("0.20527786973514206", "0.0"),
        "GPOE": ("0.002717107951621278", "0.4514136223825419"),
        "GPUE": ("0.02610162495201579", "1.332028062807315e-59"),
    },
}
ACCEPTANCE_100K_SEED42 = {"GPOE": 0.4969, "GPUE": 0.29431}
# sample_spacings(kind, n, seed): SHA-256 of raw.tobytes() and repr of the rate, at
# seeds where stream 0's first rejection batch falls short, so a second batch fills the rest
MULTI_BATCH = {
    ("GPUE", 3, 235): ("c60297ca69804b876ea18de4dc61f706b8d856b98fba435276bfce3eac854a4d",
                       "0.09090909090909091"),
    ("GPOE", 2, 58): ("36a510adca55b49aca4cdd41025f61ba6bc237aa0148b87c33884273f40c9286",
                      "0.15384615384615385"),
}
JACOBIAN_SHA256 = {
    "GPOE": "c2d8872c8b3bfe375d5e1da686f20157796f9b516b7b5028a1b382e50fc10f51",
    "GPUE": "4fa70e222053862d72158a6e2eda88f260911cbd443bf88f2f8e3f4fe49782d0",
}
VERIFY_TABLE_SHA256 = "0071fbaa936d7d8498411ddc53495b855ae400f3c095609abea1c688d467591e"
# pdf and cdf on linspace(0, 45, 9001)
PDF_SHA256 = {
    "GOE": "c8c95b229cd48037591bfa0190755406be6ad5748f65a5446a9f0cfed842febd",
    "GUE": "0c63c4b4be2da9f209fb2819803dc80f5160a4e2b6a63437f41ff226fb8317e8",
    "GSE": "6ec320a62ac5f03a701c1b4625636c95306b8de58eb7e625ae85e45736008ba3",
    "GPOE": "f98d3ee64f1560f9c8fd9d8455c8b00f8df9d54c0af3e5694c436dbbc740f42d",
    "GPUE": "935c6c88c3bc0517984ecfba8adf3723a90e6468cfbadb197010056a414484a0",
}
CDF_SHA256 = {
    "GOE": "540a42a3019ae008e2ecb7309b4abdda91c79a4f84d56dcf841a09872111c299",
    "GUE": "a1eb15bcfdc204a5903a8b8bb94fa89590a28eb4c1a42c7171fc5afd5c058ddd",
    "GSE": "15f6f7aea5b57dd5b8c1ae1d5dda415e7ed3f45808073f04362a472eee50b40a",
    "GPOE": "e87198a8614e2bba5420eb452f4d567c60a6916ba8248d569f62490b55851dfd",
    "GPUE": "334275733b1a6544e489240d11553260168563798982acd726fafe16cb164e02",
}
GRID = np.linspace(0.0, 45.0, 9001)
# pdf("GPOE", x) on both sides of beta x^2 = _TINY (x = 2.21e-154), below which GRID never goes
# and the pdf takes K0's small-z limit: the points of test_curves' mpmath check
GPOE_THRESHOLD_X = np.array([5e-324, 1e-323, 1e-321, 1e-318, 1e-310, 1e-200, 2.33e-162, 3e-162, 4.02e-162,
                             5.2e-162, 1e-160, 1e-158, 2e-154, 3e-154, 1e-150])
GPOE_THRESHOLD_PDF_SHA256 = "a1b6da5eb687885830361fbb78c727f23d2f625a64e8a279e8a4bedd637ffa4a"
# small_x_approx on SMALL_X
SMALL_X = np.linspace(0.01, 0.49, 129)
SMALL_X_SHA256 = {
    "GPOE": "f4bf44dd3ce11a81c5a2162cccaa2cde0d378d01069b300eace371f1ff796b44",
    "GPUE": "4683268d866f7c9586c3f1e99967ef8bf147aed95b76cfe8d7cac0517930fa20",
}
# pseudo_hermiticity_residual(kind, default_rng(7).standard_normal((1000, n_params))):
# SHA-256 of the residuals; the five kinds without kappa give exactly 0
ZERO_RESIDUALS_SHA256 = "668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b"
RESIDUAL_SHA256 = {
    ensembles.GOE: ZERO_RESIDUALS_SHA256,
    ensembles.GUE: ZERO_RESIDUALS_SHA256,
    ensembles.GSE: ZERO_RESIDUALS_SHA256,
    ensembles.GPOE: ZERO_RESIDUALS_SHA256,
    ensembles.GPUE: ZERO_RESIDUALS_SHA256,
    ensembles.qh3(0.35): "75ca6b486a411911dcd7f69a6de8bbec8f66406d7043875dad1ce43dfdad848c",
    ensembles.qh4(1.2): "69be570bfbfa9677bafb8d8324000231059c83a56821cd04e4f0e6cb074cbd0d",
    ensembles.qh3(100.0): "fc9bc62864d2f2f5f73b0d60b531f18695220272931e210a58f03df495963218",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def gpue_sample():
    sample, rate = ensembles.sample_spacings(ensembles.GPUE, 1000, ensembles.SamplerConfig(seed=7))
    assert rate == 1000 / 3500
    return sample


@pytest.mark.parametrize("curve", curves.CURVE_ORDER)
def test_ks_d_and_p(gpue_sample, curve):
    res = stats.ks_test(gpue_sample, curve)
    assert type(res.d) is float and type(res.p_value) is float
    assert (repr(res.d), repr(res.p_value)) == KS_GPUE_1000_SEED7[curve]


@pytest.mark.parametrize("tag, n", list(KS_LARGE_SEED7))
def test_ks_d_and_p_large_n(tag, n):
    sample, _ = ensembles.sample_spacings(ensembles.EnsembleKind(tag), n,
                                          ensembles.SamplerConfig(seed=7))
    got = {c: (repr(r.d), repr(r.p_value))
           for c in curves.CURVE_ORDER for r in [stats.ks_test(sample, c)]}
    assert got == KS_LARGE_SEED7[tag, n]


@pytest.mark.parametrize("tag", ["GPOE", "GPUE"])
def test_acceptance_rate(tag):
    kind = ensembles.EnsembleKind(tag)
    rate = ensembles.acceptance_rate(kind, 100_000, ensembles.SamplerConfig(seed=42))
    assert rate == ACCEPTANCE_100K_SEED42[tag]


@pytest.mark.parametrize("tag, n, seed", list(MULTI_BATCH))
def test_multi_batch_rejection(tag, n, seed):
    sample, rate = ensembles.sample_spacings(ensembles.EnsembleKind(tag), n,
                                             ensembles.SamplerConfig(seed=seed))
    assert (sha256(sample.raw.tobytes()), repr(rate)) == MULTI_BATCH[tag, n, seed]


@pytest.mark.parametrize("tag", ["GPOE", "GPUE"])
def test_jacobian_ratios(tag):
    ratios = verify.jacobian_ratios(ensembles.EnsembleKind(tag))
    assert ratios.shape == (verify.JACOBIAN_POINTS,)
    assert sha256(ratios.tobytes()) == JACOBIAN_SHA256[tag]


def test_verify_table():
    results = verify.run_verification()
    assert all(type(r.passed) is bool for r in results)
    assert sha256(verify.format_table(results).encode()) == VERIFY_TABLE_SHA256


def test_format_table_pads_columns_to_their_labels():
    # every cell is narrower than its column's label, so the labels set the widths
    results = [verify.CheckResult("ab", "1", "x", True), verify.CheckResult("c", "22", "yz", False)]
    assert verify.format_table(results) == (
        "check  tolerance  observed  result\n"
        "----------------------------------\n"
        "ab     1          x         PASS\n"
        "c      22         yz        FAIL\n"
        "----------------------------------\n"
        "1/2 checks passed"
    )


def test_format_table_of_no_checks():
    assert verify.format_table([]) == (
        "check  tolerance  observed  result\n"
        "----------------------------------\n"
        "----------------------------------\n"
        "0/0 checks passed"
    )


@pytest.mark.parametrize("curve", curves.CURVE_ORDER)
def test_pdf_and_cdf_on_grid(curve):
    assert sha256(curves.pdf(curve, GRID).tobytes()) == PDF_SHA256[curve]
    assert sha256(curves.cdf(curve, GRID).tobytes()) == CDF_SHA256[curve]


def test_gpoe_pdf_below_the_threshold():
    assert sha256(curves.pdf("GPOE", GPOE_THRESHOLD_X).tobytes()) == GPOE_THRESHOLD_PDF_SHA256


@pytest.mark.parametrize("curve", ["GPOE", "GPUE"])
def test_small_x_approx(curve):
    assert sha256(curves.small_x_approx(curve, SMALL_X).tobytes()) == SMALL_X_SHA256[curve]


@pytest.mark.parametrize("kind", list(RESIDUAL_SHA256), ids=str)
def test_pseudo_hermiticity_residual(kind):
    p = np.random.default_rng(7).standard_normal((1000, kind.n_params))
    res = ensembles.pseudo_hermiticity_residual(kind, p)
    assert res.shape == (1000,)
    assert sha256(res.tobytes()) == RESIDUAL_SHA256[kind]
