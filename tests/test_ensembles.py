"""Matrix families, closed-form eigenvalues, rejection sampling, reproducibility."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spacinglab import ensembles, verify
from spacinglab.ensembles import (
    COMPLEX_REJECTED,
    GOE,
    GPOE,
    GPUE,
    GSE,
    GUE,
    EnsembleKind,
    RealPair,
    SamplerConfig,
    SpectralParams,
    acceptance_rate,
    draw_params,
    eigenvalues,
    hermiticity_residual,
    matrix_metric_residual,
    metric,
    pseudo_hermiticity_residual,
    qh3,
    qh4,
    realize_matrix,
    sample_spacings,
    spacing,
    spectral_to_params,
)

ALL_KINDS = [GOE, GUE, GSE, GPOE, GPUE, qh3(0.35), qh4(1.2)]


class TestKinds:
    def test_param_counts(self):
        assert GOE.n_params == 3 and GUE.n_params == 4 and GSE.n_params == 6
        assert GPOE.n_params == 3 and GPUE.n_params == 4
        assert qh3(0.1).n_params == 3 and qh4(0.1).n_params == 4

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            EnsembleKind("QH3")  # kappa required
        with pytest.raises(ValueError):
            EnsembleKind("QH4", -0.1)
        with pytest.raises(ValueError):
            EnsembleKind("GOE", 0.5)  # kappa forbidden
        with pytest.raises(ValueError):
            EnsembleKind("XYZ")

    @pytest.mark.parametrize("kappa", [math.inf, math.nan, 100.5, 355.0, 400.0, 1e308])
    def test_kappa_must_keep_cosh_finite(self, kappa):
        for tag in ("QH3", "QH4"):
            with pytest.raises(ValueError, match="kappa"):
                EnsembleKind(tag, kappa)

    def test_largest_kappa_with_finite_cosh_accepted(self):
        # at kappa 100 the shrunk draws' squares stay normal down to sigma 1e-100
        tiny = SamplerConfig(sigma=1e-100, seed=5)
        a, _ = sample_spacings(qh3(100.0), 2000, tiny)
        b, _ = sample_spacings(qh3(0.0), 2000, tiny)
        np.testing.assert_allclose(a.normalized, b.normalized, rtol=1e-12)
        # QH4's law depends on kappa, so compare across sigma instead
        c, _ = sample_spacings(qh4(100.0), 2000, tiny)
        d, _ = sample_spacings(qh4(100.0), 2000, SamplerConfig(sigma=1.0, seed=5))
        np.testing.assert_allclose(c.normalized, d.normalized, rtol=1e-12)

    def test_family_facts(self):
        # independent oracle values: GPOE's b^2 >= c^2 half-space, GPUE's cone
        assert GPOE.acceptance == 0.5 and GPOE.has_rejection
        assert GPUE.acceptance == 1.0 - 1.0 / math.sqrt(2.0) and GPUE.has_rejection
        for kind in (GOE, GUE, GSE, qh3(0.2), qh4(0.2)):
            assert kind.acceptance == 1.0 and not kind.has_rejection
        curves = [k.reference_curve for k in ALL_KINDS]
        assert curves == ["GOE", "GUE", "GSE", "GPOE", "GPUE", "GOE", "GUE"]
        assert [str(k) for k in ALL_KINDS] == [
            "GOE", "GUE", "GSE", "GPOE", "GPUE", "QH3(kappa=0.35)", "QH4(kappa=1.2)"
        ]
        assert ensembles.ENSEMBLE_ORDER == ("GOE", "GUE", "GSE", "GPOE", "GPUE", "QH3", "QH4")

    def test_qh_shrink_columns(self):
        # kappa shrinks b, c for QH3 and c, d for QH4
        base = 1.0 / math.sqrt(2.0)
        shrunk = base / math.sqrt(math.cosh(1.0))
        np.testing.assert_array_equal(ensembles._param_stds(qh3(0.5), 1.0), [base, shrunk, shrunk])
        np.testing.assert_array_equal(
            ensembles._param_stds(qh4(0.5), 1.0), [base, base, shrunk, shrunk]
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(sigma=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(workers=0)
        with pytest.raises(ValueError):
            SamplerConfig(seed=-1)
        for sigma in (math.inf, math.nan, 1e300, 1e-300):
            with pytest.raises(ValueError, match="sigma"):
                SamplerConfig(sigma=sigma)

    @pytest.mark.parametrize("field,value", [
        ("seed", 1.5), ("seed", 1.0), ("seed", "3"), ("seed", np.float64(2.0)),
        ("workers", 2.5), ("workers", 1.0),
    ])
    def test_config_rejects_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SamplerConfig(**{field: value})

    def test_config_accepts_numpy_integers(self):
        a, ra = sample_spacings(GPUE, 20_000, SamplerConfig(seed=np.uint64(5), workers=np.int32(2)))
        b, rb = sample_spacings(GPUE, 20_000, SamplerConfig(seed=5, workers=2))
        assert np.array_equal(a.raw, b.raw) and ra == rb


class TestEigenvalues:
    def test_gpoe_real_sector(self):
        out = eigenvalues(GPOE, [0.0, 5.0, 3.0])
        assert out == RealPair(4.0, -4.0)

    def test_gpoe_rejection(self):
        assert eigenvalues(GPOE, [1.0, 1.0, 2.0]) is COMPLEX_REJECTED

    def test_gpoe_boundary_is_real(self):
        # reality predicate is exact: b^2 == c^2 lies in the real sector
        out = eigenvalues(GPOE, [0.5, 1.5, 1.5])
        assert out == RealPair(0.5, 0.5)

    def test_gpue_example_with_numeric_oracle(self):
        p = [0.0, 3.0, 2.0, 2.0]
        out = eigenvalues(GPUE, p)
        assert out == RealPair(1.0, -1.0)
        numeric = np.sort_complex(np.linalg.eigvals(realize_matrix(GPUE, p)))
        assert np.allclose(numeric, [-1.0, 1.0], atol=1e-12)

    def test_gpue_rejection_predicate(self):
        assert eigenvalues(GPUE, [0.0, 2.0, 1.5, 1.5]) is COMPLEX_REJECTED
        assert eigenvalues(GPUE, [0.0, 2.0, 1.0, 1.0]) != COMPLEX_REJECTED

    def test_rejection_iff_property(self):
        # the rejected outcome coincides with the exact sign predicate,
        # no tolerance involved
        rng = np.random.default_rng(23)
        for _ in range(1000):
            a, b, c, d = rng.normal(scale=2.0, size=4)
            rejected = eigenvalues(GPOE, [a, b, c]) is COMPLEX_REJECTED
            assert rejected == (b * b < c * c)
            rejected = eigenvalues(GPUE, [a, b, c, d]) is COMPLEX_REJECTED
            assert rejected == (b * b < c * c + d * d)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_discriminant_matches_explicit_sums(self, kind):
        # the per-family sums written out, GSE's as numpy's row sum; equal bits
        reference = {
            "GOE": lambda q: q[:, 1] + q[:, 2],
            "QH3": lambda q: q[:, 1] + q[:, 2],
            "GUE": lambda q: q[:, 1] + q[:, 2] + q[:, 3],
            "QH4": lambda q: q[:, 1] + q[:, 2] + q[:, 3],
            "GSE": lambda q: q[:, 1:].sum(axis=1),
            "GPOE": lambda q: q[:, 1] - q[:, 2],
            "GPUE": lambda q: q[:, 1] - q[:, 2] - q[:, 3],
        }[kind.tag]
        params = ensembles._draw_block(kind, 1.0, ensembles._stream_rng(17, 0), 20_000)
        assert np.array_equal(ensembles._discriminants(kind, params), reference(params * params))

    def test_qh3_kappa_cancels(self):
        for kappa in (0.0, 0.7, 2.5):
            out = eigenvalues(qh3(kappa), [0.0, 3.0, 4.0])
            assert out == RealPair(5.0, -5.0)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_closed_form_matches_numeric_eigensolve(self, kind):
        rng = np.random.default_rng(11)
        cfg = SamplerConfig(seed=11)
        for i in range(25):
            p = draw_params(kind, cfg, i)
            out = eigenvalues(kind, p)
            if out is COMPLEX_REJECTED:
                H = realize_matrix(kind, p)
                assert np.max(np.abs(np.linalg.eigvals(H).imag)) > 0.0
                continue
            H = realize_matrix(kind, p)
            numeric = np.sort(np.linalg.eigvals(H).real)
            if kind.tag == "GSE":
                expected = np.array([out.e2, out.e2, out.e1, out.e1])
            else:
                expected = np.array([out.e2, out.e1])
            assert np.max(np.abs(numeric - expected)) < 1e-10

    def test_gse_numeric_degeneracy(self):
        p = [0.3, 0.5, -0.2, 0.9, 0.1, -0.4]
        evals = np.linalg.eigvalsh(realize_matrix(GSE, p))
        assert abs(evals[0] - evals[1]) < 1e-12 and abs(evals[2] - evals[3]) < 1e-12


class TestSpacing:
    def test_real_pair(self):
        assert spacing(RealPair(4.0, -4.0)) == 8.0

    def test_rejected_is_absent(self):
        assert spacing(COMPLEX_REJECTED) is None

    def test_degenerate(self):
        assert spacing(RealPair(2.0, 2.0)) == 0.0


class TestDrawParams:
    def test_padded_to_six(self):
        p = draw_params(GOE, SamplerConfig(seed=3), 0)
        assert p.shape == (6,)
        assert np.all(p[3:] == 0.0)

    def test_qh3_at_kappa_zero_matches_goe_law(self):
        cfg = SamplerConfig(seed=99)
        for i in range(5):
            assert np.array_equal(draw_params(qh3(0.0), cfg, i), draw_params(GOE, cfg, i))

    def test_qh4_at_kappa_zero_matches_gue_law(self):
        cfg = SamplerConfig(seed=99)
        for i in range(5):
            assert np.array_equal(draw_params(qh4(0.0), cfg, i), draw_params(GUE, cfg, i))

    def test_matches_first_row_of_stream(self):
        # documented: draw_params(kind, cfg, i) is the first parameter vector
        # consumed by the sampler's stream i
        cfg = SamplerConfig(seed=31)
        for kind in (GUE, GPUE):
            rng = ensembles._stream_rng(cfg.seed, 2)
            block = ensembles._draw_block(kind, cfg.sigma, rng, 500)
            assert np.array_equal(draw_params(kind, cfg, 2)[: kind.n_params], block[0])

    def test_gpoe_variances(self):
        # active parameters are N(0, sigma^2/2); 1e6 draws, 1% tolerance
        sigma = 1.7
        rng = ensembles._stream_rng(5, 0)
        block = ensembles._draw_block(GPOE, sigma, rng, 1_000_000)
        target = sigma * sigma / 2.0
        for j in range(3):
            assert abs(block[:, j].var() - target) / target < 0.01

    def test_qh_variances(self):
        sigma, kappa = 1.0, 0.8
        rng = ensembles._stream_rng(5, 0)
        block = ensembles._draw_block(qh4(kappa), sigma, rng, 1_000_000)
        shrunk = sigma * sigma / (2.0 * math.cosh(2.0 * kappa))
        assert abs(block[:, 0].var() - 0.5) / 0.5 < 0.01
        assert abs(block[:, 2].var() - shrunk) / shrunk < 0.02


class TestSampleSpacings:
    def test_exact_count_and_nonnegative(self):
        sample, rate = sample_spacings(GPOE, 5000, SamplerConfig(seed=1))
        assert len(sample) == 5000
        assert np.all(sample.raw >= 0.0)
        assert 0.0 < rate <= 1.0

    def test_accept_all_kinds_rate_is_one(self):
        for kind in (GOE, GUE, GSE, qh3(0.4), qh4(0.4)):
            _, rate = sample_spacings(kind, 100, SamplerConfig(seed=2))
            assert rate == 1.0

    def test_gpoe_rate_near_half(self):
        _, rate = sample_spacings(GPOE, 100_000, SamplerConfig(seed=3))
        assert abs(rate - 0.5) < 0.01

    def test_gpue_rate_near_cone_fraction(self):
        _, rate = sample_spacings(GPUE, 100_000, SamplerConfig(seed=3))
        assert abs(rate - (1.0 - 1.0 / math.sqrt(2.0))) < 0.01

    def test_bit_identical_repeats(self):
        cfg = SamplerConfig(seed=77)
        a, ra = sample_spacings(GPUE, 40_000, cfg)
        b, rb = sample_spacings(GPUE, 40_000, cfg)
        assert np.array_equal(a.raw, b.raw)
        assert ra == rb

    def test_worker_count_does_not_change_output(self):
        a, ra = sample_spacings(GPOE, 50_000, SamplerConfig(seed=8, workers=1))
        b, rb = sample_spacings(GPOE, 50_000, SamplerConfig(seed=8, workers=4))
        assert np.array_equal(a.raw, b.raw)
        assert ra == rb

    def test_sigma_scale_invariance_of_normalized(self):
        # same seed: raw spacings scale linearly with sigma, normalized match
        a, _ = sample_spacings(GUE, 100_000, SamplerConfig(sigma=1.0, seed=9))
        b, _ = sample_spacings(GUE, 100_000, SamplerConfig(sigma=3.0, seed=9))
        assert np.max(np.abs(a.normalized - b.normalized)) < 1e-12
        # the ends of the accepted sigma range neither overflow nor underflow
        for sigma in (1e-100, 1e100):
            c, _ = sample_spacings(GUE, 100_000, SamplerConfig(sigma=sigma, seed=9))
            np.testing.assert_allclose(c.normalized, a.normalized, rtol=1e-12)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            sample_spacings(GOE, 0, SamplerConfig(seed=1))

    @pytest.mark.parametrize("kind", [GOE, GPOE], ids=str)
    @pytest.mark.parametrize("n", [100.7, 100.0, np.float64(100.0), "100"])
    def test_non_integral_n_rejected(self, kind, n):
        with pytest.raises(ValueError, match="n_accepted must be an integer"):
            sample_spacings(kind, n, SamplerConfig(seed=1))

    def test_numpy_integer_n_accepted(self):
        a, ra = sample_spacings(GPOE, np.int64(1000), SamplerConfig(seed=1))
        b, rb = sample_spacings(GPOE, 1000, SamplerConfig(seed=1))
        assert len(a) == 1000 and np.array_equal(a.raw, b.raw) and ra == rb

    # recorded before the rejection batches were sized from the exact
    # acceptance probability; the batch size must not show in the rate
    @pytest.mark.parametrize("kind,n,rate", [
        (GPOE, 1, 1.0),
        (GPOE, 7, 0.5),
        (GPOE, 40_000, 0.4965181663584116),
        (GPUE, 1, 0.16666666666666666),
        (GPUE, 7, 0.25925925925925924),
        (GPUE, 40_000, 0.29444673458571347),
    ], ids=str)
    def test_pinned_rates_at_seed_42(self, kind, n, rate):
        sample, got = sample_spacings(kind, n, SamplerConfig(seed=42))
        assert len(sample) == n and got == rate

    @settings(max_examples=15, deadline=None, database=None)
    @given(
        kind=st.sampled_from(ALL_KINDS), n=st.integers(1, 40_000), seed=st.integers(0, 2**64 - 1)
    )
    @example(kind=GPUE, n=40_000, seed=42)  # three streams, the last one partial
    @example(kind=GSE, n=2 * ensembles.BLOCK_QUOTA, seed=0)  # two full streams
    def test_workers_do_not_change_output(self, kind, n, seed):
        runs = [sample_spacings(kind, n, SamplerConfig(seed=seed, workers=w)) for w in (1, 2, 3)]
        for sample, rate in runs[1:]:
            assert np.array_equal(sample.raw, runs[0][0].raw)
            assert rate == runs[0][1]


class TestAcceptanceRate:
    def test_always_real_kinds(self):
        assert acceptance_rate(GUE, 1000, SamplerConfig(seed=4)) == 1.0

    def test_gpoe_geometry(self):
        rate = acceptance_rate(GPOE, 100_000, SamplerConfig(seed=42))
        assert abs(rate - 0.5) < 0.005

    def test_gpue_geometry(self):
        rate = acceptance_rate(GPUE, 100_000, SamplerConfig(seed=42))
        assert abs(rate - (1.0 - 1.0 / math.sqrt(2.0))) < 0.005

    @pytest.mark.parametrize("n_raw", [1000.5, 1000.0, "1000"])
    def test_non_integral_n_raw_rejected(self, n_raw):
        with pytest.raises(ValueError, match="n_raw must be an integer"):
            acceptance_rate(GPOE, n_raw, SamplerConfig(seed=42))

    def test_numpy_integer_n_raw_accepted(self):
        cfg = SamplerConfig(seed=42)
        assert acceptance_rate(GPOE, np.int64(1000), cfg) == acceptance_rate(GPOE, 1000, cfg)


class TestSpectralMap:
    def test_gpoe_identity_point(self):
        p = spectral_to_params(GPOE, SpectralParams(t=0.0, s=2.0, theta=0.0))
        assert np.allclose(p[:3], [0.0, 1.0, 0.0], atol=0.0)
        assert eigenvalues(GPOE, p) == RealPair(1.0, -1.0)

    def test_gpue_identity_point(self):
        for phi in (0.0, 1.3, 5.0):
            p = spectral_to_params(GPUE, SpectralParams(t=0.0, s=2.0, theta=0.0, phi=phi))
            assert np.allclose(p[:4], [0.0, 1.0, 0.0, 0.0], atol=1e-16)

    def test_gpoe_hyperbolic_point(self):
        p = spectral_to_params(GPOE, SpectralParams(t=2.0, s=2.0, theta=0.5))
        assert abs(p[1] - math.cosh(1.0)) < 1e-15
        assert abs(p[2] + math.sinh(1.0)) < 1e-15
        out = eigenvalues(GPOE, p)
        assert abs(out.e1 - 2.0) < 1e-12 and abs(out.e2 - 0.0) < 1e-12

    @pytest.mark.parametrize("kind", [GPOE, GPUE], ids=str)
    def test_round_trip_property(self, kind):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            sp = SpectralParams(
                t=rng.uniform(-3, 3),
                s=rng.uniform(0, 3),
                theta=rng.uniform(-1.5, 1.5),
                phi=rng.uniform(0, 2 * math.pi),
            )
            out = eigenvalues(kind, spectral_to_params(kind, sp))
            assert out is not COMPLEX_REJECTED
            assert abs(out.e1 - (sp.t + sp.s) / 2.0) < 1e-12
            assert abs(out.e2 - (sp.t - sp.s) / 2.0) < 1e-12

    def test_rejects_hermitian_kinds(self):
        with pytest.raises(ValueError):
            spectral_to_params(GOE, SpectralParams(t=0.0, s=1.0, theta=0.0))

    def test_jacobian_gpoe_proportional_to_s(self):
        ratios = verify.jacobian_ratios(GPOE, n_points=100, seed=1234)
        assert np.max(np.abs(ratios / 0.25 - 1.0)) <= 1e-6

    def test_jacobian_gpue_proportional_to_reference(self):
        ratios = verify.jacobian_ratios(GPUE, n_points=100, seed=1234)
        assert np.max(np.abs(ratios / 0.5 - 1.0)) <= 1e-6


class TestRealizeMatrix:
    def test_gpoe_entries(self):
        H = realize_matrix(GPOE, [0.0, 5.0, 3.0])
        assert np.array_equal(H, np.array([[5.0, 3.0j], [3.0j, -5.0]]))

    def test_gue_entries(self):
        a, b, c, d = 0.2, -0.4, 1.1, 0.6
        H = realize_matrix(GUE, [a, b, c, d])
        assert np.array_equal(
            H, np.array([[a + b, c + 1j * d], [c - 1j * d, a - b]])
        )

    def test_qh4_entries_at_kappa_ln2(self):
        H = realize_matrix(qh4(math.log(2.0)), [0.0, 0.0, 3.0, 4.0])
        expected = np.array([[0.0, (3 + 4j) * 2.0], [(3 - 4j) / 2.0, 0.0]])
        assert np.max(np.abs(H - expected)) < 1e-14

    def test_metric_invariance_qh3(self):
        # eigenvalues are independent of kappa for fixed parameters, exactly
        p = [0.4, 1.2, -0.7]
        outs = {eigenvalues(qh3(k), p) for k in (0.0, 0.3, 2.0)}
        assert len(outs) == 1
        for k in (0.0, 0.3, 2.0):
            evs = np.sort(np.linalg.eigvals(realize_matrix(qh3(k), p)).real)
            pair = eigenvalues(qh3(k), p)
            assert np.max(np.abs(evs - [pair.e2, pair.e1])) < 1e-10


class TestResiduals:
    @pytest.mark.parametrize("kind", [GPOE, GPUE, qh3(0.35), qh4(1.2)], ids=str)
    def test_pseudo_residual_vanishes(self, kind):
        cfg = SamplerConfig(seed=6)
        for i in range(10):
            p = draw_params(kind, cfg, i)
            assert pseudo_hermiticity_residual(kind, p) <= 1e-12

    @pytest.mark.parametrize("kind", [GOE, GUE, GSE], ids=str)
    def test_hermitian_kinds_use_sibling_check(self, kind):
        cfg = SamplerConfig(seed=6)
        p = draw_params(kind, cfg, 0)
        with pytest.raises(ValueError):
            pseudo_hermiticity_residual(kind, p)
        assert hermiticity_residual(kind, p) == 0.0

    def test_sibling_rejects_pseudo_kinds(self):
        with pytest.raises(ValueError):
            hermiticity_residual(GPOE, [0.0, 1.0, 0.0])

    def test_perturbed_off_diagonal_residual(self):
        # perturbing the upper off-diagonal c -> c + 0.1 leaves
        # eta H eta^-1 - H^dag = [[0, -0.1i], [0.1i, 0]]: max-entry norm 0.1
        H = realize_matrix(GPOE, [0.0, 5.0, 3.0])
        H[0, 1] = 1j * 3.1
        res = matrix_metric_residual(H, metric(GPOE))
        assert abs(res - 0.1) < 1e-14
