"""Matrix families, closed-form eigenvalues, rejection sampling, reproducibility."""

import concurrent.futures
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spacinglab import curves, ensembles, ingest, stats, verify
from spacinglab.ensembles import (
    GOE,
    GPOE,
    GPUE,
    GSE,
    GUE,
    EnsembleKind,
    SamplerConfig,
    SpectralParams,
    acceptance_rate,
    eigenvalues,
    pseudo_hermiticity_residual,
    qh3,
    qh4,
    realize_matrix,
    sample_spacings,
    spectral_to_params,
)

ALL_KINDS = [GOE, GUE, GSE, GPOE, GPUE, qh3(0.35), qh4(1.2)]


def draw_block(kind, rng, count):
    """``count`` parameter rows (count, n_params) from one stream, scaled.

    The sampler draws the same rows unscaled, in chunks, and scales inside D instead.
    standard_normal gives the bits of normal(0, 1), which computes 0 + 1 * z.
    """
    block = rng.standard_normal(size=(count, kind.n_params))
    block *= ensembles._param_stds(kind)
    return block


def first_row(kind, seed, stream_index):
    """First parameter vector the sampler's stream ``stream_index`` consumes."""
    return draw_block(kind, ensembles._stream_rng(seed, stream_index), 1)[0]


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

    @pytest.mark.parametrize("kappa", ["0.5", b"0.5", 1 + 0j, np.complex64(0.5), np.complex128(0.5),
                                       True, np.True_],
                             ids=["str", "bytes", "complex", "complex64", "complex128", "bool",
                                  "numpy-bool"])
    def test_kappa_must_be_a_real_number(self, kappa):
        for tag in ("QH3", "QH4"):
            with pytest.raises(ValueError, match="^kappa must be real numbers"):
                EnsembleKind(tag, kappa)
        for make in (qh3, qh4):
            with pytest.raises(ValueError, match="^kappa must be real numbers"):
                make(kappa)

    def test_kappa_is_stored_as_a_float(self):
        kind = EnsembleKind("QH3", np.float32(0.5))
        assert type(kind.kappa) is float and kind.kappa == 0.5
        assert str(kind) == "QH3(kappa=0.5)" and kind == qh3(0.5)
        assert type(EnsembleKind("QH4", 1).kappa) is float

    def test_largest_kappa_with_finite_cosh_accepted(self):
        # at kappa 100 the shrunk draws' squares stay normal
        cfg = SamplerConfig(seed=5)
        a, _ = sample_spacings(qh3(100.0), 2000, cfg)
        b, _ = sample_spacings(qh3(0.0), 2000, cfg)
        np.testing.assert_allclose(a.normalized, b.normalized, rtol=1e-12)

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

    def test_generator_algebra(self):
        # the stack starts with the identity (a's generator); the traceless G_b, G_c, ...
        # square to sign * 1 with the signs of D written out and anticommute pairwise
        oracle = {
            "GOE": (1, 1), "GUE": (1, 1, 1), "GSE": (1,) * 5, "GPOE": (1, -1),
            "GPUE": (1, -1, -1), "QH3": (1, 1), "QH4": (1, 1, 1),
        }
        eta = np.diag([1.0, -1.0])
        for tag, signs in oracle.items():
            one, *gens = ensembles._FAMILIES[tag].generators
            assert np.array_equal(one, np.eye(len(one)))
            assert ensembles._SIGNS[tag] == (1, *signs) and len(gens) == len(signs)
            for i, g in enumerate(gens):
                assert np.array_equal(g @ g, signs[i] * one)
                for h in gens[i + 1:]:
                    assert np.array_equal(g @ h + h @ g, np.zeros_like(one))
                if tag in ("GPOE", "GPUE"):  # pseudo-Hermitian under eta = sigma_z
                    assert np.array_equal(eta @ g @ eta, g.conj().T)

    def test_qh_shrink_columns(self):
        # kappa shrinks b, c for QH3 and c, d for QH4
        base = 1.0 / math.sqrt(2.0)
        shrunk = base / math.sqrt(math.cosh(1.0))
        np.testing.assert_array_equal(ensembles._param_stds(qh3(0.5)), [base, shrunk, shrunk])
        np.testing.assert_array_equal(
            ensembles._param_stds(qh4(0.5)), [base, base, shrunk, shrunk]
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(workers=0)
        with pytest.raises(ValueError):
            SamplerConfig(seed=-1)

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
        assert out == (4.0, -4.0)

    def test_gpoe_rejection(self):
        assert eigenvalues(GPOE, [1.0, 1.0, 2.0]) is None

    def test_gpoe_boundary_is_real(self):
        # reality predicate is exact: b^2 == c^2 lies in the real sector
        out = eigenvalues(GPOE, [0.5, 1.5, 1.5])
        assert out == (0.5, 0.5)

    def test_gpue_example_with_numeric_oracle(self):
        p = [0.0, 3.0, 2.0, 2.0]
        out = eigenvalues(GPUE, p)
        assert out == (1.0, -1.0)
        numeric = np.sort_complex(np.linalg.eigvals(realize_matrix(GPUE, p)))
        assert np.allclose(numeric, [-1.0, 1.0], atol=1e-12)

    def test_gpue_rejection_predicate(self):
        assert eigenvalues(GPUE, [0.0, 2.0, 1.5, 1.5]) is None
        assert eigenvalues(GPUE, [0.0, 2.0, 1.0, 1.0]) is not None

    def test_rejection_iff_property(self):
        # the rejected outcome coincides with the exact sign predicate,
        # no tolerance involved
        rng = np.random.default_rng(23)
        for _ in range(1000):
            a, b, c, d = rng.normal(scale=2.0, size=4)
            rejected = eigenvalues(GPOE, [a, b, c]) is None
            assert rejected == (b * b < c * c)
            rejected = eigenvalues(GPUE, [a, b, c, d]) is None
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
        params = draw_block(kind, ensembles._stream_rng(17, 0), 20_000)
        assert np.array_equal(ensembles._discriminants(kind, params), reference(params * params))

    def test_qh3_kappa_cancels(self):
        for kappa in (0.0, 0.7, 2.5):
            out = eigenvalues(qh3(kappa), [0.0, 3.0, 4.0])
            assert out == (5.0, -5.0)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_closed_form_matches_numeric_eigensolve(self, kind):
        # one eigensolve of a 20,000-draw stack against a +- sqrt(D), the closed form
        # eigenvalues() returns: a complex pair where D < 0, else each value m/2 times
        block = draw_block(kind, ensembles._stream_rng(17, 0), 20_000)
        numeric = np.linalg.eigvals(realize_matrix(kind, block))
        disc = ensembles._discriminants(kind, block)
        real = disc >= 0.0
        assert np.all(np.max(np.abs(numeric[~real].imag), axis=-1) > 0.0)
        a, root = block[real, 0], np.sqrt(disc[real])
        expected = np.repeat(np.stack([a - root, a + root], axis=-1), numeric.shape[-1] // 2, -1)
        assert np.max(np.abs(np.sort(numeric[real].real, axis=-1) - expected)) < 1e-10
        first = eigenvalues(kind, block[0])
        assert first == ((a[0] + root[0], a[0] - root[0]) if real[0] else None)

    @pytest.mark.parametrize("fn,kind,p,why", [
        (eigenvalues, GOE, [math.inf, 1.0, 1.0], "parameters must be finite"),
        (eigenvalues, GOE, [math.nan, 1.0, 1.0], "parameters must be finite"),
        (eigenvalues, GUE, [0.0, 1e200, 1e200, 0.0], "discriminant overflows"),  # b^2 overflows
        (pseudo_hermiticity_residual, GPUE, [0.0, math.nan, 1.0, 1.0], "parameters must be finite"),
        (realize_matrix, GOE, [1e308, 1e308, 0.0], "matrix overflows"),  # a + b overflows
        (realize_matrix, qh3(100.0), [0.0, 1e300, 1e300], "matrix overflows"),  # b / eps overflows
        (pseudo_hermiticity_residual, qh3(100.0), [0.0, 1e300, 1e300], "matrix overflows"),
        (realize_matrix, qh4(100.0), [0.0, 0.0, 1e300, 1e300], "matrix overflows"),
        (pseudo_hermiticity_residual, qh4(100.0), [0.0, 0.0, 1e300, 1e300], "matrix overflows"),
        (eigenvalues, GOE, None, "parameters must be real numbers, got None"),  # not a 0-d NaN
        (realize_matrix, GOE, None, "parameters must be real numbers, got None"),
        (pseudo_hermiticity_residual, GPOE, None, "parameters must be real numbers, got None"),
        (eigenvalues, GOE, [1j, 2.0, 3.0], "parameters must be real numbers"),
        (realize_matrix, GUE, [0.0, 1j, 2.0, 3.0], "parameters must be real numbers"),
        (pseudo_hermiticity_residual, GPUE, [0.0, 1.0, 2.0, 1j], "parameters must be real numbers"),
        (eigenvalues, GOE, ["a", 1.0, 2.0], "parameters must be real numbers"),
        (realize_matrix, qh3(0.5), ["a", 1.0, 2.0], "parameters must be real numbers"),
        (pseudo_hermiticity_residual, GPOE, [0.0, "a", 1.0], "parameters must be real numbers"),
        # a stack names its first bad vector; eigenvalues takes no stack at all
        (realize_matrix, GOE, [[0.0, 1.0, 2.0], [0.0, math.nan, 1.0], [math.inf, 0.0, 0.0]],
         r"parameters must be finite, got \[0.0, nan, 1.0\]$"),
        (pseudo_hermiticity_residual, qh3(100.0), [[0.0, 1.0, 1.0], [0.0, 1e300, 1e300]],
         r"matrix overflows for parameters \[0.0, 1e\+300, 1e\+300\]$"),
        (eigenvalues, GOE, [[0.0, 1.0, 2.0]],
         r"eigenvalues take one parameter vector, got \(1, 3\)$"),
        (eigenvalues, GUE, np.zeros((2, 5, 4)), "eigenvalues take one parameter vector"),
    ], ids=["goe-inf", "goe-nan", "gue-overflow", "gpue-residual-nan", "goe-matrix-overflow",
            "qh3-dressing-overflow", "qh3-residual-overflow", "qh4-dressing-overflow",
            "qh4-residual-overflow", "goe-none", "goe-matrix-none", "gpoe-residual-none",
            "goe-complex", "gue-matrix-complex", "gpue-residual-complex", "goe-string",
            "qh3-matrix-string", "gpoe-residual-string", "goe-matrix-stack-nan",
            "qh3-residual-stack-overflow", "goe-one-row-stack", "gue-stack"])
    def test_non_finite_input_refused(self, fn, kind, p, why):
        # one ValueError naming the kind and the fault, and no numpy warning (warnings
        # are errors here)
        with pytest.raises(ValueError, match=f"^{kind.tag} {why}"):
            fn(kind, p)

    @pytest.mark.parametrize("fn", [eigenvalues, realize_matrix, pseudo_hermiticity_residual],
                             ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_wrong_length_refused(self, fn, kind):
        # a vector is exactly n_params long; a short one, a long one (which used to lose
        # its tail without a word) and the six entries GSE takes are all refused, and so
        # is a stack of short or long vectors
        values = [0.0, 3.0, 4.0, 100.0, -2.0, 0.5, 7.0]
        sizes = sorted({0, kind.n_params - 1, kind.n_params + 1, 6} - {kind.n_params})
        stacks = [[values[:size]] * 3 for size in (kind.n_params - 1, kind.n_params + 1)]
        for p in [values[:size] for size in sizes] + stacks:
            with pytest.raises(ValueError, match=f"{kind.tag} needs exactly {kind.n_params}"):
                fn(kind, p)

    def test_gse_numeric_degeneracy(self):
        p = [0.3, 0.5, -0.2, 0.9, 0.1, -0.4]
        evals = np.linalg.eigvalsh(realize_matrix(GSE, p))
        assert abs(evals[0] - evals[1]) < 1e-12 and abs(evals[2] - evals[3]) < 1e-12


class TestDrawParams:
    def test_qh3_at_kappa_zero_matches_goe_law(self):
        for i in range(5):
            assert np.array_equal(first_row(qh3(0.0), 99, i), first_row(GOE, 99, i))

    def test_qh4_at_kappa_zero_matches_gue_law(self):
        for i in range(5):
            assert np.array_equal(first_row(qh4(0.0), 99, i), first_row(GUE, 99, i))

    def test_gpoe_variances(self):
        # active parameters are N(0, 1/2); 1e6 draws, 1% tolerance
        rng = ensembles._stream_rng(5, 0)
        block = draw_block(GPOE, rng, 1_000_000)
        for j in range(3):
            assert abs(block[:, j].var() - 0.5) / 0.5 < 0.01

    def test_qh_variances(self):
        kappa = 0.8
        rng = ensembles._stream_rng(5, 0)
        block = draw_block(qh4(kappa), rng, 1_000_000)
        shrunk = 1.0 / (2.0 * math.cosh(2.0 * kappa))
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

    def test_mc_density_tracks_curve(self):
        sample, _ = sample_spacings(GOE, 1_000_000, SamplerConfig(seed=12))
        counts, edges = np.histogram(sample.normalized, bins=100, range=(0.0, 4.0))
        density = counts / (len(sample) * (4.0 / 100))
        centers = 0.5 * (edges[:-1] + edges[1:])
        assert np.max(np.abs(density - curves.pdf("GOE", centers))) < 0.02

    def test_n_validation(self):
        with pytest.raises(ValueError):
            sample_spacings(GOE, 0, SamplerConfig(seed=1))

    @pytest.mark.parametrize("kind", [GOE, GPOE], ids=str)
    @pytest.mark.parametrize("n", [100.7, 100.0, np.float64(100.0), "100"])
    def test_non_integral_n_rejected(self, kind, n):
        with pytest.raises(ValueError, match="n_accepted must be an integer"):
            sample_spacings(kind, n, SamplerConfig(seed=1))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    @pytest.mark.parametrize("n", [2**60, 2**62, 2**63 - 1, 2**63, 2**64],
                             ids=["2**60", "2**62", "2**63-1", "2**63", "2**64"])
    def test_n_past_any_array_is_memory_error(self, kind, n):
        # from 2**60 on, n * 8 bytes overflow intp, and np.empty's own refusal is a ValueError
        with pytest.raises(MemoryError, match=f"^n_accepted: {n} float64 values exceed"):
            sample_spacings(kind, n, SamplerConfig())

    def test_largest_array_passes_the_size_rule(self):
        # 2**60 - 1 values are 8 EiB: numpy's allocation, not the size rule, refuses them
        with pytest.raises(MemoryError) as exc:
            sample_spacings(GOE, 2**60 - 1, SamplerConfig())
        assert not str(exc.value).startswith("n_accepted")

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

    @pytest.mark.parametrize("cpus,pool_size", [(64, 3), (2, 2), (1, None), (None, None)])
    def test_worker_count_is_clamped(self, monkeypatch, cpus, pool_size):
        # a stand-in pool that runs jobs inline: no thread is started
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(ensembles.os, "cpu_count", lambda: cpus)
        n = 2 * ensembles.BLOCK_QUOTA + 5  # three streams
        sample, rate = sample_spacings(GPUE, n, SamplerConfig(seed=3, workers=10**6))
        assert sizes == ([] if pool_size is None else [pool_size])
        serial, serial_rate = sample_spacings(GPUE, n, SamplerConfig(seed=3))
        assert np.array_equal(sample.raw, serial.raw) and rate == serial_rate

    def test_import_leaves_the_thread_pool_out(self):
        # only a run on two or more workers imports concurrent.futures
        src = str(Path(ensembles.__file__).resolve().parents[1])
        code = ("import sys, spacinglab; print('concurrent.futures' in sys.modules); "
                "spacinglab.sample_spacings(spacinglab.GOE, 10, spacinglab.SamplerConfig(seed=1)); "
                "print('concurrent.futures' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True)
        assert out.stdout.split() == ["False", "False"]


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


FOLD_KINDS = [GOE, GUE, GSE, GPOE, GPUE] + [
    family(kappa) for family in (qh3, qh4) for kappa in (0.0, 0.25, 3.0, 100.0)
]


def sample_reference(kind, n, seed):
    """The sampler as a plain loop: scaled blocks, one array per batch, joined at the end."""
    p, pieces, raws = kind.acceptance, [], 0
    for i in range(-(-n // ensembles.BLOCK_QUOTA)):
        rng = ensembles._stream_rng(seed, i)
        need = min(ensembles.BLOCK_QUOTA, n - i * ensembles.BLOCK_QUOTA)
        while need > 0:
            batch = math.ceil((need + 4.0 * math.sqrt(need * (1.0 - p))) / p)
            disc = ensembles._discriminants(kind, draw_block(kind, rng, batch))
            ok = np.flatnonzero(disc >= 0.0)[:need]
            raws += int(ok[-1]) + 1 if ok.size == need else batch
            pieces.append(2.0 * np.sqrt(disc[ok]))
            need -= ok.size
    return np.concatenate(pieces), n / raws


def acceptance_reference(kind, n_raw, seed):
    """acceptance_rate as a plain loop: one scaled block per stream."""
    accepted = 0
    for i in range(-(-n_raw // ensembles.BLOCK_QUOTA)):
        quota = min(ensembles.BLOCK_QUOTA, n_raw - i * ensembles.BLOCK_QUOTA)
        block = draw_block(kind, ensembles._stream_rng(seed, i), quota)
        accepted += int(np.count_nonzero(ensembles._discriminants(kind, block) >= 0.0))
    return accepted / n_raw


def chunk_rows(kind):
    """Rows in one chunk of a long stream's draws."""
    return ensembles._CHUNK_VALUES // kind.n_params


class TestFoldedScaling:
    """The sampler scales each column inside D instead of scaling the block."""

    @pytest.mark.parametrize("kind", FOLD_KINDS, ids=str)
    def test_discriminant_bits(self, kind):
        rng_a, rng_b = ensembles._stream_rng(17, 3), ensembles._stream_rng(17, 3)
        draws = rng_a.standard_normal(size=(20_000, kind.n_params))
        before = draws.copy()
        stds = ensembles._param_stds(kind)
        folded = ensembles._discriminants(kind, draws, stds)
        scaled = ensembles._discriminants(kind, draw_block(kind, rng_b, 20_000))
        assert folded.tobytes() == scaled.tobytes()
        assert np.array_equal(draws, before)  # the draws, column a included, stay unscaled
        out = np.empty(20_000)
        assert ensembles._discriminants(kind, draws, stds, out=out) is out
        assert out.tobytes() == scaled.tobytes()

    # two full streams and a short one, and one stream around a chunk's length;
    # test_pinned_outputs pins the multi-batch seeds
    @pytest.mark.parametrize("kind", FOLD_KINDS, ids=str)
    def test_sampler_matches_reference_loop(self, kind):
        seed, rows, k = 5, chunk_rows(kind), None
        ns = [2 * ensembles.BLOCK_QUOTA + 7, rows - 1, rows, rows + 1]
        if kind.has_rejection:
            # at n = k the quota-th acceptance is the first chunk's last one; at k + 1, past it
            first = draw_block(kind, ensembles._stream_rng(seed, 0), rows)
            k = int(np.count_nonzero(ensembles._discriminants(kind, first) >= 0.0))
            ns += [k, k + 1]
        for n in ns:
            sample, rate = sample_spacings(kind, n, SamplerConfig(seed=seed, workers=2))
            raw, ref_rate = sample_reference(kind, n, seed)
            assert sample.raw.tobytes() == raw.tobytes() and rate == ref_rate, n
            if kind.has_rejection:  # the raw draws consumed, n / rate
                assert (round(n / rate) <= rows) == (n == k), n

    # seeds whose stream 0 falls short twice: its third chunk follows a short one
    @pytest.mark.parametrize("kind, n, seed", [
        (GPOE, 2, 180953), (GPOE, 3, 139613), (GPUE, 2, 8672), (GPUE, 3, 76580),
    ], ids=["GPOE-2", "GPOE-3", "GPUE-2", "GPUE-3"])
    def test_three_chunk_streams_match_reference_loop(self, kind, n, seed):
        sample, rate = sample_spacings(kind, n, SamplerConfig(seed=seed))
        raw, ref_rate = sample_reference(kind, n, seed)
        assert sample.raw.tobytes() == raw.tobytes() and rate == ref_rate

    @pytest.mark.parametrize("kind", FOLD_KINDS, ids=str)
    def test_acceptance_rate_matches_reference_loop(self, kind):
        rows = chunk_rows(kind)
        for n_raw in (1, rows - 1, rows, rows + 1, ensembles.BLOCK_QUOTA + rows):
            assert acceptance_rate(kind, n_raw, SamplerConfig(seed=6)) == \
                acceptance_reference(kind, n_raw, 6), n_raw


def traced_peak(fn):
    """Peak bytes traced while ``fn()`` runs, above those held before it; after one warm-up call."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()


class TestWorkingMemory:
    """Each stream reads its draws through fixed buffers; the output is not copied."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_sample_spacings_peak(self, kind, workers):
        n = 10**5  # the output and its normalization, plus at most 512 KiB of working memory
        peak = traced_peak(lambda: sample_spacings(kind, n, SamplerConfig(seed=1, workers=workers)))
        assert peak <= 16 * n + 512 * 1024

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_acceptance_rate_peak(self, kind):
        peak = traced_peak(lambda: acceptance_rate(kind, 10**5, SamplerConfig(seed=1)))
        assert peak <= 256 * 1024

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_small_n_allocates_little(self, kind, workers):
        cfg = SamplerConfig(seed=1, workers=workers)  # buffers never exceed the first batch
        assert traced_peak(lambda: sample_spacings(kind, 50, cfg)) < 32 * 1024
        assert traced_peak(lambda: acceptance_rate(kind, 50, cfg)) < 32 * 1024

    def test_output_goes_to_normalize_once_without_a_copy(self, monkeypatch):
        calls, normalize = [], stats.normalize

        def spy(raw):
            calls.append(raw)
            return normalize(raw)

        monkeypatch.setattr(stats, "normalize", spy)
        cfg = SamplerConfig(seed=1, workers=2)
        sample, _ = sample_spacings(GPUE, 3 * ensembles.BLOCK_QUOTA, cfg)
        assert len(calls) == 1 and sample.raw is calls[0] and not sample.raw.flags.writeable


class TestSpectralMap:
    def test_gpoe_identity_point(self):
        p = spectral_to_params(GPOE, SpectralParams(t=0.0, s=2.0, theta=0.0))
        assert np.allclose(p, [0.0, 1.0, 0.0], atol=0.0)
        assert eigenvalues(GPOE, p) == (1.0, -1.0)

    def test_gpue_identity_point(self):
        for phi in (0.0, 1.3, 5.0):
            p = spectral_to_params(GPUE, SpectralParams(t=0.0, s=2.0, theta=0.0, phi=phi))
            assert np.allclose(p, [0.0, 1.0, 0.0, 0.0], atol=1e-16)

    def test_gpoe_hyperbolic_point(self):
        p = spectral_to_params(GPOE, SpectralParams(t=2.0, s=2.0, theta=0.5))
        assert abs(p[1] - math.cosh(1.0)) < 1e-15
        assert abs(p[2] + math.sinh(1.0)) < 1e-15
        e1, e2 = eigenvalues(GPOE, p)
        assert abs(e1 - 2.0) < 1e-12 and abs(e2 - 0.0) < 1e-12

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
            e1, e2 = eigenvalues(kind, spectral_to_params(kind, sp))
            assert abs(e1 - (sp.t + sp.s) / 2.0) < 1e-12
            assert abs(e2 - (sp.t - sp.s) / 2.0) < 1e-12

    @pytest.mark.parametrize("kind,shape", [(GPOE, (3,)), (GPUE, (4,))], ids=["GPOE", "GPUE"])
    def test_returns_n_params_entries(self, kind, shape):
        p = spectral_to_params(kind, SpectralParams(t=0.5, s=1.5, theta=0.3, phi=1.0))
        assert p.shape == shape == (kind.n_params,)

    @pytest.mark.parametrize("field", ["t", "s", "theta", "phi"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_coordinates_refused(self, field, value):
        coords = {"t": 0.0, "s": 1.0, "theta": 0.0, "phi": 0.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            SpectralParams(**coords)

    @pytest.mark.parametrize("kind", [GPOE, GPUE], ids=str)
    @pytest.mark.parametrize("s,theta", [
        (1.0, 400.0), (1.0, -400.0), (0.0, 400.0),  # cosh/sinh(2 theta) overflow
        (1e308, 1.0),  # (s/2) cosh 2theta overflows
    ])
    def test_overflowing_parameters_refused(self, kind, s, theta):
        # one ValueError naming the kind, not OverflowError or an inf/NaN entry
        with pytest.raises(ValueError, match=f"{kind.tag} parameters overflow"):
            spectral_to_params(kind, SpectralParams(t=0.0, s=s, theta=theta, phi=0.7))

    def test_negative_s_refused(self):
        with pytest.raises(ValueError, match="^SpectralParams requires s >= 0$"):
            SpectralParams(0.0, -1.0, 0.0)

    def test_coordinates_are_stored_as_floats(self):
        # a 0-d array or an int passes the check; what is stored is the checked float
        sp = SpectralParams(np.array(0.5), 1, np.float32(0.0))
        assert sp == SpectralParams(0.5, 1.0, 0.0)
        assert hash(sp) == hash(SpectralParams(0.5, 1.0, 0.0))
        assert all(type(v) is float for v in (sp.t, sp.s, sp.theta, sp.phi))

    @pytest.mark.parametrize("make, value", [(SamplerConfig, 5), (ingest.LocalWindow, 5),
                                             (ingest.PolynomialStaircase, 3)],
                             ids=["SamplerConfig", "LocalWindow", "PolynomialStaircase"])
    @pytest.mark.parametrize("wrap", [np.int64, np.array], ids=["numpy-int", "0-d-array"])
    def test_config_objects_store_the_checked_int(self, make, value, wrap):
        # what count returns is stored, so the object equals, hashes and prints as its int twin
        obj, twin = make(wrap(value)), make(value)
        assert obj == twin and hash(obj) == hash(twin) and repr(obj) == repr(twin)

    def test_largest_theta_accepted(self):
        # cosh(710) is still finite
        p = spectral_to_params(GPOE, SpectralParams(t=0.0, s=1e-300, theta=355.0))
        assert np.all(np.isfinite(p))

    @pytest.mark.parametrize("kind", [GPOE, GPUE], ids=str)
    def test_batched_map_has_the_bits_of_the_scalar_formulas(self, kind):
        coords = np.random.default_rng(22).uniform(
            [-3.0, 0.0, -2.0, 0.0], [3.0, 3.0, 2.0, 2.0 * math.pi], size=(200, 4))
        coords[0, 2] = 400.0  # cosh and sinh overflow: inf entries, as spectral_to_params refuses
        want = []
        for t, s, theta, phi in coords.tolist():
            h, ch, sh = s / 2.0, math.inf, math.inf
            if abs(theta) < 355.0:
                ch, sh = math.cosh(2.0 * theta), math.sinh(2.0 * theta)
            row = [t / 2.0, h * ch, -h * sh]
            if kind.n_params == 4:
                row = [t / 2.0, h * ch, -h * sh * math.cos(phi), h * sh * math.sin(phi)]
            want.append(row)
        got = ensembles._spectral_params(kind.n_params, *coords.T)
        assert got.tobytes() == np.array(want).tobytes()
        for sp, row in zip(coords[1:].tolist(), got[1:]):
            assert spectral_to_params(kind, SpectralParams(*sp)).tobytes() == row.tobytes()

    def test_rejects_hermitian_kinds(self):
        with pytest.raises(ValueError):
            spectral_to_params(GOE, SpectralParams(t=0.0, s=1.0, theta=0.0))

    def test_jacobian_gpoe_proportional_to_s(self):
        ratios = verify.jacobian_ratios(GPOE)
        assert np.max(np.abs(ratios / 0.25 - 1.0)) <= 1e-6

    def test_jacobian_gpue_proportional_to_reference(self):
        ratios = verify.jacobian_ratios(GPUE)
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

    # one fixed vector, cut to each family's n_params; the expected entries are the
    # written-out per-family matrices, independent of the generator table
    P = [0.5, -1.25, 2.0, 0.75, -0.375, 1.5]

    def test_goe_entries(self):
        assert np.array_equal(realize_matrix(GOE, self.P[:3]), [[-0.75, 2.0], [2.0, 1.75]])

    def test_gse_entries(self):
        expected = [
            [-0.75, 0.0, 2 - 0.75j, 0.375 - 1.5j],
            [0.0, -0.75, -0.375 - 1.5j, 2 + 0.75j],
            [2 + 0.75j, -0.375 + 1.5j, 1.75, 0.0],
            [0.375 + 1.5j, 2 - 0.75j, 0.0, 1.75],
        ]
        assert np.array_equal(realize_matrix(GSE, self.P), expected)

    def test_gpue_entries(self):
        expected = [[-0.75, 0.75 + 2j], [-0.75 + 2j, 1.75]]
        assert np.array_equal(realize_matrix(GPUE, self.P[:4]), expected)

    def test_qh3_entries_at_kappa_half(self):
        expected = [
            [0.5, -2.0609015883751605 + 3.2974425414002564j],
            [-0.7581633246407917 - 1.2130613194252668j, 0.5],
        ]
        assert np.array_equal(realize_matrix(qh3(0.5), self.P[:3]), expected)

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
            e1, e2 = eigenvalues(qh3(k), p)
            assert np.max(np.abs(evs - [e2, e1])) < 1e-10


    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_stack_is_its_rows_and_the_generator_sum(self, kind):
        # a (4, 6) stack has the bits of its 24 one-vector calls, and each H the values of
        # the sum a 1 + b G_b + ... added one term at a time, then QH-dressed
        block = draw_block(kind, ensembles._stream_rng(17, 0), 24).reshape(4, 6, -1)
        H = realize_matrix(kind, block)
        res = pseudo_hermiticity_residual(kind, block)
        assert res.shape == (4, 6) and H.shape[:2] == (4, 6)
        gens = ensembles._FAMILIES[kind.tag].generators
        for idx in np.ndindex(4, 6):
            p = block[idx]
            assert realize_matrix(kind, p).tobytes() == H[idx].tobytes()
            assert pseudo_hermiticity_residual(kind, p) == res[idx]
            ref = p[0] * gens[0]
            for coeff, g in zip(p[1:], gens[1:]):
                ref = ref + coeff * g
            if kind.kappa is not None:
                ref[0, 1] /= math.exp(-kind.kappa)
                ref[1, 0] *= math.exp(-kind.kappa)
            assert np.array_equal(ref, H[idx])


@pytest.mark.parametrize("tag", ensembles.ENSEMBLE_ORDER)
@settings(max_examples=30, database=None)
@given(
    kappa=st.floats(0.0, 5.0),
    ints=st.lists(st.integers(-10**6, 10**6), min_size=6, max_size=6),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_square_of_traceless_part_is_discriminant(tag, kappa, ints, scale):
    # (H - a)^2 = D 1 for every family; away from the exceptional points D = 0
    # the closed-form eigenvalues agree with a numeric eigensolve
    kind = EnsembleKind(tag, kappa if tag in ("QH3", "QH4") else None)
    p = np.array(ints[: kind.n_params]) * (1e-6 * scale)
    H = realize_matrix(kind, p)
    one = np.eye(len(H))
    D = float(ensembles._discriminants(kind, p[None, :])[0])
    norm = float(np.sum(p * p))
    T = H - p[0] * one
    assert np.max(np.abs(T @ T - D * one)) <= 1e-12 * norm
    if abs(D) < 1e-3 * norm:
        return
    root = math.sqrt(abs(D))
    out = eigenvalues(kind, p)
    if D >= 0:
        assert out == (p[0] + root, p[0] - root)
        real, imag = [p[0] - root, p[0] + root], [0.0, 0.0]
    else:
        assert out is None
        real, imag = [p[0], p[0]], [-root, root]
    numeric = np.linalg.eigvals(H)
    for got, want in ((numeric.real, real), (numeric.imag, imag)):
        want = np.repeat(want, len(H) // 2)
        assert np.max(np.abs(np.sort(got) - want)) <= 1e-10 * math.sqrt(norm)


class TestResiduals:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_pseudo_residual_vanishes(self, kind):
        # GOE, GUE and GSE are the eta = 1 case: H = H^dagger exactly
        block = draw_block(kind, ensembles._stream_rng(17, 0), 20_000)
        res = pseudo_hermiticity_residual(kind, block)
        assert res.shape == (20_000,)
        if kind in (GOE, GUE, GSE):
            assert np.all(res == 0.0)
        else:
            assert res.max() <= 1e-12

    @pytest.mark.parametrize("kind", [*ALL_KINDS, qh3(0.0), qh3(100.0), qh4(100.0)], ids=str)
    def test_metric_is_an_invertible_diagonal(self, kind):
        # the residual reads only the diagonal of metric(kind) and divides by it:
        # every metric must be diagonal, invertible, with finite ratios eta_i / eta_j
        eta = ensembles.metric(kind)
        diag = np.diagonal(eta)
        assert eta.shape == ((4, 4) if kind == GSE else (2, 2))
        assert np.array_equal(eta, np.diag(diag)) and diag.all()
        assert np.isfinite(diag[:, None] / diag).all()

    def test_residual_beyond_the_float_range_is_inf(self, monkeypatch):
        # at kappa = 100 the ratio eta_1 / eta_0 is e^200: a finite 1e300 entry of a
        # matrix that is not pseudo-Hermitian gives inf, with no warning
        H = realize_matrix(qh3(100.0), [0.0, 5.0, 3.0])
        H[1, 0] = 1e300
        monkeypatch.setattr(ensembles, "realize_matrix", lambda kind, p: H)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pseudo_hermiticity_residual(qh3(100.0), [0.0, 5.0, 3.0]) == math.inf

    def test_perturbed_off_diagonal_residual(self, monkeypatch):
        # perturbing the upper off-diagonal c -> c + 0.1 leaves
        # eta H eta^-1 - H^dag = [[0, -0.1i], [0.1i, 0]]: max-entry norm 0.1
        H = realize_matrix(GPOE, [0.0, 5.0, 3.0])
        H[0, 1] = 1j * 3.1
        monkeypatch.setattr(ensembles, "realize_matrix", lambda kind, p: H)
        res = pseudo_hermiticity_residual(GPOE, [0.0, 5.0, 3.0])
        assert abs(res - 0.1) < 1e-14
