"""Normalization, the KS test and classification."""

import contextlib
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import kolmogorov as scipy_kolmogorov

from spacinglab import curves, ensembles, stats
from spacinglab.stats import classify, ks_test, normalize


def goe_quantile(q):
    """Closed-form inverse of the linear-repulsion curve's CDF."""
    return np.sqrt(-4.0 * np.log1p(-np.asarray(q)) / math.pi)


def full_scan(sample, kind):
    """KS d over every sorted point, and the index where it is reached."""
    xs = np.sort(sample.normalized)
    n = xs.size
    F = curves.cdf(kind, xs)
    steps = np.arange(n + 1.0) / n
    gaps = np.maximum(steps[1:] - F, F - steps[:-1])
    return float(gaps.max()), int(gaps.argmax())


class OwnedSubclass(np.ndarray):
    """An ndarray subclass; its copies own their data."""


def read_only_column(base):
    """``base`` as the column view of a read-only one-column table that owns its data."""
    table = base[:, None].copy()
    table.flags.writeable = False
    return table[:, 0]


class TestNormalize:
    def test_constant_sample(self):
        s = normalize([2.0, 2.0, 2.0])
        assert s.mean == 2.0
        assert np.array_equal(s.normalized, [1.0, 1.0, 1.0])

    def test_order_preserved(self):
        s = normalize([1.0, 3.0])
        assert s.mean == 2.0
        assert np.array_equal(s.normalized, [0.5, 1.5])

    def test_scale_invariance(self):
        raw = np.array([0.2, 1.4, 3.3, 0.9])
        assert np.allclose(normalize(raw).normalized, normalize(7.0 * raw).normalized,
                           rtol=0, atol=1e-15)

    def test_unit_mean_invariant(self):
        rng = np.random.default_rng(0)
        s = normalize(rng.exponential(5.0, size=10_001))
        assert abs(s.normalized.mean() - 1.0) < 1e-12

    @pytest.mark.parametrize("raw", [[1e308, 1e308], [1e308, 0.0, 1e308], [2e307] * 10])
    def test_overflowing_sum_refused(self, raw):
        with pytest.raises(ValueError, match="sum of the spacings overflows a float; rescale"):
            normalize(raw)

    def test_largest_spacings_with_finite_sum_accepted(self):
        s = normalize([1e308, 0.0, 5e307])
        assert s.mean == 1.5e308 / 3
        assert np.array_equal(s.normalized, np.array([1e308, 0.0, 5e307]) / s.mean)

    def test_writable_array_is_copied(self):
        arr = np.array([1.0, 3.0])
        s = normalize(arr)
        arr[0] = 100.0
        assert s.raw.tolist() == [1.0, 3.0] and s.mean == 2.0
        assert s.normalized.tolist() == [0.5, 1.5]
        assert not s.raw.flags.writeable and arr.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda base: base.copy(),
        lambda base: base[:],  # a read-only view of a writable array
        read_only_column,
        lambda base: base.astype(np.float32),
        lambda base: base.astype(">f8"),
        lambda base: base.view(OwnedSubclass).copy(),
    ], ids=["owned", "view", "view-of-read-only-owner", "float32", "big-endian", "subclass"])
    def test_other_read_only_arrays_are_copied(self, make):
        base = np.array([1.0, 3.0, 2.0, 2.0])
        arr = make(base)
        arr.flags.writeable = False
        s = normalize(arr)
        assert not np.shares_memory(s.raw, arr) and type(s.raw) is np.ndarray
        owner = arr if arr.base is None else arr.base  # change the caller's data through its owner
        owner.flags.writeable = True
        owner.flat[0] = 100.0
        assert arr[0] == 100.0
        assert s.raw.tolist() == [1.0, 3.0, 2.0, 2.0] and s.mean == 2.0
        assert s.normalized.tolist() == [0.5, 1.5, 1.0, 1.0]

    def test_errors(self):
        # the negative value is reported before the sum that overflows
        for raw, message in [([], "^cannot normalize an empty spacing list$"),
                             ([0.0, 0.0], "^cannot normalize: mean spacing is zero$"),
                             ([1.0, -0.5], "^spacings must be nonnegative$"),
                             ([-1.0, 1e308, 1e308], "^spacings must be nonnegative$"),
                             ([math.nan, 1e308, 1e308], "^spacings must be finite$"),
                             ([-1.0, math.inf], "^spacings must be finite$"),
                             ([1.0, math.inf], "^spacings must be finite$")]:
            with pytest.raises(ValueError, match=message):
                normalize(raw)


class TestKsTest:
    def test_sample_from_own_curve(self):
        # inverse-CDF transform of 1e5 uniforms through the closed-form
        # linear-repulsion quantile function
        rng = np.random.default_rng(314)
        raw = goe_quantile(rng.uniform(size=100_000))
        res = ks_test(normalize(raw), "GOE")
        assert res.d < 0.006
        assert res.n == 100_000
        assert 0.0 <= res.p_value <= 1.0

    def test_p_value_is_asymptotic_kolmogorov(self):
        # a sample far enough from the curve that p is neither 0 nor 1
        raw = goe_quantile(np.random.default_rng(7).uniform(size=60)) ** 1.5
        res = ks_test(normalize(raw), "GOE")
        assert 1e-6 < res.p_value < 0.5
        assert res.p_value == scipy_kolmogorov(math.sqrt(res.n) * res.d)

    def test_exact_quantile_points(self):
        n = 1000
        raw = goe_quantile((np.arange(1, n + 1) - 0.5) / n)
        res = ks_test(normalize(raw), "GOE")
        assert res.d <= 0.5 / n + 1e-4

    def test_quantile_d_shrinks_with_n(self):
        ds = {}
        for n in (100, 10_000):
            raw = goe_quantile((np.arange(1, n + 1) - 0.5) / n)
            ds[n] = ks_test(normalize(raw), "GOE").d
        assert ds[100] / ds[10_000] >= 10.0

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(11)
        raw = rng.gamma(2.0, 1.0, size=2000)
        d1 = ks_test(normalize(raw), "GUE").d
        d2 = ks_test(normalize(437.5 * raw), "GUE").d
        assert d1 == d2

    @pytest.mark.parametrize("kind", curves.CURVE_ORDER)
    @settings(max_examples=40)
    @given(
        raw=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1, max_size=300),
        c=st.floats(1e-30, 1e30),
    )
    def test_rescaling_invariance_to_a_few_ulps(self, kind, raw, c):
        # c * raw and the mean round differently from raw, so d may move by ulps
        assume(any(raw))
        d1 = ks_test(normalize(raw), kind).d
        d2 = ks_test(normalize(c * np.asarray(raw)), kind).d
        assert abs(d2 - d1) <= 1e-14

    def test_detects_wrong_curve(self):
        sample, _ = ensembles.sample_spacings(ensembles.GSE, 20_000,
                                              ensembles.SamplerConfig(seed=5))
        assert ks_test(sample, "GSE").d < 0.02
        assert ks_test(sample, "GOE").d > 0.1

    @pytest.mark.parametrize("n", [50, 200])
    @pytest.mark.parametrize("kind", [ensembles.GOE, ensembles.GPUE], ids=str)
    def test_asymptotic_p_is_conservative_after_normalization(self, kind, n):
        # samples of the curve's own law, scaled to unit sample mean: a calibrated
        # p would fall below 0.05 in about 20 of 400 draws; this one almost never does
        rejected = sum(
            ks_test(ensembles.sample_spacings(kind, n, ensembles.SamplerConfig(seed=s))[0],
                    kind.reference_curve).p_value < 0.05
            for s in range(400)
        )
        assert rejected <= 4


class TestClassify:
    def test_all_tie_goes_to_the_first_curve_in_curve_order(self):
        # sorted normalized spacings [0, 0, 3]: every curve has F(0) = 0, so d = 2/3 for all
        sample = normalize([0.0, 0.0, 1.0])
        fit = classify(sample)
        assert {r.d for r in fit.ks.values()} == {2.0 / 3.0}
        assert fit.best_fit == "GOE"
        assert classify(sample, against=("GPUE", "GOE")).best_fit == "GOE"

    def test_canonical_names_each_tested_once_in_curve_order(self):
        fit = classify(normalize([0.5, 1.0, 2.0]), against=("gpue", "GOE", "goe"))
        assert list(fit.ks) == ["GOE", "GPUE"]

    def test_one_name_is_one_curve(self):
        sample = normalize([0.5, 1.0, 2.0])
        assert classify(sample, "goe") == classify(sample, ["GOE"])
        assert list(classify(sample, np.str_("GPUE")).ks) == ["GPUE"]
        assert list(classify(sample, np.array("GUE")).ks) == ["GUE"]  # a 0-d array is one name

    @pytest.mark.parametrize("name", [None, 5, b"GOE", np.array(5)], ids=repr)
    def test_one_bad_name_is_one_value_error(self, name):
        with pytest.raises(ValueError, match=re.escape(f"unknown curve kind {name!r}")):
            classify(normalize([0.5, 1.0, 2.0]), name)

    @pytest.mark.parametrize("make", [list, tuple, set, lambda names: (n for n in names), np.array],
                             ids=["list", "tuple", "set", "generator", "1-d array"])
    def test_collections_of_names(self, make):
        fit = classify(normalize([0.5, 1.0, 2.0]), make(["gpue", "GOE"]))
        assert list(fit.ks) == ["GOE", "GPUE"]

    def test_no_curve_is_an_error(self):
        with pytest.raises(ValueError, match="selected no curves"):
            classify(normalize([0.5, 1.0, 2.0]), against=())

    def test_zero_variance_warns(self):
        with pytest.warns(UserWarning, match="zero-variance"):
            classify(normalize([2.5, 2.5, 2.5, 2.5]))

    @pytest.mark.parametrize("n", [500, stats._KS_BOUND_MIN + 1])
    def test_results_are_those_of_ks_test(self, n):
        sample = _sample("GPUE", n)
        fit = classify(sample)
        assert list(fit.ks) == list(curves.CURVE_ORDER)
        for kind, result in fit.ks.items():
            assert result == ks_test(sample, kind)
        assert fit.best_fit == min(fit.ks, key=lambda k: fit.ks[k].d)


def _sample(tag, n, seed=3):
    kind = ensembles.EnsembleKind(tag, 0.5) if tag in ("QH3", "QH4") else ensembles.EnsembleKind(tag)
    return ensembles.sample_spacings(kind, n, ensembles.SamplerConfig(seed=seed))[0]


def _edge_case_sample(n, case):
    """A fresh n-point GSE sample, as sampled or with spacings moved to the bracket's edge cases."""
    raw = np.array(_sample("GSE", n, seed=n).raw)
    if case == "zeros":  # cell 0, where every curve's grid starts at F(0) = 0
        raw[: (n + 1) // 3] = 0.0
        raw[-1] += 1.0
    x = np.array(normalize(raw).normalized)
    if case == "at least 8":  # the last cell, x >= 8, in a third of the sample; x = 8 exactly too
        x[: (n + 2) // 3] += 8.0
        x[-1] = 8.0
    elif case == "grid points":  # every spacing on a cell boundary k/512
        x = np.floor(x * 512.0) / 512.0
    return stats.SpacingSample(raw=raw, mean=1.0, normalized=x)


class TestKsBoundedSearch:
    """Below stats._KS_BOUND_MIN points ks_results evaluates each curve only where
    a bracket from its cached grid cannot rule out the maximum; from there on only
    at block knots and in the blocks that may hold it.  d must keep every bit of
    the full scan's."""

    CUT = stats._KS_BOUND_MIN
    BLOCK = stats._KS_BLOCK

    def test_sorted_once_and_read_only(self):
        s = _sample("GOE", 300)
        xs = s.sorted_normalized
        assert xs is s.sorted_normalized
        assert np.array_equal(xs, np.sort(s.normalized))
        assert not xs.flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 50, 300, CUT - 1, CUT, CUT + 1, CUT + 2 * BLOCK + 7,
                                   3 * CUT + 5])
    @pytest.mark.parametrize("kind", curves.CURVE_ORDER)
    def test_equals_full_scan_at_the_cutoff(self, n, kind):
        sample = _sample("GPUE", n)
        assert ks_test(sample, kind).d == full_scan(sample, kind)[0]

    @pytest.mark.parametrize("tag", ensembles.ENSEMBLE_ORDER)
    def test_equals_full_scan_every_ensemble_and_curve(self, tag):
        sample = _sample(tag, 5000, seed=11)
        for kind in curves.CURVE_ORDER:
            res = ks_test(sample, kind)
            assert res.d == full_scan(sample, kind)[0]
            assert res.p_value == scipy_kolmogorov(math.sqrt(res.n) * res.d)

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 700, CUT - 1])
    @pytest.mark.parametrize("case", ["zeros", "at least 8", "grid points"])
    def test_equals_full_scan_below_the_cutoff(self, n, case):
        sample = _edge_case_sample(n, case)
        for kind in curves.CURVE_ORDER:
            assert ks_test(sample, kind).d == full_scan(sample, kind)[0]

    @pytest.mark.parametrize("first", curves.CURVE_ORDER)
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 700, CUT - 1, CUT, CUT + 1, 8000, 20_000])
    @pytest.mark.parametrize("case", ["as sampled", "zeros", "at least 8", "grid points"])
    def test_first_curve_asked_changes_no_bit(self, n, case, first):
        # the first ks_test on a sample computes every curve's result, by the
        # bracket or the block search; whichever curve comes first, each must
        # be the full scan's
        sample = _edge_case_sample(n, case)
        got = {kind: ks_test(sample, kind) for kind in (first, *curves.CURVE_ORDER)}
        goe_first = _edge_case_sample(n, case)
        for kind in curves.CURVE_ORDER:
            d = full_scan(sample, kind)[0]
            assert got[kind].d == d and got[kind].p_value == scipy_kolmogorov(math.sqrt(n) * d)
            assert ks_test(goe_first, kind) == got[kind]
        with pytest.warns(UserWarning, match="zero-variance") if n == 1 else contextlib.nullcontext():
            assert classify(_edge_case_sample(n, case), first).ks == {first: got[first]}

    @pytest.mark.parametrize("kind", curves.CURVE_ORDER)
    def test_equals_full_scan_on_a_sample_ending_in_inf(self, kind):
        normalized = np.array([0.0, 5e-324, 1.0 / 512.0, 0.5, 1.0, 1.0, 8.0, 9.0, 1e300, math.inf])
        sample = stats.SpacingSample(raw=np.ones(10), mean=1.0, normalized=normalized)
        assert ks_test(sample, kind).d == full_scan(sample, kind)[0]

    @pytest.mark.parametrize("decimals", [0, 1, 2])
    def test_equals_full_scan_with_ties(self, decimals):
        sample = normalize(np.round(_sample("GOE", 9000).raw, decimals))
        assert np.unique(sample.normalized).size < 1000
        for kind in curves.CURVE_ORDER:
            assert ks_test(sample, kind).d == full_scan(sample, kind)[0]

    @pytest.mark.parametrize("n", [CUT, CUT + 1, 10_000])
    def test_constant_sample_takes_d_from_the_end_knots(self, n):
        sample = normalize(np.full(n, 2.0))
        for kind in curves.CURVE_ORDER:
            d, at = full_scan(sample, kind)
            assert at in (0, n - 1)
            assert ks_test(sample, kind).d == d

    def test_maximum_strictly_inside_a_block(self):
        # GOE quantile points with a run of ties inside block 100: the ECDF
        # jumps there and d is reached at the run's last point, not at a knot
        n = 8192
        q = (np.arange(n) + 0.5) / n
        first = 100 * self.BLOCK + 5
        q[first : first + 20] = q[first]
        sample = normalize(goe_quantile(q))
        d, at = full_scan(sample, "GOE")
        assert at == first + 19 and at % self.BLOCK
        assert d > 19.0 / n
        assert ks_test(sample, "GOE").d == d

    def test_evaluates_few_points(self, monkeypatch):
        stats._cdf_grid()  # the cached grid is built once per process, not per sample
        seen = []
        kernel = curves._cdf

        def counting_cdf(x, edges):
            assert edges[-1] == np.size(x)
            seen.append(edges)
            return kernel(x, edges)

        monkeypatch.setattr(curves, "_cdf", counting_cdf)
        n = 100_000
        sample = _sample("GOE", n)
        got = [ks_test(sample, kind) for kind in curves.CURVE_ORDER]
        classify(sample)
        # ks_results is built once and ks_test returns its objects; two calls serve
        # every test of the sample: the knots of all five curves, then the blocks
        # that may hold each curve's d
        assert all(a is b for a, b in zip(got, sample.ks_results, strict=True))
        assert len(seen) == 2
        parts = np.diff(seen[0]) + np.diff(seen[1])
        assert parts.shape == (5,) and np.all(parts < n // 10)
        seen.clear()
        n = self.CUT - 1
        sample = _sample("GOE", n)
        for kind in curves.CURVE_ORDER:
            ks_test(sample, kind)
        classify(sample)
        assert len(seen) == 1  # one call, on the knots of all five curves, serves every test of the sample
        assert seen[0][-1] < 5 * n // 10

    @pytest.mark.parametrize("n", [3, CUT + 1])
    @pytest.mark.parametrize("bad", [-0.5, math.nan])
    @pytest.mark.parametrize("kind", curves.CURVE_ORDER)
    def test_refuses_a_negative_or_nan_spacing(self, n, bad, kind):
        # normalize() refuses such input, so the sample is built by hand; the
        # end checks on the sorted spacings must still find the bad value
        normalized = np.linspace(0.5, 1.5, n)
        normalized[n // 2] = bad
        sample = stats.SpacingSample(raw=np.ones(n), mean=1.0, normalized=normalized)
        with pytest.raises(ValueError, match="^spacing argument must be nonnegative, not NaN$"):
            ks_test(sample, kind)

    def test_refuses_an_empty_sample(self):
        # normalize() refuses no spacings, so the sample is built by hand
        empty = stats.SpacingSample(raw=np.empty(0), mean=1.0, normalized=np.empty(0))
        with pytest.raises(ValueError, match="^ks_test requires a nonempty sample$"):
            ks_test(empty, "GOE")

    @pytest.mark.parametrize("kind", curves.CURVE_ORDER)
    def test_grid_brackets_the_cdf_in_every_cell(self, kind):
        grids, rises = stats._cdf_grid()
        cells = stats._KS_CELLS
        assert grids.shape == (5, 2 * cells) and rises.shape == (5,)
        assert not grids.flags.writeable and not rises.flags.writeable
        grid, rise = grids[curves.CURVE_ORDER.index(kind)], rises[curves.CURVE_ORDER.index(kind)]
        T = np.append(grid[cells:], -grid[cells - 1])  # T_0 .. T_4097
        assert np.array_equal(-grid[:cells], T[1:])
        assert T[0] == 0.0 and T[-1] == 1.0 and rise == np.diff(T).max()
        # 64 points in every cell, its left end k/512 first, then the edge cases
        inside = (np.arange(cells - 1)[:, None] + np.arange(64) / 64.0).ravel() / 512.0
        x = np.concatenate((inside, [5e-324, 1e-310, np.finfo(float).tiny, 8.0, np.nextafter(8.0, 0.0),
                                     np.nextafter(8.0, 9.0), 9.0, 50.0, 1e5, 1e300, math.inf]))
        k = np.floor(512.0 * np.minimum(x, 8.0)).astype(int)
        assert np.array_equal(stats._cells(x), k)
        F = curves.cdf(kind, x)
        slack = stats._KS_SLACK
        assert np.all(T[k] - slack <= F) and np.all(F <= T[k + 1] + slack)
        assert np.all(F[: inside.size : 64] == T[:-2])  # at exact grid points the grid is F itself

    def test_bracket_cells_are_exact_and_cached(self, monkeypatch):
        normalized = np.array([0.0, 5e-324, np.nextafter(1.0 / 512.0, 0.0), 1.0 / 512.0, 7.999, 8.0, 1e300,
                               math.inf])
        assert stats._cells(normalized).tolist() == [0, 0, 0, 1, 4095, 4096, 4096, 4096]
        sample = stats.SpacingSample(raw=np.ones(8), mean=1.0, normalized=normalized)
        scans = [full_scan(sample, kind)[0] for kind in curves.CURVE_ORDER]
        stats._cdf_grid()
        calls = []
        kernel = curves._cdf

        def counting_cdf(x, edges):
            calls.append(edges)
            return kernel(x, edges)

        monkeypatch.setattr(curves, "_cdf", counting_cdf)
        results = sample.ks_results
        assert sample.ks_results is results and len(calls) == 1
        assert isinstance(results, tuple) and len(results) == len(curves.CURVE_ORDER)
        for kind, result, d in zip(curves.CURVE_ORDER, results, scans):
            assert ks_test(sample, kind) is result
            assert result.n == 8 and result.d == d
        assert len(calls) == 1

    # The kernel's slices: 0, subnormals and the smallest normal; GUE's and GSE's
    # gammainc slice (beta x^2 < 0.25, x < 0.44 and x < 0.33); GPUE's series
    # slice (gamma x < 0.5, x < 0.49); the bulk; the cap x >= 50 and inf.
    KERNEL_POINTS = [0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e-300, 1e-8, 0.01, 0.2, 0.3, 0.33, 0.4, 0.44,
                     0.48, 0.49, 0.5, 1.0, 2.5, 8.0, 49.9, 50.0, 51.0, 1e300, math.inf]

    @settings(max_examples=300, deadline=None)
    @given(x=st.lists(st.one_of(st.sampled_from(KERNEL_POINTS), st.floats(0.0, 10.0)), max_size=40),
           cuts=st.lists(st.integers(0, 40), min_size=4, max_size=4))
    def test_kernel_parts_keep_the_bits_of_one_curve(self, x, cuts):
        # ks_results evaluates all five curves in one kernel call; each part,
        # empty ones too, must get the bits curves.cdf gives it alone
        x = np.array(x, dtype=float)
        edges = [0, *sorted(min(c, x.size) for c in cuts), x.size]
        F = curves._cdf(x, edges)
        assert F.shape == x.shape
        for kind, a, b in zip(curves.CURVE_ORDER, edges, edges[1:]):
            assert F[a:b].tobytes() == curves.cdf(kind, x[a:b]).tobytes()

    @pytest.mark.parametrize("kind", curves.CURVE_ORDER)
    def test_cdf_drop_between_close_floats_within_half_the_slack(self, kind):
        # a skipped block is safe only if F, evaluated on nearby floats, never
        # falls by more than the slack; runs of 600 consecutive floats (as
        # np.nextafter steps them) around log-spaced centres in [1e-6, 8]
        centres = np.geomspace(1e-6, 8.0, 202)
        xs = (centres.view(np.int64)[:, None] + np.arange(600)).view(np.float64)
        F = curves.cdf(kind, xs.ravel()).reshape(xs.shape)
        assert np.array_equal(xs[:, 1], np.nextafter(xs[:, 0], math.inf))
        assert float(np.max(F[:, :-1] - F[:, 1:])) < stats._KS_SLACK / 2

