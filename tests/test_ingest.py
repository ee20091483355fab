"""Spectrum file parsing and unfolding."""

import numpy as np
import pytest

from spacinglab.ingest import (
    GlobalMean,
    LocalWindow,
    PolynomialStaircase,
    SpectrumParseError,
    parse_levels,
    parse_unfold_method,
    serialize_levels,
    unfold,
)

ZETA_HEAD = "14.13\n21.02\n30.42\n37.58\n"


class TestParse:
    def test_zeta_head(self):
        sp = parse_levels(ZETA_HEAD)
        assert np.array_equal(sp.levels, [14.13, 21.02, 30.42, 37.58])

    def test_comments_and_blanks(self):
        sp = parse_levels("# comment\n1\n\n2\n   \n3\n")
        assert np.array_equal(sp.levels, [1.0, 2.0, 3.0])

    def test_error_carries_line_number(self):
        with pytest.raises(SpectrumParseError, match="line 2"):
            parse_levels("1\nabc\n")

    def test_too_few_levels(self):
        with pytest.raises(SpectrumParseError):
            parse_levels("1\n2\n")
        with pytest.raises(SpectrumParseError):
            parse_levels("# nothing\n\n")

    def test_nonfinite_rejected(self):
        with pytest.raises(SpectrumParseError, match="line 3"):
            parse_levels("1\n2\ninf\n")

    def test_non_monotone_sorted_with_warning(self):
        with pytest.warns(UserWarning, match="sorting"):
            sp = parse_levels("3\n1\n2\n")
        assert np.array_equal(sp.levels, [1.0, 2.0, 3.0])

    def test_duplicates_removed_with_warning(self):
        with pytest.warns(UserWarning, match="duplicate"):
            sp = parse_levels("1\n2\n2\n3\n")
        assert np.array_equal(sp.levels, [1.0, 2.0, 3.0])

    def test_round_trip_exact(self):
        text = "1e-17\n0.1\n14.134725141734693\n12345.6789\n"
        sp = parse_levels(text)
        again = parse_levels(serialize_levels(sp))
        assert np.array_equal(sp.levels, again.levels)
        assert serialize_levels(sp) == serialize_levels(again)


class TestMethodParsing:
    def test_tokens(self):
        assert parse_unfold_method("global") == GlobalMean()
        assert parse_unfold_method("local:51") == LocalWindow(51)
        assert parse_unfold_method("poly:3") == PolynomialStaircase(3)

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_unfold_method("spline")
        with pytest.raises(ValueError):
            parse_unfold_method("local:4")  # even window
        with pytest.raises(ValueError):
            parse_unfold_method("poly:0")
        with pytest.raises(ValueError):
            parse_unfold_method("poly:10")

    @pytest.mark.parametrize("token", ["local:abc", "poly:x", "local:", "poly:1.5", "local"])
    def test_non_integer_size_gets_usage_message(self, token):
        with pytest.raises(ValueError, match="use global, local:w or poly:p"):
            parse_unfold_method(token)


class TestUnfold:
    def test_picket_fence_global(self):
        sp = parse_levels("\n".join(str(i) for i in range(1, 101)))
        out = unfold(sp, GlobalMean())
        assert np.allclose(out.normalized, 1.0, atol=1e-14)

    def test_minimum_size(self):
        sp = parse_levels("0\n1.5\n4\n")
        assert len(unfold(sp, GlobalMean())) == 2
        assert len(unfold(sp, LocalWindow(1))) == 2
        assert len(unfold(sp, PolynomialStaircase(1))) == 2

    def test_unit_mean_exact(self):
        rng = np.random.default_rng(4)
        levels = np.cumsum(rng.exponential(1.0, size=400))
        sp = parse_levels("\n".join(repr(float(v)) for v in levels))
        for method in (GlobalMean(), LocalWindow(11), PolynomialStaircase(5)):
            out = unfold(sp, method)
            assert abs(out.normalized.mean() - 1.0) < 1e-12

    def test_local_window_removes_trend(self):
        # quadratic trend E_i = i + 0.01 i^2: local unfolding should leave much
        # weaker lag-1 autocorrelation than global-mean unfolding
        i = np.arange(1, 201, dtype=float)
        sp = parse_levels("\n".join(repr(float(v)) for v in i + 0.01 * i * i))

        def lag1(x):
            x = x - x.mean()
            return float(np.dot(x[:-1], x[1:]) / np.dot(x, x))

        global_out = unfold(sp, GlobalMean()).normalized
        local_out = unfold(sp, LocalWindow(11)).normalized
        assert abs(lag1(local_out)) < abs(lag1(global_out))
        assert abs(local_out.mean() - 1.0) < 1e-12

    def test_global_affine_invariance_exact(self):
        rng = np.random.default_rng(5)
        levels = np.cumsum(rng.exponential(1.0, size=200))
        sp = parse_levels("\n".join(repr(float(v)) for v in levels))
        sp2 = parse_levels("\n".join(repr(float(3.25 * v + 11.0)) for v in levels))
        a = unfold(sp, GlobalMean()).normalized
        b = unfold(sp2, GlobalMean()).normalized
        # the method is exactly invariant; the residual is input rounding of
        # the affine map itself (diff(aE + b) != a diff(E) in floats)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_poly_affine_invariance(self):
        rng = np.random.default_rng(6)
        levels = np.sort(rng.uniform(0.0, 50.0, size=120))
        levels += np.arange(120) * 1e-6  # guard against duplicates
        sp = parse_levels("\n".join(repr(float(v)) for v in levels))
        sp2 = parse_levels("\n".join(repr(float(2.0 * v - 7.0)) for v in levels))
        a = unfold(sp, PolynomialStaircase(3)).normalized
        b = unfold(sp2, PolynomialStaircase(3)).normalized
        assert np.max(np.abs(a - b)) < 1e-8

    def test_poly_smooth_levels(self):
        i = np.arange(1, 101, dtype=float)
        sp = parse_levels("\n".join(repr(float(v)) for v in np.sqrt(i) * 10.0))
        out = unfold(sp, PolynomialStaircase(3))
        assert abs(out.normalized.mean() - 1.0) < 1e-12

    def test_window_validation(self):
        sp = parse_levels("1\n2\n3\n")
        with pytest.raises(ValueError):
            unfold(sp, LocalWindow(5))  # only 2 spacings
        # sizes follow the package's integer rule: refused at construction, not truncated
        with pytest.raises(ValueError, match="LocalWindow width must be an integer"):
            LocalWindow(21.7)
        for bad in (0, 4, -3):
            with pytest.raises(ValueError, match="positive odd integer"):
                LocalWindow(bad)
        assert len(unfold(sp, LocalWindow(np.int64(1)))) == 2

    def test_poly_degree_validation(self):
        sp = parse_levels("1\n2\n3\n")
        with pytest.raises(ValueError):
            unfold(sp, PolynomialStaircase(4))
        with pytest.raises(ValueError, match="PolynomialStaircase degree must be an integer"):
            PolynomialStaircase(3.5)
        for bad in (0, 10):
            with pytest.raises(ValueError, match=r"must be in \[1, 9\]"):
                PolynomialStaircase(bad)
        assert len(unfold(sp, PolynomialStaircase(np.int64(1)))) == 2
