"""Command-line interface: flags, CSV/JSON formats, exit codes, determinism."""

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacinglab import cli, curves, ingest


def run(argv):
    return cli.main(argv)


def write_rows_reference(path, header, *columns):
    """The per-row CSV loop that ``cli._write_csv`` replaced."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(cli._fmt(v) for v in row) + "\n")


def read_spacings_reference(path):
    """The per-line loop the spacing-CSV reader used before loadtxt.

    Returns the values, or None where the loop raised.
    """
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    col = start = 0
    head = [tok.strip().lower() for tok in lines[0].split(",")]
    try:
        float(head[0])
    except ValueError:
        start = 1
        if "raw_spacing" in head:
            col = head.index("raw_spacing")
    values = []
    for line in lines[start:]:
        try:
            values.append(float(line.split(",", col + 1)[col]))
        except (ValueError, IndexError):
            return None
    return np.asarray(values)


class TestSample:
    def test_writes_rows_and_rate(self, tmp_path, capsys):
        out = tmp_path / "gpoe.csv"
        rc = run(["sample", "--ensemble", "gpoe", "--n", "1000", "--seed", "7",
                  "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "raw_spacing,normalized_spacing"
        assert len(lines) == 1001
        rate_line = capsys.readouterr().out.strip()
        assert rate_line.startswith("acceptance-rate ")
        assert abs(float(rate_line.split()[1]) - 0.5) < 0.05

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sample", "--ensemble", "gpoe", "--n", "1000", "--seed", "7"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_workers_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sample", "--ensemble", "gpue", "--n", "20000", "--seed", "3"]
        assert run(base + ["--workers", "1", "--out", str(a)]) == 0
        assert run(base + ["--workers", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gue_rate_exactly_one(self, tmp_path, capsys):
        rc = run(["sample", "--ensemble", "gue", "--n", "10", "--seed", "1",
                  "--out", str(tmp_path / "g.csv")])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "acceptance-rate 1"

    def test_qh4_defaults_kappa_with_notice(self, tmp_path, capsys):
        rc = run(["sample", "--ensemble", "qh4", "--n", "10", "--seed", "1",
                  "--out", str(tmp_path / "q.csv")])
        assert rc == 0
        assert "defaulting to kappa=0" in capsys.readouterr().err

    def test_kappa_with_wrong_ensemble_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["sample", "--ensemble", "goe", "--kappa", "0.5", "--n", "10",
                 "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["sample", "--wat", "1"])
        assert exc.value.code == 2

    def test_nonpositive_n_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["sample", "--ensemble", "goe", "--n", "0", "--seed", "1",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("kappa", ["100.5", "355", "400", "1e308", "inf", "nan"])
    def test_overflowing_kappa_is_usage_error(self, tmp_path, capsys, kappa):
        with pytest.raises(SystemExit) as exc:
            run(["sample", "--ensemble", "qh4", "--kappa", kappa, "--n", "10",
                 "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --kappa: ") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("sigma", ["inf", "nan", "1e300", "1e-300"])
    def test_sigma_out_of_range_is_usage_error(self, tmp_path, capsys, sigma):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SystemExit) as exc:
                run(["sample", "--ensemble", "goe", "--sigma", sigma, "--n", "100",
                     "--seed", "1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --sigma: ") and "RuntimeWarning" not in err
        assert caught == []
        assert not out.exists()

    def test_largest_finite_shrink_kappa_samples(self, tmp_path):
        columns = {}
        for kappa in ("100", "0"):
            out = tmp_path / f"q{kappa}.csv"
            assert run(["sample", "--ensemble", "qh3", "--kappa", kappa, "--sigma", "1e-100",
                        "--n", "100", "--seed", "1", "--out", str(out)]) == 0
            columns[kappa] = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        np.testing.assert_allclose(columns["100"], columns["0"], rtol=1e-12)

    def test_headerless_scientific_notation_column(self, tmp_path, capsys):
        # a bare column in scientific notation must not be mistaken for a header
        path = tmp_path / "sci.csv"
        path.write_text("1e-1\n2e-1\n3e-1\n4e-1\n")
        assert run(["compare", "--spacings", str(path), "--against", "goe",
                    "--report", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 4


class TestCurve:
    def test_grid_and_endpoints(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["curve", "--curve", "gpoe", "--xmax", "4", "--points", "5",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,pdf,cdf"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        last = lines[-1].split(",")
        assert float(last[0]) == 4.0

    def test_gpue_row_matches_pdf(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["curve", "--curve", "gpue", "--xmax", "2", "--points", "3",
                    "--out", str(out)]) == 0
        row = out.read_text().splitlines()[2].split(",")
        assert float(row[0]) == 1.0
        c = curves.constants("GPUE")
        expected = c.alpha * math.exp(c.beta) * math.erfc(c.gamma)
        assert abs(float(row[1]) - expected) < 1e-11
        assert abs(float(row[1]) - curves.pdf("GPUE", 1.0)) < 1e-12

    def test_cdf_saturates_by_eight(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["curve", "--curve", "gse", "--xmax", "8", "--points", "9",
                    "--out", str(out)]) == 0
        last = out.read_text().splitlines()[-1].split(",")
        assert float(last[2]) >= 0.9999999

    @pytest.mark.parametrize("xmax", ["0", "-1", "inf", "nan"])
    def test_bad_xmax_is_usage_error(self, tmp_path, xmax):
        with pytest.raises(SystemExit) as exc:
            run(["curve", "--curve", "goe", "--xmax", xmax, "--points", "5",
                 "--out", str(tmp_path / "c.csv")])
        assert exc.value.code == 2


class TestCompare:
    @pytest.fixture()
    def goe_csv(self, tmp_path):
        path = tmp_path / "goe.csv"
        assert run(["sample", "--ensemble", "goe", "--n", "20000", "--seed", "42",
                    "--out", str(path)]) == 0
        return path

    def test_report_schema_and_best_fit(self, goe_csv, capsys):
        assert run(["compare", "--spacings", str(goe_csv), "--against", "all",
                    "--report", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["ensemble-or-source", "n", "seed", "ks-results",
                                "best-fit", "timestamp"]
        assert report["n"] == 20000
        assert report["seed"] is None
        assert list(report["ks-results"]) == list(curves.CURVE_ORDER)
        assert set(report["ks-results"]["GOE"]) == {"d", "p"}
        assert report["best-fit"] == "GOE"

    def test_against_subset(self, goe_csv, capsys):
        assert run(["compare", "--spacings", str(goe_csv),
                    "--against", "gpoe,gpue", "--report", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["ks-results"]) == ["GPOE", "GPUE"]

    def test_rescaled_column_same_best_fit(self, goe_csv, tmp_path, capsys):
        raw = [float(ln.split(",")[0]) for ln in goe_csv.read_text().splitlines()[1:]]
        other = tmp_path / "scaled.csv"
        other.write_text("\n".join(repr(v * 123.5) for v in raw) + "\n")
        assert run(["compare", "--spacings", str(other), "--report", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best-fit"] == "GOE"

    def test_degenerate_equal_values_warns(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("2.5\n2.5\n2.5\n2.5\n")
        with pytest.warns(UserWarning, match="zero-variance"):
            rc = run(["compare", "--spacings", str(path), "--against", "goe",
                      "--report", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        d = report["ks-results"]["GOE"]["d"]
        expected = max(curves.cdf("GOE", 1.0), 1.0 - curves.cdf("GOE", 1.0))
        assert abs(d - expected) < 1e-9

    def test_missing_file_is_runtime_error(self, capsys):
        assert run(["compare", "--spacings", "/nonexistent.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_parse_error_names_physical_line(self, tmp_path, capsys, newline):
        path = tmp_path / "gaps.csv"
        path.write_bytes(newline.join(["raw_spacing", "1.0", "", "  ", "2.0", "abc", ""]).encode())
        assert run(["compare", "--spacings", str(path)]) == 1
        assert "line 6: cannot read a spacing" in capsys.readouterr().err

    def test_blank_lines_and_crlf_read(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"\r\nraw_spacing,normalized_spacing\r\n1.5,1\r\n\r\n 2.5 ,2\r\n")
        assert ingest.load_spacings(path).tolist() == [1.5, 2.5]

    def test_header_only_file_has_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("raw_spacing,normalized_spacing\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no spacing rows"):
                ingest.load_spacings(path)

    def test_underscore_tokens_read_as_float_does(self, tmp_path):
        path = tmp_path / "under.csv"
        path.write_text("1_0\n2.5\n")
        assert ingest.load_spacings(path).tolist() == [10.0, 2.5]

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "notes.csv"
        path.write_text("# drawn by hand\nraw_spacing\n  # indented\n1.5\n2.5 # trailing\n")
        assert ingest.load_spacings(path).tolist() == [1.5, 2.5]

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e999"])
    def test_nonfinite_row_names_file_and_line(self, tmp_path, capsys, token):
        path = tmp_path / "wild.csv"
        path.write_text(f"raw_spacing,normalized_spacing\n1.0,1\n{token},2\n3.0,3\n")
        assert run(["compare", "--spacings", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {path}: line 3: cannot read a spacing")


_WRITER_SPECIALS = [0.0, -0.0, 5e-324, 1e-5, 9.99999999999e-5, 1e16, 123456789012.5]


class TestCsvWriter:
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
    @pytest.mark.parametrize("n_columns", [2, 3])
    def test_bytes_match_per_row_loop(self, tmp_path, n, n_columns):
        rng = np.random.default_rng(n * 10 + n_columns)
        columns = []
        for j in range(n_columns):
            col = rng.standard_normal(n) * 10.0 ** rng.uniform(-320, 300, n)
            k = min(n, len(_WRITER_SPECIALS))
            col[:k] = np.roll(_WRITER_SPECIALS, j)[:k]
            columns.append(col)
        header = ",".join(f"c{j}" for j in range(n_columns))
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        cli._write_csv(fast, header, *columns)
        write_rows_reference(slow, header, *columns)
        assert fast.read_bytes() == slow.read_bytes()
        assert len(fast.read_text().splitlines()) == n + 1

    def test_special_values_text(self, tmp_path):
        path = tmp_path / "s.csv"
        values = np.array(_WRITER_SPECIALS)
        cli._write_csv(path, "a,b", values, -values)
        assert path.read_text().splitlines()[1:] == [
            "0,-0", "-0,0", "4.94065645841e-324,-4.94065645841e-324", "1e-05,-1e-05",
            "9.99999999999e-05,-9.99999999999e-05", "1e+16,-1e+16",
            "123456789012,-123456789012",
        ]


# SHA-256 of `sample --n 40000 --seed 42` (three streams), taken with the
# per-row writer; qh3/qh4 at kappa 0.25.  Any --workers gives these bytes.
GOLDEN_SAMPLE_SHA256 = {
    "goe": "b1f5f67470b211548df6845670d2ee132cc37d736a31993278513db992945044",
    "gue": "ff97741fd1b3090336b093ec9ec5d38ba9f6bb955af0a674f9e89100abeb0260",
    "gse": "c1ce85c32fe766d9316824373b9218a192fbaf939f5189f6d00390d252c5ecb9",
    "gpoe": "6bead1aa6e2b2ca57e0a78814866dd270aeba8baf7cbf13655cf1bad75d403bf",
    "gpue": "5c59fb04eacb1572f6d793fe5d3de205f674d79fbcebe9655e8e28e29b494cfa",
    "qh3": "50a3c02e354149ed0c2a03229091843f0828064e91dd4b4828efc8af52cb6b20",
    "qh4": "7047e7694d7914baf62bec7ca5f4c67b6c2229b5dec12f5e7d886efa257b8b8c",
}


@pytest.mark.parametrize("workers", ["1", "3"])
@pytest.mark.parametrize("ensemble", sorted(GOLDEN_SAMPLE_SHA256))
def test_sample_csv_golden_hash(tmp_path, ensemble, workers):
    out = tmp_path / "s.csv"
    kappa = ["--kappa", "0.25"] if ensemble.startswith("qh") else []
    assert run(["sample", "--ensemble", ensemble, *kappa, "--n", "40000", "--seed", "42",
                "--workers", workers, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SAMPLE_SHA256[ensemble]


_FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)
_TOKENS = st.one_of(
    _FLOATS.map(repr),
    _FLOATS.map(cli._fmt),
    st.integers(0, 10**6).map(lambda i: "_".join(str(i))),  # 1_0 style
    st.tuples(st.sampled_from(["", " ", "\t"]), _FLOATS.map(repr),
              st.sampled_from(["", " ", "\t"])).map("".join),
)
_HEADERS = st.sampled_from([None, "raw_spacing,normalized_spacing",
                            "normalized_spacing,raw_spacing", "x,y"])


@st.composite
def _spacing_files(draw):
    header = draw(_HEADERS)
    col = 1 if header and header.startswith("normalized") else 0
    rows = draw(st.lists(st.tuples(_TOKENS, _TOKENS), min_size=1, max_size=30))
    lines = [header] if header else []
    for row in rows:
        lines.append(",".join(row))
        lines.extend(draw(st.lists(st.sampled_from([" ", "\t", " \t "]), max_size=2)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return header, col, lines, newline


class TestCsvReaderProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(_spacing_files())
    def test_matches_per_line_loop(self, tmp_path_factory, spec):
        _, _, lines, newline = spec
        path = tmp_path_factory.mktemp("prop") / "s.csv"
        path.write_bytes((newline.join(lines) + newline).encode())
        expected = read_spacings_reference(path)
        assert expected is not None
        got = ingest.load_spacings(path)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None, database=None)
    @given(_spacing_files(), st.data())
    def test_junk_token_names_physical_line(self, tmp_path_factory, spec, data):
        header, col, lines, newline = spec
        first = 1 if header else 0
        data_rows = [i for i in range(first, len(lines)) if lines[i].strip()]
        bad = data.draw(st.sampled_from(data_rows))
        fields = lines[bad].split(",")
        fields[col] = data.draw(st.sampled_from(["abc", "1.0.0", "", "--1", "0x1p3"]))
        lines[bad] = ",".join(fields)
        if bad == 0:
            lines.insert(0, "raw_spacing,normalized_spacing")
            bad += 1
        path = tmp_path_factory.mktemp("prop") / "bad.csv"
        path.write_bytes((newline.join(lines) + newline).encode())
        with pytest.raises(ValueError, match=rf": line {bad + 1}: cannot read a spacing"):
            ingest.load_spacings(path)


class TestAnalyze:
    def test_picket_fence(self, tmp_path, capsys):
        spec = tmp_path / "fence.txt"
        spec.write_text("\n".join(str(i) for i in range(1, 200)) + "\n")
        with pytest.warns(UserWarning, match="zero-variance"):
            rc = run(["analyze", "--spectrum", str(spec), "--unfold", "global",
                      "--report", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        # every unfolded spacing is exactly 1: d = max(F(1), 1 - F(1)) per curve
        for kind in curves.CURVE_ORDER:
            expected = max(curves.cdf(kind, 1.0), 1.0 - curves.cdf(kind, 1.0))
            assert abs(report["ks-results"][kind]["d"] - expected) < 1e-9

    def test_poly_unfold_runs(self, tmp_path, capsys):
        i = np.arange(1, 101, dtype=float)
        spec = tmp_path / "smooth.txt"
        spec.write_text("\n".join(repr(float(v)) for v in np.sqrt(i) * 10.0) + "\n")
        assert run(["analyze", "--spectrum", str(spec), "--unfold", "poly:3",
                    "--report", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 99
        assert "poly:3" in report["ensemble-or-source"]

    def test_gue_matrix_spectrum_classified(self, tmp_path, capsys):
        # bulk eigenvalues of a dense Hermitian Gaussian matrix display
        # quadratic repulsion; the classifier should pick GUE
        rng = np.random.default_rng(1)
        n = 900
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        H = (A + A.conj().T) / 2.0
        evals = np.linalg.eigvalsh(H)
        bulk = evals[150:-150]
        spec = tmp_path / "gue_matrix.txt"
        spec.write_text("\n".join(repr(float(v)) for v in bulk) + "\n")
        assert run(["analyze", "--spectrum", str(spec), "--unfold", "local:51",
                    "--report", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best-fit"] == "GUE"

    def test_parse_error_surfaces_line(self, tmp_path, capsys):
        spec = tmp_path / "bad.txt"
        spec.write_text("1\nnope\n3\n")
        assert run(["analyze", "--spectrum", str(spec)]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["1\n2\n14,134725\n", "1\n2\ninf\n"])
    def test_parse_error_names_file(self, tmp_path, capsys, body):
        spec = tmp_path / "zeros.txt"
        spec.write_text(body)
        assert run(["analyze", "--spectrum", str(spec)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: zeros.txt: line 3: cannot read a level")


# A repeated flag overrides the earlier value, so each case appends the bad
# value to a valid command line.  OUT and SPECTRUM stand for files in tmp_path.
_SAMPLE = ("sample", "--ensemble", "goe", "--n", "10", "--seed", "1", "--out", "OUT")
_CURVE = ("curve", "--curve", "goe", "--xmax", "4", "--points", "5", "--out", "OUT")
_USAGE_ERRORS = {
    "n-zero": (*_SAMPLE, "--n", "0"),
    "n-not-int": (*_SAMPLE, "--n", "abc"),
    "missing-out": _SAMPLE[:-2],
    "unknown-flag": (*_SAMPLE, "--wat", "1"),
    "seed-negative": (*_SAMPLE, "--seed", "-1"),
    "seed-2**64": (*_SAMPLE, "--seed", str(2**64)),
    "workers-zero": (*_SAMPLE, "--workers", "0"),
    "sigma-nan": (*_SAMPLE, "--sigma", "nan"),
    "kappa-with-goe": (*_SAMPLE, "--kappa", "0.5"),
    "kappa-negative": (*_SAMPLE, "--ensemble", "qh3", "--kappa", "-1"),
    "points-one": (*_CURVE, "--points", "1"),
    "xmax-inf": (*_CURVE, "--xmax", "inf"),
    "unfold-even-window": ("analyze", "--spectrum", "SPECTRUM", "--unfold", "local:4"),
    "unfold-not-int": ("analyze", "--spectrum", "SPECTRUM", "--unfold", "local:abc"),
    "unfold-degree-12": ("analyze", "--spectrum", "SPECTRUM", "--unfold", "poly:12"),
    "against-poisson": ("compare", "--spacings", "SPECTRUM", "--against", "poisson"),
    "against-empty": ("compare", "--spacings", "SPECTRUM", "--against", ","),
}


class TestUsageErrors:
    """Every usage error exits 2 with one ``error:`` line and writes nothing."""

    @pytest.mark.parametrize("argv", _USAGE_ERRORS.values(), ids=_USAGE_ERRORS.keys())
    def test_one_error_line_and_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        spectrum = tmp_path / "levels.txt"
        spectrum.write_text("\n".join(str(i) for i in range(1, 60)) + "\n")
        argv = [{"OUT": str(out), "SPECTRUM": str(spectrum)}.get(a, a) for a in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SystemExit) as exc:
                run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "usage:" not in err
        assert caught == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["levels.txt"]


class TestVerifyCommand:
    def test_passes_and_is_deterministic(self, capsys):
        assert run(["verify"]) == 0
        first = capsys.readouterr().out
        assert run(["verify"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "PASS" in first and "FAIL" not in first

    def test_mc_check_detects_flipped_reality_condition(self):
        # a sampler with the wrong sign in the reality condition
        # (b^2 - c^2 + d^2 >= 0) produces a law the reduced MC check rejects
        from spacinglab import stats, verify

        rng = np.random.default_rng(42)
        p = rng.normal(size=(200_000, 4)) * np.sqrt(0.5)
        disc = p[:, 1] ** 2 - p[:, 2] ** 2 + p[:, 3] ** 2
        sample = stats.normalize(2.0 * np.sqrt(disc[disc >= 0]))
        assert stats.ks_test(sample, "GPUE").d > verify.MC_KS_THRESHOLD
        # the acceptance-rate check rejects it independently
        assert abs(float(np.mean(disc >= 0)) - (1 - 1 / math.sqrt(2))) > 0.005

    def test_text_report_mode(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        assert run(["sample", "--ensemble", "gse", "--n", "5000", "--seed", "2",
                    "--out", str(path)]) == 0
        capsys.readouterr()
        assert run(["compare", "--spacings", str(path), "--report", "text"]) == 0
        out = capsys.readouterr().out
        assert "best-fit: GSE" in out
