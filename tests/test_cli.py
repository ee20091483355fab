"""Command-line interface: flags, CSV/JSON formats, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spacinglab import cli, curves, ingest, stats
from test_ensembles import traced_peak


def run(argv):
    return cli.main(argv)


def write_rows_reference(path, header, *columns):
    """The per-row CSV loop that ``cli._write_csv`` replaced."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join("%.12g" % v for v in row) + "\n")


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

    def test_largest_finite_shrink_kappa_samples(self, tmp_path):
        columns = {}
        for kappa in ("100", "0"):
            out = tmp_path / f"q{kappa}.csv"
            assert run(["sample", "--ensemble", "qh3", "--kappa", kappa,
                        "--n", "100", "--seed", "1", "--out", str(out)]) == 0
            columns[kappa] = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        np.testing.assert_allclose(columns["100"], columns["0"], rtol=1e-12)

    @pytest.mark.parametrize("size", [10**18, 2**60 - 1], ids=["10**18", "2**60-1"])
    def test_unallocatable_n_is_runtime_error(self, tmp_path, capsys, size):
        # 10**18 spacings are 6.9 EiB and 2**60 - 1 are 8 EiB: the output array is
        # refused before any draw, and the one error line names the flag
        out = tmp_path / "s.csv"
        assert run(["sample", "--ensemble", "gpue", "--n", str(size), "--seed", "1",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --n: ")
        assert not out.exists()

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

    def test_gpoe_pdf_finite_where_k0_is_inf(self, tmp_path):
        # 3e-162 puts beta x^2 among the subnormals, where scipy's k0 is inf
        out = tmp_path / "c.csv"
        assert run(["curve", "--curve", "gpoe", "--xmax", "3e-162", "--points", "2",
                    "--out", str(out)]) == 0
        pdf = float(out.read_text().splitlines()[2].split(",")[1])
        assert 0.0 < pdf < math.inf

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

    @pytest.mark.parametrize("size", [10**18, 2**60 - 1], ids=["10**18", "2**60-1"])
    def test_unallocatable_grid_is_runtime_error(self, tmp_path, capsys, size):
        # 10**18 float64 points are 6.9 EiB and 2**60 - 1 are 8 EiB, more than any
        # address space: refused at once, and the one error line names the flag
        out = tmp_path / "c.csv"
        assert run(["curve", "--curve", "goe", "--xmax", "4", "--points", str(size),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --points: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, size", [
        (command, flag, size) for command, flag in [(["curve", "--curve", "goe", "--xmax", "4"], "--points"),
                                                    (["sample", "--ensemble", "gpoe", "--seed", "1"], "--n")]
        for size in (2**62, 2**63 - 1, 2**63, 2**64)
    ], ids=[prefix + size for prefix in ("", "sample-") for size in ("2**62", "2**63-1", "2**63", "2**64")])
    def test_grid_past_any_array_is_runtime_error(self, tmp_path, capsys, command, flag, size):
        # unchecked, np.linspace ends in an IndexError from 2**63 - 512 to 2**63 + 1024,
        # and np.empty in a ValueError from 2**60 on; neither names the flag
        out = tmp_path / "c.csv"
        assert run([*command, flag, str(size), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {flag}: {size} float64 values exceed the largest possible array"]
        assert not out.exists()

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

    def test_against_tokens_with_spaces_and_mixed_case(self, goe_csv, capsys):
        assert run(["compare", "--spacings", str(goe_csv),
                    "--against", " GOE , gpue ", "--report", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["ks-results"]) == ["GOE", "GPUE"]

    @pytest.mark.parametrize("against", ["poisson", ",", " , ", "goe,poisson"])
    def test_bad_against_is_the_classify_refusal(self, tmp_path, capsys, against):
        # one rule selects curves for classify and --against; the flag is refused
        # before the (here missing) spacing file is read
        tokens = [tok.strip() for tok in against.split(",") if tok.strip()]
        with pytest.raises(ValueError) as refusal:
            stats.classify(stats.normalize([0.5, 1.0, 1.5]), tokens)
        with pytest.raises(SystemExit) as exc:
            run(["compare", "--spacings", str(tmp_path / "missing.csv"), "--against", against])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: --against: {refusal.value}\n"

    def test_rescaled_column_same_best_fit(self, goe_csv, tmp_path, capsys):
        raw = [float(ln.split(",")[0]) for ln in goe_csv.read_text().splitlines()[1:]]
        other = tmp_path / "scaled.csv"
        other.write_text("\n".join(repr(v * 123.5) for v in raw) + "\n")
        assert run(["compare", "--spacings", str(other), "--report", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best-fit"] == "GOE"

    def test_leading_byte_order_mark_is_not_a_header(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeff1.5\n2.5\n3.5\n".encode())
        assert run(["compare", "--spacings", str(path), "--report", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 3

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

    def test_overflowing_sum_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("raw_spacing\n1e308\n1e308\n")
        assert run(["compare", "--spacings", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: cannot normalize: the sum of the spacings overflows")

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

    def test_non_utf8_byte_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"raw_spacing\n1.0\n2\xff5\n3.0\n")
        assert run(["compare", "--spacings", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {path}: line 3: not UTF-8 text")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
@pytest.mark.parametrize("argv, body", [
    (["compare", "--spacings"], "raw_spacing\n1.5\n2.5\n3.5\n"),
    (["analyze", "--unfold", "global", "--spectrum"], "1\n2.5\n3\n4.5\n"),
], ids=["compare", "analyze"])
def test_reads_a_pipe(argv, body):
    # a pipe can be read once: the whole input must come from that one read
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "spacinglab", *argv, "/dev/stdin",
                           "--report", "json"], input=body, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n"] == 3


@pytest.mark.parametrize("argv, body, message", [
    (["compare", "--spacings"], "2.5\n2.5\n2.5\n2.5\n", "zero-variance sample"),
    (["analyze", "--unfold", "global", "--spectrum"], "1\n2\n2\n3\n4.5\n", "duplicate levels removed"),
], ids=["compare", "analyze"])
def test_warning_raised_as_error_is_one_error_line(tmp_path, argv, body, message):
    path = tmp_path / "input.txt"
    path.write_text(body)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "spacinglab", *argv, str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, body, message", [
    (["compare", "--spacings"], "2.5\n2.5\n2.5\n2.5\n",
     "zero-variance sample: every spacing is identical"),
    (["analyze", "--unfold", "global", "--spectrum"], "1\n2\n2\n3\n4.5\n", "duplicate levels removed"),
    (["analyze", "--unfold", "global", "--spectrum"], "3\n1\n2\n4.5\n",
     "levels were not monotone increasing; sorting"),
], ids=["compare-zero-variance", "analyze-duplicate", "analyze-unsorted"])
def test_warning_is_one_line(tmp_path, argv, body, message):
    path = tmp_path / "input.txt"
    path.write_text(body)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "spacinglab", *argv, str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == f"warning: {message}\n"


def test_module_entry_point(tmp_path):
    # `python -m spacinglab` writes what cli.main writes, and a usage error is exit 2
    # with one error line
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = ["curve", "--curve", "gpue", "--xmax", "3", "--points", "7", "--out"]
    proc = subprocess.run([sys.executable, "-m", "spacinglab", *argv, str(tmp_path / "module.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == proc.stderr == ""
    assert run([*argv, str(tmp_path / "main.csv")]) == 0
    assert (tmp_path / "module.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()
    proc = subprocess.run([sys.executable, "-m", "spacinglab", "sample", "--ensemble", "goe",
                           "--n", "0", "--seed", "1", "--out", str(tmp_path / "x.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: --n: ") and proc.stderr.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


_WRITER_SPECIALS = [0.0, -0.0, 5e-324, 1e-5, 9.99999999999e-5, 1e16, 123456789012.5,
                    float(np.nextafter(1e-4, 0)), 9.999999999995e-05, 999999999999.5,
                    float(np.nextafter(1e-33, 0)), math.nan, math.inf, -1.5]


_BLOCK = cli._CSV_BLOCK_ROWS


def _exact_column(n, rng):
    """n values k / 256 with k < 1e6: at most 12 significant digits, so every
    value takes the fast path."""
    return rng.integers(1, 10**6, n) / 256.0


class TestCsvWriter:
    @pytest.mark.parametrize("n", [1, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1])
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

    @pytest.mark.parametrize("last", [1.5, math.nan], ids=["fast", "percent"])
    def test_final_block_of_one_row(self, tmp_path, monkeypatch, last):
        columns = [_exact_column(_BLOCK + 1, np.random.default_rng(4)) for _ in range(2)]
        columns[1][-1] = last
        shapes, block_text = [], cli._block_text

        def spy(block, ws):
            shapes.append(block.shape)
            return block_text(block, ws)

        monkeypatch.setattr(cli, "_block_text", spy)
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        cli._write_csv(fast, "a,b", *columns)
        write_rows_reference(slow, "a,b", *columns)
        assert fast.read_bytes() == slow.read_bytes()
        assert shapes == [(_BLOCK, 2), (1, 2)]

    def test_columns_of_different_lengths_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            cli._write_csv(tmp_path / "t.csv", "a,b", np.ones(3), np.ones(1))

    def test_special_values_text(self, tmp_path):
        path = tmp_path / "s.csv"
        values = np.array(_WRITER_SPECIALS)
        cli._write_csv(path, "a,b", values, -values)
        assert path.read_text().splitlines()[1:] == [
            "0,-0", "-0,0", "4.94065645841e-324,-4.94065645841e-324", "1e-05,-1e-05",
            "9.99999999999e-05,-9.99999999999e-05", "1e+16,-1e+16",
            "123456789012,-123456789012", "0.0001,-0.0001",
            "9.99999999999e-05,-9.99999999999e-05", "1e+12,-1e+12", "1e-33,-1e-33",
            "nan,nan", "inf,-inf", "-1.5,1.5",
        ]


class TestCsvWriterMemory:
    """Every block is formatted in one workspace, allocated once per file."""

    @pytest.mark.parametrize("off_path, n_columns, bound", [
        (False, 2, 1.2 * 2**20), (False, 3, 1.8 * 2**20), (True, 2, 1.7 * 2**20),
    ], ids=["2-columns", "3-columns", "2-columns-off-path"])
    def test_write_csv_peak(self, tmp_path, off_path, n_columns, bound):
        rng = np.random.default_rng(1)
        columns = [rng.exponential(1.0, 10**5) for _ in range(n_columns)]
        if off_path:  # every value is formatted by ``%``: below 1e-33, or negative
            columns = [rng.uniform(1.0, 10.0, 10**5) * 1e-200, -columns[1]]
        path = tmp_path / "t.csv"
        assert traced_peak(lambda: cli._write_csv(path, "h", *columns)) <= bound


def _near_tie(k, j, side):
    """(k + 1/2) * 10**j, or its neighbour toward ``side``."""
    v = (k + 0.5) * 10.0**j
    return float(v if side is None else np.nextafter(v, side))


_WRITER_VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, np.uint64).view(np.float64))),
    st.builds(_near_tie, st.integers(10**11, 10**12 - 1), st.integers(-45, 0),
              st.sampled_from([None, 0.0, math.inf])),
    st.integers(-40, 12).map(lambda j: 9.999999999995 * 10.0**j),
    st.sampled_from([float(np.nextafter(1e-4, 0)), 1e-33, float(np.nextafter(1e-33, 0)), 1e12]),
)


@st.composite
def _writer_columns(draw):
    """1-3 columns of n rows, n around the block size: seeded background
    values (ordinary, or all below the fast domain) with drawn values
    written over some rows."""
    n = draw(st.sampled_from([1, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        low, high = draw(st.sampled_from([(-34, 13), (-300, -33)]))
        col = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(low, high, n)
        values = draw(st.lists(_WRITER_VALUES, max_size=40))
        col[rng.integers(0, n, len(values))] = values
        columns.append(col)
    return columns


class TestCsvWriterProperties:
    @settings(max_examples=80, deadline=None, database=None)
    @given(_writer_columns())
    def test_bytes_match_per_row_loop(self, tmp_path_factory, columns):
        folder = tmp_path_factory.mktemp("writer")
        header = ",".join(f"c{j}" for j in range(len(columns)))
        cli._write_csv(folder / "fast.csv", header, *columns)
        write_rows_reference(folder / "slow.csv", header, *columns)
        assert (folder / "fast.csv").read_bytes() == (folder / "slow.csv").read_bytes()


class TestCsvFastPath:
    """Guards the vectorized writer: few values may fall back to ``%``."""

    @pytest.fixture
    def exact_values(self, monkeypatch):
        seen = []
        exact_text = cli._exact_text

        def spy(values):
            seen.append(np.array(values))
            return exact_text(values)

        monkeypatch.setattr(cli, "_exact_text", spy)
        return seen

    # 1e5-row tables as the benchmark writes them; about a third of the GSE
    # pdf values print in exponent form and must stay on the fast path.
    @pytest.mark.parametrize("argv", [
        ["sample", "--ensemble", "goe", "--n", "100000", "--seed", "1"],
        ["sample", "--ensemble", "gpue", "--n", "100000", "--seed", "1"],
        *(["curve", "--curve", c, "--xmax", "4", "--points", "100000"]
          for c in ("goe", "gue", "gse", "gpoe", "gpue")),
    ], ids=lambda argv: f"{argv[0]}-{argv[2]}")
    def test_few_rows_take_the_exact_path(self, tmp_path, exact_values, argv):
        assert run([*argv, "--out", str(tmp_path / "t.csv")]) == 0
        assert sum(len(values) for values in exact_values) < 1000

    def test_slow_run_across_block_edge(self, tmp_path, exact_values):
        """Values off the fast path over the last rows of one block and the first
        of the next take one ``%`` call per block; every other value takes the
        fast path."""
        rng = np.random.default_rng(3)
        columns = [_exact_column(2 * _BLOCK, rng) for _ in range(2)]
        columns[0][_BLOCK - 2 : _BLOCK + 1] = [0.0, math.nan, 123456789012.5]
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        cli._write_csv(fast, "a,b", *columns)
        write_rows_reference(slow, "a,b", *columns)
        assert fast.read_bytes() == slow.read_bytes()
        assert len(exact_values) == 2
        np.testing.assert_array_equal(exact_values[0], [0.0, math.nan])
        np.testing.assert_array_equal(exact_values[1], [123456789012.5])

    def test_power_of_ten_predecessors_take_percent(self, tmp_path, exact_values):
        """1-3 ulps below 10**j, log10 can round up to j; the significand
        x * 10**(11 - floor(log10 x)) then misses [1e11, 1e12), and the value
        leaves through ``_exact_text``, in the block's one ``%`` call."""
        below, values = [], np.array([10.0**j for j in range(-33, 12)])
        for _ in range(3):
            values = np.nextafter(values, 0)
            below.append(values)
        values = np.concatenate(below)
        path = tmp_path / "t.csv"
        cli._write_csv(path, "v", values)
        assert path.read_text() == "v\n" + "".join(f"{v:.12g}\n" for v in values)
        _, _, p1, p2, *_ = cli._csv_tables()
        k = np.clip(11 - np.floor(np.log10(values)).astype(int), 0, 44)
        m = values * p1[k] * p2[k]
        assert len(exact_values) == 1
        np.testing.assert_array_equal(exact_values[0], values[(m < 1e11) | (m >= 1e12) | (values < 1e-33)])

    def test_only_values_off_the_path_are_formatted_by_percent(self, tmp_path, exact_values):
        path = tmp_path / "t.csv"
        cli._write_csv(path, "v", np.array([0.0, math.nan, 999999999999.5, 1.5]))
        assert len(exact_values) == 1
        np.testing.assert_array_equal(exact_values[0], [0.0, math.nan, 999999999999.5])
        assert path.read_text() == "v\n0\nnan\n1e+12\n1.5\n"


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


# SHA-256 of `curve --points 100000` at the benchmark's --xmax 4 and at 50.
GOLDEN_CURVE_SHA256 = {
    ("goe", "4"): "5edc25103b62d299a90e95bb8966c2da429f2f5501cb2eabe9dd466bcba937fb",
    ("gue", "4"): "06a80e053f10795c41a49c7ecfe1c915c883ca876034db7ff1b00a47d31afdaf",
    ("gse", "4"): "a476aeef692c7648849f598988bd1091b0228425d1f5a46b6fcd4a0b681a0a86",
    ("gpoe", "4"): "25ccd9c490f3a6cb30791e36f06745dc61b38661fa109fd7dda290f786d01df3",
    ("gpue", "4"): "840809474e2c2311039ff98cd7dfd7e234ca3dced1aa23d99c62c5bbabd62300",
    ("goe", "50"): "2e14824c54cc78380272a17152b0629317f42e0d9497d8e413fc98495028cb5d",
    ("gue", "50"): "77ede6cea1337800f4fe8f8001283ed901af1578cea9d1ecf3c0cfe0f1e7e0ea",
    ("gse", "50"): "cd00bb725d72cf4b7b6b4fe2c0d4ac8665c3f10f03634577798431788f6a7477",
    ("gpoe", "50"): "b272c2bfe39880079258e815e7e7435a0c8a78c4f70c6c1308c0b96d79f1dc3f",
    ("gpue", "50"): "0514d31492122e5b811b33ce2dacd7b99a6b5944e73acd133340ce8d3b84e0ab",
}


@pytest.mark.parametrize("curve, xmax", sorted(GOLDEN_CURVE_SHA256))
def test_curve_csv_golden_hash(tmp_path, curve, xmax):
    out = tmp_path / "c.csv"
    assert run(["curve", "--curve", curve, "--xmax", xmax, "--points", "100000", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CURVE_SHA256[curve, xmax]


# SHA-256 of `analyze --spectrum spectrum.txt --report json` less its timestamp
# line, on 2e4 levels of GOE 2 x 2 spacings whose density falls along the spectrum.
GOLDEN_ANALYZE_SHA256 = {
    "global": "03f4f83bc9633ef3ea84b9c6714042fa718f4d2a32cd3ac3928632495d8f5aba",
    "local:51": "02390ddd221d4dc2712abe517d9d81d16cadbf8e64738ca85411c534ebe0af59",
    "poly:7": "366b917389219072bba651c54e93ffb9ab120cde8430f61ab07696846939a06f",
}


@pytest.mark.parametrize("unfold", sorted(GOLDEN_ANALYZE_SHA256))
def test_analyze_json_golden_hash(tmp_path, monkeypatch, capsys, unfold):
    a, d, b = np.random.default_rng(30).standard_normal((3, 20000))
    t = np.cumsum(np.sqrt((a - d) ** 2 + 4.0 * b * b))
    levels = t + t * t / (4.0 * t[-1])
    monkeypatch.chdir(tmp_path)
    Path("spectrum.txt").write_text("\n".join(map(repr, levels.tolist())) + "\n")
    assert run(["analyze", "--spectrum", "spectrum.txt", "--unfold", unfold, "--report", "json"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    text = "".join(line for line in lines if not line.startswith('  "timestamp": '))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_ANALYZE_SHA256[unfold]


_FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)
_TOKENS = st.one_of(
    _FLOATS.map(repr),
    _FLOATS.map(lambda v: "%.12g" % v),
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


# what an input file is drawn from: number pieces, separators, line ends and bad bytes
_INPUT_TOKENS = [*(str(i).encode() for i in range(10)), b"+", b"-", b"e", b".", b",", b"#",
                 b" ", b"\t", b"\xef\xbb\xbf", b"\xff", b"\0", b"nan", b"inf", b"1e308",
                 b"1e-320", b"raw_spacing"]
_LINE_ENDS = [b"\n", b"\r\n", b"\r"]


@st.composite
def _input_bytes(draw):
    # each file draws its own few tokens, so that some files hold only numbers
    token = st.sampled_from(draw(st.lists(st.sampled_from(_INPUT_TOKENS), min_size=1,
                                          max_size=8, unique=True)))
    rows = draw(st.lists(st.tuples(st.lists(token, max_size=6), st.sampled_from(_LINE_ENDS)),
                         max_size=200))
    return b"".join(b"".join(tokens) + end for tokens, end in rows)


def _refuse_constant(name):
    raise ValueError(f"JSON holds {name}")


class TestInputBytesProperty:
    """Whatever the bytes of an input file, a run ends in exit 0 with JSON that holds
    only finite numbers, or in exit 1 with one ``error:`` line."""

    @pytest.mark.parametrize("argv", [
        ["compare", "--spacings"],
        ["analyze", "--unfold", "global", "--spectrum"],
        ["analyze", "--unfold", "local:3", "--spectrum"],
        ["analyze", "--unfold", "poly:2", "--spectrum"],
    ], ids=["compare", "analyze-global", "analyze-local3", "analyze-poly2"])
    @settings(max_examples=150)
    @given(body=_input_bytes())
    def test_exit_0_with_finite_json_or_one_error_line(self, tmp_path_factory, argv, body):
        path = tmp_path_factory.mktemp("input") / "input.txt"
        path.write_bytes(body)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")  # a warning does not end the run, as without -W error
            rc = run([*argv, str(path), "--report", "json"])
        if rc == 0:
            json.loads(out.getvalue(), parse_constant=_refuse_constant)
        else:
            assert rc == 1
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines


# spectrum file body -> the error it ends with, after the file name
_SPECTRUM_ERRORS = {
    "1\n2\n14,134725\n": "line 3: cannot read a level",
    "1\n2\ninf\n": "line 3: cannot read a level",
    "1\n2\n": "need at least 3 distinct levels, got 2",
    "1\n2\n\xff3\n4\n": "line 3: not UTF-8 text",
}


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
        assert report["ensemble-or-source"] == f"{spec} (unfold=poly:3)"

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

    def test_poly_map_that_rounds_away_the_spacings_is_refused(self, tmp_path, capsys):
        spec = tmp_path / "cluster.txt"
        spec.write_text("\n".join(repr(float(v)) for v in [*range(173), 7.8e13]) + "\n")
        assert run(["analyze", "--spectrum", str(spec), "--unfold", "poly:2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: the map of the levels onto [-1, 1] rounds away their spacings; "
                       "use local:w or global unfolding\n")

    def test_parse_error_surfaces_line(self, tmp_path, capsys):
        spec = tmp_path / "bad.txt"
        spec.write_text("1\nnope\n3\n")
        assert run(["analyze", "--spectrum", str(spec)]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("body", _SPECTRUM_ERRORS)
    def test_parse_error_names_file(self, tmp_path, capsys, body):
        spec = tmp_path / "zeros.txt"
        spec.write_text(body, encoding="latin-1")  # "\xff" becomes the byte 0xff
        assert run(["analyze", "--spectrum", str(spec)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {spec}: {_SPECTRUM_ERRORS[body]}")


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
    "sigma-is-unknown": (*_SAMPLE, "--sigma", "1.0"),
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


# Each flag takes one of its valid values (None: left out) five times in six,
# else it is left out or takes one of its own boundary values or of _EDGE.
# Sizes stay at most 1e4, or are one of _HUGE, which is refused before
# anything is allocated.  File flags name files in a per-module folder: an
# edge value v names the input file that holds v among its rows, or the
# output file v ("" is the folder itself).
_EDGE = ("0", "-1", "-0", "nan", "inf", "1e308", "1_0", "abc", "")
_HUGE = tuple(str(n) for n in (2**62, 2**63 - 1, 2**63, 2**64))
_OUT = (("out.csv",), ("missing/out.csv",))
_REPORT = (("json", "text"), ())
_COMMANDS = {  # flag: (valid values, boundary values)
    "sample": {"--ensemble": (cli._ENSEMBLE_CHOICES, ()), "--kappa": ((None,), ("0.5", "100", "400")),
               "--n": (("1", "2", "50", "10000"), _HUGE), "--seed": (("0", "1", str(2**64 - 1)), ()),
               "--workers": ((None, "1", "2", "4"), ()), "--out": _OUT},
    "curve": {"--curve": (cli._CURVE_CHOICES, ()), "--xmax": (("0.5", "4", "40"), ()),
              "--points": (("2", "5", "10000"), _HUGE), "--out": _OUT},
    "compare": {"--spacings": (("spacings.csv", "levels.txt"), ("missing.csv",)),
                "--against": ((None, "all", "goe", "gpoe,gpue", "GUE, gse"), ()), "--report": _REPORT},
    "analyze": {"--spectrum": (("levels.txt",), ("spacings.csv", "missing.txt")),
                "--unfold": ((None, "global", "local:5", "poly:3"), ()), "--report": _REPORT},
    "verify": {},
}


@pytest.fixture(scope="module")
def cli_folders(tmp_path_factory):
    """The input folder, holding a spacing CSV, a spectrum and one file per edge value, and
    an empty output folder."""
    inputs, outputs = tmp_path_factory.mktemp("inputs"), tmp_path_factory.mktemp("outputs")
    levels = np.cumsum(np.random.default_rng(5).rayleigh(size=300))
    (inputs / "levels.txt").write_text("\n".join(map(repr, levels.tolist())) + "\n")
    (inputs / "spacings.csv").write_text("raw_spacing\n" + "\n".join(map(repr, np.diff(levels).tolist())) + "\n")
    for v in filter(None, _EDGE):
        rows = [str(i) for i in range(1, 61)]
        rows[30:32] = [v, v]
        (inputs / v).write_text("\n".join(rows) + "\n")
    return inputs, outputs


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for flag, (valid, boundary) in _COMMANDS[command].items():
        edge = tuple(v for v in _EDGE if v != "1_0") if flag == "--workers" else _EDGE
        value = draw(st.sampled_from(draw(st.sampled_from([valid] * 5 + [(None, *boundary, *edge)]))))
        if value is not None:
            argv += [flag, value]
    return argv


class TestCommandProperty:
    """Whatever the command and its flags, a run exits 0, 1 or 2 with no numpy warning;
    only a usage error leaves ``main`` (as SystemExit(2)), a failed run prints one
    ``error:`` line and nothing else to stderr, that line names the flag when a _HUGE size
    is the one value drawn off the valid ones, and a JSON report holds only finite numbers."""

    @settings(max_examples=300)
    @given(argv=_command_lines())
    # runs that once broke this: the --kappa note before a usage error, a kappa whose
    # cosh(2 kappa) overflows, spacings whose sum overflows, a grid np.linspace cannot make,
    # a sample np.empty refuses without naming --n
    @example(argv=["sample", "--ensemble", "qh3", "--n", "0", "--seed", "1", "--out", "out.csv"])
    @example(argv=["sample", "--ensemble", "qh4", "--kappa", "400", "--n", "5", "--seed", "1",
                   "--out", "out.csv"])
    @example(argv=["compare", "--spacings", "1e308", "--report", "json"])
    @example(argv=["curve", "--curve", "goe", "--xmax", "4", "--points", _HUGE[2], "--out", "out.csv"])
    @example(argv=["sample", "--ensemble", "goe", "--n", _HUGE[0], "--seed", "1", "--out", "out.csv"])
    def test_exit_code_and_one_error_line(self, cli_folders, argv):
        drawn = dict(zip(argv[1::2], argv[2::2]))
        off_valid = [(flag, drawn.get(flag)) for flag, (valid, _) in _COMMANDS[argv[0]].items()
                     if drawn.get(flag) not in valid]
        inputs, outputs = cli_folders
        folders = {"--out": outputs, "--spacings": inputs, "--spectrum": inputs}
        argv = [str(folders[flag] / v) if flag in folders else v for flag, v in zip(["", *argv], argv)]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")  # a warning does not end the run, as without -W error
            try:
                rc = run(argv)
            except SystemExit as exc:
                assert exc.code == 2
                rc = 2
        assert [w.message for w in caught if w.category is not UserWarning] == []
        assert rc in (0, 1, 2)
        if rc:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            if len(off_valid) == 1 and off_valid[0][1] in _HUGE:  # a size no array can hold
                assert lines[0].startswith(f"error: {off_valid[0][0]}: "), lines
        elif "json" in argv:
            json.loads(out.getvalue(), parse_constant=_refuse_constant)


def test_every_option_has_help():
    (commands,) = [a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for name, parser in commands.choices.items():
        for action in parser._actions:
            assert action.help, f"{name} {'/'.join(action.option_strings)} has no help"


class TestParserCache:
    """The parser is built once per process and reused by every ``main`` call."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("argv", [
        ("sample", "--ensemble", "goe", "--n", "0", "--seed", "1", "--out", "OUT"),
        ("sample", "--ensemble", "goe", "--n", "10", "--out", "OUT"),
    ], ids=["n-zero", "seed-missing"])
    def test_usage_error_after_sample(self, tmp_path, capsys, argv):
        assert run(["sample", "--ensemble", "goe", "--n", "10", "--seed", "1",
                    "--out", str(tmp_path / "a.csv")]) == 0
        capsys.readouterr()
        out = tmp_path / "b.csv"
        with pytest.raises(SystemExit) as exc:
            run([str(out) if a == "OUT" else a for a in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_defaults_do_not_carry_over(self, tmp_path, capsys):
        # qh4 without --kappa sets kappa on its own namespace only; goe then sees none
        for tag in ("qh4", "goe"):
            assert run(["sample", "--ensemble", tag, "--n", "10", "--seed", "1",
                        "--out", str(tmp_path / f"{tag}.csv")]) == 0
        assert capsys.readouterr().err.count("defaulting to kappa=0") == 1


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
