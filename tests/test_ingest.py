"""Spectrum file parsing and unfolding."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spacinglab import cli, curves, ingest, stats
from spacinglab.ingest import (
    GlobalMean,
    LocalWindow,
    PolynomialStaircase,
    SpectrumFile,
    SpectrumParseError,
    load_spacings,
    load_spectrum,
    parse_levels,
    parse_unfold_method,
    unfold,
)
from test_ensembles import traced_peak

ZETA_HEAD = "14.13\n21.02\n30.42\n37.58\n"


def serialize_levels(spectrum):
    """One level per line, shortest round-trip float representation."""
    return "\n".join(repr(float(v)) for v in spectrum.levels) + "\n"


def parse_levels_reference(text):
    """The per-line loop ``parse_levels`` used before the shared loadtxt reader.

    Returns the levels, or None where the loop raised.
    """
    values = []
    for line in text.splitlines():
        item = line.strip()
        if not item or item.startswith("#"):
            continue
        try:
            v = float(item)
        except ValueError:
            return None
        if not math.isfinite(v):
            return None
        values.append(v)
    # sorting, then dropping duplicates, as parse_levels does when it must
    levels = np.unique(np.asarray(values, dtype=float))
    return levels if levels.size >= 3 else None


def quiet_parse(text):
    """``parse_levels`` with its sorting and duplicate warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return parse_levels(text)


_PADS = st.sampled_from(["", " ", "\t", " \t "])
_FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)
_LEVEL_TOKENS = st.one_of(
    _FLOATS.map(repr),
    _FLOATS.map(lambda v: format(v, ".12g")),
    st.integers(0, 10**6).map(lambda i: "_".join(str(i))),  # 1_0 style
    st.tuples(_PADS, _FLOATS.map(repr), _PADS).map("".join),
)
_FILLER = st.sampled_from(["", " ", "\t", " \t ", "# comment", "  # indented, comment", "#"])


@st.composite
def _level_files(draw):
    """(lines, indices of the data lines, newline) of a valid spectrum file."""
    lines, data = [], []
    for token in draw(st.lists(_LEVEL_TOKENS, min_size=3, max_size=30)):
        lines.extend(draw(st.lists(_FILLER, max_size=2)))
        data.append(len(lines))
        lines.append(token)
    lines.extend(draw(st.lists(_FILLER, max_size=2)))
    return lines, data, draw(st.sampled_from(["\n", "\r\n"]))


def _join(lines, newline):
    return newline.join(lines) + newline


class TestParseProperties:
    @settings(max_examples=80, deadline=None, database=None)
    @given(_level_files())
    def test_matches_per_line_loop(self, spec):
        lines, _, newline = spec
        text = _join(lines, newline)
        expected = parse_levels_reference(text)
        assume(expected is not None)  # fewer than 3 distinct levels
        got = quiet_parse(text).levels
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None, database=None)
    @given(_level_files(), st.data())
    def test_bad_token_names_its_line(self, spec, data):
        lines, rows, newline = spec
        bad = data.draw(st.sampled_from(rows))
        lines[bad] = data.draw(st.sampled_from(
            ["abc", "1.0.0", "--1", "0x1p3", "1 2", "inf", "-inf", "nan", "1e999", "1.5d0"]))
        with pytest.raises(SpectrumParseError, match=rf"^line {bad + 1}: cannot read a level"):
            quiet_parse(_join(lines, newline))

    @settings(max_examples=60, deadline=None, database=None)
    @given(_level_files(), st.data())
    def test_decimal_comma_refused(self, spec, data):
        lines, rows, newline = spec
        every = data.draw(st.booleans())  # then loadtxt sees a clean two-column table
        chosen = rows if every else [data.draw(st.sampled_from(rows))]
        for i in chosen:
            whole, frac = data.draw(st.integers(0, 10**4)), data.draw(st.integers(0, 10**6))
            lines[i] = f"{whole},{frac}"
        with pytest.raises(SpectrumParseError, match=rf"^line {min(chosen) + 1}: "):
            quiet_parse(_join(lines, newline))

    @settings(max_examples=80, deadline=None, database=None)
    @given(st.lists(_FLOATS, min_size=3, max_size=40, unique=True))
    def test_serialize_round_trips_exactly(self, values):
        levels = np.sort(np.asarray(values))
        levels.flags.writeable = False
        spectrum = SpectrumFile(levels=levels)
        again = parse_levels(serialize_levels(spectrum))
        assert again.levels.tobytes() == levels.tobytes()


@st.composite
def _level_files_any_newline(draw):
    """``_level_files`` with the newline drawn from \\n, \\r\\n and a bare \\r."""
    lines, data, _ = draw(_level_files())
    return lines, data, draw(st.sampled_from(["\n", "\r\n", "\r"]))


def _write(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("spectrum") / "levels.txt"
    path.write_bytes(text.encode())
    return path


def quiet_load(path):
    """``load_spectrum`` with its sorting and duplicate warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return load_spectrum(path)


class TestLoadSpectrumProperties:
    """``TestParseProperties`` on a file, which ``np.loadtxt`` reads directly."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(_level_files_any_newline())
    def test_matches_per_line_loop(self, tmp_path_factory, spec):
        lines, _, newline = spec
        text = _join(lines, newline)
        expected = parse_levels_reference(text)
        assume(expected is not None)  # fewer than 3 distinct levels
        got = quiet_load(_write(tmp_path_factory, text)).levels
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None, database=None)
    @given(_level_files_any_newline(), st.data())
    def test_bad_token_names_its_line(self, tmp_path_factory, spec, data):
        lines, rows, newline = spec
        bad = data.draw(st.sampled_from(rows))
        lines[bad] = data.draw(st.sampled_from(
            ["abc", "1.0.0", "--1", "0x1p3", "1 2", "inf", "-inf", "nan", "1e999", "1.5d0"]))
        path = _write(tmp_path_factory, _join(lines, newline))
        with pytest.raises(SpectrumParseError,
                           match=rf"^{re.escape(str(path))}: line {bad + 1}: cannot read a level"):
            quiet_load(path)


def _outcome(read, *args):
    """What ``read(*args)`` gives: its values as bytes, or its error text."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            got = read(*args)
        except SpectrumParseError as exc:
            return "error", str(exc)
    values = got.levels if isinstance(got, SpectrumFile) else got
    return values.dtype, values.tobytes()


def _file_and_text_outcomes(tmp_path, body, csv):
    """The outcome of reading ``body`` from a file and of reading it as text."""
    path = tmp_path / ("s.csv" if csv else "levels.txt")
    path.write_bytes(body.encode())
    if csv:
        return _outcome(load_spacings, path), _outcome(ingest._read_column, body, str(path), True)
    return _outcome(load_spectrum, path), _outcome(parse_levels, body, str(path))


# str.splitlines() breaks lines at each of these; a file reader does not
_ODD_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineBreakRules:
    """A file reads as its text does, whatever its line breaks."""

    @pytest.mark.parametrize("brk", _ODD_BREAKS)
    @pytest.mark.parametrize("body", [
        "1.5\n2.5{}3.5\n4.5\n",  # breaks a line in two
        "1.5\n2.5\n3{}5\n4.5\n",  # inside a value
        "1.5\n2.5\n3.5{}\n4.5\n",  # before a newline
        "# note{}1.5\n2.5\n3.5\n",  # ends a comment
        "{}1.5\r\n2.5\r\n3.5\r\n",  # first, CRLF file
        "1.5\r2.5\r3.5{}4.5\r",  # bare CR file
    ])
    @pytest.mark.parametrize("csv", [True, False], ids=["spacings", "spectrum"])
    def test_splitlines_only_breaks(self, tmp_path, body, brk, csv):
        from_file, from_text = _file_and_text_outcomes(tmp_path, body.format(brk), csv)
        assert from_file == from_text

    @pytest.mark.parametrize("brk", _ODD_BREAKS)
    def test_splitlines_only_break_in_header(self, tmp_path, brk):
        body = f"x,raw_spacing{brk}junk\n9,1.5\n9,2.5\n"
        from_file, from_text = _file_and_text_outcomes(tmp_path, body, csv=True)
        assert from_file == from_text

    @pytest.mark.parametrize("body, expected", [
        ("\r\n# made by hand\r\n\r\nraw_spacing,x\r\n1.5,0\r\n2.5,0\r\n", [1.5, 2.5]),
        ("# made by hand\r\n  # indented\r\nx,raw_spacing\r\n0,1.5\r\n0,2.5\r\n", [1.5, 2.5]),
        ("raw_spacing\r1.5\r\r2.5 # note\r3.5", [1.5, 2.5, 3.5]),
        ("# made by hand\r\r x,raw_spacing\r0,1.5\r0,2.5\r", [1.5, 2.5]),
        ("1.5\r2.5\r3.5\r", [1.5, 2.5, 3.5]),
        ("x,raw_spacing\n0,2.5", [2.5]),  # no newline at the end
        ("2.5", [2.5]),
        ("raw_spacing\rabc\r", "line 2: cannot read a spacing"),
        ("a,raw_spacing\n1\n2,3\n", "line 2: cannot read a spacing from '1': no raw_spacing column"),
        ("raw_spacing,x\r\n", "no spacing rows"),
        ("raw_spacing,x\n# only a comment\n\n", "no spacing rows"),
        ("", "no spacing rows"),
    ])
    def test_spacing_files(self, tmp_path, body, expected):
        from_file, from_text = _file_and_text_outcomes(tmp_path, body, csv=True)
        assert from_file == from_text
        if isinstance(expected, str):
            assert from_file[0] == "error" and expected in from_file[1]
        else:
            assert from_file[1] == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("body, expected", [
        ("# levels\r\n\r\n1\r\n2\r\n3\r\n", [1.0, 2.0, 3.0]),
        ("1\r2\r\r3 # note\r4", [1.0, 2.0, 3.0, 4.0]),
        ("# levels\r\r1\r2\rabc\r", "line 5: cannot read a level"),
        ("1\r2\rabc\r4\r", "line 3: cannot read a level"),
        ("1\r2\r14,134725\r", "line 3: cannot read a level"),
        ("# only comments\n  # and blanks\n\n", "no level rows"),
        ("# only comments\r# still\r", "no level rows"),
    ])
    def test_spectrum_files(self, tmp_path, body, expected):
        from_file, from_text = _file_and_text_outcomes(tmp_path, body, csv=False)
        assert from_file == from_text
        if isinstance(expected, str):
            assert from_file[0] == "error" and expected in from_file[1]
        else:
            assert from_file[1] == np.asarray(expected).tobytes()


class TestByteOrderMark:
    """One leading byte-order mark is ignored: it is neither a header nor a value."""

    @pytest.mark.parametrize("rest", ["", "# \u00e9chantillon\n"], ids=["ascii", "non-ascii"])
    def test_headerless_spacings(self, tmp_path, rest):
        path = tmp_path / "bom.csv"
        path.write_bytes(f"\ufeff{rest}1.5\n2.5\n3.5\n".encode())
        assert load_spacings(path).tolist() == [1.5, 2.5, 3.5]

    @pytest.mark.parametrize("rest", ["", "# \u00e9chantillon\n"], ids=["ascii", "non-ascii"])
    def test_spectrum(self, tmp_path, rest):
        path = tmp_path / "bom.txt"
        path.write_bytes(f"\ufeff{rest}1.0\n2.0\n3.0\n".encode())
        assert load_spectrum(path).levels.tolist() == [1.0, 2.0, 3.0]

    def test_only_one_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom2.txt"
        path.write_bytes("\ufeff\ufeff1.0\n2.0\n3.0\n".encode())
        with pytest.raises(SpectrumParseError, match=r": line 1: cannot read a level"):
            load_spectrum(path)


class TestLoadedSpacingsAreKept:
    """``load_spacings`` returns a read-only array that ``normalize`` keeps without a copy."""

    @pytest.mark.parametrize("body", ["raw_spacing,normalized_spacing\n1.5,0.75\n2.5,1.25\n",
                                      "1_5\n2.5\n"], ids=["loadtxt", "per-line"])
    def test_normalize_shares_memory(self, tmp_path, body):
        path = tmp_path / "s.csv"
        path.write_text(body)
        raw = load_spacings(path)
        sample = stats.normalize(raw)
        assert np.shares_memory(sample.raw, raw)
        with pytest.raises(ValueError, match="read-only"):
            raw[0] = 1.0


class TestFileFastPath:
    """A regular file is read by ``np.loadtxt`` from the file, never from the lines of its text."""

    @pytest.fixture()
    def no_text_path(self, monkeypatch):
        """Fails a read that reads the file as text: a good file is read by ``open()`` and loadtxt."""

        def no_text(path, source):
            raise AssertionError("the line-by-line text path ran")

        monkeypatch.setattr(ingest, "_read_text", no_text)

    @pytest.mark.parametrize("comment", ["", "# \u00e9nergie (MeV)\n"], ids=["ascii", "non-ascii"])
    def test_sample_csv(self, tmp_path, no_text_path, comment):
        path = tmp_path / "gpue.csv"
        assert cli.main(["sample", "--ensemble", "gpue", "--n", "10000", "--seed", "5",
                         "--out", str(path)]) == 0
        rows = path.read_bytes().decode().split("\n")[1:-1]
        expected = np.array([float(row.split(",")[0]) for row in rows])
        path.write_bytes(comment.encode() + path.read_bytes())
        got = load_spacings(path)
        assert got.size == 10000 and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("comment", ["", "# \u00e9nergie (MeV)\n"], ids=["ascii", "non-ascii"])
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_spectrum(self, tmp_path, no_text_path, bom, comment):
        levels = np.cumsum(np.random.default_rng(5).exponential(size=10000))
        path = tmp_path / "levels.txt"
        path.write_bytes((bom + comment + "".join(f"{float(v)!r}\n" for v in levels)).encode())
        assert load_spectrum(path).levels.tobytes() == levels.tobytes()

    def test_guard_sees_the_text_path(self, tmp_path, no_text_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n2\nabc\n")
        with pytest.raises(AssertionError, match="text path ran"):
            load_spectrum(path)


class TestReaderMemory:
    """A regular file is held once, as the values ``np.loadtxt`` reads, never as its text."""

    N = 10**5

    def test_load_spacings_peak(self, tmp_path):
        path = tmp_path / "goe.csv"
        assert cli.main(["sample", "--ensemble", "goe", "--n", str(self.N), "--seed", "3",
                         "--out", str(path)]) == 0
        assert traced_peak(lambda: load_spacings(path)) <= 12 * self.N + 256 * 1024

    def test_load_spectrum_peak(self, tmp_path):
        levels = np.cumsum(np.random.default_rng(3).exponential(size=self.N))
        path = tmp_path / "levels.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in levels))
        assert traced_peak(lambda: load_spectrum(path)) <= 12 * self.N + 256 * 1024


class TestErrorOrder:
    """A byte that is not UTF-8 is reported before any other fault of a file."""

    def test_comments_only_with_bad_byte(self, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_bytes(b"# \xe9nergie\n# still a comment\n\n")
        with pytest.raises(SpectrumParseError,
                           match=rf"^{re.escape(str(path))}: line 1: not UTF-8 text"):
            load_spectrum(path)

    def test_bad_byte_after_bad_value(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"raw_spacing\nabc\n1.5\n2.5\n\xff3.5\n")
        with pytest.raises(SpectrumParseError,
                           match=rf"^{re.escape(str(path))}: line 5: not UTF-8 text"):
            load_spacings(path)


# a line of the property below: a number, or digits mixed with '.', ',', '#', blanks,
# the characters only str.splitlines() breaks at, and a digit float() reads but numpy does not
_RULE_LINE = st.one_of(
    st.text("0123456789", min_size=1, max_size=3),
    st.lists(st.one_of(st.sampled_from("0123456789"), st.sampled_from(
        [*".,# \t", *_ODD_BREAKS, "\xa0", "\u3000", "\uff17"])), max_size=5).map("".join))


@st.composite
def _rule_texts(draw):
    """A text of ``_RULE_LINE`` lines ended by \\n, \\r\\n or \\r, maybe led by a BOM."""
    lines = draw(st.lists(st.tuples(_RULE_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12))
    last = draw(_RULE_LINE)
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(map("".join, lines)) + last


class TestOneLineRule:
    """One rule cuts every input into lines: one leading BOM dropped, \\n, \\r\\n or \\r ends a line."""

    @settings(max_examples=150, database=None)
    @given(_rule_texts())
    def test_file_reads_as_its_text(self, tmp_path_factory, body):
        for csv in (False, True):
            from_file, from_text = _file_and_text_outcomes(tmp_path_factory.mktemp("rule"), body, csv)
            assert from_file == from_text

    @pytest.mark.parametrize("brk", _ODD_BREAKS)
    @pytest.mark.parametrize("csv, noun", [(False, "level"), (True, "spacing")])
    def test_retired_break_in_a_value_is_refused_at_its_line(self, tmp_path, brk, csv, noun):
        from_file, from_text = _file_and_text_outcomes(tmp_path, f"1.5\n2{brk}5\n3.5\n", csv)
        assert from_file == from_text
        assert from_file[0] == "error" and f": line 2: cannot read a {noun} from " in from_file[1]

    @pytest.mark.parametrize("brk", _ODD_BREAKS)
    @pytest.mark.parametrize("csv", [False, True], ids=["spectrum", "spacings"])
    def test_retired_break_in_a_comment_stays_in_it(self, tmp_path, brk, csv):
        from_file, from_text = _file_and_text_outcomes(tmp_path, f"# x{brk}9.5\n1.5\n2.5\n3.5\n", csv)
        assert from_file == from_text == (np.dtype(float), np.array([1.5, 2.5, 3.5]).tobytes())

    def test_parse_levels_drops_one_byte_order_mark(self):
        assert parse_levels("\ufeff1.0\n2.0\n3.0\n").levels.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(SpectrumParseError, match=r"^line 1: cannot read a level"):
            parse_levels("\ufeff\ufeff1.0\n2.0\n3.0\n")

    @pytest.mark.parametrize("body, lineno", [
        (b"1\n2\n\xff3\n4\n", 3),
        (b"1\r2\r\xff3\r4\r", 3),
        (b"1\r\n2\r\n\xff3\r\n4\r\n", 3),
        (b"1\r\xff\n", 2),
        (b"\xef\xbb\xbf\xff1\n2\n3\n", 1),
        (b"\xef\xbb\xbf1\r2\r3\xff\r", 3),
    ], ids=["lf", "cr", "crlf", "cr-then-bad-byte", "bom-first-line", "bom-cr"])
    def test_bad_utf8_byte_names_its_line(self, tmp_path, body, lineno):
        path = tmp_path / "levels.txt"
        path.write_bytes(body)
        with pytest.raises(SpectrumParseError,
                           match=rf"^{re.escape(str(path))}: line {lineno}: not UTF-8 text"):
            load_spectrum(path)


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
    def test_global_mean_keeps_its_spacings(self):
        # the spacings, their unfolded copy and the normalized sample: normalize copies none
        n = 10**5
        levels = np.cumsum(np.random.default_rng(6).exponential(size=n))
        levels.flags.writeable = False
        spectrum = SpectrumFile(levels=levels)
        assert traced_peak(lambda: unfold(spectrum, GlobalMean())) <= 28 * n

    def test_poly_fit_forms_no_vandermonde_matrix(self):
        # seven arrays of n floats, where an n x 8 matrix took 112 bytes a level and the
        # spacings, which the fit never reads, an eighth array
        n = 10**5
        levels = np.cumsum(np.random.default_rng(6).exponential(size=n))
        levels.flags.writeable = False
        spectrum = SpectrumFile(levels=levels)
        assert traced_peak(lambda: unfold(spectrum, PolynomialStaircase(7))) <= 60 * n

    def test_unknown_method_refused(self):
        with pytest.raises(TypeError, match="^unknown unfolding method 'global'$"):
            unfold(parse_levels("1\n2\n3\n"), "global")

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
        # the first spacing swamps the cumulative sum, so the later windows' sums cancel
        tiny = SpectrumFile(levels=np.array([-1e20, 0.0, 1e-300, 2e-300, 3e-300, 4e-300]))
        with pytest.raises(ValueError, match="^a local mean spacing rounds to zero"):
            unfold(tiny, LocalWindow(3))
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


_UNFOLD_METHODS = st.one_of(
    st.just(GlobalMean()),
    st.integers(0, 20).map(lambda h: LocalWindow(2 * h + 1)),
    st.integers(1, 9).map(PolynomialStaircase),
)


class TestUnfoldProperties:
    @settings(max_examples=150, deadline=None, database=None)
    @given(st.lists(_FLOATS, min_size=3, max_size=60, unique=True), _UNFOLD_METHODS)
    def test_finite_nonnegative_unit_mean(self, values, method):
        spectrum = SpectrumFile(levels=np.sort(np.asarray(values)))
        try:
            out = unfold(spectrum, method).normalized
        except ValueError:
            return
        assert np.all(np.isfinite(out))
        assert np.all(out >= 0.0)
        assert abs(out.mean() - 1.0) <= 1e-12


def _lstsq_spacings(levels, degree):
    """Differences of the ``Polynomial.fit`` staircase: a reference, which ``unfold`` never calls."""
    fit = np.polynomial.Polynomial.fit(levels, np.arange(1.0, levels.size + 1), degree)
    return np.diff(fit(levels))


def _raise_if_called(*args, **kwargs):
    raise AssertionError("the staircase fit called lstsq")


def _stretched_spectrum():
    rng = np.random.default_rng(12)
    x = np.cumsum(rng.exponential(size=5000))
    return x + x * x / x[-1]  # density falls by a factor of 3 across the spectrum


def _goe_matrix_spectrum():
    a = np.random.default_rng(13).standard_normal((400, 400))
    return np.linalg.eigvalsh((a + a.T) / 2.0)


_SPECTRA = {
    "poisson": lambda: np.cumsum(np.random.default_rng(11).exponential(size=5000)),
    "goe-matrix": _goe_matrix_spectrum,
    "stretched": _stretched_spectrum,
}
# 173 unit-spaced levels and one at 7.8e13, refused by poly:2
_ROUNDED_AWAY = np.append(np.arange(173.0), 7.8e13)
_ROUNDED_MAP = ("the map of the levels onto [-1, 1] rounds away their spacings; "
                "use local:w or global unfolding")
# 1000 unit-spaced levels and one far out: the Gram matrix's condition number is
# 2e12 at degree 2 and the Cholesky factorization fails from degree 7
_CLUSTERED = np.append(np.arange(1000.0), 1e9)
_UNFOLD_ERRORS = ("degenerate staircase fit: ", "fitted staircase is not increasing",
                  "the spectrum's span overflows a float", _ROUNDED_MAP)


class TestPolynomialStaircaseFit:
    @pytest.mark.parametrize("degree", [3, 7, 9])
    @pytest.mark.parametrize("name", list(_SPECTRA))
    def test_legendre_fit_matches_lstsq_without_calling_it(self, monkeypatch, name, degree):
        levels = _SPECTRA[name]()
        want = stats.normalize(_lstsq_spacings(levels, degree))
        monkeypatch.setattr(np.linalg, "lstsq", _raise_if_called)
        monkeypatch.setattr(np.polynomial.Polynomial, "fit", _raise_if_called)
        got = unfold(SpectrumFile(levels=levels), PolynomialStaircase(degree))
        for curve in curves.CURVE_ORDER:
            assert abs(stats.ks_test(got, curve).d - stats.ks_test(want, curve).d) <= 1e-10

    def test_clustered_fit_is_as_close_to_mpmath_as_lstsq(self):
        # the cluster's far level at 1e7, not _CLUSTERED's 1e9: there the map
        # onto [-1, 1] costs the steps 5.6e-8 and the fit is refused
        mpmath = pytest.importorskip("mpmath")
        levels = np.append(np.arange(1000.0), 1e7)
        with mpmath.workdps(60):
            lo, hi = mpmath.mpf(levels[0]), mpmath.mpf(levels[-1])
            u = [(mpmath.mpf(x) - lo) / (hi - lo) * 2 - 1 for x in levels]
            powers = mpmath.matrix([[ui**k for k in range(3)] for ui in u])
            gram = powers.T * powers
            coef = mpmath.lu_solve(gram, powers.T * mpmath.matrix(list(range(1, len(u) + 1))))
            fit = powers * coef
            want = np.array([float(fit[i + 1] - fit[i]) for i in range(len(u) - 1)])
        got = unfold(SpectrumFile(levels=levels), PolynomialStaircase(2)).raw
        lstsq = _lstsq_spacings(levels, 2)
        assert np.max(np.abs(got / want - 1.0)) <= np.max(np.abs(lstsq / want - 1.0))

    @pytest.mark.parametrize("levels", [_ROUNDED_AWAY, _CLUSTERED], ids=["173-and-7.8e13", "clustered"])
    def test_map_that_rounds_away_the_spacings_is_refused(self, levels):
        # u = (x - lo) / (hi - lo) * 2 - 1 rounds to 1.1e-16 absolute, and the
        # cluster's gaps of u are 2.6e-14 (2e-9 for _CLUSTERED): its normalized
        # steps would be 4.3e-3 (5.6e-8) away from a 60-digit fit
        with pytest.raises(ValueError, match=f"^{re.escape(_ROUNDED_MAP)}$"):
            unfold(SpectrumFile(levels=levels), PolynomialStaircase(2))

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # a threaded BLAS changes the last bits of a 1-d ``u @ u``; np.einsum calls no BLAS
        src = str(Path(ingest.__file__).resolve().parents[1])
        code = ("import hashlib, numpy as np; from spacinglab import ingest; "
                "levels = np.cumsum(np.random.default_rng(6).exponential(size=10**5)); "
                "out = ingest.unfold(ingest.SpectrumFile(levels=levels), ingest.PolynomialStaircase(7)); "
                "print(hashlib.sha256(out.normalized.tobytes()).hexdigest())")
        digests = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                                  env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
                                  ).stdout for threads in ("1", "2")}
        assert len(digests) == 1

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.floats(1e-6, 1e6), min_size=19, max_size=199), st.floats(-1e6, 1e6),
           st.integers(1, 9))
    def test_matches_lstsq_where_the_legendre_gram_is_well_conditioned(self, gaps, start, degree):
        # the inputs on which the fit solved the Legendre normal equations
        levels = start + np.cumsum(gaps)
        assume(np.all(levels[1:] > levels[:-1]))
        u = (levels - levels[0]) / (levels[-1] - levels[0]) * 2.0 - 1.0
        vander = np.polynomial.legendre.legvander(u, degree)
        assume(np.linalg.cond(vander.T @ vander) <= 1e8)
        # Polynomial.fit is given unfold's own u: its map of the levels onto [-1, 1]
        # loses the digits of a tight cluster, by up to 2e-7 in the spacings here
        fit = np.polynomial.Polynomial.fit(u, np.arange(1.0, u.size + 1), degree, domain=[-1, 1])
        want = np.diff(fit(u))
        try:
            got = unfold(SpectrumFile(levels=levels), PolynomialStaircase(degree)).normalized
        except ValueError as exc:
            assert str(exc).startswith("fitted staircase is not increasing")
            assert want.min() <= 1e-9 * want.mean()
        else:
            assert np.max(np.abs(got - want / want.mean())) <= 1e-9

    @pytest.mark.parametrize("degree", [3, 7, 9])
    def test_rank_refusal_is_kept(self, degree):
        with pytest.raises(ValueError, match=f"^degenerate staircase fit: the levels fix fewer "
                                             f"than {degree + 1} coefficients; lower the degree$"):
            unfold(SpectrumFile(levels=_CLUSTERED), PolynomialStaircase(degree))

    def test_underflowed_norm_is_refused(self):
        # u is [-1, -1, -1, 1], on which q_2 is 0: refused before it divides 0 by 0
        with pytest.raises(ValueError, match="^degenerate staircase fit: the levels fix fewer "
                                             "than 4 coefficients; lower the degree$"):
            unfold(SpectrumFile(levels=np.array([0.0, 1.0, 2.0, 7.2e16])), PolynomialStaircase(3))

    @pytest.mark.parametrize("levels", [
        [0.0, 1.0, 8.99e307],
        [-8.9e307, 0.0, 8.9e307],
        [0.0, 1e308, 1.7976931348623157e308],
        [-1e308, 0.0, 1e308],
        np.linspace(-8.98e307, 8.98e307, 50),
        np.append(9e307 + np.arange(1000.0) * 1e292, 1.7e308),
        np.arange(20) * 5e-324,
        np.linspace(1e-310, 3e-310, 30),
        _CLUSTERED * 5e-324,
    ], ids=["8.99e307", "symmetric", "largest", "span-overflows", "wide-linspace",
            "wide-clustered", "subnormal-steps", "subnormal-linspace", "subnormal-clustered"])
    def test_extreme_spans_unfold_or_refuse(self, levels):
        spectrum = SpectrumFile(levels=np.asarray(levels, dtype=float))
        for degree in range(1, min(spectrum.levels.size, 10)):
            try:
                out = unfold(spectrum, PolynomialStaircase(degree)).normalized
            except ValueError as exc:
                assert str(exc).startswith(_UNFOLD_ERRORS), exc
            else:
                assert np.all(np.isfinite(out)) and np.all(out >= 0.0)
                assert abs(out.mean() - 1.0) <= 1e-12
