"""The package's input rules: counts refuse bools, and every number input is real.

``_checks.real_array`` decides what counts as a real number for ``pdf``,
``cdf``, ``small_x_approx``, ``normalize``, the matrix builders, kappa and
``SpectralParams``; each caller then checks shape and domain itself.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacinglab import _checks, cli, ingest, stats
from spacinglab.curves import cdf, moment, pdf, small_x_approx
from spacinglab.ensembles import (
    GOE,
    GPOE,
    GPUE,
    GSE,
    GUE,
    EnsembleKind,
    SamplerConfig,
    SpectralParams,
    eigenvalues,
    pseudo_hermiticity_residual,
    qh3,
    qh4,
    realize_matrix,
    sample_spacings,
    spectral_to_params,
)
from spacinglab.stats import normalize

KINDS = [GOE, GUE, GSE, GPOE, GPUE, qh3(0.35), qh4(1.2)]


def read_only_table():
    table = np.array([[1.0, 3.0], [2.0, 2.0]])
    table.flags.writeable = False
    return table


REFUSED = [
    (lambda: cdf("GOE", np.array([1 + 2j])), "^spacing argument must be real numbers"),
    (lambda: cdf("GOE", np.array(["2020-01-01"], "datetime64[D]")),
     "^spacing argument must be real numbers"),
    (lambda: pdf("GOE", 1 + 2j), "^spacing argument must be real numbers"),
    (lambda: pdf("GOE", "1"), "^spacing argument must be real numbers"),
    (lambda: pdf("GOE", True), "^spacing argument must be real numbers"),
    (lambda: small_x_approx("GPOE", 0.1 + 0j), "^spacing argument must be real numbers"),
    (lambda: normalize([1 + 1j, 2]), "^spacings must be real numbers"),
    (lambda: normalize(["1", "2"]), "^spacings must be real numbers"),
    # was flattened into four spacings
    (lambda: normalize(read_only_table()), r"^spacings must be one-dimensional, got shape \(2, 2\)$"),
    (lambda: eigenvalues(GOE, [True, False, True]), "^GOE parameters must be real numbers"),
    (lambda: ingest.LocalWindow(True), "^LocalWindow width must be an integer, not True$"),
    (lambda: ingest.PolynomialStaircase(True), "^PolynomialStaircase degree must be an integer"),
    (lambda: SamplerConfig(seed=True), "^seed must be an integer, not True$"),
    (lambda: moment("GOE", True), "^moment order must be an integer, not True$"),
    (lambda: sample_spacings(GOE, True, SamplerConfig()), "^n_accepted must be an integer"),
    # entries numpy casts to float: True as 1.0, "1" as 1.0, None as NaN
    (lambda: pdf("GOE", [True, 0.5]), r"^spacing argument must be real numbers, got \[True, 0.5\]$"),
    (lambda: normalize([True, 2.0]), "^spacings must be real numbers"),
    (lambda: eigenvalues(GOE, [True, 0.0, 1.0]), "^GOE parameters must be real numbers"),
    (lambda: realize_matrix(GPOE, [0.0, np.True_, 1.0]), "^GPOE parameters must be real numbers"),
    (lambda: pdf("GOE", np.array(["1"], dtype=object)), "^spacing argument must be real numbers"),
    (lambda: cdf("GOE", np.array([0.5, b"1"], dtype=object)), "^spacing argument must be real numbers"),
    (lambda: pdf("GOE", None), "^spacing argument must be real numbers, got None$"),
    (lambda: normalize([1.0, None]), "^spacings must be real numbers"),
    (lambda: pseudo_hermiticity_residual(GPUE, np.array([0.0, 1.0, None, 2.0])),
     "^GPUE parameters must be real numbers"),
    # numpy keeps a 0-d array in a list whole, and casts it
    (lambda: pdf("GOE", [np.array(True), 0.5]), "^spacing argument must be real numbers"),
    (lambda: SpectralParams(t=0.0, s=np.array(1, "datetime64[D]"), theta=0.0),
     "^SpectralParams coordinates must be real numbers"),
    # kappa and the spectral coordinates: TypeError, a DeprecationWarning or a bool
    # read as 1.0 before the rule reached them
    (lambda: EnsembleKind("QH3", [0.5, 1.0]), r"^kappa must be one number in \[0, 100\], not \[0.5, 1.0\]$"),
    (lambda: qh4([0.5]), r"^kappa must be one number in \[0, 100\], not \[0.5\]$"),
    (lambda: qh3(np.array([0.5], dtype=object)), r"^kappa must be one number"),
    (lambda: EnsembleKind("QH4"), "^kappa must be real numbers, got None$"),
    (lambda: SpectralParams(t=1j, s=1.0, theta=0.0), "^SpectralParams coordinates must be real numbers"),
    (lambda: SpectralParams(t="1", s=1.0, theta=0.0), "^SpectralParams coordinates must be real numbers"),
    (lambda: SpectralParams(t=True, s=1.0, theta=0.0), "^SpectralParams coordinates must be real numbers"),
    (lambda: SpectralParams(t=0.0, s=1.0, theta=None), "^SpectralParams coordinates must be real numbers"),
    (lambda: SpectralParams(t=[0.0, 1.0], s=1.0, theta=0.0),
     "^SpectralParams coordinates must be real numbers"),
    (lambda: SpectralParams(t=[0.5], s=[1.0], theta=[0.0], phi=[0.0]),
     "^SpectralParams requires one finite number each for t, s, theta, phi: "),
]


@pytest.mark.parametrize("call, message", REFUSED, ids=[
    "cdf-complex-array", "cdf-datetime", "pdf-complex", "pdf-str", "pdf-bool",
    "small-x-complex", "normalize-complex", "normalize-str", "normalize-2-d",
    "eigenvalues-bool", "local-window-bool", "poly-degree-bool", "seed-bool",
    "moment-bool", "n-accepted-bool", "pdf-list-bool", "normalize-list-bool",
    "eigenvalues-list-bool", "matrix-numpy-bool", "pdf-object-str", "cdf-object-bytes", "pdf-none",
    "normalize-none", "residual-object-none", "pdf-0-d-bool-in-list", "spectral-0-d-datetime",
    "kappa-list", "kappa-one-entry-list", "kappa-object-array", "kappa-none", "spectral-complex",
    "spectral-str", "spectral-bool", "spectral-none", "spectral-list", "spectral-all-lists"])
def test_refused_with_one_value_error_and_no_warning(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()


def test_two_column_sample_table_is_refused(tmp_path):
    # a whole `sample` table once normalized as 2n spacings, and its best fit moved off GOE
    path = tmp_path / "goe.csv"
    assert cli.main(["sample", "--ensemble", "goe", "--n", "2000", "--seed", "3",
                     "--out", str(path)]) == 0
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    with pytest.raises(ValueError, match=r"^spacings must be one-dimensional, got shape \(2000, 2\)$"):
        normalize(table)
    assert stats.classify(normalize(table[:, 0])).best_fit == "GOE"


def test_a_float64_array_is_not_copied():
    arr = np.arange(3.0)
    assert _checks.real_array(arr, "x") is arr
    out = _checks.real_array([1, 2], "x")
    assert out.dtype == np.float64 and out.tolist() == [1.0, 2.0]


def test_real_entries_pass():
    # numpy scalars, 0-d arrays in a list and object arrays of numbers are real numbers
    xs = [np.float32(0.25), np.array(0.5), np.array(1, dtype=object), 2]
    assert _checks.real_array(xs, "x").tolist() == [0.25, 0.5, 1.0, 2.0]
    assert _checks.real_array(np.array(xs, dtype=object), "x").tolist() == [0.25, 0.5, 1.0, 2.0]
    assert pdf("GOE", xs).tolist() == pdf("GOE", [0.25, 0.5, 1.0, 2.0]).tolist()
    sp = SpectralParams(t=np.array(0.5), s=np.int64(2), theta=np.float32(0.25), phi=1)
    assert spectral_to_params(GPUE, sp).tolist() == spectral_to_params(
        GPUE, SpectralParams(0.5, 2.0, 0.25, 1.0)).tolist()
    assert qh3(np.array(0.5)) == qh3(np.array(0.5, dtype=object)) == qh3(0.5)


# The property draws inputs of nine kinds.  Three hold real numbers (float, int,
# object).  Six are refused whatever the values or shape: four by their dtype
# (bool, complex, str, datetime64) and two by one entry that numpy would cast to
# float (a Python list that mixes a bool with floats, an object array holding
# text or None).  Two thirds of the inputs take their values from SMALL or FINITE
# alone, so that every function also meets inputs it takes; SMALL lies in every
# domain, small_x_approx's 0 < x < 0.5 and kappa's [0, 100] included.
SMALL = [0.125, 0.25]
FINITE = SMALL + [0.0, -0.0, 1.0, 2.5, 1e308]
FLOATS = FINITE + [-1.0, math.nan, math.inf, -math.inf]
INTS = [0, 1, 3, -1, 2**62]
REAL_DTYPES = ("float", "int", "object")
REFUSED_DTYPES = ("bool", "complex", "str", "datetime64", "bool-in-list", "text-or-none")


def build(dtype, values, shape, odd):
    """The input of ``dtype``, ``values`` and ``shape``: an ndarray, or a list for bool-in-list.

    ``odd`` is the text or None that a text-or-none array holds in its first entry.
    """
    if dtype == "float":
        arr = np.array(values, dtype=float)
    elif dtype == "int":
        arr = np.array([INTS[i % len(INTS)] for i in range(len(values))], dtype=np.int64)
    elif dtype == "bool":
        arr = np.array([v > 0.5 for v in values])
    elif dtype == "complex":
        arr = np.array(values, dtype=float) + 1j
    elif dtype == "str":
        arr = np.array([repr(v) for v in values])
    elif dtype == "datetime64":
        arr = np.arange(len(values)).astype("datetime64[D]")
    elif dtype == "bool-in-list":  # numpy reads this list as floats; at 0-d it is one bool
        return np.array([values[0] > 0.5, *values[1:]], dtype=object).reshape(shape).tolist()
    elif dtype == "text-or-none":
        arr = np.array([odd, *values[1:]], dtype=object)
    else:
        arr = np.array(values, dtype=object)
    return arr.reshape(shape)


@st.composite
def inputs(draw, n_params):
    """(dtype, shape, x): x as :func:`build` makes it or, unless it is a text-or-none object
    array, that ndarray's tolist(), which is a Python scalar at 0-d."""
    ndim = draw(st.sampled_from([0, 1, 2]))
    shape = (draw(st.sampled_from([1, 2, 3])),) * (ndim - 1)
    shape += (draw(st.sampled_from([1, 2, n_params])),) * (ndim > 0)
    pool = draw(st.sampled_from([SMALL, FINITE, FLOATS]))
    values = draw(st.lists(st.sampled_from(pool), min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    dtype = draw(st.sampled_from(REAL_DTYPES if draw(st.booleans()) else REFUSED_DTYPES))
    x = build(dtype, values, shape, draw(st.sampled_from(["0.5", b"0.5", None])))
    if isinstance(x, np.ndarray) and dtype != "text-or-none":
        x = draw(st.sampled_from([x, x.tolist()]))
    return dtype, shape, x


def check_result(name, shape, kind, out):
    """``out`` is a finite result of the shape the function documents for an input of ``shape``."""
    m = 4 if kind.tag == "GSE" else 2
    if name in ("pdf", "cdf", "small_x_approx"):
        if shape == ():
            assert type(out) is float and math.isfinite(out)
        else:
            assert out.shape == shape and out.dtype == np.float64 and np.isfinite(out).all()
    elif name == "normalize":
        assert len(shape) <= 1
        size = math.prod(shape)
        assert out.raw.shape == out.normalized.shape == (size,)
        assert np.isfinite(out.normalized).all() and out.mean > 0.0
    elif name == "eigenvalues":
        assert shape == (kind.n_params,)
        assert out is None or (len(out) == 2 and all(map(math.isfinite, out)) and out[0] >= out[1])
    elif name == "realize_matrix":
        assert shape[-1] == kind.n_params and out.shape == shape[:-1] + (m, m)
        assert np.isfinite(out).all()
    elif name == "spectral_to_params":
        assert shape == () and out.shape == (4 if kind.n_params == 4 else 3,)
        assert np.isfinite(out).all()
    elif name == "kappa":
        assert shape == () and type(out.kappa) is float and 0.0 <= out.kappa <= 100.0
    else:
        assert shape[-1] == kind.n_params and np.shape(out) == shape[:-1]
        assert np.isfinite(out).all()


CALLS = {
    "pdf": lambda kind, x: pdf(kind.reference_curve, x),
    "cdf": lambda kind, x: cdf(kind.reference_curve, x),
    "small_x_approx": lambda kind, x: small_x_approx("GPUE" if kind.n_params == 4 else "GPOE", x),
    "normalize": lambda kind, x: normalize(x),
    "eigenvalues": eigenvalues,
    "realize_matrix": realize_matrix,
    "pseudo_hermiticity_residual": pseudo_hermiticity_residual,
    # x is the coordinate s
    "spectral_to_params": lambda kind, x: spectral_to_params(
        GPUE if kind.n_params == 4 else GPOE, SpectralParams(t=0.5, s=x, theta=0.25, phi=0.125)),
    "kappa": lambda kind, x: (qh4 if kind.n_params == 4 else qh3)(x),
}


@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=150)
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_array_inputs_give_a_finite_result_or_one_value_error(name, kind, data):
    dtype, shape, x = data.draw(inputs(kind.n_params))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = CALLS[name](kind, x)
        except ValueError as err:
            if dtype not in REAL_DTYPES:  # refused by the number rule, before any shape check
                assert re.search("must be real numbers, got ", str(err))
            return
    assert dtype in REAL_DTYPES, f"{name} took a {dtype} input"
    check_result(name, shape, kind, out)
