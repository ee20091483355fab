"""The package's input rules: counts refuse bools, and every array input is real.

``_checks.real_array`` decides what counts as a real array for ``pdf``,
``cdf``, ``small_x_approx``, ``normalize`` and the matrix builders; each
caller then checks shape and domain itself.
"""

import math
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
    SamplerConfig,
    eigenvalues,
    pseudo_hermiticity_residual,
    qh3,
    qh4,
    realize_matrix,
    sample_spacings,
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
]


@pytest.mark.parametrize("call, message", REFUSED, ids=[
    "cdf-complex-array", "cdf-datetime", "pdf-complex", "pdf-str", "pdf-bool",
    "small-x-complex", "normalize-complex", "normalize-str", "normalize-2-d",
    "eigenvalues-bool", "local-window-bool", "poly-degree-bool", "seed-bool",
    "moment-bool", "n-accepted-bool"])
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


# The property draws inputs of seven dtypes: half hold real numbers (float, int,
# object), and half have a dtype that is refused whatever the values or shape.
# Two thirds of the inputs take their values from SMALL or FINITE alone, so that
# every function also meets inputs it takes; SMALL lies in every domain,
# small_x_approx's 0 < x < 0.5 included.
SMALL = [0.125, 0.25]
FINITE = SMALL + [0.0, -0.0, 1.0, 2.5, 1e308]
FLOATS = FINITE + [-1.0, math.nan, math.inf, -math.inf]
INTS = [0, 1, 3, -1, 2**62]
REAL_DTYPES = ("float", "int", "object")
REFUSED_DTYPES = ("bool", "complex", "str", "datetime64")


def build(dtype, values, shape):
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
    else:
        arr = np.array(values, dtype=object)
    return arr.reshape(shape)


@st.composite
def inputs(draw, n_params):
    """(dtype, shape, x): x an ndarray, or its tolist(), which is a Python scalar at 0-d."""
    ndim = draw(st.sampled_from([0, 1, 2]))
    shape = (draw(st.sampled_from([1, 2, 3])),) * (ndim - 1)
    shape += (draw(st.sampled_from([1, 2, n_params])),) * (ndim > 0)
    pool = draw(st.sampled_from([SMALL, FINITE, FLOATS]))
    values = draw(st.lists(st.sampled_from(pool), min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    dtype = draw(st.sampled_from(REAL_DTYPES if draw(st.booleans()) else REFUSED_DTYPES))
    arr = build(dtype, values, shape)
    return dtype, shape, draw(st.sampled_from([arr, arr.tolist()]))


def check_result(name, shape, kind, out):
    """``out`` is a finite result of the shape the function documents for an input of ``shape``."""
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
        m = 4 if kind.tag == "GSE" else 2
        assert shape[-1] == kind.n_params and out.shape == shape[:-1] + (m, m)
        assert np.isfinite(out).all()
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
            if dtype not in REAL_DTYPES:  # refused by the dtype rule, before any shape check
                assert "must be real numbers" in str(err)
            return
    assert dtype in REAL_DTYPES, f"{name} took a {dtype} input"
    check_result(name, shape, kind, out)
