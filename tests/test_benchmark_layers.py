"""The benchmark's traced run wraps functions by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [pytest.param(layer, fname, id=f"{layer}.{fname}")
            for layer, functions in tracing.LAYERS.items() for fname in functions]


@pytest.mark.parametrize("layer,fname", _layers())
def test_traced_function_is_callable(layer, fname):
    module = importlib.import_module(f"spacinglab.{layer}")
    assert callable(getattr(module, fname, None))
