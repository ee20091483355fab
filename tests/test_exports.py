"""Every name an export list promises resolves, so a removed name cannot linger there."""

import importlib
import pkgutil

import pytest

import spacinglab

# __main__ runs the CLI on import
MODULES = ["spacinglab"] + [f"spacinglab.{m.name}"
                            for m in pkgutil.iter_modules(spacinglab.__path__)
                            if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_classification_is_exported():
    from spacinglab import stats

    for module in (spacinglab, stats):
        assert {"Classification", "classify"} <= set(module.__all__)
