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


def test_root_exports_each_library_module_once():
    modules = [importlib.import_module(f"spacinglab.{m}") for m in ("curves", "ensembles", "ingest", "stats")]
    names = [name for module in modules for name in module.__all__]
    assert spacinglab.__all__ == [*names, "__version__"]
    assert len(set(spacinglab.__all__)) == len(spacinglab.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(spacinglab, name) is getattr(module, name)
