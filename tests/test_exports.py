"""Every name an export list or README promises resolves, so a removed name cannot linger there."""

import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_names_resolve():
    # every backticked snake_case name in README, but a CSV column and a test id
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    names = set(re.findall(r"`([a-z][a-z0-9]*_[a-z0-9_]*)`", readme))
    names -= {"raw_spacing", "test_c04_nonmatching_curves"}
    modules = [importlib.import_module(name) for name in MODULES]
    assert names
    assert [n for n in sorted(names) if not any(hasattr(m, n) for m in modules)] == []
