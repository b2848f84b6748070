"""Export consistency: every exported name resolves, and the package
re-exports only names its submodules export."""

import importlib
import pkgutil
import types

import pytest

import twostage_fdr

MODULES = sorted(info.name for info in pkgutil.iter_modules(twostage_fdr.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"twostage_fdr.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_only_submodule_exports():
    exported = set()
    for name in MODULES:
        exported.update(getattr(importlib.import_module(f"twostage_fdr.{name}"), "__all__", ()))
    public = [n for n, v in vars(twostage_fdr).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert [n for n in public if n not in exported] == []
