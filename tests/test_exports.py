"""Export consistency: every exported name resolves, the package
re-exports only names its submodules export, and no module uses a
sibling's private names."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

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


def _private(name):
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("name", MODULES)
def test_no_private_name_from_a_sibling(name):
    path = Path(twostage_fdr.__path__[0]) / f"{name}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level > 0]
    # `from . import copula as cp` binds cp to a sibling module
    siblings = {a.asname or a.name for n in imports if n.module is None for a in n.names}
    found = [f"line {n.lineno}: imports {a.name}"
             for n in imports for a in n.names if _private(a.name)]
    found += [f"line {n.lineno}: reads {n.value.id}.{n.attr}" for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and _private(n.attr)
              and isinstance(n.value, ast.Name) and n.value.id in siblings]
    assert found == []
