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


def _sibling_reads(name):
    """A module's relative imports, the sibling module each alias binds
    (`from . import copula as cp` binds cp to copula) and the attributes it
    reads through those aliases."""
    path = Path(twostage_fdr.__path__[0]) / f"{name}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level > 0]
    siblings = {a.asname or a.name: a.name for n in imports if n.module is None for a in n.names}
    reads = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute)
             and isinstance(n.value, ast.Name) and n.value.id in siblings]
    return imports, siblings, reads


@pytest.mark.parametrize("name", MODULES)
def test_no_private_name_from_a_sibling(name):
    imports, _, reads = _sibling_reads(name)
    found = [f"line {n.lineno}: imports {a.name}"
             for n in imports for a in n.names if _private(a.name)]
    found += [f"line {n.lineno}: reads {n.value.id}.{n.attr}" for n in reads if _private(n.attr)]
    assert found == []


@pytest.mark.parametrize("name", MODULES)
def test_public_name_from_a_sibling_is_exported(name):
    imports, siblings, reads = _sibling_reads(name)

    def exported(module):
        return getattr(importlib.import_module(f"twostage_fdr.{module}"), "__all__", ())

    found = [f"line {n.lineno}: imports {n.module}.{a.name}"
             for n in imports if n.module is not None for a in n.names
             if not a.name.startswith("_") and a.name not in exported(n.module)]
    found += [f"line {n.lineno}: reads {n.value.id}.{n.attr}" for n in reads
              if not n.attr.startswith("_") and n.attr not in exported(siblings[n.value.id])]
    assert found == []
