"""Export consistency: every exported name resolves, the package
re-exports only names its submodules export, and no module uses a
sibling's private names."""

import ast
import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

import pytest

import twostage_fdr

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path(twostage_fdr.__path__[0])
MODULES = sorted(info.name for info in pkgutil.iter_modules(twostage_fdr.__path__))


def _exported(module):
    return getattr(importlib.import_module(f"twostage_fdr.{module}"), "__all__", ())


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"twostage_fdr.{name}")
    exported = _exported(name)
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_only_submodule_exports():
    exported = set()
    for name in MODULES:
        exported.update(_exported(name))
    public = [n for n, v in vars(twostage_fdr).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert [n for n in public if n not in exported] == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _sibling_reads(name):
    """A module's relative imports, the sibling module each alias binds
    (`from . import copula as cp` binds cp to copula) and the attributes it
    reads through those aliases."""
    tree = _tree(PACKAGE / f"{name}.py")
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
    found = [f"line {n.lineno}: imports {n.module}.{a.name}"
             for n in imports if n.module is not None for a in n.names
             if not a.name.startswith("_") and a.name not in _exported(n.module)]
    found += [f"line {n.lineno}: reads {n.value.id}.{n.attr}" for n in reads
              if not n.attr.startswith("_") and n.attr not in _exported(siblings[n.value.id])]
    assert found == []


# Exports no program code reads, each kept as the oracle of the tests named.
TEST_ORACLES = {
    "copula.kendall_tau": "tests/test_copula.py::TestTauMaps::test_round_trip_all_families",
    "procedure.estimate_fdr": "tests/test_procedure.py::TestPi0AndFdr::test_fdr_arithmetic",
    "ingest.bootstrap_logfolds":
        "tests/test_acceptance.py::test_criterion_7_exhaustive_bootstrap",
}


def _names_read(path):
    """Every name a file reads: loaded names, attributes and imported names."""
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_every_export_is_read_by_program_code():
    """A name in a module's __all__ is read by the package outside
    __init__ or by perfbench/, unless it is a listed test oracle."""
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (REPO / "perfbench").glob("*.py")
    read = set().union(*map(_names_read, sources))
    unread = [f"{name}.{n}" for name in MODULES for n in _exported(name) if n not in read]
    assert sorted(set(unread) - set(TEST_ORACLES)) == []
    assert sorted(set(TEST_ORACLES) - set(unread)) == []
    for export, test in TEST_ORACLES.items():
        assert export.split(".")[1] in _names_read(REPO / test.split("::")[0]), export


def _tracing():
    """perfbench/tracing.py, loaded from its file: the benchmark's tracer."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()


@pytest.mark.parametrize("module, name", TRACING.REQUIRED_ALIASES,
                         ids=[f"{m}.{n}" for m, n in TRACING.REQUIRED_ALIASES])
def test_trace_binding_is_its_home_function(module, name):
    """The tracer replaces a traced function under every name bound to it,
    and refuses to run when one of these by-name imports is gone: each must
    stay bound in its module to the function it imports."""
    homes = {f"{home}.{fname}": getattr(importlib.import_module(f"twostage_fdr.{home}"), fname)
             for home, fnames in TRACING.TRACED.items() for fname in fnames}
    bound = getattr(importlib.import_module(f"twostage_fdr.{module}"), name, None)
    assert bound is not None, f"twostage_fdr.{module} no longer binds {name}"
    found = [home for home, fn in homes.items() if fn is bound]
    assert found, f"twostage_fdr.{module}.{name} is none of the traced functions"
