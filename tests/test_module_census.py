"""Caller census: every module under ``src/repro`` has an importer, and
every definition in ``repro.core`` and ``repro.netlist`` has a caller.

A module that no file in ``src/``, ``perfbench/`` (its tests aside),
``benchmarks/`` or ``tools/`` imports is reached by nothing a user runs,
only by its own tests.  This census parses each of those files with
:mod:`ast` and fails naming every ``repro`` module without an importer,
so deleted code stays deleted and new code arrives with a caller.
``tests/`` and ``examples/`` are not importers.

What counts as an import: ``import a.b``, ``from a.b import c`` (which
imports ``a.b``, and ``a.b.c`` too when that is a module), relative
imports once resolved, and imports inside functions.  Importing a
module imports every package above it.  A file is never a caller of
itself or of a package it lives in.

The definition census goes one level down.  A definition is a
module-level ``def`` or ``class`` in ``src/repro/core/**`` or
``src/repro/netlist/**``, or a method of such a class other than a
``__dunder__``; nested functions are not definitions.  It has a caller
when its name appears as an ``ast.Name`` id or an ``ast.Attribute``
attr in some caller file: the importers' files plus ``examples/`` (an
example demonstrates a public name, and CI runs every one on every
push).  Imports do not count, so a name that is only imported or
re-exported has no caller; the defining file counts, so a helper may be
called beside its definition.  Names match by their last part, so a
definition shares its callers with every same-named one.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "perfbench", "benchmarks", "tools")
DEFINITION_CALLER_DIRS = (*CALLER_DIRS, "examples")
DEFINITION_PACKAGES = ("core", "netlist")

#: Modules kept with no importer, each with its reason.  Never add an
#: entry without one: a module nothing imports is deleted or given a
#: caller instead.
ALLOWLIST = {
    "repro.__main__": "the `python -m repro` entry point",
    "repro.sim.seq_fault_sim": (
        "the multi-cycle ground truth that tests/test_seq_fault_sim.py "
        "checks multi_cycle_observability against"
    ),
    "repro.testing": (
        "the fault-injection harness the chaos tests thread into worker "
        "pools and the service, shipped for deployments' smoke tests"
    ),
}

#: Definitions kept with no caller, each with its reason.  Never add an
#: entry without one: a definition nothing names is deleted or given a
#: caller instead.
DEFINITION_ALLOWLIST = {
    "repro.netlist.validate.validate_circuit": "exported from `repro`",
    "repro.netlist.validate.ValidationReport.ok": (
        "the verdict of validate_circuit's report, exported with it"
    ),
    "repro.netlist.circuit.Circuit.evaluate": (
        "the reference semantics the tests compare the simulators and "
        "transforms against"
    ),
    "repro.netlist.transform.to_combinational": (
        "the sequential cut that exact_signal_probabilities' error "
        "message tells users to apply"
    ),
    "repro.netlist.transform.CombinationalView.is_identity": (
        "whether that cut changed anything, read off its result"
    ),
    "repro.core.baseline.RandomSimulationEstimator.estimate_adaptive": (
        "the sequential-stopping estimator ROADMAP item 4 replaces"
    ),
    "repro.core.epp_shard.ShardedEPPEngine.worker_stats": (
        "the probe that pins one plan per pool worker"
    ),
    "repro.core.fourvalue.EPPValue.isclose": (
        "the 1e-9 comparison the backend-equivalence tests use"
    ),
}


def _module_name(path: Path, src: Path) -> str | None:
    """The dotted name of a file under ``src``; ``None`` elsewhere."""
    if not path.is_relative_to(src):
        return None
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _packages_of(name: str) -> set[str]:
    """``a.b.c`` -> ``{"a", "a.b"}``."""
    parts = name.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts))}


def _imported_names(path: Path, module: str | None, modules: set[str]) -> set[str]:
    """Every dotted module name ``path`` imports (packages above not added)."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if module is None:
                    continue  # outside src/: names no repro module
                package = module if path.name == "__init__.py" else module.rpartition(".")[0]
                for _ in range(node.level - 1):
                    package = package.rpartition(".")[0]
                base = f"{package}.{base}" if base else package
            names.add(base)
            names.update(
                f"{base}.{alias.name}" for alias in node.names
                if f"{base}.{alias.name}" in modules
            )
    return names


def _caller_files(root: Path, directories) -> list[Path]:
    return [
        path
        for directory in directories
        for path in (root / directory).rglob("*.py")
        if not path.is_relative_to(root / "perfbench" / "tests")
    ]


@functools.cache
def census(root: Path = ROOT) -> tuple[set[str], set[str]]:
    """``(modules, imported)``: every ``repro`` module under
    ``root/src``, and those some other scanned file imports."""
    src = root / "src"
    modules = {
        _module_name(path, src) for path in (src / "repro").rglob("*.py")
    }
    imported: set[str] = set()
    for path in _caller_files(root, CALLER_DIRS):
        module = _module_name(path, src)
        own = {module, *_packages_of(module)} if module else set()
        for name in _imported_names(path, module, modules):
            imported |= ({name} | _packages_of(name)) - own
    return modules, imported & modules


def _definitions(path: Path, module: str) -> dict[str, str]:
    """``{qualified name: name}`` of every definition in one file."""
    found: dict[str, str] = {}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(node, (*functions, ast.ClassDef)):
            continue
        found[f"{module}.{node.name}"] = node.name
        if not isinstance(node, ast.ClassDef):
            continue
        for method in node.body:
            if isinstance(method, functions) and not (
                method.name.startswith("__") and method.name.endswith("__")
            ):
                found[f"{module}.{node.name}.{method.name}"] = method.name
    return found


@functools.cache
def definition_census(root: Path = ROOT) -> tuple[dict[str, str], set[str]]:
    """``(definitions, named)``: ``{qualified name: name}`` of every
    definition, and every name some caller file mentions."""
    src = root / "src"
    definitions: dict[str, str] = {}
    for package in DEFINITION_PACKAGES:
        for path in sorted((src / "repro" / package).rglob("*.py")):
            definitions.update(_definitions(path, _module_name(path, src)))
    named: set[str] = set()
    for path in _caller_files(root, DEFINITION_CALLER_DIRS):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return definitions, named


def test_every_module_has_a_caller():
    modules, imported = census()
    orphans = sorted(modules - imported - set(ALLOWLIST))
    assert not orphans, (
        "no file in src/, perfbench/, benchmarks/ or tools/ imports "
        f"{', '.join(orphans)}: delete the module or give it a caller"
    )


def test_allowlist_is_current():
    # An entry whose module is gone, or that gained a caller, is stale.
    modules, imported = census()
    assert set(ALLOWLIST) <= modules
    assert not set(ALLOWLIST) & imported


def test_census_counts_every_import_form(tmp_path):
    # Function-local, relative and ``from pkg import sub`` imports count;
    # a file's imports of itself and of its own package do not.
    files = {
        "src/repro/__init__.py": "",
        "src/repro/a.py": "def f():\n    from repro import b\n",
        "src/repro/b.py": "import repro.b\nfrom . import c\n",
        "src/repro/c.py": "",
        "src/repro/d.py": "",
        "src/repro/lone.py": "import repro.a\n",
        "src/repro/sub/__init__.py": "",
        "src/repro/sub/e.py": "from ..d import x\nfrom . import f\n",
        "src/repro/sub/f.py": "",
        "src/repro/own/__init__.py": "",
        "src/repro/own/g.py": "import repro.own\nfrom repro.own import g\n",
        "tools/t.py": "import repro.a\nimport repro.sub.e\n",
        "perfbench/tests/test_x.py": "import repro.lone\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    modules, imported = census(tmp_path)
    assert modules - imported == {"repro.lone", "repro.own", "repro.own.g"}


def test_every_definition_has_a_caller():
    definitions, named = definition_census()
    orphans = sorted(
        qualified for qualified, name in definitions.items()
        if name not in named and qualified not in DEFINITION_ALLOWLIST
    )
    assert not orphans, (
        "no file in src/, perfbench/ (tests aside), benchmarks/, tools/ or "
        f"examples/ names {', '.join(orphans)}: delete the definition or "
        "give it a caller"
    )


def test_definition_allowlist_is_current():
    # An entry whose definition is gone, or that gained a caller, is stale.
    definitions, named = definition_census()
    assert set(DEFINITION_ALLOWLIST) <= set(definitions)
    assert not {
        qualified for qualified in DEFINITION_ALLOWLIST
        if definitions[qualified] in named
    }


def test_definition_census_counts_names_and_attributes_not_imports(tmp_path):
    # A Name or an Attribute anywhere in a caller file counts, the
    # defining file's own included; an import does not, nor does a name
    # in tests/ or perfbench/tests/.  Dunders, nested functions and
    # packages outside core/ and netlist/ hold no definitions.
    files = {
        "src/repro/__init__.py": "",
        "src/repro/core/__init__.py": "from repro.core.a import imported\n",
        "src/repro/core/a.py": (
            "def by_name():\n"
            "    def nested():\n"
            "        pass\n"
            "    helper()\n"
            "def helper():\n"
            "    pass\n"
            "def imported():\n"
            "    pass\n"
            "class K:\n"
            "    def __init__(self):\n"
            "        pass\n"
            "    def by_attribute(self):\n"
            "        pass\n"
            "    def tested(self):\n"
            "        pass\n"
            "    @property\n"
            "    def benched(self):\n"
            "        pass\n"
        ),
        "src/repro/netlist/b.py": "def shown():\n    pass\n",
        "src/repro/sim/c.py": "def elsewhere():\n    pass\n",
        "tools/t.py": "import repro.core.a as a\na.by_name()\n",
        "examples/e.py": (
            "from repro.core.a import K\n"
            "from repro.netlist.b import shown\n"
            "K().by_attribute()\n"
            "shown()\n"
        ),
        "perfbench/tests/test_x.py": "from repro.core.a import K\nK().benched\n",
        "tests/test_y.py": "from repro.core.a import K\nK().tested()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    definitions, named = definition_census(tmp_path)
    assert set(definitions) == {
        "repro.core.a.by_name", "repro.core.a.helper", "repro.core.a.imported",
        "repro.core.a.K", "repro.core.a.K.by_attribute", "repro.core.a.K.tested",
        "repro.core.a.K.benched", "repro.netlist.b.shown",
    }
    orphans = {q for q, name in definitions.items() if name not in named}
    assert orphans == {
        "repro.core.a.imported", "repro.core.a.K.tested", "repro.core.a.K.benched",
    }
