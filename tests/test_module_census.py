"""Import census: every module under ``src/repro`` has a caller.

A module that no file in ``src/``, ``perfbench/`` (its tests aside),
``benchmarks/`` or ``tools/`` imports is reached by nothing a user runs,
only by its own tests.  This census parses each of those files with
:mod:`ast` and fails naming every ``repro`` module without an importer,
so deleted code stays deleted and new code arrives with a caller.
``tests/`` and ``examples/`` are not callers.

What counts as an import: ``import a.b``, ``from a.b import c`` (which
imports ``a.b``, and ``a.b.c`` too when that is a module), relative
imports once resolved, and imports inside functions.  Importing a
module imports every package above it.  A file is never a caller of
itself or of a package it lives in.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "perfbench", "benchmarks", "tools")

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


@functools.cache
def census(root: Path = ROOT) -> tuple[set[str], set[str]]:
    """``(modules, imported)``: every ``repro`` module under
    ``root/src``, and those some other scanned file imports."""
    src = root / "src"
    modules = {
        _module_name(path, src) for path in (src / "repro").rglob("*.py")
    }
    callers = [
        path
        for directory in CALLER_DIRS
        for path in (root / directory).rglob("*.py")
        if not path.is_relative_to(root / "perfbench" / "tests")
    ]
    imported: set[str] = set()
    for path in callers:
        module = _module_name(path, src)
        own = {module, *_packages_of(module)} if module else set()
        for name in _imported_names(path, module, modules):
            imported |= ({name} | _packages_of(name)) - own
    return modules, imported & modules


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
