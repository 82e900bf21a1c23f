#!/usr/bin/env python
"""Lint against knob-tuple threading regressions.

The PR-10 consolidation moved every analysis knob onto
``repro.core.config.AnalysisConfig`` precisely because hand-threading
the knob tuple through call layers shipped a seam bug per PR (bool-
coerced ``prune``, ``jobs`` bypassing validation, knobs missing from
cache identities).  This lint keeps the codebase consolidated: a call
or function signature inside ``src/repro`` that threads **5 or more
knob-named parameters** is a regression — such fan-outs must pass one
``AnalysisConfig`` instead.

Allowed exceptions:

* ``core/config.py`` itself (it *is* the knob table);
* calls whose callee is the config layer (``AnalysisConfig``,
  ``from_knobs``, ``replace``) — building the config object is the
  point.

Function signatures have no exemptions: an entry point that accepts
individual knobs takes ``config=None, **knobs`` and funnels them through
``AnalysisConfig.from_knobs``.

Run from the repo root: ``python tools/lint_knob_threading.py``.
Exits non-zero listing ``file:line`` for each violation.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.config import KNOB_KEYS  # noqa: E402

#: Threading this many knob-named parameters in one call/signature is a
#: regression (the historical seam bugs all involved full-surface runs).
THRESHOLD = 5

KNOB_SET = frozenset(KNOB_KEYS)

#: Callee names that legitimately take the full knob surface — they are
#: (or construct) the config layer itself.
ALLOWED_CALLEES = frozenset({"AnalysisConfig", "from_knobs", "replace"})

#: Files exempt wholesale.
SKIP_FILES = frozenset({"src/repro/core/config.py"})


def _callee_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _check_file(path: Path, rel: str) -> list[str]:
    tree = ast.parse(path.read_text(), filename=rel)
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            # kw.arg is None for **unpacking — that is the config layer
            # fanning a dict out, not hand-threading, so don't count it.
            named = {kw.arg for kw in node.keywords if kw.arg is not None}
            hit = named & KNOB_SET
            if len(hit) >= THRESHOLD and _callee_name(node) not in ALLOWED_CALLEES:
                problems.append(
                    f"{rel}:{node.lineno}: call threads {len(hit)} analysis "
                    f"knobs ({', '.join(sorted(hit))}) — pass one "
                    f"AnalysisConfig instead"
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [
                a.arg
                for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            ]
            hit = set(params) & KNOB_SET
            if len(hit) >= THRESHOLD:
                problems.append(
                    f"{rel}:{node.lineno}: def {node.name} declares "
                    f"{len(hit)} analysis-knob parameters "
                    f"({', '.join(sorted(hit))}) — take config: "
                    f"AnalysisConfig instead"
                )
    return problems


def main() -> int:
    problems: list[str] = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        if rel in SKIP_FILES:
            continue
        problems.extend(_check_file(path, rel))
    if problems:
        print("knob-threading lint: FAIL", file=sys.stderr)
        for problem in problems:
            print("  " + problem, file=sys.stderr)
        return 1
    print("knob-threading lint: OK (no hand-threaded knob runs outside "
          "core/config.py)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
