"""Rewrite ``tests/golden/outputs.json``, the pinned output contract.

Run from the repository root::

    python tools/regen_golden.py

Every group is recomputed, the ``@slow`` ones included (about a minute:
the large ISCAS'89 profiles and the sharded s9234 runs).  The script
prints each entry whose value changed.  Regenerate only when a change
moves output numbers on purpose, commit the new file with it, and list
the changed entries in CHANGES.md; never regenerate to make a failing
golden test pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from tests import golden_outputs  # noqa: E402


def main() -> int:
    path = golden_outputs.GOLDEN_PATH
    old = json.loads(path.read_text())["entries"] if path.exists() else {}
    entries = golden_outputs.compute_all()
    document = {**golden_outputs.versions(), "entries": entries}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n")
    changed = [key for key in entries if old.get(key) != entries[key]]
    removed = [key for key in old if key not in entries]
    for key in changed:
        print(f"{'new' if key not in old else 'changed'}: {key}")
    for key in removed:
        print(f"removed: {key}")
    print(f"wrote {path}: {len(entries)} entries, {len(changed)} changed, "
          f"{len(removed)} removed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
