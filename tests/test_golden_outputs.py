"""Output bytes stay what ``tests/golden/outputs.json`` recorded.

Each group of entries (see ``tests/golden_outputs.py``) is recomputed and
compared with the file: the CSV and stdout of ``repro analyze``, the
packed snapshot arrays, every ISCAS'89 profile's netlist text, a served
``analyze``/``analyze_delta`` chain and the checkpointed sharded run.  The
file records the Python and NumPy versions it was generated under; a
version difference alone neither fails nor skips a group, but a digest
mismatch names both versions next to the first entry that differs.

A change that moves output numbers on purpose regenerates the file with
``python tools/regen_golden.py`` and lists the changed entries in
CHANGES.md.  Regenerating only to make a failure go away defeats the pin.
"""

from __future__ import annotations

import pytest

from tests import golden_outputs

GOLDEN = golden_outputs.load()


def group_params():
    for name, (_, tier1) in golden_outputs.GROUPS.items():
        marks = () if tier1 else (pytest.mark.slow,)
        yield pytest.param(name, id=name.replace(" ", "-"), marks=marks)


@pytest.mark.parametrize("group", group_params())
def test_outputs_match_the_golden_file(group):
    compute, _ = golden_outputs.GROUPS[group]
    computed = compute()
    recorded = {key: GOLDEN["entries"][key] for key in computed if key in GOLDEN["entries"]}
    missing = sorted(set(computed) - set(recorded))
    assert not missing, f"group {group!r}: entries {missing} are not in the golden file"
    difference = golden_outputs.first_difference(recorded, computed)
    assert difference is None, (
        f"group {group!r} no longer reproduces tests/golden/outputs.json "
        f"(recorded under Python {GOLDEN['python']}, NumPy {GOLDEN['numpy']}; "
        f"running Python {golden_outputs.versions()['python']}, "
        f"NumPy {golden_outputs.versions()['numpy']}):\n{difference}"
    )


def test_every_recorded_entry_belongs_to_a_group():
    prefixes = tuple(f"{name.split()[0]} " for name in golden_outputs.GROUPS)
    assert all(key.startswith(prefixes) for key in GOLDEN["entries"])
    assert set(GOLDEN) == {"python", "numpy", "entries"}


def test_first_difference_names_the_moved_row():
    recorded = {"a": "x", "b": ["r0", "r1"]}
    assert golden_outputs.first_difference(recorded, dict(recorded)) is None
    message = golden_outputs.first_difference(recorded, {"a": "x", "b": ["r0", "r9"]})
    assert "entry 'b' differs" in message
    assert "row 1: recorded 'r1'" in message and "row 1: computed 'r9'" in message
    assert "'a'" not in message
