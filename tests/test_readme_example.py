"""The README's incremental what-if example runs as written, and its
knob table is exactly what the generator emits."""

from pathlib import Path

import pytest

pytest.importorskip("numpy")

README = Path(__file__).resolve().parents[1] / "README.md"
SECTION = "## Incremental what-if analysis"


def readme_block(section: str) -> str:
    """The first ```python block after the ``section`` heading."""
    text = README.read_text()
    start = text.index("```python\n", text.index(section)) + len("```python\n")
    return text[start : text.index("```", start)]


@pytest.mark.slow  # a full s9234 snapshot plus a 3,450-site re-sweep: ~5 s
def test_incremental_whatif_example_runs(capsys):
    namespace: dict = {}
    exec(compile(readme_block(SECTION), str(README), "exec"), namespace)
    delta, more = namespace["delta"], namespace["more"]
    # The figures the block's comment prints.
    assert delta.stats["sites"] == 5811
    assert delta.stats["dirty"] == 3450
    assert delta.stats["reused"] == 2361
    assert str(delta.stats) in capsys.readouterr().out
    assert namespace["report"].total_fit > 0
    assert more.hardening == {"g2214": 10.0, "g55": 8.0}


def test_knob_table_matches_its_generator():
    """The README claims its knob table cannot drift from
    ``python -m repro knobs --markdown``; this is what holds it to that."""
    from repro.core.config import knob_reference

    expected = knob_reference(markdown=True)
    text = README.read_text()
    start = text.index(expected.splitlines()[0])
    end = text.index("\n\n", text.index("| Knob |", start)) + 1
    assert text[start:end] == expected
