"""Property-based differential fuzzing of the incremental what-if path.

One oracle: for any random circuit and any structured edit set,
``analyze_delta(prev, edits)`` must be **bit-identical**
(``np.array_equal`` on both ``p_sensitized`` and ``cone_sizes``) to a
full ``snapshot`` of the edited circuit, and to the dense oracle sweep
of ``tests.helpers``'s column query over it.  This is stronger than the
1e-9 agreement the other fuzz suites pin — a delta reuses clean sites'
columns byte-for-byte, so any dirty-set under-approximation or
position slip shows up as an exact mismatch, not a tolerance failure.

Edit sets are drawn from a menu that covers every structural op the
:class:`~repro.core.epp_delta.EditSet` grammar has — polarity swaps,
cone shrink (drop a fanin) and grow (add a primary input to a fanin
list), node addition with a new observable sink, local TMR, SP
overrides and metadata-only hardening — and chained two-delta runs
re-play a second draw on top of the first revision.
"""

import random

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.epp import EPPEngine
from repro.core.epp_delta import EditSet
from repro.netlist.gate_types import GateType
from repro.netlist.generate import random_combinational

from tests.helpers import dense_backend

_SWAPS = {
    GateType.AND: "nand", GateType.NAND: "and",
    GateType.OR: "nor", GateType.NOR: "or",
    GateType.XOR: "xnor", GateType.XNOR: "xor",
}
_WIDE = (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR)


def draw_edits(circuit, seed: int, n_edits: int) -> EditSet:
    """A deterministic random edit set valid for ``circuit``.

    Every op keeps the circuit acyclic by construction: swaps and
    shrinks touch existing fanin lists only, grows and additions pull
    from primary inputs / existing signals, TMR is the library
    transform.  Falls back across menu entries until ``n_edits`` ops
    (or every entry proved inapplicable).
    """
    rng = random.Random(seed)
    edits = EditSet()
    gates = list(circuit.gates)
    # Ops draw against the *pre-edit* circuit, so a node one op already
    # restructured (e.g. a TMR voter) must not be re-targeted by a later
    # op that still believes the original gate type / fanin.
    used: set[str] = set()
    fresh = 0

    def swap():
        candidates = [
            g for g in gates
            if g not in used and circuit.node(g).gate_type in _SWAPS
        ]
        if not candidates:
            return False
        name = rng.choice(candidates)
        used.add(name)
        edits.replace_gate(name, _SWAPS[circuit.node(name).gate_type])
        return True

    def shrink():
        candidates = [
            g for g in gates
            if g not in used
            and circuit.node(g).gate_type in _WIDE
            and len(circuit.node(g).fanin) >= 3
        ]
        if not candidates:
            return False
        name = rng.choice(candidates)
        used.add(name)
        edits.replace_gate(name, fanin=circuit.node(name).fanin[:-1])
        return True

    def grow():
        candidates = [
            g for g in gates
            if g not in used
            and circuit.node(g).gate_type in _WIDE
            and len(circuit.node(g).fanin) == 2
        ]
        if not candidates:
            return False
        name = rng.choice(candidates)
        used.add(name)
        extra = rng.choice(circuit.inputs)
        edits.replace_gate(name, fanin=circuit.node(name).fanin + (extra,))
        return True

    def tmr():
        candidates = [
            g for g in gates
            if g not in used and circuit.node(g).gate_type.is_combinational
        ]
        if not candidates:
            return False
        name = rng.choice(candidates)
        used.add(name)
        edits.tmr(name)
        return True

    def add():
        nonlocal fresh
        fanin = rng.sample(list(circuit.inputs) + gates, k=2)
        while f"fuzz_new_{fresh}" in circuit:  # added by an earlier draw
            fresh += 1
        name = f"fuzz_new_{fresh}"
        fresh += 1
        edits.add_gate(name, rng.choice(("and", "xor", "nor")), fanin)
        edits.mark_output(name)
        return True

    def set_sp():
        edits.set_sp(rng.choice(circuit.inputs), round(rng.random(), 3))
        return True

    def harden():
        edits.harden(rng.choice(gates), 2.0 + rng.random())
        return True

    menu = [swap, swap, shrink, grow, tmr, add, set_sp, harden]
    for _ in range(n_edits):
        for op in rng.sample(menu, k=len(menu)):
            if op():
                break
    return edits


def assert_delta_equals_full(delta):
    full = delta.engine.snapshot(
        sites=None if delta.default_sites else delta.site_names,
        **delta.knobs,
    )
    assert delta.site_names == full.site_names
    dense = dense_backend(delta.engine).analyze_sites(delta.site_ids)
    for expected in ((full.p_sensitized, full.cone_sizes), dense):
        assert np.array_equal(delta.p_sensitized, expected[0])
        assert np.array_equal(delta.cone_sizes, expected[1])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n_inputs=st.integers(min_value=3, max_value=8),
    n_gates=st.integers(min_value=6, max_value=50),
    seed=st.integers(min_value=0, max_value=2**16),
    edit_seed=st.integers(min_value=0, max_value=2**16),
    n_edits=st.integers(min_value=1, max_value=4),
)
def test_delta_bit_identical_to_full(
    n_inputs, n_gates, seed, edit_seed, n_edits
):
    circuit = random_combinational(n_inputs, n_gates, seed=seed)
    engine = EPPEngine(circuit)
    prev = engine.snapshot()
    edits = draw_edits(circuit, edit_seed, n_edits)
    delta = engine.analyze_delta(prev, edits)
    assert delta.stats["dirty"] + delta.stats["reused"] == delta.stats["sites"]
    assert_delta_equals_full(delta)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    n_inputs=st.integers(min_value=3, max_value=8),
    n_gates=st.integers(min_value=6, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
    edit_seed=st.integers(min_value=0, max_value=2**16),
)
def test_chained_deltas_bit_identical(n_inputs, n_gates, seed, edit_seed):
    """Two rounds of edits, the second reusing the first delta's columns."""
    circuit = random_combinational(n_inputs, n_gates, seed=seed)
    engine = EPPEngine(circuit)
    prev = engine.snapshot()
    first = engine.analyze_delta(prev, draw_edits(circuit, edit_seed, 2))
    assert_delta_equals_full(first)
    second = first.apply(
        draw_edits(first.engine.circuit, edit_seed + 1, 2)
    )
    assert second.stats["chain_length"] == 2
    assert_delta_equals_full(second)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    n_inputs=st.integers(min_value=3, max_value=8),
    n_gates=st.integers(min_value=6, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
    edit_seed=st.integers(min_value=0, max_value=2**16),
)
def test_delta_matches_scalar_oracle(n_inputs, n_gates, seed, edit_seed):
    """Beyond bit-identity with the column query: 1e-9 against the scalar
    engine on the edited circuit, so column reuse and sweep can't be
    wrong in the same way."""
    circuit = random_combinational(n_inputs, n_gates, seed=seed)
    engine = EPPEngine(circuit)
    prev = engine.snapshot()
    delta = engine.analyze_delta(prev, draw_edits(circuit, edit_seed, 2))
    for name, value in zip(delta.site_names, delta.p_sensitized):
        assert value == pytest.approx(
            delta.engine.p_sensitized(name), abs=1e-9
        ), name
