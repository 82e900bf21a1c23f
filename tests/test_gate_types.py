"""Gate alphabet: arity, properties, and the three evaluation forms."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetlistError
from repro.netlist.gate_types import (
    GATE_CODES,
    CODE_TO_TYPE,
    GateType,
    check_arity,
    eval_gate_bool,
    eval_gate_word,
    truth_table,
)

_LOGIC_TYPES = [
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
]


class TestProperties:
    def test_sequential_flag(self):
        assert GateType.DFF.is_sequential
        assert not GateType.AND.is_sequential

    def test_source_flags(self):
        for gate_type in (GateType.INPUT, GateType.CONST0, GateType.CONST1):
            assert gate_type.is_source
            assert not gate_type.is_combinational

    def test_combinational_flags(self):
        for gate_type in _LOGIC_TYPES + [GateType.NOT, GateType.BUF, GateType.MUX, GateType.MAJ]:
            assert gate_type.is_combinational

    def test_gate_codes_are_bijective(self):
        assert len(set(GATE_CODES.values())) == len(GATE_CODES)
        for gate_type, code in GATE_CODES.items():
            assert CODE_TO_TYPE[code] is gate_type


class TestArity:
    def test_not_requires_exactly_one(self):
        check_arity(GateType.NOT, 1)
        with pytest.raises(NetlistError, match="NOT"):
            check_arity(GateType.NOT, 2)

    def test_mux_requires_three(self):
        check_arity(GateType.MUX, 3)
        with pytest.raises(NetlistError):
            check_arity(GateType.MUX, 2)

    def test_maj_requires_odd(self):
        check_arity(GateType.MAJ, 3)
        check_arity(GateType.MAJ, 5)
        with pytest.raises(NetlistError, match="odd"):
            check_arity(GateType.MAJ, 4)

    def test_inputs_take_nothing(self):
        with pytest.raises(NetlistError):
            check_arity(GateType.INPUT, 1)

    def test_and_accepts_wide_fanin(self):
        check_arity(GateType.AND, 17)


class TestEvalBool:
    def test_and_or(self):
        assert eval_gate_bool(GateType.AND, [1, 1, 1]) == 1
        assert eval_gate_bool(GateType.AND, [1, 0, 1]) == 0
        assert eval_gate_bool(GateType.OR, [0, 0, 0]) == 0
        assert eval_gate_bool(GateType.OR, [0, 1, 0]) == 1

    def test_inverting_gates(self):
        assert eval_gate_bool(GateType.NAND, [1, 1]) == 0
        assert eval_gate_bool(GateType.NOR, [0, 0]) == 1
        assert eval_gate_bool(GateType.NOT, [0]) == 1

    def test_xor_parity(self):
        assert eval_gate_bool(GateType.XOR, [1, 1, 1]) == 1
        assert eval_gate_bool(GateType.XOR, [1, 1]) == 0
        assert eval_gate_bool(GateType.XNOR, [1, 0]) == 0

    def test_mux_selects(self):
        # MUX(sel, a, b): a when sel=0, b when sel=1
        assert eval_gate_bool(GateType.MUX, [0, 1, 0]) == 1
        assert eval_gate_bool(GateType.MUX, [1, 1, 0]) == 0

    def test_maj_votes(self):
        assert eval_gate_bool(GateType.MAJ, [1, 1, 0]) == 1
        assert eval_gate_bool(GateType.MAJ, [1, 0, 0]) == 0
        assert eval_gate_bool(GateType.MAJ, [1, 1, 0, 0, 1]) == 1

    def test_constants(self):
        assert eval_gate_bool(GateType.CONST0, []) == 0
        assert eval_gate_bool(GateType.CONST1, []) == 1

    def test_dff_passes_through(self):
        assert eval_gate_bool(GateType.DFF, [1]) == 1

    def test_input_cannot_evaluate(self):
        with pytest.raises(NetlistError):
            eval_gate_bool(GateType.INPUT, [])


class TestTruthTable:
    def test_and2(self):
        assert truth_table(GateType.AND, 2) == (0, 0, 0, 1)

    def test_xor2(self):
        assert truth_table(GateType.XOR, 2) == (0, 1, 1, 0)

    def test_mux_table_is_consistent_with_eval(self):
        table = truth_table(GateType.MUX, 3)
        for assignment in range(8):
            bits = [(assignment >> k) & 1 for k in range(3)]
            assert table[assignment] == eval_gate_bool(GateType.MUX, bits)

    def test_size(self):
        assert len(truth_table(GateType.MAJ, 5)) == 32


@pytest.mark.parametrize("gate_type", _LOGIC_TYPES + [GateType.MUX, GateType.MAJ])
def test_word_eval_matches_bool_eval(gate_type):
    """Bit-parallel words agree with per-bit boolean evaluation."""
    arity = 3
    width = 1 << arity
    mask = (1 << width) - 1
    # Input k carries its truth-table column pattern.
    words = []
    for k in range(arity):
        word = 0
        for position in range(width):
            if (position >> k) & 1:
                word |= 1 << position
        words.append(word)
    out = eval_gate_word(gate_type, words, mask)
    for position in range(width):
        bits = [(position >> k) & 1 for k in range(arity)]
        assert (out >> position) & 1 == eval_gate_bool(gate_type, bits)


@settings(max_examples=60, deadline=None)
@given(
    n_inputs=st.sampled_from([3, 5, 7]),
    data=st.data(),
)
def test_majority_word_matches_bool(n_inputs, data):
    """Bit-sliced majority equals per-position counting for random words."""
    width = 32
    mask = (1 << width) - 1
    words = [
        data.draw(st.integers(min_value=0, max_value=mask)) for _ in range(n_inputs)
    ]
    out = eval_gate_word(GateType.MAJ, words, mask)
    for position in range(width):
        bits = [(word >> position) & 1 for word in words]
        assert (out >> position) & 1 == eval_gate_bool(GateType.MAJ, bits)
