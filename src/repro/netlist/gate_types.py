"""The gate alphabet: types, arities, controlling values and evaluation.

Two views of every gate type coexist:

* :class:`GateType` — a friendly :class:`enum.Enum` used by the public API,
  the ``.bench`` parser and everything that handles circuits by name.
* integer *gate codes* (module constants ``CODE_AND`` ...) — used by the
  compiled circuit views so the hot loops (logic simulation, EPP) dispatch on
  plain ints instead of enum members.

Evaluation is provided at three granularities:

* :func:`eval_gate_bool` — single boolean vector, reference semantics.
* :func:`eval_gate_word` — bit-parallel over arbitrary-width Python ints
  (W simulation patterns per call).
* :func:`truth_table` — the full truth table of a gate as a tuple of output
  bits, used by the generic EPP rule and the BDD builder.

The alphabet covers the ISCAS ``.bench`` vocabulary (AND, NAND, OR, NOR, NOT,
BUFF, DFF) plus XOR/XNOR (present in several ISCAS'85 netlists), constants,
and two extended cells used by the hardening flow and examples: a 2:1 MUX
(``MUX(sel, a, b)`` = ``a`` when ``sel`` is 0, else ``b``) and a majority
voter ``MAJ`` (odd arity; used by the TMR transform).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

from repro.errors import NetlistError

__all__ = [
    "GateType",
    "GATE_CODES",
    "CODE_INPUT",
    "CODE_AND",
    "CODE_NAND",
    "CODE_OR",
    "CODE_NOR",
    "CODE_XOR",
    "CODE_XNOR",
    "CODE_NOT",
    "CODE_BUF",
    "CODE_DFF",
    "CODE_CONST0",
    "CODE_CONST1",
    "CODE_MUX",
    "CODE_MAJ",
    "eval_gate_bool",
    "eval_gate_word",
    "truth_table",
    "check_arity",
]


class GateType(enum.Enum):
    """Every node kind a :class:`~repro.netlist.circuit.Circuit` may hold.

    ``INPUT`` and ``DFF`` are node kinds rather than logic gates: an INPUT has
    no fanin and a DFF has exactly one (its D pin).  The analysis engines cut
    circuits at DFF boundaries, so DFFs never appear inside a combinational
    evaluation.
    """

    INPUT = "INPUT"
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"
    DFF = "DFF"
    CONST0 = "CONST0"
    CONST1 = "CONST1"
    MUX = "MUX"
    MAJ = "MAJ"

    @property
    def is_sequential(self) -> bool:
        """True for state-holding elements (only DFF in this alphabet)."""
        return self is GateType.DFF

    @property
    def is_source(self) -> bool:
        """True for nodes that take no fanin (inputs and constants)."""
        return self in (GateType.INPUT, GateType.CONST0, GateType.CONST1)

    @property
    def is_combinational(self) -> bool:
        """True for ordinary logic gates (everything but INPUT/DFF/consts)."""
        return not self.is_source and not self.is_sequential

    def arity_range(self) -> tuple[int, int | None]:
        """(min_arity, max_arity) — ``None`` max means unbounded."""
        return _ARITY[self]


_ARITY: dict[GateType, tuple[int, int | None]] = {
    GateType.INPUT: (0, 0),
    GateType.CONST0: (0, 0),
    GateType.CONST1: (0, 0),
    GateType.NOT: (1, 1),
    GateType.BUF: (1, 1),
    GateType.DFF: (1, 1),
    GateType.AND: (1, None),
    GateType.NAND: (1, None),
    GateType.OR: (1, None),
    GateType.NOR: (1, None),
    GateType.XOR: (1, None),
    GateType.XNOR: (1, None),
    GateType.MUX: (3, 3),
    GateType.MAJ: (3, None),  # odd arity enforced in check_arity
}

# Integer gate codes for the compiled views.  Order is stable and part of the
# on-disk/compiled-view contract; append only.
CODE_INPUT = 0
CODE_AND = 1
CODE_NAND = 2
CODE_OR = 3
CODE_NOR = 4
CODE_XOR = 5
CODE_XNOR = 6
CODE_NOT = 7
CODE_BUF = 8
CODE_DFF = 9
CODE_CONST0 = 10
CODE_CONST1 = 11
CODE_MUX = 12
CODE_MAJ = 13

GATE_CODES: dict[GateType, int] = {
    GateType.INPUT: CODE_INPUT,
    GateType.AND: CODE_AND,
    GateType.NAND: CODE_NAND,
    GateType.OR: CODE_OR,
    GateType.NOR: CODE_NOR,
    GateType.XOR: CODE_XOR,
    GateType.XNOR: CODE_XNOR,
    GateType.NOT: CODE_NOT,
    GateType.BUF: CODE_BUF,
    GateType.DFF: CODE_DFF,
    GateType.CONST0: CODE_CONST0,
    GateType.CONST1: CODE_CONST1,
    GateType.MUX: CODE_MUX,
    GateType.MAJ: CODE_MAJ,
}

CODE_TO_TYPE: dict[int, GateType] = {code: gt for gt, code in GATE_CODES.items()}


def check_arity(gate_type: GateType, n_inputs: int, node_name: str = "?") -> None:
    """Raise :class:`NetlistError` unless ``n_inputs`` is legal for the type."""
    lo, hi = gate_type.arity_range()
    if n_inputs < lo or (hi is not None and n_inputs > hi):
        bound = f"exactly {lo}" if lo == hi else f"at least {lo}"
        if hi is not None and lo != hi:
            bound = f"between {lo} and {hi}"
        raise NetlistError(
            f"node {node_name!r}: {gate_type.value} takes {bound} input(s), got {n_inputs}"
        )
    if gate_type is GateType.MAJ and n_inputs % 2 == 0:
        raise NetlistError(
            f"node {node_name!r}: MAJ needs an odd number of inputs, got {n_inputs}"
        )


def eval_gate_bool(gate_type: GateType, inputs: Sequence[int]) -> int:
    """Evaluate one gate on scalar 0/1 inputs.  Reference semantics.

    DFF evaluates as a transparent buffer here; sequential behaviour is the
    simulator's job, not the gate function's.
    """
    if gate_type is GateType.AND:
        return int(all(inputs))
    if gate_type is GateType.NAND:
        return int(not all(inputs))
    if gate_type is GateType.OR:
        return int(any(inputs))
    if gate_type is GateType.NOR:
        return int(not any(inputs))
    if gate_type is GateType.XOR:
        return _parity(inputs)
    if gate_type is GateType.XNOR:
        return 1 - _parity(inputs)
    if gate_type is GateType.NOT:
        return 1 - inputs[0]
    if gate_type in (GateType.BUF, GateType.DFF):
        return inputs[0]
    if gate_type is GateType.CONST0:
        return 0
    if gate_type is GateType.CONST1:
        return 1
    if gate_type is GateType.MUX:
        sel, a, b = inputs
        return b if sel else a
    if gate_type is GateType.MAJ:
        return int(sum(inputs) * 2 > len(inputs))
    raise NetlistError(f"cannot evaluate node kind {gate_type.value}")


def _parity(inputs: Sequence[int]) -> int:
    acc = 0
    for value in inputs:
        acc ^= value
    return acc & 1


def eval_gate_word(gate_type: GateType, inputs: Sequence[int], mask: int) -> int:
    """Bit-parallel gate evaluation over Python-int words.

    Each bit position of the word is an independent simulation pattern;
    ``mask`` is the all-ones word for the active width (needed to express
    NOT without infinite sign extension).
    """
    if gate_type is GateType.AND or gate_type is GateType.NAND:
        acc = mask
        for word in inputs:
            acc &= word
        return acc if gate_type is GateType.AND else acc ^ mask
    if gate_type is GateType.OR or gate_type is GateType.NOR:
        acc = 0
        for word in inputs:
            acc |= word
        return acc if gate_type is GateType.OR else acc ^ mask
    if gate_type is GateType.XOR or gate_type is GateType.XNOR:
        acc = 0
        for word in inputs:
            acc ^= word
        return acc if gate_type is GateType.XOR else acc ^ mask
    if gate_type is GateType.NOT:
        return inputs[0] ^ mask
    if gate_type in (GateType.BUF, GateType.DFF):
        return inputs[0]
    if gate_type is GateType.CONST0:
        return 0
    if gate_type is GateType.CONST1:
        return mask
    if gate_type is GateType.MUX:
        sel, a, b = inputs
        return (a & (sel ^ mask)) | (b & sel)
    if gate_type is GateType.MAJ:
        return _majority_word(inputs, mask)
    raise NetlistError(f"cannot evaluate node kind {gate_type.value}")


def _majority_word(inputs: Sequence[int], mask: int) -> int:
    """Bitwise majority of an odd number of words.

    Implemented as a bit-sliced counter: per bit position, count ones across
    the inputs and compare against the threshold.  The counter is kept as a
    small list of bit-planes (binary representation), so the cost is
    O(n * log n) word operations for n inputs.
    """
    planes: list[int] = []  # planes[i] = i-th bit of the per-position count
    for word in inputs:
        carry = word
        i = 0
        while carry:
            if i == len(planes):
                planes.append(0)
                # fall through to add into the fresh plane
            new_carry = planes[i] & carry
            planes[i] ^= carry
            carry = new_carry
            i += 1
    threshold = len(inputs) // 2 + 1
    # Accumulate positions where count >= threshold via a per-plane compare:
    # do a bit-sliced subtraction count - threshold and take the no-borrow mask.
    borrow = 0
    for i in range(max(len(planes), threshold.bit_length())):
        plane = planes[i] if i < len(planes) else 0
        tbit = mask if (threshold >> i) & 1 else 0
        diff_borrow = ((plane ^ mask) & tbit) | (((plane ^ mask) | tbit) & borrow)
        borrow = diff_borrow
    return borrow ^ mask  # positions with no final borrow have count >= threshold


def truth_table(gate_type: GateType, n_inputs: int) -> tuple[int, ...]:
    """Full truth table of the gate: entry ``i`` is the output for the input
    assignment whose bit ``k`` (LSB = input 0) is ``(i >> k) & 1``.
    """
    check_arity(gate_type, n_inputs)
    rows = []
    for assignment in range(1 << n_inputs):
        bits = [(assignment >> k) & 1 for k in range(n_inputs)]
        rows.append(eval_gate_bool(gate_type, bits))
    return tuple(rows)
