"""Topological signal probabilities, plus the source rule and the
fixed-point driver every SP backend shares.

One pass in topological order computes every node's probability of being 1
from its fanin probabilities, assuming fanin independence.  The assumption
is exact on trees and biased wherever reconvergent fanout correlates fanins
— the standard, fast baseline the paper builds on (reference [5]).

The pass is level-parallel NumPy on every circuit: once per compiled
circuit (the plan is cached on it) each level's gates are laid out as one
block per kernel family — every AND, NAND, OR, NOR, NOT and BUF gate in
one product block, every XOR and XNOR in one parity block, and each MUX
or truth-table group in its own — so a level costs at most two
dispatches plus one per MUX or truth-table group.  Each gate's
arithmetic runs in pin order, and the sentinel padding of a block's
short rows is exact, so the values equal a node-by-node Python pass bit
for bit.

Two pieces serve all four backends of :mod:`repro.probability`:

* :func:`check_sources` is the source rule, checked before any other work:
  ``input_probs`` may name primary inputs only and ``state_probs``
  flip-flops only, each value in [0, 1].  Anything else raises
  :class:`~repro.errors.ProbabilityError`.
* :func:`run_fixed_point` carries the topological and cut passes across
  the flip-flop boundary.  Flip-flop outputs start at SP 0.5 (or their
  ``state_probs``), and each pass's D-driver SPs become the next state
  until no state moves by ``tolerance`` (then one more pass brings the
  interior nodes to that state) or ``max_iterations`` passes have run.  A
  combinational circuit takes one pass.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as _np

from repro.errors import ProbabilityError
from repro.netlist.circuit import Circuit, CompiledCircuit
from repro.netlist.gate_types import (
    CODE_AND,
    CODE_BUF,
    CODE_CONST0,
    CODE_CONST1,
    CODE_DFF,
    CODE_INPUT,
    CODE_MUX,
    CODE_NAND,
    CODE_NOR,
    CODE_NOT,
    CODE_OR,
    CODE_XNOR,
    CODE_XOR,
    truth_table,
)

__all__ = [
    "compute_signal_probabilities",
    "check_sources",
    "run_fixed_point",
    "SequentialConvergence",
]


class SequentialConvergence:
    """Record of the fixed-point iteration over flip-flop probabilities."""

    def __init__(self) -> None:
        self.iterations = 0
        self.final_delta = 0.0
        self.converged = False


def check_sources(
    compiled: CompiledCircuit,
    input_probs: Mapping[str, float] | None = None,
    state_probs: Mapping[str, float] | None = None,
) -> tuple[dict[int, float], dict[int, float]]:
    """The source rule: ``(fixed, state)``, both keyed by node id.

    ``fixed`` holds the ``input_probs`` overrides, ``state`` every
    flip-flop's starting SP (0.5 unless ``state_probs`` sets it).
    """
    fixed: dict[int, float] = {}
    for name, p in (input_probs or {}).items():
        node_id = compiled.index.get(name)
        if node_id is None:
            raise ProbabilityError(f"input_probs names unknown node {name!r}")
        if compiled.code[node_id] != CODE_INPUT:
            raise ProbabilityError(
                f"input_probs names {name!r}, which is not a primary input"
            )
        fixed[node_id] = _probability(name, p)
    state = {dff: 0.5 for dff in compiled.dff_ids}
    for name, p in (state_probs or {}).items():
        node_id = compiled.index.get(name)
        if node_id is None or compiled.code[node_id] != CODE_DFF:
            raise ProbabilityError(f"state_probs names non-DFF node {name!r}")
        state[node_id] = _probability(name, p)
    return fixed, state


def _probability(name: str, p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ProbabilityError(f"probability for {name!r} out of [0,1]: {p}")
    return float(p)


def run_fixed_point(
    compiled: CompiledCircuit,
    one_pass: Callable[[dict[int, float]], Sequence[float]],
    state: dict[int, float],
    max_iterations: int,
    tolerance: float,
    convergence: SequentialConvergence | None = None,
) -> Sequence[float]:
    """Run ``one_pass(state)`` to the flip-flop fixed point.

    ``one_pass`` computes every node's SP with the flip-flop outputs at
    ``state`` and returns them indexed by node id.  Returns the last
    pass's values and fills ``convergence``.
    """
    record = convergence if convergence is not None else SequentialConvergence()
    if not compiled.dff_ids:
        record.converged = True
        return one_pass(state)
    d_driver = {dff: compiled.fanin(dff)[0] for dff in compiled.dff_ids}
    for iteration in range(max(1, max_iterations)):
        probs = one_pass(state)
        delta = 0.0
        new_state: dict[int, float] = {}
        for dff, driver in d_driver.items():
            target = float(probs[driver])
            delta = max(delta, abs(target - state[dff]))
            new_state[dff] = target
        state = new_state
        record.iterations = iteration + 1
        record.final_delta = delta
        if delta < tolerance:
            record.converged = True
            return one_pass(state)
    return probs


def compute_signal_probabilities(
    circuit: Circuit | CompiledCircuit,
    input_probs: Mapping[str, float] | None = None,
    state_probs: Mapping[str, float] | None = None,
    max_iterations: int = 50,
    tolerance: float = 1e-9,
    convergence: SequentialConvergence | None = None,
) -> dict[str, float]:
    """Topological SP for every node; fixed-point over DFFs if sequential.

    Parameters
    ----------
    input_probs:
        Per-primary-input probability of 1 (default 0.5).
    state_probs:
        Initial flip-flop-output probabilities (default 0.5).
    max_iterations, tolerance:
        Fixed-point controls for sequential circuits (:func:`run_fixed_point`).
    convergence:
        Optional out-parameter collecting iteration count and final delta.

    Sources outside :func:`check_sources`' rule raise
    :class:`~repro.errors.ProbabilityError`.
    """
    compiled = circuit.compiled() if isinstance(circuit, Circuit) else circuit
    fixed, state = check_sources(compiled, input_probs, state_probs)
    plan = _SPLevelPlan.for_compiled(compiled)
    # Two sentinel slots past the nodes (SP 1.0 / 0.0) pad mixed-arity
    # gate groups; see CompiledCircuit.level_gate_groups.
    probs = _np.zeros(compiled.n + 2)
    values = run_fixed_point(
        compiled, lambda state: _level_pass(plan, probs, fixed, state),
        state, max_iterations, tolerance, convergence,
    ).tolist()
    return {compiled.names[i]: values[i] for i in range(compiled.n)}


class _SPBlock(NamedTuple):
    """One level's gates of one kernel family, as rectangular index arrays.

    ``family`` is ``"product"`` (AND, NAND, OR, NOR, NOT and BUF),
    ``"parity"`` (XOR and XNOR), ``"mux"`` or ``"table"`` (a truth table,
    ``table``).  The product and parity blocks span every gate of their
    family at the level; a MUX or truth-table block is one
    ``level_gate_groups`` group.  ``flip_pins`` marks, as a ``(g, 1)``
    column, the rows whose pins are complemented before the product (OR,
    NOR), and ``flip_outs`` the rows whose value is complemented (NAND,
    OR, NOT; XNOR); either is ``None`` when no row needs it.
    """

    family: str
    out_ids: _np.ndarray
    fanin: _np.ndarray
    flip_pins: _np.ndarray | None
    flip_outs: _np.ndarray | None
    table: tuple | None


#: The kernel family of each gate code that shares a level-wide block.
_FAMILY = {code: "product" for code in (
    CODE_AND, CODE_NAND, CODE_OR, CODE_NOR, CODE_NOT, CODE_BUF)}
_FAMILY.update({CODE_XOR: "parity", CODE_XNOR: "parity"})
_FLIP_PIN_CODES = frozenset((CODE_OR, CODE_NOR))
_FLIP_OUT_CODES = frozenset((CODE_NAND, CODE_OR, CODE_NOT, CODE_XNOR))


class _SPLevelPlan:
    """Level-grouped node blocks for the SP pass: at most one product
    and one parity block per level, plus one block per MUX or
    truth-table group (:class:`_SPBlock`), in level order.

    Built from ``compiled.level_gate_groups()`` once per compiled circuit
    and cached on it; sources are captured as flat id arrays.
    """

    def __init__(self, compiled: CompiledCircuit):
        self.n = compiled.n
        self.input_ids = _np.asarray(compiled.input_ids, dtype=_np.intp)
        code = _np.asarray(compiled.code)
        self.const0_ids = _np.flatnonzero(code == CODE_CONST0)
        self.const1_ids = _np.flatnonzero(code == CODE_CONST1)
        self.blocks: list[_SPBlock] = []
        for _level, groups in groupby(compiled.level_gate_groups(),
                                      key=itemgetter(0)):
            families: dict[str, list] = {}
            for _, gate_code, outs, fins, width in groups:
                family = _FAMILY.get(gate_code)
                if family is not None:
                    families.setdefault(family, []).append((gate_code, outs, fins))
                    continue
                table = None
                if gate_code != CODE_MUX:
                    table = truth_table(compiled.gate_type(outs[0]), width)
                self.blocks.append(_SPBlock(
                    "mux" if table is None else "table",
                    _np.asarray(outs, dtype=_np.intp),
                    _np.asarray(fins, dtype=_np.intp), None, None, table,
                ))
            for family, members in families.items():
                self.blocks.append(self._family_block(family, members))

    def _family_block(self, family: str, members: list) -> _SPBlock:
        """The block of ``members``' ``(code, outs, fins)`` groups: rows
        padded to the widest with sentinel ``n`` (SP 1.0) on the AND side
        and ``n + 1`` (SP 0.0, complemented to 1.0) on the OR side and in
        the parity family, so padding multiplies by exactly 1.0 or adds
        exactly +0.0."""
        width = max(len(fins[0]) for _, _, fins in members)
        out_ids, rows, flip_pins, flip_outs = [], [], [], []
        for gate_code, outs, fins in members:
            pad_one = family == "product" and gate_code not in _FLIP_PIN_CODES
            block = _np.full((len(outs), width), self.n if pad_one else self.n + 1,
                             dtype=_np.intp)
            block[:, :len(fins[0])] = fins
            rows.append(block)
            out_ids += outs
            flip_pins += [gate_code in _FLIP_PIN_CODES] * len(outs)
            flip_outs += [gate_code in _FLIP_OUT_CODES] * len(outs)
        return _SPBlock(
            family, _np.asarray(out_ids, dtype=_np.intp), _np.concatenate(rows),
            _np.asarray(flip_pins)[:, None] if any(flip_pins) else None,
            _np.asarray(flip_outs) if any(flip_outs) else None, None,
        )

    @staticmethod
    def for_compiled(compiled: CompiledCircuit) -> "_SPLevelPlan":
        plan = getattr(compiled, "_sp_level_plan", None)
        if plan is None:
            plan = _SPLevelPlan(compiled)
            compiled._sp_level_plan = plan
        return plan


def _level_pass(
    plan: _SPLevelPlan,
    probs: _np.ndarray,
    fixed: dict[int, float],
    state: dict[int, float],
) -> _np.ndarray:
    """One topological SP pass over the plan's blocks.

    Each gate runs its own IEEE ops in pin order: the product block
    complements its OR/NOR pins, multiplies across the pin axis and
    complements its NAND/OR/NOT values; the parity block starts from pin
    0 (the zero start's first step, exactly) and runs the recurrence from
    pin 1; a truth table sums its minterms in table order.  Sentinel
    padding is exact, so every value equals the node-by-node pass's bit
    for bit.
    """
    probs[plan.n] = 1.0  # sentinel: AND-side padding input
    probs[plan.n + 1] = 0.0  # sentinel: OR-side and parity padding input
    probs[plan.input_ids] = 0.5
    for node_id, p in fixed.items():
        probs[node_id] = p
    for node_id, p in state.items():
        probs[node_id] = p
    probs[plan.const0_ids] = 0.0
    probs[plan.const1_ids] = 1.0

    for block in plan.blocks:
        p = probs[block.fanin]  # (g, k)
        if block.family == "product":
            if block.flip_pins is not None:
                _np.subtract(1.0, p, out=p, where=block.flip_pins)
            value = p.prod(axis=1)
        elif block.family == "parity":
            value = p[:, 0]
            for pin in range(1, p.shape[1]):
                pin_p = p[:, pin]
                value = value * (1.0 - pin_p) + (1.0 - value) * pin_p
        elif block.family == "mux":
            sel = p[:, 0]
            value = (1.0 - sel) * p[:, 1] + sel * p[:, 2]
        else:
            # Generic truth-table kernel (MAJ and future cells).
            value = _np.zeros(len(block.out_ids))
            k = p.shape[1]
            for assignment, out in enumerate(block.table):
                if not out:
                    continue
                term = _np.ones(len(block.out_ids))
                for pin in range(k):
                    pin_p = p[:, pin]
                    term = term * (pin_p if (assignment >> pin) & 1 else 1.0 - pin_p)
                value += term
        if block.flip_outs is not None:
            _np.subtract(1.0, value, out=value, where=block.flip_outs)
        probs[block.out_ids] = value
    return probs
