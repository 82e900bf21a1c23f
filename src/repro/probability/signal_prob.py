"""Topological signal probabilities, plus the source rule and the
fixed-point driver every SP backend shares.

One pass in topological order computes every node's probability of being 1
from its fanin probabilities, assuming fanin independence.  The assumption
is exact on trees and biased wherever reconvergent fanout correlates fanins
— the standard, fast baseline the paper builds on (reference [5]).

The pass is level-parallel NumPy on every circuit: nodes are grouped by
``(level, gate code, arity)`` once per compiled circuit (the grouping is
cached on it), and each level executes as a handful of array operations
over the node axis.  Each gate's arithmetic runs in pin order, so the
values equal a node-by-node Python pass bit for bit.

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


class _SPLevelPlan:
    """Level-grouped node blocks for the SP pass.

    Combinational nodes are bucketed by ``(level, gate code, arity)`` into
    rectangular ``(out_ids, fanin)`` index arrays; sources are captured as
    flat id arrays.  Built once per compiled circuit and cached on it.
    """

    def __init__(self, compiled: CompiledCircuit):
        self.n = compiled.n
        self.input_ids = _np.asarray(compiled.input_ids, dtype=_np.intp)
        code = _np.asarray(compiled.code)
        self.const0_ids = _np.flatnonzero(code == CODE_CONST0)
        self.const1_ids = _np.flatnonzero(code == CODE_CONST1)
        # The grouping (and its mixed-arity padding) is shared with the
        # batch EPP backend: CompiledCircuit.level_gate_groups.
        self.groups: list[tuple[int, _np.ndarray, _np.ndarray, tuple | None]] = []
        for _level, gate_code, outs, fins, width in compiled.level_gate_groups():
            table = None
            if gate_code not in _CLOSED_FORM_CODES:
                table = truth_table(compiled.gate_type(outs[0]), width)
            out_ids = _np.asarray(outs, dtype=_np.intp)
            fanin = _np.asarray(fins, dtype=_np.intp)
            self.groups.append((gate_code, out_ids, fanin, table))

    @staticmethod
    def for_compiled(compiled: CompiledCircuit) -> "_SPLevelPlan":
        plan = getattr(compiled, "_sp_level_plan", None)
        if plan is None:
            plan = _SPLevelPlan(compiled)
            compiled._sp_level_plan = plan
        return plan


_CLOSED_FORM_CODES = frozenset(
    (CODE_AND, CODE_NAND, CODE_OR, CODE_NOR, CODE_XOR, CODE_XNOR,
     CODE_NOT, CODE_BUF, CODE_MUX)
)


def _level_pass(
    plan: _SPLevelPlan,
    probs: _np.ndarray,
    fixed: dict[int, float],
    state: dict[int, float],
) -> _np.ndarray:
    """One topological SP pass over level-grouped node blocks.

    Each kernel multiplies across the pin axis in pin order, and sums a
    truth table's minterms in table order, so a gate's value equals the
    node-by-node pass's bit for bit.
    """
    probs[plan.n] = 1.0  # sentinel: AND-family padding input
    probs[plan.n + 1] = 0.0  # sentinel: OR/XOR-family padding input
    probs[plan.input_ids] = 0.5
    for node_id, p in fixed.items():
        probs[node_id] = p
    for node_id, p in state.items():
        probs[node_id] = p
    probs[plan.const0_ids] = 0.0
    probs[plan.const1_ids] = 1.0

    for gate_code, out_ids, fanin, table in plan.groups:
        p = probs[fanin]  # (g, k)
        if gate_code == CODE_AND or gate_code == CODE_NAND:
            acc = p.prod(axis=1)
            probs[out_ids] = acc if gate_code == CODE_AND else 1.0 - acc
        elif gate_code == CODE_OR or gate_code == CODE_NOR:
            acc = (1.0 - p).prod(axis=1)
            probs[out_ids] = 1.0 - acc if gate_code == CODE_OR else acc
        elif gate_code == CODE_NOT:
            probs[out_ids] = 1.0 - p[:, 0]
        elif gate_code == CODE_BUF:
            probs[out_ids] = p[:, 0]
        elif gate_code == CODE_XOR or gate_code == CODE_XNOR:
            odd = _np.zeros(len(out_ids))
            for pin in range(p.shape[1]):
                pin_p = p[:, pin]
                odd = odd * (1.0 - pin_p) + (1.0 - odd) * pin_p
            probs[out_ids] = odd if gate_code == CODE_XOR else 1.0 - odd
        elif gate_code == CODE_MUX:
            sel = p[:, 0]
            probs[out_ids] = (1.0 - sel) * p[:, 1] + sel * p[:, 2]
        else:
            # Generic truth-table kernel (MAJ and future cells).
            total = _np.zeros(len(out_ids))
            k = p.shape[1]
            for assignment, out in enumerate(table):
                if not out:
                    continue
                term = _np.ones(len(out_ids))
                for pin in range(k):
                    pin_p = p[:, pin]
                    term = term * (pin_p if (assignment >> pin) & 1 else 1.0 - pin_p)
                total += term
            probs[out_ids] = total
    return probs
