"""Topological signal-probability computation (Parker–McCluskey style).

One pass in topological order computes every node's probability of being 1
from its fanin probabilities, assuming fanin independence.  The assumption
is exact on trees and biased wherever reconvergent fanout correlates fanins
— the standard, fast baseline the paper builds on (reference [5]).

Sequential circuits are handled by fixed-point iteration across the
flip-flop boundary: DFF outputs start at SP 0.5, each pass recomputes the
D-driver SPs, and the state SPs are updated (with optional damping) until
the largest change falls below tolerance.

Circuits above a small size threshold run a *vectorized* NumPy pass:
nodes are grouped by ``(level, gate code, arity)`` once per compiled
circuit, and each level executes as a handful of array operations over
the node axis instead of a Python loop over nodes.  The grouping is
cached on the compiled circuit, so sequential fixed-point iteration
amortizes it across all passes.  Both passes compute the same arithmetic
in the same per-gate association order; results agree to floating-point
rounding.
"""

from __future__ import annotations

from collections.abc import Mapping

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
    CODE_MAJ,
    CODE_MUX,
    CODE_NAND,
    CODE_NOR,
    CODE_NOT,
    CODE_OR,
    CODE_XNOR,
    CODE_XOR,
    GateType,
    truth_table,
)

__all__ = [
    "compute_signal_probabilities",
    "SequentialConvergence",
]


def _p_truth_table(gate_type: GateType, probs: list[float]) -> float:
    table = truth_table(gate_type, len(probs))
    total = 0.0
    for assignment, out in enumerate(table):
        if not out:
            continue
        term = 1.0
        for k, p in enumerate(probs):
            term *= p if (assignment >> k) & 1 else (1.0 - p)
        total += term
    return total


class SequentialConvergence:
    """Record of the fixed-point iteration over flip-flop probabilities."""

    def __init__(self) -> None:
        self.iterations = 0
        self.final_delta = 0.0
        self.converged = False


def compute_signal_probabilities(
    circuit: Circuit | CompiledCircuit,
    input_probs: Mapping[str, float] | None = None,
    state_probs: Mapping[str, float] | None = None,
    max_iterations: int = 50,
    tolerance: float = 1e-9,
    damping: float = 0.0,
    convergence: SequentialConvergence | None = None,
) -> dict[str, float]:
    """Topological SP for every node; fixed-point over DFFs if sequential.

    Parameters
    ----------
    input_probs:
        Per-primary-input probability of 1 (default 0.5).  Probabilities
        outside [0, 1] raise :class:`~repro.errors.ProbabilityError`.
    state_probs:
        Initial flip-flop-output probabilities (default 0.5).
    max_iterations, tolerance, damping:
        Fixed-point controls for sequential circuits; ``damping`` blends the
        new state SP with the previous one (0 = no damping) which helps
        oscillating feedback structures converge.
    convergence:
        Optional out-parameter collecting iteration count and final delta.
    """
    compiled = circuit.compiled() if isinstance(circuit, Circuit) else circuit
    use_vector = compiled.n >= _VEC_MIN_NODES
    # The vectorized pass appends two sentinel slots (SP 1.0 / 0.0) used to
    # pad mixed-arity gate groups; see _SPLevelPlan.
    probs = _np.zeros(compiled.n + 2) if use_vector else [0.0] * compiled.n
    one_pass = _one_pass_vec if use_vector else _one_pass
    code = compiled.code

    fixed: dict[int, float] = {}
    for name, p in (input_probs or {}).items():
        node_id = compiled.index.get(name)
        if node_id is None:
            raise ProbabilityError(f"input_probs names unknown node {name!r}")
        if not 0.0 <= p <= 1.0:
            raise ProbabilityError(f"probability for {name!r} out of [0,1]: {p}")
        fixed[node_id] = float(p)

    state: dict[int, float] = {dff: 0.5 for dff in compiled.dff_ids}
    for name, p in (state_probs or {}).items():
        node_id = compiled.index.get(name)
        if node_id is None or compiled.gate_type(node_id) is not GateType.DFF:
            raise ProbabilityError(f"state_probs names non-DFF node {name!r}")
        if not 0.0 <= p <= 1.0:
            raise ProbabilityError(f"probability for {name!r} out of [0,1]: {p}")
        state[node_id] = float(p)

    d_driver = {dff: compiled.fanin(dff)[0] for dff in compiled.dff_ids}
    record = convergence if convergence is not None else SequentialConvergence()

    iterations = max_iterations if compiled.dff_ids else 1
    for iteration in range(max(1, iterations)):
        one_pass(compiled, probs, fixed, state)
        if not compiled.dff_ids:
            record.converged = True
            break
        delta = 0.0
        new_state: dict[int, float] = {}
        for dff, driver in d_driver.items():
            target = float(probs[driver])
            blended = damping * state[dff] + (1.0 - damping) * target
            delta = max(delta, abs(blended - state[dff]))
            new_state[dff] = blended
        state = new_state
        record.iterations = iteration + 1
        record.final_delta = delta
        if delta < tolerance:
            record.converged = True
            # One final pass so interior nodes reflect the converged state.
            one_pass(compiled, probs, fixed, state)
            break

    if use_vector:
        values = probs.tolist()
        return {compiled.names[i]: values[i] for i in range(compiled.n)}
    return {compiled.names[i]: probs[i] for i in range(compiled.n)}


#: Minimum node count before the vectorized pass pays for its array
#: dispatch; below it the plain Python pass is faster.
_VEC_MIN_NODES = 2000


class _SPLevelPlan:
    """Level-grouped node blocks for the vectorized SP pass.

    Combinational nodes are bucketed by ``(level, gate code, arity)`` into
    rectangular ``(out_ids, fanin)`` index arrays; sources are captured as
    flat id arrays.  Built once per compiled circuit and cached on it.
    """

    def __init__(self, compiled: CompiledCircuit):
        self.input_ids = _np.asarray(compiled.input_ids, dtype=_np.intp)
        code = compiled.code
        self.const0_ids = _np.asarray(
            [i for i in range(compiled.n) if code[i] == CODE_CONST0], dtype=_np.intp
        )
        self.const1_ids = _np.asarray(
            [i for i in range(compiled.n) if code[i] == CODE_CONST1], dtype=_np.intp
        )
        # Shared grouping with the batch EPP backend: mixed-arity gates of
        # the paddable families merge per level via the constant-1/0
        # sentinel slots at ids n / n + 1 (an exact float identity for
        # these kernels — see ``CompiledCircuit.level_gate_groups``).
        self.groups: list[tuple[int, _np.ndarray, _np.ndarray, tuple | None]] = []
        for _level, gate_code, outs, fins, width in compiled.level_gate_groups(
            _VEC_PADDABLE_CODES, _VEC_PAD_ONE_CODES
        ):
            table = None
            if gate_code not in _VEC_CLOSED_FORM_CODES:
                table = truth_table(compiled.gate_type(outs[0]), width)
            self.groups.append(
                (
                    gate_code,
                    _np.asarray(outs, dtype=_np.intp),
                    _np.asarray(fins, dtype=_np.intp),
                    table,
                )
            )

    @staticmethod
    def for_compiled(compiled: CompiledCircuit) -> "_SPLevelPlan":
        plan = getattr(compiled, "_sp_level_plan", None)
        if plan is None:
            plan = _SPLevelPlan(compiled)
            compiled._sp_level_plan = plan
        return plan


_VEC_CLOSED_FORM_CODES = frozenset(
    (CODE_AND, CODE_NAND, CODE_OR, CODE_NOR, CODE_XOR, CODE_XNOR,
     CODE_NOT, CODE_BUF, CODE_MUX)
)

#: Codes whose SP kernels have an exact neutral input; the grouping itself
#: lives in ``CompiledCircuit.level_gate_groups`` and is shared with the
#: batch EPP backend (:mod:`repro.core.epp_batch`).
_VEC_PADDABLE_CODES = frozenset(
    (CODE_AND, CODE_NAND, CODE_OR, CODE_NOR, CODE_XOR, CODE_XNOR)
)
_VEC_PAD_ONE_CODES = frozenset((CODE_AND, CODE_NAND))


def _one_pass_vec(
    compiled: CompiledCircuit,
    probs,
    fixed: dict[int, float],
    state: dict[int, float],
) -> None:
    """Vectorized topological SP pass over level-grouped node blocks.

    Per-gate arithmetic and association order mirror :func:`_one_pass`
    exactly (products across the pin axis in pin order), so the two passes
    agree to floating-point rounding.
    """
    plan = _SPLevelPlan.for_compiled(compiled)
    probs[compiled.n] = 1.0  # sentinel: AND-family padding input
    probs[compiled.n + 1] = 0.0  # sentinel: OR/XOR-family padding input
    if len(plan.input_ids):
        probs[plan.input_ids] = 0.5
        for node_id, p in fixed.items():
            if compiled.code[node_id] == CODE_INPUT:
                probs[node_id] = p
    for node_id, p in state.items():
        probs[node_id] = p
    if len(plan.const0_ids):
        probs[plan.const0_ids] = 0.0
    if len(plan.const1_ids):
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
            # Generic truth-table fallback (MAJ and future cells), summing
            # minterms in the same order as the scalar `_p_truth_table`.
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


def _one_pass(
    compiled: CompiledCircuit,
    probs: list[float],
    fixed: dict[int, float],
    state: dict[int, float],
) -> None:
    """One topological SP propagation with the given source probabilities."""
    code = compiled.code
    for node_id in compiled.topo:
        gate_code = code[node_id]
        if gate_code == CODE_INPUT:
            probs[node_id] = fixed.get(node_id, 0.5)
        elif gate_code == CODE_DFF:
            probs[node_id] = state[node_id]
        elif gate_code == CODE_CONST0:
            probs[node_id] = 0.0
        elif gate_code == CODE_CONST1:
            probs[node_id] = 1.0
        else:
            pins = compiled.fanin(node_id)
            if gate_code == CODE_AND or gate_code == CODE_NAND:
                acc = 1.0
                for pin in pins:
                    acc *= probs[pin]
                probs[node_id] = acc if gate_code == CODE_AND else 1.0 - acc
            elif gate_code == CODE_OR or gate_code == CODE_NOR:
                acc = 1.0
                for pin in pins:
                    acc *= 1.0 - probs[pin]
                probs[node_id] = 1.0 - acc if gate_code == CODE_OR else acc
            elif gate_code == CODE_NOT:
                probs[node_id] = 1.0 - probs[pins[0]]
            elif gate_code == CODE_BUF:
                probs[node_id] = probs[pins[0]]
            elif gate_code == CODE_XOR or gate_code == CODE_XNOR:
                odd = 0.0
                for pin in pins:
                    p = probs[pin]
                    odd = odd * (1.0 - p) + (1.0 - odd) * p
                probs[node_id] = odd if gate_code == CODE_XOR else 1.0 - odd
            elif gate_code == CODE_MUX:
                s, a, b = (probs[p] for p in pins)
                probs[node_id] = (1.0 - s) * a + s * b
            else:
                probs[node_id] = _p_truth_table(
                    compiled.gate_type(node_id), [probs[p] for p in pins]
                )
