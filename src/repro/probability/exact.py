"""Exact signal probabilities via global BDDs.

Builds one BDD per node over the primary-input variables and evaluates the
weighted satisfaction probability.  Exact under the independent-inputs
model, so it serves as ground truth for the approximate backends in tests
and ablations.  Cost is the usual BDD caveat: worst-case exponential, so
this backend is meant for small and medium circuits (guarded by
``max_nodes``).

Sequential circuits are rejected — cut them first with
:func:`repro.netlist.transform.to_combinational` and assign the state
inputs whatever distribution the analysis calls for.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import ProbabilityError
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType, truth_table
from repro.probability.bdd import BDD
from repro.probability.signal_prob import check_sources

__all__ = ["exact_signal_probabilities", "build_node_bdds"]


def build_node_bdds(
    circuit: Circuit,
    manager: BDD | None = None,
) -> tuple[BDD, dict[str, int], dict[str, int]]:
    """Build a BDD for every node of a combinational circuit.

    Returns ``(manager, functions, var_levels)`` where ``functions`` maps
    node name -> BDD id and ``var_levels`` maps primary-input name -> the
    BDD variable level assigned to it (declaration order).
    """
    if circuit.is_sequential:
        raise ProbabilityError(
            f"circuit {circuit.name!r} is sequential; cut it with to_combinational() "
            "before exact BDD analysis"
        )
    bdd = manager if manager is not None else BDD()
    compiled = circuit.compiled()
    var_levels = {name: level for level, name in enumerate(circuit.inputs)}
    functions: dict[str, int] = {}
    node_fn: list[int] = [0] * compiled.n

    for node_id in compiled.topo:
        gate_type = compiled.gate_type(node_id)
        name = compiled.names[node_id]
        if gate_type is GateType.INPUT:
            fn = bdd.var(var_levels[name])
        elif gate_type is GateType.CONST0:
            fn = BDD.ZERO
        elif gate_type is GateType.CONST1:
            fn = BDD.ONE
        else:
            pins = [node_fn[p] for p in compiled.fanin(node_id)]
            fn = _gate_bdd(bdd, gate_type, pins)
        node_fn[node_id] = fn
        functions[name] = fn
    return bdd, functions, var_levels


def _gate_bdd(bdd: BDD, gate_type: GateType, pins: list[int]) -> int:
    if gate_type is GateType.AND:
        return bdd.and_many(pins)
    if gate_type is GateType.NAND:
        return bdd.not_(bdd.and_many(pins))
    if gate_type is GateType.OR:
        return bdd.or_many(pins)
    if gate_type is GateType.NOR:
        return bdd.not_(bdd.or_many(pins))
    if gate_type is GateType.XOR:
        return bdd.xor_many(pins)
    if gate_type is GateType.XNOR:
        return bdd.not_(bdd.xor_many(pins))
    if gate_type is GateType.NOT:
        return bdd.not_(pins[0])
    if gate_type is GateType.BUF:
        return pins[0]
    if gate_type is GateType.MUX:
        sel, a, b = pins
        return bdd.ite(sel, b, a)
    # MAJ and anything exotic: compose from the truth table.
    return bdd.compose_truth_table(truth_table(gate_type, len(pins)), pins)


def exact_signal_probabilities(
    circuit: Circuit,
    input_probs: Mapping[str, float] | None = None,
    max_nodes: int = 2_000_000,
) -> dict[str, float]:
    """Exact SP of every node under independent primary inputs."""
    compiled = circuit.compiled()
    fixed, _ = check_sources(compiled, input_probs)
    bdd = BDD(max_nodes=max_nodes)
    _, functions, var_levels = build_node_bdds(circuit, manager=bdd)
    probs_by_level = {
        level: fixed.get(compiled.index[name], 0.5)
        for name, level in var_levels.items()
    }
    return {
        name: bdd.sat_prob(fn, probs_by_level) for name, fn in functions.items()
    }
