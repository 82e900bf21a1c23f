"""Cut-based local-BDD signal probabilities.

Accuracy midpoint between the one-pass topological SP (independence
everywhere) and global exact BDDs (no independence assumption, exponential
cost): each node's probability is computed *exactly* over a bounded-depth
window of its fanin cone, assuming independence only at the window
boundary.  Reconvergence whose stem lies inside the window — the common
case, since most reconvergent paths are short — is therefore captured
exactly.

For every node, a backward traversal collects the gates within
``cut_depth`` levels; the boundary signals become independent BDD variables
weighted with their own (previously computed) SPs.  If the boundary grows
beyond ``max_cut_width`` signals the window is shrunk for that node, in the
limit degenerating to the plain topological formula over direct fanins.

Sources are checked, and sequential circuits iterated, exactly as in the
topological backend (:mod:`repro.probability.signal_prob`): only the pass
differs.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import ProbabilityError
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.probability.bdd import BDD
from repro.probability.exact import _gate_bdd
from repro.probability.signal_prob import check_sources, run_fixed_point

__all__ = ["cut_signal_probabilities"]


def cut_signal_probabilities(
    circuit: Circuit,
    input_probs: Mapping[str, float] | None = None,
    cut_depth: int = 4,
    max_cut_width: int = 14,
    max_iterations: int = 20,
    tolerance: float = 1e-7,
) -> dict[str, float]:
    """SP of every node using depth-``cut_depth`` local BDD windows.

    Sequential circuits iterate the cut pass with the shared fixed-point
    driver, up to ``max_iterations`` passes to ``tolerance``.
    """
    compiled = circuit.compiled()
    fixed, state = check_sources(compiled, input_probs)
    if cut_depth < 1:
        raise ProbabilityError(f"cut_depth must be >= 1, got {cut_depth}")
    if max_cut_width < 2:
        raise ProbabilityError(f"max_cut_width must be >= 2, got {max_cut_width}")

    probs = [0.0] * compiled.n
    values = run_fixed_point(
        compiled,
        lambda state: _cut_pass(compiled, probs, fixed, state, cut_depth, max_cut_width),
        state, max_iterations, tolerance,
    )
    return {compiled.names[i]: values[i] for i in range(compiled.n)}


def _cut_pass(
    compiled,
    probs: list[float],
    fixed: dict[int, float],
    state: dict[int, float],
    cut_depth: int,
    max_cut_width: int,
) -> list[float]:
    level = compiled.level
    for node_id in compiled.topo:
        gate_type = compiled.gate_type(node_id)
        if gate_type is GateType.INPUT:
            probs[node_id] = fixed.get(node_id, 0.5)
            continue
        if gate_type is GateType.DFF:
            probs[node_id] = state[node_id]
            continue
        if gate_type is GateType.CONST0:
            probs[node_id] = 0.0
            continue
        if gate_type is GateType.CONST1:
            probs[node_id] = 1.0
            continue

        # Widen the window until the boundary fits, starting from the target
        # depth; depth 1 always fits or degenerates to direct fanins.
        depth = cut_depth
        while True:
            limit = level[node_id] - depth
            leaves, interior = _collect_window(compiled, node_id, limit)
            if len(leaves) <= max_cut_width or depth == 1:
                break
            depth -= 1
        probs[node_id] = _window_probability(compiled, node_id, leaves, interior, probs)
    return probs


def _collect_window(compiled, root: int, level_limit: int) -> tuple[list[int], list[int]]:
    """Backward window: returns (boundary leaves, interior gates incl. root).

    A node becomes a leaf if it is a source or its level is <= the limit.
    Both lists are deterministic (DFS discovery order; interior sorted
    topologically by level for evaluation).
    """
    leaves: list[int] = []
    interior: list[int] = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        node_id = stack.pop()
        if node_id in seen:
            continue
        seen.add(node_id)
        gate_type = compiled.gate_type(node_id)
        is_leaf = node_id != root and (
            not gate_type.is_combinational or compiled.level[node_id] <= level_limit
        )
        if is_leaf:
            leaves.append(node_id)
        else:
            interior.append(node_id)
            for pin in compiled.fanin(node_id):
                stack.append(pin)
    interior.sort(key=lambda i: compiled.level[i])
    return leaves, interior


def _window_probability(
    compiled, root: int, leaves: list[int], interior: list[int], probs: list[float]
) -> float:
    """Exact probability of ``root`` over the window, leaves independent."""
    bdd = BDD(max_nodes=200_000)
    var_of = {leaf: level for level, leaf in enumerate(leaves)}
    fn: dict[int, int] = {leaf: bdd.var(var_of[leaf]) for leaf in leaves}
    for node_id in interior:
        gate_type = compiled.gate_type(node_id)
        pins = [fn[p] for p in compiled.fanin(node_id)]
        fn[node_id] = _gate_bdd(bdd, gate_type, pins)
    leaf_probs = {var_of[leaf]: probs[leaf] for leaf in leaves}
    return bdd.sat_prob(fn[root], leaf_probs)
