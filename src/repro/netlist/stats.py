"""Circuit statistics: size, shape, and reconvergence structure.

The synthetic benchmark generator (:mod:`repro.netlist.generate`) targets
these statistics when reproducing the ISCAS'89 Table 2 circuits, and the
experiment reports print them so a reader can compare the synthetic
substitutes against the published profiles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType

__all__ = ["CircuitStats", "circuit_stats"]


@dataclass
class CircuitStats:
    """Summary statistics for one circuit."""

    name: str
    n_nodes: int
    n_inputs: int
    n_outputs: int
    n_flip_flops: int
    n_gates: int
    depth: int
    gate_histogram: dict[str, int] = field(default_factory=dict)
    max_fanin: int = 0
    avg_fanin: float = 0.0
    max_fanout: int = 0
    avg_fanout: float = 0.0
    n_fanout_stems: int = 0
    n_reconvergent_stems: int = 0

    def format(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"circuit {self.name}:",
            f"  nodes={self.n_nodes} (PI={self.n_inputs} PO={self.n_outputs} "
            f"DFF={self.n_flip_flops} gates={self.n_gates}) depth={self.depth}",
            f"  fanin avg/max = {self.avg_fanin:.2f}/{self.max_fanin}  "
            f"fanout avg/max = {self.avg_fanout:.2f}/{self.max_fanout}",
            f"  fanout stems={self.n_fanout_stems} "
            f"reconvergent={self.n_reconvergent_stems}",
            "  gates: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.gate_histogram.items())),
        ]
        return "\n".join(lines)


def circuit_stats(circuit: Circuit, reconvergence_limit: int = 2000) -> CircuitStats:
    """Compute :class:`CircuitStats` for ``circuit``.

    ``reconvergence_limit`` caps how many fanout stems are tested for
    reconvergence (the test walks each stem's cone); pass 0 to skip it.
    """
    compiled = circuit.compiled()
    histogram = Counter(
        node.gate_type.value for node in circuit if node.gate_type.is_combinational
    )
    gate_ids = [
        i for i in range(compiled.n) if compiled.gate_type(i).is_combinational
    ]
    fanin_sizes = [len(compiled.fanin(i)) for i in gate_ids]
    fanout_sizes = [len(compiled.fanout(i)) for i in range(compiled.n)]
    stems = [i for i in range(compiled.n) if len(compiled.fanout(i)) >= 2]

    n_reconv = 0
    if reconvergence_limit:
        for stem in stems[:reconvergence_limit]:
            if _is_reconvergent(compiled, stem):
                n_reconv += 1

    return CircuitStats(
        name=circuit.name,
        n_nodes=compiled.n,
        n_inputs=len(circuit.inputs),
        n_outputs=len(circuit.outputs),
        n_flip_flops=len(circuit.flip_flops),
        n_gates=len(gate_ids),
        depth=circuit.depth(),
        gate_histogram=dict(histogram),
        max_fanin=max(fanin_sizes, default=0),
        avg_fanin=(sum(fanin_sizes) / len(fanin_sizes)) if fanin_sizes else 0.0,
        max_fanout=max(fanout_sizes, default=0),
        avg_fanout=(sum(fanout_sizes) / len(fanout_sizes)) if fanout_sizes else 0.0,
        n_fanout_stems=len(stems),
        n_reconvergent_stems=n_reconv,
    )


def _is_reconvergent(compiled, stem: int) -> bool:
    """True if >= 2 distinct fanout branches of ``stem`` reach a common node.

    Walks forward from each branch accumulating a per-node branch bitmask;
    a node collecting two different branch bits proves reconvergence.
    Traversal stops at DFFs (a reconvergence across a clock boundary is not
    a combinational reconvergence).
    """
    branches = compiled.fanout(stem)
    mask: dict[int, int] = {}
    stack: list[tuple[int, int]] = []
    for k, branch in enumerate(branches):
        stack.append((branch, 1 << k))
    while stack:
        node, bit = stack.pop()
        prev = mask.get(node, 0)
        if prev & bit:
            continue
        mask[node] = prev | bit
        if prev:  # a different branch already reached this node
            return True
        if compiled.gate_type(node) is GateType.DFF:
            continue
        for user in compiled.fanout(node):
            stack.append((user, bit))
    return False
