"""Netlist transforms: the sequential cut and TMR.

The EPP and simulation engines work on sequential circuits directly (they
treat DFF outputs as sources and DFF D-pins as sinks), but several backends
(BDD-based exact analysis, exhaustive enumeration) need a genuinely
combinational netlist.  :func:`to_combinational` produces that cut.

:func:`triplicate` implements triple modular redundancy with majority
voters — the classic hardening transform the paper motivates ("identify the
most vulnerable components to be protected by soft error hardening
techniques") — and is exercised by the hardening examples and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NetlistError
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType

__all__ = [
    "CombinationalView",
    "to_combinational",
    "triplicate",
    "triplicate_nodes",
]


@dataclass
class CombinationalView:
    """Result of cutting a sequential circuit at its DFF boundary.

    ``circuit`` is pure-combinational: every DFF Q net became a primary
    input (same name), and every DFF D driver is marked as an output.

    ``state_inputs`` maps pseudo-input name -> original DFF name (identical
    strings; kept as an explicit map for clarity), ``state_outputs`` maps
    the D-driver net -> list of DFF names it feeds (one driver may feed
    several flip-flops).
    """

    circuit: Circuit
    state_inputs: dict[str, str] = field(default_factory=dict)
    state_outputs: dict[str, list[str]] = field(default_factory=dict)

    @property
    def is_identity(self) -> bool:
        """True when the original circuit had no flip-flops."""
        return not self.state_inputs


def to_combinational(circuit: Circuit) -> CombinationalView:
    """Cut ``circuit`` at the flip-flop boundary.

    The returned view's circuit preserves node names, gate types and primary
    input/output order; DFF nodes are replaced by INPUT nodes of the same
    name, and each DFF's D driver is additionally marked as an output.
    """
    cut = Circuit(f"{circuit.name}__comb")
    view = CombinationalView(cut)
    for node in circuit:
        if node.gate_type is GateType.INPUT:
            cut.add_input(node.name)
        elif node.gate_type is GateType.DFF:
            cut.add_input(node.name)
            view.state_inputs[node.name] = node.name
            d_driver = node.fanin[0]
            view.state_outputs.setdefault(d_driver, []).append(node.name)
        elif node.gate_type in (GateType.CONST0, GateType.CONST1):
            cut.add_const(node.name, 1 if node.gate_type is GateType.CONST1 else 0)
        else:
            cut.add_gate(node.name, node.gate_type, node.fanin)
    for output in circuit.outputs:
        cut.mark_output(output)
    for d_driver in view.state_outputs:
        cut.mark_output(d_driver)
    cut.compiled()
    return view


def _pick_suffixes(
    base_names,
    reserved: set[str],
    suffixes: tuple[str, str, str] | None,
    context: str,
) -> tuple[str, str, str]:
    """Collision-free replica suffixes for ``base_names`` vs ``reserved``.

    With ``suffixes=None`` start from ``("__r0", "__r1", "__r2")`` and
    deterministically escalate (append ``"_"`` to all three) until no
    ``base + suffix`` lands on a reserved name — a circuit that already
    contains ``__r0``-suffixed nodes (e.g. from a previous TMR pass) must
    not make replica creation explode.  The three candidates stay equal
    length and differ at a fixed position, so replicas of distinct bases
    can never collide with *each other*; only the reserved set needs
    checking.  Explicitly passed suffixes are the caller's contract:
    distinctness is required and a reserved-name collision raises instead
    of silently renaming.
    """
    explicit = suffixes is not None
    chosen: tuple[str, str, str] = (
        tuple(suffixes) if explicit else ("__r0", "__r1", "__r2")
    )
    if len(set(chosen)) != 3:
        raise NetlistError(f"{context} needs three distinct suffixes")

    def collisions(candidate: tuple[str, str, str]) -> list[str]:
        return [
            name + suffix
            for name in base_names
            for suffix in candidate
            if name + suffix in reserved
        ]

    clashes = collisions(chosen)
    if explicit:
        if clashes:
            raise NetlistError(
                f"{context}: replica suffixes {chosen!r} collide with "
                f"existing node name(s) {sorted(clashes)[:3]!r}"
            )
        return chosen
    while clashes:
        chosen = tuple(suffix + "_" for suffix in chosen)
        clashes = collisions(chosen)
    return chosen


def triplicate(
    circuit: Circuit, suffixes: tuple[str, str, str] | None = None
) -> Circuit:
    """Triple-modular-redundancy transform.

    Primary inputs are shared across the three replicas; every gate and DFF
    is triplicated with the given name suffixes; each primary output becomes
    a MAJ voter over the three replica copies, keeping the original output
    name.  The returned circuit is a drop-in functional replacement whose
    single-SEU P_sensitized at any interior replica node is (ideally) zero.

    By default the replica suffixes are ``__r0``/``__r1``/``__r2``,
    deterministically escalated if the circuit already contains nodes with
    those suffixes (so re-running the transform, or applying it after
    :func:`triplicate_nodes`, never raises a duplicate-name error);
    explicitly passed suffixes raise on collision instead.
    """
    replicated = [
        node.name for node in circuit if node.gate_type is not GateType.INPUT
    ]
    # Names present in the TMR circuit besides the replicas: shared
    # inputs, plus voter names (every original output keeps its name).
    reserved = set(circuit.inputs) | set(circuit.outputs)
    suffixes = _pick_suffixes(replicated, reserved, suffixes, "triplicate")
    tmr = Circuit(f"{circuit.name}__tmr")
    for name in circuit.inputs:
        tmr.add_input(name)

    def replica_name(name: str, k: int) -> str:
        if circuit.node(name).gate_type is GateType.INPUT:
            return name  # inputs are shared
        return name + suffixes[k]

    for node in circuit:
        if node.gate_type is GateType.INPUT:
            continue
        for k in range(3):
            fanin = tuple(replica_name(f, k) for f in node.fanin)
            new_name = replica_name(node.name, k)
            if node.gate_type is GateType.DFF:
                tmr.add_dff(new_name, fanin[0])
            elif node.gate_type in (GateType.CONST0, GateType.CONST1):
                tmr.add_const(new_name, 1 if node.gate_type is GateType.CONST1 else 0)
            else:
                tmr.add_gate(new_name, node.gate_type, fanin)

    for output in circuit.outputs:
        voter_inputs = [replica_name(output, k) for k in range(3)]
        if circuit.node(output).gate_type is GateType.INPUT:
            # An output that is directly an input needs no voter.
            tmr.mark_output(output)
            continue
        tmr.add_gate(output, GateType.MAJ, voter_inputs)
        tmr.mark_output(output)
    tmr.compiled()
    # Record the suffixes actually used (escalation may have changed
    # them) so callers can derive replica names without guessing.
    tmr.tmr_suffixes = suffixes
    return tmr


def triplicate_nodes(
    circuit: Circuit,
    nodes,
    suffixes: tuple[str, str, str] | None = None,
) -> dict[str, tuple[str, str, str]]:
    """Local TMR: triplicate selected gates in place, voting immediately.

    For each named combinational gate ``g``, three replicas
    ``g<sfx0>``/``g<sfx1>``/``g<sfx2>`` with ``g``'s gate type and fanin
    are added, and ``g`` itself becomes a MAJ voter over them — the name
    ``g`` is kept, so every user of ``g`` (including output markings and
    DFF D-pins) is untouched.  This is the per-gate hardening move the
    selective-hardening loop evaluates: an SEU inside one replica is
    outvoted at the voter instead of propagating.

    Mutates ``circuit`` in place and returns ``{name: replica_names}``.
    Suffix selection matches :func:`triplicate`: the defaults escalate
    deterministically past existing ``__r``-suffixed names (repeated
    local TMR on nearby gates stays legal), explicit suffixes raise on
    collision.  Only combinational gates can be triplicated this way —
    inputs have no logic to replicate and a DFF voter would change the
    state boundary — and duplicate names in ``nodes`` are rejected.
    """
    targets = []
    seen: set[str] = set()
    for name in nodes:
        if name in seen:
            raise NetlistError(f"triplicate_nodes: duplicate target {name!r}")
        seen.add(name)
        node = circuit.node(name)
        if not node.gate_type.is_combinational:
            raise NetlistError(
                f"triplicate_nodes: {name!r} is a {node.gate_type.value} "
                "node; only combinational gates can be locally triplicated"
            )
        targets.append(node)

    reserved = {node.name for node in circuit}
    suffixes = _pick_suffixes(
        [node.name for node in targets], reserved, suffixes, "triplicate_nodes"
    )
    mapping: dict[str, tuple[str, str, str]] = {}
    for node in targets:
        replicas = tuple(node.name + suffix for suffix in suffixes)
        for replica in replicas:
            circuit.add_gate(replica, node.gate_type, node.fanin)
        circuit.replace_gate(node.name, GateType.MAJ, replicas)
        mapping[node.name] = replicas
    return mapping
