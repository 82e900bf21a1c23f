"""Ground-truth helpers shared across test modules."""

from __future__ import annotations

import heapq
import os
import signal
import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.analysis import NodeSER
from repro.core.epp import EPPResult
from repro.core.epp_batch import BatchEPPBackend
from repro.errors import AnalysisError
from repro.netlist.circuit import Circuit
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
    GateType,
    truth_table,
)
from repro.probability.signal_prob import check_sources, run_fixed_point
from repro.ser.fit import combine_fit, per_second_to_fit
from repro.sim.fault_sim import FaultInjector
from repro.sim.vectors import exhaustive_words


def exhaustive_p_sensitized(circuit: Circuit, site: str) -> float:
    """Ground-truth P_sensitized by enumerating every input vector.

    Only valid for combinational circuits with <= 24 inputs.  Counts the
    fraction of vectors for which flipping ``site`` changes at least one
    observable sink — the definition the EPP method approximates.
    """
    injector = FaultInjector(circuit)
    words, width = exhaustive_words(circuit.inputs)
    good = injector.simulator.run(words, width)
    return injector.detection_count(good, site, width) / width


def exhaustive_all_sites(circuit: Circuit) -> dict[str, float]:
    """Ground-truth P_sensitized for every combinational gate site."""
    injector = FaultInjector(circuit)
    words, width = exhaustive_words(circuit.inputs)
    good = injector.simulator.run(words, width)
    return {
        site: injector.detection_count(good, site, width) / width
        for site in circuit.gates
    }


def build_chain(gate_types: list[GateType], name: str = "chain") -> Circuit:
    """A single path x -> g1 -> g2 -> ... -> PO (fanout-free).

    Multi-input gate types get a dedicated primary input as their side pin,
    keeping the chain free of reconvergence.
    """
    circuit = Circuit(name)
    circuit.add_input("x")
    previous = "x"
    for index, gate_type in enumerate(gate_types):
        node = f"n{index}"
        if gate_type in (GateType.NOT, GateType.BUF):
            circuit.add_gate(node, gate_type, [previous])
        else:
            side = f"s{index}"
            circuit.add_input(side)
            circuit.add_gate(node, gate_type, [previous, side])
        previous = node
    circuit.mark_output(previous)
    return circuit


# ----------------------------------------------- SP pass reference


def reference_signal_probabilities(
    circuit: Circuit, input_probs: Mapping[str, float] | None = None
) -> dict[str, float]:
    """The node-by-node topological SP pass, as a map by node name.

    A Python loop over ``compiled.topo`` that evaluates each gate from
    its fanins in pin order, run through the production fixed-point
    driver with ``compute_signal_probabilities``' defaults (50 passes,
    tolerance 1e-9).  The level-grouped NumPy pass must equal it bit for
    bit on every node.
    """
    compiled = circuit.compiled()
    fixed, state = check_sources(compiled, input_probs)
    probs = [0.0] * compiled.n

    def one_pass(state: dict[int, float]) -> list[float]:
        code = compiled.code
        for node_id in compiled.topo:
            gate_code = code[node_id]
            pins = compiled.fanin(node_id)
            if gate_code == CODE_INPUT:
                value = fixed.get(node_id, 0.5)
            elif gate_code == CODE_DFF:
                value = state[node_id]
            elif gate_code == CODE_CONST0:
                value = 0.0
            elif gate_code == CODE_CONST1:
                value = 1.0
            elif gate_code in (CODE_AND, CODE_NAND):
                value = 1.0
                for pin in pins:
                    value *= probs[pin]
                if gate_code == CODE_NAND:
                    value = 1.0 - value
            elif gate_code in (CODE_OR, CODE_NOR):
                value = 1.0
                for pin in pins:
                    value *= 1.0 - probs[pin]
                if gate_code == CODE_OR:
                    value = 1.0 - value
            elif gate_code == CODE_NOT:
                value = 1.0 - probs[pins[0]]
            elif gate_code == CODE_BUF:
                value = probs[pins[0]]
            elif gate_code in (CODE_XOR, CODE_XNOR):
                value = 0.0
                for pin in pins:
                    value = value * (1.0 - probs[pin]) + (1.0 - value) * probs[pin]
                if gate_code == CODE_XNOR:
                    value = 1.0 - value
            elif gate_code == CODE_MUX:
                sel, a, b = (probs[pin] for pin in pins)
                value = (1.0 - sel) * a + sel * b
            else:
                # Sum the truth table's minterms in table order.
                value = 0.0
                table = truth_table(compiled.gate_type(node_id), len(pins))
                for assignment, out in enumerate(table):
                    if not out:
                        continue
                    term = 1.0
                    for k, pin in enumerate(pins):
                        p = probs[pin]
                        term *= p if (assignment >> k) & 1 else 1.0 - p
                    value += term
            probs[node_id] = value
        return probs

    values = run_fixed_point(compiled, one_pass, state, 50, 1e-9)
    return {compiled.names[i]: values[i] for i in range(compiled.n)}


# ----------------------------------------------- XOR kernel reference


def reference_xor_vec(x: np.ndarray, invert: bool = False) -> np.ndarray:
    """The XOR-family convolution from the identity start, over an ``(r,
    k, 4, s)`` fanin tensor — the oracle of ``rules_vec.xor_vec``, which
    starts from pin 0's planes instead.  ``d[c][e]`` = P[constant-bit =
    c, error-parity = e] starts at ``(1, 0, 0, 0)`` and steps through
    every pin, each new plane summing its four products left to right.
    Returns ``(r, 4, s)``; ``invert`` gives the XNOR slots."""
    p0, p1, pa, pab = 2, 3, 0, 1
    r, k, _, s = x.shape
    cur = [np.full((r, s), value) for value in (1.0, 0.0, 0.0, 0.0)]
    for i in range(k):
        x00, x10, x01, x11 = (x[:, i, plane, :] for plane in (p0, p1, pa, pab))
        d00, d10, d01, d11 = cur
        cur = [
            d00 * a + d10 * b + d01 * c + d11 * d
            for a, b, c, d in (
                (x00, x10, x01, x11),
                (x10, x00, x11, x01),
                (x01, x11, x00, x10),
                (x11, x01, x10, x00),
            )
        ]
    out = np.empty((r, 4, s))
    for plane, slot in zip(cur, (p1, p0, pab, pa) if invert else (p0, p1, pa, pab)):
        out[:, slot, :] = plane
    return out


# ----------------------------------------------- dense sweep reference


def dense_sweep(backend, site_ids):
    """The dense reference sweep of one chunk: every level, every gate
    group, row kernels only, over fresh full ``(n + 2, 4, s)`` buffers.

    It reads ``backend.plan.levels`` and the ``rules_vec`` row kernels
    the production sweep reads, but none of its compaction: no chunk
    plan, no slot layout, no cell tier, no sink translation.  So every
    packed array the production sweep returns must equal this oracle's
    with ``np.array_equal``.  Returns the production sweep's ``(state,
    mask, layout)`` triple, with the identity layout: every sink, in
    ``plan.sink_ids`` order, the sink plane of their survival factors
    read off the final matrix, and the cone counts summed over the
    whole mask.
    """
    n_rows = backend.compiled.n + 2
    s = len(site_ids)
    # Two sentinel rows extend the node axis: constant 1, then constant 0.
    sp = np.concatenate((backend.sp, (1.0, 0.0)))
    const = np.zeros((n_rows, 4))
    const[:, 2] = 1.0 - sp
    const[:, 3] = sp
    state = np.repeat(const[:, :, None], s, axis=2)
    mask = np.zeros((n_rows, s), dtype=bool)
    cols = np.arange(s)
    # The error site carries the erroneous value with certainty: 1(a).
    state[site_ids, :, cols] = (1.0, 0.0, 0.0, 0.0)
    mask[site_ids, cols] = True
    # Columns to re-inject when a group's output node is itself a site
    # of this chunk (the scatter writes SP constants over them).
    site_cols: dict[int, list[int]] = {}
    for col, site_id in enumerate(site_ids.tolist()):
        site_cols.setdefault(site_id, []).append(col)
    for _, groups in backend.plan.levels:
        for group in groups:
            out_ids = group.out_ids
            out_mask = mask[group.fanin].any(axis=1)  # (g, s)
            if not out_mask.any():
                continue  # whole group off-path: SP constants hold
            result = group.rule(state, group.fanin)  # (g, 4, s)
            if out_mask.all():
                state[out_ids] = result
                mask[out_ids] = True
                continue
            state[out_ids] = np.where(
                out_mask[:, None, :], result, const[out_ids][:, :, None]
            )
            mask[out_ids] = out_mask
            for node_id in out_ids.tolist():
                # A site is never on-path for its own column: restore
                # the injected 1(a) the scatter just overwrote.
                for col in site_cols.get(node_id, ()):
                    state[node_id, :, col] = (1.0, 0.0, 0.0, 0.0)
                    mask[node_id, col] = True
    sinks = backend.plan.sink_ids
    survive = backend._survival(state, mask, sinks)
    return state, mask, (sinks, np.arange(len(sinks)), survive,
                         mask.sum(axis=0))


def dense_backend(engine, batch_size=None):
    """A vector backend over ``engine``'s circuit and SP map whose every
    chunk runs :func:`dense_sweep`.

    The oracle is assigned to the backend's ``_sweep`` like the
    ``_cells`` hook, so ``pack_sites``, ``p_sensitized_many`` and
    ``analyze_sites`` run it with their chunking, scheduling, reduction
    and pack unchanged; it ignores the chunk plan the driver passes.
    The engine's own backends are not touched.
    """
    backend = BatchEPPBackend(engine.compiled, engine._sp, batch_size=batch_size)
    backend._sweep = lambda site_ids, _cplan: dense_sweep(backend, site_ids)
    return backend


def reference_p_sensitized(packed) -> np.ndarray:
    """``P_sensitized`` per site of a packed tuple, reduced over its
    (site, sink) pairs: ``1 - multiply.reduceat(1 - min(v0 + v1, 1),
    starts)``, with 0.0 for a site with no pair.

    The backend reduces each chunk once, down its sink planes, and packs
    ``p_sens`` from that same reduction; this per-site product over the
    packed pairs is an independent reference for it.  Each site's pairs
    are listed in sink order, so the two agree bit for bit.
    """
    _, _, counts, _, values = packed
    error = np.minimum(values[:, 0] + values[:, 1], 1.0)
    p_sens = np.zeros(len(counts))
    occupied = counts > 0
    if occupied.any():
        # Starts of the non-empty sites only: consecutive starts then
        # delimit exactly each site's own pairs, so reduceat never sees a
        # degenerate slice.
        starts = (np.cumsum(counts) - counts)[occupied]
        p_sens[occupied] = 1.0 - np.multiply.reduceat(1.0 - error, starts)
    return p_sens


def use_dense_backend(engine, batch_size=None):
    """Make a :func:`dense_backend` the engine's cached vector backend, so
    ``engine.analyze`` and ``engine.snapshot`` run the oracle too (until
    a call with another batch size replaces it)."""
    engine._vector_backend = dense_backend(engine, batch_size)
    return engine._vector_backend


# ------------------------------------------- live-row chunk plans


def slot_history(plan) -> list:
    """Per swept level of ``plan``, ``(touched, written, slot_nodes)``:
    the global ids of the rows the level reads, writes, injects a site
    column into (before or after its groups) or captures as a sink, the
    rows its groups write, and the slot-to-node map in force while it
    runs — rebuilt from the plan's levels alone: a slot holds the row
    seeded into it or the row a group writes into it."""
    node_of = np.full(plan.n_slots, -1)
    node_of[:len(plan.pinned_nodes)] = plan.pinned_nodes
    history = []
    for level in plan.levels:
        node_of[level.seed_slots] = level.seed_nodes
        for _, out_slots, _, out_nodes in level.groups:
            node_of[out_slots] = out_nodes
        written = [out_nodes for _, _, _, out_nodes in level.groups]
        touched = written + [
            node_of[fanin].ravel() for _, _, fanin, _ in level.groups
        ] + [node_of[level.site_slots], node_of[level.written_site_slots],
             node_of[level.sink_slots]]
        history.append((
            set(np.concatenate(touched).tolist()),
            set(np.concatenate(written or [[]]).tolist()),
            node_of.copy(),
        ))
    return history


def live_peak(plan) -> int:
    """The most rows live at one swept level of ``plan``: the pinned rows
    plus every other row from the first level that touches it to the
    last (:func:`slot_history`).  Every seeded row must go live at the
    level that first touches it, and a pinned one at the first level."""
    history = slot_history(plan)
    pinned = set(plan.pinned_nodes.tolist())
    first, last = {}, {}
    for index, (touched, _, _) in enumerate(history):
        for node in touched - pinned:
            first.setdefault(node, index)
            last[node] = index
    for index, level in enumerate(plan.levels):
        for node in level.seed_nodes.tolist():
            assert index == 0 if node in pinned else first[node] == index, node
    live = [0] * len(history)
    for node, start in first.items():
        for index in range(start, last[node] + 1):
            live[index] += 1
    return len(pinned) + max(live)


def site_slot_rewritten(plan, site_ids) -> bool:
    """Does a group write, at a later level, a slot a site held?"""
    sites = set(np.asarray(site_ids).tolist())
    held = set()
    for _, written, node_of in slot_history(plan):
        for slot, node in enumerate(node_of.tolist()):
            if node in sites:
                held.add(slot)
            elif slot in held and node in written:
                return True
    return False


# ------------------------------------------------- SER report reference


def reference_assemble(
    analyzer,
    compiled,
    rows: Iterable[tuple[str, float, int]],
    hardening: Mapping[str, float] | None = None,
) -> dict[str, NodeSER]:
    """The per-site assembly loop the columnar report replaced, verbatim.

    ``{site: NodeSER}`` for ``(site, p_sensitized, cone_size)`` rows;
    ``analyzer`` stands in for the analyzer's ``self``.  The columnar
    :meth:`SERAnalyzer._assemble` must equal it with ``==``.
    """
    index = compiled.index
    gate_type_of = compiled.gate_type
    rate = analyzer.seu_model.rate
    own_factors = analyzer.hardening_factors
    hardening = hardening or {}
    p_latched = analyzer.latching_model.p_latched()
    nodes: dict[str, NodeSER] = {}
    for site, p_sensitized, cone_size in rows:
        gate_type = gate_type_of(index[site])
        factor = own_factors.get(site, 1.0) * hardening.get(site, 1.0)
        r_seu = rate(gate_type, site) / factor
        ser = r_seu * p_latched * p_sensitized
        nodes[site] = NodeSER(
            node=site,
            gate_type=gate_type.value,
            r_seu=r_seu,
            p_latched=p_latched,
            p_sensitized=p_sensitized,
            ser=ser,
            fit=per_second_to_fit(ser),
            cone_size=cone_size,
        )
    return nodes


@dataclass
class ReferenceReport:
    """The dict-of-``NodeSER`` report the columnar one replaced, with its
    methods verbatim."""

    circuit_name: str
    nodes: dict[str, NodeSER] = field(default_factory=dict)

    @property
    def total_fit(self) -> float:
        return combine_fit(entry.fit for entry in self.nodes.values())

    def ranked(self, top: int | None = None) -> list[NodeSER]:
        def key(entry):
            return (-entry.ser, entry.node)

        if top is None:
            return sorted(self.nodes.values(), key=key)
        return heapq.nsmallest(top, self.nodes.values(), key=key)

    def contribution(self, node: str) -> float:
        total = self.total_fit
        if total == 0.0:
            return 0.0
        try:
            return self.nodes[node].fit / total
        except KeyError:
            raise AnalysisError(f"node {node!r} not in this report") from None

    def format_table(self, top: int = 10) -> str:
        lines = [
            f"SER report for {self.circuit_name}: "
            f"{len(self.nodes)} sites, total {self.total_fit:.4e} FIT",
            NodeSER.header(),
        ]
        lines += [entry.format_row() for entry in self.ranked(top)]
        return "\n".join(lines)

    def to_dict(self, top: int | None = None) -> dict:
        return {
            "circuit": self.circuit_name,
            "sites": len(self.nodes),
            "total_fit": self.total_fit,
            "nodes": [
                {
                    "node": entry.node,
                    "gate_type": entry.gate_type,
                    "r_seu": entry.r_seu,
                    "p_latched": entry.p_latched,
                    "p_sensitized": entry.p_sensitized,
                    "ser": entry.ser,
                    "fit": entry.fit,
                    "cone_size": entry.cone_size,
                }
                for entry in self.ranked(top)
            ],
        }


def reference_analyze(analyzer, results: Mapping[str, EPPResult]) -> ReferenceReport:
    """What ``analyzer.analyze()`` returned for ``results``, per site."""
    return ReferenceReport(
        analyzer.circuit.name,
        reference_assemble(
            analyzer,
            analyzer.compiled,
            (
                (site, result.p_sensitized, result.cone_size)
                for site, result in results.items()
            ),
        ),
    )


def reference_report_for(analyzer, delta) -> ReferenceReport:
    """What ``analyzer.report_for(delta)`` returned, per site."""
    rows = zip(
        delta.site_names, delta.p_sensitized.tolist(), delta.cone_sizes.tolist()
    )
    return ReferenceReport(
        delta.engine.circuit.name,
        reference_assemble(analyzer, delta.engine.compiled, rows, delta.hardening),
    )


def kill_idle_worker(backend, timeout: float = 10.0) -> None:
    """SIGKILL one worker of a sharded driver's warm, idle pool and wait
    until the executor has marked itself broken.

    The next submit to that executor raises ``BrokenProcessPool`` before
    any shard reaches a worker — the state an OOM-killed idle worker
    leaves behind.
    """
    pool = backend._pool
    os.kill(next(iter(pool._processes)), signal.SIGKILL)
    give_up = time.monotonic() + timeout
    while not pool._broken:
        assert time.monotonic() < give_up, "the executor never broke"
        time.sleep(0.01)
