"""Ground-truth helpers shared across test modules."""

from __future__ import annotations

import heapq
import os
import signal
import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from itertools import repeat

from repro.core.analysis import NodeSER
from repro.core.epp import EPPResult
from repro.errors import AnalysisError
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
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


# ------------------------------------------------- SER report reference


def reference_assemble(
    analyzer,
    compiled,
    rows: Iterable[tuple[str, float, int, EPPResult | None]],
    hardening: Mapping[str, float] | None = None,
) -> dict[str, NodeSER]:
    """The per-site assembly loop the columnar report replaced, verbatim.

    ``{site: NodeSER}`` for ``(site, p_sensitized, cone_size, result)``
    rows; ``analyzer`` stands in for the analyzer's ``self``.  The
    columnar :meth:`SERAnalyzer._assemble` must equal it with ``==``.
    """
    index = compiled.index
    gate_type_of = compiled.gate_type
    rate = analyzer.seu_model.rate
    own_factors = analyzer.hardening_factors
    hardening = hardening or {}
    two_factor = analyzer.electrical_model is None
    p_latched = analyzer.latching_model.p_latched() if two_factor else 1.0
    nodes: dict[str, NodeSER] = {}
    for site, p_sensitized, cone_size, result in rows:
        node_id = index[site]
        gate_type = gate_type_of(node_id)
        factor = own_factors.get(site, 1.0) * hardening.get(site, 1.0)
        r_seu = rate(gate_type, site) / factor
        if two_factor:
            p_observable = p_sensitized
        else:
            # p_latched stays 1.0: the latching window is folded into
            # the per-sink combination.
            p_observable = analyzer._electrical_observability(
                compiled, node_id, result
            )
        ser = r_seu * p_latched * p_observable
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
                (site, result.p_sensitized, result.cone_size, result)
                for site, result in results.items()
            ),
        ),
    )


def reference_report_for(analyzer, delta) -> ReferenceReport:
    """What ``analyzer.report_for(delta)`` returned, per site."""
    if analyzer.electrical_model is None:
        rows = zip(
            delta.site_names,
            delta.p_sensitized.tolist(),
            delta.cone_sizes.tolist(),
            repeat(None),
        )
    else:
        rows = (
            (site, result.p_sensitized, result.cone_size, result)
            for site, result in delta.results().items()
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
