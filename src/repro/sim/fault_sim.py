"""SEU (single-event-upset) fault injection with cone-restricted resimulation.

An SEU at node ``s`` flips the logic value of ``s`` for the current input
pattern.  The injector answers, bit-parallel over a word of patterns: *in
which patterns does the flip reach an observable sink* (a primary output or
a flip-flop D pin)?  That per-pattern detection indicator is exactly what
the random-simulation baseline of the paper averages into
``P_sensitized``.

Only the fanout cone of the error site is resimulated; values are saved and
restored in place, so the cost per site is proportional to the cone size,
not the circuit size.  Traversal stops at flip-flops: an error arriving at
a D pin is *captured*, not combinationally propagated (the multi-cycle
behaviour is modeled at the analysis layer).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.netlist.circuit import Circuit, CompiledCircuit
from repro.netlist.gate_types import GateType
from repro.sim.logic_sim import BitParallelSimulator

__all__ = ["FaultInjector", "FanoutCone"]


@dataclass(frozen=True)
class FanoutCone:
    """Precomputed fanout cone of one error site.

    ``eval_order`` — combinational gates strictly downstream of the site, in
    topological order (the site itself is not re-evaluated; its value is the
    injected one).  ``sinks`` — observable sink node ids reachable from the
    site (including the site itself when it is directly observable).
    """

    site: int
    members: frozenset[int]
    eval_order: tuple[int, ...]
    sinks: tuple[int, ...]


class FaultInjector:
    """Bit-parallel SEU injector bound to one circuit."""

    def __init__(self, circuit: Circuit | CompiledCircuit):
        self.simulator = BitParallelSimulator(circuit)
        self.compiled = self.simulator.compiled
        self._sink_set = frozenset(self.compiled.sink_ids)
        self._topo_position = {
            node_id: position for position, node_id in enumerate(self.compiled.topo)
        }
        self._cone_cache: dict[int, FanoutCone] = {}

    # ------------------------------------------------------------------ cones

    def fanout_cone(self, site: int | str) -> FanoutCone:
        """The (cached) fanout cone of an error site."""
        site_id = self._resolve(site)
        cone = self._cone_cache.get(site_id)
        if cone is None:
            cone = self._build_cone(site_id)
            self._cone_cache[site_id] = cone
        return cone

    def _resolve(self, site: int | str) -> int:
        if isinstance(site, str):
            try:
                return self.compiled.index[site]
            except KeyError:
                raise SimulationError(f"unknown error site {site!r}") from None
        if not 0 <= site < self.compiled.n:
            raise SimulationError(f"error site id {site} out of range")
        return site

    def _build_cone(self, site_id: int) -> FanoutCone:
        compiled = self.compiled
        members: set[int] = set()
        stack = [site_id]
        while stack:
            node_id = stack.pop()
            for user in compiled.fanout(node_id):
                if user in members:
                    continue
                if compiled.gate_type(user) is GateType.DFF:
                    # Captured at the clock edge; not combinationally traversed.
                    continue
                members.add(user)
                stack.append(user)
        eval_order = tuple(sorted(members, key=self._topo_position.__getitem__))
        sinks = tuple(
            node_id
            for node_id in ((site_id,) + eval_order)
            if node_id in self._sink_set
        )
        return FanoutCone(site_id, frozenset(members), eval_order, sinks)

    # -------------------------------------------------------------- injection

    def detection_word(self, good_values: list[int], site: int | str, width: int) -> int:
        """Bit ``p`` set iff flipping the site in pattern ``p`` reaches a sink.

        ``good_values`` is the fault-free word per node id (as produced by
        :meth:`BitParallelSimulator.run`); it is left unmodified.
        """
        per_sink = self.sink_detection_words(good_values, site, width)
        detect = 0
        for word in per_sink.values():
            detect |= word
        return detect

    def sink_detection_words(
        self, good_values: list[int], site: int | str, width: int
    ) -> dict[int, int]:
        """Per-sink divergence words for one injected flip.

        Returns ``{sink_id: word}`` where bit ``p`` of ``word`` is 1 iff the
        flipped site changes that sink's value in pattern ``p``.  Sinks not
        reachable from the site are omitted (their divergence is identically
        zero).
        """
        cone = self.fanout_cone(site)
        mask = (1 << width) - 1
        values = good_values

        saved_site = values[cone.site]
        saved = [(node_id, values[node_id]) for node_id in cone.eval_order]
        values[cone.site] = saved_site ^ mask
        self.simulator.run_into(values, mask, order=cone.eval_order)

        divergence: dict[int, int] = {}
        good_at = dict(saved)
        good_at[cone.site] = saved_site
        for sink in cone.sinks:
            diff = (values[sink] ^ good_at[sink]) & mask
            if diff:
                divergence[sink] = diff

        values[cone.site] = saved_site
        for node_id, word in saved:
            values[node_id] = word
        return divergence

    def detection_count(self, good_values: list[int], site: int | str, width: int) -> int:
        """Number of patterns (bits) in which the flip is observable."""
        return self.detection_word(good_values, site, width).bit_count()
