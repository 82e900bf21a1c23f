"""On-path cone extraction — steps 1 and 2 of the paper's algorithm.

For an error site ``n_i``:

1. *Path construction*: a forward depth-first search over the fanout
   relation collects every **on-path signal** (net on some path from the
   site to a reachable output).  Every gate with at least one on-path input
   is an **on-path gate**; since the search walks the fanout relation, the
   set of on-path gates is exactly the set of cone members.  Traversal does
   not continue through flip-flops: an error arriving at a D pin is
   captured at the clock edge, which the analysis layer models separately.

2. *Ordering*: the cone members are sorted by their position in the global
   topological order, restricting it to the cone — the levelization the
   paper performs with a topological sort.  The EPP pass then visits each
   on-path gate exactly once (linear in the cone size).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.netlist.circuit import CompiledCircuit
from repro.netlist.gate_types import GateType

__all__ = ["OnPathCone", "ConeExtractor"]


@dataclass(frozen=True)
class OnPathCone:
    """The on-path structure of one error site.

    ``gate_order`` excludes the site itself (the site's vector is the
    injected ``1(a)``); ``sinks`` lists the reachable observable sinks —
    primary outputs and flip-flop D drivers — including the site when the
    site is itself observable.
    """

    site: int
    members: frozenset[int]
    gate_order: tuple[int, ...]
    sinks: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of on-path gates (the per-site work of the EPP pass)."""
        return len(self.gate_order)


class ConeExtractor:
    """Cached cone extraction over one compiled circuit."""

    def __init__(self, compiled: CompiledCircuit):
        self.compiled = compiled
        self._sink_set = frozenset(compiled.sink_ids)
        self._topo_position = {
            node_id: position for position, node_id in enumerate(compiled.topo)
        }
        self._cache: dict[int, OnPathCone] = {}

    def cone(self, site: int | str) -> OnPathCone:
        site_id = self.resolve(site)
        cached = self._cache.get(site_id)
        if cached is None:
            cached = self._extract(site_id)
            self._cache[site_id] = cached
        return cached

    def resolve(self, site: int | str) -> int:
        if isinstance(site, str):
            try:
                return self.compiled.index[site]
            except KeyError:
                raise AnalysisError(f"unknown error site {site!r}") from None
        if not 0 <= site < self.compiled.n:
            raise AnalysisError(f"error site id {site} out of range")
        return site

    def _extract(self, site_id: int) -> OnPathCone:
        compiled = self.compiled
        members: set[int] = set()
        stack = [site_id]
        while stack:
            node_id = stack.pop()
            for user in compiled.fanout(node_id):
                if user in members:
                    continue
                if compiled.gate_type(user) is GateType.DFF:
                    continue  # captured, not combinationally traversed
                members.add(user)
                stack.append(user)
        gate_order = tuple(sorted(members, key=self._topo_position.__getitem__))
        sinks = tuple(
            node_id
            for node_id in ((site_id,) + gate_order)
            if node_id in self._sink_set
        )
        return OnPathCone(site_id, frozenset(members), gate_order, sinks)
