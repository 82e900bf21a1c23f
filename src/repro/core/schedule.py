"""Cone-aware site scheduling for the batched EPP backends.

The sparse sweep of :mod:`repro.core.epp_batch` only pays for the gate
rows that lie on some chunk member's fanout cone, so the cost of a chunk
is the *union* of its sites' cones — not the circuit size.  Which sites
share a chunk therefore matters: an arbitrary contiguous slice of the
site list mixes cones from all over the circuit and the union saturates,
while a chunk of sites that feed the same outputs keeps the union (and
the per-level kernel calls) small.

This module provides the pieces of that scheduling layer:

* :class:`ConeIndex` — per-node *reachable-sink signatures*: for every
  node, the set of observable sinks (primary outputs and flip-flop D
  drivers) its fanout cone reaches, packed as one arbitrary-precision
  integer bitset per node.  Built in one reverse-topological pass and
  cached on the :class:`~repro.netlist.circuit.CompiledCircuit` exactly
  like the batch execution plan (and stripped by ``__getstate__`` the
  same way, so sharded pickling stays lean).
* :func:`cone_cluster_order` — a permutation of a site list that groups
  sites by cone signature (dominant sink first, full signature as the
  tiebreak), so sites with overlapping cones land in the same chunk and
  each chunk's union of cones — what its compacted sweep computes —
  stays small.

Nothing per chunk is kept here: a bulk call builds each chunk's
compacted-row plan once, while it splits its spans, and sweeps on it
(:meth:`repro.core.epp_batch.BatchPlan.compact_chunk_plan`).

Scheduling is a pure reordering: every site's column is computed
independently, so the permutation cannot change any per-site result —
callers restore input order after the sweep.  The backends cluster
every call whose site list spans more than one chunk (a single chunk
has nothing to cluster across).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.netlist.circuit import CompiledCircuit

__all__ = [
    "ConeIndex",
    "cone_cluster_order",
]


class ConeIndex:
    """Per-node reachable-sink signatures over one compiled circuit.

    ``sig[node_id]`` is an integer bitset: bit ``p`` is set iff sink
    ``compiled.sink_ids[p]`` is reachable from ``node_id`` through
    combinational fanout (the node itself counts when it is a sink) —
    exactly the ``sinks`` set of the scalar engine's
    :class:`~repro.core.cone.OnPathCone`, but O(1) per lookup and built
    for *all* nodes in one reverse-topological pass instead of one
    forward search per site.  Arbitrary-precision Python ints keep the
    bitsets exact at any sink count with single-op unions.
    """

    __slots__ = ("n", "n_sinks", "sig")

    def __init__(self, compiled: CompiledCircuit):
        n = compiled.n
        sink_ids = compiled.sink_ids
        self.n = n
        self.n_sinks = len(sink_ids)
        sig = [0] * n
        for position, sink_id in enumerate(sink_ids):
            sig[sink_id] |= 1 << position
        combinational = [
            compiled.gate_type(node_id).is_combinational for node_id in range(n)
        ]
        fanout = compiled.fanout
        # Reverse topological order: every user's signature is final before
        # its drivers accumulate it.  DFF users do not propagate — an error
        # arriving at a D pin is captured at the clock edge, matching the
        # cone extractor's traversal boundary.
        for node_id in reversed(compiled.topo):
            acc = sig[node_id]
            for user_id in fanout(node_id):
                if combinational[user_id]:
                    acc |= sig[user_id]
            sig[node_id] = acc
        self.sig = sig

    @staticmethod
    def for_compiled(compiled: CompiledCircuit) -> "ConeIndex":
        """The cached index for a compiled circuit (built on first use).

        Cached under ``compiled._cone_index`` — listed in
        ``CompiledCircuit._PLAN_CACHE_ATTRS``, so pickling a compiled
        circuit (the sharded driver's worker payload) drops the index and
        workers rebuild it locally, exactly like the batch plan.
        """
        index = getattr(compiled, "_cone_index", None)
        if index is None:
            index = ConeIndex(compiled)
            compiled._cone_index = index
        return index


def cone_cluster_order(compiled: CompiledCircuit, site_ids: Sequence[int]):
    """A permutation clustering ``site_ids`` by fanout-cone signature.

    Greedy bucketing by dominant sink set: sites sort by their reachable-
    sink bitset value — the most significant set bit (the "dominant"
    sink) is the primary key and the remaining signature bits break ties,
    so sites with identical cones become adjacent and sites sharing their
    dominant sink cluster next to each other.  Level and node id order
    the members of one signature class (topological locality inside a
    cluster).  Returns ``order`` such that ``order[j]`` is the input
    position of the ``j``-th site to sweep; the sort is stable, so equal
    keys preserve input order.
    """
    import numpy as np

    index = ConeIndex.for_compiled(compiled)
    sig = index.sig
    level = compiled.level
    ids = [int(site_id) for site_id in site_ids]
    order = sorted(
        range(len(ids)),
        key=lambda position: (
            sig[ids[position]],
            level[ids[position]],
            ids[position],
        ),
    )
    return np.asarray(order, dtype=np.intp)

