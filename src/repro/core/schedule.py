"""Cone-aware site scheduling for the batched EPP backends.

The sparse sweep of :mod:`repro.core.epp_batch` only pays for the gate
rows that lie on some chunk member's fanout cone, so the cost of a chunk
is the *union* of its sites' cones — not the circuit size.  Which sites
share a chunk therefore matters: an arbitrary contiguous slice of the
site list mixes cones from all over the circuit and the union saturates,
while a chunk of sites that feed the same outputs keeps the union (and
the per-level kernel calls) small.

This module provides the two pieces of that scheduling layer:

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
  the sparse sweep's row-prune density is maximized.
* :func:`chunk_prune_saturated` — the dense-fallback cost model: on small
  circuits whose chunk union covers most observable sinks, row pruning
  can only discover that nearly every row is active, so its per-group
  overhead (the reachability test and the fancy-indexed slices) exceeds
  the rows it saves and ``prune="auto"`` runs the chunk dense instead.
* :class:`ChunkCache` + :func:`chunk_cache_key` — the per-chunk memo the
  batch plan hangs its derived chunk artifacts on: the saturation verdict
  above (computed once per distinct site chunk, reused across repeated
  sweeps *and* by the whole-call cluster-sort fallback that consults the
  same predicate) and the compacted-row plans of PR 5 (the union-of-cones
  row remap a compacted sweep indexes instead of the full state matrix).
  Bounded FIFO so pathological callers cycling through thousands of
  distinct chunks cannot grow the cache without limit.

Scheduling is a pure reordering: every site's column is computed
independently, so the permutation cannot change any per-site result —
callers restore input order after the sweep.  ``resolve_schedule`` maps
the user-facing knob (``schedule="auto" | "cone" | "input"``) to the
strategy actually run: ``auto`` clusters whenever the site list spans
more than one chunk (a single chunk has nothing to cluster across).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import AnalysisConfigError
from repro.netlist.circuit import CompiledCircuit

__all__ = [
    "SCHEDULES",
    "ChunkCache",
    "ConeIndex",
    "chunk_cache_key",
    "chunk_prune_saturated",
    "cone_cluster_order",
    "resolve_prune",
    "resolve_schedule",
]

#: The user-facing scheduling strategies: ``auto`` picks per call,
#: ``cone`` always clusters, ``input`` preserves the caller's site order
#: (the pre-PR-3 contiguous chunking).
SCHEDULES = ("auto", "cone", "input")

#: Above this node count row pruning always pays on full chunks (the
#: skipped rows dwarf the per-group bookkeeping), so the ``prune="auto"``
#: cost model only consults cone signatures below it.
PRUNE_AUTO_MAX_NODES = 4000

#: Fraction of observable sinks a chunk's union-of-cones signature must
#: cover before ``prune="auto"`` predicts a saturated sweep (nearly every
#: row active => pruning is pure overhead) and falls back to dense.
PRUNE_SATURATION = 0.5


def resolve_prune(prune: "bool | str | None") -> "bool | str":
    """Normalize the ``prune=`` knob: ``None`` means ``"auto"``.

    The single place the default lives — the backends, the sharded
    driver and the engine-level cache keys all resolve through here, so
    they can never disagree about what ``None`` means.  ``"auto"`` prunes
    unless :func:`chunk_prune_saturated` predicts the chunk is saturated
    (small circuit, union-of-cones covering most sinks — the regime where
    `BENCH_pr3.json` measured pruning *slower* than the dense sweep);
    ``True``/``False`` force the pruned/dense sweep unconditionally.
    Idempotent over its own output: an already-resolved ``"auto"``
    stays ``"auto"`` — the sharded driver ships resolved values to
    worker backends, which resolve again (``bool("auto")`` would
    silently force pruning and lose the dense fallback in workers).
    Anything else — a wire string such as ``"false"``, an integer — is
    rejected rather than coerced by truthiness.
    """
    if prune is None or prune == "auto":
        return "auto"
    if not isinstance(prune, bool):
        raise AnalysisConfigError(
            f"prune must be 'auto', True or False, got {prune!r}"
        )
    return prune


def validate_schedule(schedule: str | None) -> str:
    """Normalize the ``schedule=`` knob (``None`` means ``auto``)."""
    if schedule is None:
        return "auto"
    if schedule not in SCHEDULES:
        raise AnalysisConfigError(
            f"unknown schedule {schedule!r}; choose from {SCHEDULES}"
        )
    return schedule


def resolve_schedule(schedule: str | None, n_sites: int, batch_size: int) -> str:
    """The strategy actually run for one call: ``"cone"`` or ``"input"``.

    ``auto`` clusters only when the site list spans more than one chunk —
    within a single chunk the sweep visits the union of all cones
    regardless of order, so clustering would be pure overhead.
    """
    schedule = validate_schedule(schedule)
    if schedule != "auto":
        return schedule
    return "cone" if n_sites > batch_size else "input"


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

    def reachable_sink_positions(self, node_id: int) -> list[int]:
        """Positions into ``compiled.sink_ids`` reachable from ``node_id``."""
        signature = self.sig[node_id]
        positions = []
        position = 0
        while signature:
            if signature & 1:
                positions.append(position)
            signature >>= 1
            position += 1
        return positions

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


# ------------------------------------------------------------- chunk cache


def chunk_cache_key(site_ids) -> bytes:
    """A compact, exact identity for one chunk's site-id sequence.

    Order matters (it fixes which column each site occupies), so the key
    digests the id sequence itself rather than the set.  blake2b keeps the
    key 16 bytes regardless of chunk width — chunk-derived artifacts (the
    saturation verdict, the compacted-row plan) are cached per key.
    """
    import hashlib

    import numpy as np

    data = np.ascontiguousarray(np.asarray(site_ids, dtype=np.int64)).tobytes()
    return hashlib.blake2b(data, digest_size=16).digest()


class ChunkCache:
    """Bounded FIFO memo for per-chunk derived artifacts.

    One instance hangs off each :class:`~repro.core.epp_batch.BatchPlan`
    (so every backend over the same compiled circuit shares it) and maps
    :func:`chunk_cache_key` digests to whatever the sweep derives per
    chunk — the ``prune="auto"`` saturation verdict and the compacted-row
    plan.  Repeated analyses over the same site partition (benchmark
    best-of repeats, long-lived analyzers) hit the cache instead of
    re-walking cone signatures and rebuilding row remaps.  Eviction is
    insertion-order FIFO: the cap bounds memory, and real workloads sweep
    the same few dozen chunks over and over.
    """

    __slots__ = ("max_entries", "_entries", "_lock")

    def __init__(self, max_entries: int = 256):
        import threading

        self.max_entries = max(1, int(max_entries))
        self._entries: dict[bytes, object] = {}
        # Chunk plans are built from the caller's thread (span sizing)
        # and the pipeline's sweeper thread; eviction iterates the dict,
        # so puts serialize (gets stay lock-free — dict reads are atomic).
        self._lock = threading.Lock()

    def get(self, key: bytes):
        return self._entries.get(key)

    def put(self, key: bytes, value) -> None:
        with self._lock:
            entries = self._entries
            if key not in entries and len(entries) >= self.max_entries:
                entries.pop(next(iter(entries)))
            entries[key] = value

    def get_or_create(self, key: bytes, factory):
        """The memoized value for ``key``, building it at most once.

        Double-checked under the put lock so concurrent callers — the
        sweeper thread and a service-layer thread hammering the same
        plan — agree on a *single* constructed artifact: whichever
        thread wins the race publishes, every later caller gets that
        exact object and ``factory`` runs once per resident key.  The
        stored value may be falsy (the saturation verdict is a plain
        ``False``), so presence is ``is not None``, never truthiness.
        """
        value = self._entries.get(key)
        if value is not None:
            return value
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                value = factory()
                entries = self._entries
                if key not in entries and len(entries) >= self.max_entries:
                    entries.pop(next(iter(entries)))
                entries[key] = value
        return value

    def discard(self, key: bytes) -> None:
        """Drop one entry if present — for artifacts the caller knows
        will never be used again (e.g. an oversized candidate chunk plan
        rejected by the span splitter), so they don't occupy FIFO slots
        that live per-chunk plans need."""
        with self._lock:
            self._entries.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


# ------------------------------------------------------------- cost models

def chunk_prune_saturated(
    compiled: CompiledCircuit, site_ids: Sequence[int]
) -> bool:
    """``prune="auto"``'s dense-fallback predicate for one chunk.

    Row pruning pays when whole regions of the circuit are off every
    chunk member's cone; it *costs* (a reachability test plus two
    fancy-indexed copies per gate group) when nearly every row is active
    anyway.  `BENCH_pr3.json` measured that regime directly: full-circuit
    sweeps of s953/s1423 — small circuits whose every chunk's
    union-of-cones covers essentially all observable sinks — ran 1-17%
    *slower* pruned than dense.  The predicate reproduces exactly that
    signature: a small circuit (large ones always win — the skipped rows
    dwarf the bookkeeping) whose chunk union signature covers most sinks.
    """
    if compiled.n >= PRUNE_AUTO_MAX_NODES:
        return False
    index = ConeIndex.for_compiled(compiled)
    if index.n_sinks == 0:
        return True
    threshold = PRUNE_SATURATION * index.n_sinks
    sig = index.sig
    union = 0
    for position, site_id in enumerate(site_ids):
        union |= sig[int(site_id)]
        # Saturation is monotone in the union, so poll the popcount
        # periodically and exit as soon as the verdict is known — full
        # default site lists saturate within the first few dozen sites.
        if position % 32 == 31 and union.bit_count() >= threshold:
            return True
    return union.bit_count() >= threshold
