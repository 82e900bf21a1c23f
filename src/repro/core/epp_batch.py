"""Batch EPP backend: every error site analyzed in level-parallel sweeps.

The scalar engine (:mod:`repro.core.epp`) walks one cone per site and pays
Python-interpreter overhead for every gate of every cone.  This backend
flips the loop structure: per-node state becomes a ``(4, s)`` float64
matrix (``pa``, ``pā``, ``p0``, ``p1`` columns, one per active site) and
one *level-synchronized* sweep over the whole circuit propagates **all**
sites of a chunk at once:

* gates are pre-grouped by ``(level, gate code, arity)`` into rectangular
  index blocks (the :class:`BatchPlan`), so each group is a single call
  into the vectorized kernels of :mod:`repro.core.rules_vec` over a
  ``(g, k, 4, s)`` tensor;
* an on-path membership bitmask per node row tracks, per site column,
  whether the node lies on some path from that site — off-path columns
  keep the broadcast signal-probability constant ``(0, 0, 1-SP, SP)``,
  exactly as the scalar engine reads off-path fanins;
* sites are processed in chunks (``batch_size`` columns at a time) so the
  ``(n_nodes, 4, batch_size)`` state matrix stays memory-bounded on
  20k+-gate circuits, and on multi-core hosts the NumPy sweep of the next
  chunk overlaps the Python-side result packaging of the previous one;
* the sweep is *cone-aware* (``prune``, on by default): each chunk
  runs on a *compacted state matrix* holding only its union-of-cones
  rows — plus the fanin rows those gates read and the sentinel rows —
  through a cached per-chunk row remap
  (:meth:`BatchPlan.compact_chunk_plan`), so every gather, kernel and
  scatter indexes the small matrix, all levels at or below the chunk's
  minimum site level are skipped outright, and the sink reduction walks
  only the sinks the chunk can reach.  Each retained row computes
  exactly what the dense sweep computed, so the pruned sweep is
  bit-identical to the dense ``prune=False`` reference sweep over the
  full ``(n + 2, 4, s)`` matrix;
* inside active rows the sweep is *cell-compacted*: on clustered chunks
  only a few percent of an active row's columns are on-path, so groups
  below the calibrated density threshold gather exactly their on-path
  (row, column) cells, compute them as one ``(m, 4)`` block through the
  compacted kernels of :func:`~repro.core.rules_vec.compact_rule_for`,
  and scatter the block back — bit-identical again, the kernels run the
  same elementwise IEEE ops per computed cell;
* which sites share a chunk is decided by the scheduling layer
  (:mod:`repro.core.schedule`): every call spanning more than one chunk
  clusters sites with overlapping fanout cones, so each chunk's
  union-of-cones — the pruned sweep's cost — stays small.  Scheduling is
  a pure permutation; results are always returned in input order.

Results are bit-compatible with the scalar engine up to floating-point
reassociation (the per-sink survival product and per-group reductions run
in a different order); the backend-equivalence tests pin agreement to
1e-9.  Tiny workloads — where array dispatch overhead would exceed the
interpreter time it saves — are routed to the scalar per-site kernel by a
crossover guard (``min_vector_work``), mirroring how BLAS libraries pick
small-matrix kernels; pass ``min_vector_work=0`` to force the vectorized
sweep everywhere (the equivalence tests do).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import starmap

import numpy as np

from repro.errors import AnalysisError
from repro.core.config import resolve_prune
from repro.core.fourvalue import EPPValue
from repro.core.rules_vec import compact_rule_for, gather_rule_for
from repro.core.schedule import ChunkCache, chunk_cache_key, cone_cluster_order
from repro.netlist.circuit import CompiledCircuit
from repro.netlist.gate_types import (
    CODE_AND,
    CODE_BUF,
    CODE_NAND,
    CODE_NOR,
    CODE_NOT,
    CODE_OR,
    CODE_XNOR,
    CODE_XOR,
)

__all__ = [
    "BatchPlan",
    "BatchEPPBackend",
    "CompactChunkPlan",
    "default_batch_size",
    "empty_packed",
    "segment_index",
]

#: Target footprint of the per-chunk state matrix (bytes).  Wide chunks
#: amortize per-group dispatch; the per-group operands (a handful of
#: ``(g, batch)`` rows) stay cache-resident regardless of this total.  A
#: dense sweep's resident set is ~3x this figure (template +
#: double-buffered state) — bounded and explicit; pass ``batch_size`` to
#: shrink it on memory-constrained hosts.
_STATE_BYTES_TARGET = 256 << 20

#: Below this ``n_nodes * n_sites`` product the vectorized sweep cannot
#: amortize NumPy call overhead; the backend falls through to the scalar
#: kernel (same results, no array dispatch cost).
_MIN_VECTOR_WORK = 50_000

#: Per-cell cost of a compacted kernel relative to a dense one — the
#: cell tier's threshold: a group runs compacted when
#: ``on_cells * factor < rows * columns``.  The compacted gather pays
#: fancy indexing per pin per plane where the dense kernel reads
#: contiguous planes, so a compacted cell costs a small multiple of a
#: dense cell; calibrated on the s9234/s38417 clustered workloads (the
#: single-core record in ``BENCH_pr4.json``) where measured break-even
#: sits near 1/4 density for the closed forms.  Truth-table kernels
#: (MUX/MAJ) pay the full ``4^k`` enumeration per cell either way, so
#: their gather overhead is proportionally smaller and compaction pays
#: almost immediately.
_CELL_FACTOR_CLOSED = 4
_CELL_FACTOR_TABLE = 2

#: Chunk-width multiplier (halves) for pruned backends, whose every
#: chunk sweeps *compacted*: the PR-4 calibration pinned full-width
#: chunks because each extra chunk cost ~40-80 ms of width-independent
#: overhead, most of it the full-template restore — which compacted
#: state matrices (and their reusable arenas) eliminate outright, so the
#: same budget buys wider chunks without the full-row memory blow-up.
#: Measured on s9234/s38417 full-circuit runs, 1.5x is the sweet spot
#: (8-9% over full width; by 3x the growing per-chunk unions overtake
#: the saved fixed costs and clustered workloads regress outright).  ``_compact_spans`` still splits any
#: span whose measured union-of-cones footprint would exceed
#: ``_STATE_BYTES_TARGET``.
_COMPACT_WIDTH_HALVES = 3  # x1.5


def default_batch_size(n_nodes: int) -> int:
    """Chunk width sized so ``n_nodes * 4 * batch * 8`` bytes stays bounded."""
    width = _STATE_BYTES_TARGET // (max(n_nodes, 1) * 32)
    return int(max(32, min(512, width)))


def empty_packed() -> tuple:
    """The packed tuple of zero sites (see :meth:`BatchEPPBackend._pack`)."""
    empty = np.zeros(0)
    return (
        empty, empty.astype(np.intp), empty.astype(np.intp),
        empty.astype(np.intp), np.zeros((0, 4)),
    )


def segment_index(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices of the variable-length segments ``starts[i]`` ..
    ``starts[i] + counts[i]``, concatenated — the gather that moves a
    packed tuple's per-site sink-pair runs, built with ``np.repeat`` so
    it stays vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    heads = np.repeat(starts, counts)
    prefix = np.cumsum(counts) - counts
    within = np.arange(total) - np.repeat(prefix, counts)
    return heads + within


class _Group:
    """One rectangular gate block: same level, gate code and arity."""

    __slots__ = ("out_ids", "fanin", "rule", "compact_rule", "cell_factor")

    def __init__(self, out_ids: np.ndarray, fanin: np.ndarray, rule,
                 compact_rule, cell_factor: int):
        self.out_ids = out_ids  # (g,)
        self.fanin = fanin  # (g, k)
        self.rule = rule
        self.compact_rule = compact_rule
        self.cell_factor = cell_factor


#: Codes whose kernels have an exact neutral input, letting mixed-arity
#: gates share one group (see ``CompiledCircuit.level_gate_groups``): the
#: AND family is padded with the constant-1 sentinel, OR/XOR families with
#: constant 0.  The SP pass (:mod:`repro.probability.signal_prob`) shares
#: these sets — its kernels have the same neutral elements.
_PADDABLE_CODES = frozenset(
    (CODE_AND, CODE_NAND, CODE_OR, CODE_NOR, CODE_XOR, CODE_XNOR)
)
_PAD_ONE_CODES = frozenset((CODE_AND, CODE_NAND))

#: Codes with closed-form kernels; everything else runs the generic
#: truth-table kernel, whose per-cell cost dwarfs the compacted gather.
_CLOSED_FORM_CODES = _PADDABLE_CODES | frozenset((CODE_NOT, CODE_BUF))


class CompactChunkPlan:
    """One chunk's union-of-cones row remap (the compacted state layout).

    Built once per distinct site chunk by :meth:`BatchPlan.compact_chunk_plan`
    and cached on the plan's :class:`~repro.core.schedule.ChunkCache`: the
    compacted sweep allocates its state/mask buffers with only ``n_rows``
    rows — the chunk's union-of-cones gates, every fanin row those gates
    read (off-path fanins hold their SP constants), the site rows and any
    referenced sentinel row — and every gate-group index array is already
    translated into that compact row space, so the kernels of
    :mod:`repro.core.rules_vec` index the small matrix unchanged.  The
    remap is pure indexing: each computed cell runs exactly the ops the
    dense sweep ran, so compacted results are bit-identical.

    Attributes
    ----------
    rows:
        Global node ids of the compact rows, ascending — ``rows[j]`` is
        the global id of compact row ``j``.
    n_rows:
        ``len(rows)`` — the compacted state matrix's row count.
    site_rows:
        Compact row index of each chunk site, aligned with the chunk.
    groups:
        ``(group, out_rows, fanin_rows)`` per active gate group in sweep
        order: the plan's :class:`_Group` (kernel dispatch) with its
        active rows' output/fanin indices translated to compact space.
    sink_rows / sink_positions:
        Compact row indices of the observable sinks present in the
        matrix, and their positions into ``BatchPlan.sink_ids`` — absent
        sinks are off-path for every column by construction, so the
        sink-pair reduction over the present subset selects exactly the
        pairs the dense reduction selected, in the same order.
    """

    __slots__ = (
        "rows", "n_rows", "site_rows", "groups", "sink_rows", "sink_positions"
    )


class BatchPlan:
    """Level-grouped execution plan for one compiled circuit.

    Built once per :class:`~repro.netlist.circuit.CompiledCircuit` (and
    cached on it): combinational gates bucketed by gate code per level —
    mixed arities of the paddable families share a group via sentinel
    padding; truth-table gates group by exact arity — with fanin ids packed
    into rectangular index arrays, plus the sink id vector the
    sensitization product reads.  Sentinel ids: ``n`` holds constant 1,
    ``n + 1`` constant 0 (two extra rows in the backend's state matrix).
    """

    def __init__(self, compiled: CompiledCircuit):
        self.n = compiled.n
        levels: dict[int, list[_Group]] = {}
        for level, code, outs, fins, width in compiled.level_gate_groups(
            _PADDABLE_CODES, _PAD_ONE_CODES
        ):
            cell_factor = (
                _CELL_FACTOR_CLOSED if code in _CLOSED_FORM_CODES
                else _CELL_FACTOR_TABLE
            )
            levels.setdefault(level, []).append(
                _Group(
                    np.asarray(outs, dtype=np.intp),
                    np.asarray(fins, dtype=np.intp),
                    gather_rule_for(code, width),
                    compact_rule_for(code, width),
                    cell_factor,
                )
            )
        #: ``(level value, groups)`` pairs in ascending level order.  The
        #: level values let the cone-aware sweep skip every level at or
        #: below a chunk's minimum site level without touching its groups.
        self.levels: list[tuple[int, list[_Group]]] = [
            (k, levels[k]) for k in sorted(levels)
        ]
        self.node_level = np.asarray(compiled.level, dtype=np.intp)
        self.sink_ids = np.asarray(compiled.sink_ids, dtype=np.intp)
        self.sink_names = [compiled.names[s] for s in compiled.sink_ids]
        #: Compacted-row plans per chunk, shared by every backend over
        #: this circuit.  Bounded FIFO.
        self.chunk_cache = ChunkCache()

    def compact_chunk_plan(self, site_ids: np.ndarray) -> CompactChunkPlan:
        """The (cached) compacted-row plan for one chunk of sites.

        One vectorized forward-reachability pass over the level groups,
        run once per distinct chunk and memoized:
        repeated sweeps of the same chunk (benchmark repeats, long-lived
        analyzers re-analyzing a module) skip straight to the remapped
        index arrays.  Built through ``get_or_create`` so concurrent
        sweeps of the same chunk construct exactly one plan.
        """
        return self.chunk_cache.get_or_create(
            chunk_cache_key(site_ids),
            lambda: self._build_compact_chunk_plan(site_ids),
        )

    def _build_compact_chunk_plan(self, site_ids: np.ndarray) -> CompactChunkPlan:
        total = self.n + 2
        # reach: on the union of the chunk's fanout cones; needed:
        # additionally every row an active group *reads* — off-path
        # fanins supply their SP constants, so they must exist in the
        # compacted matrix too.
        reach = np.zeros(total, dtype=bool)
        reach[site_ids] = True
        needed = np.zeros(total, dtype=bool)
        needed[site_ids] = True
        min_site_level = int(self.node_level[site_ids].min())
        entries: list[tuple[_Group, np.ndarray, np.ndarray]] = []
        for level, groups in self.levels:
            if level <= min_site_level:
                continue
            for group in groups:
                active = np.nonzero(reach[group.fanin].any(axis=1))[0]
                if active.size == 0:
                    continue
                # Slicing a nearly-fully-active group trades the few rows
                # it skips for fancy-indexed copies, so such groups keep
                # their full rectangular block (their inactive rows join
                # the matrix as writable SP-constant rows).
                if active.size <= (len(group.out_ids) * 7) // 8:
                    out_ids = group.out_ids[active]
                    fanin = group.fanin[active]
                    reach[out_ids] = True
                else:
                    out_ids = group.out_ids
                    fanin = group.fanin
                    reach[out_ids[active]] = True
                needed[out_ids] = True
                needed[fanin] = True
                entries.append((group, out_ids, fanin))
        rows = np.nonzero(needed)[0]
        remap = np.zeros(total, dtype=np.intp)
        remap[rows] = np.arange(len(rows), dtype=np.intp)
        plan = CompactChunkPlan()
        plan.rows = rows
        plan.n_rows = len(rows)
        plan.site_rows = remap[site_ids]
        plan.groups = [
            (group, remap[out_ids], remap[fanin])
            for group, out_ids, fanin in entries
        ]
        present = needed[self.sink_ids]
        plan.sink_rows = remap[self.sink_ids[present]]
        plan.sink_positions = np.nonzero(present)[0]
        return plan

    @staticmethod
    def for_compiled(compiled: CompiledCircuit) -> "BatchPlan":
        """The cached plan for a compiled circuit (built on first use)."""
        plan = getattr(compiled, "_batch_epp_plan", None)
        if plan is None:
            plan = BatchPlan(compiled)
            compiled._batch_epp_plan = plan
        return plan


class BatchEPPBackend:
    """Vectorized many-site EPP bound to one engine's circuit and SP map.

    Parameters
    ----------
    compiled:
        The compiled circuit (shared with the scalar engine).
    signal_probs:
        Per-node P(1), indexed by node id — the same validated vector the
        scalar engine holds.
    batch_size:
        Site columns per chunk; default sized by :func:`default_batch_size`.
    min_vector_work:
        Crossover threshold on ``n_nodes * n_sites`` below which chunks are
        delegated to ``scalar_fallback``; 0 forces the vectorized sweep.
    scalar_fallback:
        ``callable(site_id) -> EPPResult`` used below the crossover
        (normally ``EPPEngine.node_epp``).
    prune:
        Cone-aware sparse sweeps (``None``, the default, means ``True``):
        each chunk runs on its compacted union-of-cones state matrix
        (:meth:`BatchPlan.compact_chunk_plan`) and skips levels at or
        below its minimum site level.  ``False`` runs the dense
        full-circuit sweep, the reference the tests and benchmarks
        compare against.  Both are bit-identical — the knob changes
        *which rows compute*, never their values.

    Every call spanning more than one chunk is cone-clustered
    (:meth:`_schedule_order`).  Pruned sweeps pick a kernel tier per
    gate group: a group whose on-path cell count times the kernel's
    calibrated cost factor is below its dense cell count gathers only
    the on-path (row, column) cells and computes them through the
    compacted kernels of :func:`~repro.core.rules_vec.compact_rule_for`;
    denser groups run the row kernels.  Chunk widths follow one
    calibrated policy (:meth:`_chunk_spans`).  Tests force the tier
    choice through the private ``_cells`` attribute (``"auto"``,
    ``"on"`` or ``"off"``); every setting is bit-identical.
    """

    def __init__(
        self,
        compiled: CompiledCircuit,
        signal_probs: Sequence[float],
        batch_size: int | None = None,
        min_vector_work: int = _MIN_VECTOR_WORK,
        scalar_fallback=None,
        prune: bool | None = None,
    ):
        self.compiled = compiled
        self.plan = BatchPlan.for_compiled(compiled)
        self.sp = np.asarray(signal_probs, dtype=np.float64)
        if batch_size is not None and int(batch_size) < 1:
            raise AnalysisError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = (
            int(batch_size) if batch_size is not None
            else default_batch_size(compiled.n)
        )
        self.min_vector_work = min_vector_work
        self.scalar_fallback = scalar_fallback
        self.prune = resolve_prune(prune)
        #: The cell-tier test hook: ``"auto"`` runs the per-group cost
        #: model, ``"on"`` compacts every partially-on-path group, ``"off"``
        #: keeps the row kernels.  Not an analysis knob — every setting is
        #: bit-identical, and only tests pinning that set it.
        self._cells = "auto"
        #: Cumulative execution counters, updated by every sweep: chunk
        #: accounting (``chunks``; ``compact_sweeps`` / ``compact_rows`` —
        #: sweeps on compacted union-of-cones state matrices and the
        #: total compact rows they allocated, vs ``n + 2`` per dense
        #: sweep),
        #: per-tier group counts (``groups_dense`` / ``groups_row`` /
        #: ``groups_cell``) and cell accounting over *pruned* groups
        #: (``cells_on`` on-path cells, ``cells_total`` cells spanned,
        #: ``cells_computed`` cells actually computed — the FLOP measure
        #: the benchmarks report; always ``<= cells_total``).  Dense
        #: sweeps count only their groups, so the density ratios read
        #: pruned groups alone.
        self.sweep_stats = {
            "sweeps": 0,
            "compact_sweeps": 0,
            "compact_rows": 0,
            "chunks": 0,
            "groups_dense": 0,
            "groups_row": 0,
            "groups_cell": 0,
            "cells_on": 0,
            "cells_total": 0,
            "cells_computed": 0,
        }
        self._rows = compiled.n + 2
        # The big state arrays are built lazily on the first sweep: a
        # backend whose every call crosses over to the scalar fallback
        # (small site sets on a large circuit) never pays for them.
        self._template: np.ndarray | None = None
        self._const: np.ndarray | None = None
        self._sink_names_arr = np.asarray(self.plan.sink_names, dtype=object)
        self._buffer_slots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: Flat per-slot arenas the compacted sweeps carve their
        #: (n_rows, 4, s) state and (n_rows, s) mask views from — grown to
        #: the largest chunk seen, reused across sweeps so the hot path
        #: never re-faults fresh pages.  Every compacted sweep fully
        #: seeds its state and clears its mask, so stale content between
        #: sweeps is harmless.
        self._compact_arenas: dict[int, list[np.ndarray]] = {}

    def _ensure_const(self) -> None:
        """The (rows, 4) per-node off-path constants — all a *compacted*
        sweep needs: its state is seeded by a broadcast of the gathered
        compact rows, never from the full-width template."""
        if self._const is not None:
            return
        # Two sentinel rows extend the node axis: constant 1 (id n) and
        # constant 0 (id n + 1), the padding inputs of mixed-arity groups.
        # Expressed as SPs, that is simply sp = 1.0 and sp = 0.0.
        sp_ext = np.concatenate((self.sp, (1.0, 0.0)))
        # Per-node off-path constants, (rows, 4): broadcast into np.where as
        # the else-branch so the sweep never gathers the previous output
        # state.
        const = np.zeros((self._rows, 4))
        const[:, 2] = 1.0 - sp_ext
        const[:, 3] = sp_ext
        self._const = const

    def _ensure_state_arrays(self) -> None:
        """Const vector plus the full-width off-path template the dense
        sweeps memcpy their state from.  Backends whose every sweep is
        compacted never materialize the template at all."""
        self._ensure_const()
        if self._template is not None:
            return
        # Contiguous off-path template, memcpy'd to seed every chunk's
        # state matrix: (rows, 4, batch_size) with (0, 0, 1-SP, SP) per node.
        template = np.zeros((self._rows, 4, self.batch_size))
        template[:, 2, :] = self._const[:, 2][:, None]
        template[:, 3, :] = self._const[:, 3][:, None]
        self._template = template

    # ------------------------------------------------------------------ sweep

    def _buffers(self, s: int, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """Reusable (state, mask) buffer views for a dense sweep, reset to
        the off-path template; ``slot`` double-buffers the pipeline so a
        sweep can fill one pair while the collector reads the other.
        Narrow final chunks reuse a full-width buffer's prefix.  A dense
        sweep may write any gate row, so every reset copies the whole
        template — nothing about a previous (possibly failed) sweep of
        the slot is trusted."""
        entry = self._buffer_slots.get(slot)
        if entry is None:
            entry = (
                np.empty((self._rows, 4, self.batch_size)),
                np.empty((self._rows, self.batch_size), dtype=bool),
            )
            self._buffer_slots[slot] = entry
        state, mask = entry
        np.copyto(state, self._template)
        mask[:] = False
        return state[:, :, :s], mask[:, :s]

    def _sweep(self, site_ids: np.ndarray, slot: int = 0):
        """One level-synchronized pass for a chunk of sites.

        Returns ``(state, mask, sinks)``: the four-valued state matrix,
        the on-path membership bitmask, and the sink translation of the
        layout the sweep ran on — ``None`` for dense sweeps (state is
        ``(n + 2, 4, s)``, sinks are ``plan.sink_ids``), or the chunk
        plan's ``(sink_rows, sink_positions)`` pair for compacted sweeps
        (state is ``(n_rows, 4, s)`` over the union-of-cones remap).
        """
        self.sweep_stats["sweeps"] += 1
        if self.prune:
            return self._sweep_compact(
                site_ids, self.plan.compact_chunk_plan(site_ids), slot
            )
        return self._sweep_dense(site_ids, slot)

    def _compact_buffers(
        self, n_rows: int, s: int, slot: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Carve (state, mask) views for one compacted sweep from the
        slot's reusable flat arenas (grown monotonically to the largest
        chunk), so repeated sweeps touch warm pages instead of faulting a
        fresh allocation every chunk.  The mask comes back cleared; the
        caller seeds the state in full."""
        state_need = n_rows * 4 * s
        mask_need = n_rows * s
        arenas = self._compact_arenas.get(slot)
        if arenas is None or arenas[0].size < state_need:
            grown = np.empty(
                max(state_need, arenas[0].size if arenas else 0)
            )
            grown_mask = np.empty(
                max(mask_need, arenas[1].size if arenas else 0), dtype=bool
            )
            arenas = [grown, grown_mask]
            self._compact_arenas[slot] = arenas
        state = arenas[0][:state_need].reshape(n_rows, 4, s)
        mask = arenas[1][:mask_need].reshape(n_rows, s)
        mask[:] = False
        return state, mask

    def _sweep_compact(
        self, site_ids: np.ndarray, cplan: CompactChunkPlan, slot: int = 0
    ):
        """A pruned sweep over the chunk's compacted union-of-cones matrix.

        Carves ``(n_rows, 4, s)`` state out of the slot arena and seeds it
        from the gathered off-path constants (the whole "buffer reset" —
        proportional to the compact size, with no full-width template),
        then runs the active groups with every index array pre-translated
        to compact row space.  Per computed cell the kernels run the same
        elementwise IEEE ops as the dense sweep, so the packed results are
        bit-identical to it.
        """
        s = len(site_ids)
        self._ensure_const()
        const = self._const[cplan.rows]  # (n_rows, 4) off-path constants
        state, mask = self._compact_buffers(cplan.n_rows, s, slot)
        state[:] = const[:, :, None]
        cols = np.arange(s)
        site_rows = cplan.site_rows
        # The error site carries the erroneous value with certainty: 1(a).
        state[site_rows, :, cols] = (1.0, 0.0, 0.0, 0.0)
        mask[site_rows, cols] = True
        # Columns to re-inject when a group's output row is itself a site
        # in this chunk (the scatter writes SP constants over them) —
        # keyed by *compact* row, the space every group index lives in.
        site_cols: dict[int, list[int]] = {}
        for col, row in enumerate(site_rows.tolist()):
            site_cols.setdefault(row, []).append(col)

        stats = self.sweep_stats
        stats["compact_sweeps"] += 1
        stats["compact_rows"] += cplan.n_rows
        cells = self._cells
        for group, out_ids, fanin in cplan.groups:
            out_mask = mask[fanin].any(axis=1)  # (r, s)
            n_on = int(out_mask.sum())
            if n_on == 0:
                continue
            stats["cells_on"] += n_on
            stats["cells_total"] += out_mask.size
            if cells != "off" and n_on < out_mask.size and (
                cells == "on" or n_on * group.cell_factor < out_mask.size
            ):
                # Cell-compacted tier: even inside active rows only a few
                # columns are on-path on clustered chunks, so gather
                # exactly those (row, column) cells, compute them as one
                # (m, 4) block and scatter back.  Off-path cells keep
                # their seeded SP constants (each node is written at most
                # once per sweep) and a site row's own column is never
                # on-path for itself, so the injected 1(a) survives.
                on_rows, on_cols = np.nonzero(out_mask)
                cell_values = group.compact_rule(
                    state, fanin[on_rows], on_cols
                )  # (m, 4)
                node_rows = out_ids[on_rows]
                state[node_rows, :, on_cols] = cell_values
                mask[node_rows, on_cols] = True
                stats["groups_cell"] += 1
                stats["cells_computed"] += n_on
                continue
            stats["groups_row"] += 1
            stats["cells_computed"] += out_mask.size
            result = group.rule(state, fanin)  # (r, 4, s)
            if out_mask.all():
                state[out_ids] = result
                mask[out_ids] = True
                continue
            if n_on * 8 < out_mask.size:
                # Targeted scatter for column-sparse groups: off-path
                # cells already hold their SP constants from the seed, so
                # only the on-path cells need a write — and a site row's
                # own column is never touched.  Column-dense groups fall
                # through to the row-vectorized ``np.where`` scatter,
                # which beats per-element fancy indexing there.
                on_rows, on_cols = np.nonzero(out_mask)
                node_rows = out_ids[on_rows]
                state[node_rows, :, on_cols] = result[on_rows, :, on_cols]
                mask[node_rows, on_cols] = True
                continue
            state[out_ids] = np.where(
                out_mask[:, None, :], result, const[out_ids][:, :, None]
            )
            mask[out_ids] = out_mask
            for row in out_ids.tolist():
                columns = site_cols.get(row)
                if columns is None:
                    continue
                # Restore the injected 1(a) the scatter just overwrote
                # (a site is never on-path for its own column).
                for col in columns:
                    state[row, 0, col] = 1.0
                    state[row, 1, col] = 0.0
                    state[row, 2, col] = 0.0
                    state[row, 3, col] = 0.0
                    mask[row, col] = True
        return state, mask, (cplan.sink_rows, cplan.sink_positions)

    def _sweep_dense(self, site_ids: np.ndarray, slot: int):
        """The dense reference sweep over ``(n + 2, 4, s)`` slot buffers:
        every level, every gate group, row kernels only."""
        s = len(site_ids)
        self._ensure_state_arrays()
        state, mask = self._buffers(s, slot)
        cols = np.arange(s)
        # The error site carries the erroneous value with certainty: 1(a).
        state[site_ids, :, cols] = (1.0, 0.0, 0.0, 0.0)
        mask[site_ids, cols] = True
        # Columns to re-inject when a group's output node is itself a site
        # in this chunk (the scatter writes SP constants over them).
        site_cols: dict[int, list[int]] = {}
        for col, site_id in enumerate(site_ids.tolist()):
            site_cols.setdefault(site_id, []).append(col)

        const = self._const
        stats = self.sweep_stats
        for _, groups in self.plan.levels:
            for group in groups:
                out_ids = group.out_ids
                fanin = group.fanin
                out_mask = mask[fanin].any(axis=1)  # (g, s)
                if not out_mask.any():
                    continue  # whole group off-path: SP constants hold
                stats["groups_dense"] += 1
                result = group.rule(state, fanin)  # (g, 4, s)
                if out_mask.all():
                    # Fully on-path rows (can hold no injected site column:
                    # a site is never on-path for itself) — assign directly.
                    state[out_ids] = result
                    mask[out_ids] = True
                    continue
                # Off-path columns take their broadcast SP constant — cheaper
                # than gathering the previous output state back out.
                state[out_ids] = np.where(
                    out_mask[:, None, :], result, const[out_ids][:, :, None]
                )
                mask[out_ids] = out_mask
                for node_id in out_ids.tolist():
                    columns = site_cols.get(node_id)
                    if columns is None:
                        continue
                    # Restore the injected 1(a) the scatter just overwrote
                    # (a site is never on-path for its own column).
                    for col in columns:
                        state[node_id, 0, col] = 1.0
                        state[node_id, 1, col] = 0.0
                        state[node_id, 2, col] = 0.0
                        state[node_id, 3, col] = 0.0
                        mask[node_id, col] = True
        return state, mask, None

    def release_buffers(self) -> None:
        """Free the chunk-width state matrices (template, constants, the
        double-buffered dense sweep/mask pairs and the compacted-sweep
        arenas) plus the plan's cached compacted-row remaps.  Everything
        is rebuilt lazily on the next sweep, so this is always safe to
        call between analyses on long-lived engines/analyzers."""
        self._template = None
        self._const = None
        self._buffer_slots.clear()
        self._compact_arenas.clear()
        self.plan.chunk_cache.clear()

    # ------------------------------------------------------------- scheduling

    def _schedule_order(self, ids: np.ndarray):
        """The sweep permutation for one call, or ``None`` for input order.

        Calls spanning more than one chunk are cone-clustered (within a
        single chunk the sweep visits the union of all cones whatever the
        order); ``order[j]`` is the input position of the ``j``-th site
        to sweep.  An order that is already increasing comes back as
        ``None`` — a sharded worker's shard is a contiguous run of the
        parent's stable cone sort, so it sweeps exactly as it arrived.
        Scheduling cannot change any per-site result — every column is
        computed independently — so callers restore input order after the
        sweep.
        """
        if len(ids) <= self.batch_size:
            return None
        order = cone_cluster_order(self.compiled, ids)
        if (order[1:] > order[:-1]).all():
            return None
        return order

    def _chunk_spans(self, ids: np.ndarray) -> list[tuple[int, int]]:
        """The ``(start, stop)`` spans one bulk call sweeps, in order.

        The calibrated policy: flat ``batch_size`` slicing, widened by
        :meth:`_compact_spans` when the backend prunes.  Measured on the
        s9234/s38417 workloads (the single-core record in
        ``BENCH_pr4.json``), every extra chunk costs ~40-80 ms of
        width-independent overhead — group dispatch, the per-chunk
        sink reduction, and for dense sweeps the full-template restore —
        which consistently outweighs the smaller unions a narrower or
        cluster-aligned split buys, so chunks are never cut below
        ``batch_size``.  Any span partition is bit-identical per site.
        """
        n = len(ids)
        if n > self.batch_size and self.prune:
            spans = self._compact_spans(ids)
        else:
            spans = [
                (start, min(start + self.batch_size, n))
                for start in range(0, n, self.batch_size)
            ]
        self.sweep_stats["chunks"] += len(spans)
        return spans

    def _compact_spans(self, ids: np.ndarray) -> list[tuple[int, int]]:
        """Wide fixed spans for compacted sweeps.

        The PR-4 calibration kept chunks at ``batch_size`` because each
        extra chunk paid a width-independent restore of the full
        ``(n + 2, 4, batch)`` template; compacted sweeps pay a seed
        proportional to their own union instead, so the same state-byte
        budget buys :data:`_COMPACT_WIDTH_HALVES`/2 wider chunks — fewer
        per-call fixed costs (dispatch, sink reductions, pack merges).
        Each candidate span's *measured* union-of-cones footprint (its
        cached chunk plan's ``n_rows``) is checked against
        ``_STATE_BYTES_TARGET`` and the span is halved — never below
        ``batch_size`` — until it fits, so a wide chunk whose cones
        saturate the circuit cannot blow the memory bound the dense
        layout respected.
        """
        n = len(ids)
        target = min(n, (self.batch_size * _COMPACT_WIDTH_HALVES) // 2)
        spans: list[tuple[int, int]] = []
        start = 0
        while start < n:
            stop = min(start + target, n)
            while stop - start > self.batch_size:
                span_ids = ids[start:stop]
                cplan = self.plan.compact_chunk_plan(span_ids)
                if cplan.n_rows * 32 * (stop - start) <= _STATE_BYTES_TARGET:
                    break
                # A rejected candidate will never be swept: evict its plan
                # so dead oversized remaps don't crowd live per-chunk
                # plans out of the FIFO cache.
                self.plan.chunk_cache.discard(chunk_cache_key(span_ids))
                stop = start + max(self.batch_size, (stop - start) // 2)
            spans.append((start, stop))
            start = stop
        return spans

    def _swept_chunks(self, ids: np.ndarray):
        """Yield ``(chunk, state, mask, sinks)`` per chunk of ``ids``,
        pipelined.

        The shared chunking driver of every bulk query: two-stage pipeline
        where the NumPy sweep of chunk ``i+1`` (GIL released inside the
        array kernels) overlaps the Python-side consumption of chunk
        ``i``; double buffering keeps consecutive stages on disjoint slot
        buffers (dense matrices or compacted arenas).  Single-chunk calls
        skip the thread machinery.  ``sinks`` is the sweep's sink
        translation — ``None`` for dense layouts (see :meth:`_sweep`).
        """
        chunks = [ids[start:stop] for start, stop in self._chunk_spans(ids)]
        if not chunks:
            return
        if len(chunks) == 1:
            state, mask, sinks = self._sweep(chunks[0])
            yield chunks[0], state, mask, sinks
            return
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as sweeper:
            future = sweeper.submit(self._sweep, chunks[0], 0)
            for index, chunk in enumerate(chunks):
                state, mask, sinks = future.result()
                if index + 1 < len(chunks):
                    future = sweeper.submit(
                        self._sweep, chunks[index + 1], (index + 1) % 2
                    )
                yield chunk, state, mask, sinks

    # ---------------------------------------------------------------- queries

    def p_sensitized_many(self, site_ids: Sequence[int]) -> np.ndarray:
        """``P_sensitized`` for many sites, aligned with ``site_ids``.

        Shares the full bulk path with :meth:`analyze_sites`: the scalar
        crossover guard, the double-buffered sweep pipeline, the chunk
        scheduler, and — through :meth:`_select_pairs` — the exact
        reduction and clamping policy of the packed path, so the two
        queries can never drift numerically.
        """
        ids = np.asarray(site_ids, dtype=np.intp)
        out = np.empty(len(ids))
        if (
            self.scalar_fallback is not None
            and self.compiled.n * len(ids) < self.min_vector_work
        ):
            for position, site_id in enumerate(ids.tolist()):
                out[position] = self.scalar_fallback(site_id).p_sensitized
            return out
        order = self._schedule_order(ids)
        sweep_ids = ids if order is None else ids[order]
        cursor = 0
        for chunk, state, mask, sinks in self._swept_chunks(sweep_ids):
            p_sens = self._select_pairs(chunk, state, mask, sinks)[0]
            if order is None:
                out[cursor : cursor + len(chunk)] = p_sens
            else:
                out[order[cursor : cursor + len(chunk)]] = p_sens
            cursor += len(chunk)
        return out

    def analyze_sites(self, site_ids: Sequence[int]):
        """Full per-site results (sink vectors included) for many sites.

        Returns ``{site_name: EPPResult}`` in input order, matching
        ``EPPEngine.node_epp`` per site to floating-point reassociation.
        """
        from repro.core.epp import EPPResult

        site_ids = list(site_ids)
        results: dict[str, EPPResult] = {}
        use_scalar = (
            self.scalar_fallback is not None
            and self.compiled.n * len(site_ids) < self.min_vector_work
        )
        if use_scalar:
            for site_id in site_ids:
                result = self.scalar_fallback(site_id)
                results[result.site] = result
            return results
        ids = np.asarray(site_ids, dtype=np.intp)
        order = self._schedule_order(ids)
        sweep_ids = ids if order is None else ids[order]
        for chunk, state, mask, sinks in self._swept_chunks(sweep_ids):
            self._collect(chunk, state, mask, sinks, results)
        if order is not None:
            names = self.compiled.names
            results = {
                names[site_id]: results[names[site_id]] for site_id in site_ids
            }
        return results

    def _collect(self, chunk, state, mask, sinks, results) -> None:
        """Assemble per-site EPPResults from one chunk's sweep."""
        self.materialize(
            chunk.tolist(), self._pack(chunk, state, mask, sinks), results
        )

    def _select_pairs(self, chunk, state, mask, sinks=None) -> tuple:
        """The shared sink-pair reduction of one chunk's sweep.

        All numeric work happens in bulk: the on-path (site, sink) pairs
        are selected with one boolean pick, clamped with one
        ``np.maximum`` (``EPPValue.clamped`` in bulk), the per-pair error
        masses capped at 1, and the per-site survival products run through
        ``multiply.reduceat``.  This is the single reduction/clamping
        policy behind both :meth:`p_sensitized_many` and :meth:`_pack`.
        ``sinks`` carries a compacted sweep's ``(sink_rows,
        sink_positions)`` translation: reducing over the present subset
        selects the same pairs in the same order — absent sinks are
        off-path in every column — so the products stay bit-identical.
        Returns ``(p_sens, counts, sink_mask, selected)``.
        """
        sink_rows = self.plan.sink_ids if sinks is None else sinks[0]
        sink_state = state[sink_rows]  # (ns, 4, s)
        sink_mask = mask[sink_rows].T  # (s, ns)
        # Site-major selection of every on-path (site, sink) pair: the
        # boolean pick over (s, ns, ...) walks sites first, sinks second.
        selected = sink_state.transpose(2, 0, 1)[sink_mask]  # (m, 4)
        np.maximum(selected, 0.0, out=selected)
        # P_sensitized = 1 - prod(1 - (pa + pā)) over each site's own pairs.
        error = np.minimum(selected[:, 0] + selected[:, 1], 1.0)
        counts = sink_mask.sum(axis=1)  # pairs per site
        p_sens = np.zeros(len(chunk))
        occupied = counts > 0
        if occupied.any():
            # Segment starts for the non-empty sites only: consecutive starts
            # then delimit exactly each site's own pairs (empty sites add no
            # elements), so reduceat never sees a degenerate slice.
            starts = (np.cumsum(counts) - counts)[occupied]
            p_sens[occupied] = 1.0 - np.multiply.reduceat(1.0 - error, starts)
        return p_sens, counts, sink_mask, selected

    def _pack(self, chunk, state, mask, sinks=None) -> tuple:
        """Reduce one chunk's sweep to compact per-site numeric arrays.

        Returns ``(p_sens, cone_sizes, counts, sink_pos, values)`` aligned
        with the chunk: ``counts[i]`` on-path pairs per site, ``sink_pos``
        indices into ``plan.sink_ids`` and ``values`` their clamped ``(m, 4)``
        four-valued vectors.  A compacted sweep's ``sink_pos`` is mapped
        back through its ``sink_positions`` translation, so the packed
        layout is identical whichever sweep ran the chunk.  This
        tuple of plain arrays is also the wire format the sharded driver
        (:mod:`repro.core.epp_shard`) ships across the process boundary —
        flat buffers, no per-object overhead.
        """
        p_sens, counts, sink_mask, selected = self._select_pairs(
            chunk, state, mask, sinks
        )
        sink_pos = np.nonzero(sink_mask)[1]
        if sinks is not None:
            sink_pos = sinks[1][sink_pos]
        cone_sizes = mask.sum(axis=0) - 1  # mask includes the site
        return p_sens, cone_sizes, counts, sink_pos, selected

    @staticmethod
    def _reorder_packed(packed: tuple, inverse: np.ndarray) -> tuple:
        """Permute a packed tuple from sweep order back to input order.

        ``inverse[i]`` is the sweep position of input site ``i``.  The
        per-site arrays gather directly; the variable-length sink-pair
        segments (``sink_pos``/``values``) are gathered via
        :func:`segment_index` so the whole reorder stays vectorized.
        """
        p_sens, cone_sizes, counts, sink_pos, values = packed
        starts = np.cumsum(counts) - counts
        new_counts = counts[inverse]
        index = segment_index(starts[inverse], new_counts)
        return (
            p_sens[inverse], cone_sizes[inverse], new_counts,
            sink_pos[index], values[index],
        )

    def pack_sites(self, site_ids: Sequence[int]) -> tuple:
        """Compact numeric results for many sites (chunks concatenated).

        The sharded driver's per-worker entry point: sweeps the sites
        chunk by chunk — through the same scheduler as the other bulk
        queries — and returns one concatenated ``_pack`` tuple aligned
        with ``site_ids`` input order, ready to cross the process
        boundary and be materialized by the parent.
        """
        ids = np.asarray(site_ids, dtype=np.intp)
        order = self._schedule_order(ids)
        sweep_ids = ids if order is None else ids[order]
        parts = [
            self._pack(chunk, state, mask, sinks)
            for chunk, state, mask, sinks in self._swept_chunks(sweep_ids)
        ]
        if not parts:
            return empty_packed()
        if len(parts) == 1:
            packed = parts[0]
        else:
            packed = (
                np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]),
                np.concatenate([p[2] for p in parts]),
                np.concatenate([p[3] for p in parts]),
                np.concatenate([p[4] for p in parts]),
            )
        if order is not None:
            inverse = np.empty(len(order), dtype=np.intp)
            inverse[order] = np.arange(len(order), dtype=np.intp)
            packed = self._reorder_packed(packed, inverse)
        return packed

    def materialize(self, site_ids: Sequence[int], packed: tuple, results) -> None:
        """Build per-site EPPResults from a ``_pack``/``pack_sites`` tuple.

        The per-sink ``EPPValue`` dicts are *deferred*: each result holds a
        slice descriptor into the packed arrays and builds its dict on
        first ``sink_values`` access (full-circuit analyses carry millions
        of (site, sink) pairs, and the dominant consumers read only
        ``p_sensitized``).  The packed arrays stay alive exactly as long
        as some un-materialized result references them.  ``results`` is
        updated in ``site_ids`` order.
        """
        from repro.core.epp import EPPResult

        names = self.compiled.names
        sink_names_arr = self._sink_names_arr
        p_sens, cone_sizes, counts, sink_pos, values = packed
        stops = np.cumsum(counts)
        starts = (stops - counts).tolist()
        stops = stops.tolist()
        p_sens = p_sens.tolist()
        cone_sizes = cone_sizes.tolist()

        def sink_source(start, stop):
            def build():
                return dict(
                    zip(
                        sink_names_arr[sink_pos[start:stop]].tolist(),
                        starmap(
                            EPPValue._unchecked, values[start:stop].tolist()
                        ),
                    )
                )

            return build

        for column, site_id in enumerate(site_ids):
            site_name = names[site_id]
            results[site_name] = EPPResult.deferred(
                site_name,
                p_sens[column],
                cone_sizes[column],
                sink_source(starts[column], stops[column]),
            )
