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
  20k+-gate circuits.  One serial driver serves every bulk query: it
  sweeps each chunk in the caller's thread on one arena, sized once per
  call for the call's largest chunk, and hands the chunk to the query's
  reduction — the two columns of :meth:`BatchEPPBackend.analyze_sites`
  or the packed pairs of :meth:`BatchEPPBackend.pack_sites`, which share
  the one ``P_sensitized`` reduction;
* the sweep is *cone-aware*: each chunk runs on a *compacted state
  matrix* that holds only its *live* union-of-cones rows — the cones'
  gates plus the fanin rows those gates read and the sentinel rows —
  through a per-chunk slot layout (:meth:`BatchPlan.compact_chunk_plan`),
  built once per swept chunk.  A row holds a physical row
  (*slot*) from the level that first writes or reads it until its last
  reader's level has run, and the slot is then reused, so the matrix
  needs only the rows live at once (40% of the largest default s9234
  chunk's rows); sites, present sinks and sentinels keep theirs for the
  whole sweep.  Every gather, kernel and scatter indexes the small
  matrix, all levels at or below the chunk's minimum site level are
  skipped outright, and the sink reduction walks only the sinks the
  chunk can reach.  Each retained row computes exactly what a dense
  sweep over the full ``(n + 2, 4, s)`` matrix computes, so results are
  bit-identical to that reference (the test suite keeps it as its
  oracle);
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
  union-of-cones — the sweep's cost — stays small.  Scheduling is
  a pure permutation; results are always returned in input order.

Results are bit-compatible with the scalar engine up to floating-point
reassociation (the per-sink survival product and per-group reductions run
in a different order); the backend-equivalence tests pin agreement to
1e-9.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import starmap

import numpy as np

from repro.errors import AnalysisError
from repro.core.fourvalue import EPPValue
from repro.core.rules_vec import compact_rule_for, gather_rule_for
from repro.core.schedule import cone_cluster_order
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

#: Target footprint of one chunk's state (bytes).  Wide chunks amortize
#: per-group dispatch; the per-group operands (a handful of ``(g, batch)``
#: rows) stay cache-resident regardless of this total.
#: :func:`default_batch_size` sizes the default width so a full-circuit
#: ``(n, 4, batch)`` matrix would meet it, and ``_chunk_spans`` checks
#: each span's union rows against it; a sweep allocates only the chunk's
#: live slots (``n_slots x 4 x width x 8`` bytes), and every bulk query
#: holds one arena sized to its largest chunk.
#: Pass ``batch_size`` to shrink it on memory-constrained hosts.
_STATE_BYTES_TARGET = 256 << 20

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

#: Chunk-width multiplier (halves) for the sweep, whose every
#: chunk sweeps *compacted*: the PR-4 calibration pinned full-width
#: chunks because each extra chunk cost ~40-80 ms of width-independent
#: overhead, most of it the full-template restore — which compacted
#: state matrices (and their reusable arenas) eliminate outright, so the
#: same budget buys wider chunks without the full-row memory blow-up.
#: Measured on s9234/s38417 full-circuit runs, 1.5x is the sweet spot
#: (8-9% over full width; by 3x the growing per-chunk unions overtake
#: the saved fixed costs and clustered workloads regress outright).
#: ``_chunk_spans`` still splits any
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
    """One chunk's compacted state layout: its union-of-cones rows laid
    out on recycled physical rows (*slots*).

    Built by :meth:`BatchPlan.compact_chunk_plan` once per swept chunk,
    while ``_chunk_spans`` checks the chunk's footprint.  The
    chunk's *rows* are its union-of-cones gates, every fanin row those
    gates read (off-path fanins hold their SP constants), the site rows
    and any referenced sentinel row.  A row is live only from the level
    that first writes or reads it until its last reader's level has run,
    so a linear scan over the levels lays the rows out on ``n_slots``
    slots: a row takes a free slot when it goes live and frees it after
    its last reader's level (a slot freed after level L is reused from
    level L + 1 on, never within L).  Chunk sites, present sinks and
    referenced sentinels are *pinned* to slots ``0 .. len(pinned_nodes) -
    1`` for the whole sweep: the site re-injection map is keyed by slot,
    and the sink reduction reads the sink slots after the sweep.  Every
    gate-group index array is already translated into slot space, so the
    kernels of :mod:`repro.core.rules_vec` index the small matrix
    unchanged.  The layout is pure indexing: each computed cell runs
    exactly the ops a dense sweep over the full matrix runs, so
    compacted results are bit-identical to it.

    Attributes
    ----------
    n_rows:
        The union size — rows the chunk touches.  ``_chunk_spans``'
        memory check and ``sweep_stats["compact_rows"]`` read it.
    n_slots:
        The compacted state matrix's physical row count, ``<= n_rows``.
    pinned_nodes:
        Global node ids of the pinned rows, ascending; slot ``j`` holds
        ``pinned_nodes[j]``.
    site_slots:
        Slot of each chunk site, aligned with the chunk.
    levels:
        ``(seed_slots, seed_nodes, groups, retire_slots)`` per swept level
        in sweep order: the slots that go live at this level and the
        global ids of the rows they take (seeded with those rows' SP
        constants, mask rows cleared, before the level's groups run); the
        level's active gate groups as ``(group, out_slots, fanin_slots,
        out_nodes)`` — the plan's :class:`_Group` (kernel dispatch) with
        its active rows' output/fanin indices in slot space and the
        output rows' global ids; and the slots of the written rows whose
        last reader is at this level, whose mask rows are added to the
        cone counts as they retire.
    sink_slots / sink_positions:
        Slots of the observable sinks present in the matrix, and their
        positions into ``BatchPlan.sink_ids`` — absent sinks are off-path
        for every column by construction, so the sink-pair reduction
        over the present subset selects exactly the pairs a reduction
        over every sink selects, in the same order.
    """

    __slots__ = (
        "n_rows", "n_slots", "pinned_nodes", "site_slots", "levels",
        "sink_slots", "sink_positions",
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

    def compact_chunk_plan(self, site_ids: np.ndarray) -> CompactChunkPlan:
        """The compacted-row plan for one chunk of sites.

        One vectorized forward-reachability pass over the level groups
        and one slot scan over the swept levels.  Nothing is memoized:
        a bulk call builds each chunk's plan once, in ``_chunk_spans``,
        and sweeps on that plan.
        """
        total = self.n + 2
        # reach: on the union of the chunk's fanout cones.  Each swept
        # level keeps its active groups plus the rows it writes (outs)
        # and touches (outs and every fanin its groups read — off-path
        # fanins supply their SP constants, so they need rows too).
        reach = np.zeros(total, dtype=bool)
        reach[site_ids] = True
        min_site_level = int(self.node_level[site_ids].min())
        swept: list[tuple[list, np.ndarray, np.ndarray]] = []
        for level, groups in self.levels:
            if level <= min_site_level:
                continue
            entries = []
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
                entries.append((group, out_ids, fanin))
            if entries:
                outs = np.concatenate([out_ids for _, out_ids, _ in entries])
                touched = np.concatenate(
                    [outs] + [fanin.ravel() for _, _, fanin in entries]
                )
                swept.append((entries, outs, touched))
        # Live ranges.  Levels ascend, so a forward pass of plain
        # assignments leaves each row's last level and a backward pass
        # its first; a row's own level is below every reader's.
        first = np.full(total, -1, dtype=np.intp)
        last = np.empty(total, dtype=np.intp)
        written = np.zeros(total, dtype=bool)
        for index, (_, outs, touched) in enumerate(swept):
            last[touched] = index
            written[outs] = True
        for index in range(len(swept) - 1, -1, -1):
            first[swept[index][2]] = index
        needed = first >= 0
        needed[site_ids] = True
        present = needed[self.sink_ids]
        pinned = np.zeros(total, dtype=bool)
        pinned[site_ids] = True
        pinned[self.sink_ids[present]] = True
        pinned[self.n:] = needed[self.n:]
        pinned_nodes = np.nonzero(pinned)[0]
        slot_of = np.zeros(total, dtype=np.intp)
        slot_of[pinned_nodes] = np.arange(len(pinned_nodes), dtype=np.intp)
        # The recycled rows grouped by the level they go live at and by
        # the level after which they retire.
        recycled = np.nonzero(needed & ~pinned)[0]
        bounds = np.arange(len(swept) + 1)
        born = recycled[np.argsort(first[recycled], kind="stable")]
        born_bounds = np.searchsorted(first[born], bounds)
        dying = recycled[np.argsort(last[recycled], kind="stable")]
        dying_bounds = np.searchsorted(last[dying], bounds)
        # The slot scan, once per level: live rows take freed slots
        # (most recently freed first) before fresh ones, and a level's
        # dying rows free theirs only after the level has run.
        free = np.empty(0, dtype=np.intp)
        n_slots = len(pinned_nodes)
        levels = []
        for index, (entries, _, _) in enumerate(swept):
            seed_nodes = born[born_bounds[index]:born_bounds[index + 1]]
            reused = min(len(seed_nodes), len(free))
            fresh = len(seed_nodes) - reused
            seed_slots = np.concatenate((
                free[len(free) - reused:],
                np.arange(n_slots, n_slots + fresh, dtype=np.intp),
            ))
            free = free[:len(free) - reused]
            n_slots += fresh
            slot_of[seed_nodes] = seed_slots
            groups = [
                (group, slot_of[out_ids], slot_of[fanin], out_ids)
                for group, out_ids, fanin in entries
            ]
            retiring = dying[dying_bounds[index]:dying_bounds[index + 1]]
            retire_slots = slot_of[retiring]
            free = np.concatenate((free, retire_slots))
            levels.append(
                (seed_slots, seed_nodes, groups,
                 retire_slots[written[retiring]])
            )
        plan = CompactChunkPlan()
        plan.n_rows = int(needed.sum())
        plan.n_slots = n_slots
        plan.pinned_nodes = pinned_nodes
        plan.site_slots = slot_of[site_ids]
        plan.levels = levels
        plan.sink_slots = slot_of[self.sink_ids[present]]
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

    Every chunk runs on its compacted union-of-cones state matrix
    (:meth:`BatchPlan.compact_chunk_plan`) and skips levels at or below
    its minimum site level, and every call spanning more than one chunk
    is cone-clustered (:meth:`_schedule_order`).  Each sweep picks a
    kernel tier per gate group: a group whose on-path cell count times
    the kernel's calibrated cost factor is below its dense cell count
    gathers only the on-path (row, column) cells and computes them
    through the compacted kernels of
    :func:`~repro.core.rules_vec.compact_rule_for`; denser groups run
    the row kernels.  Chunk widths follow one
    calibrated policy (:meth:`_chunk_spans`).  Tests force the tier
    choice through the private ``_cells`` attribute (``"auto"``,
    ``"on"`` or ``"off"``); every setting is bit-identical.
    """

    def __init__(
        self,
        compiled: CompiledCircuit,
        signal_probs: Sequence[float],
        batch_size: int | None = None,
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
        #: The cell-tier test hook: ``"auto"`` runs the per-group cost
        #: model, ``"on"`` compacts every partially-on-path group, ``"off"``
        #: keeps the row kernels.  Not an analysis knob — every setting is
        #: bit-identical, and only tests pinning that set it.
        self._cells = "auto"
        #: Cumulative execution counters, updated by every sweep: chunk
        #: accounting (``sweeps``, ``chunks``; ``compact_rows`` /
        #: ``compact_slots`` — the union rows the sweeps covered and the
        #: physical slots they allocated, vs ``n + 2`` rows of the full
        #: matrix), per-tier group counts (``groups_row`` /
        #: ``groups_cell``) and cell accounting (``cells_on`` on-path
        #: cells, ``cells_total`` cells spanned, ``cells_computed`` cells
        #: actually computed — the FLOP measure the benchmarks report;
        #: always ``<= cells_total``).
        self.sweep_stats = {
            "sweeps": 0,
            "compact_rows": 0,
            "compact_slots": 0,
            "chunks": 0,
            "groups_row": 0,
            "groups_cell": 0,
            "cells_on": 0,
            "cells_total": 0,
            "cells_computed": 0,
        }
        self._rows = compiled.n + 2
        # Built on the first sweep, dropped by release_buffers().
        self._const: np.ndarray | None = None
        self._sink_names_arr = np.asarray(self.plan.sink_names, dtype=object)
        #: The flat ``[state, mask]`` arena every sweep carves its
        #: (n_slots, 4, s) state and (n_slots, s) mask views from, reused
        #: across sweeps so the hot path never re-faults fresh pages.
        #: Sized once per bulk call for its largest chunk, and kept while
        #: it fits.  A sweep seeds every state row and clears its mask row
        #: as the row goes live, so stale content between sweeps is
        #: harmless.
        self._arena: list[np.ndarray] | None = None

    def _ensure_const(self) -> None:
        """The ``(n + 2, 4)`` per-node off-path constants each slot is
        seeded from as its row goes live."""
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

    # ------------------------------------------------------------------ sweep

    def _sweep(self, site_ids: np.ndarray, cplan: CompactChunkPlan):
        """One level-synchronized pass for a chunk of sites, over the
        chunk's compacted union-of-cones matrix.

        Carves uninitialized ``(n_slots, 4, s)`` state and ``(n_slots,
        s)`` mask views out of the arena (sized by :meth:`_swept_chunks`)
        and runs the chunk plan ``cplan`` level by level: the slots going
        live at a level are seeded with their new rows' off-path
        constants and their mask rows cleared (a recycled slot still
        holds its previous row), the
        level's active groups run with every index array pre-translated
        to slot space, and the slots whose rows were last read at this
        level add their mask rows to the per-column cone counts before
        they can be reused.  The pinned site, sink and sentinel slots are
        seeded once up front and counted at the end.  Per computed cell
        the kernels run the same elementwise IEEE ops as a dense sweep
        over the full ``(n + 2, 4, s)`` matrix, so the packed results are
        bit-identical to it.

        Returns ``(state, mask, layout)``: the four-valued state matrix,
        the on-path membership bitmask, and the ``(sink_slots,
        sink_positions, cones)`` readout of the layout — the plan's sink
        translation and the per-column count of on-path rows (cone size
        plus the site), accumulated as slots retire because a recycled
        slot's mask no longer holds its row.
        """
        s = len(site_ids)
        self._ensure_const()
        const = self._const  # (n + 2, 4) off-path constants by node id
        cells = cplan.n_slots * s
        state = self._arena[0][:4 * cells].reshape(cplan.n_slots, 4, s)
        mask = self._arena[1][:cells].reshape(cplan.n_slots, s)
        n_pinned = len(cplan.pinned_nodes)
        state[:n_pinned] = const[cplan.pinned_nodes][:, :, None]
        mask[:n_pinned] = False
        cols = np.arange(s)
        site_slots = cplan.site_slots
        # The error site carries the erroneous value with certainty: 1(a).
        state[site_slots, :, cols] = (1.0, 0.0, 0.0, 0.0)
        mask[site_slots, cols] = True
        # Columns to re-inject when a group's output row is itself a site
        # in this chunk (the scatter writes SP constants over them) —
        # keyed by slot, the space every group index lives in; site slots
        # are pinned, so no other row ever takes one.
        site_cols: dict[int, list[int]] = {}
        for col, row in enumerate(site_slots.tolist()):
            site_cols.setdefault(row, []).append(col)
        cones = np.zeros(s, dtype=np.intp)

        stats = self.sweep_stats
        stats["sweeps"] += 1
        stats["compact_rows"] += cplan.n_rows
        stats["compact_slots"] += cplan.n_slots
        cells = self._cells
        for seed_slots, seed_nodes, groups, retire_slots in cplan.levels:
            state[seed_slots] = const[seed_nodes][:, :, None]
            mask[seed_slots] = False
            self._run_compact_groups(state, mask, groups, const, site_cols,
                                     cells)
            if retire_slots.size:
                cones += mask[retire_slots].sum(axis=0)
        cones += mask[:n_pinned].sum(axis=0)
        return state, mask, (cplan.sink_slots, cplan.sink_positions, cones)

    def _run_compact_groups(self, state, mask, groups, const, site_cols,
                            cells):
        """Run one level's active groups of a compacted sweep in place."""
        stats = self.sweep_stats
        for group, out_ids, fanin, out_nodes in groups:
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
                out_mask[:, None, :], result, const[out_nodes][:, :, None]
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

    def release_buffers(self) -> None:
        """Free the off-path constants and the sweep arena.  Both are
        rebuilt lazily on the next sweep, so this is always safe to
        call between analyses on long-lived engines/analyzers."""
        self._const = None
        self._arena = None

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

    def _chunk_spans(self, ids: np.ndarray) -> list[tuple]:
        """The ``(start, stop, cplan)`` spans one bulk call sweeps, in
        order, each with the chunk plan of ``ids[start:stop]``.

        The calibrated policy: flat spans :data:`_COMPACT_WIDTH_HALVES`/2
        times ``batch_size`` wide.  Measured on the s9234/s38417
        workloads (the single-core record in ``BENCH_pr4.json``), every
        extra chunk costs width-independent overhead — group dispatch,
        the per-chunk sink reduction and pack merges — which
        consistently outweighs the smaller unions a narrower or
        cluster-aligned split buys.  Each candidate span's *measured*
        union-of-cones footprint (its chunk plan's ``n_rows``) is
        checked against ``_STATE_BYTES_TARGET`` and the span is halved —
        never below ``batch_size`` — until it fits, so a wide chunk whose
        cones saturate the circuit cannot blow the memory bound.  A call
        builds one plan per swept chunk plus one per rejected candidate,
        and the sweep runs on the plan built here.  Any span partition
        is bit-identical per site.
        """
        n = len(ids)
        target = min(n, (self.batch_size * _COMPACT_WIDTH_HALVES) // 2)
        spans: list[tuple] = []
        start = 0
        while start < n:
            stop = min(start + target, n)
            cplan = self.plan.compact_chunk_plan(ids[start:stop])
            while (
                stop - start > self.batch_size
                and cplan.n_rows * 32 * (stop - start) > _STATE_BYTES_TARGET
            ):
                stop = start + max(self.batch_size, (stop - start) // 2)
                cplan = self.plan.compact_chunk_plan(ids[start:stop])
            spans.append((start, stop, cplan))
            start = stop
        self.sweep_stats["chunks"] += len(spans)
        return spans

    def _swept_chunks(self, site_ids: Sequence[int], reduce) -> tuple:
        """``(reduced, inverse)`` of one bulk call over ``site_ids``.

        The one chunk driver of every bulk query.  It cone-clusters the
        sites (:meth:`_schedule_order`), splits them with
        :meth:`_chunk_spans`, sizes the arena once for the call's
        largest chunk (``max(n_slots x width)`` cells), and sweeps each
        chunk in the caller's thread on it with the span's chunk plan.
        ``reduce(state, mask, layout)`` turns each sweep into a tuple of
        per-site arrays before the next sweep overwrites the arena.
        ``reduced`` concatenates those tuples in sweep order (``None``
        for no site); ``inverse[i]`` is the sweep position of input site
        ``i`` (``None`` when the sweep kept input order).
        """
        ids = np.asarray(site_ids, dtype=np.intp)
        order = self._schedule_order(ids)
        inverse = None
        if order is not None:
            ids = ids[order]
            inverse = np.empty(len(order), dtype=np.intp)
            inverse[order] = np.arange(len(order), dtype=np.intp)
        spans = self._chunk_spans(ids)
        if not spans:
            return None, inverse
        cells = max(cplan.n_slots * (stop - start)
                    for start, stop, cplan in spans)
        if self._arena is None or self._arena[1].size < cells:
            # Drop an arena too small before allocating its successor.
            self._arena = None
            self._arena = [np.empty(4 * cells), np.empty(cells, dtype=bool)]
        parts = [
            reduce(*self._sweep(ids[start:stop], cplan))
            for start, stop, cplan in spans
        ]
        if len(parts) == 1:
            return parts[0], inverse
        return tuple(map(np.concatenate, zip(*parts))), inverse

    # ---------------------------------------------------------------- queries

    def analyze_sites(self, site_ids: Sequence[int]) -> tuple:
        """``(p_sensitized, cone_sizes)`` for many sites, in input order.

        The column query every bulk ``analyze`` runs: each chunk is swept
        and reduced at once to its two columns (:meth:`_reduce_columns`),
        with no (site, sink) pair ever packed.  Both columns equal
        :meth:`pack_sites`' ``p_sens``/``cone_sizes`` bit for bit.
        """
        return self._column_query(site_ids)

    def p_sensitized_many(self, site_ids: Sequence[int]) -> np.ndarray:
        """``P_sensitized`` for many sites, aligned with ``site_ids``: the
        first column of :meth:`analyze_sites`."""
        return self._column_query(site_ids)[0]

    def _column_query(self, site_ids: Sequence[int]) -> tuple:
        """The body of :meth:`analyze_sites`, shared with
        :meth:`p_sensitized_many`: neither public query calls the other,
        so a tracer that wraps both (perfbench's launcher does) counts a
        call's counters once."""
        columns, inverse = self._swept_chunks(site_ids, self._reduce_columns)
        if columns is None:
            return np.empty(0), np.empty(0, dtype=np.intp)
        if inverse is not None:
            columns = tuple(column[inverse] for column in columns)
        return columns

    @staticmethod
    def _reduce_columns(state, mask, layout) -> tuple:
        """``(p_sensitized, cone_sizes)`` of one chunk's sweep — the one
        ``P_sensitized`` reduction, shared by both bulk queries.

        ``P_sensitized = 1 - prod(1 - min(max(pa, 0) + max(pā, 0), 1))``
        over each column's on-path sinks, with every off-path sink
        contributing an exact factor 1.0.  The product runs down the
        present sinks in ``layout`` order, the order :meth:`_pack` lists
        a site's pairs in, so it equals a per-site product over the
        packed pairs bit for bit.  Cone sizes are the counts the sweep
        accumulated, less the site itself.
        """
        sink_slots, _, cones = layout
        error = np.maximum(state[sink_slots, 0], 0.0)  # (ns, s)
        error += np.maximum(state[sink_slots, 1], 0.0)
        np.minimum(error, 1.0, out=error)
        survive = np.where(mask[sink_slots], 1.0 - error, 1.0)
        return 1.0 - np.multiply.reduce(survive, axis=0), cones - 1

    def _pack(self, state, mask, layout) -> tuple:
        """Reduce one chunk's sweep to compact per-site numeric arrays.

        Returns ``(p_sens, cone_sizes, counts, sink_pos, values)`` aligned
        with the chunk: the two columns of :meth:`_reduce_columns`,
        ``counts[i]`` on-path (site, sink) pairs per site, ``sink_pos``
        indices into ``plan.sink_ids`` and ``values`` their clamped
        ``(m, 4)`` four-valued vectors (``EPPValue.clamped`` in bulk).
        ``layout``'s ``(sink_slots, sink_positions)`` translate the
        sinks: selecting over the present subset selects the same pairs
        in the same order as selecting over every sink — absent sinks
        are off-path in every column — so the packed layout does not
        depend on the chunk's slot layout.  This tuple of plain arrays
        is also the wire format the sharded driver
        (:mod:`repro.core.epp_shard`) ships across the process boundary —
        flat buffers, no per-object overhead.
        """
        p_sens, cone_sizes = self._reduce_columns(state, mask, layout)
        sink_slots, sink_positions, _ = layout
        sink_mask = mask[sink_slots].T  # (s, ns)
        # Site-major selection of every on-path (site, sink) pair: the
        # boolean pick over (s, ns, ...) walks sites first, sinks second.
        values = state[sink_slots].transpose(2, 0, 1)[sink_mask]  # (m, 4)
        np.maximum(values, 0.0, out=values)
        sink_pos = sink_positions[np.nonzero(sink_mask)[1]]
        return p_sens, cone_sizes, sink_mask.sum(axis=1), sink_pos, values

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

        What snapshots and deltas splice, ``EPPEngine.analyze``
        materializes, and a sharded worker returns for a packed query:
        sweeps the sites through the same driver as
        :meth:`analyze_sites` and returns one concatenated ``_pack``
        tuple aligned with ``site_ids`` input order.
        """
        packed, inverse = self._swept_chunks(site_ids, self._pack)
        if packed is None:
            return empty_packed()
        if inverse is not None:
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
