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
  sweeps each chunk in the caller's thread on one arena and one kernel
  scratch, both sized once per call for the call's largest chunks (so
  no gate group allocates its temporaries), and hands the chunk to the
  query's
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
  needs only the rows live at once (29% of the largest default s9234
  chunk's rows).  Sites are such rows too, and so are the sinks of the
  column query, whose survival factors are captured into a small sink
  plane as each sink row becomes final; only the sentinels, and the
  packed query's sinks, keep their slots for the whole sweep.  Every
  gather, kernel and scatter indexes the small
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
from typing import NamedTuple

import numpy as np

from repro.errors import AnalysisError
from repro.core.fourvalue import EPPValue
from repro.core.rules_vec import (
    carve_scratch,
    gather_planes,
    compact_rule_for,
    gather_rule_for,
    row_scratch_cells,
)
from repro.core.schedule import cone_cluster_order
from repro.netlist.circuit import PADDABLE_CODES, CompiledCircuit
from repro.netlist.gate_types import CODE_BUF, CODE_NOT

__all__ = [
    "BatchPlan",
    "BatchEPPBackend",
    "CompactChunkPlan",
    "default_batch_size",
    "empty_packed",
    "packed_in_order",
    "segment_index",
]

#: Target footprint of one chunk's state (bytes).  Wide chunks amortize
#: per-group dispatch; the per-group operands (a handful of ``(g, batch)``
#: rows) stay cache-resident regardless of this total.
#: :func:`default_batch_size` sizes the default width so a full-circuit
#: ``(n, 4, batch)`` matrix would meet it, and ``_chunk_spans`` checks
#: each span's union rows against it; a sweep needs only the chunk's
#: live slots (``n_slots x width x 33`` bytes of state and mask), its
#: ``n_present_sinks x width x 8``-byte sink plane and ``n_scratch x
#: width x 8`` bytes of kernel scratch, and every bulk query holds one
#: arena and one scratch sized to its largest chunks, so a call's sweep
#: bytes are known from its chunk plans before the first sweep.
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


def packed_in_order(parts: list, rows: list, n: int) -> tuple:
    """One packed tuple in input order from the packed parts of a call.

    ``parts[i]`` is a :meth:`BatchEPPBackend._pack` tuple whose sites
    sit at the input positions ``rows[i]`` (a slice or an index array);
    together the rows cover ``0 .. n - 1`` once.  Each part is written
    straight into its input rows — per-site columns scatter, and its
    pair segments land at ``segment_index(starts[rows[i]], counts)``,
    with ``starts`` taken from the input-order counts — and dropped from
    ``parts`` once written, so the call never holds its pairs twice.
    """
    if n == 0:
        return empty_packed()
    counts = np.empty(n, dtype=np.intp)
    for part, at in zip(parts, rows):
        counts[at] = part[2]
    stops = np.cumsum(counts)
    starts = stops - counts
    p_sens = np.empty(n)
    cone_sizes = np.empty(n, dtype=np.intp)
    sink_pos = np.empty(int(stops[-1]), dtype=np.intp)
    values = np.empty((int(stops[-1]), 4))
    for index, at in enumerate(rows):
        part_p, part_cones, part_counts, part_sinks, part_values = parts[index]
        parts[index] = None
        p_sens[at] = part_p
        cone_sizes[at] = part_cones
        pairs = segment_index(starts[at], part_counts)
        sink_pos[pairs] = part_sinks
        values[pairs] = part_values
    return p_sens, cone_sizes, counts, sink_pos, values


def _buckets(levels: np.ndarray, n_levels: int) -> tuple:
    """``(order, bounds)``: the positions of ``levels`` sorted stably by
    level, and the run of level ``i`` as ``order[bounds[i]:bounds[i + 1]]``."""
    order = np.argsort(levels, kind="stable")
    return order, np.searchsorted(levels[order], np.arange(n_levels + 1))


class _Group:
    """One rectangular gate block: same level, gate code and arity."""

    __slots__ = (
        "out_ids", "fanin", "rule", "compact_rule", "cell_factor",
        "scratch_row",
    )

    def __init__(self, out_ids: np.ndarray, fanin: np.ndarray, rule,
                 compact_rule, cell_factor: int, scratch_row: int):
        self.out_ids = out_ids  # (g,)
        self.fanin = fanin  # (g, k)
        self.rule = rule
        self.compact_rule = compact_rule
        self.cell_factor = cell_factor
        #: Float64 scratch cells the row kernel carves per active row and
        #: column (``rules_vec.row_scratch_cells`` of one row).
        self.scratch_row = scratch_row


#: Codes with closed-form kernels: the paddable families
#: (``CompiledCircuit.level_gate_groups``) plus NOT and BUF.  Everything
#: else runs the generic truth-table kernel, whose per-cell cost dwarfs
#: the compacted gather.
_CLOSED_FORM_CODES = PADDABLE_CODES | frozenset((CODE_NOT, CODE_BUF))

#: The ``pa`` and ``pā`` plane offsets a sink capture gathers, as a column.
_ERROR_PLANES = np.asarray(((0,), (1,)), dtype=np.intp)


def _inject(state, mask, slots, cols) -> None:
    """The error site carries the erroneous value with certainty: 1(a) at
    each ``(slots[i], cols[i])``, on-path."""
    state[slots, :, cols] = (1.0, 0.0, 0.0, 0.0)
    mask[slots, cols] = True


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
    level L + 1 on, never within L).  Each row takes its whole state
    from one writer as it goes live: a row that a group of that level
    writes takes it from the group, and every other row — inputs,
    off-cone fanins, rows nothing writes — is seeded with its SP
    constants.  A site is such a row: it goes live at the first level
    that reads or writes it (at the first swept level if none does),
    where its columns get their 1(a) — after the level's groups when
    one of them writes the site's row.  Only the referenced sentinels — and, in the packed query's plans, the present
    sinks, which ``_pack`` reads after the sweep — are *pinned* to slots
    ``0 .. len(pinned_nodes) - 1`` for the whole sweep.  Every sink row
    is captured into the sweep's sink plane once it is final: a
    recycled sink at the end of the level that writes it (or the level
    it goes live at, if nothing writes it), a pinned one at the end of
    the last level.  Every gate-group index array is already translated
    into slot space, so the kernels of :mod:`repro.core.rules_vec` index
    the small matrix unchanged.  The layout is pure indexing: each
    computed cell runs exactly the ops a dense sweep over the full
    matrix runs, so compacted results are bit-identical to it.

    Attributes
    ----------
    n_rows:
        The union size — rows the chunk touches.  ``_chunk_spans``'
        memory check and ``sweep_stats["compact_rows"]`` read it.
    n_slots:
        The compacted state matrix's physical row count: the pinned rows
        plus the most recycled rows live at one level, ``<= n_rows``.
    n_scratch:
        Float64 cells of sweep scratch per chunk column: the most that
        one row-tier group's kernel (``rules_vec.row_scratch_cells``,
        counted as if every active group ran the row tier) or one level's
        sink capture (two ``(sinks, s)`` planes) carves at once.
    pinned_nodes:
        Global node ids of the pinned rows, ascending; slot ``j`` holds
        ``pinned_nodes[j]``.
    levels:
        One :class:`_SweptLevel` per swept level, in sweep order (one
        empty level when the chunk's sites leave no level to sweep).
    sink_positions:
        Positions into ``BatchPlan.sink_ids`` of the observable sinks
        present in the matrix, ascending — the sink plane's rows.
        Absent sinks are off-path for every column by construction, so
        the sink-pair reduction over the present subset selects exactly
        the pairs a reduction over every sink selects, in the same order.
    sink_slots:
        The pinned slots of the present sinks, aligned with
        ``sink_positions``, in a packed-query plan; ``None`` in a
        column-query plan, whose sinks recycle their slots.
    """

    __slots__ = (
        "n_rows", "n_slots", "n_scratch", "pinned_nodes", "levels",
        "sink_positions", "sink_slots",
    )


def _check_slots(plan: CompactChunkPlan) -> None:
    """Raise :class:`AnalysisError` unless every slot index ``plan``'s
    levels hold — seed, site, group output and fanin, written site, sink
    capture and retire — lies in ``[0, plan.n_slots)``.

    The row kernels and the sink capture gather with ``np.take(...,
    mode="clip")``, which clamps an out-of-range index where a fancy
    gather raises ``IndexError``; this check, once per plan, keeps that
    bound.
    """
    arrays = []
    for level in plan.levels:
        arrays += [level.seed_slots, level.site_slots,
                   level.written_site_slots, level.sink_slots,
                   level.retire_slots]
        for _, out_slots, fanin, _ in level.groups:
            arrays += [out_slots, fanin.ravel()]
    slots = np.concatenate(arrays)
    if slots.size and not (0 <= slots.min() and slots.max() < plan.n_slots):
        raise AnalysisError(
            f"chunk plan indexes slots {slots.min()}..{slots.max()}, "
            f"outside its {plan.n_slots} slots"
        )


class _SweptLevel(NamedTuple):
    """One swept level of a :class:`CompactChunkPlan`, in slot space.

    Every row going live at a level gets its state from exactly one
    writer: the rows no group of the level writes are seeded, and every
    other row takes its whole state from the group that writes it.  The
    sweep runs a level in field order: it seeds ``seed_slots`` with the
    SP constants of ``seed_nodes`` (the rows going live here that no
    group of this level writes — inputs, off-cone fanins, rows nothing
    writes, and on the first level the pinned rows nothing writes) and
    clears their mask rows, injects 1(a) at ``(site_slots[i],
    site_cols[i])`` for the chunk columns whose site goes live here
    unwritten, runs ``groups`` — each ``(group, out_slots, fanin_slots,
    out_nodes)``: the plan's :class:`_Group` (kernel dispatch) with its
    active rows' output/fanin indices in slot space and the output rows'
    global ids — injects 1(a) at ``(written_site_slots[i],
    written_site_cols[i])`` for the columns whose site row a group of
    this level wrote, captures the final sink rows ``sink_slots`` into
    the sink plane's rows ``sink_rows``, and adds the mask rows of
    ``retire_slots`` to the cone counts: the written or site rows whose
    last reader is at this level, which free their slots after it.
    """

    seed_slots: np.ndarray
    seed_nodes: np.ndarray
    site_slots: np.ndarray
    site_cols: np.ndarray
    groups: list
    written_site_slots: np.ndarray
    written_site_cols: np.ndarray
    sink_slots: np.ndarray
    sink_rows: np.ndarray
    retire_slots: np.ndarray


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
        for level, code, outs, fins, width in compiled.level_gate_groups():
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
                    row_scratch_cells(code, 1, width, 1),
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

    def compact_chunk_plan(self, site_ids: np.ndarray,
                           packed: bool) -> CompactChunkPlan:
        """The compacted-row plan for one chunk of sites.

        One vectorized forward-reachability pass over the level groups
        and one slot scan over the swept levels.  ``packed`` builds the
        packed query's plan, which pins the present sinks; the column
        query's plan (``packed=False``) pins only the sentinels.  Both
        cover the same rows, so ``n_rows`` — and the chunk boundaries
        that read it — do not depend on the query.  Nothing is memoized:
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
        if not swept:
            # Sites on the top level leave no level to sweep; one empty
            # level still seeds, captures and retires their rows.
            empty = np.empty(0, dtype=np.intp)
            swept.append(([], empty, empty))
        # Live ranges.  Levels ascend, so a forward pass of plain
        # assignments leaves each row's last level and the level that
        # writes it, and a backward pass its first; a row's own level is
        # below every reader's.
        first = np.full(total, -1, dtype=np.intp)
        last = np.empty(total, dtype=np.intp)
        wrote = np.full(total, -1, dtype=np.intp)
        for index, (_, outs, touched) in enumerate(swept):
            last[touched] = index
            wrote[outs] = index
        for index in range(len(swept) - 1, -1, -1):
            first[swept[index][2]] = index
        # A site nothing reads or writes lives for the first level only.
        untouched = site_ids[first[site_ids] < 0]
        first[untouched] = 0
        last[untouched] = 0
        needed = first >= 0
        sink_positions = np.nonzero(needed[self.sink_ids])[0]
        sinks = self.sink_ids[sink_positions]
        pinned = np.zeros(total, dtype=bool)
        pinned[self.n:] = needed[self.n:]
        if packed:
            pinned[sinks] = True
            final = np.full(len(sinks), len(swept) - 1, dtype=np.intp)
        else:
            # A recycled sink row is final once the level that writes it
            # has run, or as it goes live if nothing writes it.
            final = np.where(wrote[sinks] >= 0, wrote[sinks], first[sinks])
        pinned_nodes = np.nonzero(pinned)[0]
        slot_of = np.zeros(total, dtype=np.intp)
        slot_of[pinned_nodes] = np.arange(len(pinned_nodes), dtype=np.intp)
        # Written and site rows are the only ones whose mask rows can
        # hold an on-path cell, so only theirs are counted as they retire.
        counted = wrote >= 0
        counted[site_ids] = True
        # The recycled rows grouped by the level they go live at and by
        # the level after which they retire; the chunk columns by the
        # level their site goes live at; the present sinks by the level
        # they are captured at.
        recycled = np.nonzero(needed & ~pinned)[0]
        born, born_at = _buckets(first[recycled], len(swept))
        born = recycled[born]
        dying, dying_at = _buckets(last[recycled], len(swept))
        dying = recycled[dying]
        columns, columns_at = _buckets(first[site_ids], len(swept))
        captured, captured_at = _buckets(final, len(swept))
        # The slot scan, once per level: live rows take freed slots
        # (most recently freed first) before fresh ones, and a level's
        # dying rows free theirs only after the level has run.
        free = np.empty(0, dtype=np.intp)
        n_slots = len(pinned_nodes)
        n_scratch = 0
        levels = []
        for index, (entries, _, _) in enumerate(swept):
            born_here = born[born_at[index]:born_at[index + 1]]
            reused = min(len(born_here), len(free))
            fresh = len(born_here) - reused
            born_slots = np.concatenate((
                free[len(free) - reused:],
                np.arange(n_slots, n_slots + fresh, dtype=np.intp),
            ))
            free = free[:len(free) - reused]
            n_slots += fresh
            slot_of[born_here] = born_slots
            # A row that a group of this level writes goes live here and
            # takes its whole state from that group, so it is not seeded;
            # the pinned rows nothing writes are seeded with the first level.
            seed_nodes = born_here[wrote[born_here] != index]
            if index == 0:
                seed_nodes = np.concatenate(
                    (pinned_nodes[wrote[pinned_nodes] < 0], seed_nodes)
                )
            site_cols = columns[columns_at[index]:columns_at[index + 1]]
            written = wrote[site_ids[site_cols]] == index
            written_cols = site_cols[written]
            site_cols = site_cols[~written]
            sink_rows = captured[captured_at[index]:captured_at[index + 1]]
            groups = [
                (group, slot_of[out_ids], slot_of[fanin], out_ids)
                for group, out_ids, fanin in entries
            ]
            # The level's largest row kernel, or _survival's two planes.
            n_scratch = max(
                [n_scratch, 2 * len(sink_rows)]
                + [group.scratch_row * len(out_ids)
                   for group, out_ids, _ in entries]
            )
            retiring = dying[dying_at[index]:dying_at[index + 1]]
            retire_slots = slot_of[retiring]
            free = np.concatenate((free, retire_slots))
            levels.append(_SweptLevel(
                slot_of[seed_nodes], seed_nodes, slot_of[site_ids[site_cols]],
                site_cols, groups, slot_of[site_ids[written_cols]],
                written_cols, slot_of[sinks[sink_rows]], sink_rows,
                retire_slots[counted[retiring]],
            ))
        plan = CompactChunkPlan()
        plan.n_rows = int(needed.sum())
        plan.n_slots = n_slots
        plan.n_scratch = n_scratch
        plan.pinned_nodes = pinned_nodes
        plan.levels = levels
        plan.sink_positions = sink_positions
        plan.sink_slots = slot_of[sinks] if packed else None
        _check_slots(plan)
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
        #: across sweeps so the hot path never re-faults fresh pages (the
        #: kernels' temporaries get the same from ``_scratch``, below).
        #: Sized once per bulk call for its largest chunk, and kept while
        #: it fits.  Every row a sweep holds gets its whole state and
        #: mask row from one writer as it goes live — its seed or the
        #: group that writes it — so stale content between sweeps is
        #: harmless.
        self._arena: list[np.ndarray] | None = None
        #: The flat float64 scratch beside the arena: every row-tier
        #: kernel carves its gathers, plane temporaries and result from
        #: it, and every sink capture its two survival planes, so no
        #: group allocates.  Sized and kept like the arena, for the
        #: largest ``n_scratch x width`` of a call's chunk plans.  Each
        #: kernel writes every scratch cell before reading it, so stale
        #: content is harmless too, and no view of it outlives its group.
        self._scratch: np.ndarray | None = None

    def _ensure_const(self) -> None:
        """The ``(n + 2, 4)`` per-node off-path constants: each seeded
        slot's state, and the off-path cells a group writes."""
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
        s)`` mask views out of the arena (sized by :meth:`_swept_chunks`),
        allocates the ``(n_present_sinks, s)`` sink plane, and runs the
        chunk plan ``cplan`` level by level, every row-tier kernel, blend
        and sink capture working in views of the scratch sized beside
        the arena.  Each row going live at a level gets its whole state
        and mask row from exactly one writer (a recycled slot still
        holds its previous row): the rows no group of the level writes
        are seeded with their off-path constants and their mask rows
        cleared, and the sites among them get their 1(a); the level's
        active groups run with every index array pre-translated to slot
        space, each writing its output rows whole
        (:meth:`_run_compact_groups`); the sites whose rows a group just
        wrote get their 1(a); the sink rows that are final by then are
        captured into the sink plane as survival factors
        (:meth:`_survival`); and the slots whose rows were last read at
        this level add their mask rows to the per-column cone counts
        before they can be reused.  The pinned rows nothing writes are
        seeded with the first level, and every pinned row is counted at
        the end.
        Per computed cell the kernels run the same elementwise IEEE ops
        as a dense sweep over the full ``(n + 2, 4, s)`` matrix, so the
        results are bit-identical to it.

        Returns ``(state, mask, layout)``: the four-valued state matrix,
        the on-path membership bitmask, and the ``(sink_slots,
        sink_positions, survive, cones)`` readout of the layout — the
        plan's pinned sink slots (``None`` in a column-query plan) and
        sink positions, the sink plane in ``sink_positions`` order, and
        the per-column count of on-path rows (cone size plus the site),
        accumulated as slots retire because a recycled slot's mask no
        longer holds its row.
        """
        s = len(site_ids)
        self._ensure_const()
        const = self._const  # (n + 2, 4) off-path constants by node id
        scratch = self._scratch
        cells = cplan.n_slots * s
        state = self._arena[0][:4 * cells].reshape(cplan.n_slots, 4, s)
        mask = self._arena[1][:cells].reshape(cplan.n_slots, s)
        n_sinks = len(cplan.sink_positions)
        survive = np.empty((n_sinks, s))
        cones = np.zeros(s, dtype=np.intp)

        stats = self.sweep_stats
        stats["sweeps"] += 1
        stats["compact_rows"] += cplan.n_rows
        stats["compact_slots"] += cplan.n_slots
        cells = self._cells
        for level in cplan.levels:
            state[level.seed_slots] = const[level.seed_nodes][:, :, None]
            mask[level.seed_slots] = False
            _inject(state, mask, level.site_slots, level.site_cols)
            self._run_compact_groups(state, mask, level.groups, const,
                                     cells, scratch)
            if level.written_site_slots.size:
                _inject(state, mask, level.written_site_slots,
                        level.written_site_cols)
            if level.sink_slots.size:
                survive[level.sink_rows] = self._survival(
                    state, mask, level.sink_slots, scratch
                )
            if level.retire_slots.size:
                cones += mask[level.retire_slots].sum(axis=0)
        cones += mask[:len(cplan.pinned_nodes)].sum(axis=0)
        layout = (cplan.sink_slots, cplan.sink_positions, survive, cones)
        return state, mask, layout

    def _run_compact_groups(self, state, mask, groups, const, cells,
                            scratch):
        """Run one level's active groups of a compacted sweep in place.

        Each group is its output rows' one writer: it sets their whole
        state and mask rows.  The row tier computes the group's ``(r, 4,
        s)`` result in ``scratch`` and scatters it whole, blended with
        the rows' SP constants in its off-path cells; the cell tier writes
        the rows' SP constants and mask, then scatters its on-path cells.
        """
        stats = self.sweep_stats
        for group, out_ids, fanin, out_nodes in groups:
            out_mask = mask[fanin].any(axis=1)  # (r, s)
            n_on = int(np.count_nonzero(out_mask))
            stats["cells_on"] += n_on
            stats["cells_total"] += out_mask.size
            if cells != "off" and n_on < out_mask.size and (
                cells == "on" or n_on * group.cell_factor < out_mask.size
            ):
                # Cell-compacted tier: even inside active rows only a few
                # columns are on-path on clustered chunks, so gather
                # exactly those (row, column) cells, compute them as one
                # (m, 4) block and scatter it over the rows' constants.
                on_rows, on_cols = np.nonzero(out_mask)
                cell_values = group.compact_rule(
                    state, fanin[on_rows], on_cols
                )  # (m, 4)
                state[out_ids] = const[out_nodes][:, :, None]
                mask[out_ids] = out_mask
                state[out_ids[on_rows], :, on_cols] = cell_values
                stats["groups_cell"] += 1
                stats["cells_computed"] += n_on
                continue
            stats["groups_row"] += 1
            stats["cells_computed"] += out_mask.size
            result = group.rule(state, fanin, scratch)  # (r, 4, s)
            if n_on < out_mask.size:
                # The np.where blend, in place: off-path cells take their
                # row's SP constants.
                np.copyto(result, const[out_nodes][:, :, None],
                          where=~out_mask[:, None, :])
            state[out_ids] = result
            mask[out_ids] = out_mask

    def release_buffers(self) -> None:
        """Free the off-path constants, the sweep arena and the kernel
        scratch.  All are rebuilt lazily on the next sweep, so this is
        always safe to call between analyses on long-lived
        engines/analyzers."""
        self._const = None
        self._arena = None
        self._scratch = None

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

    def _chunk_spans(self, ids: np.ndarray, packed: bool) -> list[tuple]:
        """The ``(start, stop, cplan)`` spans one bulk call sweeps, in
        order, each with the chunk plan of ``ids[start:stop]`` for the
        packed (``packed=True``) or the column query.

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
            cplan = self.plan.compact_chunk_plan(ids[start:stop], packed)
            while (
                stop - start > self.batch_size
                and cplan.n_rows * 32 * (stop - start) > _STATE_BYTES_TARGET
            ):
                stop = start + max(self.batch_size, (stop - start) // 2)
                cplan = self.plan.compact_chunk_plan(ids[start:stop], packed)
            spans.append((start, stop, cplan))
            start = stop
        self.sweep_stats["chunks"] += len(spans)
        return spans

    def _swept_chunks(self, site_ids: Sequence[int], packed: bool):
        """Yield ``(rows, part)`` per swept chunk of one bulk call over
        ``site_ids``: the chunk's reduced per-site arrays (:meth:`_pack`'s
        tuple when ``packed``, else :meth:`_reduce_columns`') and the
        input positions of its sites, a slice or an index array.

        The one chunk driver of every bulk query.  It cone-clusters the
        sites (:meth:`_schedule_order`), splits them with
        :meth:`_chunk_spans`, sizes the arena (``max(n_slots x width)``
        cells) and the kernel scratch (``max(n_scratch x width)``) once
        for the call, and sweeps each chunk in the caller's thread on
        them with the span's chunk plan, reducing the sweep before the
        next one overwrites the arena.
        """
        ids = np.asarray(site_ids, dtype=np.intp)
        order = self._schedule_order(ids)
        if order is not None:
            ids = ids[order]
        spans = self._chunk_spans(ids, packed)
        if not spans:
            return
        cells = max(cplan.n_slots * (stop - start)
                    for start, stop, cplan in spans)
        if self._arena is None or self._arena[1].size < cells:
            # Drop an arena too small before allocating its successor.
            self._arena = None
            self._arena = [np.empty(4 * cells), np.empty(cells, dtype=bool)]
        scratch = max(cplan.n_scratch * (stop - start)
                      for start, stop, cplan in spans)
        if self._scratch is None or self._scratch.size < scratch:
            self._scratch = None
            self._scratch = np.empty(scratch)
        reduce = self._pack if packed else self._reduce_columns
        for start, stop, cplan in spans:
            rows = slice(start, stop) if order is None else order[start:stop]
            yield rows, reduce(*self._sweep(ids[start:stop], cplan))

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
        call's counters once.  Each chunk's columns land in their input
        rows as it is reduced."""
        p_sens = np.empty(len(site_ids))
        cone_sizes = np.empty(len(site_ids), dtype=np.intp)
        for rows, (p, cones) in self._swept_chunks(site_ids, packed=False):
            p_sens[rows] = p
            cone_sizes[rows] = cones
        return p_sens, cone_sizes

    @staticmethod
    def _survival(state, mask, slots, scratch=None) -> np.ndarray:
        """The ``(len(slots), s)`` survival factors of the sink rows
        ``slots``: ``1 - min(max(pa, 0) + max(pā, 0), 1)`` in each
        on-path cell and an exact 1.0 in each off-path one — what a sink
        row contributes to the ``P_sensitized`` product.  Computed in two
        planes carved from ``scratch`` (fresh ones when ``None``); the
        result is the first, valid until the scratch is next written."""
        (planes,) = carve_scratch(scratch, (2, len(slots), state.shape[2]))
        gather_planes(state, 4 * slots + _ERROR_PLANES, planes)
        error, pa_bar = planes
        np.maximum(error, 0.0, out=error)
        error += np.maximum(pa_bar, 0.0, out=pa_bar)
        np.minimum(error, 1.0, out=error)
        np.subtract(1.0, error, out=error)
        np.copyto(error, 1.0, where=~mask[slots])
        return error

    @staticmethod
    def _reduce_columns(state, mask, layout) -> tuple:
        """``(p_sensitized, cone_sizes)`` of one chunk's sweep — the one
        ``P_sensitized`` reduction, shared by both bulk queries.

        ``P_sensitized = 1 - prod(1 - min(max(pa, 0) + max(pā, 0), 1))``
        over each column's on-path sinks, with every off-path sink
        contributing an exact factor 1.0: the product of the sweep's
        sink plane (:meth:`_survival` per sink row) down the present
        sinks in ``layout`` order, the order :meth:`_pack` lists a
        site's pairs in, so it equals a per-site product over the packed
        pairs bit for bit.  Cone sizes are the counts the sweep
        accumulated, less the site itself.
        """
        _, _, survive, cones = layout
        return 1.0 - np.multiply.reduce(survive, axis=0), cones - 1

    def _pack(self, state, mask, layout) -> tuple:
        """Reduce one chunk's sweep to compact per-site numeric arrays.

        Returns ``(p_sens, cone_sizes, counts, sink_pos, values)`` aligned
        with the chunk: the two columns of :meth:`_reduce_columns`,
        ``counts[i]`` on-path (site, sink) pairs per site, ``sink_pos``
        indices into ``plan.sink_ids`` and ``values`` their clamped
        ``(m, 4)`` four-valued vectors (``EPPValue.clamped`` in bulk).
        ``layout``'s ``(sink_slots, sink_positions)`` translate the
        packed plan's pinned sinks: selecting over the present subset
        selects the same pairs in the same order as selecting over every
        sink — absent sinks are off-path in every column — so the packed
        layout does not depend on the chunk's slot layout.  This tuple
        of plain arrays is also the wire format the sharded driver
        (:mod:`repro.core.epp_shard`) ships across the process boundary —
        flat buffers, no per-object overhead.
        """
        p_sens, cone_sizes = self._reduce_columns(state, mask, layout)
        sink_slots, sink_positions, _, _ = layout
        sink_mask = mask[sink_slots].T  # (s, ns)
        # Site-major selection of every on-path (site, sink) pair: the
        # boolean pick over (s, ns, ...) walks sites first, sinks second.
        values = state[sink_slots].transpose(2, 0, 1)[sink_mask]  # (m, 4)
        np.maximum(values, 0.0, out=values)
        sink_pos = sink_positions[np.nonzero(sink_mask)[1]]
        return p_sens, cone_sizes, sink_mask.sum(axis=1), sink_pos, values

    def pack_sites(self, site_ids: Sequence[int]) -> tuple:
        """Compact numeric results for many sites, in input order.

        What ``EPPEngine.analyze`` materializes into per-site results
        (:meth:`materialize`) and a sharded worker returns for a packed
        query; ``snapshot`` and ``analyze_delta`` read only the columns
        (:meth:`analyze_sites`).  Sweeps the sites through the same
        driver as :meth:`analyze_sites` and writes each chunk's
        ``_pack`` tuple straight into one input-order tuple
        (:func:`packed_in_order`).
        """
        rows, parts = [], []
        for chunk_rows, part in self._swept_chunks(site_ids, packed=True):
            rows.append(chunk_rows)
            parts.append(part)
        return packed_in_order(parts, rows, len(site_ids))

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
