"""Scalar vs vector EPP backend equivalence (golden 1e-9 agreement).

The scalar engine is the reference oracle; the batched NumPy backend must
reproduce its ``P_sensitized``, per-sink four-valued vectors and cone
sizes to 1e-9 on every circuit and every gate type (including MUX/MAJ via
the vectorized truth-table kernel).
"""

import os
import subprocess
import sys
from collections import Counter

import pytest

np = pytest.importorskip("numpy")

from repro.core import epp_batch, rules_vec
from repro.core.config import BACKENDS, AnalysisConfig
from repro.core.epp import EPPEngine
from repro.errors import AnalysisError
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GATE_CODES, GateType
from repro.netlist.generate import generate_iscas, random_combinational
from repro.netlist.library import c17, s27

from tests.helpers import (
    dense_backend,
    live_peak,
    reference_p_sensitized,
    reference_xor_vec,
    site_slot_rewritten,
    slot_history,
    use_dense_backend,
)

TOL = 1e-9


def gate_zoo() -> Circuit:
    """Every combinational gate type, reconvergence, a DFF boundary."""
    circuit = Circuit("zoo")
    for name in ("i0", "i1", "i2", "i3"):
        circuit.add_input(name)
    circuit.add_gate("and2", GateType.AND, ["i0", "i1"])
    circuit.add_gate("and3", GateType.AND, ["i0", "i1", "i2"])
    circuit.add_gate("nand2", GateType.NAND, ["i1", "i2"])
    circuit.add_gate("or2", GateType.OR, ["i2", "i3"])
    circuit.add_gate("nor2", GateType.NOR, ["i0", "i3"])
    circuit.add_gate("xor2", GateType.XOR, ["and2", "or2"])
    circuit.add_gate("xnor2", GateType.XNOR, ["nand2", "nor2"])
    circuit.add_gate("inv", GateType.NOT, ["xor2"])
    circuit.add_gate("buf", GateType.BUF, ["xnor2"])
    circuit.add_gate("mux", GateType.MUX, ["inv", "buf", "and3"])
    circuit.add_gate("maj3", GateType.MAJ, ["mux", "xor2", "i3"])
    circuit.add_gate("maj5", GateType.MAJ, ["mux", "xor2", "nor2", "i0", "i1"])
    circuit.add_dff("q", "xor2")
    circuit.add_gate("fromq", GateType.AND, ["q", "i0"])
    for out in ("mux", "maj3", "maj5", "fromq"):
        circuit.mark_output(out)
    return circuit


def build_circuit(name: str) -> Circuit:
    if name == "zoo":
        return gate_zoo()
    if name == "s27":
        return s27()
    if name == "c17":
        return c17()
    return generate_iscas(name)


def force_vector(engine: EPPEngine, batch_size: int | None = None,
                 cells: str = "auto"):
    """The engine's vector backend with its cell tier forced through the
    backend's private ``_cells`` hook.  The engine caches one backend per
    batch size, so the hook is assigned on every call — a cached backend
    must never keep a previous caller's tier."""
    backend = engine.vector_backend(batch_size=batch_size)
    backend._cells = cells
    return backend


def cone_sorted(engine: EPPEngine) -> list[str]:
    """The default sites in cone-clustered order — the order a sharded
    worker's shard arrives in."""
    from repro.core.schedule import cone_cluster_order

    sites = engine.default_sites()
    ids = [engine._cones.resolve(site) for site in sites]
    return [sites[p] for p in cone_cluster_order(engine.compiled, ids).tolist()]


def assert_backends_agree(circuit: Circuit, batch_size: int | None = None,
                          cells: str = "auto", sites=None,
                          dense: bool = False):
    """Scalar vs vector to 1e-9; ``dense=True`` checks the dense oracle
    against the scalar engine instead of the production sweep."""
    engine = EPPEngine(circuit)
    if dense:
        use_dense_backend(engine, batch_size)
    else:
        force_vector(engine, batch_size, cells)
    if callable(sites):
        sites = sites(engine)
    scalar = engine.analyze(sites=sites, backend="scalar")
    vector = engine.analyze(sites=sites, backend="vector",
                            batch_size=batch_size)
    assert list(scalar) == list(vector)  # same sites, same order
    for site, expected in scalar.items():
        got = vector[site]
        assert got.p_sensitized == pytest.approx(expected.p_sensitized, abs=TOL)
        assert got.cone_size == expected.cone_size
        assert set(got.sink_values) == set(expected.sink_values)
        for sink, value in expected.sink_values.items():
            assert got.sink_values[sink].isclose(value, tolerance=TOL), (
                site, sink, value, got.sink_values[sink])


def assert_bit_equal_to_dense(engine, ids, batch_size=None, cells="auto"):
    """The production sweep's packed arrays and ``p_sensitized_many`` are
    ``np.array_equal`` to the dense oracle's (one input-order chunk);
    returns the production backend."""
    dense = dense_backend(engine, batch_size=len(ids))
    backend = force_vector(engine, batch_size=batch_size, cells=cells)
    for left, right in zip(dense.pack_sites(ids), backend.pack_sites(ids)):
        assert left.dtype == right.dtype
        assert np.array_equal(left, right), cells
    assert np.array_equal(
        dense.p_sensitized_many(ids), backend.p_sensitized_many(ids)
    ), cells
    return backend


class TestBackendEquivalence:
    @pytest.mark.parametrize("circuit_name", ["zoo", "s27", "s953", "s1423"])
    def test_full_analyze_agrees(self, circuit_name):
        assert_backends_agree(build_circuit(circuit_name))

    def test_tiny_batches_chunk_correctly(self):
        """batch_size smaller than the site count exercises the chunk loop
        (including the narrow final chunk) on the real vector kernels."""
        assert_backends_agree(build_circuit("zoo"), batch_size=3)
        assert_backends_agree(build_circuit("s27"), batch_size=4)

    @pytest.mark.slow
    def test_s9234_full_circuit_agrees(self):
        assert_backends_agree(build_circuit("s9234"))

    def test_p_sensitized_many_matches_scalar(self):
        circuit = build_circuit("s953")
        engine = EPPEngine(circuit)
        backend = force_vector(engine)
        sites = engine.default_sites()
        site_ids = [engine._cones.resolve(s) for s in sites]
        batch = backend.p_sensitized_many(site_ids)
        for site, value in zip(sites, batch):
            assert value == pytest.approx(engine.p_sensitized(site), abs=TOL)

    def test_input_and_state_sites_agree(self):
        """Sites on primary inputs and DFF outputs (sources, not gates)."""
        circuit = build_circuit("zoo")
        engine = EPPEngine(circuit)
        force_vector(engine)
        sites = engine.default_sites() + circuit.inputs + circuit.flip_flops
        scalar = engine.analyze(sites=sites, backend="scalar")
        vector = engine.analyze(sites=sites, backend="vector")
        for site in scalar:
            assert vector[site].p_sensitized == pytest.approx(
                scalar[site].p_sensitized, abs=TOL)


class TestSparseSweepEquivalence:
    """The cone-aware sparse sweep is bit-equal to the dense oracle sweep.

    Pruning only skips rows whose fanins are off-path in every column (the
    dense sweep writes their SP constants back unchanged) and the targeted
    scatter writes the same values the ``np.where`` scatter wrote, so the
    agreement here is exact — asserted at 1e-9 against the scalar oracle
    and bit-identical against the dense sweep of ``tests.helpers``.
    """

    @pytest.mark.parametrize("circuit_name", ["zoo", "s27", "s953", "s1423"])
    @pytest.mark.parametrize("order", ["cone", "input"])
    def test_sparse_agrees_with_scalar(self, circuit_name, order):
        """Sites in the caller's order, or already cone-sorted (a sharded
        worker's shard, which the backend sweeps as it arrived)."""
        assert_backends_agree(build_circuit(circuit_name),
                              sites=cone_sorted if order == "cone" else None)

    @pytest.mark.parametrize("circuit_name", ["zoo", "s953"])
    def test_sparse_bit_equal_to_dense(self, circuit_name):
        """Pruning and clustering change *which rows compute*, never their
        values: packed arrays must be bitwise identical, not merely close.
        A chunk as wide as the site list sweeps in input order; 5-site
        chunks are cone-clustered."""
        circuit = build_circuit(circuit_name)
        engine = EPPEngine(circuit)
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        packs = {}
        for batch_size in (len(ids), 5):
            packs[("dense", batch_size)] = dense_backend(
                engine, batch_size
            ).pack_sites(ids)
            packs[("default", batch_size)] = force_vector(
                engine, batch_size
            ).pack_sites(ids)
        reference = packs[("dense", len(ids))]
        for key, packed in packs.items():
            for left, right in zip(reference, packed):
                assert np.array_equal(left, right), key

    def test_mixed_arity_sentinel_groups_prune_correctly(self):
        """The zoo's and2/and3 share one sentinel-padded group; slicing
        active rows must keep the padding columns aligned per row."""
        assert_backends_agree(gate_zoo(), batch_size=2)
        engine = EPPEngine(gate_zoo())
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        assert_bit_equal_to_dense(engine, ids, batch_size=2)

    #: Every cell tier the sweep can run, forced explicitly: row kernels
    #: only, the cell-compacted kernels everywhere (closed forms and
    #: MUX/MAJ truth tables via the zoo, sentinel-padded mixed arities
    #: via the shared and2/and3 group), and the per-group cost model.
    CELL_TIERS = ("on", "off", "auto")

    @pytest.mark.parametrize("circuit_name", ["zoo", "s27", "s953"])
    def test_cell_compacted_bit_equal_to_dense(self, circuit_name):
        """The compacted kernels compute the same elementwise IEEE ops per
        on-path cell as the dense kernels, so every forced tier must
        produce *bitwise* identical packed arrays to the dense oracle —
        np.array_equal, not a tolerance."""
        circuit = build_circuit(circuit_name)
        engine = EPPEngine(circuit)
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        reference = dense_backend(engine, batch_size=len(ids)).pack_sites(ids)
        for cells in self.CELL_TIERS:
            backend = force_vector(engine, batch_size=5, cells=cells)
            packed = backend.pack_sites(ids)
            for left, right in zip(reference, packed):
                assert np.array_equal(left, right), cells

    def test_cell_tier_engages_and_computes_fewer_cells(self):
        """The fast-suite smoke for the compacted code path: forcing
        cells="on" routes partially-on-path groups through the compacted
        kernels, and the stats show fewer cells computed than spanned."""
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=16, cells="on")
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        backend.analyze_sites(ids)
        stats = backend.sweep_stats
        assert stats["groups_cell"] > 0
        assert 0 < stats["cells_computed"] < stats["cells_total"]
        assert stats["cells_on"] == stats["cells_computed"]

    def test_auto_cost_model_mixes_tiers(self):
        """cells="auto" must route dense-ish groups to the row kernels and
        sparse groups to the compacted kernels on the same sweep set."""
        engine = EPPEngine(build_circuit("s1423"))
        backend = force_vector(engine, batch_size=64, cells="auto")
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        backend.analyze_sites(ids)
        stats = backend.sweep_stats
        assert stats["groups_cell"] > 0
        assert stats["groups_row"] > 0
        assert (
            stats["cells_on"]
            <= stats["cells_computed"]
            < stats["cells_total"]
        )

    def test_dirty_row_reset_across_width_changes(self):
        """Buffer reuse across sweeps of different widths: the reused
        compacted arenas must leave no stale cells from a previous wider
        sweep."""
        engine = EPPEngine(build_circuit("s953"))
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        backend = force_vector(engine, batch_size=32, cells="on")
        first = backend.pack_sites(ids)
        narrow = backend.pack_sites(ids[:7])  # narrow sweep between full ones
        again = backend.pack_sites(ids)
        for left, right in zip(first, again):
            assert np.array_equal(left, right)
        fresh = force_vector(
            EPPEngine(build_circuit("s953")), batch_size=32, cells="on",
        ).pack_sites(ids[:7])
        for left, right in zip(fresh, narrow):
            assert np.array_equal(left, right)

    @pytest.mark.parametrize("batch_size", [None, 3])
    def test_sites_inside_other_sites_cones(self, batch_size):
        """A chunk mixing a site with members of its own fanout cone: the
        downstream sites' columns must keep their injected 1(a) while the
        upstream site's column propagates through those same rows."""
        circuit = Circuit("chain")
        circuit.add_input("i0")
        circuit.add_input("i1")
        previous = "i0"
        for index in range(8):
            name = f"n{index}"
            circuit.add_gate(name, GateType.AND if index % 2 else GateType.OR,
                             [previous, "i1"])
            previous = name
        circuit.mark_output(previous)
        for sites in (None, lambda engine: engine.default_sites()[::-1]):
            assert_backends_agree(circuit, batch_size=batch_size, sites=sites)


def two_block_circuit() -> Circuit:
    """Two independent chains with disjoint fanout cones.

    Block A (3 gates) and block B (16 gates) share no paths, so a sweep
    over A-sites and a sweep over B-sites touch disjoint state rows —
    the layout that exposes stale buffer state: a reset that trusted
    A's rows could never clean corruption left in B's.
    """
    circuit = Circuit("blocks")
    circuit.add_input("ia")
    circuit.add_input("ib")
    circuit.add_input("sel")
    previous = "ia"
    for index in range(3):
        name = f"a{index}"
        circuit.add_gate(name, GateType.AND, [previous, "sel"])
        previous = name
    circuit.mark_output(previous)
    previous = "ib"
    for index in range(16):
        name = f"b{index}"
        circuit.add_gate(name, GateType.OR, [previous, "sel"])
        previous = name
    circuit.mark_output(previous)
    return circuit


class TestCompactedRows:
    """Sweeps run on per-chunk union-of-cones state matrices.

    Bit-identity against the dense oracle is covered by the cell-tier
    pins above and the hypothesis fuzzer; these tests pin the layout
    mechanics — the compacted path really engages on one arena, never
    allocates a full-width matrix, handles degenerate site lists, and a
    bulk call builds each chunk plan once.
    """

    @pytest.mark.parametrize("query", ["analyze_sites", "pack_sites"])
    def test_compact_sweeps_engage_without_template(self, query):
        """A multi-chunk bulk query sweeps on the calling thread on one
        state arena of ``max(n_slots x width) x 4`` float64s, allocated
        once per call and kept by a second call, and every sweep covers
        strictly fewer rows than the full ``(n + 2)``-row matrix; the
        slots are those of the query's own chunk plans."""
        import threading

        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=16)
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        spans = chunk_spans(backend, ids, packed=query == "pack_sites")
        widths = [len(chunk) for chunk, _ in spans]
        cells = max(plan.n_slots * len(chunk) for chunk, plan in spans)
        swept = []
        sweep = backend._sweep

        def recording(chunk, cplan):
            # The arena in place when each sweep starts: sized before the
            # first one, never grown by a later one.
            swept.append((threading.get_ident(), id(backend._arena[0])))
            return sweep(chunk, cplan)

        backend._sweep = recording
        getattr(backend, query)(ids)
        stats = backend.sweep_stats
        assert stats["sweeps"] == len(widths) > 1
        full_rows = engine.compiled.n + 2
        assert stats["compact_rows"] < stats["sweeps"] * full_rows
        state_arena, mask_arena = backend._arena
        assert state_arena.dtype == np.float64
        assert mask_arena.dtype == bool
        assert state_arena.size == 4 * cells
        assert mask_arena.size == cells
        assert state_arena.size < full_rows * 4 * max(widths)
        assert set(swept) == {(threading.get_ident(), id(state_arena))}
        getattr(backend, query)(ids)  # an arena that fits is kept
        assert backend._arena[0] is state_arena

    def test_auto_rows_compacts_pruned_sweeps(self):
        """Every sweep of the default backend runs on its chunk's
        compacted layout: the counters add up exactly the union rows and
        slots of the call's chunk plans."""
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=16)
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        plans = chunk_plans(backend, ids)
        backend.analyze_sites(ids)
        stats = backend.sweep_stats
        assert stats["sweeps"] == len(plans) > 1
        assert stats["compact_rows"] == sum(plan.n_rows for plan in plans)
        assert stats["compact_slots"] == sum(plan.n_slots for plan in plans)

    def test_empty_site_list(self):
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine)
        assert [len(column) for column in backend.analyze_sites([])] == [0, 0]
        assert len(backend.p_sensitized_many([])) == 0
        packed = backend.pack_sites([])
        assert [len(part) for part in packed] == [0, 0, 0, 0, 0]
        assert backend.sweep_stats["sweeps"] == 0

    @pytest.mark.parametrize("circuit_name", ["zoo", "s27"])
    def test_single_site_chunks(self, circuit_name):
        """batch_size=1: every chunk holds one site, so each compacted
        matrix is exactly one cone (plus read rows and sentinels)."""
        assert_backends_agree(build_circuit(circuit_name), batch_size=1)

    @pytest.mark.parametrize("rows", ["compact", "full"])
    def test_sites_inside_other_sites_cones(self, rows):
        """A chunk mixing a site with members of its own fanout cone must
        keep the downstream columns' injected 1(a) in both row layouts:
        the compacted matrix of the sweep and the full-row matrix of the
        dense oracle."""
        dense = rows == "full"
        circuit = Circuit("chain")
        circuit.add_input("i0")
        circuit.add_input("i1")
        previous = "i0"
        for index in range(8):
            name = f"n{index}"
            circuit.add_gate(name, GateType.AND if index % 2 else GateType.OR,
                             [previous, "i1"])
            previous = name
        circuit.mark_output(previous)
        assert_backends_agree(circuit, batch_size=3, dense=dense)
        assert_backends_agree(circuit, dense=dense)

    def test_out_of_range_slot_raises(self):
        """The row kernels gather with ``np.take(..., mode="clip")``,
        which would clamp a bad index silently, so every plan's slot
        indices are checked when it is built: a plan whose fanin slot
        was corrupted to ``n_slots`` (or to -1) fails the check with
        ``AnalysisError``."""
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine)
        ids = np.asarray(
            [engine._cones.resolve(s) for s in engine.default_sites()[:20]],
            dtype=np.intp,
        )
        for packed in (False, True):
            plan = backend.plan.compact_chunk_plan(ids, packed)
            epp_batch._check_slots(plan)
            level = next(level for level in plan.levels if level.groups)
            fanin = level.groups[0][2]
            original = fanin[0, 0]
            for bad in (plan.n_slots, -1):
                fanin[0, 0] = bad
                with pytest.raises(AnalysisError, match="outside its"):
                    epp_batch._check_slots(plan)
            fanin[0, 0] = original
            epp_batch._check_slots(plan)

    def test_compact_plan_translates_sinks(self):
        """A chunk reaching only some sinks reduces over exactly those,
        mapped back to their global sink positions."""
        circuit = two_block_circuit()
        engine = EPPEngine(circuit)
        backend = force_vector(engine)
        a_ids = np.asarray([engine._cones.resolve("a0")], dtype=np.intp)
        for packed in (False, True):
            cplan = backend.plan.compact_chunk_plan(a_ids, packed)
            # Block A reaches one of the two sinks; block B's rows are
            # absent.
            assert len(cplan.sink_positions) == 1
            assert cplan.n_rows < engine.compiled.n
        packed = backend.pack_sites(a_ids)
        dense = dense_backend(EPPEngine(circuit)).pack_sites(a_ids)
        for left, right in zip(dense, packed):
            assert np.array_equal(left, right)


class TestChunkPlanBuilds:
    """A bulk call builds each chunk plan once, while ``_chunk_spans``
    checks the span's footprint, and sweeps on that plan: the builds are
    the chunks swept plus the oversize candidates the splitter rejected,
    however many chunks the call sweeps."""

    @staticmethod
    def one_call(backend, query, ids, monkeypatch) -> tuple:
        """``(built, swept)`` over one call of ``query``: ``(width,
        plan)`` for every plan ``compact_chunk_plan`` built, and every
        plan a sweep ran on."""
        built, swept = [], []
        build = backend.plan.compact_chunk_plan
        sweep = backend._sweep

        def counting(site_ids, packed):
            cplan = build(site_ids, packed)
            built.append((len(site_ids), cplan))
            return cplan

        def recording(site_ids, cplan):
            swept.append(cplan)
            return sweep(site_ids, cplan)

        monkeypatch.setattr(backend.plan, "compact_chunk_plan", counting)
        backend._sweep = recording
        getattr(backend, query)(ids)
        return built, swept

    @staticmethod
    def assert_built_once(backend, built, swept) -> int:
        """Every swept plan was built for its chunk alone, and every other
        build is a rejected candidate: wider than ``batch_size`` and over
        the footprint target.  Returns the rejected count."""
        rejected = [
            cplan for width, cplan in built
            if width > backend.batch_size
            and cplan.n_rows * 32 * width > epp_batch._STATE_BYTES_TARGET
        ]
        swept_ids = {id(cplan) for cplan in swept}
        assert len(swept_ids) == len(swept) == backend.sweep_stats["chunks"]
        assert swept_ids.isdisjoint(id(cplan) for cplan in rejected)
        assert len(built) == len(swept) + len(rejected)
        return len(rejected)

    @pytest.mark.parametrize("query", ["analyze_sites", "pack_sites"])
    def test_one_build_per_swept_chunk(self, query, monkeypatch):
        """s953's default sites listed 4x at ``batch_size=4``: 283
        chunks and 283 builds, so a call with hundreds of chunks still
        builds each plan once."""
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=4)
        ids = [engine._cones.resolve(s) for s in engine.default_sites()] * 4
        built, swept = self.one_call(backend, query, ids, monkeypatch)
        assert self.assert_built_once(backend, built, swept) == 0
        assert len(swept) == len(built) == 283

    def test_rejected_candidates_add_one_build_each(self, monkeypatch):
        """With a footprint target no candidate wider than ``batch_size``
        meets, each such candidate is built once, rejected and halved to
        ``batch_size``, whose plan is the one swept: every chunk but the
        last (424 sites, 4 wide) had one rejected candidate."""
        monkeypatch.setattr(epp_batch, "_STATE_BYTES_TARGET", 0)
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=4)
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        built, swept = self.one_call(backend, "analyze_sites", ids,
                                     monkeypatch)
        rejected = self.assert_built_once(backend, built, swept)
        assert len(swept) == -(-len(ids) // 4)
        assert rejected == len(swept) - 1 > 0
        assert all(width <= 4 for width, cplan in built
                   if any(cplan is other for other in swept))

    @pytest.mark.slow
    def test_one_build_per_swept_chunk_s9234(self, monkeypatch):
        """s9234's default sites at ``batch_size=8``: 484 chunks, 484
        builds."""
        engine = EPPEngine(generate_iscas("s9234"))
        backend = force_vector(engine, batch_size=8)
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        built, swept = self.one_call(backend, "p_sensitized_many", ids,
                                     monkeypatch)
        assert self.assert_built_once(backend, built, swept) == 0
        assert len(swept) == len(built) == 484


def chunk_spans(backend, ids, packed=False) -> list:
    """``(chunk, plan)`` for each chunk one bulk call of ``backend`` over
    ``ids`` sweeps, in sweep order: the site ids and the compacted chunk
    plan the call sweeps them on, split and built without sweeping —
    the packed query's plans when ``packed``, else the column query's."""
    ids = np.asarray(ids, dtype=np.intp)
    order = backend._schedule_order(ids)
    sweep_ids = ids if order is None else ids[order]
    return [
        (sweep_ids[start:stop], cplan)
        for start, stop, cplan in backend._chunk_spans(sweep_ids, packed)
    ]


def chunk_plans(backend, ids, packed=False) -> list:
    """The compacted chunk plans one bulk call of ``backend`` over
    ``ids`` sweeps, in sweep order, built without sweeping."""
    return [cplan for _, cplan in chunk_spans(backend, ids, packed)]


def dead_chain_circuit() -> Circuit:
    """A live output gate beside an 8-gate chain that reaches no sink.

    Every chain gate reads the shared side input ``i1``, so ``i1`` stays
    live to the last level while each chain row retires one level after
    it is written — the chain's slots recycle."""
    circuit = Circuit("dead_chain")
    for name in ("i0", "i1", "i2"):
        circuit.add_input(name)
    circuit.add_gate("live", GateType.AND, ["i0", "i2"])
    circuit.mark_output("live")
    previous = "i0"
    for index in range(8):
        name = f"n{index}"
        circuit.add_gate(name, GateType.AND if index % 2 else GateType.OR,
                         [previous, "i1"])
        previous = name
    return circuit


def recycled_site_circuit() -> Circuit:
    """A site whose slot a later gate takes.

    Listed as sites ``[z, i, x]``: ``x`` is last read at the first swept
    level (by ``y1``), and ``y2`` — the only row going live at the next
    level — takes ``x``'s freed slot, the one freed last.  ``y2`` is
    on-path for ``x``'s column only, so the row kernels write it
    through the ``np.where`` blend, and no 1(a) of ``x`` may follow it
    into that slot.  ``z`` is a site and a sink on the chunk's minimum
    level, and ``i`` a site on that level nothing reads."""
    circuit = Circuit("recycled_site")
    for name in ("i0", "i1"):
        circuit.add_input(name)
    circuit.add_gate("z", GateType.XOR, ["i0", "i1"])
    circuit.mark_output("z")
    circuit.add_gate("i", GateType.NAND, ["i0", "i1"])
    circuit.add_gate("x", GateType.AND, ["i0", "i1"])
    circuit.add_gate("y1", GateType.OR, ["x", "i0"])
    circuit.add_gate("y2", GateType.NOT, ["y1"])
    circuit.add_gate("y3", GateType.NAND, ["y2", "i1"])
    circuit.mark_output("y3")
    return circuit


def tapped_chain_circuit() -> Circuit:
    """A 6-gate chain whose third gate is also a primary output."""
    circuit = Circuit("tapped_chain")
    circuit.add_input("i0")
    circuit.add_input("i1")
    previous = "i0"
    for index in range(6):
        name = f"n{index}"
        circuit.add_gate(name, GateType.AND if index % 2 else GateType.OR,
                         [previous, "i1"])
        previous = name
    circuit.mark_output("n2")
    circuit.mark_output(previous)
    return circuit


def narrowing_groups_circuit() -> Circuit:
    """One gate group per level, each narrower than the last and of
    another kernel and arity: six AND4 gates, three XOR2 of them, a MAJ3
    of those and a NOT.  Each group's kernel carves its scratch from the
    start of the buffer the wider group before it left its leftovers
    in."""
    circuit = Circuit("narrowing_groups")
    inputs = [f"i{index}" for index in range(4)]
    for name in inputs:
        circuit.add_input(name)
    for index in range(6):
        circuit.add_gate(f"w{index}", GateType.AND,
                         inputs[index % 4:] + inputs[:index % 4])
    for index in range(3):
        circuit.add_gate(f"x{index}", GateType.XOR,
                         [f"w{2 * index}", f"w{2 * index + 1}"])
    circuit.add_gate("m", GateType.MAJ, ["x0", "x1", "x2"])
    circuit.add_gate("n", GateType.NOT, ["m"])
    circuit.mark_output("n")
    return circuit


#: ``(circuit factory, sites)`` of the layouts the live-row plans must
#: get right, each swept as one chunk.
LIVE_ROW_CASES = {
    "recycled_site_slot": (recycled_site_circuit, ["z", "i", "x"]),
    "site_is_sink": (tapped_chain_circuit, ["n0", "n2", "n4"]),
    "min_level_site_unread": (recycled_site_circuit, ["i", "y1"]),
    "same_site_twice": (tapped_chain_circuit, ["n1", "n3", "n1"]),
    "no_sink": (dead_chain_circuit, ["n0", "n2", "n5"]),
    "narrowing_groups": (narrowing_groups_circuit, ["i0", "w0", "x1"]),
    "site_row_written": (tapped_chain_circuit, ["n0", "n3"]),
}


class TestLiveRows:
    """Compacted sweeps hold only live rows: a row's slot is reused once
    its last reader's level has run.  Sites are such rows — a site goes
    live at the first level that reads or writes it and gets its 1(a)
    there, after the level's groups when one of them writes its row —
    and so are the column query's sinks, captured into the sink plane
    once final; only sentinels, and the packed query's sinks, keep
    their slots for the whole sweep.  A row going live takes its whole
    state and mask row from one writer, its seed or the group that
    writes it, and cone sizes are counted as slots retire — every
    result stays bit-equal to the dense oracle's."""

    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize(
        "circuit_name", ["zoo", "s953", "s1423", *LIVE_ROW_CASES]
    )
    def test_plans_pin_only_sentinels_and_packed_sinks(self, circuit_name,
                                                       packed):
        """Column-query plans pin only the sentinel rows they read, and
        packed-query plans add only the present sinks; in both,
        ``n_slots`` is the peak number of rows live at one level,
        recomputed from the plan's levels."""
        if circuit_name in LIVE_ROW_CASES:
            factory, sites = LIVE_ROW_CASES[circuit_name]
            engine = EPPEngine(factory())
            backend = force_vector(engine)
        else:
            engine = EPPEngine(build_circuit(circuit_name))
            sites = engine.default_sites()
            backend = force_vector(engine, batch_size=32)
        ids = [engine._cones.resolve(site) for site in sites]
        n = engine.compiled.n
        sink_ids = np.asarray(engine.compiled.sink_ids, dtype=np.intp)
        for plan in chunk_plans(backend, ids, packed):
            pinned = plan.pinned_nodes
            touched = set().union(*(t for t, _, _ in slot_history(plan)))
            assert set(pinned[pinned >= n].tolist()) <= {n, n + 1} & touched
            present = sink_ids[plan.sink_positions]
            expected = set(present.tolist()) if packed else set()
            assert set(pinned[pinned < n].tolist()) == expected
            if packed:
                assert np.array_equal(pinned[plan.sink_slots], present)
            else:
                assert plan.sink_slots is None
            assert plan.n_slots == live_peak(plan)

    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("circuit_name", ["s27", "c432", "random"])
    def test_every_row_has_one_writer(self, circuit_name, packed):
        """No slot a level's groups write is among that level's seed
        slots, and every row a plan covers is seeded or written by a
        group exactly once, at the level it goes live (the pinned rows
        nothing writes with the first level)."""
        circuit = (random_combinational(8, 120, seed=5)
                   if circuit_name == "random" else build_circuit(circuit_name))
        engine = EPPEngine(circuit)
        backend = force_vector(engine, batch_size=16)
        ids = [engine._cones.resolve(site) for site in engine.default_sites()]
        plans = chunk_plans(backend, ids, packed)
        assert len(plans) > 1 or circuit_name == "s27"
        for plan in plans:
            pinned = set(plan.pinned_nodes.tolist())
            live, writes = set(pinned), Counter()
            for index, (level, (touched, _, _)) in enumerate(
                    zip(plan.levels, slot_history(plan))):
                out_slots = {slot for _, slots, _, _ in level.groups
                             for slot in slots.tolist()}
                assert not out_slots & set(level.seed_slots.tolist())
                seeded = level.seed_nodes.tolist()
                written = [node for *_, nodes in level.groups
                           for node in nodes.tolist()]
                writes.update(seeded + written)
                assert set(seeded + written) - pinned == touched - live
                assert index == 0 or not set(seeded) & pinned
                live |= touched
            assert set(writes.values()) == {1}
            assert set(writes) == live

    @pytest.mark.parametrize("case", sorted(LIVE_ROW_CASES))
    @pytest.mark.parametrize("query", ["analyze_sites", "pack_sites"])
    @pytest.mark.parametrize("cells", ["on", "off", "auto"])
    def test_live_row_cases_bit_equal_to_dense(self, case, query, cells):
        """Each layout of :data:`LIVE_ROW_CASES`, swept as one chunk by
        either query under every cell tier, returns the dense oracle's
        arrays bit for bit."""
        factory, sites = LIVE_ROW_CASES[case]
        engine = EPPEngine(factory())
        ids = np.asarray([engine._cones.resolve(site) for site in sites],
                         dtype=np.intp)
        backend = force_vector(engine, cells=cells)
        (plan,) = chunk_plans(backend, ids, packed=query == "pack_sites")
        first_level = plan.levels[0]
        if case == "recycled_site_slot":
            assert site_slot_rewritten(plan, ids)
        elif case == "site_is_sink":
            assert set(ids.tolist()) & set(engine.compiled.sink_ids)
        elif case == "min_level_site_unread":
            # Injected and retired at the first level, read by nothing.
            assert 0 in first_level.site_cols.tolist()
            assert first_level.site_slots[0] in first_level.retire_slots
        elif case == "same_site_twice":
            assert len(set(ids.tolist())) < len(ids)
        elif case == "site_row_written":
            # n3's group writes its row (n0's column runs through it),
            # so its 1(a) is injected after that level's groups.
            written = [level.written_site_cols.tolist() for level in plan.levels]
            assert [cols for cols in written if cols] == [[1]]
            assert all(1 not in level.site_cols.tolist() for level in plan.levels)
        elif case == "narrowing_groups":
            # (rows, arity) per level, and each group's scratch need
            # below the one before: a stale scratch under every kernel.
            shapes = [[fanin.shape for _, _, fanin, _ in level.groups]
                      for level in plan.levels]
            assert shapes == [[(6, 4)], [(3, 2)], [(1, 3)], [(1, 1)]]
            needs = [group.scratch_row * len(out_slots)
                     for level in plan.levels
                     for group, out_slots, _, _ in level.groups]
            assert needs == sorted(needs, reverse=True)
            assert len(set(needs)) == len(needs)
        else:
            assert len(plan.sink_positions) == 0
        expected = getattr(dense_backend(engine, len(ids)), query)(ids)
        got = getattr(backend, query)(ids)
        assert len(got) == len(expected)
        for left, right in zip(expected, got):
            assert left.dtype == right.dtype
            assert np.array_equal(left, right)

    @pytest.mark.parametrize("circuit_name", ["s953", "s1423"])
    @pytest.mark.parametrize("cells", ["on", "off", "auto"])
    def test_multi_chunk_calls_bit_equal_to_dense(self, circuit_name, cells):
        engine = EPPEngine(build_circuit(circuit_name))
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        plans = chunk_plans(force_vector(engine, batch_size=32), ids)
        assert len(plans) > 1
        assert any(plan.n_slots < plan.n_rows for plan in plans)
        backend = assert_bit_equal_to_dense(engine, ids, 32, cells)
        stats = backend.sweep_stats
        assert stats["compact_slots"] < stats["compact_rows"]

    @pytest.mark.parametrize("cells", ["on", "off", "auto"])
    def test_sites_written_by_other_sites_groups(self, cells):
        """Chain sites inside each other's cones share a chunk: each
        downstream site's pinned slot is written by the group an upstream
        site's column runs through, and the chain's other rows recycle."""
        circuit = Circuit("chain")
        circuit.add_input("i0")
        circuit.add_input("i1")
        previous = "i0"
        for index in range(12):
            name = f"n{index}"
            circuit.add_gate(name, GateType.AND if index % 2 else GateType.OR,
                             [previous, "i1"])
            previous = name
        circuit.mark_output(previous)
        engine = EPPEngine(circuit)
        ids = [engine._cones.resolve(f"n{index}") for index in (0, 3, 4, 9)]
        (plan,) = chunk_plans(force_vector(engine), ids)
        assert plan.n_slots < plan.n_rows
        packed = assert_bit_equal_to_dense(engine, ids, len(ids),
                                           cells).pack_sites(ids)
        assert packed[1].tolist() == [11, 8, 7, 2]

    @pytest.mark.parametrize("cells", ["on", "off", "auto"])
    def test_chunk_reaching_no_sink(self, cells):
        engine = EPPEngine(dead_chain_circuit())
        ids = [engine._cones.resolve(f"n{index}") for index in (0, 2, 5)]
        (plan,) = chunk_plans(force_vector(engine), ids)
        assert len(plan.sink_positions) == 0
        assert plan.n_slots < plan.n_rows
        packed = assert_bit_equal_to_dense(engine, ids, len(ids),
                                           cells).pack_sites(ids)
        assert packed[0].tolist() == [0.0, 0.0, 0.0]
        assert packed[1].tolist() == [7, 5, 2]

    def test_s9234_default_chunks_need_under_half_their_rows(self):
        """Plan only, no sweep: the largest default s9234 chunk of the
        column query needs 1,745 slots for its 6,049 rows (0.29); pinned
        at 0.30."""
        engine = EPPEngine(generate_iscas("s9234"))
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        plans = chunk_plans(engine.vector_backend(), ids)
        assert len(plans) > 1
        largest_slots = max(plan.n_slots for plan in plans)
        largest_rows = max(plan.n_rows for plan in plans)
        assert largest_slots <= 0.30 * largest_rows


_PEAK_SCRIPT = """
from repro.core.epp import EPPEngine
from repro.netlist.generate import generate_iscas

engine = EPPEngine(generate_iscas("s9234"))
ids = [engine._cones.resolve(site) for site in engine.default_sites()]
{call}
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM:")))
"""


def fresh_process_peak_mb(call: str) -> float:
    """VmHWM (MiB) of a fresh process that builds s9234's engine and
    default site ids, then runs the statement ``call``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = (
        os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT.format(call=call)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[1]) / 1024


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc")
class TestPackedPeak:
    def test_s9234_pack_sites_peak_rss(self):
        """A fresh process's s9234 ``pack_sites`` over the default sites
        (every on-path (site, sink) pair) peaks (VmHWM) under 158 MB:
        149.9 MB when each chunk's packed pairs are written once,
        straight into their input-order rows, on a packed-query arena
        that recycles site slots; 166.6 MB when the chunks' parts were
        concatenated and then reordered (2 fresh runs each, 2-vCPU
        x86-64 VM)."""
        peak = fresh_process_peak_mb("engine.vector_backend().pack_sites(ids)")
        assert peak < 158, peak


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc")
class TestSnapshotPeak:
    def test_s9234_snapshot_peak_rss(self):
        """A fresh process's s9234 ``engine.snapshot()`` peaks (VmHWM)
        under 100 MB, 7.7 MB above the 92.3 MB it reads when a snapshot
        runs the column query; 150.0 MB while it packed every (site,
        sink) pair (2 fresh runs each, 2-vCPU x86-64 VM)."""
        peak = fresh_process_peak_mb("engine.snapshot()")
        assert peak < 100, peak


_SECOND_CALL_FAULTS_SCRIPT = """
import resource

from repro.core.epp import EPPEngine
from repro.netlist.generate import generate_iscas

engine = EPPEngine(generate_iscas("s9234"))
backend = engine.vector_backend()
ids = [engine._cones.resolve(site) for site in engine.default_sites()]
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    backend.analyze_sites(ids)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""


class TestSweepFaults:
    @pytest.mark.slow
    def test_s9234_second_call_minor_faults(self):
        """A fresh process's second s9234 ``analyze_sites`` over the
        default sites takes under 10,000 minor page faults: the arena and
        the kernel scratch are resident from the first call, so this
        counts only what a call allocates afresh.  0-52 faults here;
        70.8k-71.3k when every row-tier group allocated its gathers,
        temporaries and blend (2-vCPU x86-64 VM)."""
        pytest.importorskip("resource")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = (
            os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [sys.executable, "-c", _SECOND_CALL_FAULTS_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 10_000, proc.stdout


class TestRowKernelScratch:
    """Every row kernel carves exactly ``row_scratch_cells`` from the
    scratch it is handed, writes each cell before reading it, and returns
    the same bits as on a fresh buffer."""

    @pytest.mark.parametrize("gate_type,arity", [
        (GateType.AND, 3), (GateType.NAND, 2), (GateType.OR, 4),
        (GateType.NOR, 5), (GateType.XOR, 2), (GateType.XNOR, 3),
        (GateType.XOR, 4), (GateType.NOT, 1), (GateType.BUF, 1),
        (GateType.MUX, 3), (GateType.MAJ, 3),
    ])
    def test_row_kernels_fit_their_scratch(self, gate_type, arity):
        """Against the tensor kernels on a fancy-indexed gather, on a
        NaN-filled scratch of ``row_scratch_cells`` plus slack; one cell
        short fails."""
        code = GATE_CODES[gate_type]
        rng = np.random.default_rng(arity)
        state = rng.random((9, 4, 5))
        fanin = rng.integers(0, 9, size=(3, arity))
        rule = rules_vec.gather_rule_for(code, arity)
        fresh = rule(state, fanin)
        tensor = rules_vec.vec_rule_for(code, arity)(state[fanin])
        assert np.array_equal(fresh, tensor)
        cells = rules_vec.row_scratch_cells(code, 3, arity, 5)
        scratch = np.full(cells + 7, np.nan)
        got = rule(state, fanin, scratch)
        assert np.shares_memory(got, scratch)
        assert np.array_equal(fresh, got)
        with pytest.raises(ValueError):
            rule(state, fanin, np.empty(cells - 1))


class TestXorKernels:
    """The XOR family starts from pin 0's planes and runs its recurrence
    from pin 1; both tiers must equal the identity-start loop
    (``tests/helpers.py``) bit for bit.  The dense oracle runs the
    production row kernels, so this and the golden file are what would
    catch a changed XOR bit."""

    @pytest.mark.parametrize("gate_type", [GateType.XOR, GateType.XNOR])
    @pytest.mark.parametrize("arity", [1, 2, 3, 4, 5])
    def test_xor_kernels_equal_identity_start_loop(self, gate_type, arity):
        code = GATE_CODES[gate_type]
        rng = np.random.default_rng(10 * arity + code)
        state = rng.random((12, 4, 6))
        draw = rng.random(state.shape)
        state[draw < 0.15] = 0.0
        state[draw > 0.85] = 1.0
        fanin = rng.integers(0, 12, size=(5, arity))
        x = state[fanin]
        before = x.copy()
        expected = reference_xor_vec(x, invert=gate_type is GateType.XNOR)
        tensor = rules_vec.vec_rule_for(code, arity)(x)
        assert np.array_equal(tensor, expected)
        assert np.array_equal(x, before)  # pin 0's planes are only read
        row = rules_vec.gather_rule_for(code, arity)(state, fanin)
        assert np.array_equal(row, expected)
        rows, cols = np.nonzero(rng.random((5, 6)) < 0.5)
        cell = rules_vec.compact_rule_for(code, arity)(state, fanin[rows], cols)
        assert np.array_equal(cell, expected[rows, :, cols])


class TestDirtyRowLifecycle:
    """A failed or released sweep must never leak state into the next
    one: the sweep arenas and the kernel scratch are reused across
    sweeps.  Every result is checked against a fresh dense oracle, which
    reuses nothing."""

    def test_failed_sweep_invalidates_dirty_tracking(self):
        """A sweep that dies mid-group leaves its arena partially
        overwritten and its scratch holding garbage; the next sweep on
        them must not compute on any of it — under every cell tier, for
        both queries."""
        for cells in ("on", "off", "auto"):
            for query in ("analyze_sites", "pack_sites"):
                self.assert_clean_after_poisoned_sweep(cells, query)

    @staticmethod
    def assert_clean_after_poisoned_sweep(cells, query):
        engine = EPPEngine(two_block_circuit())
        backend = force_vector(engine, batch_size=8, cells=cells)
        run = getattr(backend, query)
        a_ids = [engine._cones.resolve("a0")]
        b_ids = [engine._cones.resolve(f"b{index}") for index in range(4)]
        first = run(a_ids)

        # Poison the deepest level (block B's top gate, on-path in every
        # column, so the row tier runs it under every tier): the next
        # sweep writes nearly all of B's rows, then the kernel computes
        # its group into the scratch, overwrites the scratch with NaN
        # and dies.
        _, groups = backend.plan.levels[-1]
        originals = [group.rule for group in groups]
        poisoned = []

        def poison(rule):
            def boom(state, fanin, scratch=None):
                rule(state, fanin, scratch)
                scratch.fill(np.nan)
                poisoned.append(len(fanin))
                raise RuntimeError("poisoned kernel")
            return boom

        for group in groups:
            group.rule = poison(group.rule)
        try:
            with pytest.raises(RuntimeError, match="poisoned"):
                run(b_ids)
        finally:
            for group, original in zip(groups, originals):
                group.rule = original
        assert poisoned, (cells, query)

        again = run(a_ids)
        for left, right in zip(first, again):
            assert np.array_equal(left, right), (cells, query)
        b_again = run(b_ids)
        fresh = dense_backend(EPPEngine(two_block_circuit()), batch_size=8)
        for left, right in zip(getattr(fresh, query)(b_ids), b_again):
            assert np.array_equal(left, right), (cells, query)

    @pytest.mark.parametrize("release", [False, True])
    @pytest.mark.parametrize("query", ["analyze_sites", "pack_sites"])
    @pytest.mark.parametrize("cells", ["on", "off", "auto"])
    def test_second_call_on_a_used_scratch(self, cells, query, release):
        """A second call whose largest chunk needs less scratch than the
        first call's sweeps on the kept scratch (not regrown), or, after
        release_buffers(), on a fresh one; either way it equals a fresh
        dense oracle."""
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=32, cells=cells)
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        getattr(backend, query)(ids)
        scratch = backend._scratch
        narrow = ids[:7]
        (need,) = [plan.n_scratch * len(chunk)
                   for chunk, plan in chunk_spans(backend, narrow,
                                                  query == "pack_sites")]
        assert 0 < need < scratch.size
        if release:
            backend.release_buffers()
            assert backend._scratch is None
        got = getattr(backend, query)(narrow)
        if release:
            assert backend._scratch.size == need
        else:
            assert backend._scratch is scratch
        fresh = dense_backend(EPPEngine(build_circuit("s953")), batch_size=32)
        expected = getattr(fresh, query)(narrow)
        assert len(got) == len(expected)
        for left, right in zip(expected, got):
            assert left.dtype == right.dtype
            assert np.array_equal(left, right)

    def test_release_then_reuse_interleaving(self):
        """release_buffers() between sweeps of different widths: freshly
        allocated arenas must start clean."""
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=32, cells="off")
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        wide = backend.pack_sites(ids)
        backend.release_buffers()
        narrow = backend.pack_sites(ids[:7])
        wide_again = backend.pack_sites(ids)
        for left, right in zip(wide, wide_again):
            assert np.array_equal(left, right)
        fresh_narrow = dense_backend(engine, batch_size=32).pack_sites(ids[:7])
        for left, right in zip(fresh_narrow, narrow):
            assert np.array_equal(left, right)


def assert_reference_p_sens(p_sens, packed):
    """``p_sens`` equals the per-site product over ``packed``'s (site,
    sink) pairs (``tests.helpers.reference_p_sensitized``) bit for bit,
    dtype included: both bulk queries take ``p_sens`` from one
    reduction, so only an outside reference can check it."""
    reference = reference_p_sensitized(packed)
    assert p_sens.dtype == reference.dtype
    assert np.array_equal(p_sens, reference)


class TestUnifiedReductionPath:
    """Both bulk queries share one chunk driver and one reduction."""

    def test_p_sensitized_many_bit_equal_to_analyze(self):
        """``p_sensitized_many`` is the column query's first column, the
        columns equal ``pack_sites``' and the reduction equals the
        reference product over the packed pairs bit for bit, so the bulk
        queries can never drift."""
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=16)
        site_ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        many = backend.p_sensitized_many(site_ids)
        p_sens, cone_sizes = backend.analyze_sites(site_ids)
        packed = backend.pack_sites(site_ids)
        assert np.array_equal(many, p_sens)
        assert np.array_equal(p_sens, packed[0])
        assert np.array_equal(cone_sizes, packed[1])
        assert_reference_p_sens(p_sens, packed)

    @pytest.mark.parametrize("circuit_name", ["c17", "s27", "c432", "c499"])
    def test_analyze_columns_equal_snapshot(self, circuit_name):
        """The report ``analyze`` builds, the ``snapshot`` the service
        serves and the packed query's columns come from the same sweep,
        bit for bit, on small circuits too: a scalar shortcut for small
        workloads would differ from the sweep in the last bit (c432 on
        26 of 160 sites, c499 on 35 of 202)."""
        from repro.core.analysis import SERAnalyzer

        analyzer = SERAnalyzer(build_circuit(circuit_name))
        report = analyzer.analyze()
        snap = analyzer.engine.snapshot()
        packed = analyzer.engine.vector_backend().pack_sites(snap.site_ids)
        for p_sens, cone_sizes in [(snap.p_sensitized, snap.cone_sizes),
                                   packed[:2]]:
            assert np.array_equal(report.p_sensitized, p_sens)
            assert np.array_equal(report.cone_sizes, cone_sizes)
        assert_reference_p_sens(report.p_sensitized, packed)

    @pytest.mark.parametrize("mode", ["chunked", "sharded", "resumed"])
    def test_analyze_columns_equal_snapshot_s953(self, mode, tmp_path):
        """The same pin over many chunks: s953 in 16-site chunks, fanned
        out over a forced two-worker pool, and resumed from a columns
        journal with half its shards deleted — the report's columns equal
        the default vector packed query's bit for bit."""
        from repro.core.analysis import SERAnalyzer

        circuit = build_circuit("s953")
        engine = EPPEngine(circuit)
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        packed = engine.vector_backend().pack_sites(ids)
        knobs = {"batch_size": 16}
        if mode != "chunked":
            knobs = {"jobs": 2}
        if mode == "resumed":
            knobs["checkpoint"] = str(tmp_path / "journal")

        def analyze():
            """A fresh analyzer's report, and its sharded driver."""
            analyzer = SERAnalyzer(circuit)
            backend = None
            if mode != "chunked":
                backend = analyzer.engine.sharded_backend(**knobs)
                backend.min_process_work = 0
            try:
                return analyzer.analyze(**knobs), backend
            finally:
                analyzer.release_buffers()

        report, backend = analyze()
        if mode != "chunked":
            assert backend.stats["pickle_shards"] > 0
        if mode == "resumed":
            shards = sorted((tmp_path / "journal").glob("*.shard"))
            assert len(shards) > 1
            for path in shards[::2]:
                path.unlink()
            report, backend = analyze()
            assert backend.stats["checkpoint_shards"] == len(shards) // 2
            assert backend.stats["checkpointed_shards"] == (len(shards) + 1) // 2
        assert np.array_equal(report.p_sensitized, packed[0])
        assert np.array_equal(report.cone_sizes, packed[1])
        assert_reference_p_sens(report.p_sensitized, packed)

    def test_p_sensitized_many_cone_schedule_stays_aligned(self):
        """Clustering permutes the sweep; the output must stay aligned
        with the caller's site order (against one input-order chunk)."""
        engine = EPPEngine(build_circuit("s953"))
        clustered = force_vector(engine, batch_size=16)
        site_ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        got = clustered.p_sensitized_many(site_ids)
        assert_reference_p_sens(got, clustered.pack_sites(site_ids))
        ordered = force_vector(engine, batch_size=len(site_ids))
        assert np.array_equal(got, ordered.p_sensitized_many(site_ids))


class TestReleaseBuffers:
    def test_release_and_lazy_rebuild(self):
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine)
        sites = engine.default_sites()
        first = engine.analyze(sites=sites, backend="vector")
        assert backend._arena is not None
        assert backend._scratch is not None
        backend.release_buffers()
        assert backend._arena is None
        assert backend._scratch is None
        assert backend._const is None
        second = engine.analyze(sites=sites, backend="vector")  # rebuilds
        assert backend._arena is not None
        assert backend._scratch is not None
        for site in first:
            assert second[site].p_sensitized == first[site].p_sensitized

    def test_engine_release_covers_vector_backend(self):
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine)
        engine.analyze(backend="vector")
        assert backend._arena is not None
        engine.release_buffers()
        assert backend._arena is None
        assert backend._scratch is None
        assert backend._const is None

    def test_analyzer_release_buffers(self):
        from repro.core.analysis import SERAnalyzer

        analyzer = SERAnalyzer(build_circuit("s953"))
        backend = force_vector(analyzer.engine)
        analyzer.analyze(backend="vector")
        assert backend._arena is not None
        assert backend._const is not None
        analyzer.release_buffers()
        assert backend._arena is None
        assert backend._scratch is None
        assert backend._const is None

    def test_release_waits_for_a_running_sweep(self):
        """A release from another thread (the server evicting an engine a
        worker is still sweeping) must not free the arenas and constants
        under the kernels: it waits for the sweep to finish."""
        import threading

        engine = EPPEngine(build_circuit("s953"))
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        expected = dense_backend(engine).analyze_sites(ids)
        backend = engine.vector_backend()
        inside, resume = threading.Event(), threading.Event()
        original = backend._sweep

        def paused(site_ids, cplan):
            # The first sweep stops on entry, its arena already sized.
            if not inside.is_set():
                inside.set()
                resume.wait(timeout=30)
            return original(site_ids, cplan)

        backend._sweep = paused
        outcome = {}

        def sweep():
            try:
                snap = engine.snapshot()
                outcome["columns"] = (snap.p_sensitized, snap.cone_sizes)
            except Exception as error:  # surfaced by the asserts below
                outcome["error"] = error

        sweeper = threading.Thread(target=sweep)
        sweeper.start()
        assert inside.wait(timeout=30)
        releaser = threading.Thread(target=engine.release_buffers)
        releaser.start()
        releaser.join(timeout=0.5)
        waited = releaser.is_alive()
        resume.set()
        sweeper.join(timeout=60)
        releaser.join(timeout=60)
        assert not sweeper.is_alive() and not releaser.is_alive()
        assert "error" not in outcome, outcome.get("error")
        for left, right in zip(expected, outcome["columns"], strict=True):
            assert np.array_equal(left, right)
        assert waited
        assert backend._arena is None  # the release ran afterwards


class TestBackendSelection:
    def test_default_backend_is_vector_with_numpy(self):
        assert AnalysisConfig().effective_backend() == "vector"
        assert BACKENDS == ("scalar", "vector", "sharded")

    def test_unknown_backend_rejected(self):
        engine = EPPEngine(s27())
        with pytest.raises(AnalysisError, match="unknown EPP backend"):
            engine.analyze(backend="simd")

    @pytest.mark.parametrize("bad", [0, -3])
    def test_invalid_batch_size_rejected(self, bad):
        engine = EPPEngine(s27())
        with pytest.raises(AnalysisError, match="batch_size"):
            engine.analyze(backend="vector", batch_size=bad)

    def test_analyzer_backend_passthrough(self):
        from repro.core.analysis import SERAnalyzer

        circuit = build_circuit("zoo")
        scalar_report = SERAnalyzer(circuit).analyze(backend="scalar")
        vector_report = SERAnalyzer(circuit).analyze(backend="vector")
        assert scalar_report.nodes.keys() == vector_report.nodes.keys()
        for site in scalar_report.nodes:
            assert vector_report.nodes[site].fit == pytest.approx(
                scalar_report.nodes[site].fit, rel=1e-9)
