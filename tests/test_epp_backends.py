"""Scalar vs vector EPP backend equivalence (golden 1e-9 agreement).

The scalar engine is the reference oracle; the batched NumPy backend must
reproduce its ``P_sensitized``, per-sink four-valued vectors and cone
sizes to 1e-9 on every circuit and every gate type (including MUX/MAJ via
the vectorized truth-table kernel).
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core.config import BACKENDS, AnalysisConfig
from repro.core.epp import EPPEngine
from repro.errors import AnalysisError
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.netlist.generate import generate_iscas
from repro.netlist.library import c17, s27

from tests.helpers import dense_backend, use_dense_backend

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
    mechanics — the compacted path really engages, never allocates a
    full-width matrix, handles degenerate site lists, and the chunk-plan
    cache reuses remaps across repeated sweeps.
    """

    def test_compact_sweeps_engage_without_template(self):
        """A multi-chunk column query sweeps on the calling thread on one
        state arena of ``max(n_slots x width) x 4`` float64s, allocated
        once per call, and every sweep covers strictly fewer rows than
        the full ``(n + 2)``-row matrix."""
        import threading

        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=16)
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        widths = [len(chunk) for chunk in chunk_ids(backend, ids)]
        cells = max(
            plan.n_slots * width
            for plan, width in zip(chunk_plans(backend, ids), widths)
        )
        swept = []
        sweep = backend._sweep

        def recording(chunk, slot=0):
            # The arena in place when each sweep starts: sized before the
            # first one, never grown by a later one.
            arenas = backend._compact_arenas.get(0)
            swept.append((threading.get_ident(), arenas and id(arenas[0])))
            return sweep(chunk, slot)

        backend._sweep = recording
        backend.analyze_sites(ids)
        stats = backend.sweep_stats
        assert stats["sweeps"] == len(widths) > 1
        full_rows = engine.compiled.n + 2
        assert stats["compact_rows"] < stats["sweeps"] * full_rows
        assert list(backend._compact_arenas) == [0]
        state_arena, mask_arena = backend._compact_arenas[0]
        assert state_arena.dtype == np.float64
        assert state_arena.size == 4 * cells
        assert mask_arena.size == cells
        assert state_arena.size < full_rows * 4 * max(widths)
        assert set(swept) == {(threading.get_ident(), id(state_arena))}
        backend.analyze_sites(ids)  # an arena that fits is kept
        assert backend._compact_arenas[0][0] is state_arena

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

    def test_chunk_plan_cached_across_sweeps(self):
        """Repeated sweeps of the same chunk reuse one cached row remap,
        shared by every backend over the same compiled circuit."""
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=16)
        ids = np.asarray(
            [engine._cones.resolve(s) for s in engine.default_sites()][:16],
            dtype=np.intp,
        )
        first = backend.plan.compact_chunk_plan(ids)
        assert backend.plan.compact_chunk_plan(ids) is first
        backend.pack_sites(ids)
        assert backend.plan.compact_chunk_plan(ids) is first
        other = force_vector(engine, batch_size=8)
        assert other is not backend
        assert other.plan.chunk_cache is backend.plan.chunk_cache

    def test_release_buffers_clears_chunk_plans(self):
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=16)
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        backend.analyze_sites(ids)
        assert len(backend.plan.chunk_cache) > 0
        backend.release_buffers()
        assert len(backend.plan.chunk_cache) == 0

    def test_compact_plan_translates_sinks(self):
        """A chunk reaching only some sinks reduces over exactly those,
        mapped back to their global sink positions."""
        circuit = two_block_circuit()
        engine = EPPEngine(circuit)
        backend = force_vector(engine)
        a_ids = np.asarray([engine._cones.resolve("a0")], dtype=np.intp)
        cplan = backend.plan.compact_chunk_plan(a_ids)
        # Block A reaches one of the two sinks; block B's rows are absent.
        assert len(cplan.sink_positions) == 1
        assert cplan.n_rows < engine.compiled.n
        packed = backend.pack_sites(a_ids)
        dense = dense_backend(EPPEngine(circuit)).pack_sites(a_ids)
        for left, right in zip(dense, packed):
            assert np.array_equal(left, right)


def chunk_ids(backend, ids) -> list:
    """The site-id chunks one bulk call of ``backend`` over ``ids``
    sweeps, in sweep order, split without sweeping."""
    ids = np.asarray(ids, dtype=np.intp)
    order = backend._schedule_order(ids)
    sweep_ids = ids if order is None else ids[order]
    return [
        sweep_ids[start:stop] for start, stop in backend._chunk_spans(sweep_ids)
    ]


def chunk_plans(backend, ids) -> list:
    """The compacted chunk plans one bulk call of ``backend`` over
    ``ids`` sweeps, in sweep order, built without sweeping."""
    return [
        backend.plan.compact_chunk_plan(chunk)
        for chunk in chunk_ids(backend, ids)
    ]


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


class TestLiveRows:
    """Compacted sweeps hold only live rows: a row's slot is reused once
    its last reader's level has run, while sites, present sinks and
    sentinels keep theirs for the whole sweep.  A recycled slot is
    re-seeded and its mask row cleared as it goes live, and cone sizes
    are counted as slots retire — every packed array stays bit-equal to
    the dense oracle's."""

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
        assert len(plan.sink_slots) == 0
        assert plan.n_slots < plan.n_rows
        packed = assert_bit_equal_to_dense(engine, ids, len(ids),
                                           cells).pack_sites(ids)
        assert packed[0].tolist() == [0.0, 0.0, 0.0]
        assert packed[1].tolist() == [7, 5, 2]

    def test_s9234_default_chunks_need_under_half_their_rows(self):
        """Plan only, no sweep: the largest default s9234 chunk needs
        2,409 slots for its 6,049 rows (0.40); pinned at 0.45."""
        engine = EPPEngine(generate_iscas("s9234"))
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        plans = chunk_plans(engine.vector_backend(), ids)
        assert len(plans) > 1
        largest_slots = max(plan.n_slots for plan in plans)
        largest_rows = max(plan.n_rows for plan in plans)
        assert largest_slots <= 0.45 * largest_rows


class TestDirtyRowLifecycle:
    """A failed or released sweep must never leak state into the next
    one: the sweep arenas are reused across sweeps.  Every result is
    checked against a fresh dense oracle, which reuses nothing."""

    def test_failed_sweep_invalidates_dirty_tracking(self):
        """A sweep that dies mid-flight leaves its arena partially
        overwritten; the next sweep of the same arena must not compute
        on any of it."""
        engine = EPPEngine(two_block_circuit())
        backend = force_vector(engine, batch_size=8, cells="off")
        a_ids = [engine._cones.resolve("a0")]
        b_ids = [engine._cones.resolve(f"b{index}") for index in range(4)]
        first = backend.pack_sites(a_ids)

        # Poison the deepest level (block B's top gate) so the next
        # sweep writes nearly all of B's rows and then dies.
        _, groups = backend.plan.levels[-1]
        originals = [group.rule for group in groups]

        def boom(*args, **kwargs):
            raise RuntimeError("poisoned kernel")

        for group in groups:
            group.rule = boom
        try:
            with pytest.raises(RuntimeError, match="poisoned"):
                backend.pack_sites(b_ids)
        finally:
            for group, original in zip(groups, originals):
                group.rule = original

        again = backend.pack_sites(a_ids)
        for left, right in zip(first, again):
            assert np.array_equal(left, right)
        b_again = backend.pack_sites(b_ids)
        fresh = dense_backend(EPPEngine(two_block_circuit()), batch_size=8)
        for left, right in zip(fresh.pack_sites(b_ids), b_again):
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


class TestUnifiedReductionPath:
    """p_sensitized_many shares one code path with the packed reduction."""

    def test_p_sensitized_many_bit_equal_to_analyze(self):
        """``p_sensitized_many`` is the column query's first column, and
        the column reduction equals the packed ``_select_pairs`` one bit
        for bit, so the bulk queries can never drift."""
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=16)
        site_ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        many = backend.p_sensitized_many(site_ids)
        p_sens, cone_sizes = backend.analyze_sites(site_ids)
        packed = backend.pack_sites(site_ids)
        assert np.array_equal(many, p_sens)
        assert np.array_equal(p_sens, packed[0])
        assert np.array_equal(cone_sizes, packed[1])

    @pytest.mark.parametrize("circuit_name", ["c17", "s27", "c432", "c499"])
    def test_analyze_columns_equal_snapshot(self, circuit_name):
        """The report ``analyze`` builds and the packed ``snapshot`` the
        service serves come from the same sweep, bit for bit, on small
        circuits too: a scalar shortcut for small workloads would differ
        from the sweep in the last bit (c432 on 26 of 160 sites, c499
        on 35 of 202)."""
        from repro.core.analysis import SERAnalyzer

        analyzer = SERAnalyzer(build_circuit(circuit_name))
        report = analyzer.analyze()
        packed = analyzer.engine.snapshot().packed
        assert np.array_equal(report.p_sensitized, packed[0])
        assert np.array_equal(report.cone_sizes, packed[1])

    @pytest.mark.parametrize("mode", ["chunked", "sharded", "resumed"])
    def test_analyze_columns_equal_snapshot_s953(self, mode, tmp_path):
        """The same pin over many chunks: s953 in 16-site chunks, fanned
        out over a forced two-worker pool, and resumed from a columns
        journal with half its shards deleted — the report's columns equal
        the default vector snapshot's packed ones bit for bit."""
        from repro.core.analysis import SERAnalyzer

        circuit = build_circuit("s953")
        packed = EPPEngine(circuit).snapshot().packed
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

    def test_p_sensitized_many_cone_schedule_stays_aligned(self):
        """Clustering permutes the sweep; the output must stay aligned
        with the caller's site order (against one input-order chunk)."""
        engine = EPPEngine(build_circuit("s953"))
        clustered = force_vector(engine, batch_size=16)
        site_ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        got = clustered.p_sensitized_many(site_ids)
        ordered = force_vector(engine, batch_size=len(site_ids))
        assert np.array_equal(got, ordered.p_sensitized_many(site_ids))


class TestReleaseBuffers:
    def test_release_and_lazy_rebuild(self):
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine)
        sites = engine.default_sites()
        first = engine.analyze(sites=sites, backend="vector")
        assert backend._compact_arenas
        backend.release_buffers()
        assert not backend._compact_arenas
        assert backend._const is None
        assert len(backend.plan.chunk_cache) == 0
        second = engine.analyze(sites=sites, backend="vector")  # rebuilds
        assert backend._compact_arenas
        for site in first:
            assert second[site].p_sensitized == first[site].p_sensitized

    def test_engine_release_covers_vector_backend(self):
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine)
        engine.analyze(backend="vector")
        assert backend._compact_arenas
        engine.release_buffers()
        assert not backend._compact_arenas
        assert backend._const is None

    def test_analyzer_release_buffers(self):
        from repro.core.analysis import SERAnalyzer

        analyzer = SERAnalyzer(build_circuit("s953"))
        backend = force_vector(analyzer.engine)
        analyzer.analyze(backend="vector")
        assert backend._compact_arenas
        assert backend._const is not None
        analyzer.release_buffers()
        assert not backend._compact_arenas
        assert backend._const is None
        assert len(backend.plan.chunk_cache) == 0

    def test_release_waits_for_a_running_sweep(self):
        """A release from another thread (the server evicting an engine a
        worker is still sweeping) must not free the arenas and constants
        under the kernels: it waits for the sweep to finish."""
        import threading

        engine = EPPEngine(build_circuit("s953"))
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        expected = dense_backend(engine).pack_sites(ids)
        backend = engine.vector_backend()
        inside, resume = threading.Event(), threading.Event()
        original = backend._compact_buffers

        def paused(n_slots, s, slot):
            if not inside.is_set():
                inside.set()
                resume.wait(timeout=30)
            return original(n_slots, s, slot)

        backend._compact_buffers = paused
        outcome = {}

        def sweep():
            try:
                outcome["packed"] = engine.snapshot().packed
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
        for left, right in zip(expected, outcome["packed"]):
            assert np.array_equal(left, right)
        assert waited
        assert not backend._compact_arenas  # the release ran afterwards


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
