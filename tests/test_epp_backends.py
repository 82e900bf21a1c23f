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
from repro.netlist.library import s27

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
    return generate_iscas(name)


def force_vector(engine: EPPEngine, batch_size: int | None = None,
                 prune: bool | None = None, cells: str = "auto"):
    """A vector backend with the small-workload crossover disabled, so the
    vectorized kernels themselves are exercised even on tiny circuits.

    ``cells`` forces the cell tier through the backend's private
    ``_cells`` hook.  The engine caches one backend per (batch_size,
    prune), so the hook is assigned on every call — a cached backend
    must never keep a previous caller's tier."""
    backend = engine.vector_backend(batch_size=batch_size, prune=prune)
    backend.min_vector_work = 0
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
                          prune: bool | None = None, cells: str = "auto",
                          sites=None):
    engine = EPPEngine(circuit)
    force_vector(engine, batch_size, prune, cells)
    if callable(sites):
        sites = sites(engine)
    scalar = engine.analyze(sites=sites, backend="scalar")
    vector = engine.analyze(sites=sites, backend="vector",
                            batch_size=batch_size, prune=prune)
    assert list(scalar) == list(vector)  # same sites, same order
    for site, expected in scalar.items():
        got = vector[site]
        assert got.p_sensitized == pytest.approx(expected.p_sensitized, abs=TOL)
        assert got.cone_size == expected.cone_size
        assert set(got.sink_values) == set(expected.sink_values)
        for sink, value in expected.sink_values.items():
            assert got.sink_values[sink].isclose(value, tolerance=TOL), (
                site, sink, value, got.sink_values[sink])


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
    """The cone-aware sparse sweep is bit-equal to the dense vector sweep.

    Pruning only skips rows whose fanins are off-path in every column (the
    dense sweep writes their SP constants back unchanged) and the targeted
    scatter writes the same values the ``np.where`` scatter wrote, so the
    agreement here is exact — asserted at 1e-9 against the scalar oracle
    and bit-identical against the dense vector backend.
    """

    @pytest.mark.parametrize("circuit_name", ["zoo", "s27", "s953", "s1423"])
    @pytest.mark.parametrize("order", ["cone", "input"])
    def test_sparse_agrees_with_scalar(self, circuit_name, order):
        """Sites in the caller's order, or already cone-sorted (a sharded
        worker's shard, which the backend sweeps as it arrived)."""
        assert_backends_agree(build_circuit(circuit_name), prune=True,
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
        for prune in (False, True):
            for batch_size in (len(ids), 5):
                backend = force_vector(engine, batch_size=batch_size,
                                       prune=prune)
                packs[(prune, batch_size)] = backend.pack_sites(ids)
        reference = packs[(False, len(ids))]
        for key, packed in packs.items():
            for left, right in zip(reference, packed):
                assert np.array_equal(left, right), key

    @pytest.mark.parametrize("prune", [True, False])
    def test_mixed_arity_sentinel_groups_prune_correctly(self, prune):
        """The zoo's and2/and3 share one sentinel-padded group; slicing
        active rows must keep the padding columns aligned per row."""
        assert_backends_agree(gate_zoo(), prune=prune, batch_size=2)

    #: Every sweep strategy the backend can run, forced explicitly: the
    #: pruned compacted sweeps and the dense sweep, each under every cell
    #: tier — row kernels only, the cell-compacted kernels everywhere
    #: (closed forms and MUX/MAJ truth tables via the zoo,
    #: sentinel-padded mixed arities via the shared and2/and3 group), and
    #: the per-group cost model.
    FORCED_CONFIGS = tuple(
        dict(prune=prune, cells=cells)
        for prune in (True, False)
        for cells in ("on", "off", "auto")
    )

    @pytest.mark.parametrize("circuit_name", ["zoo", "s27", "s953"])
    def test_cell_compacted_bit_equal_to_dense(self, circuit_name):
        """The compacted kernels compute the same elementwise IEEE ops per
        on-path cell as the dense kernels, so every forced strategy must
        produce *bitwise* identical packed arrays — np.array_equal, not a
        tolerance."""
        circuit = build_circuit(circuit_name)
        engine = EPPEngine(circuit)
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        reference = force_vector(
            engine, batch_size=len(ids), prune=False,
        ).pack_sites(ids)
        for config in self.FORCED_CONFIGS:
            backend = force_vector(engine, batch_size=5, **config)
            packed = backend.pack_sites(ids)
            for left, right in zip(reference, packed):
                assert np.array_equal(left, right), config

    def test_cell_tier_engages_and_computes_fewer_cells(self):
        """The fast-suite smoke for the compacted code path: forcing
        cells="on" routes partially-on-path groups through the compacted
        kernels, and the stats show fewer cells computed than spanned."""
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=16, prune=True, cells="on")
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
        backend = force_vector(engine, batch_size=64, prune=True,
                               cells="auto")
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
        backend = force_vector(engine, batch_size=32, prune=True, cells="on")
        first = backend.pack_sites(ids)
        narrow = backend.pack_sites(ids[:7])  # narrow sweep between full ones
        again = backend.pack_sites(ids)
        for left, right in zip(first, again):
            assert np.array_equal(left, right)
        fresh = force_vector(
            EPPEngine(build_circuit("s953")), batch_size=32, prune=True,
            cells="on",
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
            assert_backends_agree(circuit, prune=True, batch_size=batch_size,
                                  sites=sites)


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
    """Pruned sweeps run on per-chunk union-of-cones state matrices.

    Bit-identity against the dense sweep is covered by
    ``FORCED_CONFIGS`` above and the hypothesis fuzzer; these tests pin
    the layout mechanics — the compacted path really engages, never
    materializes the full-width template, handles degenerate site lists,
    and the chunk-plan cache reuses remaps across repeated sweeps.
    """

    def test_compact_sweeps_engage_without_template(self):
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=16, prune=True)
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        backend.analyze_sites(ids)
        stats = backend.sweep_stats
        assert stats["compact_sweeps"] == stats["sweeps"] > 0
        # Every compacted sweep allocated strictly fewer rows than the
        # full (n + 2)-row matrix would have.
        assert stats["compact_rows"] < stats["sweeps"] * (engine.compiled.n + 2)
        assert backend._template is None  # full-width template never built
        assert not backend._buffer_slots  # no slot buffers either

    def test_auto_rows_compacts_pruned_sweeps(self):
        """Every sweep of the default (pruned) backend runs on the
        compacted layout; only dense sweeps use full-row buffers."""
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=16)
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        backend.analyze_sites(ids)
        stats = backend.sweep_stats
        assert stats["compact_sweeps"] == stats["sweeps"] > 0
        dense = force_vector(engine, batch_size=16, prune=False)
        dense.analyze_sites(ids)
        assert dense.sweep_stats["compact_sweeps"] == 0
        assert dense._buffer_slots

    def test_empty_site_list(self):
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, prune=True)
        assert backend.analyze_sites([]) == {}
        assert len(backend.p_sensitized_many([])) == 0
        packed = backend.pack_sites([])
        assert [len(part) for part in packed] == [0, 0, 0, 0, 0]
        assert backend.sweep_stats["sweeps"] == 0

    @pytest.mark.parametrize("circuit_name", ["zoo", "s27"])
    def test_single_site_chunks(self, circuit_name):
        """batch_size=1: every chunk holds one site, so each compacted
        matrix is exactly one cone (plus read rows and sentinels)."""
        assert_backends_agree(build_circuit(circuit_name), prune=True,
                              batch_size=1)

    @pytest.mark.parametrize("rows", ["compact", "full"])
    def test_sites_inside_other_sites_cones(self, rows):
        """A chunk mixing a site with members of its own fanout cone must
        keep the downstream columns' injected 1(a) in both row layouts:
        the compacted matrix of a pruned sweep and the full-row matrix of
        the dense sweep."""
        prune = rows == "compact"
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
        assert_backends_agree(circuit, prune=prune, batch_size=3)
        assert_backends_agree(circuit, prune=prune)

    def test_chunk_plan_cached_across_sweeps(self):
        """Repeated sweeps of the same chunk reuse one cached row remap,
        shared by every backend over the same compiled circuit."""
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=16, prune=True)
        ids = np.asarray(
            [engine._cones.resolve(s) for s in engine.default_sites()][:16],
            dtype=np.intp,
        )
        first = backend.plan.compact_chunk_plan(ids)
        assert backend.plan.compact_chunk_plan(ids) is first
        backend.pack_sites(ids)
        assert backend.plan.compact_chunk_plan(ids) is first
        other = force_vector(engine, batch_size=16, prune=False)
        assert other.plan.chunk_cache is backend.plan.chunk_cache

    def test_release_buffers_clears_chunk_plans(self):
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=16, prune=True)
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
        backend = force_vector(engine, prune=True)
        a_ids = np.asarray([engine._cones.resolve("a0")], dtype=np.intp)
        cplan = backend.plan.compact_chunk_plan(a_ids)
        # Block A reaches one of the two sinks; block B's rows are absent.
        assert len(cplan.sink_positions) == 1
        assert cplan.n_rows < engine.compiled.n
        packed = backend.pack_sites(a_ids)
        dense = force_vector(EPPEngine(circuit), prune=False).pack_sites(a_ids)
        for left, right in zip(dense, packed):
            assert np.array_equal(left, right)


class TestDirtyRowLifecycle:
    """A failed or released sweep must never leak state into the next one,
    on either layout: dense slot buffers and compacted arenas are both
    reused across sweeps."""

    @staticmethod
    def _backends(circuit, batch_size=8):
        """(engine, backend) pairs for a dense and a forced-pruned sweep."""
        pairs = []
        for prune in (False, True):
            engine = EPPEngine(circuit)
            backend = force_vector(engine, batch_size=batch_size, prune=prune,
                                   cells="off")
            pairs.append((engine, backend))
        return pairs

    def test_failed_sweep_invalidates_dirty_tracking(self):
        """A sweep that dies mid-flight leaves its buffer partially
        overwritten; the next sweep of the same buffer must not compute
        on any of it."""
        for engine, backend in self._backends(two_block_circuit()):
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
                assert np.array_equal(left, right), backend.prune
            b_again = backend.pack_sites(b_ids)
            _, fresh = self._backends(two_block_circuit())[int(backend.prune)]
            for left, right in zip(fresh.pack_sites(b_ids), b_again):
                assert np.array_equal(left, right), backend.prune

    def test_release_then_reuse_interleaving(self):
        """release_buffers() between sweeps of different widths: freshly
        allocated buffers must start clean."""
        circuit = build_circuit("s953")
        fresh_pairs = self._backends(circuit, 32)
        for (engine, backend), (fresh_engine, fresh) in zip(
            self._backends(circuit, 32), fresh_pairs
        ):
            ids = [engine._cones.resolve(s) for s in engine.default_sites()]
            wide = backend.pack_sites(ids)
            backend.release_buffers()
            narrow = backend.pack_sites(ids[:7])
            wide_again = backend.pack_sites(ids)
            for left, right in zip(wide, wide_again):
                assert np.array_equal(left, right)
            fresh_narrow = fresh.pack_sites(
                [fresh_engine._cones.resolve(s)
                 for s in fresh_engine.default_sites()][:7]
            )
            for left, right in zip(fresh_narrow, narrow):
                assert np.array_equal(left, right)


class TestUnifiedReductionPath:
    """p_sensitized_many shares one code path with the packed reduction."""

    def test_p_sensitized_many_bit_equal_to_analyze(self):
        """Same sweep, same ``_select_pairs`` reduction, same clamping —
        the two bulk queries can never drift, so equality is exact."""
        engine = EPPEngine(build_circuit("s953"))
        backend = force_vector(engine, batch_size=16)
        sites = engine.default_sites()
        site_ids = [engine._cones.resolve(s) for s in sites]
        many = backend.p_sensitized_many(site_ids)
        full = backend.analyze_sites(site_ids)
        assert [full[s].p_sensitized for s in sites] == many.tolist()

    def test_p_sensitized_many_uses_scalar_crossover(self):
        """Below min_vector_work the bulk query delegates to the scalar
        fallback exactly like analyze_sites (it used to skip the guard)."""
        engine = EPPEngine(s27())
        backend = engine.vector_backend()
        site_ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        assert engine.compiled.n * len(site_ids) < backend.min_vector_work
        values = backend.p_sensitized_many(site_ids)
        assert backend._template is None  # vectorized state never built
        for site_id, value in zip(site_ids, values):
            assert value == pytest.approx(engine.p_sensitized(site_id), abs=TOL)

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
        # Pruned sweeps carve their state from the compacted arenas and
        # never build the full-width template.
        assert backend._compact_arenas
        assert backend._template is None
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
        backend = force_vector(analyzer.engine, prune=False)
        analyzer.analyze(backend="vector", prune=False)
        assert backend._template is not None
        assert backend._buffer_slots
        analyzer.release_buffers()
        assert backend._template is None
        assert not backend._buffer_slots

    def test_release_waits_for_a_running_sweep(self):
        """A release from another thread (the server evicting an engine a
        worker is still sweeping) must not free the template and
        constants under the kernels: it waits for the sweep to finish."""
        import threading

        engine = EPPEngine(build_circuit("s953"))
        expected = engine.snapshot(prune=False).packed
        backend = engine.vector_backend(prune=False)
        inside, resume = threading.Event(), threading.Event()
        original = backend._buffers

        def paused(s, slot):
            if not inside.is_set():
                inside.set()
                resume.wait(timeout=30)
            return original(s, slot)

        backend._buffers = paused
        outcome = {}

        def sweep():
            try:
                outcome["packed"] = engine.snapshot(prune=False).packed
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
        assert backend._template is None  # the release ran afterwards


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

    def test_crossover_falls_back_to_scalar_on_tiny_workloads(self):
        """Below min_vector_work the vector backend delegates to the scalar
        kernel — same results, no array dispatch."""
        engine = EPPEngine(s27())
        backend = engine.vector_backend()
        assert engine.compiled.n * len(engine.default_sites()) < backend.min_vector_work
        results = engine.analyze(backend="vector")
        scalar = engine.analyze(backend="scalar")
        assert results.keys() == scalar.keys()
        for site in results:
            assert results[site].p_sensitized == pytest.approx(
                scalar[site].p_sensitized, abs=TOL)

    def test_analyzer_backend_passthrough(self):
        from repro.core.analysis import SERAnalyzer

        circuit = build_circuit("zoo")
        scalar_report = SERAnalyzer(circuit).analyze(backend="scalar")
        vector_report = SERAnalyzer(circuit).analyze(backend="vector")
        assert scalar_report.nodes.keys() == vector_report.nodes.keys()
        for site in scalar_report.nodes:
            assert vector_report.nodes[site].fit == pytest.approx(
                scalar_report.nodes[site].fit, rel=1e-9)
