"""Cone-aware scheduling layer: index correctness, caching, clustering.

The :class:`ConeIndex` must agree exactly with the scalar engine's cone
extractor on which sinks every node reaches (it is the same reachability,
computed in one reverse-topological pass instead of one forward search
per site).  Caching must behave like the batch plan's: one instance per
compiled circuit, invalidated when the circuit is recompiled, stripped by
``__getstate__`` so the sharded worker payload stays lean.  Clustering is
a pure permutation with sites of identical cone signature adjacent.
"""

import pickle
import time

import pytest

np = pytest.importorskip("numpy")

from repro.core.cone import ConeExtractor
from repro.core.epp import EPPEngine
from repro.core.epp_batch import BatchPlan
from repro.core.schedule import (
    ChunkCache,
    ConeIndex,
    chunk_cache_key,
    chunk_prune_saturated,
    cone_cluster_order,
    resolve_prune,
    resolve_schedule,
    validate_schedule,
)
from repro.errors import AnalysisError
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.netlist.generate import generate_iscas
from repro.netlist.library import s27


def zoo_circuit() -> Circuit:
    from tests.test_epp_backends import gate_zoo

    return gate_zoo()


class TestConeIndex:
    @pytest.mark.parametrize("circuit_factory", [s27, zoo_circuit,
                                                 lambda: generate_iscas("s953")])
    def test_signatures_match_cone_extractor(self, circuit_factory):
        """For every node: the bitset's sinks == the extracted cone's sinks."""
        compiled = circuit_factory().compiled()
        index = ConeIndex.for_compiled(compiled)
        extractor = ConeExtractor(compiled)
        for node_id in range(compiled.n):
            expected = set(extractor.cone(node_id).sinks)
            got = {
                compiled.sink_ids[position]
                for position in index.reachable_sink_positions(node_id)
            }
            assert got == expected, compiled.names[node_id]

    def test_index_cached_per_compiled(self):
        compiled = s27().compiled()
        assert ConeIndex.for_compiled(compiled) is ConeIndex.for_compiled(compiled)

    def test_recompiling_invalidates_plan_and_cone_index(self):
        """Mutating the circuit rebuilds CompiledCircuit, so the caches on
        the stale snapshot can never leak into the new topology."""
        circuit = s27()
        compiled = circuit.compiled()
        plan = BatchPlan.for_compiled(compiled)
        index = ConeIndex.for_compiled(compiled)
        circuit.add_gate("extra", GateType.AND, ["G10", "G11"])
        circuit.mark_output("extra")
        recompiled = circuit.compiled()
        assert recompiled is not compiled
        assert BatchPlan.for_compiled(recompiled) is not plan
        assert ConeIndex.for_compiled(recompiled) is not index
        # The new index knows the new sink; the old one cannot.
        assert ConeIndex.for_compiled(recompiled).n_sinks == index.n_sinks + 1

    def test_getstate_strips_cone_index_and_plans(self):
        """Pickling a compiled circuit (the sharded worker payload) drops
        every cached execution structure; workers rebuild locally."""
        compiled = generate_iscas("s953").compiled()
        BatchPlan.for_compiled(compiled)
        ConeIndex.for_compiled(compiled)
        assert hasattr(compiled, "_batch_epp_plan")
        assert hasattr(compiled, "_cone_index")
        state = compiled.__getstate__()
        assert "_batch_epp_plan" not in state
        assert "_cone_index" not in state
        restored = pickle.loads(pickle.dumps(compiled))
        assert not hasattr(restored, "_batch_epp_plan")
        assert not hasattr(restored, "_cone_index")
        # The restored circuit rebuilds an equivalent index from scratch.
        rebuilt = ConeIndex.for_compiled(restored)
        assert rebuilt.sig == ConeIndex.for_compiled(compiled).sig


class TestClusterOrder:
    def test_is_a_permutation(self):
        compiled = generate_iscas("s953").compiled()
        engine = EPPEngine(generate_iscas("s953"))
        ids = [engine._cones.resolve(site) for site in engine.default_sites()]
        order = cone_cluster_order(compiled, ids)
        assert sorted(order.tolist()) == list(range(len(ids)))

    def test_identical_signatures_are_adjacent(self):
        compiled = generate_iscas("s953").compiled()
        engine = EPPEngine(generate_iscas("s953"))
        ids = [engine._cones.resolve(site) for site in engine.default_sites()]
        order = cone_cluster_order(compiled, ids)
        sig = ConeIndex.for_compiled(compiled).sig
        signatures = [sig[ids[position]] for position in order.tolist()]
        # Once a signature class ends it never reappears later in the order.
        seen = set()
        previous = None
        for signature in signatures:
            if signature != previous:
                assert signature not in seen, "signature class split apart"
                seen.add(signature)
                previous = signature

    def test_stable_for_equal_keys(self):
        """Duplicate sites keep their input order (the sort is stable)."""
        compiled = s27().compiled()
        site = compiled.index["G10"]
        order = cone_cluster_order(compiled, [site, site, site])
        assert order.tolist() == [0, 1, 2]


class TestChunkCache:
    def test_key_depends_on_order_and_content(self):
        """Column assignment follows site order, so the key must too."""
        assert chunk_cache_key([1, 2, 3]) == chunk_cache_key([1, 2, 3])
        assert chunk_cache_key([1, 2, 3]) != chunk_cache_key([3, 2, 1])
        assert chunk_cache_key([1, 2, 3]) != chunk_cache_key([1, 2, 4])
        assert chunk_cache_key(np.asarray([5, 7], dtype=np.intp)) == \
            chunk_cache_key([5, 7])

    def test_fifo_eviction_bounds_entries(self):
        cache = ChunkCache(max_entries=3)
        for index in range(5):
            cache.put(chunk_cache_key([index]), index)
        assert len(cache) == 3
        assert cache.get(chunk_cache_key([0])) is None  # evicted first
        assert cache.get(chunk_cache_key([4])) == 4

    def test_overwrite_does_not_evict(self):
        cache = ChunkCache(max_entries=2)
        key = chunk_cache_key([9])
        cache.put(key, "a")
        cache.put(chunk_cache_key([10]), "b")
        cache.put(key, "c")  # overwrite in place, nothing evicted
        assert len(cache) == 2
        assert cache.get(key) == "c"
        cache.clear()
        assert len(cache) == 0

    def test_saturation_verdict_memoized_per_chunk(self):
        """The prune="auto" predicate is computed once per distinct chunk
        and shared through the plan's cache (sat: keys)."""
        engine = EPPEngine(generate_iscas("s953"))
        backend = engine.vector_backend(prune=True, schedule="cone")
        backend.min_vector_work = 0
        ids = np.asarray(
            [engine._cones.resolve(s) for s in engine.default_sites()][:16],
            dtype=np.intp,
        )
        verdict = backend._chunk_saturated(ids)
        assert verdict == chunk_prune_saturated(engine.compiled, ids)
        key = b"sat:" + chunk_cache_key(ids)
        assert backend.plan.chunk_cache.get(key) == verdict
        # A second backend over the same compiled circuit shares the memo.
        other = engine.vector_backend(prune=False)
        assert other.plan.chunk_cache is backend.plan.chunk_cache


class TestChunkCacheConcurrency:
    """get_or_create under contention: the plan cache is shared between
    the sweeper thread and whatever thread drives the analysis, so a
    race must never construct twice or tear a read."""

    def test_hammer_builds_exactly_once(self):
        import threading

        cache = ChunkCache(max_entries=8)
        key = chunk_cache_key([1, 2, 3])
        builds = []
        barrier = threading.Barrier(8)

        def factory():
            builds.append(threading.get_ident())
            time.sleep(0.01)  # widen the race window
            return {"plan": object()}

        results = [None] * 8

        def worker(slot):
            barrier.wait()
            results[slot] = cache.get_or_create(key, factory)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(builds) == 1  # single construction under contention
        # No torn reads: every thread observed the one published object.
        assert all(result is results[0] for result in results)
        assert cache.get(key) is results[0]

    def test_distinct_keys_build_independently(self):
        import threading

        cache = ChunkCache(max_entries=64)
        built = []

        def worker(index):
            key = chunk_cache_key([index])
            value = cache.get_or_create(key, lambda: built.append(index) or index)
            assert value == index

        threads = [
            threading.Thread(target=worker, args=(index % 16,))
            for index in range(64)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(set(built)) == list(range(16))
        assert len(built) == 16  # once per key, not per caller

    def test_falsy_value_cached_not_rebuilt(self):
        """The saturation verdict is stored as a plain ``False`` —
        presence must be ``is not None``, never truthiness."""
        cache = ChunkCache()
        key = chunk_cache_key([7])
        calls = []
        assert cache.get_or_create(key, lambda: calls.append(1) or False) is False
        assert cache.get_or_create(key, lambda: calls.append(1) or True) is False
        assert len(calls) == 1

    def test_get_or_create_respects_fifo_cap(self):
        cache = ChunkCache(max_entries=2)
        for index in range(4):
            cache.get_or_create(chunk_cache_key([index]), lambda i=index: i)
        assert len(cache) == 2
        assert cache.get(chunk_cache_key([0])) is None  # evicted first
        assert cache.get(chunk_cache_key([3])) == 3

    def test_existing_entry_skips_factory_and_lock_contention(self):
        cache = ChunkCache()
        key = chunk_cache_key([11])
        cache.put(key, "resident")

        def exploding_factory():
            raise AssertionError("factory must not run for a resident key")

        assert cache.get_or_create(key, exploding_factory) == "resident"


class TestRowsKnob:
    """``rows=`` is gone: pruned sweeps always run compacted, so any
    value is an unknown knob on every backend."""

    def test_engine_rejects_bad_rows(self):
        engine = EPPEngine(s27())
        with pytest.raises(AnalysisError, match="unknown analysis knob 'rows'"):
            engine.analyze(backend="vector", rows="full")

    def test_scalar_backend_rejects_bad_rows_too(self):
        engine = EPPEngine(s27())
        with pytest.raises(AnalysisError, match="unknown analysis knob 'rows'"):
            engine.analyze(backend="scalar", rows="compact")


class TestScheduleKnob:
    def test_validate_accepts_known_values(self):
        assert validate_schedule(None) == "auto"
        for value in ("auto", "cone", "input"):
            assert validate_schedule(value) == value

    def test_validate_rejects_unknown(self):
        with pytest.raises(AnalysisError, match="unknown schedule"):
            validate_schedule("random")

    def test_auto_resolution_clusters_only_multi_chunk(self):
        assert resolve_schedule("auto", 10, 32) == "input"
        assert resolve_schedule("auto", 33, 32) == "cone"
        assert resolve_schedule("cone", 2, 32) == "cone"
        assert resolve_schedule("input", 1000, 32) == "input"

    def test_engine_rejects_bad_schedule(self):
        engine = EPPEngine(s27())
        with pytest.raises(AnalysisError, match="unknown schedule"):
            engine.analyze(backend="vector", schedule="sorted")

    def test_scalar_backend_rejects_bad_schedule_too(self):
        """The scalar path ignores the knob but a typo must still fail."""
        engine = EPPEngine(s27())
        with pytest.raises(AnalysisError, match="unknown schedule"):
            engine.analyze(backend="scalar", schedule="sorted")

    def test_table2_config_rejects_knobs_on_scalar_backend(self):
        from repro.errors import ConfigError
        from repro.experiments.table2 import Table2Config

        with pytest.raises(ConfigError, match="vector"):
            Table2Config(prune=False)  # default backend is scalar
        with pytest.raises(ConfigError, match="vector"):
            Table2Config(schedule="cone")
        Table2Config(backend="vector", prune=False, schedule="cone")  # fine

    def test_backend_cache_keyed_by_prune_and_schedule(self):
        engine = EPPEngine(s27())
        default = engine.vector_backend()
        assert engine.vector_backend() is default
        pruned_off = engine.vector_backend(prune=False)
        assert pruned_off is not default
        assert pruned_off.prune is False
        clustered = engine.vector_backend(schedule="cone")
        assert clustered is not pruned_off
        assert clustered.schedule == "cone"

    def test_engine_rejects_bad_cells_and_chunking(self):
        """The cell tier is a private test hook and chunk widths follow
        one calibrated policy: neither is an analysis knob any more."""
        engine = EPPEngine(s27())
        with pytest.raises(AnalysisError, match="unknown analysis knob 'cells'"):
            engine.analyze(backend="vector", cells="on")
        with pytest.raises(AnalysisError,
                           match="unknown analysis knob 'chunking'"):
            engine.analyze(backend="scalar", chunking="adaptive")

    def test_resolve_prune_tri_state(self):
        assert resolve_prune(None) == "auto"
        assert resolve_prune(True) is True
        assert resolve_prune(False) is False
        # Idempotent over its own output: the sharded driver ships
        # resolved values to workers, which resolve again — "auto" must
        # survive the round trip instead of coercing truthy to True.
        assert resolve_prune("auto") == "auto"
        assert resolve_prune(resolve_prune(None)) == "auto"
        # Truthiness is not a prune value: the wire string "false" used
        # to coerce to True and force pruning.
        for bad in ("false", "true", 0, 1, "on"):
            with pytest.raises(AnalysisError, match="prune"):
                resolve_prune(bad)


class TestScheduledResults:
    def test_cone_schedule_preserves_input_order(self):
        """Scheduling permutes the sweep, never the returned mapping."""
        engine = EPPEngine(generate_iscas("s953"))
        backend = engine.vector_backend(batch_size=16, schedule="cone")
        backend.min_vector_work = 0
        sites = engine.default_sites()
        results = engine.analyze(sites=sites, backend="vector",
                                 batch_size=16, schedule="cone")
        assert list(results) == sites

    def test_cone_schedule_values_match_input_schedule(self):
        """Analyzed one backend at a time: the engine caches a single
        backend slot, so each configuration is built, forced onto the
        vectorized path, and queried before the next evicts it."""
        engine = EPPEngine(generate_iscas("s953"))
        site_ids = [engine._cones.resolve(s) for s in engine.default_sites()]

        backend = engine.vector_backend(batch_size=16, schedule="cone")
        backend.min_vector_work = 0
        clustered = backend.analyze_sites(site_ids)
        backend = engine.vector_backend(batch_size=16, schedule="input")
        backend.min_vector_work = 0
        ordered = backend.analyze_sites(site_ids)

        assert list(clustered) == list(ordered)
        for site in clustered:
            assert clustered[site].p_sensitized == ordered[site].p_sensitized
            assert clustered[site].cone_size == ordered[site].cone_size

    def test_pack_sites_reorders_to_input_order(self):
        """pack_sites under cone scheduling returns arrays aligned with the
        caller's site order — the sharded materialize contract."""
        engine = EPPEngine(generate_iscas("s953"))
        ids = [engine._cones.resolve(site) for site in engine.default_sites()]
        clustered = engine.vector_backend(batch_size=16, schedule="cone")
        clustered.min_vector_work = 0
        packed_clustered = clustered.pack_sites(ids)
        ordered = engine.vector_backend(batch_size=16, schedule="input")
        ordered.min_vector_work = 0
        packed_ordered = ordered.pack_sites(ids)
        for left, right in zip(packed_clustered, packed_ordered):
            assert np.array_equal(left, right)


class TestAutoPruneFallback:
    """The bench-driven dense fallback (BENCH_pr3.json: s953 sparse at
    0.99x of dense, s1423 at 0.83x — saturated full-circuit sweeps of
    small circuits lose to the dense kernels)."""

    def test_saturated_predicate_matches_bench_observation(self):
        """Full-circuit site lists of the regressed small circuits are
        exactly what the predicate must flag as saturated."""
        for name in ("s953", "s1423"):
            engine = EPPEngine(generate_iscas(name))
            ids = [engine._cones.resolve(s) for s in engine.default_sites()]
            assert chunk_prune_saturated(engine.compiled, ids), name

    def test_clustered_subset_is_not_saturated(self):
        """A single cone-cluster's sites cover few sinks — the workload
        pruning was built for must keep pruning."""
        engine = EPPEngine(generate_iscas("s953"))
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        order = cone_cluster_order(engine.compiled, ids)
        cluster = [ids[position] for position in order[:24].tolist()]
        assert not chunk_prune_saturated(engine.compiled, cluster)

    def test_large_circuits_never_consult_the_predicate(self, monkeypatch):
        """Above PRUNE_AUTO_MAX_NODES the skipped rows always dwarf the
        bookkeeping: saturation must not trigger the fallback."""
        import repro.core.schedule as schedule_module

        engine = EPPEngine(generate_iscas("s953"))
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        assert chunk_prune_saturated(engine.compiled, ids)
        monkeypatch.setattr(schedule_module, "PRUNE_AUTO_MAX_NODES", 400)
        assert not chunk_prune_saturated(engine.compiled, ids)

    def test_auto_mode_runs_saturated_sweeps_dense(self):
        """End to end: the default (auto) configuration routes the s953
        full-circuit analyze through dense sweeps — and skips the cluster
        sort, whose overhead was the other half of the regression."""
        engine = EPPEngine(generate_iscas("s953"))
        backend = engine.vector_backend(batch_size=64)
        backend.min_vector_work = 0
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        assert backend._schedule_order(np.asarray(ids, dtype=np.intp)) is None
        backend.analyze_sites(ids)
        stats = backend.sweep_stats
        assert stats["sweeps"] > 0
        assert stats["dense_fallback_sweeps"] == stats["sweeps"]
        assert stats["groups_row"] == stats["groups_cell"] == 0

    def test_forced_prune_overrides_the_fallback(self):
        """prune=True keeps the PR-3 contract: saturated or not, every
        sweep prunes (the knob is a force, not a hint)."""
        engine = EPPEngine(generate_iscas("s953"))
        backend = engine.vector_backend(batch_size=64, prune=True)
        backend.min_vector_work = 0
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        backend.analyze_sites(ids)
        stats = backend.sweep_stats
        assert stats["dense_fallback_sweeps"] == 0
        assert stats["groups_dense"] == 0
        assert stats["groups_row"] + stats["groups_cell"] > 0

    def test_unsaturated_auto_calls_still_prune(self):
        """The fallback must not blanket small circuits: a clustered
        subset under the same auto defaults keeps the sparse tiers."""
        engine = EPPEngine(generate_iscas("s953"))
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        order = cone_cluster_order(engine.compiled, ids)
        cluster = [ids[position] for position in order[:24].tolist()]
        backend = engine.vector_backend(batch_size=64)
        backend.min_vector_work = 0
        backend.analyze_sites(cluster)
        stats = backend.sweep_stats
        assert stats["dense_fallback_sweeps"] == 0
        assert stats["groups_row"] + stats["groups_cell"] > 0
