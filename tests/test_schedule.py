"""Cone-aware scheduling layer: index correctness, caching, clustering.

The :class:`ConeIndex` must agree exactly with the scalar engine's cone
extractor on which sinks every node reaches (it is the same reachability,
computed in one reverse-topological pass instead of one forward search
per site).  Caching must behave like the batch plan's: one instance per
compiled circuit, invalidated when the circuit is recompiled, stripped by
``__getstate__`` so the sharded worker payload stays lean.  Clustering is
a pure permutation with sites of identical cone signature adjacent, and
no site order a caller picks can change any site's packed result.
"""

import pickle
import time

import pytest

np = pytest.importorskip("numpy")

from repro.core import epp_batch
from repro.core.cone import ConeExtractor
from repro.core.epp import EPPEngine
from repro.core.epp_batch import BatchEPPBackend, BatchPlan
from repro.core.schedule import (
    ChunkCache,
    ConeIndex,
    chunk_cache_key,
    cone_cluster_order,
)
from repro.errors import AnalysisError
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.netlist.generate import generate_iscas
from repro.netlist.library import s27

from tests.helpers import dense_backend


def zoo_circuit() -> Circuit:
    from tests.test_epp_backends import gate_zoo

    return gate_zoo()


class _Missing(Exception):
    pass


def cached(cache: ChunkCache, key: bytes):
    """The value resident under ``key``, or ``None`` — read through
    ``get_or_create`` with a factory that refuses to build."""

    def refuse():
        raise _Missing

    try:
        return cache.get_or_create(key, refuse)
    except _Missing:
        return None


def site_ids(engine: EPPEngine) -> list[int]:
    return [engine._cones.resolve(site) for site in engine.default_sites()]


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
            signature = index.sig[node_id]
            got = {
                compiled.sink_ids[position]
                for position in range(signature.bit_length())
                if signature >> position & 1
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
            cache.get_or_create(chunk_cache_key([index]), lambda i=index: i)
        assert len(cache) == 3
        assert cached(cache, chunk_cache_key([0])) is None  # evicted first
        assert cached(cache, chunk_cache_key([4])) == 4

    def test_overwrite_does_not_evict(self):
        """Asking again for a resident key returns it as built: nothing is
        rebuilt, replaced or evicted."""
        cache = ChunkCache(max_entries=2)
        key = chunk_cache_key([9])
        cache.get_or_create(key, lambda: "a")
        cache.get_or_create(chunk_cache_key([10]), lambda: "b")
        assert cache.get_or_create(key, lambda: "c") == "a"
        assert len(cache) == 2
        assert cached(cache, chunk_cache_key([10])) == "b"
        cache.clear()
        assert len(cache) == 0


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
        assert cached(cache, key) is results[0]

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
        """A falsy value is a cached value: presence is ``is not None``,
        never truthiness."""
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
        assert cached(cache, chunk_cache_key([0])) is None  # evicted first
        assert cached(cache, chunk_cache_key([3])) == 3

    def test_existing_entry_skips_factory_and_lock_contention(self):
        cache = ChunkCache()
        key = chunk_cache_key([11])
        cache.get_or_create(key, lambda: "resident")

        def exploding_factory():
            raise AssertionError("factory must not run for a resident key")

        assert cache.get_or_create(key, exploding_factory) == "resident"


class TestRowsKnob:
    """``rows=`` is gone: every sweep runs compacted, so any
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
    """The ``schedule`` knob is gone: every call spanning more than one
    chunk is cone-clustered, so naming it is an unknown-knob error."""

    def test_auto_resolution_clusters_only_multi_chunk(self, monkeypatch):
        """A call that fits in one chunk never pays the cluster sort —
        within one chunk the sweep visits the union of all cones in any
        order — on any bulk query, with the dense oracle swept in too."""
        calls = []
        real = epp_batch.cone_cluster_order

        def counting(compiled, ids):
            calls.append(len(ids))
            return real(compiled, ids)

        monkeypatch.setattr(epp_batch, "cone_cluster_order", counting)
        engine = EPPEngine(generate_iscas("s953"))
        ids = site_ids(engine)
        for backend in (engine.vector_backend(batch_size=16),
                        dense_backend(engine, batch_size=16)):
            for query in (backend.pack_sites, backend.p_sensitized_many,
                          backend.analyze_sites):
                query(ids[:16])
                query(ids[:1])
            assert calls == []
            backend.pack_sites(ids[:17])
            assert calls == [17]
            calls.clear()

    def test_engine_rejects_bad_schedule(self):
        engine = EPPEngine(s27())
        with pytest.raises(AnalysisError,
                           match="unknown analysis knob 'schedule'"):
            engine.analyze(backend="vector", **{"schedule": "cone"})

    def test_scalar_backend_rejects_bad_schedule_too(self):
        """The scalar path ignores sweep knobs but a stale one must still
        fail."""
        engine = EPPEngine(s27())
        with pytest.raises(AnalysisError,
                           match="unknown analysis knob 'schedule'"):
            engine.analyze(backend="scalar", **{"schedule": "input"})

    def test_table2_config_rejects_knobs_on_scalar_backend(self):
        from repro.errors import ConfigError
        from repro.experiments.table2 import Table2Config

        with pytest.raises(ConfigError, match="sharded"):
            Table2Config(jobs=2)  # default backend is scalar
        Table2Config(backend="sharded", jobs=2)  # fine

    def test_engine_rejects_bad_cells_and_chunking(self):
        """The cell tier is a private test hook and chunk widths follow
        one calibrated policy: neither is an analysis knob any more."""
        engine = EPPEngine(s27())
        with pytest.raises(AnalysisError, match="unknown analysis knob 'cells'"):
            engine.analyze(backend="vector", cells="on")
        with pytest.raises(AnalysisError,
                           match="unknown analysis knob 'chunking'"):
            engine.analyze(backend="scalar", chunking="adaptive")


def per_site(ids, packed) -> dict:
    """A packed tuple keyed by site id: the site's P_sensitized, cone
    size, sink positions and the raw bytes of its sink vectors."""
    p_sens, cone_sizes, counts, sink_pos, values = packed
    stops = np.cumsum(counts)
    starts = stops - counts
    return {
        site: (
            p_sens[column], cone_sizes[column],
            sink_pos[starts[column]:stops[column]].tolist(),
            values[starts[column]:stops[column]].tobytes(),
        )
        for column, site in enumerate(ids)
    }


class TestScheduledResults:
    def test_cone_schedule_preserves_input_order(self):
        """Clustering permutes the sweep, never the returned mapping."""
        engine = EPPEngine(generate_iscas("s953"))
        backend = engine.vector_backend(batch_size=16)
        sites = engine.default_sites()
        ids = np.asarray(site_ids(engine), dtype=np.intp)
        assert backend._schedule_order(ids) is not None  # really permuted
        results = engine.analyze(sites=sites, backend="vector", batch_size=16)
        assert list(results) == sites

    def test_cone_schedule_values_match_input_schedule(self):
        """Clustered 16-site chunks against one chunk holding the whole
        site list, which sweeps in input order.  Analyzed one backend at
        a time: the engine caches a single backend slot."""
        engine = EPPEngine(generate_iscas("s953"))
        ids = site_ids(engine)

        backend = engine.vector_backend(batch_size=16)
        clustered = backend.analyze_sites(ids)
        backend = engine.vector_backend(batch_size=len(ids))
        ordered = backend.analyze_sites(ids)

        for left, right in zip(clustered, ordered):  # both columns
            assert np.array_equal(left, right)

    def test_pack_sites_reorders_to_input_order(self):
        """pack_sites over clustered chunks returns arrays aligned with
        the caller's site order — the sharded materialize contract."""
        engine = EPPEngine(generate_iscas("s953"))
        ids = site_ids(engine)
        clustered = engine.vector_backend(batch_size=16)
        packed_clustered = clustered.pack_sites(ids)
        ordered = engine.vector_backend(batch_size=len(ids))
        packed_ordered = ordered.pack_sites(ids)
        for left, right in zip(packed_clustered, packed_ordered):
            assert np.array_equal(left, right)

    @pytest.mark.parametrize("compacted", [True, False])
    @pytest.mark.parametrize("circuit_factory", [
        lambda: generate_iscas("s953"), zoo_circuit,
    ], ids=["s953", "zoo"])
    def test_permuted_site_lists_agree_per_site(self, circuit_factory,
                                                compacted):
        """The site list, its reverse and a seeded shuffle: whichever
        order a caller picks, every site's packed result is the dense
        oracle's in input order — swept compacted (the backend's sweep)
        or dense (the oracle itself, through the same scheduler)."""
        import random

        engine = EPPEngine(circuit_factory())
        dense = dense_backend(engine, batch_size=16)
        backend = engine.vector_backend(batch_size=16) if compacted else dense
        ids = site_ids(engine)
        shuffled = list(ids)
        random.Random(7).shuffle(shuffled)
        expected = per_site(ids, dense_backend(engine, len(ids)).pack_sites(ids))
        for order in (ids, ids[::-1], shuffled):
            assert per_site(order, backend.pack_sites(order)) == expected

    def test_cluster_sorted_shard_sweeps_without_reorder(self, monkeypatch):
        """A contiguous run of the cone-clustered order — what a sharded
        worker receives — sorts to itself, so it sweeps as it arrived:
        no permutation and no packed-result reorder."""
        engine = EPPEngine(generate_iscas("s953"))
        ids = site_ids(engine)
        order = cone_cluster_order(engine.compiled, ids)
        shard = np.asarray([ids[p] for p in order[40:140].tolist()],
                           dtype=np.intp)
        backend = engine.vector_backend(batch_size=16)
        everything = per_site(ids, backend.pack_sites(ids))
        assert backend._schedule_order(shard) is None

        def no_reorder(packed, inverse):
            raise AssertionError("a cluster-sorted shard was reordered")

        monkeypatch.setattr(BatchEPPBackend, "_reorder_packed",
                            staticmethod(no_reorder))
        packed = backend.pack_sites(shard)
        assert per_site(shard.tolist(), packed) == {
            site: everything[site] for site in shard.tolist()
        }
