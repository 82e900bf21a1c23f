"""Sharded multi-process backend: equivalence, guards and lifecycle.

The sharded driver must reproduce the vector backend exactly — the shard
partition cannot change any per-site arithmetic, so agreement is pinned at
1e-9 on real process pools (``min_process_work`` forced to 0 so even
mid-size circuits exercise worker fan-out).  The crossover guard, the
``jobs`` plumbing through ``EPPEngine.analyze`` / ``SERAnalyzer`` and the
pool lifecycle are covered alongside.
"""

import json
import os
import subprocess
import sys

import pytest

np = pytest.importorskip("numpy")

from repro.core.analysis import SERAnalyzer
from repro.core.epp import EPPEngine
from repro.core.epp_shard import (
    ShardedEPPEngine,
    default_jobs,
    partition_shards,
    preferred_mp_context,
)
from repro.errors import AnalysisError, RetryBudgetExceededError
from repro.netlist.generate import generate_iscas
from repro.netlist.library import s27

from tests.helpers import dense_backend

TOL = 1e-9

def forced_sharded(engine: EPPEngine, jobs: int = 4):
    """A sharded driver with the crossover guard disabled, so worker
    processes are exercised even on circuits below the default threshold."""
    backend = engine.sharded_backend(jobs=jobs)
    backend.min_process_work = 0
    return backend


def assert_results_match(expected, got):
    assert list(expected) == list(got)  # same sites, same order
    for site, reference in expected.items():
        result = got[site]
        assert result.p_sensitized == pytest.approx(reference.p_sensitized, abs=TOL)
        assert result.cone_size == reference.cone_size
        assert set(result.sink_values) == set(reference.sink_values)
        for sink, value in reference.sink_values.items():
            assert result.sink_values[sink].isclose(value, tolerance=TOL), (
                site, sink, value, result.sink_values[sink])


class TestShardedEquivalence:
    """Acceptance pin: sharded(jobs=4) == vector to 1e-9 on s953/s1423."""

    @pytest.mark.parametrize("circuit_name", ["s953", "s1423"])
    def test_full_circuit_matches_vector(self, circuit_name):
        engine = EPPEngine(generate_iscas(circuit_name))
        with forced_sharded(engine, jobs=4) as backend:
            vector = engine.analyze(backend="vector")
            sharded = engine.analyze(backend="sharded", jobs=4)
            assert backend.pool_started  # the guard really was bypassed
        assert_results_match(vector, sharded)

    def test_p_sensitized_many_matches_vector(self):
        engine = EPPEngine(generate_iscas("s953"))
        site_ids = [engine._cones.resolve(site) for site in engine.default_sites()]
        with forced_sharded(engine, jobs=3) as backend:
            sharded = backend.p_sensitized_many(site_ids)
        vector = engine.vector_backend().p_sensitized_many(site_ids)
        assert np.abs(vector - sharded).max() <= TOL

    @pytest.mark.slow
    def test_s9234_sharded_scaling_run_matches_vector(self):
        """The nightly sharded-scaling check: a full s9234 fan-out (the
        workload above the default crossover threshold) stays 1e-9-equal
        to the single-process vector sweep."""
        engine = EPPEngine(generate_iscas("s9234"))
        jobs = max(2, default_jobs())
        backend = engine.sharded_backend(jobs=jobs)
        try:
            vector = engine.analyze(backend="vector")
            sharded = engine.analyze(backend="sharded", jobs=jobs)
            assert backend.pool_started  # above threshold: processes engaged
        finally:
            backend.close()
        assert_results_match(vector, sharded)


class TestShmTransport:
    """Shard results return through the executor's pickle channel, the
    one transport; teardown mid-analysis leaves the engine reusable."""

    def test_close_mid_flight_unlinks_undelivered_segments(self):
        """Pool teardown with shard results still in flight (the
        KeyboardInterrupt-between-sweep-and-receive shape): close()
        returns, the suspended result generator closes cleanly, and the
        next query is exact."""
        engine = EPPEngine(generate_iscas("s953"))
        backend = forced_sharded(engine, jobs=2)
        site_ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        reference = engine.vector_backend().pack_sites(site_ids)
        shards = [site_ids[:200], site_ids[200:]]
        results = backend._map_shards(shards, "packed")
        next(results)  # submit everything, deliver exactly one shard
        backend.close()  # teardown mid-flight
        assert not backend.pool_started
        results.close()  # the suspended generator's cleanup
        try:
            packed = backend.pack_sites(site_ids)
        finally:
            backend.close()
        assert all(np.array_equal(a, b) for a, b in zip(reference, packed))

    def test_failed_analysis_drains_undelivered_segments(self):
        """A worker exception mid-analysis surfaces as a typed error;
        close() still returns and the next query is exact."""
        engine = EPPEngine(generate_iscas("s953"))
        backend = forced_sharded(engine, jobs=2)
        good = [engine._cones.resolve(s) for s in engine.default_sites()]
        reference = engine.vector_backend().pack_sites(good)
        shards = [good, [10**9]]  # second shard raises in the worker
        results = backend._map_shards(shards, "packed")
        with pytest.raises(RetryBudgetExceededError):
            for _ in results:
                pass
        backend.close()
        assert not backend.pool_started
        results.close()
        try:
            packed = backend.pack_sites(good)
        finally:
            backend.close()
        assert all(np.array_equal(a, b) for a, b in zip(reference, packed))

    def test_pickle_transport_still_exact_and_counted(self):
        """Over a real pool every shard's packed arrays come back
        bit-equal to the vector backend's, and each shard and its array
        bytes are counted."""
        engine = EPPEngine(generate_iscas("s953"))
        backend = forced_sharded(engine, jobs=2)
        site_ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        shards, _ = backend._shards(site_ids)
        try:
            vector = engine.vector_backend().pack_sites(site_ids)
            packed = backend.pack_sites(site_ids)
            assert backend.pool_started
        finally:
            backend.close()
        assert all(np.array_equal(a, b) for a, b in zip(vector, packed))
        assert len(shards) > 1
        assert backend.stats["pickle_shards"] == len(shards)
        assert backend.stats["pickled_array_bytes"] > 0


_TRACKER_SCRIPT = """
import json, sys
from multiprocessing import resource_tracker
from repro.core.epp import EPPEngine
from repro.netlist.generate import generate_iscas

engine = EPPEngine(generate_iscas("s953"))
backend = engine.sharded_backend(jobs=2)
backend.min_process_work = 0
engine.analyze(backend="sharded", jobs=2)
backend.close()
print(json.dumps({
    "shards": len(backend.last_outcomes),
    "tracker_pid": resource_tracker._resource_tracker._pid,
    "shared_memory": "multiprocessing.shared_memory" in sys.modules,
}))
"""


class TestResourceTracker:
    @pytest.mark.skipif(
        preferred_mp_context().get_start_method() != "fork",
        reason="spawn contexts register semaphores with the tracker",
    )
    def test_sharded_run_starts_no_resource_tracker(self):
        """A forked pool run registers nothing with
        ``multiprocessing.resource_tracker``, so no tracker interpreter
        starts and none can warn about leaked objects at exit."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = (
            os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [sys.executable, "-c", _TRACKER_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.strip().splitlines()[-1])
        assert seen["shards"] > 0  # the pool really ran
        assert seen["tracker_pid"] is None
        assert not seen["shared_memory"]
        assert "resource_tracker" not in proc.stderr


class TestShardScheduling:
    def test_cone_schedule_results_in_input_order(self):
        """The cone-clustered partition permutes shards; results must come
        back keyed and ordered by the caller's site list."""
        engine = EPPEngine(generate_iscas("s953"))
        backend = engine.sharded_backend(jobs=2)
        backend.min_process_work = 0
        sites = engine.default_sites()
        try:
            sharded = engine.analyze(sites=sites, backend="sharded", jobs=2)
            site_ids = [engine._cones.resolve(s) for s in sites]
            p_many = backend.p_sensitized_many(site_ids)
        finally:
            backend.close()
        assert list(sharded) == sites
        vector = engine.analyze(sites=sites, backend="vector")
        assert_results_match(vector, sharded)
        assert np.abs(
            engine.vector_backend().p_sensitized_many(site_ids) - p_many
        ).max() <= TOL

    def test_sharded_compact_rows_matches_vector(self):
        """A sharded run (compacted sweeps in every worker) is bit-equal
        to the in-process vector sweep and to the dense oracle."""
        engine = EPPEngine(generate_iscas("s953"))
        ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        backend = forced_sharded(engine, jobs=2)
        try:
            sharded = backend.pack_sites(ids)
            assert backend.pool_started
        finally:
            backend.close()
        for reference in (engine.vector_backend().pack_sites(ids),
                          dense_backend(engine).pack_sites(ids)):
            for left, right in zip(reference, sharded):
                assert np.array_equal(left, right)

    def test_close_releases_local_buffers(self):
        engine = EPPEngine(generate_iscas("s953"))
        backend = forced_sharded(engine, jobs=2)
        engine.analyze(backend="sharded", jobs=2)
        engine.analyze(backend="vector")  # populate local buffers
        assert backend.local._compact_arenas
        assert backend.local._const is not None
        backend.close()
        assert not backend.local._compact_arenas
        assert backend.local._const is None


class TestCrossoverGuard:
    def test_small_circuits_never_pay_process_spinup(self):
        engine = EPPEngine(s27())
        backend = engine.sharded_backend(jobs=4)
        results = engine.analyze(backend="sharded", jobs=4)
        assert not backend.pool_started
        scalar = engine.analyze(backend="scalar")
        assert results.keys() == scalar.keys()
        for site in results:
            assert results[site].p_sensitized == pytest.approx(
                scalar[site].p_sensitized, abs=TOL)

    def test_single_job_stays_in_process_under_default_guard(self):
        engine = EPPEngine(generate_iscas("s953"))
        backend = engine.sharded_backend(jobs=1)
        engine.analyze(backend="sharded", jobs=1)
        assert not backend.pool_started

    def test_single_site_stays_in_process_under_default_guard(self):
        engine = EPPEngine(generate_iscas("s953"))
        backend = engine.sharded_backend(jobs=4)
        engine.analyze(sites=engine.default_sites()[:1], backend="sharded", jobs=4)
        assert not backend.pool_started

    def test_zero_min_process_work_forces_fanout_even_for_one_worker(self):
        """min_process_work=0 is an explicit force: even jobs=1 runs
        through the pool, so measurement harnesses never silently report
        in-process timings under a sharded label."""
        engine = EPPEngine(generate_iscas("s953"))
        backend = forced_sharded(engine, jobs=1)
        try:
            vector = engine.analyze(backend="vector")
            sharded = engine.analyze(backend="sharded", jobs=1)
            assert backend.pool_started
        finally:
            backend.close()
        assert_results_match(vector, sharded)

    def test_in_process_query_resets_last_outcomes(self):
        """``last_outcomes`` describes the most recent query: one the
        guard keeps in-process ran no shard, so it must not keep showing
        the previous pool call's records."""
        engine = EPPEngine(generate_iscas("s953"))
        ids = [engine.compiled.index[s] for s in engine.default_sites()]
        backend = engine.sharded_backend(jobs=2)
        guard = backend.min_process_work
        try:
            for in_process in (
                lambda: backend.pack_sites(ids),
                lambda: backend.p_sensitized_many(ids[:1]),
                lambda: backend.analyze_sites(ids),
            ):
                backend.min_process_work = 0
                backend.pack_sites(ids)
                assert backend.last_outcomes
                backend.min_process_work = guard
                in_process()
                assert backend.last_outcomes == []
        finally:
            backend.close()


class TestShardedSelection:
    def test_jobs_alone_selects_sharded(self):
        engine = EPPEngine(s27())
        results = engine.analyze(jobs=2)  # backend=None + jobs => sharded
        scalar = engine.analyze(backend="scalar")
        assert results.keys() == scalar.keys()
        for site in results:
            assert results[site].p_sensitized == pytest.approx(
                scalar[site].p_sensitized, abs=TOL)

    def test_jobs_with_non_sharded_backend_rejected(self):
        engine = EPPEngine(s27())
        with pytest.raises(AnalysisError, match="jobs="):
            engine.analyze(backend="vector", jobs=2)
        with pytest.raises(AnalysisError, match="jobs="):
            engine.analyze(backend="scalar", jobs=2)

    @pytest.mark.parametrize("bad", [0, -4])
    def test_invalid_jobs_rejected(self, bad):
        engine = EPPEngine(s27())
        with pytest.raises(AnalysisError, match="jobs"):
            engine.analyze(backend="sharded", jobs=bad)

    @pytest.mark.parametrize("backend", [None, "vector", "scalar"])
    def test_invalid_jobs_rejected_at_analyze_boundary(self, backend):
        """jobs < 1 fails with the jobs error before any backend is
        resolved or constructed — even paired with a non-sharded backend,
        where the mutual-exclusion error used to mask it."""
        engine = EPPEngine(s27())
        with pytest.raises(AnalysisError, match="jobs must be >= 1"):
            engine.analyze(backend=backend, jobs=0)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_invalid_batch_size_rejected_with_caller_local_backend(self, bad):
        """A caller-supplied local backend used to bypass batch_size
        validation entirely, shipping a zero/negative chunk width straight
        into every worker."""
        engine = EPPEngine(generate_iscas("s953"))
        with pytest.raises(AnalysisError, match="batch_size"):
            ShardedEPPEngine(
                engine.compiled, engine._sp, jobs=2, batch_size=bad,
                local_backend=engine.vector_backend(),
            )

    def test_worker_chunk_width_never_rounds_to_zero(self):
        """jobs far above the circuit's budgeted width: the divided
        per-worker chunk budget must clamp to >= 1 site per chunk."""
        engine = EPPEngine(generate_iscas("s953"))
        backend = ShardedEPPEngine(engine.compiled, engine._sp, jobs=4096)
        assert backend.worker_batch_size >= 1
        assert not backend.pool_started  # construction alone spawns nothing

    def test_analyzer_jobs_passthrough(self):
        circuit = generate_iscas("s953")
        vector_report = SERAnalyzer(circuit).analyze(backend="vector")
        analyzer = SERAnalyzer(circuit)
        with forced_sharded(analyzer.engine, jobs=2):
            sharded_report = analyzer.analyze(backend="sharded", jobs=2)
        assert sharded_report.nodes.keys() == vector_report.nodes.keys()
        for site in vector_report.nodes:
            assert sharded_report.nodes[site].fit == pytest.approx(
                vector_report.nodes[site].fit, rel=1e-9)

    def test_backend_cache_keyed_by_jobs(self):
        engine = EPPEngine(s27())
        first = engine.sharded_backend(jobs=2)
        assert engine.sharded_backend(jobs=2) is first
        second = engine.sharded_backend(jobs=3)
        assert second is not first
        assert second.jobs == 3

    def test_backend_cache_keyed_by_batch_size(self):
        """An explicit batch_size — even one equal to the derived default —
        must not reuse a pool whose workers chunk at the divided width."""
        engine = EPPEngine(s27())
        defaulted = engine.sharded_backend(jobs=2)
        explicit = engine.sharded_backend(jobs=2, batch_size=defaulted.batch_size)
        assert explicit is not defaulted
        assert explicit.worker_batch_size == defaulted.batch_size
        assert engine.sharded_backend(jobs=2, batch_size=defaulted.batch_size) is explicit


class TestWorkerPlanCache:
    """Worker-side plan/cone-index reuse: each worker builds its backend
    once."""

    def test_repeated_shard_submissions_plan_once_per_worker(self):
        """Two full analyses plus a bulk query over one pool: every worker
        runs several shard tasks, yet builds its backend (plan + cone
        index) at most once — the ``plans_built`` counter pins it."""
        engine = EPPEngine(generate_iscas("s953"))
        backend = forced_sharded(engine, jobs=2)
        site_ids = [engine._cones.resolve(s) for s in engine.default_sites()]
        try:
            engine.analyze(backend="sharded", jobs=2)
            engine.analyze(backend="sharded", jobs=2)  # resubmission
            backend.p_sensitized_many(site_ids)
            stats = backend.worker_stats()
        finally:
            backend.close()
        assert stats  # every worker answered
        for counters in stats.values():
            assert counters["plans_built"] <= 1
        # The pool as a whole really planned somewhere (tasks ran).
        assert sum(c["plans_built"] for c in stats.values()) >= 1

    def test_warm_builds_the_plan_before_timed_regions(self):
        """warm() must leave every worker with its backend already built
        (plans_built == 1), so a subsequently timed sweep never pays
        planning."""
        engine = EPPEngine(generate_iscas("s953"))
        backend = forced_sharded(engine, jobs=2)
        try:
            backend.warm()
            stats = backend.worker_stats()
        finally:
            backend.close()
        assert stats
        for counters in stats.values():
            assert counters["plans_built"] == 1

    def test_worker_backend_keeps_auto_prune(self):
        """The payload ships the worker chunk width and nothing else: a
        worker rebuilding its backend from it sweeps at that width, for
        the default width and an explicit one alike."""
        import pickle

        import repro.core.epp_shard as shard_module
        from repro.core.epp_shard import _shard_worker_init, _worker_backend

        engine = EPPEngine(generate_iscas("s953"))
        for batch_size in (None, 7):
            backend = engine.sharded_backend(jobs=2, batch_size=batch_size)
            config = pickle.loads(backend.payload())["config"]
            assert sorted(config) == ["batch_size", "version"]
            assert config["batch_size"] == backend.worker_batch_size
            _shard_worker_init(backend.payload())
            try:
                worker_backend = _worker_backend()
                assert worker_backend.batch_size == backend.worker_batch_size
                assert _worker_backend() is worker_backend  # built once
            finally:
                _shard_worker_init(None)
                shard_module._WORKER_STATS["plans_built"] = 0

    def test_payload_key_is_content_derived(self):
        """Same engine => stable key; different sweep knobs => different
        payload bytes => different checkpoint run key."""
        engine = EPPEngine(generate_iscas("s953"))
        default = engine.sharded_backend(jobs=2)
        key = default.payload_key()
        assert key == default.payload_key()
        narrow = engine.sharded_backend(jobs=2, batch_size=7)
        assert narrow.payload_key() != key


class TestPoolLifecycle:
    def test_pool_reused_across_calls_and_respawns_after_close(self):
        engine = EPPEngine(generate_iscas("s953"))
        backend = forced_sharded(engine, jobs=2)
        first = engine.analyze(backend="sharded", jobs=2)
        pool = backend._pool
        assert pool is not None
        engine.analyze(backend="sharded", jobs=2)
        assert backend._pool is pool  # reused, not respawned
        backend.close()
        assert not backend.pool_started
        backend.close()  # idempotent
        again = engine.analyze(backend="sharded", jobs=2)  # respawns cleanly
        assert backend.pool_started
        assert_results_match(first, again)
        backend.close()

    def test_warm_actually_forks_workers(self):
        """warm() must defeat the executor's lazy spawning: all workers
        exist (payload unpickled, plans rebuilt) before any timed call."""
        engine = EPPEngine(generate_iscas("s953"))
        backend = forced_sharded(engine, jobs=2)
        try:
            backend.warm()
            assert backend.pool_started
            processes = getattr(backend._pool, "_processes", None)
            assert processes is not None
            assert len(processes) >= 2
        finally:
            backend.close()

    def test_payload_pickled_once(self):
        engine = EPPEngine(generate_iscas("s953"))
        backend = engine.sharded_backend(jobs=2)
        assert backend.payload() is backend.payload()  # cached bytes

    def test_empty_site_list(self):
        engine = EPPEngine(generate_iscas("s953"))
        backend = forced_sharded(engine, jobs=2)
        assert [len(column) for column in backend.analyze_sites([])] == [0, 0]
        assert not backend.pool_started


class TestPartition:
    def test_contiguous_balanced_partition(self):
        items = list(range(10))
        shards = partition_shards(items, 3)
        assert [len(s) for s in shards] == [4, 3, 3]
        assert [x for shard in shards for x in shard] == items

    def test_more_shards_than_items(self):
        shards = partition_shards([1, 2], 8)
        assert shards == [[1], [2]]

    def test_single_shard(self):
        assert partition_shards([1, 2, 3], 1) == [[1, 2, 3]]
