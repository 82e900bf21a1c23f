"""Fault tolerance of the sharded EPP driver (PR 6).

Every recovery path is pinned against the *same* invariant: per-column
shard independence makes shards exactly re-runnable, so an analysis that
survived an injected worker crash, a wedged worker past its deadline or a
mid-kernel exception must be ``np.array_equal`` — bit-identical, not
approximately equal — to a clean run.  The faults come from
:mod:`repro.testing.faults`, a seeded injector threaded into the worker
pool's initializer, so the failure schedule is deterministic run to run.

Test names deliberately carry "crash": the CI fast job's
fault-injection smoke selects them with ``-k``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.analysis import SERAnalyzer
from repro.core.config import DEFAULT_RETRIES, AnalysisConfig
from repro.core.epp import EPPEngine
from repro.core.epp_shard import ShardedEPPEngine
from repro.core.resilience import Deadline, ShardOutcome, backoff_delay
from repro.errors import (
    AnalysisConfigError,
    AnalysisError,
    ConfigError,
    ReproError,
    ResilienceError,
    RetryBudgetExceededError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.netlist.generate import generate_iscas
from repro.testing import FaultInjector, FaultSpec, InjectedFault
from tests.helpers import kill_idle_worker


def chaos_backend(engine: EPPEngine, jobs: int = 2, **knobs) -> ShardedEPPEngine:
    """A sharded driver with the crossover guard disabled so worker
    processes are exercised even on circuits below the threshold."""
    backend = engine.sharded_backend(jobs=jobs, **knobs)
    backend.min_process_work = 0
    return backend


def _exit_worker(delay: float) -> None:
    """A barrier task that kills the worker running it."""
    os._exit(1)


@pytest.fixture(scope="module")
def s953():
    engine = EPPEngine(generate_iscas("s953"))
    site_ids = [engine._cones.resolve(s) for s in engine.default_sites()]
    with chaos_backend(engine) as clean:
        reference = clean.p_sensitized_many(site_ids)
    return engine, site_ids, reference


# ------------------------------------------------------------------ policy


class TestFaultPolicy:
    """The recovery policy: the three ``AnalysisConfig`` knobs (one
    validator) and the fixed backoff schedule."""

    def test_defaults_and_max_attempts(self):
        config = AnalysisConfig()
        assert config.retries is None
        assert config.shard_timeout is None and config.deadline is None
        assert DEFAULT_RETRIES == 2  # three submissions per shard

    def test_from_knobs_none_means_default(self):
        assert AnalysisConfig.from_knobs() == AnalysisConfig()
        assert AnalysisConfig.from_knobs(retries=0).retries == 0
        assert AnalysisConfig.from_knobs(shard_timeout=1.5).shard_timeout == 1.5

    @pytest.mark.parametrize(
        "bad",
        [
            {"retries": -1},
            # Types are refused by name, never coerced into a valid value.
            {"retries": True},
            {"shard_timeout": "1.5"},
            {"deadline": float("nan")},
            {"shard_timeout": 0.0},
            {"deadline": -1.0},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(AnalysisConfigError):
            AnalysisConfig(**bad)

    def test_backoff_deterministic_and_bounded(self):
        schedule = [backoff_delay(3, attempt) for attempt in range(1, 9)]
        again = [backoff_delay(3, attempt) for attempt in range(1, 9)]
        assert schedule == again  # a pure function of (shard, attempt)
        # Exponential below the 2 s cap, capped (plus jitter) above it.
        assert 0.05 <= schedule[0] <= 0.05 * 1.25
        assert 0.10 <= schedule[1] <= 0.10 * 1.25
        assert all(delay <= 2.0 * 1.25 for delay in schedule)
        assert 2.0 <= schedule[-1]
        # Different shards jitter differently (no retry stampede).
        assert backoff_delay(0, 1) != backoff_delay(1, 1)
        assert backoff_delay(0, 0) == 0.0  # the first submission never waits
        # The schedule is pinned bit for bit.
        assert [backoff_delay(0, k) for k in (1, 2, 3, 7)] == [
            0.05766432639713848,
            0.11136131446042984,
            0.2460846173411707,
            2.371973862816267,
        ]

    def test_deadline_countdown(self):
        unbounded = Deadline(None)
        assert unbounded.remaining() is None
        assert not unbounded.expired()
        expired = Deadline(1e-9)
        time.sleep(0.001)
        assert expired.expired()
        assert expired.remaining() == 0.0

    def test_deadline_clamps_negative_budget(self):
        # "Less than no time" reads as already expired: the clamp keeps
        # consumers doing their own budget arithmetic (the server's
        # queue accounting) from ever seeing a negative remainder.
        clamped = Deadline(-5.0)
        assert clamped.budget == 0.0
        assert clamped.expired()
        assert clamped.remaining() == 0.0

    @pytest.mark.parametrize(
        "bad",
        [
            {"shard_timeout": 0.0},
            {"shard_timeout": -1.0},
            {"deadline": 0.0},
            {"deadline": -2.5},
            {"retries": -1},
        ],
    )
    def test_from_knobs_rejects_bad_values_as_config_errors(self, bad):
        # User-facing flag values are rejected with a ConfigError naming
        # the flag (AnalysisConfigError is also an AnalysisError).
        with pytest.raises(ConfigError, match="--"):
            AnalysisConfig.from_knobs(**bad)


# ---------------------------------------------------------------- injector


class TestFaultInjector:
    def test_spec_validation(self):
        with pytest.raises(AnalysisError, match="unknown fault kind"):
            FaultSpec(kind="meteor")
        with pytest.raises(AnalysisError, match="probability"):
            FaultSpec(kind="crash", probability=2.0)

    def test_exact_and_wildcard_matching(self):
        injector = FaultInjector(
            specs=(FaultSpec(kind="kernel_error", shard=2, attempt=1),)
        )
        assert injector.matching(2, 1)
        assert not injector.matching(2, 2)  # retry is clean
        assert not injector.matching(1, 1)  # other shards clean
        anywhere = FaultInjector(
            specs=(FaultSpec(kind="kernel_error", shard=None, attempt=None),)
        )
        assert anywhere.matching(5, 3)

    def test_probability_is_seeded(self):
        injector = FaultInjector(
            specs=(FaultSpec(kind="kernel_error", shard=None,
                             attempt=None, probability=0.5),),
            seed=42,
        )
        decisions = [bool(injector.matching(shard, 1))
                     for shard in range(32)]
        assert decisions == [bool(injector.matching(shard, 1))
                             for shard in range(32)]  # replayable
        assert any(decisions) and not all(decisions)  # a real coin

    def test_kernel_error_fires(self):
        injector = FaultInjector(specs=(FaultSpec(kind="kernel_error"),))
        with pytest.raises(InjectedFault):
            injector.fire(0, 1)
        injector.fire(0, 2)  # attempt 2: clean

    def test_injector_pickles(self):
        import pickle

        injector = FaultInjector(
            specs=(FaultSpec(kind="crash", shard=1),), seed=3
        )
        assert pickle.loads(pickle.dumps(injector)) == injector


# ------------------------------------------------------------- typed errors


class TestTypedErrors:
    def test_hierarchy(self):
        for cls in (WorkerCrashError, ShardTimeoutError,
                    RetryBudgetExceededError):
            assert issubclass(cls, ResilienceError)
            assert issubclass(cls, AnalysisError)
            assert issubclass(cls, ReproError)

    def test_site_ids_truncated_in_message_complete_on_attribute(self):
        error = WorkerCrashError(
            "worker died", site_ids=tuple(range(10)), attempts=2,
            worker_pid=1234,
        )
        assert error.site_ids == tuple(range(10))
        assert "+6" in str(error)  # 4 shown, 6 elided
        assert "attempt 2" in str(error)
        assert "worker pid 1234" in str(error)

    def test_timeout_suffix(self):
        error = ShardTimeoutError("shard too slow", timeout=1.5)
        assert error.timeout == 1.5
        assert "after 1.5s" in str(error)


# ------------------------------------------------------- crash recovery


class TestWorkerCrashRecovery:
    def test_crash_recovers_bit_identical(self, s953):
        engine, site_ids, reference = s953
        injector = FaultInjector(
            specs=(FaultSpec(kind="crash", shard=1, attempt=1),)
        )
        with chaos_backend(engine, fault_injector=injector) as backend:
            recovered = backend.p_sensitized_many(site_ids)
            assert np.array_equal(reference, recovered)
            assert backend.stats["worker_crashes"] == 1
            assert backend.stats["respawns"] == 1
            assert backend.stats["retries"] >= 1
            # Exactly-once merge: one outcome per shard, no duplicates.
            outcomes = backend.last_outcomes
            assert sorted(o.shard for o in outcomes) == list(range(len(outcomes)))
            assert any(o.attempts > 1 for o in outcomes)

    def test_crash_mid_analyze_sites_recovers(self, s953):
        engine, site_ids, _ = s953
        injector = FaultInjector(
            specs=(FaultSpec(kind="crash", shard=0, attempt=1),)
        )
        with chaos_backend(engine) as clean:
            reference = clean.analyze_sites(site_ids)
        with chaos_backend(engine, fault_injector=injector) as backend:
            recovered = backend.analyze_sites(site_ids)
        assert list(reference) == list(recovered)
        for site, expected in reference.items():
            assert recovered[site].p_sensitized == expected.p_sensitized

    def test_crash_with_no_retries_is_typed(self, s953):
        engine, site_ids, _ = s953
        injector = FaultInjector(
            specs=(FaultSpec(kind="crash", shard=0, attempt=1),)
        )
        with chaos_backend(
            engine, fault_injector=injector, retries=0
        ) as backend:
            with pytest.raises(RetryBudgetExceededError) as info:
                backend.p_sensitized_many(site_ids)
            assert info.value.site_ids  # carries the shard's sites
            assert info.value.attempts == 1
            assert isinstance(info.value.__cause__, WorkerCrashError)

    @pytest.mark.parametrize("retries", [1, None], ids=["retries=1", "default"])
    def test_crash_every_attempt_exhausts_budget(self, s953, retries):
        engine, site_ids, _ = s953
        injector = FaultInjector(
            specs=(FaultSpec(kind="crash", shard=0, attempt=None),)
        )
        with chaos_backend(
            engine, fault_injector=injector, retries=retries
        ) as backend:
            with pytest.raises(RetryBudgetExceededError) as info:
                backend.p_sensitized_many(site_ids)
            # First try + the retries (DEFAULT_RETRIES when omitted).
            budget = DEFAULT_RETRIES if retries is None else retries
            assert info.value.attempts == budget + 1
            # Each attempt of shard 0 broke the pool once.  (``retries``
            # counts every in-flight shard a break charged, so it only
            # bounds the budget from above.)
            assert backend.stats["worker_crashes"] == budget + 1
            assert backend.stats["respawns"] == budget + 1
            assert backend.stats["retries"] >= budget

    def test_idle_worker_crash_recovers_at_submission(self, s953):
        """A worker killed while the pool sits idle leaves the executor
        broken before the next query submits a shard.  Submission must
        take the broken-pool path (respawn, retry), not raise a raw
        ``BrokenProcessPool`` from this and every later call."""
        engine, site_ids, reference = s953
        with chaos_backend(engine) as backend:
            backend.warm(timeout=30.0)
            kill_idle_worker(backend)
            recovered = backend.p_sensitized_many(site_ids)
            assert np.array_equal(reference, recovered)
            assert backend.stats["worker_crashes"] == 1
            assert backend.stats["respawns"] == 1
            assert np.array_equal(reference, backend.p_sensitized_many(site_ids))

    def test_idle_worker_crash_recovers_at_warm_barrier(self, s953):
        """``warm()`` on a pool whose idle worker died respawns the pool
        and warms the new one, instead of raising a raw
        ``BrokenProcessPool`` from this and every later barrier."""
        engine, _, _ = s953
        with ShardedEPPEngine(engine.compiled, engine._sp, jobs=2) as backend:
            backend.warm(timeout=30.0)
            kill_idle_worker(backend)
            backend.warm(10.0)
            assert backend.stats["worker_crashes"] == 1
            assert backend.stats["respawns"] == 1
            stats = backend.worker_stats(10.0)
            assert len(stats) == backend.jobs
            assert all(entry["plans_built"] == 1 for entry in stats.values())
            assert backend.stats["respawns"] == 1

    def test_idle_worker_crash_recovers_at_worker_stats_barrier(self, s953):
        engine, _, _ = s953
        with ShardedEPPEngine(engine.compiled, engine._sp, jobs=2) as backend:
            backend.warm(timeout=30.0)
            kill_idle_worker(backend)
            assert len(backend.worker_stats(10.0)) == backend.jobs
            assert backend.stats["worker_crashes"] == 1
            assert backend.stats["respawns"] == 1
            backend.warm(10.0)
            stats = backend.worker_stats(10.0)
            assert len(stats) == backend.jobs
            assert all(entry["plans_built"] == 1 for entry in stats.values())
            assert backend.stats["respawns"] == 1

    def test_barrier_crash_on_every_round_is_typed(self, s953, monkeypatch):
        """A pool that breaks on every barrier round raises a typed
        ``WorkerCrashError`` (three respawns), never a raw
        ``BrokenProcessPool``."""
        import repro.core.epp_shard as shard_module

        engine, _, _ = s953
        monkeypatch.setattr(shard_module, "_worker_warmup", _exit_worker)
        with ShardedEPPEngine(engine.compiled, engine._sp, jobs=2) as backend:
            with pytest.raises(WorkerCrashError, match="every round"):
                backend.warm(10.0)
            assert backend.stats["worker_crashes"] == 3
            assert backend.stats["respawns"] == 3

    def test_pool_respawns_from_cached_payload(self, s953):
        """After a crash the next analysis reuses the engine — the pool
        rebuilds lazily from the cached payload, no re-pickling."""
        engine, site_ids, reference = s953
        injector = FaultInjector(
            specs=(FaultSpec(kind="crash", shard=1, attempt=1),)
        )
        with chaos_backend(engine, fault_injector=injector) as backend:
            payload_before = backend.payload()
            backend.p_sensitized_many(site_ids)
            assert backend.payload() is payload_before
            again = backend.p_sensitized_many(site_ids)
            assert np.array_equal(reference, again)


# --------------------------------------------------- kernel-error retries


class TestKernelErrorRetry:
    def test_kernel_error_retried_bit_identical(self, s953):
        engine, site_ids, reference = s953
        injector = FaultInjector(
            specs=(FaultSpec(kind="kernel_error", shard=2, attempt=1),)
        )
        with chaos_backend(engine, fault_injector=injector) as backend:
            recovered = backend.p_sensitized_many(site_ids)
            assert np.array_equal(reference, recovered)
            assert backend.stats["shard_errors"] == 1
            assert backend.stats["retries"] == 1
            assert backend.stats["respawns"] == 0  # no pool break

    @pytest.mark.parametrize("retries", [0, 1], ids=["retries=0", "retries=1"])
    def test_budget_exhaustion_raises_typed_error(self, s953, retries):
        # retries=0 is fail-fast: the first in-worker error ends the
        # query, typed, with the worker's own error as its cause.
        engine, site_ids, _ = s953
        injector = FaultInjector(
            specs=(FaultSpec(kind="kernel_error", shard=1, attempt=None),)
        )
        with chaos_backend(
            engine, fault_injector=injector, retries=retries
        ) as backend:
            with pytest.raises(RetryBudgetExceededError) as info:
                backend.p_sensitized_many(site_ids)
            assert isinstance(info.value.__cause__, InjectedFault)
            assert info.value.attempts == retries + 1
            assert backend.stats["retries"] == retries


# ------------------------------------------------------ deadlines / stalls


class TestDeadlines:
    def test_stalled_shard_times_out_and_recovers(self, s953):
        """A worker stalled far past the per-shard deadline: the wedged
        pool is respawned (the executor cannot kill one task) and the
        shard re-runs — attempt 2 is clean — bit-identical."""
        engine, site_ids, reference = s953
        injector = FaultInjector(
            specs=(FaultSpec(kind="stall", shard=0, attempt=1, stall_s=15.0),)
        )
        with chaos_backend(
            engine, fault_injector=injector, shard_timeout=0.5, retries=3
        ) as backend:
            started = time.monotonic()
            recovered = backend.p_sensitized_many(site_ids)
            elapsed = time.monotonic() - started
            assert np.array_equal(reference, recovered)
            assert backend.stats["shard_timeouts"] >= 1
            assert backend.stats["respawns"] >= 1
            assert elapsed < 10.0  # the deadline, not the stall, ruled

    def test_global_deadline_raises_typed_error(self, s953):
        engine, site_ids, _ = s953
        with chaos_backend(engine, deadline=1e-6) as backend:
            with pytest.raises(ShardTimeoutError, match="deadline expired"):
                backend.p_sensitized_many(site_ids)


# ------------------------------------------------------- barrier timeouts


class TestBarrierTimeouts:
    def test_worker_stats_times_out_on_wedged_pool(self, s953):
        """The PR-5 hang: a wedged worker made worker_stats() block
        forever.  Now the barrier gives up and raises."""
        engine, _, _ = s953
        backend = chaos_backend(engine, jobs=1)
        try:
            pool = backend._ensure_pool()
            blocker = pool.submit(time.sleep, 2.0)  # wedge the only worker
            with pytest.raises(ShardTimeoutError, match="barrier"):
                backend.worker_stats(timeout=0.3)
            blocker.cancel()
        finally:
            backend.close()

    def test_warm_times_out_on_wedged_pool(self, s953):
        engine, _, _ = s953
        backend = chaos_backend(engine, jobs=1)
        try:
            pool = backend._ensure_pool()
            blocker = pool.submit(time.sleep, 2.0)
            with pytest.raises(ShardTimeoutError, match="warmup"):
                backend.warm(timeout=0.3)
            blocker.cancel()
        finally:
            backend.close()

    def test_healthy_pool_barriers_still_work(self, s953):
        engine, _, _ = s953
        with chaos_backend(engine, jobs=2) as backend:
            backend.warm(timeout=30.0)
            stats = backend.worker_stats(timeout=30.0)
            assert len(stats) == 2


# ---------------------------------------------------------------- close


class TestDrainSplit:
    """Teardown: close() is idempotent and serialized under its lock."""

    def test_close_is_idempotent(self, s953):
        engine, site_ids, reference = s953
        backend = chaos_backend(engine)
        assert np.array_equal(backend.p_sensitized_many(site_ids), reference)
        backend.close()
        backend.close()  # second close: nothing left to tear down
        assert not backend.pool_started
        # The pool respawns on next use: close is teardown, not poison.
        assert np.array_equal(backend.p_sensitized_many(site_ids), reference)
        backend.close()

    def test_concurrent_close_single_teardown(self, s953):
        """Racing closers (server drain + with-exit + finalizer) must
        serialize: exactly one shuts the pool down and no thread sees a
        half-torn pool."""
        import threading

        engine, site_ids, _ = s953
        for _ in range(3):  # a few rounds to give a real race a chance
            backend = chaos_backend(engine)
            shards = [site_ids[:200], site_ids[200:]]
            results = backend._map_shards(shards, full=True)
            next(results)  # leave one shard's result in flight
            barrier = threading.Barrier(6)
            errors = []

            def closer():
                try:
                    barrier.wait(timeout=10)
                    backend.close()
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [threading.Thread(target=closer) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            assert all(not thread.is_alive() for thread in threads)
            assert not backend.pool_started
            results.close()


# ------------------------------------------------------- knob threading


class TestKnobThreading:
    def test_engine_rejects_knobs_off_the_sharded_backend(self, s953):
        engine, _, _ = s953
        with pytest.raises(AnalysisError, match="sharded"):
            engine.analyze(backend="vector", retries=1)
        with pytest.raises(AnalysisError, match="sharded"):
            engine.analyze(backend="scalar", shard_timeout=1.0)

    def test_engine_cache_keyed_by_policy(self, s953):
        engine, _, _ = s953
        first = engine.sharded_backend(jobs=2, retries=1)
        assert first.config.retries == 1
        same = engine.sharded_backend(jobs=2, retries=1)
        assert same is first
        rebuilt = engine.sharded_backend(jobs=2, retries=5)
        assert rebuilt is not first
        assert rebuilt.config.retries == 5
        # None means the default: an explicit default reuses the pool.
        defaulted = engine.sharded_backend(jobs=2)
        explicit = engine.sharded_backend(jobs=2, retries=DEFAULT_RETRIES)
        assert explicit is defaulted
        defaulted.close()

    def test_deadline_does_not_rebuild_the_pool(self):
        # The global deadline is a per-call budget, not part of the
        # pool's identity: sweeps that differ only in it share one
        # driver and its worker processes.
        engine = EPPEngine(generate_iscas("s953"))
        backend = chaos_backend(engine, deadline=30.0)
        try:
            first = engine.snapshot(jobs=2, deadline=30.0)
            assert backend.last_outcomes  # the sweep ran on the pool
            pids = set(backend.worker_stats())
            second = engine.snapshot(jobs=2, deadline=45.0)
            assert engine._sharded_backend is backend
            assert backend.last_outcomes
            assert set(backend.worker_stats()) == pids
            assert backend.stats["respawns"] == 0
            assert np.array_equal(first.p_sensitized, second.p_sensitized)
        finally:
            backend.close()

    def test_reused_pool_honours_each_calls_deadline(self):
        engine = EPPEngine(generate_iscas("s953"))
        backend = chaos_backend(engine, deadline=30.0)
        try:
            engine.snapshot(jobs=2, deadline=30.0)
            with pytest.raises(ShardTimeoutError, match="deadline expired"):
                engine.snapshot(jobs=2, deadline=1e-6)
            assert engine._sharded_backend is backend
        finally:
            backend.close()

    def test_analyzer_threads_resilience_knobs(self):
        analyzer = SERAnalyzer(generate_iscas("s953"))
        report = analyzer.analyze(jobs=2, retries=1, shard_timeout=60.0)
        assert report.total_fit > 0
        backend = analyzer.engine._sharded_backend
        assert backend.config.retries == 1
        assert backend.config.shard_timeout == 60.0

    def test_cli_resilience_flags(self, capsys):
        from repro.cli import main

        assert main([
            "analyze", "s953", "--jobs", "2",
            "--retries", "1", "--shard-timeout", "60", "--top", "3",
        ]) == 0
        assert "SER" in capsys.readouterr().out

    def test_stats_expose_resilience_counters(self, s953):
        engine, site_ids, _ = s953
        with chaos_backend(engine) as backend:
            backend.p_sensitized_many(site_ids)
            for counter in ("retries", "respawns", "worker_crashes",
                            "shard_timeouts"):
                assert backend.stats[counter] == 0  # clean run
            assert all(
                isinstance(o, ShardOutcome) and o.attempts == 1
                for o in backend.last_outcomes
            )
