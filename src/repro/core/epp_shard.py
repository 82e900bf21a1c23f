"""Sharded multi-process EPP: the full-circuit analysis fanned out over workers.

The batch backend (:mod:`repro.core.epp_batch`) removed the Python
interpreter from the per-gate hot loop; what remains on large circuits is a
single process saturating one core with NumPy sweeps.  This module removes
the single-process ceiling: :class:`ShardedEPPEngine` partitions the site
list into contiguous shards and fans them out across a
``ProcessPoolExecutor``, each worker running the *existing*
:class:`~repro.core.epp_batch.BatchEPPBackend` sweep over its shard.

Design
------
* **One pickled payload, unpickled once per worker.**  The compiled
  circuit (stripped of its cached execution plans — see
  ``CompiledCircuit.__getstate__``), the signal-probability vector and the
  backend knobs are pickled exactly once in the parent and shipped through
  the executor *initializer*; each worker rebuilds its
  :class:`~repro.core.epp_batch.BatchPlan` locally.  Per-task traffic is
  just the shard's site-id list.
* **Compact wire format, one transport.**  Workers return flat NumPy
  arrays, never per-site objects, through the executor's pickle channel,
  in one of two result kinds: ``"columns"`` — the backend's
  ``analyze_sites`` pair ``(p_sensitized, cone_sizes)``, what every SER
  ``analyze``, ``snapshot`` and delta reads — or ``"packed"`` — its
  five-array ``pack_sites`` tuple, what ``EPPEngine.analyze``
  materializes into per-site results.  Per-shard traffic is tallied
  in :attr:`ShardedEPPEngine.stats` (``pickle_shards``/
  ``pickled_array_bytes``).  The parent writes each shard's columns into
  their input rows as the shard arrives, while the rest are still
  sweeping; packed shards are written straight into their input rows
  once all have arrived, each dropped as it is written.
* **Cone-clustered shards.**  A site list spanning more than one worker
  chunk is ordered by :func:`~repro.core.schedule.cone_cluster_order`
  before the contiguous partition, so each shard's sites share fanout
  cones and every worker's compacted union-of-cones sweeps stay small.
  Results are restored to input order in the parent.
* **Column independence makes sharding exact.**  Every site occupies its
  own state-matrix column and no kernel mixes columns, so neither the
  shard partition nor the cone-clustered permutation can change any
  result: sharded output is bit-identical to the vector backend per site
  (and therefore within the same 1e-9 envelope of the scalar oracle the
  equivalence suite pins).
* **Crossover guard.**  Small workloads (``n_nodes * n_sites`` below
  ``min_process_work``), single-job configurations and single-site calls
  run on the in-process vector backend — an s27-sized circuit never pays
  process spin-up.  Both sides run the same sweep, so the guard chooses
  between two bit-identical runs, never between numeric paths.
* **Fault tolerance.**  Column independence makes every shard *exactly
  re-runnable*, so the driver recovers from failures without perturbing
  results: a broken pool (crashed/OOMed worker) is respawned from the
  cached payload and only *unfinished* shards are re-submitted —
  delivered shard results are kept, the merge stays exactly-once.  Slow
  shards are re-enqueued with deterministic seeded backoff once past
  their per-shard deadline (a wedged worker is killed by respawning the
  pool).  A shard that exhausts its retry budget, or an analysis past
  its global deadline, raises a typed error (:mod:`repro.errors`); what
  happens next is the caller's decision — the analysis service re-runs
  the request on the in-process vector backend behind its circuit
  breaker.  Every recovery is ``np.array_equal`` to a clean run;
  :mod:`repro.testing.faults` is the seeded harness that proves it.

Selection: ``EPPEngine.analyze(backend="sharded", jobs=4)`` (CLI:
``--backend sharded --jobs 4``); passing ``jobs=`` alone implies the
sharded backend.  Resilience knobs: ``retries=``, ``shard_timeout=``,
``deadline=`` (CLI: ``--retries``, ``--shard-timeout``; ``repro serve
--request-deadline``).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.core.config import DEFAULT_RETRIES
from repro.core.resilience import Deadline, ShardOutcome, backoff_delay
from repro.errors import (
    RetryBudgetExceededError,
    ShardTimeoutError,
    WorkerCrashError,
)

__all__ = [
    "ShardedEPPEngine",
    "default_jobs",
    "partition_shards",
    "preferred_mp_context",
    "recovery_knobs",
]

#: Below this ``n_nodes * n_sites`` product the whole call runs on the
#: in-process vector backend: process spin-up plus payload transfer costs
#: on the order of 100 ms, which a sub-second sweep cannot amortize.  The
#: threshold sits between s1423-sized full-circuit runs (~0.7M, fastest
#: in-process) and s9234-sized runs (~35M, where sharding is the point).
_MIN_PROCESS_WORK = 4_000_000

#: Shards per worker.  Cone sizes vary wildly across a circuit, so handing
#: every worker exactly one shard invites stragglers; a few shards per
#: worker lets the executor rebalance without shrinking shards so far that
#: per-task overhead shows.
_SHARDS_PER_WORKER = 4


def default_jobs() -> int:
    """Worker count when ``jobs`` is not given: one per available core."""
    return os.cpu_count() or 1


def preferred_mp_context():
    """The cheapest multiprocessing context this platform offers.

    ``fork`` inherits the parent image — payload bytes land in the child
    for free and spin-up is milliseconds; spawn/forkserver platforms
    re-import and unpickle, which the initializer designs support
    identically.  Shared by the sharded driver and the table2 roster pool
    (:mod:`repro.experiments.table2`), so every pool in the tree picks
    workers the same way.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def partition_shards(items: list, n_shards: int) -> list[list]:
    """Split ``items`` into at most ``n_shards`` contiguous, balanced runs.

    Contiguity keeps the merged result dict in input order (shards are
    collected out of order but merged in shard order); balance keeps the
    largest shard within one item of the smallest.
    """
    n = len(items)
    n_shards = max(1, min(n_shards, n))
    base, extra = divmod(n, n_shards)
    shards = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        shards.append(items[start : start + size])
        start += size
    return shards


def recovery_knobs(config) -> tuple:
    """``(retries, shard_timeout)`` of an
    :class:`~repro.core.config.AnalysisConfig`, ``None`` resolved to the
    default (:data:`~repro.core.config.DEFAULT_RETRIES` retries, no
    per-shard deadline).

    The retry policy the driver's scheduler runs under, and so part of
    the sharded backend's identity in the engine cache: ``retries=None``
    and ``retries=2`` share one pool.  The global ``deadline`` is not
    part of it: it is a per-call budget, and a warm pool serves any.
    """
    return (
        DEFAULT_RETRIES if config.retries is None else int(config.retries),
        config.shard_timeout,
    )


# --------------------------------------------------------------------- worker

#: This pool's pickled payload, stashed by the initializer; the backend
#: itself is built lazily by :func:`_worker_backend`.
_WORKER_PAYLOAD: bytes | None = None

#: The worker's backend, built from :data:`_WORKER_PAYLOAD` at most once.
#: A worker runs its pool's initializer once, so it only ever sees one
#: payload; :data:`_WORKER_STATS` counts the builds so tests can pin that
#: a long-lived pool serving many shards plans once per worker.
_WORKER_BACKEND = None
_WORKER_STATS = {"plans_built": 0}

#: The pool's :class:`~repro.testing.faults.FaultInjector`, if any —
#: ``None`` in production pools.  Consulted by :func:`_run_shard` before
#: the sweep of every shard attempt.
_WORKER_INJECTOR = None


def _shard_worker_init(payload: bytes, injector=None) -> None:
    """Executor initializer: stash the payload; planning happens lazily."""
    global _WORKER_PAYLOAD, _WORKER_BACKEND, _WORKER_INJECTOR
    _WORKER_PAYLOAD = payload
    _WORKER_BACKEND = None
    _WORKER_INJECTOR = injector


def _worker_backend():
    """This worker's backend for the pool's circuit, built at most once
    from the pool payload.

    A shard is a contiguous run of the parent's cone-clustered order, so
    the backend's own scheduler finds nothing to reorder and sweeps it
    as it arrived.
    """
    global _WORKER_BACKEND
    if _WORKER_BACKEND is None:
        from repro.core.config import AnalysisConfig
        from repro.core.epp_batch import BatchEPPBackend

        fields = pickle.loads(_WORKER_PAYLOAD)
        _WORKER_BACKEND = BatchEPPBackend(
            fields["compiled"],
            fields["signal_probs"],
            batch_size=AnalysisConfig.from_wire(fields["config"]).batch_size,
        )
        _WORKER_STATS["plans_built"] += 1
    return _WORKER_BACKEND


def _run_shard(
    site_ids: list[int],
    kind: str,
    shard_index: int = 0,
    attempt: int = 1,
):
    """One shard's sweep in a worker: ``(worker_pid, result)``.

    ``result`` is the backend's ``analyze_sites`` columns (``kind ==
    "columns"``) or its ``pack_sites`` tuple (``"packed"``), returned
    through the executor's pickle channel.  ``shard_index``/``attempt``
    identify this submission to the pool's fault injector, if one is
    installed.
    """
    if _WORKER_INJECTOR is not None:
        _WORKER_INJECTOR.fire(shard_index, attempt)
    backend = _worker_backend()
    if kind == "packed":
        return os.getpid(), backend.pack_sites(site_ids)
    return os.getpid(), backend.analyze_sites(site_ids)


def _worker_warmup(delay: float) -> int:
    """Barrier task for :meth:`ShardedEPPEngine.warm`.

    Holds its worker long enough that every concurrently submitted warmup
    task must land on a *distinct* worker, forcing the executor — which
    spawns processes lazily, on submit — to fork and initialize the whole
    pool now rather than inside the caller's timed region.  Planning is
    lazy, so the warmup also builds the worker's backend before it
    sleeps: warmed pools never re-plan inside a timed region either.
    """
    import time

    _worker_backend()
    time.sleep(delay)
    return os.getpid()


def _worker_cache_stats(delay: float) -> tuple[int, int]:
    """Probe task: ``(pid, plans_built)`` of one worker.

    Takes the same barrier delay as :func:`_worker_warmup` so a batch of
    probes lands on distinct workers.
    """
    import time

    time.sleep(delay)
    return os.getpid(), _WORKER_STATS["plans_built"]


# --------------------------------------------------------------------- driver


class ShardedEPPEngine:
    """Multi-process site-sharded EPP bound to one circuit and SP map.

    Parameters
    ----------
    compiled:
        The compiled circuit (pickled once into the worker pool).
    signal_probs:
        Per-node P(1) indexed by node id, as the vector backend consumes.
    config / knobs:
        The analysis knobs, as one
        :class:`~repro.core.config.AnalysisConfig` or as individual
        keywords (never both) — see the per-knob notes below.
    min_process_work:
        Crossover threshold on ``n_nodes * n_sites`` below which calls run
        on the in-process vector backend; 0 forces the process path.
    local_backend:
        The in-process :class:`~repro.core.epp_batch.BatchEPPBackend` used
        below the crossover (built on demand when omitted; ``EPPEngine``
        passes its cached one).

    Knobs: ``jobs`` is the worker process count (default one per
    available core).  ``batch_size`` is the per-chunk site columns inside
    each worker's sweep; when omitted, the single-process chunk budget is
    divided across the pool so the aggregate resident memory of a
    sharded run matches the vector backend's, instead of multiplying by
    ``jobs``.  Workers run the same compacted union-of-cones sweeps as
    the local backend, and their results — flat arrays, columns or
    packed — come back through the executor's pickle channel.  The *parent-side*
    partitioner orders a site list spanning more than one worker chunk
    by :func:`~repro.core.schedule.cone_cluster_order` before the
    contiguous shard split, so shards (and the chunks inside each
    worker) share fanout cones.  ``retries``/``shard_timeout``/
    ``deadline`` are the recovery knobs, read from :attr:`config` by the
    scheduler (:func:`recovery_knobs` fills in the defaults for
    ``None``); once one is spent the query raises a typed error.
    ``fault_injector`` is a :class:`~repro.testing.faults.FaultInjector`
    shipped through the pool initializer — test-only machinery for
    staging worker crashes, stalls and kernel errors
    deterministically.  ``checkpoint`` names the per-shard sweep journal
    directory.

    Result traffic is tallied per shard in :attr:`stats`
    (``pickle_shards``/``pickled_array_bytes``).  The worker pool
    (:func:`preferred_mp_context`, :data:`_SHARDS_PER_WORKER` shards per
    worker) is created lazily on the first sharded call and reused
    across calls; :meth:`close` (or the context-manager protocol) tears
    it down and releases the local backend's state buffers.  Results are
    identical to ``backend="vector"`` — neither sharding, scheduling nor
    any recovery path can reorder any per-site arithmetic.  After each
    query, :attr:`last_outcomes` holds one
    :class:`~repro.core.resilience.ShardOutcome` audit record per shard
    that ran on the pool (none when the crossover guard kept the query
    in-process).
    """

    def __init__(
        self,
        compiled,
        signal_probs: Sequence[float],
        *,
        min_process_work: int = _MIN_PROCESS_WORK,
        local_backend=None,
        config: "AnalysisConfig | None" = None,
        **knobs,
    ):
        from repro.core.config import AnalysisConfig

        # One validated config is the source of truth for every analysis
        # knob (jobs/batch_size value checks and the unknown-knob guard
        # included).  A ``None`` keyword knob means "the default", so it
        # never conflicts with ``config=``.
        config = AnalysisConfig.from_args(
            config,
            {k: v for k, v in knobs.items() if v is not None},
            backend="sharded",
        )
        #: The validated :class:`~repro.core.config.AnalysisConfig` this
        #: engine runs under.
        self.config = config
        self.compiled = compiled
        self.jobs = (
            int(config.jobs) if config.jobs is not None else default_jobs()
        )
        batch_size = config.batch_size
        self.min_process_work = min_process_work
        self.fault_injector = config.fault_injector
        #: Directory for the per-shard sweep journal
        #: (:mod:`repro.core.checkpoint`), or ``None`` to disable.  Each
        #: pool query journals completed shards there and resumes from
        #: whatever a previous (possibly killed) process left over the
        #: same sweep and result kind.
        self.checkpoint = (
            None if config.checkpoint is None
            else os.fspath(config.checkpoint)
        )
        #: Test hook threaded into :class:`ShardCheckpoint` — called as
        #: ``(shard_index, stored_count)`` after each shard file lands;
        #: the kill-9 chaos test dies here at a deterministic point.
        self._checkpoint_on_store = None
        #: One :class:`~repro.core.resilience.ShardOutcome` per shard that
        #: ran on the pool in the most recent query; empty when that
        #: query ran in-process.  Shards served from the sweep
        #: journal are counted in ``stats["checkpoint_shards"]`` instead.
        self.last_outcomes: list[ShardOutcome] = []
        #: Per-engine accounting, reset never.  Wire traffic:
        #: ``pickle_shards`` counts shard results delivered by the pool,
        #: ``pickled_array_bytes`` totals their array payloads.
        #: Resilience: ``retries`` counts re-submissions, ``respawns``
        #: pool rebuilds, ``worker_crashes`` pool-break events,
        #: ``shard_errors`` in-worker exceptions, ``shard_timeouts``
        #: per-shard deadline expiries.  Durability:
        #: ``checkpoint_shards`` counts shards served from the sweep
        #: journal instead of re-sweeping, ``checkpointed_shards`` the
        #: shards journaled to disk as they completed.
        self.stats = {
            "pickle_shards": 0,
            "pickled_array_bytes": 0,
            "retries": 0,
            "respawns": 0,
            "worker_crashes": 0,
            "shard_errors": 0,
            "shard_timeouts": 0,
            "checkpoint_shards": 0,
            "checkpointed_shards": 0,
        }
        if local_backend is None:
            from repro.core.epp_batch import BatchEPPBackend

            local_backend = BatchEPPBackend(
                compiled, signal_probs, batch_size=batch_size
            )
        self.local = local_backend
        self.batch_size = self.local.batch_size
        #: The caller's explicit batch_size (None = defaulted) — part of
        #: the engine-level cache identity, so an explicit width never
        #: silently reuses a pool built with the derived default.
        self.requested_batch_size = None if batch_size is None else int(batch_size)
        # Workers each hold their own state matrices, so the per-chunk
        # budget is divided across the pool: aggregate resident memory of a
        # sharded run stays at the single-process budget instead of
        # multiplying by ``jobs``.  Explicit widths were validated >= 1
        # above; the defaulted branch's floor clamp keeps the division
        # from ever rounding a worker's chunk width to zero when ``jobs``
        # is large relative to the circuit's budgeted width.
        if batch_size is not None:
            self.worker_batch_size = int(batch_size)
        else:
            from repro.core.epp_batch import default_batch_size

            self.worker_batch_size = max(
                32, default_batch_size(compiled.n) // self.jobs
            )
        self._pool: ProcessPoolExecutor | None = None
        self._payload: bytes | None = None
        #: Serializes :meth:`close` against itself: the server's drain
        #: path, a context-manager exit and ``__del__`` can all race to
        #: tear the same engine down through the one ``self._pool``.
        self._close_lock = threading.Lock()

    # ------------------------------------------------------------- lifecycle

    @property
    def pool_started(self) -> bool:
        """Whether worker processes have been spun up (guard introspection)."""
        return self._pool is not None

    def payload(self) -> bytes:
        """The once-pickled worker payload (cached across pool restarts).

        What :func:`_worker_backend` builds from: the circuit and SP
        vector, plus one wire-format
        :class:`~repro.core.config.AnalysisConfig` carrying the worker
        chunk width, so the knob surface never re-threads this seam.
        Pools are spawned by the process that builds the payload, so no
        other payload shape ever reaches a worker.
        """
        if self._payload is None:
            from repro.core.config import AnalysisConfig

            fields = {
                "compiled": self.compiled,
                "signal_probs": self.local.sp,
                "config": AnalysisConfig(
                    batch_size=self.worker_batch_size
                ).to_wire(),
            }
            self._payload = pickle.dumps(
                fields, protocol=pickle.HIGHEST_PROTOCOL
            )
        return self._payload

    def payload_key(self) -> str:
        """Content digest of the payload — the sweep journal's run key.

        Two engines over the same compiled circuit, SP vector and sweep
        knobs produce the same key, so a checkpoint written by one
        process resumes in the next (:mod:`repro.core.checkpoint`).
        """
        import hashlib

        return hashlib.sha1(self.payload()).hexdigest()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=preferred_mp_context(),
                initializer=_shard_worker_init,
                initargs=(self.payload(), self.fault_injector),
            )
        return self._pool

    def _barrier(self, task, delay: float, timeout, what: str, done) -> list:
        """Run ``task(delay)`` once per worker, at most three rounds.

        Each round submits ``jobs`` tasks and awaits them all; ``delay``
        holds each worker, so the tasks of one round land on distinct
        workers.  A round after which ``done(answers)`` is false — an
        early worker answered twice before the last one forked — reruns
        with a four times longer hold.  ``answers`` holds every result
        since the pool was last (re)spawned.

        ``timeout`` bounds all rounds together: once spent the barrier
        raises :class:`~repro.errors.ShardTimeoutError` instead of
        hanging on a wedged worker (``None`` waits unbounded).  A pool
        found broken, at submit or in a result (an idle worker died),
        counts one ``worker_crashes``, is respawned and the round reruns
        within the same ``timeout``; a pool that breaks on every round
        raises :class:`~repro.errors.WorkerCrashError`.
        """
        countdown = Deadline(timeout)
        answers: list = []
        rounds = crashes = 0
        while True:
            pool = self._ensure_pool()
            try:
                futures = [pool.submit(task, delay) for _ in range(self.jobs)]
                _, not_done = wait(futures, timeout=countdown.remaining())
                if not_done:
                    for future in not_done:
                        future.cancel()
                    raise ShardTimeoutError(
                        f"{what} barrier timed out (wedged worker?); "
                        "close() the engine to respawn the pool",
                        timeout=timeout,
                    )
                answers += [future.result() for future in futures]
            except BrokenProcessPool as broken:
                self.stats["worker_crashes"] += 1
                self._respawn_pool()
                answers = []
                crashes += 1
                if crashes == 3:
                    raise WorkerCrashError(
                        f"{what} barrier: the worker pool broke on every "
                        "round (workers killed, out of memory, or crashed)"
                    ) from broken
                continue
            rounds += 1
            if rounds == 3 or done(answers):
                return answers
            delay *= 4

    def warm(self, timeout: float | None = 60.0) -> "ShardedEPPEngine":
        """Fork and initialize every worker now, not inside a timed region.

        ``ProcessPoolExecutor`` spawns workers lazily on submit, so merely
        constructing the pool warms nothing.  One short barrier task per
        worker is submitted and awaited (:meth:`_barrier`) — each must
        occupy a distinct worker, so all ``jobs`` processes fork and run
        the payload initializer here.  ``timeout`` bounds the whole
        barrier; a wedged worker raises
        :class:`~repro.errors.ShardTimeoutError`, and a pool whose idle
        worker died is respawned first.
        """

        def all_forked(_answers) -> bool:
            processes = getattr(self._pool, "_processes", None)
            return processes is None or len(processes) >= self.jobs

        self._barrier(_worker_warmup, 0.02, timeout, "worker pool warmup", all_forked)
        return self

    def worker_stats(
        self, timeout: float | None = 60.0
    ) -> dict[int, dict[str, int]]:
        """Per-worker plan counters, probed over the live pool.

        Returns ``{pid: {"plans_built": n}}``.  One barrier probe per
        worker (:meth:`_barrier`, as :meth:`warm`) so every worker
        answers for itself; the counter covers the worker's whole
        lifetime — a worker that served many shards reports
        ``plans_built == 1``, which is what the plan tests pin.
        ``timeout`` and a broken pool are handled as in :meth:`warm`.
        """
        answers = self._barrier(
            _worker_cache_stats, 0.05, timeout, "worker-stats",
            lambda answers: len(dict(answers)) >= self.jobs,
        )
        return {pid: {"plans_built": plans_built} for pid, plans_built in answers}

    def _respawn_pool(self) -> None:
        """Tear down a broken or wedged pool.

        ``ProcessPoolExecutor`` cannot kill one task, so a wedged worker
        costs the whole pool: terminate every worker, shut the executor
        down without waiting, and join the dead workers.  The pool
        rebuilds lazily from the cached payload on the next submit;
        worker backends rebuild the same way (counted by
        ``plans_built``).  The caller must have already received every
        delivered result it wants to keep: the rest are cancelled.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = dict(getattr(pool, "_processes", None) or {})
        for process in processes.values():
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already reaped
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes.values():
            try:
                process.join(timeout=5.0)
            except Exception:  # pragma: no cover - already reaped
                pass
        self.stats["respawns"] += 1

    def close(self) -> None:
        """Shut the worker pool down (idempotent; pool respawns on next use).

        Waits for the shards already running, so tearing an engine down
        mid-analysis (KeyboardInterrupt, an abandoned result generator, a
        crashed consumer) leaves no worker behind.  Teardown also
        releases the local backend's chunk-width state matrices — the
        parent-side share of the resident set — so a long-lived
        :class:`~repro.core.analysis.SERAnalyzer` reclaims the full
        footprint after ``analyze()`` (buffers rebuild lazily on the next
        bulk call).

        Safe to call repeatedly and from concurrent threads: the server's
        drain path, a ``with``-block exit and ``__del__`` may all reach
        here, and the whole teardown runs under a lock so exactly one
        closer shuts the pool down.
        """
        with self._close_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None
            self.local.release_buffers()

    def __enter__(self) -> "ShardedEPPEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            # Never *block* on the close lock from a finalizer — but if a
            # concurrent close() holds it, that thread owns the teardown
            # and this one must not race it through the same pool.
            if not self._close_lock.acquire(blocking=False):
                return
            try:
                if self._pool is not None:
                    self._pool.shutdown(wait=False)
            finally:
                self._close_lock.release()
        except BaseException:
            pass

    # -------------------------------------------------------------- sharding

    def _use_local(self, n_sites: int) -> bool:
        """The crossover guard: does this call even want processes?

        ``min_process_work <= 0`` is an explicit force — every call fans
        out, even with one worker or one site — so harnesses that
        *must* measure or exercise the process path never silently fall
        back to the in-process sweep.
        """
        if self.min_process_work <= 0:
            return False
        return (
            self.jobs <= 1
            or n_sites < 2
            or self.compiled.n * n_sites < self.min_process_work
        )

    def _shards(self, site_ids: list[int]) -> tuple[list[list[int]], list[list[int]]]:
        """Partition into ``(shards, position_shards)``.

        A site list spanning more than one chunk is ordered by cone
        signature first (:func:`~repro.core.schedule.cone_cluster_order`),
        so the contiguous split hands each worker sites with overlapping
        fanout cones — the layout the workers' compacted sweeps want.
        ``position_shards`` carries each shard member's position in the
        caller's input order, which is how results find their way back.
        """
        from repro.core.schedule import cone_cluster_order

        positions = list(range(len(site_ids)))
        # Measured against the *worker* chunk width, not the larger
        # in-process width: workers sweep in worker_batch_size chunks (and
        # shards are smaller still), so clustering pays exactly when the
        # site list spans more than one worker chunk.
        if len(site_ids) > self.worker_batch_size:
            order = cone_cluster_order(self.compiled, site_ids)
            positions = [int(position) for position in order]
        n_shards = self.jobs * _SHARDS_PER_WORKER
        position_shards = partition_shards(positions, n_shards)
        shards = [
            [site_ids[position] for position in shard]
            for shard in position_shards
        ]
        return shards, position_shards

    def _map_shards(self, shards: list[list[int]], kind: str):
        """Yield ``(shard_index, worker_result)`` as shards complete.

        ``kind`` is the result kind each worker returns (``"columns"`` or
        ``"packed"``, see :func:`_run_shard`).

        The resilient scheduler.  Per-column shard independence makes
        every shard exactly re-runnable, so failures are handled by
        re-running — never by perturbing results:

        * A **broken pool** (crashed/OOMed worker) first delivers every
          shard that finished before the break (exactly-once merge: a
          delivered shard is never resubmitted), then respawns the pool
          and charges one attempt to each in-flight shard (the executor
          cannot say which one killed the worker).  A pool found broken
          at submission (an idle worker was killed) takes the same path.
        * A shard past its **per-shard deadline** is cancelled and
          re-enqueued with deterministic seeded backoff; if it was
          already running the wedged pool is respawned first (collateral
          shards are refunded their attempt and resubmitted at once).
        * A shard that **fails in the worker** is retried with backoff
          until its budget runs out; then the query raises
          :class:`~repro.errors.RetryBudgetExceededError`, whose
          ``__cause__`` is the last attempt's error (``retries=0``
          fails fast on the first failure).
        * Past the **global deadline** the query raises
          :class:`~repro.errors.ShardTimeoutError`.

        On any abnormal exit — including the consumer abandoning the
        generator — every queued shard is cancelled; a shard already
        running finishes in its worker and its result is dropped.
        """
        retries, shard_timeout = recovery_knobs(self.config)
        deadline = self.config.deadline
        countdown = Deadline(deadline)
        n = len(shards)
        attempts = [0] * n
        first_start = [0.0] * n
        pending: dict = {}  # future -> shard index
        started: dict = {}  # future -> submission time (monotonic)
        ready_at: dict[int, float] = {}  # shard index -> backoff wakeup
        outcomes = self.last_outcomes  # reset by the calling query

        def submit(index: int) -> None:
            attempts[index] += 1
            try:
                future = self._ensure_pool().submit(
                    _run_shard, shards[index], kind, index, attempts[index]
                )
            except BrokenProcessPool as error:
                # The pool broke before it took this shard: a failed
                # future routes it into the broken-pool path below.
                future = Future()
                future.set_exception(error)
            now = time.monotonic()
            if attempts[index] == 1:
                first_start[index] = now
            pending[future] = index
            started[future] = now

        def unregister(future) -> int:
            index = pending.pop(future)
            started.pop(future, None)
            return index

        def receive(index: int, future):
            worker_pid, result = future.result()
            self.stats["pickle_shards"] += 1
            self.stats["pickled_array_bytes"] += sum(
                array.nbytes for array in result
            )
            outcomes.append(
                ShardOutcome(
                    shard=index,
                    sites=len(shards[index]),
                    attempts=attempts[index],
                    worker_pid=worker_pid,
                    elapsed=time.monotonic() - first_start[index],
                )
            )
            return result

        def record_failure(index: int, error) -> None:
            """One failed attempt: schedule a retry (with backoff), or
            raise once the shard's budget is spent."""
            if attempts[index] > retries:
                raise RetryBudgetExceededError(
                    f"shard {index} failed on all {attempts[index]} "
                    f"attempt(s)",
                    site_ids=shards[index],
                    attempts=attempts[index],
                ) from error
            self.stats["retries"] += 1
            ready_at[index] = time.monotonic() + backoff_delay(
                index, attempts[index]
            )

        def respawn():
            """Deliver every in-flight shard that finished, respawn the
            pool, and return the indices of the rest, unregistered and
            cancelled."""
            rest: list[int] = []
            for future in list(pending):
                index = unregister(future)
                if (
                    future.done()
                    and not future.cancelled()
                    and future.exception() is None
                ):
                    yield index, receive(index, future)
                else:
                    future.cancel()
                    rest.append(index)
            self._respawn_pool()
            return rest

        try:
            for index in range(n):
                submit(index)
            while pending or ready_at:
                now = time.monotonic()
                if countdown.expired():
                    unfinished = len(pending) + len(ready_at)
                    raise ShardTimeoutError(
                        f"analysis deadline expired with {unfinished} "
                        f"of {n} shard(s) unfinished",
                        timeout=deadline,
                    )
                # Shards whose backoff has elapsed go back to the pool.
                for index in [i for i, at in ready_at.items() if at <= now]:
                    del ready_at[index]
                    submit(index)
                if not pending:
                    # Everything is waiting out a backoff: sleep to the
                    # earliest wakeup (bounded by the global deadline).
                    doze = min(ready_at.values()) - now
                    remaining = countdown.remaining()
                    if remaining is not None:
                        doze = min(doze, remaining)
                    if doze > 0:
                        time.sleep(doze)
                    continue
                # Block until the first completion — or the earliest of
                # the per-shard deadlines, backoff wakeups and the global
                # deadline, whichever comes first.
                marks = []
                if shard_timeout is not None and started:
                    marks.append(min(started.values()) + shard_timeout)
                if ready_at:
                    marks.append(min(ready_at.values()))
                remaining = countdown.remaining()
                if remaining is not None:
                    marks.append(now + remaining)
                timeout = max(0.0, min(marks) - now) if marks else None
                done, _ = wait(
                    list(pending), timeout=timeout, return_when=FIRST_COMPLETED
                )
                broken = None
                victims: list[int] = []
                for future in done:
                    index = unregister(future)
                    if future.cancelled():
                        # A shutdown race cancelled a queued shard; the
                        # attempt never ran, so resubmit without charge.
                        attempts[index] -= 1
                        ready_at[index] = time.monotonic()
                        continue
                    error = future.exception()
                    if error is None:
                        yield index, receive(index, future)
                    elif isinstance(error, BrokenProcessPool):
                        broken = error
                        victims.append(index)
                    else:
                        self.stats["shard_errors"] += 1
                        record_failure(index, error)
                if broken is not None:
                    # The pool is dead: every pending future carries the
                    # same BrokenProcessPool.  Charge one attempt to each
                    # in-flight shard once the finished ones are in.
                    self.stats["worker_crashes"] += 1
                    rest = yield from respawn()
                    for index in sorted(victims + rest):
                        error = WorkerCrashError(
                            "sharded EPP worker died mid-shard (killed, "
                            "out of memory, or crashed)",
                            site_ids=shards[index],
                            attempts=attempts[index],
                        )
                        error.__cause__ = broken
                        record_failure(index, error)
                    continue
                if shard_timeout is None or not pending:
                    continue
                now = time.monotonic()
                overdue = [
                    (future, index)
                    for future, index in pending.items()
                    if now - started[future] >= shard_timeout
                    and not future.done()
                ]
                if not overdue:
                    continue
                wedged = False
                timed_out: list[int] = []
                for future, index in overdue:
                    unregister(future)
                    timed_out.append(index)
                    if not future.cancel():
                        # Already running: the executor cannot kill one
                        # task, so the wedged worker costs the pool.
                        wedged = True
                if wedged:
                    rest = yield from respawn()
                    for index in rest:
                        # Collateral of the respawn, not slow: refund the
                        # attempt and resubmit immediately.
                        attempts[index] -= 1
                        ready_at[index] = now
                for index in timed_out:
                    self.stats["shard_timeouts"] += 1
                    error = ShardTimeoutError(
                        f"shard {index} exceeded its deadline",
                        site_ids=shards[index],
                        attempts=attempts[index],
                        timeout=shard_timeout,
                    )
                    record_failure(index, error)
        finally:
            # Nothing waits on the shards still running, so an
            # abandoned/failed analysis returns promptly.
            for future in pending:
                future.cancel()

    def _map_with_checkpoint(self, shards: list[list[int]], kind: str):
        """:meth:`_map_shards` behind the sweep journal, when configured.

        With no ``checkpoint`` directory this is exactly
        :meth:`_map_shards`.  With one, shards already journaled by a
        previous (possibly killed) process over the *identical* sweep —
        same payload digest, same result kind, same partition — are
        yielded immediately
        from disk (``stats["checkpoint_shards"]``), then only the
        unfinished shards go to the pool; each one is journaled
        (``stats["checkpointed_shards"]``) the moment it completes,
        *before* it is merged, so a crash between two merges loses at
        most the shard in flight.  Exactly-once merge is preserved: a
        shard comes from the journal or from the pool, never both.
        """
        if self.checkpoint is None:
            yield from self._map_shards(shards, kind)
            return
        from repro.core.checkpoint import ShardCheckpoint

        journal = ShardCheckpoint.open(
            self.checkpoint, f"{self.payload_key()}|kind={kind}",
            shards, on_store=self._checkpoint_on_store,
        )
        pending: list[int] = []
        for index in range(len(shards)):
            packed = journal.load(index)
            if packed is None:
                pending.append(index)
                continue
            self.stats["checkpoint_shards"] += 1
            yield index, packed
        if not pending:
            return
        for sub_index, packed in self._map_shards(
            [shards[i] for i in pending], kind
        ):
            index = pending[sub_index]
            journal.store(index, packed)
            self.stats["checkpointed_shards"] += 1
            yield index, packed
        # _map_shards numbered the outcomes within the pending subset;
        # restore full-partition indices for the audit.
        for outcome in self.last_outcomes:
            outcome.shard = pending[outcome.shard]

    # --------------------------------------------------------------- queries

    def analyze_sites(self, site_ids: Sequence[int]):
        """``(p_sensitized, cone_sizes)`` for many sites, in input order,
        fanned out across workers.

        Exactly ``BatchEPPBackend.analyze_sites``'s columns (the shard
        partition cannot change per-site arithmetic).  Each worker
        returns its shard's two columns, which land in their input rows
        as they arrive; with ``checkpoint`` set they are journaled as
        ``"columns"`` shards.
        """
        return self._column_query(site_ids)

    def _column_query(self, site_ids: Sequence[int]) -> tuple:
        """The body of :meth:`analyze_sites`, shared with
        :meth:`p_sensitized_many`: neither public query calls the other,
        so a tracer that wraps both (perfbench's launcher does) counts a
        call's counters once."""
        import numpy as np

        self.last_outcomes = []
        site_ids = [int(site_id) for site_id in site_ids]
        if not site_ids or self._use_local(len(site_ids)):
            return self.local.analyze_sites(site_ids)
        shards, position_shards = self._shards(site_ids)
        p_sens = np.empty(len(site_ids))
        cone_sizes = np.empty(len(site_ids), dtype=np.intp)
        for index, (p, cones) in self._map_with_checkpoint(shards, "columns"):
            rows = position_shards[index]
            p_sens[rows] = p
            cone_sizes[rows] = cones
        return p_sens, cone_sizes

    def pack_sites(self, site_ids: Sequence[int]):
        """Packed per-site arrays for many sites, in input order.

        The sharded counterpart of ``BatchEPPBackend.pack_sites``, which
        ``EPPEngine.analyze`` materializes into per-site results:
        bit-identical to the local backend's for the same sites, because
        columns are computed independently of shard membership, and each
        shard's packed part is written straight into its input rows
        (``position_shards``) once every shard has arrived, exactly as the
        local backend writes its chunks
        (:func:`~repro.core.epp_batch.packed_in_order`).
        """
        import numpy as np

        from repro.core.epp_batch import packed_in_order

        self.last_outcomes = []
        site_ids = [int(site_id) for site_id in site_ids]
        if not site_ids or self._use_local(len(site_ids)):
            return self.local.pack_sites(site_ids)
        shards, position_shards = self._shards(site_ids)
        parts: list = [None] * len(shards)
        for index, packed in self._map_with_checkpoint(shards, "packed"):
            parts[index] = packed
        rows = [np.asarray(shard, dtype=np.intp) for shard in position_shards]
        return packed_in_order(parts, rows, len(site_ids))

    def p_sensitized_many(self, site_ids: Sequence[int]):
        """``P_sensitized`` for many sites, aligned with ``site_ids``: the
        first column of :meth:`analyze_sites`."""
        return self._column_query(site_ids)[0]
