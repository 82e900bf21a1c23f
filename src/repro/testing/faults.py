"""Deterministic fault injection for the sharded EPP worker pool.

A :class:`FaultInjector` is a picklable, *seeded* description of
failures to stage inside worker processes.  The sharded driver threads
it through the executor initializer
(``ShardedEPPEngine(fault_injector=...)``); every worker consults it
immediately before the sweep of each shard attempt in
:func:`repro.core.epp_shard._run_shard`: ``crash`` kills the worker
process outright (``os._exit``, the BrokenProcessPool shape), ``stall``
sleeps past any per-shard deadline (the wedged-worker shape),
``kernel_error`` raises :class:`InjectedFault` (the mid-kernel exception
shape).

Matching is exact and deterministic: a :class:`FaultSpec` names the
shard index and attempt number it fires on (``None`` wildcards either),
plus an optional firing ``probability`` drawn from a generator seeded by
``(seed, kind, shard, attempt)`` — the *same* decision in every process
and every rerun.  Determinism is the point: each recovery path is pinned
in tests with ``np.array_equal`` against a clean run, which only means
something if the failure schedule is exactly reproducible.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass

from repro.errors import AnalysisError

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "KillAfterShards",
    "SERVICE_FAULT_KINDS",
    "ServiceFaultInjector",
    "ServiceFaultSpec",
]

#: The failure modes the harness can stage.
FAULT_KINDS = ("crash", "stall", "kernel_error")


class InjectedFault(RuntimeError):
    """The exception an injected ``kernel_error`` raises mid-shard.

    Deliberately *not* a :class:`~repro.errors.ReproError`: real kernel
    failures (a NumPy error, a MemoryError) are arbitrary exceptions,
    and the driver's recovery paths must not depend on the library's own
    hierarchy.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One staged failure: what, where, and when.

    ``shard`` / ``attempt`` match the driver's shard index and 1-based
    submission count (``None`` matches any).  ``probability < 1``
    converts the spec into a seeded coin flip per ``(shard, attempt)``
    pair — deterministic chaos, for soak tests that want randomized but
    replayable failure schedules.  ``stall_s`` is how long a ``stall``
    sleeps; make it comfortably larger than the driver's
    ``shard_timeout`` knob so the deadline, not the stall, ends the wait.
    """

    kind: str
    shard: int | None = None
    attempt: int | None = 1
    probability: float = 1.0
    stall_s: float = 30.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise AnalysisError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise AnalysisError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.stall_s < 0.0:
            raise AnalysisError(f"stall_s must be >= 0, got {self.stall_s}")


@dataclass(frozen=True)
class FaultInjector:
    """A seeded, picklable schedule of worker-side failures.

    Built in the parent, shipped once through the pool initializer, and
    consulted by every worker before every shard attempt.
    Stateless by design — firing decisions are pure functions of
    ``(seed, spec, shard, attempt)`` — so the injector needs no
    cross-process coordination and survives pool respawns unchanged:
    a fault specified for attempt 1 does *not* re-fire when the respawned
    pool re-runs the shard as attempt 2, which is exactly how the chaos
    tests let recovery succeed.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        # Accept any iterable of specs but store a hashable tuple.
        object.__setattr__(self, "specs", tuple(self.specs))

    def _fires(self, spec: FaultSpec, shard: int, attempt: int) -> bool:
        if spec.shard is not None and spec.shard != shard:
            return False
        if spec.attempt is not None and spec.attempt != attempt:
            return False
        if spec.probability >= 1.0:
            return True
        rng = random.Random(f"{self.seed}:{spec.kind}:{shard}:{attempt}")
        return rng.random() < spec.probability

    def matching(self, shard: int, attempt: int):
        """The specs firing for this ``(shard, attempt)``."""
        return [
            spec for spec in self.specs if self._fires(spec, shard, attempt)
        ]

    def fire(self, shard: int, attempt: int) -> None:
        """Stage any matching failure *inside the worker process*.

        ``crash`` never returns (the process exits immediately, without
        flushing or cleanup — exactly what a SIGKILL'd or OOMed worker
        looks like to the parent pool).  ``stall`` returns after
        sleeping.  ``kernel_error`` raises.
        """
        for spec in self.matching(shard, attempt):
            if spec.kind == "crash":
                os._exit(17)
            if spec.kind == "stall":
                time.sleep(spec.stall_s)
            elif spec.kind == "kernel_error":
                raise InjectedFault(
                    f"injected kernel fault (shard {shard}, attempt {attempt})"
                )


# --------------------------------------------------------------------------
# Checkpoint chaos (PR 9): kill the *host* process mid-sweep.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KillAfterShards:
    """SIGKILL the calling process after ``n`` shards reach the journal.

    Wire it to ``ShardedEPPEngine._checkpoint_on_store`` in a sacrificial
    subprocess: the checkpoint calls the hook *after* each shard record
    is durably on disk and *before* the shard's result is merged, so a
    fire at ``stored == n`` is the exact "power cut between journal write
    and merge" point the restart-recovery pin needs.  ``signal.SIGKILL``
    (not ``os._exit``) so no ``atexit``/``finally`` cleanup runs — the
    crashed process leaves its temp files and orphaned pool workers
    behind, and the resume must still be bit-identical.
    """

    n: int

    def __call__(self, index: int, stored: int) -> None:
        del index
        if stored >= self.n:
            os.kill(os.getpid(), 9)


# --------------------------------------------------------------------------
# Service-level chaos (PR 8): faults staged inside the analysis service.
# --------------------------------------------------------------------------

#: The service-level failure modes:
#:
#: * ``corrupt_artifact`` — flip a byte of the request's artifact-store
#:   entry before the lookup, so the integrity check must quarantine it
#:   and the service must recompute (pinned ``np.array_equal`` to clean).
#: * ``stall_request`` — sleep inside the worker thread before the sweep
#:   (the slow-backend shape, for deadline and queue-saturation tests).
#: * ``worker_error`` — raise a synthetic
#:   :class:`~repro.errors.WorkerCrashError` before the sweep (the
#:   mid-request pool-failure shape, driving the circuit breaker without
#:   needing a live pool; pair with :class:`FaultInjector` via
#:   ``AnalysisService(engine_faults=...)`` for *real* worker crashes).
SERVICE_FAULT_KINDS = ("corrupt_artifact", "stall_request", "worker_error")


@dataclass(frozen=True)
class ServiceFaultSpec:
    """One staged service failure.

    ``op`` matches the request op (``None``: any); ``request`` matches
    the service's 0-based admitted-request index (``None``: any).
    ``probability < 1`` is a seeded per-request coin flip, exactly like
    :class:`FaultSpec` — deterministic chaos schedules.
    """

    kind: str
    op: str | None = None
    request: int | None = None
    probability: float = 1.0
    stall_s: float = 0.2

    def __post_init__(self):
        if self.kind not in SERVICE_FAULT_KINDS:
            raise AnalysisError(
                f"unknown service fault kind {self.kind!r}; "
                f"choose from {SERVICE_FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise AnalysisError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.stall_s < 0.0:
            raise AnalysisError(f"stall_s must be >= 0, got {self.stall_s}")


@dataclass(frozen=True)
class ServiceFaultInjector:
    """A seeded schedule of service-level failures.

    The :class:`~repro.server.service.AnalysisService` consults it per
    admitted request: :meth:`apply` stages the in-band faults (stall,
    synthetic worker error) at the start of request execution, and
    :meth:`should` answers side-channel questions ("corrupt this
    request's artifact entry?") the service acts on itself.  Stateless
    and deterministic, like :class:`FaultInjector`: firing is a pure
    function of ``(seed, spec, op, request index)``.
    """

    specs: tuple[ServiceFaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))

    def _fires(self, spec: ServiceFaultSpec, op: str, index: int) -> bool:
        if spec.op is not None and spec.op != op:
            return False
        if spec.request is not None and spec.request != index:
            return False
        if spec.probability >= 1.0:
            return True
        rng = random.Random(f"{self.seed}:{spec.kind}:{op}:{index}")
        return rng.random() < spec.probability

    def matching(self, op: str, index: int):
        return [spec for spec in self.specs if self._fires(spec, op, index)]

    def should(self, kind: str, op: str, index: int) -> bool:
        """Does a ``kind`` spec fire for this request? (side-channel)"""
        return any(spec.kind == kind for spec in self.matching(op, index))

    def apply(self, op: str, index: int) -> None:
        """Stage the in-band faults for this request (worker thread).

        ``stall_request`` sleeps, ``worker_error`` raises; the
        side-channel ``corrupt_artifact`` is queried via :meth:`should`
        instead.
        """
        for spec in self.matching(op, index):
            if spec.kind == "stall_request":
                time.sleep(spec.stall_s)
            elif spec.kind == "worker_error":
                from repro.errors import WorkerCrashError

                raise WorkerCrashError(
                    f"injected service worker fault (request {index})",
                    attempts=1,
                )
