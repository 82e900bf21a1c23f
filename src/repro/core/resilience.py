"""Retry backoff and shard outcome records for the sharded EPP driver.

PR 2's per-column shard independence makes every shard *exactly
re-runnable*: a shard's packed result depends only on the compiled
circuit, the SP vector and the shard's site list — never on which worker
computed it, how many times it was attempted, or what other shards did.
That invariant is what lets :class:`~repro.core.epp_shard.ShardedEPPEngine`
recover from worker crashes, wedged processes and failed shared-memory
exports without perturbing a single bit of the result: a recovered
analysis is ``np.array_equal`` to a clean one.

This module holds the recovery primitives of that driver:

* :func:`backoff_delay` — the fixed retry schedule: exponential backoff
  from 0.05 s doubling to a 2 s cap, stretched by up to 25% of
  *deterministic seeded jitter* (the delay is a pure function of the
  shard and attempt — chaos tests stay reproducible).  How many retries
  a shard gets, the per-shard and global deadlines, and the terminal
  action once the budget is spent are the
  :class:`~repro.core.config.AnalysisConfig` knobs ``retries``,
  ``shard_timeout``, ``deadline`` and ``on_failure``.
* :class:`ShardOutcome` — the per-shard audit record an analysis leaves
  behind (attempts, worker pid, transport used, elapsed seconds,
  degraded flag), surfaced as
  :attr:`~repro.core.epp_shard.ShardedEPPEngine.last_outcomes`.
* :class:`Deadline` — a small monotonic-clock countdown shared by the
  driver's scheduler loop and the pool barriers.

The fault *injection* side — the seeded harness that crashes workers,
stalls shards past their deadline and poisons shm exports so every
recovery path here is pinned in tests — lives in
:mod:`repro.testing.faults`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

__all__ = [
    "Deadline",
    "ShardOutcome",
    "backoff_delay",
]

#: Backoff before a shard's ``k``-th retry:
#: ``min(_BACKOFF_BASE * 2**(k-1), _BACKOFF_MAX)`` seconds, stretched by
#: up to ``_BACKOFF_JITTER`` of itself.
_BACKOFF_BASE = 0.05
_BACKOFF_MAX = 2.0
_BACKOFF_JITTER = 0.25


def backoff_delay(shard: int, attempt: int) -> float:
    """Seconds to wait before re-submitting ``shard``'s ``attempt``-th
    retry (``attempt`` counts failed submissions so far, >= 1).

    Deterministic: the jitter fraction is drawn from a generator seeded
    by ``(shard, attempt)``, so retries of a respawned pool don't
    stampede, yet the full delay schedule of an analysis is exactly
    reproducible run to run — what lets the chaos tests assert recovery
    timing without sleeping on real randomness.
    """
    if attempt < 1:
        return 0.0
    delay = min(_BACKOFF_BASE * 2.0 ** (attempt - 1), _BACKOFF_MAX)
    # The seed string is part of the schedule the tests pin bit for bit.
    rng = random.Random(f"0:{shard}:{attempt}")
    return delay * (1.0 + _BACKOFF_JITTER * rng.random())


@dataclass
class ShardOutcome:
    """The audit record of one shard's journey through an analysis.

    ``transport`` is how the delivered result crossed the process
    boundary: ``"shm"`` (shared-memory segment), ``"pickle"`` (executor
    result channel — including the worker-side fallback after a failed
    shm export), or ``"local"`` (the shard was degraded to the
    in-process vector backend).  ``attempts`` counts every submission,
    the successful one included; ``worker_pid`` is the pid that produced
    the delivered result (``None`` for local/degraded shards).
    """

    shard: int
    sites: int
    attempts: int = 1
    worker_pid: int | None = None
    transport: str = "shm"
    elapsed: float = 0.0
    degraded: bool = False


@dataclass
class Deadline:
    """Monotonic countdown: ``None`` budget means "never expires".

    A negative budget is clamped to ``0.0`` at construction — the
    countdown is *already expired*, which is the only coherent reading
    of "you had less than no time".  Before the clamp a negative budget
    leaked into ``started + budget - now`` arithmetic and every wait
    computed from :meth:`remaining` still behaved, but consumers doing
    their own ``budget - elapsed`` math (the server's queue accounting)
    saw nonsense negatives.
    """

    budget: float | None
    started: float = field(default_factory=time.monotonic)

    def __post_init__(self):
        if self.budget is not None and self.budget < 0.0:
            self.budget = 0.0

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0), or ``None`` when unbounded."""
        if self.budget is None:
            return None
        return max(0.0, self.started + self.budget - time.monotonic())

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0
