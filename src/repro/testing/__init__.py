"""Deterministic test machinery shipped with the library.

* :mod:`repro.testing.faults` — the seeded fault-injection harness the
  chaos tests thread into sharded worker pools: crash a worker at a
  chosen shard, stall it past its deadline, or raise mid-kernel — every
  one deterministic, so each recovery path of
  :class:`~repro.core.epp_shard.ShardedEPPEngine` can be pinned
  bit-identical against a clean run.  The service-level
  counterparts (:class:`ServiceFaultInjector`) stage failures inside
  the long-lived analysis server the same way: corrupt an artifact,
  stall a request, fail a sweep.

Shipped as a package (not buried in ``tests/``) because downstream
service layers want the same harness: a deployment's smoke test can
inject the exact failure modes its runbook claims to survive.
"""

from repro.testing.faults import (
    FaultInjector,
    FaultSpec,
    InjectedFault,
    ServiceFaultInjector,
    ServiceFaultSpec,
)

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "ServiceFaultInjector",
    "ServiceFaultSpec",
]
