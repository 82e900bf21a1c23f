"""SER-as-a-service: the long-lived analysis server (PR 8).

The service chaos suite pins the same invariant the sharded driver's
does: every degraded, recomputed or recovered response must be
``np.array_equal`` — bit-identical — to a clean in-process run, and
every shed request must carry a *typed*, retriable error.  Requests are
driven through the real asyncio machinery (``service._respond`` takes
raw wire lines) plus a socket/CLI smoke at the end.

Test names deliberately carry "crash" / "chaos": the CI fast job's
fault-injection smoke selects them with ``-k``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.epp import EPPEngine
from repro.core.epp_delta import EditSet
from repro.errors import (
    AnalysisError,
    ConfigError,
    ParseError,
    QueueFullError,
    ResilienceError,
    ServiceUnavailableError,
    WorkerCrashError,
)
from repro.netlist.library import c17
from repro.server import AnalysisService, CircuitBreaker, ServeClient
from repro.server import protocol
from repro.server.protocol import (
    WIRE_KNOB_KEYS,
    decode_line,
    edits_from_wire,
    error_info,
    parse_request,
)
from repro.testing import ServiceFaultInjector, ServiceFaultSpec
from tests.helpers import kill_idle_worker


# ----------------------------------------------------------------- helpers


def wire(**obj) -> bytes:
    return json.dumps(obj).encode() + b"\n"


@contextlib.asynccontextmanager
async def serving(tmp_path, **kwargs):
    service = AnalysisService(tmp_path / "repro.sock", **kwargs)
    await service.start()
    try:
        yield service
    finally:
        await service.drain()


@pytest.fixture(scope="module")
def c17_ref():
    """Clean in-process reference: (p_sensitized, site order)."""
    snap = EPPEngine(c17()).snapshot()
    return np.asarray(snap.p_sensitized), list(snap.site_names)


@pytest.fixture(scope="module")
def s953_ref():
    """Clean in-process s953 P_sensitized, for real-pool chaos."""
    from repro.netlist.generate import generate_iscas

    return np.asarray(EPPEngine(generate_iscas("s953")).snapshot().p_sensitized)


async def warm_pool_backend(svc, **knobs):
    """The service's s953 driver for its own sweep knobs, warmed, with
    the crossover guard off so its sweeps run on worker processes."""
    state = await asyncio.to_thread(
        svc._state_for, parse_request({"op": "analyze", "circuit": "s953"})
    )
    backend = state.engine.sharded_backend(jobs=2, **knobs)
    backend.min_process_work = 0
    await asyncio.to_thread(backend.warm, 30.0)
    return backend


def assert_matches_reference(result: dict, c17_ref) -> None:
    reference, sites = c17_ref
    assert result["sites"] == sites
    assert np.array_equal(np.asarray(result["p_sensitized"]), reference)


# ----------------------------------------------------------- circuit breaker


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=30.0)
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow_sharded()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow_sharded()
        assert breaker.trips == 1

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # streak broken, not cumulative

    def test_half_open_probe(self):
        breaker = CircuitBreaker(threshold=1, cooldown=0.05)
        breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.06)
        assert breaker.state == "half-open" and breaker.allow_sharded()
        breaker.record_failure()  # probe failed: re-open immediately
        assert breaker.state == "open" and breaker.trips == 2
        time.sleep(0.06)
        breaker.record_success()  # probe succeeded: close
        assert breaker.state == "closed" and breaker.allow_sharded()


# ------------------------------------------------------- service fault specs


class TestServiceFaults:
    def test_spec_validation(self):
        with pytest.raises(AnalysisError):
            ServiceFaultSpec("no_such_kind")
        with pytest.raises(AnalysisError):
            ServiceFaultSpec("stall_request", probability=1.5)
        with pytest.raises(AnalysisError):
            ServiceFaultSpec("stall_request", stall_s=-1.0)

    def test_matching_filters_op_and_request(self):
        faults = ServiceFaultInjector([
            ServiceFaultSpec("worker_error", op="analyze", request=2),
        ])
        assert faults.should("worker_error", "analyze", 2)
        assert not faults.should("worker_error", "analyze", 1)
        assert not faults.should("worker_error", "analyze_delta", 2)
        assert not faults.should("corrupt_artifact", "analyze", 2)

    def test_probabilistic_firing_is_deterministic(self):
        spec = ServiceFaultSpec("stall_request", probability=0.5)
        first = ServiceFaultInjector([spec], seed=7)
        second = ServiceFaultInjector([spec], seed=7)
        decisions = [first.should("stall_request", "analyze", i) for i in range(64)]
        assert decisions == [
            second.should("stall_request", "analyze", i) for i in range(64)
        ]
        assert any(decisions) and not all(decisions)

    def test_apply_stalls_and_raises(self):
        faults = ServiceFaultInjector([
            ServiceFaultSpec("stall_request", stall_s=0.05, request=0),
            ServiceFaultSpec("worker_error", request=1),
        ])
        started = time.monotonic()
        faults.apply("analyze", 0)
        assert time.monotonic() - started >= 0.04
        with pytest.raises(WorkerCrashError):
            faults.apply("analyze", 1)
        faults.apply("analyze", 2)  # no spec: no-op


# ----------------------------------------------------------------- protocol


class TestProtocol:
    @pytest.mark.parametrize("obj", [
        {"op": "explode"},
        {"op": "analyze"},  # neither bench nor circuit
        {"op": "analyze", "circuit": "c17", "knobs": {"bogus": 1}},
        # The testing-only engine hook must not be reachable over the wire.
        {"op": "analyze", "circuit": "c17", "knobs": {"fault_injector": 1}},
        {"op": "analyze", "circuit": "c17", "knobs": []},
        {"op": "analyze", "circuit": "c17", "deadline": 0},
        {"op": "analyze", "circuit": "c17", "deadline": -1.5},
        {"op": "analyze", "circuit": "c17", "sites": "g1"},
        {"op": "analyze", "circuit": 17},
        {"op": "analyze_delta", "circuit": "c17"},  # no edits
        {"op": "analyze_delta", "circuit": "c17", "edits": []},
        # Malformed knob values: refused by name, never coerced.
        {"op": "analyze", "circuit": "c17", "knobs": {"jobs": "x"}},
        {"op": "analyze", "circuit": "c17", "knobs": {"jobs": True}},
        {"op": "analyze", "circuit": "c17", "knobs": {"batch_size": "abc"}},
        {"op": "analyze", "circuit": "c17", "knobs": {"batch_size": [1]}},
        {"op": "analyze", "circuit": "c17", "knobs": {"batch_size": 2.7}},
        {"op": "analyze", "circuit": "c17", "knobs": {"retries": "x"}},
        {"op": "analyze", "circuit": "c17",
         "knobs": {"shard_timeout": "x"}},
        # prune is a removed knob, whatever its value.
        {"op": "analyze", "circuit": "c17", "knobs": {"prune": False}},
        # Malformed request fields.
        {"op": "analyze", "circuit": "c17", "deadline": "soon"},
        {"op": "analyze", "circuit": "c17", "top": "ten"},
        # Removed sweep knobs are unknown knobs.
        {"op": "analyze", "circuit": "c17", "knobs": {"cells": "on"}},
        # Seconds no thread can wait on: json.loads accepts NaN, Infinity
        # and integers too large for a float.
        json.loads('{"op": "analyze", "circuit": "c17", "deadline": NaN}'),
        json.loads('{"op": "analyze", "circuit": "c17", "deadline": 1e300}'),
        json.loads('{"op": "analyze", "circuit": "c17", '
                   '"knobs": {"jobs": 2, "shard_timeout": Infinity}}'),
        {"op": "analyze", "circuit": "c17",
         "knobs": {"jobs": 2, "shard_timeout": float("nan")}},
        json.loads('{"op": "analyze", "circuit": "c17", '
                   '"knobs": {"jobs": 2, "shard_timeout": 1' + '0' * 400 + '}}'),
        # A negative row count.
        {"op": "analyze", "circuit": "c17", "top": -3},
        # Removed sweep knobs: schedule and prune.
        {"op": "analyze", "circuit": "c17", "knobs": {"schedule": "cone"}},
        {"op": "analyze", "circuit": "c17", "knobs": {"prune": "auto"}},
    ])
    def test_parse_request_rejects(self, obj):
        with pytest.raises(ConfigError):
            parse_request(obj)

    def test_parse_request_deadline_message_is_the_config_layers(self):
        with pytest.raises(ConfigError) as info:
            parse_request({"op": "analyze", "circuit": "c17", "deadline": 0})
        assert str(info.value) == (
            "--request-deadline must be > 0 seconds, got 0.0 (omit the "
            "flag to disable the global deadline)"
        )

    def test_parse_request_defaults(self):
        req = parse_request({"op": "analyze", "circuit": "c17"})
        assert req.client == "anon" and req.coalesce and not req.fit
        assert req.deadline is None and req.circuit_spec == "c17"
        bench = parse_request({"op": "analyze", "bench": "INPUT(a)\n"})
        assert bench.circuit_spec == "INPUT(a)\n"

    def test_decode_line_rejects_junk(self):
        with pytest.raises(ParseError):
            decode_line(b"not json\n")
        with pytest.raises(ParseError):
            decode_line(b"[1, 2]\n")

    def test_decode_line_rejects_oversize(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 16)
        with pytest.raises(ParseError):
            decode_line(b"x" * 17)

    def test_edits_from_wire_round_trip(self, c17_ref):
        _, sites = c17_ref
        edits = edits_from_wire([
            ["harden", sites[0], 10.0],
            ["set_sp", "N1", 0.25],
        ])
        assert isinstance(edits, EditSet)

    @pytest.mark.parametrize("ops", [
        [["no_such_kind", "g1"]],
        [["harden"]],  # missing node
        ["harden"],  # not a list op
        [["replace_gate", "g1", "no_such_type"]],
        [["harden", "g1", "abc"]],  # unconvertible factor
        [["set_sp", "g1", "x"]],  # unconvertible probability
        [["set_sp", "g1", None]],
        [["add_gate", "extra", "and", 5]],  # fanin is not a list
    ])
    def test_edits_from_wire_rejects(self, ops):
        with pytest.raises(ConfigError):
            edits_from_wire(ops)

    def test_edits_from_wire_has_no_resize_alias(self):
        """``harden`` is the one spelling: the old ``resize`` alias had no
        client, and a wire op naming it is an unknown kind."""
        with pytest.raises(ConfigError, match="unknown edit kind 'resize'"):
            edits_from_wire([["resize", "g1", 10.0]])

    def test_error_taxonomy(self):
        info = error_info(QueueFullError("full", retry_after=1.25))
        assert info["retriable"] and info["retry_after"] == 1.25
        assert info["type"] == "QueueFullError"
        assert error_info(WorkerCrashError("boom", attempts=1))["retriable"]
        assert not error_info(ParseError("bad"))["retriable"]
        internal = error_info(ValueError("surprise"))
        assert internal["type"] == "InternalError" and not internal["retriable"]
        assert "ValueError" in internal["message"]

    def test_wire_knobs_exclude_local_hooks(self):
        assert "fault_injector" not in WIRE_KNOB_KEYS
        assert "deadline" not in WIRE_KNOB_KEYS  # top-level field, not a knob


# ------------------------------------------------------------- service: core


class TestServiceCore:
    def test_ping_stats_and_analyze(self, tmp_path, c17_ref):
        async def main():
            async with serving(tmp_path) as svc:
                pong = await svc._respond(wire(op="ping"))
                assert pong["ok"] and pong["result"]["pong"]
                response = await svc._respond(wire(
                    op="analyze", circuit="c17", fit=True, top=3
                ))
                assert response["ok"] and not response["result"]["degraded"]
                assert_matches_reference(response["result"], c17_ref)
                assert len(response["result"]["fit"]["nodes"]) == 3
                assert response["result"]["fit"]["total_fit"] > 0
                stats = (await svc._respond(wire(op="stats")))["result"]
                assert stats["counters"]["completed"] == 1
                assert stats["breaker"]["state"] == "closed"
                assert stats["artifacts"]["entries"] >= 1
        asyncio.run(main())

    def test_bench_text_matches_library_circuit(self, tmp_path, c17_ref):
        from repro.netlist.bench import write_bench

        text = write_bench(c17())

        async def main():
            async with serving(tmp_path) as svc:
                response = await svc._respond(wire(op="analyze", bench=text))
                assert response["ok"]
                assert_matches_reference(response["result"], c17_ref)
        asyncio.run(main())

    def test_result_cache_hit_is_identical(self, tmp_path, c17_ref):
        async def main():
            async with serving(tmp_path) as svc:
                first = await svc._respond(wire(op="analyze", circuit="c17"))
                second = await svc._respond(wire(op="analyze", circuit="c17"))
                assert not first["result"]["cached"]
                assert second["result"]["cached"]
                assert_matches_reference(second["result"], c17_ref)
                assert svc.counters["cache_hits"] == 1
        asyncio.run(main())

    def test_bad_request_is_typed_terminal_error(self, tmp_path):
        async def main():
            async with serving(tmp_path) as svc:
                response = await svc._respond(wire(op="analyze"))
                assert not response["ok"]
                assert response["error"]["type"] == "ConfigError"
                assert not response["error"]["retriable"]
        asyncio.run(main())

    def test_bad_edit_arguments_are_typed_terminal_errors(self, tmp_path, c17_ref):
        _, sites = c17_ref

        async def main():
            async with serving(tmp_path) as svc:
                await svc._respond(wire(op="analyze", circuit="c17"))
                for edits, error, message in [
                    ([["harden", sites[0], "nan"]], "AnalysisError", "finite"),
                    ([["harden", sites[0], "inf"]], "AnalysisError", "finite"),
                    ([["harden", sites[0], "abc"]], "ConfigError", "'harden'"),
                    ([["set_sp", "N1", "x"]], "ConfigError", "'set_sp'"),
                ]:
                    response = await svc._respond(wire(
                        op="analyze_delta", circuit="c17", edits=edits,
                        fit=True,
                    ))
                    assert not response["ok"], edits
                    assert response["error"]["type"] == error
                    assert message in response["error"]["message"]
                    assert not response["error"]["retriable"]
                # The chain survived: a valid harden still answers.
                ok = await svc._respond(wire(
                    op="analyze_delta", circuit="c17",
                    edits=[["harden", sites[0], 10.0]], fit=True,
                ))
                assert ok["ok"] and ok["result"]["revision"] == 1
                assert ok["result"]["fit"]["total_fit"] > 0
        asyncio.run(main())

    def test_delta_chain_matches_in_process(self, tmp_path, c17_ref):
        _, sites = c17_ref
        engine = EPPEngine(c17())
        base = engine.snapshot()
        first = EditSet().harden(sites[0], 10.0)
        second = EditSet().set_sp("N1", 0.25)
        local1 = engine.analyze_delta(base, first)
        local2 = local1.engine.analyze_delta(local1, second)

        async def main():
            async with serving(tmp_path) as svc:
                await svc._respond(wire(op="analyze", circuit="c17"))
                d1 = await svc._respond(wire(
                    op="analyze_delta", circuit="c17",
                    edits=[["harden", sites[0], 10.0]],
                ))
                d2 = await svc._respond(wire(
                    op="analyze_delta", circuit="c17",
                    edits=[["set_sp", "N1", 0.25]],
                ))
                assert d1["result"]["revision"] == 1
                assert d2["result"]["revision"] == 2
                assert np.array_equal(
                    np.asarray(d1["result"]["p_sensitized"]),
                    np.asarray(local1.p_sensitized),
                )
                assert np.array_equal(
                    np.asarray(d2["result"]["p_sensitized"]),
                    np.asarray(local2.p_sensitized),
                )
        asyncio.run(main())

    def test_delta_fit_matches_in_process_report(self, tmp_path, c17_ref):
        from repro.core.analysis import SERAnalyzer

        _, sites = c17_ref
        analyzer = SERAnalyzer(c17())
        local = analyzer.snapshot()
        local = local.apply(EditSet().harden(sites[0], 10.0))
        local = local.apply(EditSet().harden(sites[2], 4.0))
        expected = json.loads(json.dumps(analyzer.report_for(local).to_dict(3)))

        async def main():
            async with serving(tmp_path) as svc:
                await svc._respond(wire(op="analyze", circuit="c17"))
                for site, factor in ((sites[0], 10.0), (sites[2], 4.0)):
                    response = await svc._respond(wire(
                        op="analyze_delta", circuit="c17",
                        edits=[["harden", site, factor]], fit=True, top=3,
                    ))
                    assert response["ok"]
                served = json.loads(json.dumps(response["result"]))
                assert served["revision"] == 2
                assert served["fit"] == expected
                assert served["cone_sizes"] == local.cone_sizes.tolist()
                assert served["p_sensitized"] == local.p_sensitized.tolist()
        asyncio.run(main())


# -------------------------------------------------- admission & backpressure


class TestAdmission:
    def test_queue_full_sheds_with_retry_after(self, tmp_path):
        async def main():
            async with serving(tmp_path, workers=1, max_queue=1) as svc:
                responses = await asyncio.gather(*(
                    svc._respond(wire(
                        op="analyze", circuit="c17",
                        coalesce=False, client=f"client-{i}",
                    ))
                    for i in range(4)
                ))
                served = [r for r in responses if r["ok"]]
                shed = [r for r in responses if not r["ok"]]
                assert len(served) == 1 and len(shed) == 3
                for response in shed:
                    error = response["error"]
                    assert error["type"] == "QueueFullError"
                    assert error["retriable"]
                    assert error["retry_after"] >= 0.0
                assert svc.counters["shed"] == 3
                assert svc.counters["accepted"] == 1
        asyncio.run(main())

    def test_per_client_inflight_cap(self, tmp_path):
        async def main():
            async with serving(tmp_path, workers=1, client_inflight=1) as svc:
                responses = await asyncio.gather(
                    svc._respond(wire(
                        op="analyze", circuit="c17",
                        coalesce=False, client="greedy",
                    )),
                    svc._respond(wire(
                        op="analyze", circuit="c17", fit=True,
                        coalesce=False, client="greedy",
                    )),
                )
                shed = [r for r in responses if not r["ok"]]
                assert len(shed) == 1
                assert shed[0]["error"]["type"] == "QueueFullError"
                assert "greedy" in shed[0]["error"]["message"]
                # The cap releases with the request: a later one is served.
                again = await svc._respond(wire(
                    op="analyze", circuit="c17", coalesce=False, client="greedy",
                ))
                assert again["ok"]
        asyncio.run(main())

    def test_coalescing_shares_one_sweep(self, tmp_path, c17_ref):
        async def main():
            async with serving(tmp_path, workers=1) as svc:
                responses = await asyncio.gather(*(
                    svc._respond(wire(op="analyze", circuit="c17"))
                    for _ in range(4)
                ))
                for response in responses:
                    assert response["ok"]
                    assert_matches_reference(response["result"], c17_ref)
                assert svc.counters["coalesced"] == 3
                assert svc.counters["accepted"] == 1  # one admitted sweep
                assert sum(r["coalesced"] for r in responses) == 3
                assert not svc._sweeps  # no leaked shared futures
        asyncio.run(main())

    def test_delta_outranks_cold_sweep(self, tmp_path, c17_ref):
        _, sites = c17_ref
        faults = ServiceFaultInjector([
            ServiceFaultSpec("stall_request", stall_s=0.25, request=0),
        ])
        order = []

        async def tagged(svc, tag, line):
            response = await svc._respond(line)
            order.append(tag)
            return response

        async def main():
            async with serving(tmp_path, workers=1, faults=faults) as svc:
                blocker = asyncio.create_task(tagged(svc, "blocker", wire(
                    op="analyze", circuit="c17", coalesce=False,
                )))
                await asyncio.sleep(0.05)  # the worker is now stalled on it
                cold = asyncio.create_task(tagged(svc, "cold", wire(
                    op="analyze", circuit="c17", fit=True, coalesce=False,
                )))
                await asyncio.sleep(0)  # cold is enqueued first...
                delta = asyncio.create_task(tagged(svc, "delta", wire(
                    op="analyze_delta", circuit="c17",
                    edits=[["harden", sites[0], 10.0]],
                )))
                responses = await asyncio.gather(blocker, cold, delta)
                assert all(r["ok"] for r in responses)
                # ...but the incremental request is served before it.
                assert order.index("delta") < order.index("cold")
        asyncio.run(main())


# ------------------------------------------------------------------ deadlines


class TestDeadlines:
    def test_wait_and_queue_boundaries(self, tmp_path):
        faults = ServiceFaultInjector([
            ServiceFaultSpec("stall_request", stall_s=0.4, request=0),
        ])

        async def main():
            async with serving(tmp_path, workers=1, faults=faults) as svc:
                blocker = asyncio.create_task(svc._respond(wire(
                    op="analyze", circuit="c17", coalesce=False, client="a",
                )))
                await asyncio.sleep(0.05)
                # Queued behind the stalled request with a 0.15s budget:
                # the submitter's wait expires first...
                bounded = await svc._respond(wire(
                    op="analyze", circuit="c17", coalesce=False,
                    client="b", deadline=0.15,
                ))
                assert not bounded["ok"]
                assert bounded["error"]["type"] == "DeadlineExceededError"
                assert not bounded["error"]["retriable"]
                assert svc.counters["deadline_wait"] == 1
                # ...and when the worker finally dequeues it, the queue
                # boundary refuses to start work for a dead caller.
                blocked = await blocker
                assert blocked["ok"]
                for _ in range(100):
                    if svc.counters["deadline_queue"]:
                        break
                    await asyncio.sleep(0.02)
                assert svc.counters["deadline_queue"] == 1
        asyncio.run(main())

    def test_budget_spent_before_a_dedicated_sweep_is_a_deadline_error(
        self, tmp_path
    ):
        """A dedicated sharded sweep whose budget ran out before it
        started (here: waiting on the circuit's chain lock) fails at the
        plan-build boundary with DeadlineExceededError — not with the
        config layer's rejection of a zero ``deadline`` knob — and an
        in-flight duplicate of the request gets that same answer."""
        import threading

        async def main():
            async with serving(tmp_path, jobs=2) as svc:
                assert (await svc._respond(wire(
                    op="analyze", circuit="c17",
                )))["ok"]
                (state,) = svc._circuits.values()
                held = threading.Event()

                def hold_chain_lock():
                    with state.lock:
                        held.set()
                        time.sleep(0.6)

                holder = threading.Thread(target=hold_chain_lock)
                holder.start()
                held.wait()
                edits = [["replace_gate", "N10", "nor"]]
                original = asyncio.create_task(svc._respond(wire(
                    op="analyze_delta", circuit="c17", edits=edits,
                    deadline=0.2, idempotency_key="k1",
                )))
                await asyncio.sleep(0.05)
                duplicate = await svc._respond(wire(
                    op="analyze_delta", circuit="c17", edits=edits,
                    idempotency_key="k1",
                ))
                first = await original
                holder.join()
                assert first["error"]["type"] == "DeadlineExceededError"
                assert duplicate["error"]["type"] == "DeadlineExceededError"
                assert duplicate["error"]["message"] == (
                    "deadline expired before plan build"
                )
                assert svc.counters["journal_coalesced"] == 1
                assert svc.counters["deadline_plan"] == 1
        asyncio.run(main())

    def test_generous_deadline_succeeds(self, tmp_path, c17_ref):
        async def main():
            async with serving(tmp_path, default_deadline=30.0) as svc:
                response = await svc._respond(wire(op="analyze", circuit="c17"))
                assert response["ok"]
                assert_matches_reference(response["result"], c17_ref)
        asyncio.run(main())

    def test_deadline_requests_reuse_the_warm_pool(self, tmp_path):
        """Each dedicated sweep carries its request's remaining budget, a
        new value every time; the sharded driver and its pool are reused
        all the same."""
        async def main():
            async with serving(tmp_path, jobs=2, default_deadline=60.0) as svc:
                # Pre-build the state whiteboxed so the crossover guard
                # can be disabled: the sweeps must run on the pool.
                req = parse_request({"op": "analyze", "circuit": "s953"})
                state = await asyncio.to_thread(svc._state_for, req)
                backend = state.engine.sharded_backend(jobs=2)
                backend.min_process_work = 0
                for top in (3, 5):
                    response = await svc._respond(wire(
                        op="analyze", circuit="s953", coalesce=False, top=top,
                    ))
                    assert response["ok"]
                    assert response["result"]["cached"] is False
                    assert backend.last_outcomes  # swept on the pool
                    assert state.engine._sharded_backend is backend
                assert backend.stats["respawns"] == 0
        asyncio.run(main())


# ---------------------------------------------------------------- chaos paths


class TestServiceChaos:
    def test_corrupt_artifact_recomputes_identically(self, tmp_path, c17_ref):
        faults = ServiceFaultInjector([
            ServiceFaultSpec("corrupt_artifact", op="analyze", request=1),
        ])

        async def main():
            async with serving(tmp_path, faults=faults) as svc:
                first = await svc._respond(wire(op="analyze", circuit="c17"))
                # The chaos hook flips a byte of the stored result right
                # before this lookup: integrity check -> quarantine ->
                # recompute, never a wrong answer.
                second = await svc._respond(wire(op="analyze", circuit="c17"))
                assert second["ok"]
                assert second["result"]["recomputed"]
                assert not second["result"]["cached"]
                assert_matches_reference(second["result"], c17_ref)
                assert np.array_equal(
                    np.asarray(second["result"]["p_sensitized"]),
                    np.asarray(first["result"]["p_sensitized"]),
                )
                assert svc.counters["recomputed"] == 1
                assert svc.store.stats()["corrupt"] == 1
                # The recompute rehabilitated the entry: next hit caches.
                third = await svc._respond(wire(op="analyze", circuit="c17"))
                assert third["result"]["cached"]
        asyncio.run(main())

    def test_worker_crash_trips_breaker_and_degrades_identically(
        self, tmp_path, c17_ref
    ):
        faults = ServiceFaultInjector([
            ServiceFaultSpec("worker_error", request=0),
            ServiceFaultSpec("worker_error", request=1),
        ])

        async def main():
            async with serving(
                tmp_path, jobs=2, faults=faults,
                breaker_threshold=2, breaker_cooldown=0.3,
            ) as svc:
                # Two synthetic pool failures: each degrades in-line...
                for index in range(2):
                    response = await svc._respond(wire(
                        op="analyze", circuit="c17", fit=True, top=index + 1,
                    ))
                    assert response["ok"]
                    assert response["result"]["degraded"]
                    assert_matches_reference(response["result"], c17_ref)
                assert svc.breaker.state == "open"
                assert svc.breaker.trips == 1
                # ...and the open breaker short-circuits the next request
                # straight to the in-process backend (no fault staged).
                shorted = await svc._respond(wire(
                    op="analyze", circuit="c17", fit=True, top=3,
                ))
                assert shorted["ok"] and shorted["result"]["degraded"]
                assert_matches_reference(shorted["result"], c17_ref)
                assert svc.counters["degraded"] == 3
                assert svc.counters["failed"] == 0
                # After the cooldown a half-open probe runs sharded again
                # and its success closes the breaker.
                await asyncio.sleep(0.35)
                probe = await svc._respond(wire(
                    op="analyze", circuit="c17", fit=True, top=4,
                ))
                assert probe["ok"] and not probe["result"]["degraded"]
                assert_matches_reference(probe["result"], c17_ref)
                assert svc.breaker.state == "closed"
        asyncio.run(main())

    def test_idle_worker_crash_through_service_recovers(
        self, tmp_path, s953_ref
    ):
        """An idle worker of the service's warm pool is killed: the next
        sweep finds the executor already broken at submission, and the
        driver respawns and re-runs instead of failing the request."""
        async def main():
            async with serving(tmp_path, jobs=2) as svc:
                backend = await warm_pool_backend(svc)
                kill_idle_worker(backend)
                response = await svc._respond(wire(
                    op="analyze", circuit="s953", coalesce=False,
                ))
                assert response["ok"], response
                assert not response["result"]["degraded"]
                assert np.array_equal(
                    np.asarray(response["result"]["p_sensitized"]), s953_ref
                )
                assert svc.counters["failed"] == 0
                assert backend.stats["respawns"] == 1
                assert svc.breaker.state == "closed"
        asyncio.run(main())

    def test_sick_pool_crash_every_attempt_degrades_and_trips_breaker(
        self, tmp_path, s953_ref
    ):
        """A real pool whose every worker dies on every shard: the driver
        spends its retry budget and raises, the service re-runs each
        request in-process (bit-identical), and the breaker opens so the
        next request skips the pool instead of paying that budget."""
        from repro.testing import FaultInjector, FaultSpec

        engine_faults = FaultInjector([
            FaultSpec("crash", shard=None, attempt=None),
        ])

        async def main():
            async with serving(
                tmp_path, jobs=2, engine_faults=engine_faults,
                breaker_threshold=2,
            ) as svc:
                backend = await warm_pool_backend(
                    svc, fault_injector=engine_faults
                )

                async def analyze_degraded(top):
                    response = await svc._respond(wire(
                        op="analyze", circuit="s953", coalesce=False,
                        top=top,
                    ))
                    assert response["ok"], response
                    assert response["result"]["degraded"]
                    assert np.array_equal(
                        np.asarray(response["result"]["p_sensitized"]),
                        s953_ref,
                    )

                for top in (1, 2):
                    await analyze_degraded(top)
                assert backend.stats["worker_crashes"] >= 2
                assert svc.breaker.state == "open"
                respawns = backend.stats["respawns"]
                await analyze_degraded(3)
                assert backend.stats["respawns"] == respawns  # pool skipped
                assert svc.breaker.state == "open"
                assert svc.counters["degraded"] == 3
                assert svc.counters["failed"] == 0
        asyncio.run(main())

    def test_chaos_error_without_sharded_backend_is_retriable(self, tmp_path):
        # No jobs configured: nothing to degrade *to*, so the synthetic
        # fault surfaces as a typed retriable infrastructure error.
        faults = ServiceFaultInjector([ServiceFaultSpec("worker_error", request=0)])

        async def main():
            async with serving(tmp_path, faults=faults) as svc:
                response = await svc._respond(wire(op="analyze", circuit="c17"))
                assert not response["ok"]
                assert response["error"]["type"] == "WorkerCrashError"
                assert response["error"]["retriable"]
                assert svc.counters["failed"] == 1
        asyncio.run(main())


# ------------------------------------------------------------------- lifecycle


class TestLifecycle:
    def test_drain_rejects_queued_and_cleans_up(self, tmp_path):
        faults = ServiceFaultInjector([
            ServiceFaultSpec("stall_request", stall_s=0.3, request=0),
        ])

        async def main():
            svc = AnalysisService(
                tmp_path / "repro.sock", workers=1, faults=faults
            )
            await svc.start()
            running = asyncio.create_task(svc._respond(wire(
                op="analyze", circuit="c17", coalesce=False, client="a",
            )))
            await asyncio.sleep(0.05)
            queued = asyncio.create_task(svc._respond(wire(
                op="analyze", circuit="c17", coalesce=False, client="b",
            )))
            await asyncio.sleep(0)
            await svc.drain()
            finished, rejected = await asyncio.gather(running, queued)
            # The in-flight request finishes; the queued one is shed with
            # a retriable error so a replacement instance can take it.
            assert finished["ok"]
            assert rejected["error"]["type"] == "ServiceUnavailableError"
            assert rejected["error"]["retriable"]
            assert svc.counters["drained"] == 1
            # Admission after drain sheds immediately.
            late = await svc._respond(wire(op="analyze", circuit="c17"))
            assert late["error"]["type"] == "ServiceUnavailableError"
            assert not os.path.exists(svc.socket_path)
            # drain() is idempotent.
            await svc.drain()
        asyncio.run(main())

    def test_drain_before_start_is_safe(self, tmp_path):
        async def main():
            svc = AnalysisService(tmp_path / "repro.sock")
            await svc.drain()
            response = await svc._respond(wire(op="analyze", circuit="c17"))
            assert response["error"]["type"] == "ServiceUnavailableError"
        asyncio.run(main())

    def test_engine_lru_eviction_closes_state(self, tmp_path):
        async def main():
            async with serving(tmp_path, max_engines=1) as svc:
                await svc._respond(wire(op="analyze", circuit="c17"))
                await svc._respond(wire(op="analyze", circuit="s27"))
                assert len(svc._circuits) == 1
                stats = (await svc._respond(wire(op="stats")))["result"]
                assert stats["engines"] == 1
        asyncio.run(main())


# --------------------------------------------------------- socket & CLI smoke


class TestSocketAndCLI:
    def test_socket_round_trip_matches_in_process(self, tmp_path, c17_ref):
        async def main():
            async with serving(tmp_path, workers=2) as svc:
                def drive():
                    with ServeClient(svc.socket_path) as client:
                        assert client.ping()["pong"]
                        return client.analyze(circuit="c17")["result"]
                result = await asyncio.to_thread(drive)
                assert_matches_reference(result, c17_ref)
        asyncio.run(main())

    def test_socket_garbage_gets_typed_errors(self, tmp_path):
        async def main():
            async with serving(tmp_path) as svc:
                def drive():
                    with ServeClient(svc.socket_path) as client:
                        response = client.request({"op": "nonsense"})
                        assert response["error"]["type"] == "ConfigError"
                        # Raw junk on the same connection: still a typed,
                        # terminal ParseError, not a dropped socket.
                        client._sock.sendall(b"this is not json\n")
                        reply = json.loads(client._file.readline())
                        assert reply["error"]["type"] == "ParseError"
                        assert not reply["error"]["retriable"]
                        # Typed client-side re-raise of wire errors.
                        from repro.server.client import ServeRequestError

                        with pytest.raises(ServeRequestError) as excinfo:
                            client.call({"op": "nonsense"})
                        assert excinfo.value.type == "ConfigError"
                        assert not excinfo.value.retriable
                await asyncio.to_thread(drive)
        asyncio.run(main())

    def test_serve_cli_smoke_sigterm_drains(self, tmp_path, c17_ref):
        """The CI fast server smoke: start, round-trip, SIGTERM, drained."""
        sock = tmp_path / "cli.sock"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(sock),
             "--workers", "1", "--max-queue", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            for _ in range(200):
                if sock.exists():
                    break
                time.sleep(0.05)
            assert sock.exists(), proc.stderr.read() if proc.poll() else "slow start"
            with ServeClient(sock) as client:
                assert client.ping()["pong"]
                result = client.analyze(circuit="c17", fit=True)["result"]
                assert_matches_reference(result, c17_ref)
                _, sites = c17_ref
                delta = client.analyze_delta(
                    circuit="c17", edits=[["harden", sites[0], 10.0]]
                )["result"]
                assert delta["revision"] == 1
        finally:
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert "drained" in out
        assert not sock.exists()


# ----------------------------------------------------- real pool chaos (slow)


@pytest.mark.slow
def test_real_worker_crash_through_service_recovers(tmp_path):
    """Kernel-level chaos *through* the service: a worker process is
    killed mid-shard on the first attempt; the pool self-heals and the
    response is bit-identical to a clean in-process sweep."""
    from repro.netlist.generate import generate_iscas
    from repro.server.protocol import parse_request as _parse
    from repro.testing import FaultInjector, FaultSpec

    engine_faults = FaultInjector([FaultSpec("crash", shard=0, attempt=1)])
    circuit = generate_iscas("s953")
    reference = np.asarray(EPPEngine(circuit).snapshot().p_sensitized)

    async def main():
        async with serving(
            tmp_path, jobs=2, engine_faults=engine_faults
        ) as svc:
            # Pre-build the state whiteboxed so the crossover guard can
            # be disabled: worker processes must actually run (and die).
            req = _parse({"op": "analyze", "circuit": "s953"})
            state = await asyncio.to_thread(svc._state_for, req)
            backend = state.engine.sharded_backend(
                jobs=2, fault_injector=engine_faults
            )
            backend.min_process_work = 0
            response = await svc._respond(wire(op="analyze", circuit="s953"))
            assert response["ok"]
            assert not response["result"]["degraded"]
            assert np.array_equal(
                np.asarray(response["result"]["p_sensitized"]), reference
            )
            assert backend.stats["worker_crashes"] >= 1
            assert svc.breaker.state == "closed"
    asyncio.run(main())


# ------------------------------------------- crash durability (PR 9)


class TestDurableServiceJournal:
    def test_durable_idempotent_duplicate_served_from_journal(self, tmp_path):
        async def main():
            async with serving(
                tmp_path, store_dir=str(tmp_path / "store")
            ) as svc:
                req = dict(
                    op="analyze", circuit="c17", client="a",
                    idempotency_key="k1", coalesce=False,
                )
                first = await svc._respond(wire(**req))
                assert first["ok"]
                assert "journaled" not in first["result"]
                again = await svc._respond(wire(**req))
                assert again["result"]["journaled"] is True
                assert svc.counters["journal_hits"] == 1
                assert np.array_equal(
                    np.asarray(first["result"]["p_sensitized"]),
                    np.asarray(again["result"]["p_sensitized"]),
                )
        asyncio.run(main())

    def test_durable_journal_keys_are_client_scoped(self, tmp_path):
        async def main():
            async with serving(
                tmp_path, store_dir=str(tmp_path / "store")
            ) as svc:
                base = dict(
                    op="analyze", circuit="c17",
                    idempotency_key="shared-key", coalesce=False,
                )
                await svc._respond(wire(client="a", **base))
                other = await svc._respond(wire(client="b", **base))
                # Client b's first use of the key computes; no aliasing.
                assert other["ok"]
                assert "journaled" not in other["result"]
                assert svc.counters["journal_hits"] == 0
        asyncio.run(main())

    def test_durable_reused_key_for_different_request_rejected(self, tmp_path):
        async def main():
            async with serving(
                tmp_path, store_dir=str(tmp_path / "store")
            ) as svc:
                await svc._respond(wire(
                    op="analyze", circuit="c17", client="a",
                    idempotency_key="k1", coalesce=False,
                ))
                reused = await svc._respond(wire(
                    op="analyze", circuit="s27", client="a",
                    idempotency_key="k1", coalesce=False,
                ))
                assert not reused["ok"]
                assert reused["error"]["type"] == "ConfigError"
                assert not reused["error"]["retriable"]
        asyncio.run(main())

    def test_durable_journal_survives_server_restart(self, tmp_path, c17_ref):
        # The restarted-server shape: a duplicate retried against a brand
        # new process sharing the --store-dir replays the journaled
        # result off disk instead of re-sweeping.
        store = str(tmp_path / "store")
        req = dict(
            op="analyze", circuit="c17", client="a",
            idempotency_key="k1", coalesce=False,
        )

        async def main():
            async with serving(tmp_path, store_dir=store) as svc:
                first = await svc._respond(wire(**req))
                assert first["ok"]
            async with serving(tmp_path, store_dir=store, resume=True) as svc:
                again = await svc._respond(wire(**req))
                assert again["result"]["journaled"] is True
                assert svc.counters["journal_hits"] == 1
                assert_matches_reference(again["result"], c17_ref)
        asyncio.run(main())

    def test_durable_memory_only_service_skips_journal(self, tmp_path):
        async def main():
            async with serving(tmp_path) as svc:  # no store_dir
                req = dict(
                    op="analyze", circuit="c17", client="a",
                    idempotency_key="k1", coalesce=False,
                )
                await svc._respond(wire(**req))
                again = await svc._respond(wire(**req))
                # Still served from the in-memory journal tier.
                assert again["result"]["journaled"] is True
        asyncio.run(main())

    def test_durable_checkpoint_dir_injected_for_sharded_sweeps(self, tmp_path):
        from repro.core.resilience import Deadline
        from repro.server.protocol import parse_request

        async def main():
            async with serving(
                tmp_path, jobs=2, store_dir=str(tmp_path / "store")
            ) as svc:
                req = parse_request({"op": "analyze", "circuit": "c17"})
                knobs, degraded = svc._sweep_knobs(
                    req, Deadline(None), dedicated=False
                )
                assert not degraded
                assert knobs["checkpoint"].startswith(
                    os.path.join(str(tmp_path / "store"), "checkpoints")
                )
                # Wire requests can never smuggle a checkpoint path in.
                assert "checkpoint" not in WIRE_KNOB_KEYS
        asyncio.run(main())


class TestDurableLifecycle:
    def test_durable_drain_persists_pending_and_resume_recovers(self, tmp_path):
        faults = ServiceFaultInjector([
            ServiceFaultSpec("stall_request", stall_s=0.3, request=0),
        ])
        store = str(tmp_path / "store")
        pending_file = os.path.join(store, "pending_requests.json")

        async def main():
            svc = AnalysisService(
                tmp_path / "repro.sock", workers=1, faults=faults,
                store_dir=store,
            )
            await svc.start()
            running = asyncio.create_task(svc._respond(wire(
                op="analyze", circuit="c17", coalesce=False, client="a",
            )))
            await asyncio.sleep(0.05)
            queued = asyncio.create_task(svc._respond(wire(
                op="analyze", circuit="c17", coalesce=False, client="b",
                idempotency_key="retry-me",
            )))
            # The journal miss hops through a worker thread before the
            # request reaches the queue; give it time to be admitted.
            await asyncio.sleep(0.1)
            await svc.drain()
            finished, rejected = await asyncio.gather(running, queued)
            assert finished["ok"]
            assert rejected["error"]["retriable"]
            # The shed request's metadata reached disk atomically.
            assert os.path.exists(pending_file)
            with open(pending_file, encoding="utf-8") as handle:
                entries = json.load(handle)
            assert len(entries) == 1
            assert entries[0]["client"] == "b"
            assert entries[0]["idempotency_key"] == "retry-me"
            assert entries[0]["retriable"] is True

            successor = AnalysisService(
                tmp_path / "repro.sock", store_dir=store, resume=True,
            )
            await successor.start()
            assert successor.counters["pending_recovered"] == 1
            stats = successor.stats()
            assert stats["recovered_pending"][0]["idempotency_key"] == "retry-me"
            # Consumed, not replayed forever.
            assert not os.path.exists(pending_file)
            await successor.drain()
        asyncio.run(main())

    def test_durable_warm_pool_survives_the_first_request(self, tmp_path):
        """``--warm`` with ``--store-dir``: the warmed driver is built from
        the knobs a request resolves to, its checkpoint directory
        included, so the first request reuses the warm pool instead of
        closing it and building another."""
        async def main():
            async with serving(
                tmp_path, jobs=2, store_dir=str(tmp_path / "store"),
                warm=("s953",),
            ) as svc:
                state = await asyncio.to_thread(
                    svc._state_for,
                    parse_request({"op": "analyze", "circuit": "s953"}),
                )
                warmed = state.engine._sharded_backend
                assert warmed is not None and warmed.pool_started
                response = await svc._respond(wire(
                    op="analyze", circuit="s953", top=3,
                ))
                assert response["ok"]
                assert state.engine._sharded_backend is warmed
                assert warmed.pool_started
        asyncio.run(main())

    def test_durable_resume_without_predecessor_is_clean(self, tmp_path):
        async def main():
            svc = AnalysisService(
                tmp_path / "repro.sock",
                store_dir=str(tmp_path / "store"), resume=True,
            )
            await svc.start()
            assert svc.counters["pending_recovered"] == 0
            assert svc.stats()["recovered_pending"] == []
            response = await svc._respond(wire(op="analyze", circuit="c17"))
            assert response["ok"]
            await svc.drain()
        asyncio.run(main())


# -------------------------------------------------- client retry (PR 9)


def _stub_server(path, script):
    """A canned-reply unix-socket server for client retry tests.

    ``script`` is a list consumed one request at a time: a dict is sent
    back as the JSON reply; the string ``"drop"`` closes the connection
    without replying (the killed-server shape).
    """
    import socket as socket_module
    import threading

    server = socket_module.socket(
        socket_module.AF_UNIX, socket_module.SOCK_STREAM
    )
    server.bind(str(path))
    server.listen(8)
    server.settimeout(30.0)

    def serve():
        while script:
            try:
                conn, _ = server.accept()
            except OSError:
                return
            handle = conn.makefile("rb")
            while script:
                line = handle.readline()
                if not line:
                    break
                action = script.pop(0)
                if action == "drop":
                    break
                conn.sendall(json.dumps(action).encode() + b"\n")
            handle.close()
            conn.close()
        server.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


class TestDurableClientRetry:
    def test_durable_client_retries_retriable_then_succeeds(self, tmp_path):
        sock = tmp_path / "stub.sock"
        thread = _stub_server(sock, [
            {"ok": False, "error": {
                "type": "QueueFullError", "message": "full",
                "retriable": True, "retry_after": 0.01,
            }},
            {"ok": True, "result": {"pong": True}},
        ])
        with ServeClient(sock, retries=1, backoff=0.01) as client:
            assert client.ping()["pong"]
            assert client.last_attempts == 2
        thread.join(timeout=10)

    def test_durable_client_default_raises_immediately(self, tmp_path):
        sock = tmp_path / "stub.sock"
        _stub_server(sock, [
            {"ok": False, "error": {
                "type": "QueueFullError", "message": "full",
                "retriable": True, "retry_after": 0.01,
            }},
        ])
        with ServeClient(sock) as client:  # retries=0 preserves PR-8 shape
            with pytest.raises(QueueFullError):
                client.ping()
            assert client.last_attempts == 1

    def test_durable_client_never_retries_terminal_errors(self, tmp_path):
        from repro.server.client import ServeRequestError

        sock = tmp_path / "stub.sock"
        _stub_server(sock, [
            {"ok": False, "error": {
                "type": "ConfigError", "message": "bad knob",
                "retriable": False,
            }},
        ])
        with ServeClient(sock, retries=5, backoff=0.01) as client:
            with pytest.raises(ServeRequestError):
                client.ping()
            assert client.last_attempts == 1

    def test_durable_client_reconnects_once_on_drop(self, tmp_path):
        sock = tmp_path / "stub.sock"
        _stub_server(sock, [
            "drop",
            {"ok": True, "result": {"pong": True}},
        ])
        with ServeClient(sock, backoff_cap=0.05) as client:
            assert client.ping()["pong"]
            assert client.reconnects == 1

    def test_durable_client_reconnect_disabled_raises(self, tmp_path):
        from repro.errors import ConnectionLostError

        sock = tmp_path / "stub.sock"
        _stub_server(sock, ["drop"])
        with ServeClient(sock, reconnect=False) as client:
            with pytest.raises(ConnectionLostError):
                client.ping()
            # The taxonomy is preserved: callers catching the PR-8
            # ServiceUnavailableError still catch the drop.
            assert issubclass(ConnectionLostError, ServiceUnavailableError)

    def test_durable_client_rides_through_server_restart(
        self, tmp_path, c17_ref
    ):
        # The whole PR-9 story end to end: a client holding an open
        # connection sees its server drain and a successor start on the
        # same socket + store; its retried idempotent request reconnects
        # and replays the journaled result bit-identically.
        store = str(tmp_path / "store")
        sock = tmp_path / "repro.sock"

        async def main():
            first = AnalysisService(sock, store_dir=store)
            await first.start()
            client = ServeClient(sock, client_id="a", backoff_cap=0.05)

            def ask():
                return client.analyze(
                    circuit="c17", idempotency_key="k1", coalesce=False
                )["result"]

            try:
                one = await asyncio.to_thread(ask)
                await first.drain()
                successor = AnalysisService(sock, store_dir=store, resume=True)
                await successor.start()
                try:
                    two = await asyncio.to_thread(ask)
                finally:
                    await successor.drain()
                assert two["journaled"] is True
                assert client.reconnects == 1
                assert_matches_reference(two, c17_ref)
                assert np.array_equal(
                    np.asarray(one["p_sensitized"]),
                    np.asarray(two["p_sensitized"]),
                )
            finally:
                client.close()
        asyncio.run(main())
