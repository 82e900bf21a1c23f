"""The long-lived analysis service: admission, deadlines, degradation.

:class:`AnalysisService` owns a unix-domain socket speaking the
JSON-lines protocol of :mod:`repro.server.protocol` and keeps the
expensive state — parsed circuits, EPP engines, warm sharded worker
pools, finished results — alive across requests.  It is designed
robustness-first; the moving parts are:

* **Admission control & backpressure** — a bounded priority queue
  (incremental ``analyze_delta`` requests outrank cold full sweeps)
  with load shedding: when the queue or a client's in-flight cap is
  full the request is rejected *before any work starts* with a
  retriable ``QueueFullError`` carrying a ``retry_after`` estimate.
* **End-to-end deadlines** — each request's budget becomes a
  :class:`~repro.core.resilience.Deadline` at admission and is checked
  at every boundary: queue dequeue, plan build, and result merge.  A
  dedicated sharded sweep additionally carries the remaining budget in
  the sharded ``deadline`` knob so the shard scheduler itself stops
  burning worker time once the caller gave up.
* **Request coalescing** — identical concurrent ``analyze`` requests
  (same circuit digest, knobs, sites) share one sweep through a single
  future; each subscriber waits under its *own* deadline behind
  ``asyncio.shield``, so a subscriber timing out or vanishing never
  cancels the shared computation.
* **Artifact integrity** — parsed circuits and finished payloads live
  in the checksummed, token-aware
  :class:`~repro.server.artifacts.ArtifactStore`; a corrupted entry is
  quarantined and transparently recomputed, bit-identical.
* **Circuit breaker & graceful degradation** — the one fallback for a
  failing pool: a sharded sweep that raises a typed
  :class:`~repro.errors.ResilienceError` is re-run on the in-process
  vector backend (bit-identical, flagged ``degraded``), and repeated
  failures trip the breaker so later sweeps skip the pool until a
  cooldown expires.
* **Drain on SIGTERM** — in-flight requests finish, queued ones get a
  retriable ``ServiceUnavailableError``, worker pools are closed, the
  socket is unlinked.
* **Crash durability** — with ``store_dir`` set, artifacts write through
  to a checksummed disk tier, sharded sweeps journal completed shards
  per circuit under ``store_dir/checkpoints/`` (a restarted server
  resumes a killed sweep instead of restarting it), requests carrying an
  ``idempotency_key`` are journaled so duplicates — including after a
  reconnect to a restarted server — return the recorded result instead
  of re-sweeping, and a SIGTERM drain persists queued-request metadata
  that ``resume=True`` (CLI: ``repro serve --resume``) reports back as
  retriable with warm artifacts.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import signal
import threading
import time
from collections import OrderedDict

from repro.core.config import SHARDED_ONLY_KNOBS, AnalysisConfig
from repro.core.resilience import Deadline
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    QueueFullError,
    ResilienceError,
    ServiceUnavailableError,
)
from repro.server.artifacts import ArtifactStore, digest_of
from repro.server.protocol import (
    MAX_LINE_BYTES,
    Payload,
    decode_line,
    edits_from_wire,
    encode,
    encode_json,
    error_response,
    ok_response,
    parse_request,
)

__all__ = ["AnalysisService", "CircuitBreaker"]

#: Lower value = served first.  Incremental requests outrank cold full
#: sweeps: they are interactive (a design loop waiting on a what-if) and
#: cheap (dirty columns only), so letting a 10-second cold sweep queue
#: ahead of them inverts both latency and throughput.
_PRIORITY = {"analyze_delta": 0, "analyze": 1}

#: Knobs that only the sharded backend accepts — stripped when a sweep
#: degrades to the in-process vector backend.  Derived from the config
#: field metadata, so a new sharded-only knob is stripped here the day
#: it exists.
_SHARDED_ONLY = SHARDED_ONLY_KNOBS


def _wire_columns(delta) -> dict:
    """``{key: (list, JSON text)}`` of the payload columns a generation
    determines, in payload order."""
    columns = {
        "sites": list(delta.site_names),
        "p_sensitized": delta.p_sensitized.tolist(),
        "cone_sizes": delta.cone_sizes.tolist(),
    }
    return {key: (values, encode_json(values)) for key, values in columns.items()}


class CircuitBreaker:
    """Trip to in-process degrade after repeated sharded-pool failures.

    Closed: sharded sweeps allowed.  After ``threshold`` *consecutive*
    failures: open — sharded attempts short-circuit straight to the
    vector backend for ``cooldown`` seconds instead of each paying a
    sick pool's full retry budget first.  Then half-open: every request
    may try the pool until the first result is recorded (no single-probe
    gate); a success closes the breaker, a failure re-opens it.
    Degraded sweeps run the same kernels in-process, so results stay
    bit-identical — the breaker trades throughput for not hammering a
    sick pool, never correctness.
    """

    def __init__(self, threshold: int = 3, cooldown: float = 30.0):
        self.threshold = max(1, int(threshold))
        self.cooldown = float(cooldown)
        self.failures = 0
        self.opened_at: float | None = None
        self.trips = 0
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self.opened_at is None:
            return "closed"
        if time.monotonic() - self.opened_at >= self.cooldown:
            return "half-open"
        return "open"

    def allow_sharded(self) -> bool:
        """May this request try the sharded pool right now?"""
        with self._lock:
            return self._state_locked() != "open"

    def record_success(self) -> None:
        with self._lock:
            self.failures = 0
            self.opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            if self.failures >= self.threshold or self.opened_at is not None:
                # A failure while half-open re-opens immediately.
                self.opened_at = time.monotonic()
                self.trips += 1


class _CircuitState:
    """Per-circuit server state: the live engine and its what-if chain."""

    __slots__ = ("digest", "circuit", "engine", "analyzer", "delta", "lock")

    def __init__(self, digest, circuit, engine, analyzer):
        self.digest = digest
        self.circuit = circuit
        self.engine = engine
        self.analyzer = analyzer
        self.delta = None  # latest DeltaAnalysis of the what-if chain
        # Serializes the delta chain (each revision builds on the last);
        # plain full sweeps rely on the engine's own sweep lock.
        self.lock = threading.Lock()

    def close(self) -> None:
        with contextlib.suppress(Exception):
            if self.delta is not None and self.delta.engine is not self.engine:
                self.delta.engine.release_buffers()
            self.engine.release_buffers()


class _Item:
    __slots__ = (
        "req", "deadline", "future", "key", "jkey", "index", "enqueued_at",
    )

    def __init__(self, req, deadline, future, key, jkey, index):
        self.req = req
        self.deadline = deadline
        self.future = future
        self.key = key
        self.jkey = jkey
        self.index = index
        self.enqueued_at = time.monotonic()


class AnalysisService:
    """See the module docstring; construct, ``await start()``, then
    either ``await run()`` (installs signal handlers, blocks until
    drained) or drive requests and ``await drain()`` yourself.

    Parameters
    ----------
    socket_path:
        Unix-domain socket to listen on (created; unlinked at drain).
    max_queue:
        Admission-queue bound; beyond it requests shed with
        ``QueueFullError``.
    workers:
        Concurrent request executors (each runs sweeps in a thread; a
        sweep may itself fan out over a sharded process pool).
    client_inflight:
        Per-client in-flight cap (admitted, not yet answered).
    jobs:
        Default sharded worker count for sweeps; ``None`` keeps sweeps
        on the in-process vector backend unless a request asks.
    default_deadline:
        Applied to requests that carry none (``None``: unbounded).
    max_engines:
        Live per-circuit engines kept; least-recently-used ones are
        closed (pools shut down) on overflow.
    store_bytes:
        Artifact-store memory budget (see :class:`ArtifactStore`).
    store_dir:
        Durability directory, or ``None`` (everything in RAM, the PR-8
        behavior).  Enables the artifact disk tier, per-circuit sweep
        checkpoints and the idempotency journal.
    disk_bytes:
        Disk-tier budget for the artifact store.
    resume:
        Recover a predecessor's persisted queued-request metadata from
        ``store_dir`` at start; recovered entries are reported in
        ``stats()["recovered_pending"]`` (the artifacts themselves are
        already warm via the disk tier, and a killed sweep resumes from
        its checkpoint journal).
    warm:
        Circuit specs to pre-load at start (engine built; the sharded
        pool is warmed too when ``jobs`` is set).
    faults:
        Optional :class:`repro.testing.faults.ServiceFaultInjector` —
        service-level chaos (stalls, artifact corruption, synthetic
        worker faults).
    engine_faults:
        Optional :class:`repro.testing.faults.FaultInjector` attached to
        every sharded sweep — kernel-level chaos (worker crashes,
        stalls, kernel errors) exercised *through* the service.
    """

    def __init__(
        self,
        socket_path,
        *,
        max_queue: int = 32,
        workers: int = 2,
        client_inflight: int = 4,
        jobs: int | None = None,
        default_deadline: float | None = None,
        max_engines: int = 4,
        store_bytes: int = 64 * 1024 * 1024,
        store_dir=None,
        disk_bytes: int = 512 * 1024 * 1024,
        resume: bool = False,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        warm: tuple = (),
        faults=None,
        engine_faults=None,
    ):
        self.socket_path = str(socket_path)
        self.max_queue = int(max_queue)
        self.workers = int(workers)
        self.client_inflight = int(client_inflight)
        self.jobs = jobs
        self.default_deadline = default_deadline
        self.max_engines = max(1, int(max_engines))
        self.warm = tuple(warm)
        self.faults = faults
        self.engine_faults = engine_faults
        self.store = ArtifactStore(
            max_bytes=store_bytes, store_dir=store_dir, disk_bytes=disk_bytes
        )
        self.resume = bool(resume)
        #: Queued-request metadata a drained predecessor persisted,
        #: recovered at start under ``resume=True``.  These requests were
        #: *rejected retriable* at drain time — recovery means telling
        #: the operator (and any client reading ``stats``) exactly what
        #: is safe to resubmit against the now-warm artifacts.
        self.recovered_pending: list[dict] = []
        self.breaker = CircuitBreaker(breaker_threshold, breaker_cooldown)

        self._server = None
        self._queue: asyncio.PriorityQueue | None = None
        self._worker_tasks: list[asyncio.Task] = []
        self._draining = False
        self._drained = asyncio.Event()
        self._seq = itertools.count()
        self._request_index = itertools.count()
        self._sweeps: dict[str, asyncio.Future] = {}
        #: Open client connections, so drain can actually hang up.  A
        #: SIGTERM'd process would drop them at exit anyway; closing
        #: them here keeps an in-process (embedded/test) drain faithful
        #: to that — clients observe the disconnect and fail over.
        self._connections: set = set()
        #: In-flight idempotency keys -> the future computing them, so a
        #: duplicate submission arriving *during* execution shares the
        #: result instead of racing a second sweep.
        self._journal: dict[str, asyncio.Future] = {}
        self._inflight: dict[str, int] = {}
        self._circuits: OrderedDict[str, _CircuitState] = OrderedDict()
        self._circuits_lock = threading.Lock()
        self._ewma_s = 0.5  # rolling estimate of one request's service time
        self.counters = {
            "accepted": 0, "completed": 0, "failed": 0, "shed": 0,
            "coalesced": 0, "cache_hits": 0, "degraded": 0,
            "deadline_queue": 0, "deadline_plan": 0, "deadline_merge": 0,
            "deadline_wait": 0, "drained": 0, "recomputed": 0,
            "journal_hits": 0, "journal_coalesced": 0,
            "pending_persisted": 0, "pending_recovered": 0,
        }

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        self._queue = asyncio.PriorityQueue(maxsize=self.max_queue)
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"repro-serve-worker-{i}")
            for i in range(self.workers)
        ]
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=self.socket_path, limit=MAX_LINE_BYTES
        )
        if self.resume:
            await asyncio.to_thread(self._recover)
        if self.warm:
            await asyncio.to_thread(self._prewarm)

    def _prewarm(self) -> None:
        from repro.server.protocol import Request

        for spec in self.warm:
            req = Request(
                op="analyze", circuit=spec, bench=None, knobs={},
                config=AnalysisConfig(),
            )
            state = self._state_for(req)
            # A request's own sweep knobs, so requests reuse this driver.
            knobs, _ = self._sweep_knobs(req, Deadline(None), dedicated=False)
            if knobs.get("backend") == "sharded":
                with contextlib.suppress(Exception):
                    state.engine.sharded_backend(
                        config=AnalysisConfig.from_knobs(**knobs)
                    ).warm(timeout=60.0)

    def _pending_path(self) -> str | None:
        if self.store.store_dir is None:
            return None
        return os.path.join(self.store.store_dir, "pending_requests.json")

    def _recover(self) -> None:
        """Resume-time recovery: the predecessor's pending queue.

        Reads (and removes) the ``pending_requests.json`` a draining
        predecessor persisted.
        """
        path = self._pending_path()
        if path is None:
            return
        try:
            with open(path, "rb") as handle:
                entries = json.loads(handle.read())
        except FileNotFoundError:
            return
        except (OSError, ValueError):
            entries = []
        if isinstance(entries, list):
            self.recovered_pending = [e for e in entries if isinstance(e, dict)]
            self.counters["pending_recovered"] = len(self.recovered_pending)
        with contextlib.suppress(OSError):
            os.unlink(path)

    def _persist_pending(self, entries: list[dict]) -> None:
        """Drain-time persistence of queued-but-unstarted request metadata.

        The load-shedding contract says this work never started, so the
        metadata is everything a successor needs to report the requests
        retriable: op, client, circuit digest, idempotency key.  Written
        atomically — a crash mid-drain leaves the previous file (or
        none), never a torn one.
        """
        path = self._pending_path()
        if path is None or not entries:
            return
        from repro.core.durable import atomic_write_bytes

        with contextlib.suppress(OSError):
            atomic_write_bytes(
                path, json.dumps(entries, indent=2, sort_keys=True).encode()
            )
            self.counters["pending_persisted"] = len(entries)

    async def run(self, handle_signals: bool = True) -> None:
        """Serve until SIGTERM/SIGINT, then drain and return."""
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        if handle_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        await self.drain()

    async def drain(self) -> None:
        """Finish in-flight requests, reject queued ones, release pools."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        if self._queue is None:  # never started
            self._drained.set()
            return
        if self._server is not None:
            self._server.close()
        # Queued-but-unstarted requests are rejected (retriable): the
        # load-shedding contract says their work never started, so a
        # replacement instance can take them verbatim.
        pending_meta: list[dict] = []
        while True:
            try:
                _, _, item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not None:
                self.counters["drained"] += 1
                pending_meta.append({
                    "op": item.req.op,
                    "client": item.req.client,
                    "circuit": digest_of("circuit", item.req.circuit_spec),
                    "idempotency_key": item.req.idempotency,
                    "retriable": True,
                })
                self._finish(
                    item,
                    exc=ServiceUnavailableError(
                        "service is draining; retry against a replacement",
                        retry_after=1.0,
                    ),
                )
                self._release(item.req)
            self._queue.task_done()
        await asyncio.to_thread(self._persist_pending, pending_meta)
        for _ in self._worker_tasks:
            await self._queue.put((-1, next(self._seq), None))
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        # Hang up on connected clients: the drained instance is done, and
        # their retry logic should fail over to the replacement (which can
        # serve journaled results warm).  A dying process would close
        # these sockets anyway; an embedded drain must do it explicitly.
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        with self._circuits_lock:
            states = list(self._circuits.values())
            self._circuits.clear()
        for state in states:
            await asyncio.to_thread(state.close)
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)
        self._drained.set()

    # ------------------------------------------------------------- protocol

    async def _handle_client(self, reader, writer):
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    from repro.errors import ParseError

                    writer.write(encode(error_response(
                        ParseError("request line too long")
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._respond(line)
                writer.write(encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # vanished client; any shared sweep keeps running
        finally:
            self._connections.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _respond(self, line: bytes) -> dict:
        try:
            req = parse_request(decode_line(line))
        except Exception as exc:
            return error_response(exc)
        if req.op == "ping":
            return ok_response({"pong": True, "draining": self._draining})
        if req.op == "stats":
            return ok_response(self.stats())
        return await self._submit(req)

    # ------------------------------------------------------------ admission

    def _coalesce_key(self, req) -> str | None:
        if req.op != "analyze" or not req.coalesce:
            return None
        # The knob identity is AnalysisConfig.digest() — canonical under
        # field order and construction path, and WIRE_VERSION-stamped so
        # a wire-format bump can never alias a pre-bump key.
        return digest_of(
            "analyze", req.circuit_spec, req.analysis_config.digest(),
            req.sites, req.fit, req.top,
        )

    def _journal_key(self, req) -> str | None:
        if req.idempotency is None:
            return None
        # Client-scoped: two clients independently choosing key "a" must
        # never alias each other's results.
        return digest_of("journal", req.client, req.idempotency)

    @staticmethod
    def _request_digest(req) -> str:
        """What an idempotency key must stay bound to: the request body."""
        return digest_of(
            "request", req.op, req.circuit_spec,
            req.analysis_config.digest(),
            req.sites, req.fit, req.top, req.edits,
        )

    def _retry_after(self) -> float:
        depth = self._queue.qsize() if self._queue is not None else 0
        return round(self._ewma_s * (depth + 1) / max(1, self.workers), 3)

    def _admit(self, req) -> None:
        if self._draining:
            raise ServiceUnavailableError(
                "service is draining; retry against a replacement",
                retry_after=1.0,
            )
        held = self._inflight.get(req.client, 0)
        if held >= self.client_inflight:
            raise QueueFullError(
                f"client {req.client!r} already has {held} requests in "
                f"flight (cap {self.client_inflight})",
                retry_after=self._retry_after(),
            )
        if self._queue.full():
            raise QueueFullError(
                f"admission queue is full ({self.max_queue} requests)",
                retry_after=self._retry_after(),
            )
        self._inflight[req.client] = held + 1
        self.counters["accepted"] += 1

    def _release(self, req) -> None:
        held = self._inflight.get(req.client, 0)
        if held <= 1:
            self._inflight.pop(req.client, None)
        else:
            self._inflight[req.client] = held - 1

    async def _submit(self, req) -> dict:
        started = time.monotonic()
        budget = req.deadline if req.deadline is not None else self.default_deadline
        deadline = Deadline(budget)
        jkey = self._journal_key(req)
        if jkey is not None:
            # Journaled duplicate: the request already ran to completion
            # (possibly in a previous server process — the journal lives
            # in the artifact store, disk tier included).  Serve the
            # recorded result; never re-sweep.
            record = await asyncio.to_thread(self.store.get, "journal", jkey)
            if record is not None:
                if record.get("request") != self._request_digest(req):
                    return error_response(ConfigError(
                        f"idempotency_key {req.idempotency!r} was already "
                        f"used by client {req.client!r} for a different "
                        f"request"
                    ))
                self.counters["journal_hits"] += 1
                payload = dict(record.get("payload") or {})
                payload["journaled"] = True
                return ok_response(payload, served_s=round(
                    time.monotonic() - started, 6
                ), coalesced=False)
            shared = self._journal.get(jkey)
            if shared is not None:
                # In-flight duplicate: share the computing future, each
                # subscriber under its own deadline (as with coalescing).
                self.counters["journal_coalesced"] += 1
                return await self._await_future(
                    shared, deadline, started, coalesced=True
                )
        key = self._coalesce_key(req)
        if key is not None:
            shared = self._sweeps.get(key)
            if shared is not None:
                self.counters["coalesced"] += 1
                return await self._await_future(
                    shared, deadline, started, coalesced=True
                )
        try:
            self._admit(req)
        except Exception as exc:
            self.counters["shed"] += 1
            return error_response(exc)
        future = asyncio.get_running_loop().create_future()
        item = _Item(req, deadline, future, key, jkey, next(self._request_index))
        if key is not None:
            self._sweeps[key] = future
        if jkey is not None:
            self._journal[jkey] = future
        # No await between _admit's full() check and this put: admission
        # and enqueue are atomic on the event loop.
        self._queue.put_nowait((_PRIORITY[req.op], next(self._seq), item))
        return await self._await_future(future, deadline, started, coalesced=False)

    async def _await_future(self, future, deadline, started, coalesced) -> dict:
        """Wait for a (possibly shared) result under this caller's deadline.

        ``asyncio.shield`` is what makes per-subscriber cancellation
        safe: a timeout or a vanished client abandons *this* wait, never
        the shared computation other subscribers still need.
        """
        remaining = deadline.remaining()
        try:
            if remaining is None:
                payload = await asyncio.shield(future)
            else:
                payload = await asyncio.wait_for(
                    asyncio.shield(future), timeout=remaining
                )
        except asyncio.TimeoutError:
            self.counters["deadline_wait"] += 1
            return error_response(DeadlineExceededError(
                "deadline expired while waiting for the result"
            ))
        except Exception as exc:
            return error_response(exc)
        meta = {
            "served_s": round(time.monotonic() - started, 6),
            "coalesced": coalesced,
        }
        return ok_response(payload, **meta)

    # -------------------------------------------------------------- workers

    async def _worker(self) -> None:
        while True:
            _, _, item = await self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            try:
                await self._execute(item)
            finally:
                self._queue.task_done()
                self._release(item.req)

    async def _execute(self, item: _Item) -> None:
        if self._draining:
            self.counters["drained"] += 1
            self._finish(item, exc=ServiceUnavailableError(
                "service is draining; retry against a replacement",
                retry_after=1.0,
            ))
            return
        if item.deadline.expired():
            # Queue-dequeue boundary: the caller's budget burned away
            # while the request waited — never start the work.
            self.counters["deadline_queue"] += 1
            self._finish(item, exc=DeadlineExceededError(
                "deadline expired while queued"
            ))
            return
        started = time.monotonic()
        try:
            payload = await asyncio.to_thread(
                self._run_request, item.req, item.deadline, item.index
            )
        except Exception as exc:
            self.counters["failed"] += 1
            self._finish(item, exc=exc)
        else:
            elapsed = time.monotonic() - started
            self._ewma_s = 0.7 * self._ewma_s + 0.3 * elapsed
            self.counters["completed"] += 1
            if payload.get("degraded"):
                self.counters["degraded"] += 1
            if payload.get("cached"):
                self.counters["cache_hits"] += 1
            self._finish(item, payload=payload)

    def _finish(self, item: _Item, payload=None, exc=None) -> None:
        if item.key is not None and self._sweeps.get(item.key) is item.future:
            del self._sweeps[item.key]
        if item.jkey is not None and self._journal.get(item.jkey) is item.future:
            del self._journal[item.jkey]
        if item.future.done():
            return
        if exc is not None:
            item.future.set_exception(exc)
            # The subscriber may already have given up; retrieving the
            # exception here keeps asyncio from logging it as unhandled.
            item.future.exception()
        else:
            item.future.set_result(payload)

    # ------------------------------------------------------- request logic
    # Everything below runs in a worker thread (asyncio.to_thread).

    def _state_for(self, req) -> _CircuitState:
        spec = req.circuit_spec
        digest = digest_of("circuit", spec)
        with self._circuits_lock:
            state = self._circuits.get(digest)
            if state is not None:
                self._circuits.move_to_end(digest)
                return state
        circuit = self.store.get("circuit", digest)
        if circuit is None:
            if req.bench is not None:
                from repro.netlist.bench import parse_bench

                circuit = parse_bench(req.bench, name=f"wire-{digest[:8]}")
            else:
                from repro.cli import resolve_circuit

                circuit = resolve_circuit(req.circuit)
            self.store.put("circuit", digest, circuit)
        from repro.core.analysis import SERAnalyzer

        analyzer = SERAnalyzer(circuit)
        state = _CircuitState(digest, circuit, analyzer.engine, analyzer)
        evicted = []
        with self._circuits_lock:
            existing = self._circuits.get(digest)
            if existing is not None:
                return existing  # lost a benign build race
            self._circuits[digest] = state
            while len(self._circuits) > self.max_engines:
                _, old = self._circuits.popitem(last=False)
                evicted.append(old)
        for old in evicted:
            old.close()
        return state

    def _sweep_knobs(self, req, deadline, dedicated: bool) -> tuple[dict, bool]:
        """Resolve request knobs into sweep knobs; returns (knobs, degraded).

        A dedicated (non-coalesced) sharded sweep carries the request's
        remaining budget in the ``deadline`` knob — or, when none is
        left, raises :class:`~repro.errors.DeadlineExceededError` at the
        plan-build boundary (a zero budget is no valid knob value).
        Shared sweeps run under no per-request deadline (subscribers each
        enforce their own while waiting).  Either way the warm pool is
        reused: the engine treats the deadline as a per-call budget, not
        as part of the pool's identity.
        """
        knobs = dict(req.knobs)
        if (
            self.jobs is not None
            and knobs.get("jobs") is None
            and knobs.get("backend") in (None, "sharded")
        ):
            knobs["jobs"] = self.jobs
            knobs["backend"] = "sharded"
        sharded = knobs.get("backend") == "sharded" or knobs.get("jobs") is not None
        if not sharded:
            return knobs, False
        if not self.breaker.allow_sharded():
            return self._degrade_knobs(knobs), True
        knobs.setdefault("backend", "sharded")
        if self.engine_faults is not None:
            knobs["fault_injector"] = self.engine_faults
        if self.store.store_dir is not None:
            # Server-controlled (never wire-reachable) sweep journal, one
            # directory per circuit: a sweep the server dies inside is
            # resumed — not restarted — by its successor.
            knobs["checkpoint"] = os.path.join(
                self.store.store_dir, "checkpoints",
                digest_of("circuit", req.circuit_spec),
            )
        if dedicated:
            # Explicit (possibly None) so a delta re-sweep never inherits
            # a *previous* request's deadline through the snapshot knobs.
            remaining = deadline.remaining()
            if remaining is not None and remaining <= 0.0:
                self.counters["deadline_plan"] += 1
                raise DeadlineExceededError(
                    "deadline expired before plan build"
                )
            knobs["deadline"] = remaining
        return knobs, False

    @staticmethod
    def _degrade_knobs(knobs: dict) -> dict:
        degraded = {
            key: value for key, value in knobs.items()
            if key not in _SHARDED_ONLY
        }
        degraded["backend"] = "vector"
        # Explicit None overrides survive knob merging in analyze_delta,
        # clearing any sharded-only knob a snapshot may have recorded.
        for key in _SHARDED_ONLY:
            degraded[key] = None
        degraded["jobs"] = None
        return degraded

    def _run_request(self, req, deadline, index) -> dict:
        state = self._state_for(req)
        if req.op == "analyze":
            payload = self._run_analyze(req, state, deadline, index)
        else:
            payload = self._run_delta(req, state, deadline, index)
        jkey = self._journal_key(req)
        if jkey is not None:
            # Journal successes only: errors stay retriable by design.
            self.store.put("journal", jkey, {
                "request": self._request_digest(req),
                "payload": dict(payload),
            })
        return payload

    def _sweep(self, req, deadline, run, dedicated, index) -> tuple:
        """Run one sweep under the breaker: returns (delta, degraded).

        ``run`` is a callable taking the resolved sweep knobs.  A
        transient :class:`ResilienceError` from a sharded sweep counts
        against the breaker and degrades *this* request to the
        in-process backend — bit-identical — unless the failure was
        really the request's own deadline expiring, which stays a
        deadline error (retrying in-process would only burn more time
        past a budget that is already gone).  In-band chaos faults
        (:class:`~repro.testing.faults.ServiceFaultInjector`) fire on
        the initial attempt only: they model the service/pool side, and
        the degrade retry is exactly the recovery being pinned.
        """
        knobs, degraded = self._sweep_knobs(req, deadline, dedicated)
        sharded = knobs.get("backend") == "sharded"
        try:
            if self.faults is not None:
                self.faults.apply(req.op, index)
            delta = run(knobs)
        except ResilienceError as exc:
            if deadline.expired():
                raise DeadlineExceededError(
                    "deadline expired during the sweep"
                ) from exc
            if not sharded:
                raise
            self.breaker.record_failure()
            delta = run(self._degrade_knobs(knobs))
            degraded = True
        else:
            if sharded and not degraded:
                self.breaker.record_success()
        return delta, degraded

    def _run_analyze(self, req, state, deadline, index) -> dict:
        token = state.circuit.mutation_token
        result_key = digest_of(
            "analyze", state.digest, req.analysis_config.digest(),
            req.sites, req.fit, req.top,
        )
        if self.faults is not None and self.faults.should(
            "corrupt_artifact", req.op, index
        ):
            self.store.corrupt("result", result_key)
        payload = self.store.get("result", result_key, token=token)
        if payload is not None:
            payload = dict(payload)
            payload["cached"] = True
            return payload
        recomputed = ("result", result_key) in self.store.quarantined
        if deadline.expired():
            # Plan-build boundary: state exists but no sweep planned yet.
            self.counters["deadline_plan"] += 1
            raise DeadlineExceededError("deadline expired before plan build")

        def run(knobs):
            return state.engine.snapshot(sites=req.sites, **knobs)

        delta, degraded = self._sweep(
            req, deadline, run, dedicated=not req.coalesce, index=index
        )
        with state.lock:
            if state.delta is None:
                state.delta = delta  # seed the what-if chain
        if deadline.expired():
            # Merge boundary: the sweep finished but the caller is gone.
            self.counters["deadline_merge"] += 1
            raise DeadlineExceededError("deadline expired before results merged")
        payload = self._payload(req, state, delta, degraded)
        if recomputed:
            self.counters["recomputed"] += 1
            payload["recomputed"] = True
        self.store.put("result", result_key, dict(payload), token=token)
        payload["cached"] = False
        return payload

    def _run_delta(self, req, state, deadline, index) -> dict:
        edits = edits_from_wire(req.edits)
        if deadline.expired():
            self.counters["deadline_plan"] += 1
            raise DeadlineExceededError("deadline expired before plan build")
        base_degraded = False
        with state.lock:
            if state.delta is None:
                # Cold chain: charge the base snapshot to this request.
                base, base_degraded = self._sweep(
                    req, deadline, lambda knobs: state.engine.snapshot(**knobs),
                    dedicated=True, index=index,
                )
                state.delta = base
            previous = state.delta

            def run(knobs):
                return previous.engine.analyze_delta(
                    previous, edits, sites=req.sites, **knobs
                )

            delta, degraded = self._sweep(
                req, deadline, run, dedicated=True, index=index
            )
            degraded = degraded or base_degraded
            if previous.engine is not state.engine and previous.engine is not delta.engine:
                # Retired revision: release its buffers and pools
                # deterministically instead of waiting on GC.
                previous.engine.release_buffers()
            state.delta = delta
        if deadline.expired():
            self.counters["deadline_merge"] += 1
            raise DeadlineExceededError("deadline expired before results merged")
        payload = self._payload(req, state, delta, degraded)
        payload["cached"] = False
        return payload

    def _payload(self, req, state, delta, degraded) -> Payload:
        """The result of one computed request.

        The columns a generation determines are fresh lists every
        time, copied from lists built once per generation together with
        their JSON text (memoized on ``delta.generation``), which
        ``encode`` splices in: a harden delta shares its parent's
        generation, so its response re-encodes only what the edit changed.
        """
        columns = delta.generation.memo("wire_columns", lambda: _wire_columns(delta))
        payload = Payload(
            circuit=delta.engine.circuit.name,
            digest=state.digest,
            revision=int(delta.stats.get("chain_length", 0)),
            **{key: list(values) for key, (values, _) in columns.items()},
            sweep={key: int(value) for key, value in delta.stats.items()},
            degraded=bool(degraded),
        )
        for key, (_, text) in columns.items():
            payload.splice(key, text)
        if req.fit:
            report = state.analyzer.report_for(delta)
            payload["fit"] = report.to_dict(req.top)
        return payload

    # ---------------------------------------------------------------- stats

    def stats(self) -> dict:
        return {
            "draining": self._draining,
            "queue_depth": 0 if self._queue is None else self._queue.qsize(),
            "max_queue": self.max_queue,
            "workers": self.workers,
            "inflight": dict(self._inflight),
            "engines": len(self._circuits),
            "breaker": {
                "state": self.breaker.state,
                "failures": self.breaker.failures,
                "trips": self.breaker.trips,
            },
            "counters": dict(self.counters),
            "artifacts": self.store.stats(),
            "retry_after": self._retry_after(),
            "recovered_pending": list(self.recovered_pending),
        }
