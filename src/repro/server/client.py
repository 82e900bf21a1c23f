"""Blocking client for the analysis service (tests, benchmarks, scripts).

:class:`ServeClient` speaks the JSON-lines protocol over the unix
socket.  Error responses re-raise as the *typed* exceptions of the wire
taxonomy — a caller catches :class:`~repro.errors.QueueFullError` and
backs off for ``retry_after`` seconds, exactly as it would in-process::

    with ServeClient("/tmp/repro.sock") as client:
        result = client.analyze(circuit="c432", fit=True)
        delta = client.analyze_delta(
            circuit="c432", edits=[["harden", "g123", 10.0]]
        )

With ``retries`` set the client retries *retriable* errors itself,
honoring each error's ``retry_after`` with bounded deterministic
backoff, and reconnects once per call when the connection drops or is
refused — the restarted-server case.  Pair that with an
``idempotency_key`` and a retried request can never run twice: the
replacement server answers from its journal.
"""

from __future__ import annotations

import json
import socket
import time

from repro.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    QueueFullError,
    ReproError,
    ServiceUnavailableError,
)

__all__ = ["ServeClient", "ServeRequestError"]

#: Wire error type -> local exception class for re-raising.
_ERROR_TYPES = {
    "QueueFullError": QueueFullError,
    "DeadlineExceededError": DeadlineExceededError,
    "ServiceUnavailableError": ServiceUnavailableError,
}

#: Transport-level failures that mean "the server went away", not "the
#: server said no": the socket refused (restarted server not yet
#: listening), reset/broken mid-request, or missing entirely (the old
#: socket path was unlinked at drain).  These get the free reconnect.
_TRANSPORT_ERRORS = (
    ConnectionRefusedError,
    ConnectionResetError,
    BrokenPipeError,
    FileNotFoundError,
)


class ServeRequestError(ReproError):
    """A typed error response that is not a
    :class:`~repro.errors.ServerError` subclass.

    Carries the wire taxonomy so callers still branch on retriability
    without string matching.
    """

    def __init__(self, info: dict):
        self.type = info.get("type", "InternalError")
        self.retriable = bool(info.get("retriable", False))
        self.retry_after = info.get("retry_after")
        super().__init__(f"{self.type}: {info.get('message', '')}")


def _raise_for(info: dict):
    cls = _ERROR_TYPES.get(info.get("type"))
    if cls is not None:
        exc = cls(info.get("message", ""), retry_after=info.get("retry_after"))
        raise exc
    raise ServeRequestError(info)


class ServeClient:
    """One connection to an :class:`~repro.server.service.AnalysisService`.

    ``timeout`` is the *socket* timeout (transport stalls); request
    deadlines are a separate, server-enforced concept passed per call.

    ``retries`` bounds the automatic retries of *retriable* typed errors
    (queue-full, drain, transient worker faults) per :meth:`call` — the
    default 0 preserves the raise-immediately behavior.  Each retry
    sleeps the server's ``retry_after`` estimate when given, else a
    deterministic exponential backoff ``backoff * 2**(attempt-1)``
    capped at ``backoff_cap`` — no jitter, so test timings are exact.
    Independently of ``retries``, a dropped/refused connection is
    reconnected and the request resent **once** per call (the
    restarted-server case); disable with ``reconnect=False``.
    """

    def __init__(
        self,
        socket_path,
        timeout: float = 120.0,
        client_id: str = "anon",
        retries: int = 0,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        reconnect: bool = True,
    ):
        self.socket_path = str(socket_path)
        self.timeout = timeout
        self.client_id = client_id
        self.retries = max(0, int(retries))
        self.backoff = float(backoff)
        self.backoff_cap = float(backoff_cap)
        self.reconnect = bool(reconnect)
        #: Attempts the most recent :meth:`call` made (introspection).
        self.last_attempts = 0
        #: Reconnects performed across the client's lifetime.
        self.reconnects = 0
        self._sock: socket.socket | None = None
        self._file = None

    # ------------------------------------------------------------ lifecycle

    def connect(self) -> "ServeClient":
        if self._sock is None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.socket_path)
            self._sock = sock
            self._file = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- raw I/O

    def request(self, payload: dict) -> dict:
        """Send one request object, return the raw response object."""
        self.connect()
        line = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        self._sock.sendall(line)
        reply = self._file.readline()
        if not reply:
            raise ConnectionLostError(
                "connection closed by the analysis service", retry_after=1.0
            )
        return json.loads(reply)

    def _backoff_delay(self, attempt: int, retry_after) -> float:
        if retry_after is not None:
            return min(float(retry_after), self.backoff_cap)
        return min(self.backoff * (2.0 ** (attempt - 1)), self.backoff_cap)

    def call(self, payload: dict) -> dict:
        """``request`` + raise typed errors; returns the full ok response.

        Applies the client's retry policy (see the class docstring): a
        transport drop reconnects and resends once per call, a retriable
        typed error is retried up to ``retries`` times with deterministic
        backoff, and anything terminal raises immediately.
        """
        attempt = 0
        retries_left = self.retries
        reconnects_left = 1 if self.reconnect else 0
        while True:
            attempt += 1
            self.last_attempts = attempt
            try:
                response = self.request(payload)
            except _TRANSPORT_ERRORS + (ConnectionLostError,) as exc:
                # The server went away mid-conversation.  Drop the dead
                # socket either way; resend once if allowed.
                self.close()
                if reconnects_left <= 0:
                    raise
                reconnects_left -= 1
                self.reconnects += 1
                retry_after = getattr(exc, "retry_after", None)
                if retry_after:
                    time.sleep(min(float(retry_after), self.backoff_cap))
                continue
            if response.get("ok"):
                return response
            info = response.get("error") or {}
            if not info.get("retriable") or retries_left <= 0:
                _raise_for(info)
            retries_left -= 1
            time.sleep(self._backoff_delay(attempt, info.get("retry_after")))

    # ------------------------------------------------------------------ ops

    def ping(self) -> dict:
        return self.call({"op": "ping"})["result"]

    def stats(self) -> dict:
        return self.call({"op": "stats"})["result"]

    def analyze(
        self,
        bench: str | None = None,
        circuit: str | None = None,
        sites=None,
        knobs: dict | None = None,
        deadline: float | None = None,
        fit: bool = False,
        top: int | None = None,
        coalesce: bool = True,
        idempotency_key: str | None = None,
    ) -> dict:
        """Full sweep; returns the ok response (``result`` + meta)."""
        return self.call({
            "op": "analyze",
            "bench": bench,
            "circuit": circuit,
            "sites": sites,
            "knobs": knobs or {},
            "deadline": deadline,
            "client": self.client_id,
            "fit": fit,
            "top": top,
            "coalesce": coalesce,
            "idempotency_key": idempotency_key,
        })

    def analyze_delta(
        self,
        edits: list,
        bench: str | None = None,
        circuit: str | None = None,
        sites=None,
        knobs: dict | None = None,
        deadline: float | None = None,
        fit: bool = False,
        top: int | None = None,
        idempotency_key: str | None = None,
    ) -> dict:
        """Incremental what-if step on the server-held chain."""
        return self.call({
            "op": "analyze_delta",
            "bench": bench,
            "circuit": circuit,
            "sites": sites,
            "knobs": knobs or {},
            "deadline": deadline,
            "client": self.client_id,
            "fit": fit,
            "top": top,
            "edits": edits,
            "idempotency_key": idempotency_key,
        })
