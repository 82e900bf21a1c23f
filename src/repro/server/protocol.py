"""The analysis-service wire protocol: JSON lines over a local socket.

One request per line, one response per line, UTF-8 JSON with ``\\n``
framing — trivially debuggable with ``socat`` and exactly
round-trippable: Python's ``json`` serializes floats with ``repr``, so a
``p_sensitized`` array served over the wire is ``np.array_equal`` to the
in-process result (the chaos suite pins this).

Requests
--------
``{"op": ..., ...}`` where ``op`` is one of :data:`OPS`:

* ``ping`` / ``stats`` — answered inline, never queued.
* ``analyze`` — full packed sweep.  Fields: ``bench`` (netlist source
  text) or ``circuit`` (library/profile name), optional ``sites``,
  ``knobs`` (:data:`WIRE_KNOB_KEYS` subset), ``deadline`` (seconds,
  end-to-end), ``client`` (in-flight accounting id), ``fit`` (also
  assemble the SER report), ``top`` (truncate the report), and
  ``coalesce`` (default true: identical concurrent requests share one
  sweep), and ``idempotency_key`` (opt-in exactly-once semantics: a
  duplicate submission with the same client + key — including after a
  reconnect to a restarted server — returns the journaled or in-flight
  result instead of re-sweeping; reusing a key for a *different* request
  is a terminal error).
* ``analyze_delta`` — incremental what-if step on the server-held chain
  for the circuit: ``edits`` is a list of edit ops (see
  :func:`edits_from_wire`), remaining fields as for ``analyze``.

Responses
---------
``{"ok": true, "result": {...}, "served_s": ...}`` or
``{"ok": false, "error": {"type", "message", "retriable",
"retry_after"}}`` — the error taxonomy of :func:`error_info`: a client
can retry exactly the errors marked retriable (queue-full, drain,
transient worker faults) and must not retry the terminal ones (bad
input, expired deadline).
"""

from __future__ import annotations

import json

from repro.errors import (
    ConfigError,
    ParseError,
    ReproError,
    ResilienceError,
    ServerError,
)

__all__ = [
    "MAX_LINE_BYTES",
    "OPS",
    "WIRE_KNOB_KEYS",
    "Request",
    "decode_line",
    "edits_from_wire",
    "encode",
    "error_info",
    "error_response",
    "ok_response",
    "parse_request",
]

#: Ops a request may carry.
OPS = ("ping", "stats", "analyze", "analyze_delta")

#: Analysis knobs accepted over the wire — re-exported from
#: :mod:`repro.core.config`, where field metadata marks the JSON-able
#: subset (``fault_injector``/``checkpoint``/``deadline`` are local or
#: per-request concerns and deliberately not knob-reachable from a
#: socket; ``deadline`` has its own top-level request field).
from repro.core.config import WIRE_KNOB_KEYS, AnalysisConfig  # noqa: E402

#: Requests above this size are rejected before JSON parsing: a single
#: client must not be able to balloon the server's heap with one line.
MAX_LINE_BYTES = 32 * 1024 * 1024


class Request:
    """A validated request (everything past :func:`parse_request`)."""

    __slots__ = (
        "op", "bench", "circuit", "sites", "knobs", "config", "deadline",
        "client", "fit", "top", "coalesce", "edits", "idempotency",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields.get(name))

    @property
    def analysis_config(self) -> AnalysisConfig:
        """The request's knobs as one validated
        :class:`~repro.core.config.AnalysisConfig` (built at parse time;
        tests constructing a bare :class:`Request` get it lazily)."""
        if self.config is None:
            self.config = AnalysisConfig.from_wire(self.knobs or {})
        return self.config

    @property
    def circuit_spec(self):
        """What identifies the circuit: bench text beats a library name."""
        return self.bench if self.bench is not None else self.circuit


def encode(message: dict) -> bytes:
    """One response/request line: compact JSON + newline."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one request line; :class:`~repro.errors.ParseError` on junk."""
    if len(line) > MAX_LINE_BYTES:
        raise ParseError(
            f"request line exceeds {MAX_LINE_BYTES} bytes "
            f"(got {len(line)})"
        )
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ParseError(f"request is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError(
            f"request must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def _field(convert, name: str, value):
    """``convert(value)`` for a request field, as a ConfigError naming
    the field when the value does not convert (a terminal caller error,
    not an internal one)."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"'{name}' must be a number, got {value!r}"
        ) from None


def parse_request(obj: dict) -> Request:
    """Validate a decoded request object into a :class:`Request`."""
    op = obj.get("op")
    if op not in OPS:
        raise ConfigError(f"unknown op {op!r}; choose from {OPS}")
    bench = obj.get("bench")
    circuit = obj.get("circuit")
    if op in ("analyze", "analyze_delta"):
        if bench is None and circuit is None:
            raise ConfigError(f"op {op!r} needs 'bench' text or a 'circuit' name")
        if bench is not None and not isinstance(bench, str):
            raise ConfigError("'bench' must be netlist source text")
        if circuit is not None and not isinstance(circuit, str):
            raise ConfigError("'circuit' must be a library/profile name")
    knobs = obj.get("knobs")
    if knobs is None:
        knobs = {}
    if not isinstance(knobs, dict):
        raise ConfigError("'knobs' must be an object")
    # One validation point for the whole knob surface: unknown names
    # (strict — a caller mistake here, not version skew), bad values and
    # conflicting combinations all raise AnalysisConfigError, which *is*
    # a ConfigError on the wire taxonomy (terminal, non-retriable).
    config = AnalysisConfig.from_wire(knobs, strict=True)
    deadline = obj.get("deadline")
    if deadline is not None:
        # The request budget becomes the sharded ``deadline`` knob, so
        # the config layer's check (and message) is the one that applies.
        deadline = _field(float, "deadline", deadline)
        AnalysisConfig(deadline=deadline)
    sites = obj.get("sites")
    if sites is not None and not isinstance(sites, list):
        raise ConfigError("'sites' must be a list of site names")
    idempotency = obj.get("idempotency_key")
    if idempotency is not None:
        if not isinstance(idempotency, str) or not idempotency:
            raise ConfigError("'idempotency_key' must be a non-empty string")
        if op not in ("analyze", "analyze_delta"):
            raise ConfigError(
                f"'idempotency_key' applies to analysis ops only, got {op!r}"
            )
    edits = obj.get("edits")
    if op == "analyze_delta":
        if not isinstance(edits, list) or not edits:
            raise ConfigError("op 'analyze_delta' needs a non-empty 'edits' list")
    top = obj.get("top")
    if top is not None:
        top = _field(int, "top", top)
        if top < 0:
            raise ConfigError(f"'top' must be >= 0, got {top}")
    return Request(
        op=op,
        bench=bench,
        circuit=circuit,
        sites=sites,
        knobs=dict(knobs),
        config=config,
        deadline=deadline,
        client=str(obj.get("client") or "anon"),
        fit=bool(obj.get("fit", False)),
        top=top,
        coalesce=bool(obj.get("coalesce", True)),
        edits=edits,
        idempotency=idempotency,
    )


def edits_from_wire(ops: list):
    """Build an :class:`~repro.core.epp_delta.EditSet` from wire edit ops.

    Each op is ``[kind, ...args]``: ``["set_sp", node, p]``,
    ``["harden", node, factor]``, ``["replace_gate", node, type, fanin?]``,
    ``["add_gate", node, type, fanin]``, ``["remove_node", node]``,
    ``["mark_output", node]``, ``["rewire", node, old, new]``,
    ``["tmr", node, ...]``.  Gate types are case-insensitive names from
    :class:`~repro.netlist.gate_types.GateType`.  A missing or
    unconvertible argument raises :class:`~repro.errors.ConfigError`
    naming the op; a non-finite ``harden`` factor or an out-of-range
    ``set_sp`` probability raises the edit builder's ``AnalysisError``.
    """
    from repro.core.epp_delta import EditSet
    from repro.netlist.gate_types import GateType

    def gate_type_of(value):
        try:
            return GateType[str(value).upper()]
        except KeyError:
            raise ConfigError(f"unknown gate type {value!r}") from None

    edits = EditSet()
    for op in ops:
        if not isinstance(op, list) or not op or not isinstance(op[0], str):
            raise ConfigError(f"malformed edit op {op!r}")
        kind, *args = op
        try:
            if kind == "set_sp":
                edits.set_sp(str(args[0]), float(args[1]))
            elif kind in ("harden", "resize"):
                edits.harden(str(args[0]), float(args[1]) if len(args) > 1 else 10.0)
            elif kind == "replace_gate":
                fanin = args[2] if len(args) > 2 and args[2] is not None else None
                gate_type = gate_type_of(args[1]) if args[1] is not None else None
                edits.replace_gate(str(args[0]), gate_type, fanin)
            elif kind == "add_gate":
                edits.add_gate(str(args[0]), gate_type_of(args[1]), list(args[2]))
            elif kind == "remove_node":
                edits.remove_node(str(args[0]))
            elif kind == "mark_output":
                edits.mark_output(str(args[0]))
            elif kind == "rewire":
                edits.rewire(str(args[0]), str(args[1]), str(args[2]))
            elif kind == "tmr":
                edits.tmr(*(str(name) for name in args))
            else:
                raise ConfigError(f"unknown edit kind {kind!r}")
        except IndexError:
            raise ConfigError(f"edit op {kind!r} is missing arguments: {op!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"edit op {kind!r} has a malformed argument: {op!r} ({exc})"
            ) from None
    return edits


def error_info(exc: BaseException) -> dict:
    """The wire error taxonomy: type + message + retriability.

    Decided by exception class, never by message matching:

    * :class:`~repro.errors.ServerError` subclasses carry their own
      ``retriable`` flag (and ``retry_after`` when the service estimated
      one) — queue-full and drain are retriable, an expired deadline is
      terminal for that request.
    * :class:`~repro.errors.ResilienceError` subclasses are *retriable*:
      they are transient infrastructure faults (worker crash, wedged
      pool, transport failure) that a respawned pool can absorb.
    * Every other :class:`~repro.errors.ReproError` is terminal — bad
      netlists, bad knobs and bad SP maps do not improve with retries.
    * Unexpected exceptions map to a terminal ``InternalError`` with the
      class name preserved in the message.
    """
    if isinstance(exc, ServerError):
        return {
            "type": type(exc).__name__,
            "message": str(exc),
            "retriable": bool(exc.retriable),
            "retry_after": exc.retry_after,
        }
    if isinstance(exc, ResilienceError):
        return {
            "type": type(exc).__name__,
            "message": str(exc),
            "retriable": True,
            "retry_after": None,
        }
    if isinstance(exc, ReproError):
        return {
            "type": type(exc).__name__,
            "message": str(exc),
            "retriable": False,
            "retry_after": None,
        }
    return {
        "type": "InternalError",
        "message": f"{type(exc).__name__}: {exc}",
        "retriable": False,
        "retry_after": None,
    }


def error_response(exc: BaseException) -> dict:
    return {"ok": False, "error": error_info(exc)}


def ok_response(result: dict, **meta) -> dict:
    response = {"ok": True, "result": result}
    response.update(meta)
    return response
