"""The unified analysis execution-option layer: one typed knob surface.

Every analysis knob in the system — backend selection, sweep shaping
(``batch_size``), sharding (``jobs``) and resilience
(``retries``/``shard_timeout``/``deadline``/``fault_injector``/
``checkpoint``) — lives on one frozen dataclass,
:class:`AnalysisConfig`.  Before this module the same knob tuple was
hand-threaded through eight layers (engine, vector and sharded backends,
worker payloads, delta analysis, ``SERAnalyzer``, the server, the CLI),
and every PR that grew the surface re-threaded it by hand; each one
shipped a seam bug (a truthiness-coerced sweep flag in workers,
``jobs<1`` bypassing validation, knobs missing from cache identities).
Now:

* **Validation happens once, at construction.**  Unknown knob names, bad
  values and conflicting combinations (``checkpoint=`` with
  ``backend="vector"``) raise
  :class:`~repro.errors.AnalysisConfigError` — a subclass of both
  :class:`~repro.errors.ConfigError` and
  :class:`~repro.errors.AnalysisError` — naming the offending field.
* **Serialization is canonical.**  :meth:`AnalysisConfig.to_wire` /
  :meth:`AnalysisConfig.from_wire` round-trip the wire-safe subset of
  fields, and :meth:`AnalysisConfig.digest` is a deterministic identity
  (stable under field order, distinct for distinct configs) that the
  server's artifact/idempotency keys derive from.  :data:`WIRE_VERSION`
  is folded into every digest, so bumping it invalidates persisted
  stores cleanly instead of colliding with old identities.
* **Defaults are tolerant-forward.**  Every field defaults to ``None``
  ("use the calibrated default"), and :meth:`AnalysisConfig.from_wire`
  ignores unknown keys unless asked to be strict — wire dicts written
  before a knob was added or removed keep loading.

Field *metadata* (wire membership, sharded-only, CLI flag spelling,
documentation) lives on the dataclass fields themselves, so the
CLI flag set, the wire schema, the server's sharded-only strip list and
the generated knob reference (``python -m repro knobs --markdown``) are
all derived from this one table and can never drift apart.
"""

from __future__ import annotations

import dataclasses
import hashlib
import numbers
import threading
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.errors import AnalysisConfigError

__all__ = [
    "AnalysisConfig",
    "BACKENDS",
    "DEFAULT_RETRIES",
    "KNOB_KEYS",
    "RESILIENCE_KNOB_KEYS",
    "SHARDED_ONLY_KNOBS",
    "WIRE_KNOB_KEYS",
    "WIRE_VERSION",
    "knob_reference",
]

#: Wire-format version, folded into every :meth:`AnalysisConfig.digest`.
#: Version 1 was the pre-config era: server digests hashed raw
#: ``sorted(knobs.items())`` tuples.  Version 2 is the unified-config
#: digest — bumping the number guarantees the new identities can never
#: collide with (or silently reuse) artifacts persisted under the old
#: scheme; stale disk-store and journal entries simply miss and rebuild.
WIRE_VERSION = 2

#: The EPP backends: the per-site scalar oracle, the batched NumPy sweep
#: and the multi-process sharded driver.  Only ``sharded`` honors the
#: sharded-only knobs, and only ``BACKENDS[1:]`` run ``snapshot``/
#: ``analyze_delta``, whose revisions share one vectorized sweep's
#: columns bit for bit (the CLI's incremental commands offer exactly
#: those).
BACKENDS = ("scalar", "vector", "sharded")

#: Extra attempts per failed shard when ``retries`` is omitted (so a
#: shard is submitted at most three times).
DEFAULT_RETRIES = 2


def _knob(
    *,
    wire: bool,
    kind: str,
    doc: str,
    cli: str | None = None,
    delta: bool = False,
    serve: str | None = None,
    sharded_only: bool = False,
    section: str = "analysis",
) -> Any:
    """One knob field: default ``None`` plus the metadata table entry."""
    return field(
        default=None,
        metadata={
            "wire": wire,
            "kind": kind,
            "doc": doc,
            "cli": cli,
            "delta": delta,
            "serve": serve,
            "sharded_only": sharded_only,
            "section": section,
        },
    )


@dataclass(frozen=True)
class AnalysisConfig:
    """Every analysis knob, validated at construction, ``None`` = default.

    Field order is the historical knob order (and the wire-key order), so
    ``KNOB_KEYS`` derived from this class matches the tuples the delta
    layer and the server protocol pinned before the consolidation.
    """

    backend: str | None = _knob(
        wire=True, kind="str", cli="--backend", delta=True,
        section="backend",
        doc="EPP backend to run: `scalar` (per-site reference oracle), "
            "`vector` (batched NumPy sweep) or `sharded` (process pool of "
            "vector workers); omitted means `sharded` when `jobs=` is "
            "given, else `vector`.",
    )
    batch_size: int | None = _knob(
        wire=True, kind="int", cli="--batch-size", delta=True,
        section="sweep",
        doc="Sites per vectorized chunk (the sweep's column width); "
            "omitted means the calibrated per-circuit default.",
    )
    jobs: int | None = _knob(
        wire=True, kind="int", cli="--jobs", delta=True, serve="--jobs",
        sharded_only=True, section="sharding",
        doc="Worker processes for the sharded backend (implies "
            "`backend=sharded` when no backend is named).",
    )
    retries: int | None = _knob(
        wire=True, kind="int", cli="--retries", sharded_only=True,
        section="resilience",
        doc="Extra attempts per shard beyond the first (sharded backend "
            f"only); omitted means {DEFAULT_RETRIES}.  Once they are spent "
            "the analysis raises `RetryBudgetExceededError`; `0` fails "
            "fast.",
    )
    shard_timeout: float | None = _knob(
        wire=True, kind="float", cli="--shard-timeout", sharded_only=True,
        section="resilience",
        doc="Per-shard deadline in seconds; a shard past it is retried "
            "(respawning a wedged pool first).",
    )
    deadline: float | None = _knob(
        wire=False, kind="float", serve="--request-deadline",
        sharded_only=True, section="resilience",
        doc="Global analysis deadline in seconds (the server derives it "
            "from the request's remaining budget; not a wire knob).",
    )
    fault_injector: Any = _knob(
        wire=False, kind="object", sharded_only=True, section="resilience",
        doc="Test-only fault-injection harness handed to the sharded "
            "driver; never serialized.",
    )
    checkpoint: Any = _knob(
        wire=False, kind="path", cli="--checkpoint", sharded_only=True,
        section="durability",
        doc="Directory for crash-durable shard checkpoints (sharded "
            "backend only); a resumed run reloads finished shards "
            "bit-identically.",
    )

    # ------------------------------------------------------- validation

    def __post_init__(self):
        # Per-field value checks first — a bad value must be named even
        # when a cross-field conflict is also present ("jobs must be
        # >= 1" beats "jobs= applies to the 'sharded' backend only").
        # Types before ranges: a wire string or a bool must be refused
        # by name, never coerced by int()/float() into a valid-looking
        # value (or a bare ValueError).
        for key in _INT_KNOBS:
            value = getattr(self, key)
            if value is not None and (
                isinstance(value, bool)
                or not isinstance(value, numbers.Integral)
            ):
                raise AnalysisConfigError(
                    f"{key} must be an integer, got {value!r}"
                )
        for key in _SECONDS_KNOBS:
            value = getattr(self, key)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, numbers.Real)
            ):
                raise AnalysisConfigError(
                    f"{key} must be a number of seconds, got {value!r}"
                )
        if self.jobs is not None and int(self.jobs) < 1:
            raise AnalysisConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.batch_size is not None and int(self.batch_size) < 1:
            raise AnalysisConfigError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.backend is not None and self.backend not in BACKENDS:
            raise AnalysisConfigError(
                f"unknown EPP backend {self.backend!r}; choose from {BACKENDS}"
            )
        # Recovery values, named by their CLI flags: they arrive from
        # --shard-timeout/--request-deadline style flags, and a bad one
        # must not surface deep in the shard scheduler instead.
        if self.shard_timeout is not None and self.shard_timeout <= 0.0:
            raise AnalysisConfigError(
                f"--shard-timeout must be > 0 seconds, got "
                f"{self.shard_timeout} (omit the flag to disable the "
                "per-shard deadline)"
            )
        if self.deadline is not None and self.deadline <= 0.0:
            raise AnalysisConfigError(
                f"--request-deadline must be > 0 seconds, got "
                f"{self.deadline} (omit the flag to disable the global "
                "deadline)"
            )
        for flag, seconds in (
            ("--shard-timeout", self.shard_timeout),
            ("--request-deadline", self.deadline),
        ):
            # No thread can wait on these: ``threading`` waits raise
            # OverflowError past TIMEOUT_MAX, and a NaN compares false
            # everywhere, silently switching the deadline off (``not x
            # <= max`` holds for NaN and infinity alike).
            if seconds is not None and not seconds <= threading.TIMEOUT_MAX:
                raise AnalysisConfigError(
                    f"{flag} must be a finite number of seconds <= "
                    f"{threading.TIMEOUT_MAX:.0f}, got {seconds}"
                )
        if self.retries is not None and int(self.retries) < 0:
            raise AnalysisConfigError(
                f"--retries must be >= 0, got {self.retries}"
            )
        # Cross-field conflicts — only when the backend is *explicit*.
        # With backend omitted the conflict depends on what the backend
        # resolves to (jobs= implies sharded; the server injects its own
        # backend later), so resolution-time callers run
        # require_backend_support() on the resolved name instead.
        if self.backend is not None:
            self.require_backend_support(self.backend)

    def require_backend_support(self, backend: str) -> None:
        """Reject sharded-only knobs when ``backend`` cannot honor them.

        The messages keep the historical spelling — ``jobs=`` first (its
        own message), then the requested resilience knobs joined with
        ``/`` — so every existing ``match="sharded"`` pin holds.
        """
        if backend == "sharded":
            return
        if self.jobs is not None:
            raise AnalysisConfigError(
                f"jobs= applies to the 'sharded' backend only, "
                f"got backend={backend!r}"
            )
        requested = [
            key for key in RESILIENCE_KNOB_KEYS
            if getattr(self, key) is not None
        ]
        if requested:
            verb = "applies" if len(requested) == 1 else "apply"
            raise AnalysisConfigError(
                f"{'/'.join(requested)} {verb} to the 'sharded' backend "
                f"only, got backend={backend!r}"
            )

    # ----------------------------------------------------- construction

    @classmethod
    def from_knobs(cls, **knobs: Any) -> "AnalysisConfig":
        """Build from a knob dict, rejecting unknown names.

        The single spelling of the historical "unknown analysis knob"
        error — the delta layer, the engine and the CLI all funnel
        through here.
        """
        for key in knobs:
            if key not in _FIELD_SET:
                raise AnalysisConfigError(
                    f"unknown analysis knob {key!r}; "
                    f"choose from {KNOB_KEYS}"
                )
        return cls(**knobs)

    @classmethod
    def from_args(
        cls,
        config: "AnalysisConfig | None",
        knobs: Mapping[str, Any],
        **defaults: Any,
    ) -> "AnalysisConfig":
        """The config of an entry point taking ``config=None, **knobs``.

        ``config`` itself, or one built by :meth:`from_knobs` from
        ``defaults`` plus ``knobs``.  Both at once is ambiguous, so it is
        rejected naming the knobs.
        """
        if config is None:
            return cls.from_knobs(**defaults, **knobs)
        if knobs:
            raise AnalysisConfigError(
                "pass either config= or individual analysis knobs, "
                f"not both (got config= plus {sorted(knobs)})"
            )
        return config

    def replace(self, **changes: Any) -> "AnalysisConfig":
        """A copy with ``changes`` applied (re-validated on construction)."""
        return dataclasses.replace(self, **changes)

    # -------------------------------------------------------- knob views

    def knobs(self) -> dict:
        """All knobs as a plain dict (``None`` entries included)."""
        return {key: getattr(self, key) for key in KNOB_KEYS}

    def effective_backend(self) -> str:
        """The backend name this config runs on once defaults resolve:
        an explicit name wins, ``jobs=`` implies ``sharded``, otherwise
        ``vector``."""
        if self.backend is not None:
            return self.backend
        if self.jobs is not None:
            return "sharded"
        return "vector"

    # ----------------------------------------------------- serialization

    def to_wire(self) -> dict:
        """The canonical wire form: version + the non-``None`` wire knobs.

        Non-wire fields (``deadline``, ``fault_injector``,
        ``checkpoint``) never serialize: they are per-process or
        per-request concerns, and including them would fork artifact
        identities that are bit-identical by construction.
        """
        wire: dict = {"version": WIRE_VERSION}
        for key in WIRE_KNOB_KEYS:
            value = getattr(self, key)
            if value is not None:
                wire[key] = value
        return wire

    @classmethod
    def from_wire(
        cls, mapping: Mapping[str, Any], *, strict: bool = False
    ) -> "AnalysisConfig":
        """Rebuild from a wire dict.

        Tolerant-forward by default: unknown keys (knobs from a newer
        writer, or the ``version`` stamp itself) are ignored, so old
        readers keep loading new payloads and vice versa.  ``strict=True``
        is the server's request-parsing mode — unknown knob names are a
        caller mistake there, not a version skew.
        """
        unknown = sorted(
            key for key in mapping
            if key != "version" and key not in _WIRE_FIELD_SET
        )
        if strict and unknown:
            raise AnalysisConfigError(
                f"unknown analysis knob(s) {unknown}; "
                f"choose from {WIRE_KNOB_KEYS}"
            )
        return cls(**{
            key: mapping[key] for key in WIRE_KNOB_KEYS if key in mapping
        })

    def digest(self) -> str:
        """Deterministic identity of the wire-visible config.

        blake2b-16 over the sorted, length-prefixed ``key=repr(value)``
        items plus :data:`WIRE_VERSION` — stable under field order and
        construction path (kwargs vs wire), distinct for distinct
        configs.  The server's artifact, coalescing and idempotency keys
        all build on this, so a knob that exists anywhere exists in every
        cache identity.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(b"analysis-config|v%d" % WIRE_VERSION)
        for key in WIRE_KNOB_KEYS:
            value = getattr(self, key)
            if value is not None:
                item = f"{key}={value!r}".encode()
                h.update(b"|%d:" % len(item))
                h.update(item)
        return h.hexdigest()


# ------------------------------------------------------- derived tables

_FIELDS = fields(AnalysisConfig)
_FIELD_SET = frozenset(f.name for f in _FIELDS)

#: Every knob name, in historical order (matches the old delta-layer tuple).
KNOB_KEYS = tuple(f.name for f in _FIELDS)

#: The wire-safe subset (matches the old ``protocol.WIRE_KNOB_KEYS``).
WIRE_KNOB_KEYS = tuple(f.name for f in _FIELDS if f.metadata["wire"])
_WIRE_FIELD_SET = frozenset(WIRE_KNOB_KEYS)

#: Knobs only the sharded backend can honor (matches the old
#: ``service._SHARDED_ONLY`` strip list, ``jobs`` included).
SHARDED_ONLY_KNOBS = tuple(
    f.name for f in _FIELDS if f.metadata["sharded_only"]
)

#: The resilience subset — sharded-only minus ``jobs`` (matches the old
#: ``epp_delta.RESILIENCE_KNOB_KEYS``).
RESILIENCE_KNOB_KEYS = tuple(k for k in SHARDED_ONLY_KNOBS if k != "jobs")

#: Knobs whose values must be integers / seconds (``bool`` excluded from
#: both, although Python counts it as an ``int``).
_INT_KNOBS = tuple(f.name for f in _FIELDS if f.metadata["kind"] == "int")
_SECONDS_KNOBS = tuple(f.name for f in _FIELDS if f.metadata["kind"] == "float")


def field_metadata(name: str) -> Mapping[str, Any]:
    """The metadata table entry for one knob field."""
    for f in _FIELDS:
        if f.name == name:
            return f.metadata
    raise KeyError(name)


# ------------------------------------------------------- knob reference


def knob_reference(markdown: bool = False) -> str:
    """The generated knob reference (``python -m repro knobs``).

    Emitted straight from the field metadata, so the documented surface
    is the implemented surface by construction.
    """
    sections: dict[str, list] = {}
    for f in _FIELDS:
        sections.setdefault(f.metadata["section"], []).append(f)
    lines = []
    if markdown:
        lines.append("<!-- generated by `python -m repro knobs --markdown`;")
        lines.append("     do not edit by hand -->")
        lines.append("")
        lines.append(
            "| Knob | CLI flag | Wire | Scope | What it does |"
        )
        lines.append("|---|---|---|---|---|")
        for f in _FIELDS:
            meta = f.metadata
            cli = meta["cli"] or meta["serve"] or "—"
            scope = "sharded only" if meta["sharded_only"] else "all backends"
            lines.append(
                f"| `{f.name}` | `{cli}` | "
                f"{'yes' if meta['wire'] else 'no'} | {scope} | {meta['doc']} |"
            )
        return "\n".join(lines) + "\n"
    for section, knob_fields in sections.items():
        lines.append(f"[{section}]")
        for f in knob_fields:
            meta = f.metadata
            cli = meta["cli"] or meta["serve"]
            flag = f" ({cli})" if cli else ""
            lines.append(f"  {f.name}{flag}")
            lines.append(f"      {meta['doc']}")
        lines.append("")
    return "\n".join(lines)
