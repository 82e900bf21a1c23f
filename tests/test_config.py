"""The unified AnalysisConfig layer and the fixed backend roster.

Covers the consolidation contracts:

* construction-time validation — unknown/conflicting knobs raise
  :class:`~repro.errors.ConfigError` (and, for compatibility with every
  pre-consolidation pin, :class:`~repro.errors.AnalysisError`) naming
  the offending field;
* canonical serialization — ``to_wire``/``from_wire`` round-trip,
  ``digest`` is stable under field order and construction path and
  distinct for distinct configs (hypothesis property tests);
* tolerant-forward decoding — unknown wire keys are ignored outside the
  server's strict mode;
* stable identities — digests of configs that never name a removed knob
  keep their pre-removal values, so persisted stores stay valid;
* reflection — the CLI ``analyze``/``analyze-delta``/``serve`` flag
  sets and the config field metadata are the same surface, 1:1;
* the backend roster — ``BACKENDS`` is the one list of backend names:
  the CLI ``--backend`` choices derive from it and an unknown name is
  refused with the whole roster in the message.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.core.config import (
    KNOB_KEYS,
    RESILIENCE_KNOB_KEYS,
    SHARDED_ONLY_KNOBS,
    SWEEP_KNOB_KEYS,
    WIRE_KNOB_KEYS,
    WIRE_VERSION,
    AnalysisConfig,
    field_metadata,
    knob_reference,
)
from repro.core.epp import EPPEngine
from repro.errors import AnalysisConfigError, AnalysisError, ConfigError
from repro.netlist.library import s27


# --------------------------------------------------------------- validation


class TestValidation:
    def test_unknown_knob_names_the_field(self):
        with pytest.raises(ConfigError, match="bogus"):
            AnalysisConfig.from_knobs(bogus=3)

    def test_unknown_knob_is_also_an_analysis_error(self):
        # The bridge class: pre-consolidation callers pinned
        # AnalysisError at the same boundaries the satellite wants
        # ConfigError at.
        with pytest.raises(AnalysisError, match="unknown analysis knob"):
            AnalysisConfig.from_knobs(bogus=3)

    def test_checkpoint_with_vector_backend_conflicts(self):
        with pytest.raises(ConfigError, match="checkpoint"):
            AnalysisConfig(backend="vector", checkpoint="/tmp/nope")

    def test_resilience_knobs_with_scalar_backend_conflict(self):
        with pytest.raises(ConfigError, match="sharded"):
            AnalysisConfig(backend="scalar", retries=2)

    def test_jobs_with_vector_backend_conflicts(self):
        with pytest.raises(ConfigError, match="jobs="):
            AnalysisConfig(backend="vector", jobs=2)

    def test_value_error_beats_conflict_error(self):
        # jobs=0 with a non-sharded backend must name the bad value,
        # not the cross-field conflict.
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            AnalysisConfig(backend="vector", jobs=0)

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="unknown EPP backend"):
            AnalysisConfig(backend="warp")

    def test_bad_schedule_rejected(self):
        with pytest.raises(ConfigError, match="schedule"):
            AnalysisConfig(schedule="sideways")

    def test_bad_retries_uses_flag_spelling(self):
        with pytest.raises(ConfigError, match="--retries must be >= 0"):
            AnalysisConfig(retries=-1)

    def test_deferred_conflict_caught_at_resolution(self):
        # No explicit backend: construction defers the conflict check
        # (the server injects its backend later) — resolution catches it.
        cfg = AnalysisConfig(retries=2)
        with pytest.raises(ConfigError, match="sharded"):
            cfg.require_backend_support("vector")
        cfg.require_backend_support("sharded")  # and sharded honors it

    def test_engine_rejects_config_plus_knobs(self):
        engine = EPPEngine(s27())
        with pytest.raises(ConfigError, match="not both"):
            engine.analyze(config=AnalysisConfig(), batch_size=4)

    @pytest.mark.parametrize("knobs, field", [
        ({"batch_size": "abc"}, "batch_size"),
        ({"batch_size": [1]}, "batch_size"),
        ({"batch_size": 2.7}, "batch_size"),
        ({"batch_size": True}, "batch_size"),
        ({"jobs": "x"}, "jobs"),
        ({"jobs": True}, "jobs"),
        ({"jobs": 2.0}, "jobs"),
        ({"retries": "x"}, "retries"),
        ({"retries": False}, "retries"),
        ({"shard_timeout": "x"}, "shard_timeout"),
        ({"shard_timeout": True}, "shard_timeout"),
        ({"deadline": "soon"}, "deadline"),
        ({"prune": "false"}, "prune"),
        ({"prune": "true"}, "prune"),
        ({"prune": 0}, "prune"),
    ])
    def test_malformed_values_rejected_naming_the_field(self, knobs, field):
        # Wrong types are refused by name before any int()/float()
        # coercion could raise a bare ValueError or, worse, succeed
        # ("false" used to resolve to prune=True).
        with pytest.raises(AnalysisConfigError, match=field):
            AnalysisConfig.from_knobs(**knobs)

    def test_well_typed_values_accepted(self):
        import numpy as np

        cfg = AnalysisConfig(
            batch_size=np.int64(8), jobs=2, retries=0, shard_timeout=5,
            deadline=2.5, prune=False,
        )
        assert cfg.batch_size == 8 and cfg.shard_timeout == 5
        assert AnalysisConfig(prune="auto").prune == "auto"
        longest = AnalysisConfig(
            shard_timeout=threading.TIMEOUT_MAX, deadline=threading.TIMEOUT_MAX
        )
        assert longest.deadline == threading.TIMEOUT_MAX

    @pytest.mark.parametrize("knobs, message", [
        ({"retries": -1}, "--retries must be >= 0, got -1"),
        ({"shard_timeout": 0}, "--shard-timeout must be > 0 seconds, got 0 "
                               "(omit the flag to disable the per-shard "
                               "deadline)"),
        ({"deadline": -1.5}, "--request-deadline must be > 0 seconds, got "
                             "-1.5 (omit the flag to disable the global "
                             "deadline)"),
        ({"shard_timeout": float("-inf")}, "--shard-timeout must be > 0 "
                                           "seconds, got -inf (omit the flag "
                                           "to disable the per-shard "
                                           "deadline)"),
        # Seconds no thread can wait on: past threading.TIMEOUT_MAX the
        # sharded driver's waits raise OverflowError, and a NaN deadline
        # compares false everywhere, silently switching itself off.
        *(
            ({knob: seconds}, f"{flag} must be a finite number of seconds "
                              f"<= {threading.TIMEOUT_MAX:.0f}, got {seconds}")
            for knob, flag in [("shard_timeout", "--shard-timeout"),
                               ("deadline", "--request-deadline")]
            for seconds in [float("nan"), float("inf"), 1e300, 9.3e9]
        ),
        ({"shard_timeout": -1.0}, "--shard-timeout must be > 0 seconds, got "
                                  "-1.0 (omit the flag to disable the "
                                  "per-shard deadline)"),
        ({"deadline": 0.0}, "--request-deadline must be > 0 seconds, got "
                            "0.0 (omit the flag to disable the global "
                            "deadline)"),
        ({"deadline": -2.5}, "--request-deadline must be > 0 seconds, got "
                             "-2.5 (omit the flag to disable the global "
                             "deadline)"),
        ({"on_failure": "panic"}, "unknown on_failure 'panic'; choose from "
                                  "('retry', 'degrade', 'raise')"),
    ])
    def test_range_errors_keep_the_fault_policy_spelling(self, knobs, message):
        with pytest.raises(AnalysisConfigError) as info:
            AnalysisConfig(**knobs)
        assert str(info.value) == message

    @pytest.mark.parametrize("knob", ["cells", "chunking", "rows"])
    def test_removed_sweep_knobs_are_unknown(self, knob):
        with pytest.raises(ConfigError, match=f"unknown analysis knob '{knob}'"):
            AnalysisConfig.from_knobs(**{knob: "auto"})
        with pytest.raises(ConfigError, match=knob):
            AnalysisConfig.from_wire({knob: "auto"}, strict=True)
        # Tolerant-forward decoding still ignores them.
        assert AnalysisConfig.from_wire({knob: "auto"}) == AnalysisConfig()


# ----------------------------------------------------------- derived tables


class TestDerivedTables:
    def test_knob_key_order_is_the_historical_order(self):
        assert KNOB_KEYS == (
            "backend", "batch_size", "jobs", "prune", "schedule",
            "retries", "shard_timeout", "on_failure",
            "deadline", "fault_injector", "checkpoint",
        )

    def test_knob_surface_sizes(self):
        assert len(dataclasses.fields(AnalysisConfig)) == 11
        assert len(WIRE_KNOB_KEYS) == 8
        assert len(SWEEP_KNOB_KEYS) == 3

    def test_wire_keys_exclude_local_only_fields(self):
        assert "fault_injector" not in WIRE_KNOB_KEYS
        assert "checkpoint" not in WIRE_KNOB_KEYS
        assert "deadline" not in WIRE_KNOB_KEYS

    def test_resilience_keys_are_sharded_only_minus_jobs(self):
        assert RESILIENCE_KNOB_KEYS == tuple(
            k for k in SHARDED_ONLY_KNOBS if k != "jobs"
        )

    def test_sweep_keys(self):
        assert SWEEP_KNOB_KEYS == ("batch_size", "prune", "schedule")

    def test_knob_reference_covers_every_field(self):
        text = knob_reference()
        table = knob_reference(markdown=True)
        for key in KNOB_KEYS:
            assert key in text
            assert f"`{key}`" in table


# ------------------------------------------------- wire round-trip (property)


_WIRE_VALUES = {
    "backend": st.sampled_from([None, "scalar", "vector", "sharded"]),
    "batch_size": st.one_of(st.none(), st.integers(1, 64)),
    "jobs": st.one_of(st.none(), st.integers(1, 8)),
    "prune": st.sampled_from([None, True, False, "auto"]),
    "schedule": st.sampled_from([None, "auto", "cone", "input"]),
    "retries": st.one_of(st.none(), st.integers(0, 5)),
    "shard_timeout": st.one_of(st.none(), st.floats(0.1, 60.0)),
    "on_failure": st.sampled_from([None, "retry", "degrade", "raise"]),
}


@st.composite
def wire_configs(draw):
    """Valid wire-representable configs (no construction conflicts)."""
    knobs = {key: draw(_WIRE_VALUES[key]) for key in _WIRE_VALUES}
    sharded_requested = any(
        knobs[key] is not None for key in ("jobs", "retries",
                                           "shard_timeout", "on_failure")
    )
    if sharded_requested and knobs["backend"] not in (None, "sharded"):
        knobs["backend"] = draw(st.sampled_from([None, "sharded"]))
    return AnalysisConfig(**knobs)


class TestWireRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(cfg=wire_configs())
    def test_to_wire_from_wire_round_trips(self, cfg):
        wire = cfg.to_wire()
        assert wire["version"] == WIRE_VERSION
        assert AnalysisConfig.from_wire(wire) == cfg

    @settings(max_examples=200, deadline=None)
    @given(cfg=wire_configs(), seed=st.integers(0, 2**32 - 1))
    def test_digest_stable_under_key_order(self, cfg, seed):
        import random

        wire = cfg.to_wire()
        items = list(wire.items())
        random.Random(seed).shuffle(items)
        assert AnalysisConfig.from_wire(dict(items)).digest() == cfg.digest()

    @settings(max_examples=200, deadline=None)
    @given(left=wire_configs(), right=wire_configs())
    def test_distinct_configs_digest_differently(self, left, right):
        if left == right:
            assert left.digest() == right.digest()
        else:
            assert left.digest() != right.digest()

    @settings(max_examples=100, deadline=None)
    @given(cfg=wire_configs())
    def test_digest_stable_under_construction_path(self, cfg):
        rebuilt = AnalysisConfig.from_knobs(
            **{k: v for k, v in cfg.knobs().items() if v is not None}
        )
        assert rebuilt.digest() == cfg.digest()

    def test_digest_folds_in_wire_version(self):
        # The v2 stamp is what guarantees post-consolidation store keys
        # can never alias v1 (raw sorted-tuple) identities.
        assert b"analysis-config|v%d" % WIRE_VERSION  # spelling exists
        assert AnalysisConfig().digest() != ""

    def test_digests_survive_the_knob_removal(self):
        # The digest hashes only non-None wire knobs, so configs that never
        # set cells/chunking/rows keep the identities persisted artifact
        # stores and journals were written under.
        assert AnalysisConfig().digest() == "6b5234eac00e9e07c526cbfd1af0f48c"
        assert (
            AnalysisConfig(backend="sharded", jobs=2).digest()
            == "036e5a59e7e7a9d17acd162bc957c9cc"
        )

    def test_from_wire_is_tolerant_forward(self):
        wire = {"version": 99, "batch_size": 8, "hyperdrive": True}
        cfg = AnalysisConfig.from_wire(wire)
        assert cfg.batch_size == 8

    def test_from_wire_strict_rejects_unknown(self):
        with pytest.raises(ConfigError, match="hyperdrive"):
            AnalysisConfig.from_wire({"hyperdrive": True}, strict=True)

    def test_resolved_is_idempotent(self):
        cfg = AnalysisConfig(batch_size=4).resolved()
        assert cfg.resolved() == cfg
        assert cfg.prune == "auto" and cfg.schedule == "auto"


# --------------------------------------------------------------- reflection


def _subcommand(name):
    parser = build_parser()
    actions = parser._subparsers._group_actions[0]
    return actions.choices[name]


def _option_flags(subparser):
    flags = set()
    for action in subparser._actions:
        for option in action.option_strings:
            if option.startswith("--"):
                flags.add(option)
    return flags


#: analyze flags that are not analysis knobs (sampling, SP computation,
#: reporting) — everything else must map 1:1 onto config fields.
_ANALYZE_EXTRAS = {"--help", "--top", "--sample", "--sp-method",
                   "--multi-cycle", "--csv"}
_DELTA_EXTRAS = {"--help", "--top", "--sp-method", "--verify", "--harden",
                 "--set-sp", "--tmr", "--rewire", "--replace"}


class TestCLIReflection:
    def test_analyze_flags_match_config_fields(self):
        flags = _option_flags(_subcommand("analyze")) - _ANALYZE_EXTRAS
        expected = {
            field_metadata(key)["cli"] for key in KNOB_KEYS
            if field_metadata(key)["cli"] is not None
        }
        assert flags == expected

    def test_delta_flags_match_delta_marked_fields(self):
        flags = _option_flags(_subcommand("analyze-delta")) - _DELTA_EXTRAS
        expected = {
            field_metadata(key)["cli"] for key in KNOB_KEYS
            if field_metadata(key)["cli"] is not None
            and field_metadata(key)["delta"]
        }
        assert flags == expected

    def test_harden_carries_the_same_knob_surface_as_delta(self):
        delta = _option_flags(_subcommand("analyze-delta")) - _DELTA_EXTRAS
        harden = {
            flag for flag in _option_flags(_subcommand("harden"))
            if flag in delta
        }
        assert harden == delta

    @pytest.mark.parametrize("command, choices", [
        ("analyze", ("auto", "scalar", "vector", "sharded")),
        ("analyze-delta", ("auto", "vector", "sharded")),
        ("harden", ("auto", "vector", "sharded")),
    ])
    def test_backend_choices(self, command, choices):
        """The incremental commands splice packed arrays, so they offer
        every backend but the scalar oracle."""
        (action,) = [
            action for action in _subcommand(command)._actions
            if "--backend" in action.option_strings
        ]
        assert tuple(action.choices) == choices
        assert action.default == "auto"

    def test_serve_flags_cover_serve_marked_fields(self):
        flags = _option_flags(_subcommand("serve"))
        for key in KNOB_KEYS:
            serve_flag = field_metadata(key)["serve"]
            if serve_flag is not None:
                assert serve_flag in flags

    def test_wire_keys_match_protocol_export(self):
        from repro.server.protocol import WIRE_KNOB_KEYS as PROTOCOL_KEYS

        assert PROTOCOL_KEYS == WIRE_KNOB_KEYS


# ------------------------------------------------------------------ roster


class TestBackendRegistry:
    """The backend roster is closed: an unknown name is refused with the
    whole roster in the message."""

    def test_unknown_backend_error_lists_choices(self):
        engine = EPPEngine(s27())
        with pytest.raises(AnalysisConfigError) as info:
            engine.analyze(backend="warp")
        assert str(info.value) == (
            "unknown EPP backend 'warp'; "
            "choose from ('scalar', 'vector', 'sharded')"
        )
