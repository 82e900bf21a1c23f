"""Traced entry point: ``python perfbench/launcher.py ARGS...`` runs
``repro.cli.main(ARGS)`` with span recording around the public functions
and methods each layer exposes.

Spans are ``[name, start_ns, end_ns, parent, op, attrs]`` records (monotonic
clock, so they line up with the benchmark process's own timestamps).
``parent`` is the index of the enclosing span on the same thread, or -1.
They stay in memory and are written as JSON to ``$PERFBENCH_TRACE_OUT``
when the process exits.  ``$PERFBENCH_SPAWN_NS`` (the benchmark's clock
reading just before it started this process) adds a ``cli.startup`` span
from process start to the call of ``main``; ``$PERFBENCH_OP`` is the op id
given to every span of a one-shot CLI process.  In the analysis server,
each ``AnalysisService._run_request`` call opens a new op whose id is the
request index, so server spans line up with the client's request order.

Functions are wrapped as their modules finish importing (an import hook),
so the traced process imports exactly what the plain CLI imports, and
every module that binds a wrapped function later binds the wrapper.
Forked pool workers stop recording: their time shows inside the parent's
``epp_shard.sweep`` span.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import json
import os
import sys
import threading
import time


def _stats_delta(attribute: str, keys: tuple, pairs: bool = False):
    """Counter hook: the change of ``self.<attribute>[key]`` over the call,
    plus the packed pair count of a ``pack_sites`` result."""

    def before(args):
        return dict(getattr(args[0], attribute))

    def after(args, start, result):
        now = getattr(args[0], attribute)
        attrs = {key: now.get(key, 0) - start.get(key, 0) for key in keys}
        if pairs:
            attrs["pairs"] = int(len(result[3]))
        return attrs

    return before, after


def _after(function):
    """Counter hook reading only the call's arguments and result."""
    return (lambda args: None), (lambda args, start, result: function(args, result))


_SWEEP_KEYS = (
    "chunks", "groups_dense", "groups_row", "groups_cell",
    "cells_on", "cells_computed",
)
_SWEEP = _stats_delta("sweep_stats", _SWEEP_KEYS)
_PACK = _stats_delta("sweep_stats", _SWEEP_KEYS, pairs=True)
_SHARDS = _stats_delta("stats", (
    "shm_shards", "pickle_shards", "shm_bytes", "retries", "respawns",
    "worker_crashes",
))
_MATERIALIZED = _after(lambda args, result: {"pairs": int(len(args[2][3]))})
_LOADED = _after(lambda args, result: {"loaded": int(result is not None)})
_WRITTEN = _after(lambda args, result: {"bytes": len(args[1])})
_DELTA = _after(lambda args, result: {
    key: int(result.stats.get(key, 0)) for key in ("dirty", "reused", "sites")
})

#: module -> [(qualified attribute, span name, counter hook or None)].
#: Several functions may share one span name; per-layer metrics sum a
#: name's self time.
TARGETS = {
    "repro.cli": [
        ("main", "cli.main", None),
        ("resolve_circuit", "netlist.build", None),
    ],
    "repro.netlist.circuit": [("Circuit.compiled", "netlist.compile", None)],
    "repro.probability": [("signal_probabilities", "probability.sp", None)],
    "repro.core.epp": [("EPPEngine.__init__", "epp.engine_init", None)],
    "repro.core.schedule": [
        ("ConeIndex.for_compiled", "schedule.plan", None),
        ("cone_cluster_order", "schedule.plan", None),
    ],
    "repro.core.epp_batch": [
        ("BatchPlan.for_compiled", "schedule.plan", None),
        ("BatchEPPBackend.analyze_sites", "epp_batch.sweep", _SWEEP),
        ("BatchEPPBackend.pack_sites", "epp_batch.sweep", _PACK),
        ("BatchEPPBackend.p_sensitized_many", "epp_batch.sweep", _SWEEP),
        ("BatchEPPBackend.materialize", "epp_batch.materialize", _MATERIALIZED),
    ],
    "repro.core.analysis": [
        ("SERAnalyzer.analyze", "analysis.assemble", None),
        ("SERAnalyzer.report_for", "analysis.report", None),
        ("CircuitSERReport.to_dict", "analysis.report", None),
        ("CircuitSERReport.format_table", "analysis.report", None),
    ],
    "repro.experiments.reporting": [("rows_to_csv", "reporting.csv", None)],
    "repro.core.epp_delta": [
        ("EditSet.apply", "epp_delta.apply", None),
        ("dirty_mask", "epp_delta.dirty_mask", None),
        ("analyze_delta", "epp_delta.self", _DELTA),
    ],
    "repro.server.artifacts": [("ArtifactStore.get", "server.store_get", None)],
    "repro.server.service": [
        ("AnalysisService._run_request", "server.request", None),
    ],
    "repro.core.epp_shard": [
        ("ShardedEPPEngine.analyze_sites", "epp_shard.sweep", _SHARDS),
        ("ShardedEPPEngine.pack_sites", "epp_shard.sweep", _SHARDS),
        ("ShardedEPPEngine.p_sensitized_many", "epp_shard.sweep", _SHARDS),
    ],
    "repro.core.checkpoint": [
        ("ShardCheckpoint.load", "checkpoint.load", _LOADED),
        ("ShardCheckpoint.store", "checkpoint.store", None),
    ],
    "repro.core.durable": [("write_record", "durable.write", _WRITTEN)],
}

#: The span that opens a new op per call; its ``index`` argument is the id.
_REQUEST_ROOT = "AnalysisService._run_request"


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self, op: int):
        self.spans: list[list] = []
        self.enabled = True
        self.default_op = op
        self._local = threading.local()
        self._lock = threading.Lock()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = self.default_op
        return local

    def open(self, name: str, op: int | None = None) -> tuple:
        local = self._state()
        parent = local.stack[-1] if local.stack else -1
        previous_op = local.op
        if op is not None:
            local.op = op
        record = [name, time.monotonic_ns(), 0, parent, local.op, {}]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        local.stack.append(index)
        return record, previous_op

    def close(self, token: tuple, attrs: dict | None = None) -> None:
        record, previous_op = token
        record[2] = time.monotonic_ns()
        if attrs:
            record[5] = attrs
        local = self._state()
        local.stack.pop()
        local.op = previous_op

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a span measured outside a wrapped call."""
        with self._lock:
            self.spans.append([name, start_ns, end_ns, -1, self.default_op, {}])

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _wrap(recorder: Recorder, func, name: str, qualname: str, hook):
    """A span-recording wrapper around ``func``."""
    before, after = hook if hook is not None else (None, None)
    request_root = qualname == _REQUEST_ROOT

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return func(*args, **kwargs)
        op = None
        if request_root:
            op = int(kwargs["index"] if "index" in kwargs else args[3])
        start = before(args) if before is not None else None
        token = recorder.open(name, op)
        try:
            result = func(*args, **kwargs)
        except BaseException:
            recorder.close(token)
            raise
        recorder.close(token, after(args, start, result) if after is not None else None)
        return result

    return wrapper


class _InstrumentingFinder(importlib.abc.MetaPathFinder):
    """Wraps a target module's functions the moment it finishes executing."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        #: id(original function) -> (original, wrapper), for rebinding.
        self.wrapped: dict[int, tuple] = {}

    def find_spec(self, fullname, path, target=None):
        if fullname not in TARGETS:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def instrumented_exec(module):
            exec_module(module)
            self.instrument(module)

        spec.loader.exec_module = instrumented_exec
        return spec

    def instrument(self, module) -> None:
        for qualname, span, hook in TARGETS[module.__name__]:
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapper = _wrap(self.recorder, raw.__func__, span, qualname, hook)
                    setattr(owner, attr, staticmethod(wrapper))
                else:
                    setattr(owner, attr, _wrap(self.recorder, raw, span, qualname, hook))
            else:
                func = getattr(module, attr)
                wrapper = _wrap(self.recorder, func, span, qualname, hook)
                setattr(module, attr, wrapper)
                self.wrapped[id(func)] = (func, wrapper)
        self._rebind()

    def _rebind(self) -> None:
        """Point every loaded ``repro`` module's alias of a wrapped function
        at the wrapper (``from X import f`` bindings made before ``X`` was
        instrumented, e.g. inside an import cycle)."""
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            namespace = module.__dict__
            for key, value in list(namespace.items()):
                entry = self.wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    namespace[key] = entry[1]


def install() -> Recorder:
    recorder = Recorder(op=int(os.environ.get("PERFBENCH_OP", "-1")))
    sys.meta_path.insert(0, _InstrumentingFinder(recorder))
    os.register_at_fork(after_in_child=lambda: setattr(recorder, "enabled", False))
    out = os.environ.get("PERFBENCH_TRACE_OUT")
    if out:
        pid = os.getpid()

        def dump() -> None:
            if os.getpid() == pid:
                recorder.dump(out)

        atexit.register(dump)
    return recorder


def main() -> int:
    recorder = install()
    from repro.cli import main as cli_main

    spawn_ns = os.environ.get("PERFBENCH_SPAWN_NS")
    if spawn_ns:
        recorder.add("cli.startup", int(spawn_ns), time.monotonic_ns())
    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
