"""Per-layer metrics from the traced run's spans.

A span's self time is its duration minus its children's.  Layer times are
self times summed per span name within an op; counters come from span
attributes.  Root spans (``cli.main``, ``server.request``) belong to no
layer: what no layer span covers is the op's ``op.other_ms``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

ROOTS = ("cli.main", "server.request")

#: per-layer time metric -> span name whose self time it sums.
TIME_LAYERS = {
    "cli.startup_ms": "cli.startup",
    "netlist.build_ms": "netlist.build",
    "netlist.compile_ms": "netlist.compile",
    "probability.sp_ms": "probability.sp",
    "epp.engine_init_ms": "epp.engine_init",
    "schedule.plan_ms": "schedule.plan",
    "epp_batch.sweep_ms": "epp_batch.sweep",
    "epp_batch.materialize_ms": "epp_batch.materialize",
    "analysis.assemble_ms": "analysis.assemble",
    "analysis.report_ms": "analysis.report",
    "reporting.csv_ms": "reporting.csv",
    "epp_delta.apply_ms": "epp_delta.apply",
    "epp_delta.dirty_mask_ms": "epp_delta.dirty_mask",
    "epp_delta.self_ms": "epp_delta.self",
    "server.store_get_ms": "server.store_get",
    "epp_shard.sweep_ms": "epp_shard.sweep",
    "checkpoint.load_ms": "checkpoint.load",
    "checkpoint.store_ms": "checkpoint.store",
    "durable.write_ms": "durable.write",
}

#: Per-request server values, set from the client's side of each request.
SERVER_WIRE = (
    "server.served_ms.delta", "server.served_ms.hit",
    "server.wire_ms.delta", "server.wire_ms.hit", "server.response_kb",
)

#: Attribution slack: children may end a clock read after their parent.
_SLACK_NS = 50_000


class AttributionError(Exception):
    """Spans whose children add up to more than the span itself."""


@dataclass
class TracedOp:
    """One traced op: its spans (from its process's trace) and its window."""

    kind: str
    start_ns: int
    end_ns: int
    spans: list = field(default_factory=list)
    wire_ms: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def wall_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def load_spans(path) -> list:
    with open(path) as handle:
        return json.load(handle)


def spans_by_op(spans: list) -> dict[int, list]:
    """Group spans (with their original indices) by op id."""
    grouped: dict[int, list] = {}
    for index, span in enumerate(spans):
        grouped.setdefault(span[4], []).append((index, span))
    return grouped


def self_times(spans: list) -> list[tuple[list, float]]:
    """(span, self ns) for ``[(index, span)]``; raises AttributionError
    when a span's children add up to more than the span."""
    children: dict[int, int] = {}
    for _, span in spans:
        if span[3] >= 0:
            children[span[3]] = children.get(span[3], 0) + span[2] - span[1]
    out = []
    bad = []
    for index, span in spans:
        duration = span[2] - span[1]
        covered = children.get(index, 0)
        if covered > duration + _SLACK_NS:
            bad.append(f"{span[0]}: children {covered / 1e6:.3f} ms > "
                       f"span {duration / 1e6:.3f} ms")
        out.append((span, duration - covered))
    if bad:
        raise AttributionError("; ".join(bad))
    return out


def op_layers(op: TracedOp) -> dict[str, float]:
    """Every per-layer value of one op (times in ms)."""
    timed = self_times(op.spans)
    roots = sum(span[2] - span[1] for _, span in op.spans if span[3] < 0)
    if roots > op.end_ns - op.start_ns + _SLACK_NS:
        raise AttributionError(
            f"{op.kind} op: root spans {roots / 1e6:.3f} ms > op "
            f"{op.wall_ms:.3f} ms"
        )
    by_name: dict[str, float] = {}
    for span, self_ns in timed:
        by_name[span[0]] = by_name.get(span[0], 0.0) + self_ns / 1e6
    values = {metric: by_name.get(name, 0.0) for metric, name in TIME_LAYERS.items()}
    values.update(dict.fromkeys(SERVER_WIRE, 0.0))
    covered = sum(ms for name, ms in by_name.items() if name not in ROOTS)
    values["op.other_ms"] = op.wall_ms - op.wire_ms - covered
    values["op.wall_raw_ms"] = op.wall_ms

    def total(name: str, *keys: str) -> float:
        return float(sum(
            span[5].get(key, 0)
            for _, span in op.spans if span[0] == name
            for key in keys
        ))

    values["epp_batch.chunks"] = total("epp_batch.sweep", "chunks")
    values["epp_batch.group_dispatches"] = total(
        "epp_batch.sweep", "groups_dense", "groups_row", "groups_cell"
    )
    computed = total("epp_batch.sweep", "cells_computed")
    values["epp_batch.cell_yield"] = (
        total("epp_batch.sweep", "cells_on") / computed if computed else 0.0
    )
    values["epp_batch.pairs"] = (
        total("epp_batch.materialize", "pairs") + total("epp_batch.sweep", "pairs")
    )
    values["epp_delta.dirty_sites"] = total("epp_delta.self", "dirty")
    sites = total("epp_delta.self", "sites")
    values["epp_delta.reuse_ratio"] = (
        total("epp_delta.self", "reused") / sites if sites else 0.0
    )
    values["epp_shard.shards_swept"] = total(
        "epp_shard.sweep", "shm_shards", "pickle_shards"
    )
    values["epp_shard.shm_mb"] = total("epp_shard.sweep", "shm_bytes") / 2**20
    values["epp_shard.retries"] = total(
        "epp_shard.sweep", "retries", "respawns", "worker_crashes"
    )
    values["checkpoint.shards_loaded"] = total("checkpoint.load", "loaded")
    values["durable.write_mb"] = total("durable.write", "bytes") / 2**20
    values.update(op.extra)
    return values
