"""The three workloads on one circuit (s9234 by default).

Each workload function takes a :class:`Bench` (pinned process control,
steal-corrected clock, speed probe, failure accounting) and returns its
metrics.  Ops run one at a time on the op core; the benchmark's own
process runs on the other core and only waits, checks outputs and records.
Every op and set-up time is scaled to the reference core speed by the
probe readings on either side of it.
"""

from __future__ import annotations

import csv
import io
import json
import random
import shutil
import socket
import time
from dataclasses import dataclass

from host import Sample, median, percentile, stop_server, vm_hwm_mb
from spans import TracedOp, load_spans, op_layers, spans_by_op

#: Set-ups per untraced run; set-up time is their median.
SETUPS = 3
#: The cold CLI's start-up is short, so it is sampled more often.
STARTUP_SAMPLES = 5
#: Every served run makes at least this many cycles.
MIN_CYCLES = 2
#: Cached reads of the set-up analyze after each served delta.
READS_PER_CYCLE = 4
#: Harden factor of each served delta (``repro harden``'s default).
HARDEN_FACTOR = 10.0
#: Served deltas harden sites whose P_sensitized is at least this, so the
#: drop in total FIT is far above the sum's rounding error.
MIN_HARDEN_P = 1e-6
#: Sites and vectors of the %Dif reference (random simulation).
ACCURACY_SITES = 60
REFERENCE_VECTORS = 30_000

HIT_LAYERS = ("server.served_ms.hit", "server.wire_ms.hit", "server.store_get_ms")


def _csv_p_sensitized(text: str) -> dict[str, float]:
    return {row["node"]: float(row["p_sensitized"])
            for row in csv.DictReader(io.StringIO(text))}


def _tamper_csv(text: str) -> str:
    """The injected wrong result: one site's P_sensitized set to 1.5."""
    header, first, rest = text.split("\n", 2)
    cells = first.split(",")
    cells[header.split(",").index("p_sensitized")] = "1.5"
    return "\n".join((header, ",".join(cells), rest))


def check_csv(text: str, n_sites: int, reference: str | None) -> str | None:
    """Why an op's CSV is wrong, or None."""
    values = _csv_p_sensitized(text)
    if len(values) != n_sites:
        return f"{len(values)} rows, expected {n_sites}"
    bad = [node for node, p in values.items() if not 0.0 <= p <= 1.0]
    if bad:
        return f"p_sensitized outside [0, 1] at {bad[:3]}"
    if reference is not None and text != reference:
        return "CSV differs from the reference run"
    return None


def _cli_loop(bench, tag: str, make_op, check, group: int = 1) -> list:
    """Run CLI ops, ``group`` at a time, while whole groups fit in the run's
    time (at least two groups).  The traced run alternates untraced and
    traced groups.  Returns the op records."""
    ops = []
    loop_start = time.monotonic()
    estimate = 0.0
    while len(ops) < 2 * group or (
        time.monotonic() - loop_start + group * estimate <= bench.seconds
    ):
        traced = bench.trace and (len(ops) // group) % 2 == 1
        for _ in range(group):
            index = len(ops)
            argv, output = make_op(index)
            op = bench.cli(argv, f"{tag}{index}", traced=traced, op_id=index)
            text = output.read_text() if op.rc == 0 and output.exists() else ""
            if bench.inject_wrong and index == 1 and text:
                text = _tamper_csv(text)
            reason = f"exit code {op.rc}" if op.rc != 0 else check(index, text)
            bench.count(f"{tag} op {index}", reason)
            ops.append(op)
        estimate = max(op.sample.raw_s for op in ops[-group:])
    return ops


def _op_times(bench, samples: list[Sample], sites: int) -> dict:
    """The bounded op time, the median of the scaled op times, and the
    diagnostics printed beside it (``op_net_p50_ms`` is the median before
    scaling)."""
    times = [s.scaled_s for s in samples]
    bench.note("ops", len(times), "count")
    bench.note("op_p90_ms", percentile(times, 0.9) * 1e3, "ms")
    bench.note("op_net_p50_ms", median([s.net_s for s in samples]) * 1e3, "ms")
    bench.note("sites_per_s", sites / sum(times), "sites/s")
    return {"op_ms": median(times) * 1e3}


def _group_mean(samples: list[Sample]) -> Sample:
    """One sample for a group of ops: their mean times."""
    n = len(samples)
    return Sample(sum(s.raw_s for s in samples) / n, sum(s.steal_s for s in samples) / n,
                  sum(s.scaled_s for s in samples) / sum(s.net_s for s in samples))


def _cli_metrics(bench, ops, n_sites: int, group: int = 1) -> dict:
    """End-to-end metrics of untraced CLI ops.  An op's time is the mean of
    its group (a resumed half and its complement), so a run's figures do
    not depend on which shards the seed picked."""
    plain = [op for op in ops if not op.traced]
    samples = [
        _group_mean([op.sample for op in plain[i:i + group]])
        for i in range(0, len(plain), group)
    ]
    metrics = _op_times(bench, samples, n_sites * len(samples))
    metrics["peak_rss_mb"] = median([op.rss_mb for op in plain])
    return metrics


def _layers(bench, label: str, ops: list[TracedOp]) -> dict:
    """Per-layer metrics: each value's median over the traced ``ops``.
    Every op's uncovered time is printed too."""
    rows = [op_layers(op) for op in ops]
    for index, row in enumerate(rows):
        bench.lines.append(
            f"traced {label} {index}: op.other_ms {row['op.other_ms']:.3f} ms  "
            f"op.wall_raw_ms {row['op.wall_raw_ms']:.3f} ms"
        )
    return {key: median([row[key] for row in rows]) for key in rows[0]}


def _trace_metrics(bench, ops) -> dict:
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    layers = _layers(bench, "op", [bench.traced_op(op) for op in traced])
    plain_ms = median([op.sample.scaled_s for op in plain])
    traced_ms = median([op.sample.scaled_s for op in traced])
    layers["trace.overhead_pct"] = 100.0 * (traced_ms - plain_ms) / plain_ms
    return layers


def cold_analyze(bench) -> dict:
    """Fresh ``repro analyze CIRCUIT --top 10 --csv OUT`` processes."""
    n_sites = bench.n_sites()
    metrics = {}
    if not bench.trace:
        startups = [
            bench.cli(["-c", "import repro.cli"], f"startup{i}", module=False).sample
            for i in range(STARTUP_SAMPLES)
        ]
        metrics["setup_s"] = median([s.scaled_s for s in startups])
        bench.report_samples("setup", startups)
    csv_path = bench.work / "cold.csv"
    argv = ["analyze", bench.circuit, "--top", "10", "--csv", str(csv_path)]
    # An untimed first op fills the page cache; its CSV is what every op
    # must reproduce.
    warm = bench.cli(argv, "warmup")
    first = csv_path.read_text() if warm.rc == 0 else ""
    bad = f"exit code {warm.rc}" if warm.rc else check_csv(first, n_sites, None)
    if bad:
        raise RuntimeError(f"warm-up op is wrong: {bad}")

    def make_op(index):
        csv_path.unlink(missing_ok=True)
        return argv, csv_path

    def check(index, text):
        return check_csv(text, n_sites, first)

    ops = _cli_loop(bench, "cold", make_op, check)
    bench.report_samples("op", [op.sample for op in ops])
    if bench.trace:
        metrics.update(_trace_metrics(bench, ops))
        metrics["check.pct_dif"] = bench.pct_dif(_csv_p_sensitized(first))
    else:
        metrics.update(_cli_metrics(bench, ops, n_sites))
    return metrics


def sharded_resume(bench) -> dict:
    """``repro analyze --jobs 2 --checkpoint DIR`` restarting over a copy of
    the set-up run's shard journal with a seeded half of the shards deleted."""
    n_sites = bench.n_sites()
    reference_csv = bench.work / "reference.csv"
    ref = bench.cli(
        ["analyze", bench.circuit, "--top", "10", "--csv", str(reference_csv)],
        "reference",
    )
    if ref.rc != 0:
        raise RuntimeError(f"reference run failed with exit code {ref.rc}")
    reference = reference_csv.read_text()
    bad = check_csv(reference, n_sites, None)
    if bad:
        raise RuntimeError(f"reference run is wrong: {bad}")
    out_csv = bench.work / "resume.csv"

    def command(journal):
        return ["analyze", bench.circuit, "--jobs", "2", "--checkpoint",
                str(journal), "--top", "10", "--csv", str(out_csv)]

    setups = []
    for index in range(1 if bench.trace else SETUPS):
        journal = bench.work / f"journal{index}"
        op = bench.cli(command(journal), f"journal{index}")
        text = out_csv.read_text() if op.rc == 0 else ""
        reason = f"exit code {op.rc}" if op.rc else check_csv(text, n_sites, reference)
        if reason:
            raise RuntimeError(f"journaled set-up run is wrong: {reason}")
        setups.append(op.sample)
    # Below the sharded engine's crossover (small test circuits) the run
    # stays in-process and journals nothing; the op then resumes nothing.
    journal.mkdir(exist_ok=True)
    shards = sorted(path.name for path in journal.glob("*.shard"))
    rng = random.Random(bench.seed)
    op_journal = bench.work / "resume_journal"
    deleted: list[str] = []

    def make_op(index):
        # Ops come in pairs: a seeded half of the shards, then the other
        # half, so every pair re-sweeps each shard exactly once and a run's
        # work does not depend on which shards the seed picked.
        if index % 2 == 0:
            deleted[:] = rng.sample(shards, len(shards) // 2)
        else:
            deleted[:] = sorted(set(shards) - set(deleted))
        shutil.rmtree(op_journal, ignore_errors=True)
        shutil.copytree(journal, op_journal)
        for name in deleted:
            (op_journal / name).unlink()
        out_csv.unlink(missing_ok=True)
        return command(op_journal), out_csv

    def check(index, text):
        reason = check_csv(text, n_sites, reference)
        back = sorted(path.name for path in op_journal.glob("*.shard"))
        if reason is None and back != shards:
            reason = f"journal holds {len(back)} of {len(shards)} shards after the run"
        return reason

    ops = _cli_loop(bench, "resume", make_op, check, group=2)
    bench.report_samples("setup", setups)
    bench.report_samples("op", [op.sample for op in ops])
    if bench.trace:
        metrics = _trace_metrics(bench, ops)
        metrics["check.pct_dif"] = bench.pct_dif(_csv_p_sensitized(reference))
        return metrics
    metrics = _cli_metrics(bench, ops, n_sites, group=2)
    metrics["setup_s"] = median([s.scaled_s for s in setups])
    return metrics


class _Client:
    """A closed-loop JSON-lines client over the server's unix socket."""

    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(120.0)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def send(self, payload: dict) -> bytes:
        self.sock.sendall(json.dumps(payload, separators=(",", ":")).encode() + b"\n")
        line = self.reader.readline()
        if not line:
            raise ConnectionError("the server closed the connection")
        return line

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _request(op: str, circuit: str, edits=None) -> dict:
    payload = {
        "op": op, "circuit": circuit, "bench": None, "sites": None,
        "knobs": {}, "deadline": None, "client": "perfbench",
        "fit": True, "top": 10, "idempotency_key": None,
    }
    if edits is None:
        payload["coalesce"] = True
    else:
        payload["edits"] = edits
    return payload


def _start_server(bench, index: int, traced: bool):
    """Spawn ``repro serve`` and send the set-up analyze; returns
    (process, client, set-up sample, set-up result, trace path)."""
    sock = bench.work / f"serve{index}.sock"
    before = bench.last_probe
    started = bench.clock.start()
    proc, trace_path = bench.spawn_cli(["serve", str(sock)], f"serve{index}", traced, -1)
    deadline = time.monotonic() + 120.0
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with code {proc.returncode}")
        try:
            client = _Client(str(sock))
            break
        except (FileNotFoundError, ConnectionRefusedError):
            if time.monotonic() > deadline:
                raise RuntimeError("server socket never came up") from None
            time.sleep(0.002)
    response = json.loads(client.send(_request("analyze", bench.circuit)))
    sample = bench.clock.stop(started)
    bench.scale(sample, before)
    if not response.get("ok"):
        raise RuntimeError(f"set-up analyze failed: {response.get('error')}")
    result = response["result"]
    if len(result["sites"]) != bench.n_sites():
        raise RuntimeError(f"set-up analyze reported {len(result['sites'])} sites")
    return proc, client, sample, result, trace_path


@dataclass
class _Served:
    """One request of the served loop, as the client saw it."""

    kind: str  # "delta" or "hit"
    index: int  # the server's request index
    sample: Sample
    start_ns: int
    end_ns: int
    served_s: float
    nbytes: int
    sites: int


def _serve_loop(bench, client, base: dict, seconds: float) -> list[_Served]:
    """Delta + reads cycles for ``seconds``; returns the loop's requests."""
    order = sorted(
        site for site, p in zip(base["sites"], base["p_sensitized"])
        if p >= MIN_HARDEN_P
    )
    random.Random(bench.seed).shuffle(order)
    read_request = _request("analyze", bench.circuit)
    previous_fit = base["fit"]["total_fit"]
    records = []
    index = 1  # the server numbers requests; the set-up analyze was 0
    loop_start = time.monotonic()
    cycle = 0
    while cycle < MIN_CYCLES or time.monotonic() - loop_start < seconds:
        site = order[cycle % len(order)]
        for step in range(1 + READS_PER_CYCLE):
            kind = "delta" if step == 0 else "hit"
            payload = (
                _request("analyze_delta", bench.circuit,
                         [["harden", site, HARDEN_FACTOR]])
                if kind == "delta" else read_request
            )
            before = bench.last_probe
            start_ns = time.monotonic_ns()
            started = bench.clock.start()
            line = client.send(payload)
            sample = bench.clock.stop(started)
            end_ns = time.monotonic_ns()
            if kind == "delta":
                bench.scale(sample, before)
            response = json.loads(line)
            result = response.get("result") or {}
            if not response.get("ok"):
                reason = f"error {response.get('error')}"
            elif kind == "delta":
                if bench.inject_wrong and cycle == 1:
                    result["p_sensitized"] = [1.0] + result["p_sensitized"][1:]
                reason = _check_delta(result, base, previous_fit)
                previous_fit = result["fit"]["total_fit"]
            else:
                reason = _check_read(result, base)
            bench.count(f"{kind} {cycle}", reason)
            records.append(_Served(kind, index, sample, start_ns, end_ns,
                                   response.get("served_s", 0.0), len(line),
                                   len(result.get("sites", ()))))
            index += 1
        cycle += 1
    return records


def _check_delta(result: dict, base: dict, previous_fit: float) -> str | None:
    if result["sweep"].get("dirty") != 0:
        return f"harden re-swept {result['sweep'].get('dirty')} sites"
    if result["p_sensitized"] != base["p_sensitized"]:
        return "p_sensitized differs from the set-up analyze"
    if not result["fit"]["total_fit"] < previous_fit:
        return "total FIT did not drop"
    return None


def _check_read(result: dict, base: dict) -> str | None:
    if not result.get("cached"):
        return "read was not served from the artifact store"
    if result["p_sensitized"] != base["p_sensitized"] or result["fit"] != base["fit"]:
        return "read differs from the set-up analyze"
    return None


def _serve_traced_ops(records: list[_Served], trace_path) -> tuple[list, list]:
    """(deltas, reads) as traced ops, with the server's spans of each."""
    spans = spans_by_op(load_spans(trace_path))
    deltas, reads = [], []
    for r in records:
        served_ms = r.served_s * 1e3
        wire_ms = (r.end_ns - r.start_ns) / 1e6 - served_ms
        op = TracedOp(r.kind, r.start_ns, r.end_ns, spans.get(r.index, []), wire_ms)
        if r.kind == "delta":
            op.extra = {"server.served_ms.delta": served_ms,
                        "server.wire_ms.delta": wire_ms,
                        "server.response_kb": r.nbytes / 1024.0}
            deltas.append(op)
        else:
            op.extra = {"server.served_ms.hit": served_ms,
                        "server.wire_ms.hit": wire_ms}
            reads.append(op)
    return deltas, reads


def serve_whatif(bench) -> dict:
    """One closed-loop client against ``repro serve`` on the op core."""
    if bench.trace:
        # First half untraced, second half traced: the overhead is the
        # difference of their delta medians.
        halves = {}
        for index, traced in enumerate((False, True)):
            proc, client, _, base, trace_path = _start_server(bench, index, traced)
            try:
                records = _serve_loop(bench, client, base, bench.seconds / 2)
            finally:
                client.close()
                stop_server(proc)
            halves[traced] = (records, trace_path, base)
        records, trace_path, base = halves[True]
        deltas, reads = _serve_traced_ops(records, trace_path)
        metrics = _layers(bench, "delta", deltas)
        hits = _layers(bench, "read", reads)
        metrics.update({key: hits[key] for key in HIT_LAYERS})
        delta_ms = {
            traced: median([r.sample.scaled_s for r in recs if r.kind == "delta"])
            for traced, (recs, _, _) in halves.items()
        }
        metrics["trace.overhead_pct"] = (
            100.0 * (delta_ms[True] - delta_ms[False]) / delta_ms[False]
        )
        metrics["check.pct_dif"] = bench.pct_dif(
            dict(zip(base["sites"], base["p_sensitized"]))
        )
        bench.report_samples("op", [r.sample for r in records if r.kind == "delta"])
        return metrics

    setups = []
    for index in range(SETUPS):
        if index:
            client.close()
            stop_server(proc)
        proc, client, sample, base, _ = _start_server(bench, index, False)
        setups.append(sample)
    try:
        records = _serve_loop(bench, client, base, bench.seconds)
        peak = vm_hwm_mb(proc.pid)
    finally:
        client.close()
        stop_server(proc)
    deltas = [r.sample for r in records if r.kind == "delta"]
    reads = [r.sample for r in records if r.kind == "hit"]
    bench.report_samples("setup", setups)
    bench.report_samples("op", deltas)
    bench.note("hit_p50_ms", median([s.raw_s for s in reads]) * 1e3, "ms")
    metrics = _op_times(bench, deltas, sum(r.sites for r in records if r.kind == "delta"))
    metrics["setup_s"] = median([s.scaled_s for s in setups])
    metrics["peak_rss_mb"] = peak
    return metrics


WORKLOADS = {
    "cold_analyze": cold_analyze,
    "serve_whatif": serve_whatif,
    "sharded_resume": sharded_resume,
}
