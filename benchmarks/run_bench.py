"""The benchmark trajectory entry point: ``python benchmarks/run_bench.py``.

Measures full-circuit ``analyze()`` wall-clock per roster circuit for the
backend configurations —

* ``scalar_s``       — the per-site reference oracle (sampled and
  extrapolated linearly above :data:`SCALAR_FULL_MAX_NODES`; scalar cost
  is exactly linear in the site count);
* ``vector_s``       — the dense vector sweep (``prune=False,
  schedule="input"``: the PR-1 execution order under this tree's lazy
  result materialization);
* ``vector_eager_s`` — the same dense sweep with every per-sink vector
  dict forced, reproducing the PR-1 backend's *eager* accounting;
* ``sparse_s``       — the defaults (``prune``/``schedule`` ``"auto"``:
  compacted union-of-cones state matrices with cell-compacted kernels,
  the calibrated chunk widths and the saturated-chunk dense fallback),
  with the backend's ``sweep_stats`` (cell density, compact sweeps/rows,
  dense fallbacks) recorded alongside;
* ``sharded_s``      — the multi-process driver under its default
  crossover guard (``sharded_process_path`` records whether worker
  processes actually engaged);
* ``sharded_warm_s`` / ``sharded_resilient_s`` — warm-pool sharded runs
  under the default fault policy and under an armed one (a per-shard
  deadline plus retry budget, so the scheduler tracks submission times
  and deadline marks on every wait).  Their ratio,
  ``resilience_overhead``, is the clean-path cost of the PR-6 fault
  machinery — gated at <2% by ``--check`` on circuits where worker
  processes engage and the warm run clears the noise floor.  The
  resilience counters of the armed run land in
  ``sharded_resilience_stats`` (all zero on a healthy host);

plus a **clustered-site workload**: one cone-cluster's sites (a module's
worth of neighbors, the MBU/per-module shape) measured dense
(``clustered_vector_s``) and forced-pruned on compacted state matrices
(``clustered_compact_s``);

plus an **incremental what-if workload** (the PR-7 design loop): a full
packed ``snapshot`` (``delta_snapshot_s``), then ``analyze_delta`` for a
representative single-gate edit (``delta_single_s``, with the dirty/
reused split) and for a 1%-of-sites polarity-swap batch
(``delta_pct_s``), against a warm full re-analysis of the same edited
circuit (``delta_full_s``).  ``delta_speedup_vs_full`` is the gated
ratio; bit-identity of the spliced result is asserted in-run
(``delta_identical``);

plus the **SER-as-a-service workload** (the PR-8 server): per circuit,
a cold one-shot CLI ``analyze`` subprocess (``serve_cold_s``) against
the first (``serve_first_s``), fresh-sweep (``serve_resweep_s``) and
artifact-cached repeat (``serve_warm_s``) latencies of one long-lived
``repro serve`` instance.  ``serve_warm_speedup`` is gated absolutely
at :data:`SERVE_WARM_SPEEDUP_FLOOR` where the cold run clears its
noise floor;

plus the **config-layer cost row** (the PR-10 unification): the same
warm full-circuit vector sweep invoked through individual knob kwargs
(``config_kwargs_s``) and through one prebuilt
``AnalysisConfig`` object (``config_object_s``).  Both routes funnel
into the same config internally, so their ratio ``config_overhead``
isolates exactly what the unification added per call — construction,
validation and routing of the typed option layer — and is gated
absolutely at :data:`CONFIG_OVERHEAD_CEILING` wherever the kwargs run
clears :data:`CONFIG_NOISE_FLOOR_S`;

plus the **crash-durability workload** (the PR-9 checkpoint layer):
per circuit, a plain sharded sweep (``durab_plain_s``), the same sweep
journaling every finished shard to a checkpoint directory
(``durab_cold_s``; their ratio ``checkpoint_overhead`` is the clean-path
cost of durability) and a fresh engine resuming from that directory
(``durab_resume_s``, every shard served checksum-verified from disk,
no worker pool spun up).  ``resume_speedup = durab_plain_s /
durab_resume_s`` is a checked ratio, and ``resume_identical`` — the
resumed result ``np.array_equal`` to the clean run — hard-fails the
``--check`` gate when false: a fast restart that disagrees is not
recovery, it's corruption.

Results land in a JSON document (default ``BENCH_pr10.json``, written
atomically: temp file + rename, so a crashed bench never leaves a
truncated baseline) with host metadata; when the committed
``BENCH_pr9.json`` sits next to the output the cross-PR ladder ratios
(this run vs the *recorded* PR-9 seconds, same container) are included
per circuit as ``vs_prev_baseline``.

``--check BASELINE`` compares the *speedup ratios* of a fresh run against
a committed baseline and exits non-zero on a >``--tolerance`` regression
(default 25%).  Only ratios are compared — absolute seconds shift with
host hardware, while the sparse/dense and clustered ratios are properties
of the execution strategy; circuits present in only one file are skipped,
as are baseline ratios near parity (<1.2 — not speedup claims to defend).
Two absolute checks ride along: the fresh run's ``resilience_overhead``
and ``config_overhead`` must each stay under 1.02 wherever they are
measurable — the fault machinery and the unified config layer both
promised a <2% clean-path cost.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from datetime import datetime, timezone

#: Above this node count the scalar reference is sampled + extrapolated.
SCALAR_FULL_MAX_NODES = 7_000
SCALAR_SAMPLE_SITES = 200

DEFAULT_CIRCUITS = ("s953", "s1423", "s9234", "s38417")
QUICK_CIRCUITS = ("s953", "s1423", "s9234")

#: The ratio metrics ``--check`` compares (host-independent by design).
CHECKED_RATIOS = (
    "speedup_sparse_vs_vector",
    "clustered_compact_speedup",
    "delta_speedup_vs_full",
    "serve_warm_speedup",
    "resume_speedup",
)

#: The PR-8 service gate: a repeat request against the warm server must
#: beat the cold one-shot CLI by at least this factor — the server's
#: whole reason to exist is amortizing interpreter start, netlist build
#: and the sweep across requests.  Only gated where the cold run clears
#: the noise floor (interpreter startup dominates tiny circuits).
SERVE_WARM_SPEEDUP_FLOOR = 5.0
SERVE_COLD_NOISE_FLOOR_S = 1.0

#: The clean-path cost ceiling for the fault-tolerance machinery: an
#: armed policy (per-shard deadline + retry budget) may cost at most 2%
#: over the default policy on a healthy run.  Only gated where worker
#: processes actually engaged and the warm run clears the noise floor.
RESILIENCE_OVERHEAD_CEILING = 1.02
RESILIENCE_NOISE_FLOOR_S = 0.5

#: The clean-path cost ceiling for the unified AnalysisConfig layer
#: (PR 10): routing a sweep through one prebuilt config object may cost
#: at most 2% over the legacy kwargs surface on the same warm engine.
#: Only gated where the kwargs run clears the noise floor — below it
#: the ratio measures dispatch jitter, not the option layer.
CONFIG_OVERHEAD_CEILING = 1.02
CONFIG_NOISE_FLOOR_S = 0.25

#: The resilience counters snapshotted next to the armed sharded run —
#: all zero on a healthy host (anything else means the bench itself hit
#: worker failures, which taints every sharded timing in the row).
_RESILIENCE_STAT_KEYS = (
    "retries", "respawns", "worker_crashes", "shard_errors",
    "shard_timeouts", "transport_fallbacks", "degraded_shards",
    "quarantined_segments",
)

#: Sweep-stat counters copied next to the timing they describe.
_SWEEP_STAT_KEYS = (
    "chunks", "dense_fallback_sweeps",
    "compact_sweeps", "compact_rows",
    "groups_dense", "groups_row", "groups_cell",
    "cells_on", "cells_total", "cells_computed", "cells_dense",
)


def _build(name: str):
    from repro.netlist.generate import generate_iscas
    from repro.netlist.library import s27
    from repro.probability.monte_carlo import monte_carlo_signal_probabilities

    circuit = s27() if name == "s27" else generate_iscas(name)
    sp = monte_carlo_signal_probabilities(circuit, n_vectors=20_000, seed=1)
    return circuit, sp


def _fresh_engine(circuit, sp):
    from repro.core.epp import EPPEngine

    return EPPEngine(circuit, signal_probs=sp)


def _best_of(measure, floor_s: float = 0.5, max_repeats: int = 3) -> float:
    """Best-of timing for sub-second measurements (noise floor for CI).

    One measurement above ``floor_s`` is trusted as-is; faster ones repeat
    up to ``max_repeats`` times and keep the minimum.
    """
    best = measure()
    repeats = 1
    while best < floor_s and repeats < max_repeats:
        best = min(best, measure())
        repeats += 1
    return best


def _timed_analyze(engine, sites, eager: bool = False, **kwargs) -> float:
    def measure() -> float:
        start = time.perf_counter()
        results = engine.analyze(sites=sites, backend="vector", **kwargs)
        if eager:
            # Force every per-sink dict, reproducing the eager per-object
            # packaging the PR-1 backend performed inside analyze().
            for result in results.values():
                len(result.sink_values)
        return time.perf_counter() - start

    # Best-of-5 even for the multi-second circuits: these rows become the
    # committed regression baseline, and single-shot measurements on a
    # shared runner swing 20-30% with background load — more than the
    # strategy effects the trajectory file exists to pin.
    return _best_of(measure, floor_s=30.0, max_repeats=5)


def _snapshot_stats(backend) -> dict:
    stats = {key: backend.sweep_stats[key] for key in _SWEEP_STAT_KEYS}
    if stats["cells_total"]:
        stats["cell_density"] = stats["cells_on"] / stats["cells_total"]
        stats["cells_computed_fraction"] = (
            stats["cells_computed"] / stats["cells_total"]
        )
    return stats


def bench_circuit(name: str, jobs: int | None) -> dict:
    from repro.core.schedule import cone_cluster_order

    circuit, sp = _build(name)
    engine = _fresh_engine(circuit, sp)
    sites = engine.default_sites()
    n_nodes = engine.compiled.n
    row: dict = {"n_nodes": n_nodes, "n_sites": len(sites)}

    # ---- scalar reference (sampled + extrapolated on large circuits) ----
    if n_nodes <= SCALAR_FULL_MAX_NODES:
        scalar_sites, scale = sites, 1.0
    else:
        scalar_sites = random.Random(7).sample(sites, SCALAR_SAMPLE_SITES)
        scale = len(sites) / len(scalar_sites)
    scalar_engine = _fresh_engine(circuit, sp)
    start = time.perf_counter()
    scalar_engine.analyze(sites=scalar_sites, backend="scalar")
    row["scalar_s"] = (time.perf_counter() - start) * scale
    row["scalar_extrapolated"] = scale != 1.0

    # ---- dense vector (PR-1 order), lazy and eager accounting ----
    row["vector_s"] = _timed_analyze(
        _fresh_engine(circuit, sp), sites, prune=False, schedule="input"
    )
    row["vector_eager_s"] = _timed_analyze(
        _fresh_engine(circuit, sp), sites, eager=True,
        prune=False, schedule="input",
    )

    # ---- defaults: compacted sweeps, dense fallback on saturation ----
    # One warm-up analyze first, snapshotted immediately: the recorded
    # sweep_stats describe exactly one analyze() run, not the cumulative
    # counters of every best-of repeat.
    sparse_engine = _fresh_engine(circuit, sp)
    sparse_engine.analyze(sites=sites, backend="vector")
    row["sweep_stats"] = _snapshot_stats(sparse_engine.vector_backend())
    row["sparse_s"] = _timed_analyze(sparse_engine, sites)

    # ---- clean-path cost of the unified config layer (PR 10) ----
    # The same warm vector sweep, differing only in how the knobs
    # arrive: spelled out as kwargs vs one prebuilt
    # AnalysisConfig.  Both routes build the same config internally, so
    # the ratio isolates construction + validation + routing of the
    # typed option layer — the <2% promise the unification shipped
    # under.  Best-of-several on both sides for the same reason as the
    # resilience gate: a ratio gated at 1.02 cannot ride on two single
    # samples of a shared runner.
    from repro.core.config import AnalysisConfig

    config_knobs = dict(prune=True, schedule="cone")
    config_object = AnalysisConfig(backend="vector", **config_knobs)

    def timed_config(call) -> float:
        call()  # warm the plan for this exact knob set before timing

        def measure() -> float:
            start = time.perf_counter()
            call()
            return time.perf_counter() - start

        return _best_of(measure, floor_s=20.0, max_repeats=5)

    row["config_kwargs_s"] = timed_config(
        lambda: sparse_engine.analyze(
            sites=sites, backend="vector", **config_knobs
        )
    )
    row["config_object_s"] = timed_config(
        lambda: sparse_engine.analyze(sites=sites, config=config_object)
    )
    if row["config_kwargs_s"] > 0.0:
        row["config_overhead"] = (
            row["config_object_s"] / row["config_kwargs_s"]
        )

    # ---- sharded driver, default guard, cold pool included ----
    sharded_engine = _fresh_engine(circuit, sp)
    backend = sharded_engine.sharded_backend(jobs=jobs)
    start = time.perf_counter()
    sharded_engine.analyze(sites=sites, backend="sharded", jobs=jobs)
    row["sharded_s"] = time.perf_counter() - start
    row["sharded_jobs"] = backend.jobs
    row["sharded_process_path"] = backend.pool_started

    # ---- clean-path cost of the fault machinery (warm pools) ----
    # Warm-pool timings on both sides so the ratio isolates the
    # scheduler's bookkeeping — per-shard submission clocks, deadline
    # marks on every wait, outcome records — from pool spin-up noise.
    # The armed policy changes no failure behaviour on a healthy run;
    # it only makes the driver *track* deadlines, which is exactly the
    # overhead the <2% gate defends.  The repeat floor is high enough
    # that even the biggest circuit's warm run is a best-of-several —
    # a ratio gated at 1.02 cannot ride on two single samples.
    def timed_sharded(engine_backend) -> float:
        def measure() -> float:
            start = time.perf_counter()
            engine_backend.analyze_sites(
                [sharded_engine.compiled.index[site] for site in sites]
            )
            return time.perf_counter() - start

        return _best_of(measure, floor_s=20.0, max_repeats=5)

    row["sharded_warm_s"] = timed_sharded(backend)
    backend.close()
    resilient_engine = _fresh_engine(circuit, sp)
    resilient = resilient_engine.sharded_backend(
        jobs=jobs, retries=2, shard_timeout=300.0
    )
    resilient_engine.analyze(
        sites=sites, backend="sharded", jobs=jobs,
        retries=2, shard_timeout=300.0,
    )  # warm the pool and worker plans before timing
    row["sharded_resilient_s"] = timed_sharded(resilient)
    row["sharded_resilience_stats"] = {
        key: resilient.stats[key] for key in _RESILIENCE_STAT_KEYS
    }
    if row["sharded_process_path"] and row["sharded_warm_s"] > 0.0:
        row["resilience_overhead"] = (
            row["sharded_resilient_s"] / row["sharded_warm_s"]
        )
    resilient.close()

    # ---- clustered-site workload: one cone-cluster's neighborhood ----
    # Only meaningful on circuits with enough sites that a cluster is a
    # real sub-workload (a 50-site circuit's "cluster" measures pure
    # dispatch overhead, and the crossover guard routes it to the scalar
    # kernel in production anyway).
    if len(sites) >= 1000:
        ids = [engine.compiled.index[site] for site in sites]
        order = cone_cluster_order(engine.compiled, ids)
        width = min(2000, max(200, len(ids) // 8))
        # The head of the clustered order: the sites feeding the first
        # dominant-sink group — one module's worth of neighbors, the
        # MBU/per-module analysis shape.
        cluster = [ids[i] for i in order[:width].tolist()]
        row["clustered_sites"] = len(cluster)

        def measure_cluster(stats_key: str | None = None, **config) -> float:
            # One warm backend per config: the quantity of interest is the
            # steady-state sweep strategy, not first-call buffer faulting.
            backend = _fresh_engine(circuit, sp).vector_backend(**config)
            backend.min_vector_work = 0
            backend.analyze_sites(cluster)  # warmup: buffers + plan
            if stats_key:
                # Snapshot after exactly one run, before the timing repeats
                # accumulate further counts.
                row[stats_key] = _snapshot_stats(backend)

            def timed() -> float:
                start = time.perf_counter()
                backend.analyze_sites(cluster)
                return time.perf_counter() - start

            # Sub-second workloads, so repeats are cheap — and a single
            # load spike on a ~1s dense reference would otherwise distort
            # every clustered ratio derived from it.
            return _best_of(timed, floor_s=2.0, max_repeats=5)

        row["clustered_vector_s"] = measure_cluster(
            prune=False, schedule="input",
        )
        row["clustered_compact_s"] = measure_cluster(
            stats_key="clustered_sweep_stats",
            prune=True, schedule="cone",
        )
        row["clustered_compact_speedup"] = (
            row["clustered_vector_s"] / row["clustered_compact_s"]
        )

    # ---- incremental what-if workload: snapshot once, edit, re-sweep ----
    # The design-loop shape the PR-7 layer exists for.  The user SP map
    # (the Monte-Carlo one every timing above uses) is what a designer
    # iterating on a netlist would hold fixed, and it keeps the delta's
    # cost structural: no global SP recompute rides on the timing.
    import numpy as np

    from repro.experiments.whatif import representative_edit
    from repro.netlist.gate_types import GateType

    delta_engine = _fresh_engine(circuit, sp)
    start = time.perf_counter()
    prev = delta_engine.snapshot()
    row["delta_snapshot_s"] = time.perf_counter() - start
    single_edits, _ = representative_edit(prev, max_probes=24)

    def timed_delta(edits) -> tuple[float, object]:
        holder = {}

        def measure() -> float:
            start = time.perf_counter()
            holder["delta"] = delta_engine.analyze_delta(prev, edits)
            return time.perf_counter() - start

        return _best_of(measure, floor_s=2.0, max_repeats=5), holder["delta"]

    row["delta_single_s"], delta = timed_delta(single_edits)
    row["delta_single_dirty"] = delta.stats["dirty"]
    row["delta_single_reused"] = delta.stats["reused"]

    def timed_full(delta) -> float:
        def measure() -> float:
            start = time.perf_counter()
            delta.engine.snapshot(**delta.knobs)
            return time.perf_counter() - start

        return _best_of(measure, floor_s=2.0, max_repeats=3)

    row["delta_full_s"] = timed_full(delta)
    full = delta.engine.snapshot(**delta.knobs)
    row["delta_identical"] = bool(
        delta.site_names == full.site_names
        and all(np.array_equal(a, b) for a, b in zip(delta.packed, full.packed))
    )
    row["delta_speedup_vs_full"] = row["delta_full_s"] / row["delta_single_s"]

    # 1%-of-sites batch: evenly spaced polarity swaps across the netlist.
    from repro.core.epp_delta import EditSet

    swaps = {
        GateType.AND: "nand", GateType.NAND: "and",
        GateType.OR: "nor", GateType.NOR: "or",
    }
    swappable = [g for g in circuit.gates if circuit.node(g).gate_type in swaps]
    n_batch = max(1, len(sites) // 100)
    stride = max(1, len(swappable) // n_batch)
    batch = swappable[::stride][:n_batch]
    pct_edits = EditSet()
    for g in batch:
        pct_edits.replace_gate(g, swaps[circuit.node(g).gate_type])
    row["delta_pct_edits"] = len(batch)
    row["delta_pct_s"], pct_delta = timed_delta(pct_edits)
    row["delta_pct_dirty"] = pct_delta.stats["dirty"]
    row["delta_pct_speedup_vs_full"] = (
        timed_full(pct_delta) / row["delta_pct_s"]
    )

    # ---- ratios ----
    row["speedup_sparse_vs_vector"] = row["vector_s"] / row["sparse_s"]
    row["speedup_sparse_vs_pr1_vector"] = row["vector_eager_s"] / row["sparse_s"]
    row["speedup_sparse_vs_scalar"] = row["scalar_s"] / row["sparse_s"]
    for key, value in list(row.items()):
        if isinstance(value, float):
            row[key] = round(value, 4)
    for stats in (row.get("sweep_stats"), row.get("clustered_sweep_stats")):
        if stats:
            for key, value in list(stats.items()):
                if isinstance(value, float):
                    stats[key] = round(value, 4)
    return row


def bench_server(document: dict, circuits, verbose: bool = True) -> None:
    """The SER-as-a-service workload (PR 8): warm server vs cold CLI.

    Per circuit, three latencies around the same ``analyze`` request:

    * ``serve_cold_s``  — a one-shot ``python -m repro analyze`` child
      process (interpreter start + netlist build + sweep + report), the
      pre-server cost of every single what-if;
    * ``serve_first_s`` — the first request against an already-running
      server (netlist build + sweep; the interpreter is amortized);
    * ``serve_resweep_s`` — a fresh sweep against the warm engine
      (coalescing disabled, cache-missing request: engine and plan
      reuse without the artifact store);
    * ``serve_warm_s``  — the repeat of an identical request (artifact
      cache hit: integrity-checked bytes straight off the store).

    ``serve_warm_speedup = serve_cold_s / serve_warm_s`` is gated
    absolutely at :data:`SERVE_WARM_SPEEDUP_FLOOR` wherever the cold
    run clears :data:`SERVE_COLD_NOISE_FLOOR_S`.
    """
    import signal
    import subprocess
    import tempfile

    from repro.server.client import ServeClient

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")

    def cold_cli(name: str) -> float:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "analyze", name, "--top", "1"],
            check=True, capture_output=True, env=env,
        )
        return time.perf_counter() - start

    sock = os.path.join(tempfile.mkdtemp(prefix="repro-bench-"), "repro.sock")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", sock, "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        deadline = time.monotonic() + 60.0
        while not os.path.exists(sock):
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "analysis server did not come up: "
                    + proc.stderr.read().decode(errors="replace")
                )
            time.sleep(0.1)
        with ServeClient(sock, timeout=600.0) as client:
            for name in circuits:
                row = document["circuits"][name]
                row["serve_cold_s"] = cold_cli(name)
                start = time.perf_counter()
                client.analyze(circuit=name, fit=True, top=1)
                row["serve_first_s"] = time.perf_counter() - start
                start = time.perf_counter()
                resweep = client.analyze(
                    circuit=name, fit=True, top=2, coalesce=False
                )
                row["serve_resweep_s"] = time.perf_counter() - start
                start = time.perf_counter()
                warm = client.analyze(circuit=name, fit=True, top=1)
                row["serve_warm_s"] = time.perf_counter() - start
                if not warm["result"]["cached"] or resweep["result"]["cached"]:
                    raise RuntimeError(
                        f"{name}: serve workload measured the wrong cache "
                        "path (warm must hit, resweep must miss)"
                    )
                row["serve_warm_speedup"] = (
                    row["serve_cold_s"] / row["serve_warm_s"]
                )
                for key in ("serve_cold_s", "serve_first_s",
                            "serve_resweep_s", "serve_warm_s",
                            "serve_warm_speedup"):
                    row[key] = round(row[key], 4)
                if verbose:
                    print(
                        f"[bench] {name} serve: cold {row['serve_cold_s']:.2f}s  "
                        f"first {row['serve_first_s']:.2f}s  "
                        f"resweep {row['serve_resweep_s']:.2f}s  "
                        f"warm {row['serve_warm_s'] * 1e3:.1f}ms  "
                        f"({row['serve_warm_speedup']:.0f}x vs cold)",
                        flush=True,
                    )
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:  # pragma: no cover - wedged server
            proc.kill()
            proc.communicate()


def bench_durability(document: dict, circuits, jobs, verbose: bool = True) -> None:
    """The crash-durability workload (PR 9): checkpointed sharded sweeps.

    Per circuit, three sharded ``pack_sites`` runs over the full site
    roster (``min_process_work=0`` so the process path always engages):

    * ``durab_plain_s``  — no checkpoint: the baseline cost of the sweep
      including pool spin-up, exactly what a crashed run loses;
    * ``durab_cold_s``   — journaling every finished shard to a fresh
      checkpoint directory (``checkpoint_overhead`` is the ratio: the
      clean-path price of durability);
    * ``durab_resume_s`` — a *fresh* engine pointed at the populated
      directory: every shard is loaded checksum-verified from disk and
      no worker pool starts.

    ``resume_speedup = durab_plain_s / durab_resume_s`` joins the
    checked ratios; ``resume_identical`` asserts all three runs produce
    ``np.array_equal`` packed arrays *and* that the resume run never
    started a pool — it hard-fails ``--check`` when false.
    """
    import shutil
    import tempfile

    import numpy as np

    from repro.core.epp_shard import ShardedEPPEngine

    for name in circuits:
        row = document["circuits"][name]
        circuit, sp = _build(name)
        engine = _fresh_engine(circuit, sp)
        ids = [engine.compiled.index[site] for site in engine.default_sites()]
        workdir = tempfile.mkdtemp(prefix="repro-durab-")
        ckpt = os.path.join(workdir, "ckpt")

        def sharded(checkpoint=None):
            return ShardedEPPEngine(
                engine.compiled, engine._sp, jobs=jobs,
                min_process_work=0, checkpoint=checkpoint,
            )

        try:
            plain = sharded()
            start = time.perf_counter()
            ref = plain.pack_sites(ids)
            row["durab_plain_s"] = time.perf_counter() - start
            plain.close()

            cold = sharded(ckpt)
            start = time.perf_counter()
            packed_cold = cold.pack_sites(ids)
            row["durab_cold_s"] = time.perf_counter() - start
            row["durab_shards_journaled"] = cold.stats["checkpointed_shards"]
            cold.close()

            resume = sharded(ckpt)
            start = time.perf_counter()
            packed_resume = resume.pack_sites(ids)
            row["durab_resume_s"] = time.perf_counter() - start
            row["durab_shards_resumed"] = resume.stats["checkpoint_shards"]
            resume_pool_started = resume.pool_started
            resume.close()

            row["resume_identical"] = bool(
                all(np.array_equal(a, b) for a, b in zip(ref, packed_cold))
                and all(np.array_equal(a, b) for a, b in zip(ref, packed_resume))
                and not resume_pool_started
            )
            if row["durab_plain_s"] > 0.0:
                row["checkpoint_overhead"] = (
                    row["durab_cold_s"] / row["durab_plain_s"]
                )
            if row["durab_resume_s"] > 0.0:
                row["resume_speedup"] = (
                    row["durab_plain_s"] / row["durab_resume_s"]
                )
            for key in ("durab_plain_s", "durab_cold_s", "durab_resume_s",
                        "checkpoint_overhead", "resume_speedup"):
                if key in row:
                    row[key] = round(row[key], 4)
            if verbose:
                print(
                    f"[bench] {name} durability: plain "
                    f"{row['durab_plain_s']:.2f}s  journaled "
                    f"{row['durab_cold_s']:.2f}s  resume "
                    f"{row['durab_resume_s'] * 1e3:.0f}ms "
                    f"({row.get('resume_speedup', float('nan')):.0f}x, "
                    f"identical={row['resume_identical']})",
                    flush=True,
                )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def host_metadata() -> dict:
    import numpy

    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def attach_prev_baseline(document: dict, baseline_path: str) -> None:
    """Cross-PR ladder: this run's seconds vs the committed previous-PR
    seconds.

    Only meaningful when both were measured on the same class of host
    (the committed trajectory files all come from the CI container); the
    ratios are stored per circuit under ``vs_prev_baseline`` and are
    informational — the ``--check`` gate compares within-run ratios only.
    """
    if not os.path.exists(baseline_path):
        return
    with open(baseline_path, encoding="utf-8") as handle:
        prev = json.load(handle)
    for name, row in document["circuits"].items():
        base = prev.get("circuits", {}).get(name)
        if not base:
            continue
        ladder = {"baseline": baseline_path}
        if base.get("sparse_s") and row.get("sparse_s"):
            ladder["full_circuit_vs_prev_sparse"] = round(
                base["sparse_s"] / row["sparse_s"], 4
            )
        if base.get("clustered_compact_s") and row.get("clustered_compact_s"):
            ladder["clustered_vs_prev_compact"] = round(
                base["clustered_compact_s"] / row["clustered_compact_s"], 4
            )
        if base.get("sharded_s") and row.get("sharded_s"):
            ladder["sharded_vs_prev"] = round(
                base["sharded_s"] / row["sharded_s"], 4
            )
        row["vs_prev_baseline"] = ladder


def run(circuits, jobs, out_path, verbose=True, prev_baseline=None) -> dict:
    document = {"host": host_metadata(), "circuits": {}}
    for name in circuits:
        if verbose:
            print(f"[bench] {name} ...", flush=True)
        row = bench_circuit(name, jobs)
        document["circuits"][name] = row
        if verbose:
            clustered = (
                f"  clustered {row['clustered_compact_speedup']:.2f}x"
                if "clustered_compact_speedup" in row else ""
            )
            resilience = (
                f"  resilience-overhead {row['resilience_overhead']:.3f}x"
                if "resilience_overhead" in row else ""
            )
            config_cost = (
                f"  config-overhead {row['config_overhead']:.3f}x"
                if "config_overhead" in row else ""
            )
            delta = (
                f"  delta {row['delta_single_s'] * 1e3:.0f}ms "
                f"({row['delta_single_dirty']}/{row['n_sites']} dirty, "
                f"{row['delta_speedup_vs_full']:.1f}x vs full)"
                if "delta_speedup_vs_full" in row else ""
            )
            print(
                f"  scalar {row['scalar_s']:.2f}s  vector {row['vector_s']:.2f}s "
                f"(eager {row['vector_eager_s']:.2f}s)  "
                f"sparse {row['sparse_s']:.2f}s  "
                f"sharded {row['sharded_s']:.2f}s  "
                f"sparse-vs-vector {row['speedup_sparse_vs_vector']:.2f}x"
                f"{config_cost}{resilience}{clustered}{delta}",
                flush=True,
            )
    bench_server(document, circuits, verbose=verbose)
    bench_durability(document, circuits, jobs, verbose=verbose)
    if prev_baseline:
        attach_prev_baseline(document, prev_baseline)
    if out_path:
        # Atomic: a bench killed mid-write must never leave a truncated
        # JSON where the committed regression baseline used to be.
        from repro.core.durable import atomic_write_bytes

        blob = (json.dumps(document, indent=2) + "\n").encode()
        atomic_write_bytes(out_path, blob)
        if verbose:
            print(f"[bench] wrote {out_path}")
    return document


def check_absolute_gates(current: dict) -> list[str]:
    """Gates checked on the *fresh* run only (no baseline needed).

    Fault machinery must stay <2% on the clean path: wherever worker
    processes engaged and the warm sharded run clears the noise floor,
    the armed-policy run may cost at most
    :data:`RESILIENCE_OVERHEAD_CEILING`.  The unified config layer made
    the same promise: routing the sweep through one ``AnalysisConfig``
    may cost at most :data:`CONFIG_OVERHEAD_CEILING` over the legacy
    kwargs spelling where the kwargs run clears its noise floor.  A
    non-zero resilience counter also fails — the bench hitting real
    worker failures taints every sharded timing in the row.  And the
    incremental what-if result must be bit-identical to the full
    re-analysis it raced — a fast delta that disagrees is not a
    speedup, it's a bug.
    """
    failures = []
    for name, row in current.get("circuits", {}).items():
        if row.get("delta_identical") is False:
            failures.append(
                f"{name}: analyze_delta result is not bit-identical to the "
                "full re-analysis"
            )
        if row.get("resume_identical") is False:
            failures.append(
                f"{name}: checkpoint-resumed sharded sweep is not "
                "bit-identical to the clean run (or restarted the pool)"
            )
        stats = row.get("sharded_resilience_stats", {})
        dirty = {key: count for key, count in stats.items() if count}
        if dirty:
            failures.append(f"{name}: bench run hit worker failures {dirty}")
        speedup = row.get("serve_warm_speedup")
        if (
            speedup is not None
            and row.get("serve_cold_s", 0.0) >= SERVE_COLD_NOISE_FLOOR_S
            and speedup < SERVE_WARM_SPEEDUP_FLOOR
        ):
            failures.append(
                f"{name}.serve_warm_speedup: {speedup:.1f} < "
                f"{SERVE_WARM_SPEEDUP_FLOOR} (a warm-server repeat request "
                "must beat the cold one-shot CLI)"
            )
        config_overhead = row.get("config_overhead")
        if (
            config_overhead is not None
            and row.get("config_kwargs_s", 0.0) >= CONFIG_NOISE_FLOOR_S
            and config_overhead > CONFIG_OVERHEAD_CEILING
        ):
            failures.append(
                f"{name}.config_overhead: {config_overhead:.3f} > "
                f"{CONFIG_OVERHEAD_CEILING} (routing a sweep through one "
                f"AnalysisConfig must cost <2% over legacy kwargs)"
            )
        overhead = row.get("resilience_overhead")
        if overhead is None:
            continue
        if row.get("sharded_warm_s", 0.0) < RESILIENCE_NOISE_FLOOR_S:
            continue  # sub-noise-floor sweeps measure dispatch, not policy
        if overhead > RESILIENCE_OVERHEAD_CEILING:
            failures.append(
                f"{name}.resilience_overhead: {overhead:.3f} > "
                f"{RESILIENCE_OVERHEAD_CEILING} (armed fault policy must "
                f"cost <2% on the clean path)"
            )
    return failures


def check_regression(current: dict, baseline: dict, baseline_path: str,
                     tolerance: float) -> int:
    """Exit status 0 if no checked ratio regressed beyond ``tolerance``."""
    failures = check_absolute_gates(current)
    for name, base_row in baseline.get("circuits", {}).items():
        row = current["circuits"].get(name)
        if row is None:
            continue  # roster mismatch: nothing to compare for this circuit
        if base_row.get("sparse_s", 0.0) < 0.25:
            # Sub-quarter-second sweeps measure dispatch noise, not the
            # execution strategy; their ratios are not regression signal.
            continue
        for metric in CHECKED_RATIOS:
            if metric not in base_row or metric not in row:
                continue
            if base_row[metric] < 1.2:
                # A baseline ratio near parity is not a speedup claim to
                # defend; host differences (core count, NumPy threading)
                # move it more than real regressions would.
                continue
            floor = base_row[metric] * (1.0 - tolerance)
            if row[metric] < floor:
                failures.append(
                    f"{name}.{metric}: {row[metric]:.2f} < "
                    f"{floor:.2f} (baseline {base_row[metric]:.2f} "
                    f"- {tolerance:.0%})"
                )
    if failures:
        print("[bench] REGRESSION vs " + baseline_path, file=sys.stderr)
        for line in failures:
            print("  " + line, file=sys.stderr)
        return 2
    print(f"[bench] no regression vs {baseline_path} (tolerance {tolerance:.0%})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Full-circuit analyze benchmark: scalar/vector/sparse/sharded"
    )
    parser.add_argument("--circuits", nargs="*", default=None,
                        help=f"roster (default: {' '.join(DEFAULT_CIRCUITS)})")
    parser.add_argument("--quick", action="store_true",
                        help=f"short roster ({' '.join(QUICK_CIRCUITS)})")
    parser.add_argument("--out", default="BENCH_pr10.json",
                        help="output JSON path ('' to skip writing)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="sharded worker count (default: one per core)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare speedup ratios against a baseline JSON "
                        "(also applies the <2%% resilience- and "
                        "config-overhead gates)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative ratio drop before failing (0.25)")
    parser.add_argument("--prev-baseline", default="BENCH_pr9.json",
                        help="committed previous-PR trajectory file for the "
                        "cross-PR ladder ratios ('' to skip)")
    args = parser.parse_args(argv)

    circuits = args.circuits or (QUICK_CIRCUITS if args.quick else DEFAULT_CIRCUITS)
    baseline = None
    if args.check:
        # Load the baseline *before* running: with the default --out both
        # paths may name the same file, and writing first would make the
        # check compare the fresh run against itself (and destroy the
        # committed baseline).
        with open(args.check, encoding="utf-8") as handle:
            baseline = json.load(handle)
        if os.path.abspath(args.check) == os.path.abspath(args.out or ""):
            args.out = ""  # never clobber the baseline being checked
    document = run(circuits, args.jobs, args.out, prev_baseline=args.prev_baseline)
    if baseline is not None:
        return check_regression(document, baseline, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
