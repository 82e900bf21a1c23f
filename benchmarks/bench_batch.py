"""Scalar vs vector vs sharded backends: full-circuit ``analyze()`` ladder.

The quantity benchmarked is the tentpole claim: one batched level-parallel
NumPy sweep per chunk of sites versus one Python cone walk per site, both
producing the full per-site :class:`EPPResult` set (per-sink vectors
included).  ``extra_info`` records:

* ``speedup_vs_scalar`` — against the *current* scalar path (which PR 1
  also micro-optimized: per-gate fanin tuples and rule callables are now
  resolved at engine construction);
* ``speedup_vs_seed_scalar`` — against a faithful reconstruction of the
  *seed* scalar hot loop (CSR slice + code->rule dict lookup per gate per
  site), the baseline PR 1's >=5x target named;
* ``sharded_s`` / ``sharded_jobs`` / ``speedup_vs_vector`` — the
  multi-process sharded driver's full-circuit wall-clock against the
  single-process vector backend, measured with the default configuration
  (crossover guard included, pool spin-up inside the timed region — the
  true end-to-end cost a caller pays).  ``sharded_process_path`` records
  whether the workload was large enough to engage worker processes at all
  (small circuits are deliberately routed in-process by the guard).

On the two largest circuits the scalar references are timed on a site
sample and extrapolated linearly (scalar cost is exactly linear in the
site count — one independent cone walk per site); the vector measurement
is always the real full-circuit run.  Runs use a single benchmark round:
full-circuit analyze on s38417 is far too heavy for pytest-benchmark's
default calibration.

Each timing uses a fresh engine so every backend pays its own true cost:
the scalar paths extract one on-path cone per site (cold cache, exactly
as the seed measurement did), while the vector backend never extracts
cones at all — its level plan reads the compiled circuit directly.
"""

import random
import time

import pytest

from benchmarks.conftest import BENCH_CIRCUITS, get_circuit, get_sp

from repro.core.epp import EPPEngine
from repro.core.epp_shard import default_jobs
from repro.core.fourvalue import EPPValue
from repro.core.rules import _RULES_BY_CODE
from repro.core.sensitization import combine_sensitization

#: Above this node count the scalar reference is timed on a sample of
#: ``SCALAR_SAMPLE_SITES`` sites and extrapolated linearly.
SCALAR_FULL_MAX_NODES = 7_000
SCALAR_SAMPLE_SITES = 200


def seed_scalar_analyze(engine, sites):
    """The seed repo's scalar path, reconstructed for an honest baseline.

    Per gate per site: ``compiled.fanin()`` CSR slicing plus a
    ``code -> rule`` dict lookup — exactly the dispatch the seed's
    ``_propagate`` paid before this PR hoisted both to engine construction.
    """
    compiled = engine.compiled
    sp = engine._sp
    code = compiled.code
    rules = dict(_RULES_BY_CODE)
    n = compiled.n
    pa = [0.0] * n
    pa_bar = [0.0] * n
    p0 = [0.0] * n
    p1 = [0.0] * n
    mark = [0] * n
    results = {}
    for generation, site in enumerate(sites, start=1):
        site_id = engine._cones.resolve(site)
        cone = engine.cone(site_id)
        pa[site_id], pa_bar[site_id], p0[site_id], p1[site_id] = 1.0, 0.0, 0.0, 0.0
        mark[site_id] = generation
        for gate in cone.gate_order:
            values = []
            for pin in compiled.fanin(gate):
                if mark[pin] == generation:
                    values.append((pa[pin], pa_bar[pin], p0[pin], p1[pin]))
                else:
                    p = sp[pin]
                    values.append((0.0, 0.0, 1.0 - p, p))
            result = rules[code[gate]](values)
            pa[gate], pa_bar[gate], p0[gate], p1[gate] = result
            mark[gate] = generation
        sink_values = {}
        error_probs = []
        for sink in cone.sinks:
            value = EPPValue.clamped(pa[sink], pa_bar[sink], p0[sink], p1[sink])
            sink_values[compiled.names[sink]] = value
            error_probs.append(value.error_probability)
        results[site] = (combine_sensitization(error_probs), sink_values)
    return results


def scalar_reference_sites(engine):
    """(sites, extrapolation factor) for the scalar reference timings."""
    sites = engine.default_sites()
    if engine.compiled.n <= SCALAR_FULL_MAX_NODES:
        return sites, 1.0
    sample = random.Random(7).sample(sites, SCALAR_SAMPLE_SITES)
    return sample, len(sites) / len(sample)


def fresh_engine(circuit_name: str) -> EPPEngine:
    """An engine with cold per-site caches (cone cache in particular)."""
    return EPPEngine(get_circuit(circuit_name), signal_probs=get_sp(circuit_name))


@pytest.mark.parametrize("circuit_name", BENCH_CIRCUITS)
def test_batch_analyze_speedup(benchmark, circuit_name):
    engine = fresh_engine(circuit_name)
    sites = engine.default_sites()

    rounds = 2 if engine.compiled.n <= SCALAR_FULL_MAX_NODES else 1
    # The timed quantity is the backend's default configuration — since
    # PR 3 that is the cone-aware sparse sweep over cone-clustered chunks.
    benchmark.pedantic(
        lambda: engine.analyze(sites=sites, backend="vector"),
        rounds=rounds, iterations=1, warmup_rounds=1,
    )
    vector_s = benchmark.stats["min"]

    # Dense reference: the PR-1 execution order (no pruning, contiguous
    # input-order chunks), warmed like the pedantic measurement above so
    # the ratio compares execution strategies, not first-call plan build
    # and state-buffer page faults.
    dense_engine = fresh_engine(circuit_name)
    dense_kwargs = dict(backend="vector", prune=False, schedule="input")
    dense_engine.analyze(sites=sites, **dense_kwargs)  # warmup
    t0 = time.perf_counter()
    dense_engine.analyze(sites=sites, **dense_kwargs)
    dense_s = time.perf_counter() - t0

    ref_sites, scale = scalar_reference_sites(engine)
    scalar_engine = fresh_engine(circuit_name)
    t0 = time.perf_counter()
    scalar_engine.analyze(sites=ref_sites, backend="scalar")
    scalar_s = (time.perf_counter() - t0) * scale
    seed_engine = fresh_engine(circuit_name)
    t0 = time.perf_counter()
    seed_scalar_analyze(seed_engine, ref_sites)
    seed_s = (time.perf_counter() - t0) * scale

    # Sharded driver: true end-to-end full-circuit wall-clock (cold pool,
    # spin-up included) under the default crossover guard — on multi-core
    # hosts this is the number that must beat `vector_s` on the large
    # circuits, and on small circuits the guard routes in-process.
    jobs = default_jobs()
    sharded_engine = fresh_engine(circuit_name)
    sharded_backend = sharded_engine.sharded_backend(jobs=jobs)
    t0 = time.perf_counter()
    sharded_engine.analyze(sites=sites, backend="sharded", jobs=jobs)
    sharded_s = time.perf_counter() - t0
    process_path = sharded_backend.pool_started
    sharded_backend.close()

    benchmark.extra_info["n_sites"] = len(sites)
    benchmark.extra_info["n_nodes"] = engine.compiled.n
    benchmark.extra_info["vector_dense_s"] = round(dense_s, 3)
    benchmark.extra_info["speedup_sparse_vs_dense"] = round(dense_s / vector_s, 2)
    benchmark.extra_info["scalar_s"] = round(scalar_s, 3)
    benchmark.extra_info["seed_scalar_s"] = round(seed_s, 3)
    benchmark.extra_info["scalar_extrapolated"] = scale != 1.0
    benchmark.extra_info["speedup_vs_scalar"] = round(scalar_s / vector_s, 2)
    benchmark.extra_info["speedup_vs_seed_scalar"] = round(seed_s / vector_s, 2)
    benchmark.extra_info["sharded_s"] = round(sharded_s, 3)
    benchmark.extra_info["sharded_jobs"] = jobs
    benchmark.extra_info["sharded_process_path"] = process_path
    benchmark.extra_info["speedup_vs_vector"] = round(vector_s / sharded_s, 2)
