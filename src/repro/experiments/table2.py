"""Table 2 regeneration: EPP vs random simulation on the ISCAS'89 roster.

For every circuit the harness measures, mirroring the paper's columns:

* **SysT** — mean EPP run time per node (milliseconds).  Measured over a
  deterministic sample of sites (cone extraction included).  With
  ``Table2Config(backend="vector")`` the sample runs through the batched
  NumPy backend instead and SysT reports the amortized per-node cost of
  the level-parallel sweep (``--backend vector`` on the CLI);
  ``backend="sharded"`` (``--backend sharded --jobs N``) fans that sweep
  across a warmed pool of ``jobs`` worker processes.
* **SimT** — mean *serial* random-simulation run time per node (seconds),
  the 2005-methodology baseline
  (:class:`~repro.core.baseline.SerialRandomSimulationEstimator`).
  Measured on a small site sample because it is exorbitantly slow — the
  same concession the paper makes ("for larger circuits, a limited number
  of gates of the circuits are simulated").
* **%Dif** — accuracy of EPP against a *statistically tight* Monte Carlo
  reference (the modern bit-parallel estimator with a large vector budget),
  as ``100 * sum|epp - ref| / sum(ref)`` over the accuracy sample.
* **SPT** — wall time of the Monte Carlo signal-probability computation
  feeding the EPP engine (the separately-charged preprocessing).
* **ISP / ESP** — speedups including/excluding SPT, recomputed with the
  paper's own accounting: ``ESP = SimT/SysT`` and
  ``ISP = (SimT * k)/(SysT * k + SPT)`` where ``k`` is the number of
  default error sites in the circuit.

Roster-level parallelism: every row is measured independently (its own
circuit, its own seeded RNGs), so ``Table2Config(circuit_jobs=N)``
(``--circuit-jobs N`` on the CLI) fans whole circuits across a
``ProcessPoolExecutor`` — the roster-level analogue of the per-site
independence the sharded EPP backend exploits.  The pool reuses the
sharded driver's machinery (:func:`repro.core.epp_shard
.preferred_mp_context` and the pickle-once initializer pattern: the
config crosses the process boundary exactly once), and workers cache
built circuits by identity so a re-submitted roster job reuses the
cached :class:`~repro.netlist.circuit.CompiledCircuit` — and with it the
batch plan and cone index already cached on it — instead of re-planning.
Rows travel the executor's pickle channel, as the sharded driver's
shard results do.  Timing columns are measured inside the
workers, so rows are identical in distribution to a serial run; the
deterministic columns (``n_nodes``, ``%Dif``, ``mean_abs_dif``) are
identical full stop.

Substitution note: the circuits are profile-matched synthetic stand-ins
for the ISCAS'89 netlists (see DESIGN.md §4); ``s27`` uses the real
embedded netlist.  Both estimators and the EPP engine consume the same
signal-probability map, so the accuracy comparison isolates the
propagation method itself.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.baseline import (
    RandomSimulationEstimator,
    SerialRandomSimulationEstimator,
)
from repro.core.epp import EPPEngine
from repro.errors import ConfigError
from repro.experiments.profiles import PAPER_TABLE2, TABLE2_CIRCUITS
from repro.netlist.circuit import Circuit
from repro.netlist.generate import ISCAS89_PROFILES, generate_iscas
from repro.netlist.library import s27 as make_s27
from repro.probability.monte_carlo import monte_carlo_signal_probabilities

__all__ = ["Table2Config", "Table2Row", "run_table2", "run_table2_circuit"]


@dataclass(frozen=True)
class Table2Config:
    """Budget knobs for the Table 2 run.

    The defaults are the "quick" configuration: every circuit of the
    roster, a few minutes total.  ``full()`` returns the heavyweight
    configuration used for the committed EXPERIMENTS.md numbers.
    """

    circuits: tuple[str, ...] = tuple(TABLE2_CIRCUITS)
    #: vectors per site for the serial (timed) baseline
    sim_vectors: int = 1_000
    #: sites timed with the serial baseline (it is the expensive part)
    sim_sites: int = 3
    #: sites used for the accuracy (%Dif) comparison
    accuracy_sites: int = 60
    #: vectors for the Monte Carlo accuracy reference
    reference_vectors: int = 30_000
    #: vectors for the Monte Carlo SP computation (the SPT column)
    sp_vectors: int = 50_000
    #: sites timed with the EPP engine (per-node SysT average)
    epp_sites: int = 200
    seed: int = 2005
    #: EPP propagation backend for the SysT column: ``scalar`` preserves the
    #: paper's one-cone-per-site accounting (the reference oracle);
    #: ``vector`` times the batched NumPy backend, so SysT becomes the
    #: *amortized* per-node cost of a level-parallel sweep; ``sharded``
    #: fans that sweep out across ``jobs`` worker processes (the pool is
    #: warmed outside the timed region, so SysT stays an amortized
    #: steady-state per-node cost).
    backend: str = "scalar"
    #: worker processes for the sharded backend (None: one per core)
    jobs: int | None = None
    #: roster-level parallelism: fan whole circuits across this many
    #: worker processes (None/1: measure the roster serially).  Mutually
    #: exclusive with ``backend="sharded"`` — one level of process
    #: parallelism at a time, never nested pools.
    circuit_jobs: int | None = None

    def __post_init__(self) -> None:
        for name in ("sim_vectors", "sim_sites", "accuracy_sites",
                     "reference_vectors", "sp_vectors", "epp_sites"):
            if getattr(self, name) < 1:
                raise ConfigError(f"Table2Config.{name} must be >= 1")
        # The EPP knobs are validated by the config layer, here rather
        # than inside the first row's run (or a roster pool worker).
        self.analysis_config()
        if self.circuit_jobs is not None and self.circuit_jobs < 1:
            raise ConfigError(
                f"Table2Config.circuit_jobs must be >= 1, got {self.circuit_jobs}"
            )
        if self.circuit_jobs is not None and self.circuit_jobs > 1 \
                and self.backend == "sharded":
            raise ConfigError(
                "Table2Config.circuit_jobs cannot be combined with "
                "backend='sharded': roster workers would spawn nested "
                "process pools"
            )
        unknown = [c for c in self.circuits if c not in ISCAS89_PROFILES]
        if unknown:
            raise ConfigError(f"unknown Table 2 circuits: {unknown}")

    def analysis_config(self):
        """The roster's EPP knobs as one
        :class:`~repro.core.config.AnalysisConfig` — the SysT column's
        backend construction goes through the same typed option layer as
        ``EPPEngine.analyze`` (``circuit_jobs`` stays here: roster-level
        fan-out is a harness concern, not an analysis knob)."""
        from repro.core.config import AnalysisConfig

        return AnalysisConfig(backend=self.backend, jobs=self.jobs)

    @staticmethod
    def quick(circuits: Sequence[str] | None = None) -> "Table2Config":
        """Small circuits only by default — finishes in well under a minute."""
        roster = tuple(circuits) if circuits else ("s953", "s1196", "s1238", "s1488")
        return Table2Config(circuits=roster, sim_vectors=300, accuracy_sites=40,
                            reference_vectors=20_000, sp_vectors=20_000, epp_sites=120)

    @staticmethod
    def full() -> "Table2Config":
        return Table2Config(sim_vectors=2_000, sim_sites=3, accuracy_sites=100,
                            reference_vectors=60_000, sp_vectors=100_000, epp_sites=300)


#: Vector budget the extrapolated columns are normalized to.  Serial
#: simulation cost is exactly linear in the vector count, and the paper's
#: SimT magnitudes imply a budget of this order on 2005 hardware.
REFERENCE_VECTORS = 100_000


@dataclass
class Table2Row:
    """Measured row, with the paper's published row alongside.

    ``simt_ref_s`` / ``isp_ref`` / ``esp_ref`` restate the baseline columns
    extrapolated (exactly linearly) to :data:`REFERENCE_VECTORS` vectors per
    site, so speedups can be compared against the paper at a comparable
    simulation budget; ``sim_vectors`` records the measured budget.
    """

    circuit: str
    n_nodes: int
    syst_ms: float
    simt_s: float
    pct_dif: float
    spt_s: float
    isp: float
    esp: float
    n_accuracy_sites: int = 0
    mean_abs_dif: float = 0.0
    sim_vectors: int = 0
    simt_ref_s: float = 0.0
    isp_ref: float = 0.0
    esp_ref: float = 0.0

    @property
    def paper(self):
        return PAPER_TABLE2.get(self.circuit)

    @staticmethod
    def header() -> str:
        return (
            f"{'Circuit':<9} {'SysT(ms)':>9} {'SimT(s)':>9} {'%Dif':>6} "
            f"{'SPT(s)':>8} {'ISP':>9} {'ESP':>10}   "
            f"{'paper:%Dif':>10} {'ISP':>8} {'ESP':>8}"
        )

    def format_row(self) -> str:
        paper = self.paper
        paper_part = (
            f"{paper.pct_dif:>10.1f} {paper.isp:>8.1f} {paper.esp:>8.0f}"
            if paper
            else f"{'-':>10} {'-':>8} {'-':>8}"
        )
        return (
            f"{self.circuit:<9} {self.syst_ms:>9.3f} {self.simt_s:>9.3f} "
            f"{self.pct_dif:>6.1f} {self.spt_s:>8.2f} {self.isp:>9.1f} "
            f"{self.esp:>10.0f}   {paper_part}"
        )


def _build_circuit(name: str) -> Circuit:
    if name == "s27":
        return make_s27()
    return generate_iscas(name)


# ------------------------------------------------------------- roster pool

#: Per-worker state of the roster pool: the once-unpickled config (the
#: initializer pattern of :mod:`repro.core.epp_shard` — the parent pickles
#: it exactly once, every task ships only a circuit name) and a circuit
#: cache keyed by circuit identity, so a re-submitted roster job reuses
#: the already-compiled circuit — and with it the batch plan / cone index
#: cached on its ``CompiledCircuit`` — instead of rebuilding and
#: re-planning.  ``circuits_built`` counts cache misses (the roster
#: analogue of the shard workers' ``plans_built``).
_ROSTER_CONFIG: "Table2Config | None" = None
_ROSTER_CIRCUITS: dict[str, Circuit] = {}
_ROSTER_STATS = {"circuits_built": 0}


def _roster_worker_init(payload: bytes) -> None:
    """Executor initializer: unpickle the roster config once per worker."""
    import pickle

    global _ROSTER_CONFIG
    _ROSTER_CONFIG = pickle.loads(payload)


def _roster_circuit(name: str) -> Circuit:
    """This worker's circuit for ``name``, built (and planned) at most once."""
    circuit = _ROSTER_CIRCUITS.get(name)
    if circuit is None:
        circuit = _build_circuit(name)
        _ROSTER_CIRCUITS[name] = circuit
        _ROSTER_STATS["circuits_built"] += 1
    return circuit


def _run_roster_job(name: str) -> Table2Row:
    """One roster task: measure a whole circuit's row inside a worker."""
    return run_table2_circuit(name, _ROSTER_CONFIG, circuit=_roster_circuit(name))


def run_table2_circuit(
    name: str, config: Table2Config, circuit: Circuit | None = None
) -> Table2Row:
    """Measure one Table 2 row (``circuit`` lets callers reuse a built one)."""
    if circuit is None:
        circuit = _build_circuit(name)

    # ---- SPT: Monte Carlo signal probabilities (charged separately) ----
    t0 = time.perf_counter()
    sp = monte_carlo_signal_probabilities(
        circuit, n_vectors=config.sp_vectors, seed=config.seed
    )
    spt_s = time.perf_counter() - t0

    state_weights = {ff: sp[ff] for ff in circuit.flip_flops}
    engine = EPPEngine(circuit, signal_probs=sp)
    sites_all = engine.default_sites()
    k = len(sites_all)

    # ---- SysT: per-node EPP time ----
    import random as _random

    rng = _random.Random(config.seed)
    epp_sites = (
        rng.sample(sites_all, config.epp_sites)
        if config.epp_sites < k
        else list(sites_all)
    )
    if config.backend in ("vector", "sharded"):
        # Amortized per-node cost of the batched level-parallel sweep,
        # through p_sensitized_many — the exact vector twin of the scalar
        # p_sensitized fast path below (no per-sink dict assembly in
        # either column), so the two backends' SysT numbers measure the
        # same quantity.  The
        # sharded variant fans the same sweep across worker processes;
        # its pool is warmed first so SysT reports the steady-state
        # amortized cost, not a one-off process spin-up.
        site_ids = [engine.compiled.index[site] for site in epp_sites]
        analysis_config = config.analysis_config()
        if config.backend == "sharded":
            # The caller asked for sharded explicitly, so bypass the
            # crossover guard — the site *sample* sits below the threshold
            # for most roster circuits, and routing it in-process would
            # silently report vector timings under a sharded label.  The
            # pool is warmed first (workers forked and initialized) so the
            # timed block below measures steady-state sweeps.
            backend = engine.sharded_backend(config=analysis_config)
            backend.min_process_work = 0
            backend.warm()
            cleanup = backend.close
        else:
            backend = engine.vector_backend(config=analysis_config)
            cleanup = None
        try:
            t0 = time.perf_counter()
            backend.p_sensitized_many(site_ids)
            syst_ms = (time.perf_counter() - t0) / len(epp_sites) * 1e3
        finally:
            if cleanup is not None:
                cleanup()
    else:
        t0 = time.perf_counter()
        for site in epp_sites:
            engine.p_sensitized(site)
        syst_ms = (time.perf_counter() - t0) / len(epp_sites) * 1e3

    # ---- %Dif: EPP vs tight Monte Carlo reference ----
    accuracy_sites = (
        rng.sample(sites_all, config.accuracy_sites)
        if config.accuracy_sites < k
        else list(sites_all)
    )
    reference = RandomSimulationEstimator(
        circuit,
        n_vectors=config.reference_vectors,
        seed=config.seed + 1,
        state_weights=state_weights,
    )
    ref_values = reference.estimate(accuracy_sites)
    abs_err_sum = 0.0
    ref_sum = 0.0
    for site in accuracy_sites:
        epp_value = engine.p_sensitized(site)
        abs_err_sum += abs(epp_value - ref_values[site])
        ref_sum += ref_values[site]
    pct_dif = 100.0 * abs_err_sum / ref_sum if ref_sum > 0 else 0.0

    # ---- SimT: serial 2005-style baseline timing ----
    sim_sites = accuracy_sites[: config.sim_sites]
    serial = SerialRandomSimulationEstimator(
        circuit,
        n_vectors=config.sim_vectors,
        seed=config.seed + 2,
        state_weights=state_weights,
    )
    t0 = time.perf_counter()
    serial.estimate(sim_sites)
    simt_s = (time.perf_counter() - t0) / len(sim_sites)

    # ---- speedups, paper accounting ----
    syst_s = syst_ms / 1e3
    esp = simt_s / syst_s if syst_s > 0 else float("inf")
    isp = (simt_s * k) / (syst_s * k + spt_s) if k else 0.0
    scale = REFERENCE_VECTORS / config.sim_vectors
    simt_ref = simt_s * scale
    esp_ref = simt_ref / syst_s if syst_s > 0 else float("inf")
    isp_ref = (simt_ref * k) / (syst_s * k + spt_s) if k else 0.0

    return Table2Row(
        circuit=name,
        n_nodes=k,
        syst_ms=syst_ms,
        simt_s=simt_s,
        pct_dif=pct_dif,
        spt_s=spt_s,
        isp=isp,
        esp=esp,
        n_accuracy_sites=len(accuracy_sites),
        mean_abs_dif=abs_err_sum / len(accuracy_sites),
        sim_vectors=config.sim_vectors,
        simt_ref_s=simt_ref,
        isp_ref=isp_ref,
        esp_ref=esp_ref,
    )


def _run_table2_parallel(config: Table2Config, verbose: bool) -> list[Table2Row]:
    """The roster fanned across a worker pool, rows back in roster order."""
    import pickle
    from concurrent.futures import ProcessPoolExecutor

    from repro.core.epp_shard import preferred_mp_context

    jobs = min(config.circuit_jobs, len(config.circuits))
    payload = pickle.dumps(config, protocol=pickle.HIGHEST_PROTOCOL)
    if verbose:
        print(
            f"[table2] fanning {len(config.circuits)} circuits across "
            f"{jobs} workers ...",
            flush=True,
        )
    with ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=preferred_mp_context(),
        initializer=_roster_worker_init,
        initargs=(payload,),
    ) as pool:
        futures = [pool.submit(_run_roster_job, name) for name in config.circuits]
        rows = []
        for future in futures:  # roster order, regardless of completion order
            rows.append(future.result())
            if verbose:
                print("  " + rows[-1].format_row(), flush=True)
    return rows


def run_table2(config: Table2Config | None = None, verbose: bool = False) -> list[Table2Row]:
    """Measure all configured rows (in the paper's circuit order).

    ``config.circuit_jobs > 1`` runs the roster through the worker pool
    of :func:`_run_table2_parallel` — every row is an independent
    measurement (own circuit, own seeded RNGs), so fanning circuits out
    changes wall-clock, never results' distribution; the deterministic
    columns are bit-identical to a serial run.
    """
    config = config if config is not None else Table2Config()
    if config.circuit_jobs is not None and config.circuit_jobs > 1 \
            and len(config.circuits) > 1:
        return _run_table2_parallel(config, verbose)
    rows: list[Table2Row] = []
    for name in config.circuits:
        if verbose:
            print(f"[table2] {name} ...", flush=True)
        rows.append(run_table2_circuit(name, config))
        if verbose:
            print("  " + rows[-1].format_row(), flush=True)
    return rows


def format_table2(rows: list[Table2Row]) -> str:
    """ASCII rendering with paper reference columns and averages."""
    lines = [Table2Row.header()]
    lines += [row.format_row() for row in rows]
    if rows:
        n = len(rows)
        avg = (
            f"{'average':<9} {sum(r.syst_ms for r in rows)/n:>9.3f} "
            f"{sum(r.simt_s for r in rows)/n:>9.3f} "
            f"{sum(r.pct_dif for r in rows)/n:>6.1f} "
            f"{sum(r.spt_s for r in rows)/n:>8.2f} "
            f"{sum(r.isp for r in rows)/n:>9.1f} "
            f"{sum(r.esp for r in rows)/n:>10.0f}"
        )
        lines.append(avg)
        lines.append(
            "paper avg: SysT=3.243ms SimT=325.0s %Dif=5.4 SPT=110.7s* "
            "ISP=549.1 ESP=93072   (*paper column prints 110.7; "
            "the per-row mean of its SPT values is ~4212s)"
        )
        lines.append("")
        lines.append(
            f"extrapolated to {REFERENCE_VECTORS} vectors/site "
            f"(measured budget: {rows[0].sim_vectors}; serial cost is linear in vectors):"
        )
        lines.append(
            f"{'Circuit':<9} {'SimT_ref(s)':>12} {'ISP_ref':>10} {'ESP_ref':>12}"
        )
        for row in rows:
            lines.append(
                f"{row.circuit:<9} {row.simt_ref_s:>12.1f} {row.isp_ref:>10.1f} "
                f"{row.esp_ref:>12.0f}"
            )
    return "\n".join(lines)
