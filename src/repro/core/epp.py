"""The EPP engine — step 3 of the paper's algorithm.

Given an error site, the engine walks the site's on-path cone **once** in
topological order.  Each on-path gate combines:

* the four-valued vectors of its on-path fanins (computed earlier in the
  pass), and
* the plain signal probabilities of its off-path fanins
  (``(0, 0, 1-SP, SP)``),

through the per-gate rules of :mod:`repro.core.rules`.  After the pass the
four-valued vector at every reachable output is known, and

``P_sensitized = 1 - prod_j (1 - (Pa(PO_j) + Pā(PO_j)))``

over the reachable outputs (primary outputs and flip-flop D pins).

Complexity: linear in the cone size per site — the paper's headline
speedup over random simulation, which costs ``n_vectors`` circuit
evaluations per site instead.
"""

from __future__ import annotations

import os
import random
import threading
from collections.abc import Mapping, Sequence
from repro.errors import AnalysisError
from repro.core.config import AnalysisConfig
from repro.core.cone import ConeExtractor, OnPathCone
from repro.core.fourvalue import EPPValue
from repro.core.rules import merge_polarity, truth_table_rule, _RULES_BY_CODE
from repro.core.sensitization import combine_sensitization
from repro.netlist.circuit import Circuit, CompiledCircuit
from repro.netlist.gate_types import CODE_MAJ, CODE_MUX, truth_table
from repro.probability import signal_probabilities

__all__ = ["EPPEngine", "EPPResult"]

class EPPResult:
    """EPP analysis of one error site.

    ``sink_values`` holds the four-valued vector at every reachable
    observable sink (by node name); ``p_sensitized`` combines them per the
    paper's formula.  ``cone_size`` is the number of on-path gates visited —
    the per-site work — kept for the scaling benchmarks.

    The batch backend constructs results through :meth:`deferred`: the
    per-sink :class:`~repro.core.fourvalue.EPPValue` dict is then built
    lazily — from the sweep's packed arrays — on first ``sink_values``
    access.  Full-circuit analyses produce millions of (site, sink) pairs,
    and the dominant consumers (the SER pipeline's default two-factor
    derating, the vulnerability ranking) read only ``p_sensitized``;
    deferring the per-object packaging removes it from the hot path
    entirely while keeping the result contract unchanged for callers that
    do read the vectors.
    """

    __slots__ = ("site", "p_sensitized", "cone_size", "_sink_values", "_sink_source")

    def __init__(
        self,
        site: str,
        p_sensitized: float,
        sink_values: dict[str, EPPValue] | None = None,
        cone_size: int = 0,
    ):
        self.site = site
        self.p_sensitized = p_sensitized
        self.cone_size = cone_size
        self._sink_values = {} if sink_values is None else sink_values
        self._sink_source = None

    @classmethod
    def deferred(
        cls, site: str, p_sensitized: float, cone_size: int, sink_source
    ) -> "EPPResult":
        """A result whose ``sink_values`` dict is built on first access.

        ``sink_source`` is a zero-argument callable returning the dict;
        it is invoked at most once and released afterwards.
        """
        result = cls(site, p_sensitized, None, cone_size)
        result._sink_values = None
        result._sink_source = sink_source
        return result

    @property
    def sink_values(self) -> dict[str, EPPValue]:
        values = self._sink_values
        if values is None:
            values = self._sink_source()
            self._sink_values = values
            self._sink_source = None
        return values

    def __eq__(self, other) -> bool:
        if not isinstance(other, EPPResult):
            return NotImplemented
        return (
            self.site == other.site
            and self.p_sensitized == other.p_sensitized
            and self.cone_size == other.cone_size
            and self.sink_values == other.sink_values
        )

    def __hash__(self) -> int:
        # Scalar fields only: consistent with __eq__ (equal results share
        # them) and — unlike the former frozen-dataclass hash, which
        # raised on the sink_values dict — actually usable in sets.
        return hash((self.site, self.p_sensitized, self.cone_size))

    def __repr__(self) -> str:
        # Never materialize just to render: printing a full-circuit result
        # set would otherwise build millions of deferred EPPValue objects.
        sinks = (
            "<deferred>" if self._sink_values is None
            else repr(self._sink_values)
        )
        return (
            f"EPPResult(site={self.site!r}, p_sensitized={self.p_sensitized!r}, "
            f"sink_values={sinks}, cone_size={self.cone_size!r})"
        )

    # Deferred sink sources close over sweep arrays and are not picklable;
    # pickling materializes, so results cross process boundaries intact.
    def __getstate__(self):
        return (self.site, self.p_sensitized, self.cone_size, self.sink_values)

    def __setstate__(self, state):
        self.site, self.p_sensitized, self.cone_size, self._sink_values = state
        self._sink_source = None


class EPPEngine:
    """Error-propagation-probability engine bound to one circuit.

    Parameters
    ----------
    circuit:
        The circuit under analysis (combinational or sequential).
    signal_probs:
        Precomputed signal probabilities (node name -> P(1)).  When omitted
        they are computed with ``sp_method`` / ``sp_options`` — the paper
        treats SP computation as a separately-charged preprocessing step,
        which is why the engine accepts it as an input.
    sp_method / sp_options:
        Backend for on-demand SP computation (see
        :func:`repro.probability.signal_probabilities`).
    track_polarity:
        ``False`` collapses ``ā`` into ``a`` after every gate — the
        polarity-blind ablation (reconvergent cancellation is lost).  A
        polarity-blind engine answers the scalar queries only
        (``node_epp``, ``p_sensitized``, ``analyze(backend="scalar")``):
        the vector and sharded kernels always track polarity.
    """

    def __init__(
        self,
        circuit: Circuit,
        signal_probs: Mapping[str, float] | None = None,
        sp_method: str = "topological",
        sp_options: Mapping | None = None,
        track_polarity: bool = True,
    ):
        self.circuit = circuit
        self.compiled: CompiledCircuit = circuit.compiled()
        # Captured so every public query can detect that the circuit was
        # mutated after construction: the compiled view, the SP vector and
        # every backend cache below describe the *pre-edit* circuit, and
        # silently answering from them is the stale-read bug class this
        # guard exists to close (see ``_check_current``).
        self._mutation_at_build = circuit.mutation_token
        self.track_polarity = track_polarity
        # SP provenance, recorded for the incremental-analysis layer
        # (:mod:`repro.core.epp_delta`): whether the caller supplied the
        # map (then edits must supply SPs for any new node) or the engine
        # computed it (then a delta recomputes with the same method).
        self._user_sp = signal_probs is not None
        self._sp_method = sp_method
        self._sp_options = dict(sp_options) if sp_options else {}
        if signal_probs is None:
            signal_probs = signal_probabilities(
                circuit, method=sp_method, **self._sp_options
            )
        self._sp: list[float] = [0.0] * self.compiled.n
        for node_id in range(self.compiled.n):
            name = self.compiled.names[node_id]
            try:
                p = float(signal_probs[name])
            except KeyError:
                raise AnalysisError(
                    f"signal_probs is missing node {name!r}; "
                    "pass a complete SP map or let the engine compute one"
                ) from None
            if not 0.0 <= p <= 1.0:
                raise AnalysisError(f"signal probability for {name!r} out of [0,1]: {p}")
            self._sp[node_id] = p

        self._cones = ConeExtractor(self.compiled)
        n = self.compiled.n
        # Scratch state for the pass: four parallel float arrays plus a
        # generation-stamped on-path mark (no O(n) clearing between sites).
        self._pa = [0.0] * n
        self._pa_bar = [0.0] * n
        self._p0 = [0.0] * n
        self._p1 = [0.0] * n
        self._mark = [0] * n
        self._generation = 0
        # Per-gate dispatch tables: fanin tuples and rule callables resolved
        # once at construction, so the hot loop skips the CSR slice and the
        # code->rule dict lookup per gate per site.  MUX/MAJ (and any future
        # cell without a closed form) get their truth table bound here too.
        self._fanin_by_gate: list[tuple[int, ...]] = [
            tuple(self.compiled.fanin(i)) for i in range(n)
        ]
        self._rule_by_gate: list = [None] * n
        for node_id in range(n):
            if not self.compiled.gate_type(node_id).is_combinational:
                continue
            code = self.compiled.code[node_id]
            if code in (CODE_MUX, CODE_MAJ) or code not in _RULES_BY_CODE:
                table = truth_table(
                    self.compiled.gate_type(node_id),
                    len(self._fanin_by_gate[node_id]),
                )
                self._rule_by_gate[node_id] = (
                    lambda values, _table=table: truth_table_rule(_table, values)
                )
            else:
                self._rule_by_gate[node_id] = _RULES_BY_CODE[code]
        self._vector_backend = None
        self._sharded_backend = None
        # Serializes every sweep that touches the engine's shared mutable
        # state: the scalar scratch arrays above, the cone cache, and the
        # vector/sharded backend cache slots.  The analysis service
        # coalesces concurrent requests over one engine from a thread
        # pool; without this lock two overlapping bulk queries would
        # interleave generation stamps and chunk buffers.  Reentrant
        # because the scalar ``analyze`` path calls ``node_epp``, and
        # ``snapshot`` resolves its backend, from inside a locked region.
        self._sweep_lock = threading.RLock()

    # ------------------------------------------------------------- staleness

    def _check_current(self) -> None:
        """Refuse to answer from a pre-edit snapshot of the circuit.

        The engine captures ``circuit.compiled()`` (plus the SP vector,
        cone cache, per-gate dispatch tables and any vector/sharded
        backend) at construction.  Mutating the :class:`Circuit`
        afterwards leaves all of that silently describing the old
        netlist — results would come back numerically plausible and
        wrong.  Every public query calls this first and raises instead.
        """
        if self.circuit.mutation_token != self._mutation_at_build:
            raise AnalysisError(
                f"circuit {self.circuit.name!r} was mutated after this "
                "engine was built; rebuild the engine, or apply the edits "
                "through analyze_delta() to reuse the previous results"
            )

    # ----------------------------------------------------------------- sites

    def default_sites(self) -> list[str]:
        """The error sites analyzed by default: combinational gate outputs."""
        compiled = self.compiled
        return [
            compiled.names[i]
            for i in range(compiled.n)
            if compiled.gate_type(i).is_combinational
        ]

    def cone(self, site: int | str) -> OnPathCone:
        """The (cached) on-path cone of a site."""
        return self._cones.cone(site)

    # ------------------------------------------------------------------- EPP

    def node_epp(self, site: int | str) -> EPPResult:
        """Full EPP analysis of one error site (per-sink vectors included)."""
        self._check_current()
        with self._sweep_lock:
            site_id = self._cones.resolve(site)
            cone = self._cones.cone(site_id)
            self._propagate(site_id, cone)
            compiled = self.compiled
            sink_values: dict[str, EPPValue] = {}
            error_probs: list[float] = []
            for sink in cone.sinks:
                value = EPPValue.clamped(
                    self._pa[sink], self._pa_bar[sink],
                    self._p0[sink], self._p1[sink],
                )
                sink_values[compiled.names[sink]] = value
                error_probs.append(value.error_probability)
            return EPPResult(
                site=compiled.names[site_id],
                p_sensitized=combine_sensitization(error_probs),
                sink_values=sink_values,
                cone_size=cone.size,
            )

    def p_sensitized(self, site: int | str) -> float:
        """``P_sensitized`` only — the fast path used by the benchmarks."""
        self._check_current()
        with self._sweep_lock:
            site_id = self._cones.resolve(site)
            cone = self._cones.cone(site_id)
            self._propagate(site_id, cone)
            pa = self._pa
            pa_bar = self._pa_bar
            survive_none = 1.0
            for sink in cone.sinks:
                survive_none *= 1.0 - (pa[sink] + pa_bar[sink])
            return 1.0 - survive_none

    def _propagate(self, site_id: int, cone: OnPathCone) -> None:
        """One topological pass over the cone (paper step 3)."""
        compiled = self.compiled
        self._generation += 1
        generation = self._generation
        mark = self._mark
        pa = self._pa
        pa_bar = self._pa_bar
        p0 = self._p0
        p1 = self._p1
        sp = self._sp
        fanin_by_gate = self._fanin_by_gate
        rule_by_gate = self._rule_by_gate
        track_polarity = self.track_polarity

        # The error site carries the erroneous value with certainty: 1(a).
        pa[site_id] = 1.0
        pa_bar[site_id] = 0.0
        p0[site_id] = 0.0
        p1[site_id] = 0.0
        mark[site_id] = generation

        for gate in cone.gate_order:
            values = []
            for pin in fanin_by_gate[gate]:
                if mark[pin] == generation:  # on-path fanin
                    values.append((pa[pin], pa_bar[pin], p0[pin], p1[pin]))
                else:  # off-path fanin: plain signal probability
                    p = sp[pin]
                    values.append((0.0, 0.0, 1.0 - p, p))
            result = rule_by_gate[gate](values)
            if not track_polarity:
                result = merge_polarity(result)
            pa[gate], pa_bar[gate], p0[gate], p1[gate] = result
            mark[gate] = generation

    # -------------------------------------------------------------- analysis

    def _backend(self, name: str, config: AnalysisConfig):
        """The cached ``"vector"`` or ``"sharded"`` backend for ``config``.

        One cache slot each, keyed by the *effective* configuration: a
        one-off explicit knob must not stick to later default calls.  The
        sharded driver runs its in-process calls on the vector backend.
        Both kernels track polarity, so a polarity-blind engine is
        refused here, the one place either backend is built.
        """
        from repro.core.epp_batch import BatchEPPBackend, default_batch_size

        if not self.track_polarity:
            raise AnalysisError(
                f"the {name} backend always tracks error polarity; a "
                "polarity-blind engine (track_polarity=False) runs on "
                'backend="scalar" only'
            )
        batch_size = (
            config.batch_size if config.batch_size is not None
            else default_batch_size(self.compiled.n)
        )
        local = self._vector_backend
        if local is None or local.batch_size != batch_size:
            local = BatchEPPBackend(self.compiled, self._sp, batch_size)
            self._vector_backend = local
        if name == "vector":
            return local

        from repro.core.epp_shard import (
            ShardedEPPEngine,
            default_jobs,
            recovery_knobs,
        )

        jobs = config.jobs
        batch_size = config.batch_size
        effective_jobs = int(jobs) if jobs is not None else default_jobs()
        requested_batch = None if batch_size is None else int(batch_size)
        checkpoint = config.checkpoint
        backend = self._sharded_backend
        if (
            backend is None
            or backend.jobs != effective_jobs
            or backend.requested_batch_size != requested_batch
            or backend.local is not local
            # The retry policy is part of the backend's identity, so
            # changing (say) the retry budget rebuilds the pool rather
            # than silently reusing one configured differently.
            or recovery_knobs(backend.config) != recovery_knobs(config)
            or backend.fault_injector is not config.fault_injector
            or backend.checkpoint != (
                None if checkpoint is None else os.fspath(checkpoint)
            )
        ):
            if backend is not None:
                backend.close()
            backend = ShardedEPPEngine(
                self.compiled,
                self._sp,
                local_backend=local,
                config=config.replace(jobs=effective_jobs),
            )
            self._sharded_backend = backend
        elif backend.config.deadline != config.deadline:
            # The global deadline is a per-call budget, not part of the
            # pool's identity: the warm pool takes this call's deadline.
            backend.config = backend.config.replace(deadline=config.deadline)
        return backend

    def sharded_backend(self, *, config: AnalysisConfig | None = None, **knobs):
        """The multi-process sharded driver bound to this engine.

        Takes an :class:`~repro.core.config.AnalysisConfig` or the same
        individual knobs as :meth:`analyze` (``jobs=``, ``batch_size=``,
        ``retries=``, ...), never both.  Exposes the bulk queries
        (``p_sensitized_many``, ``analyze_sites``), the pool lifecycle
        (``warm``/``close``) and the crossover knob
        (``min_process_work``).  The engine holds one cache slot: the
        *most recent* configuration — ``(jobs, batch_size)``, the retry
        policy (``retries``, ``shard_timeout``; ``None`` equal to the
        default), the fault injector and the checkpoint
        directory — is reused across calls, and requesting a different
        configuration closes the previous instance's worker pool before
        building the new one (so the engine never accumulates live
        pools).  The global ``deadline`` is not part of that identity:
        the cached driver takes each call's deadline, so a warm pool is
        reused whatever the budget.  Alternate configurations per call by
        constructing :class:`~repro.core.epp_shard.ShardedEPPEngine`
        instances directly instead.
        """
        self._check_current()
        return self._backend(
            "sharded", AnalysisConfig.from_args(config, knobs, backend="sharded")
        )

    def vector_backend(self, *, config: AnalysisConfig | None = None, **knobs):
        """The batched NumPy backend bound to this engine (public access).

        Takes an :class:`~repro.core.config.AnalysisConfig` or the sweep
        knob (``batch_size=``), never both; sharded-only knobs
        (``jobs=``, ``retries=``, ...) are refused.  Exposes the
        backend's bulk queries (``p_sensitized_many``, ``analyze_sites``,
        ``pack_sites``) without reaching into engine internals.  The
        instance is cached per effective batch size.
        """
        self._check_current()
        config = AnalysisConfig.from_args(config, knobs)
        config.require_backend_support("vector")
        return self._backend("vector", config)

    def release_buffers(self) -> None:
        """Reclaim the vector backend's chunk-width state matrices — and
        shut the sharded worker pool down, releasing its processes' copies
        too.  Everything rebuilds lazily on the next bulk call, but note
        the asymmetry: local buffers rebuild in milliseconds, while the
        next sharded call pays full pool respawn and per-worker
        re-planning — call this between sharded analyses only when the
        memory matters more than that latency.  Per-site scalar queries
        are unaffected.  Waits for a running sweep to finish: the buffers
        it frees are the ones that sweep is writing."""
        with self._sweep_lock:
            if self._vector_backend is not None:
                self._vector_backend.release_buffers()
            if self._sharded_backend is not None:
                self._sharded_backend.close()

    def _select_sites(self, sites, sample, seed, config, knobs) -> tuple:
        """``(sites, backend, config)`` of one bulk query: the validated
        config, the site list (default or given, then sampled) and the
        resolved backend — shared by :meth:`analyze` and
        :meth:`analyze_columns`, so both analyze the same sites."""
        self._check_current()
        cfg = AnalysisConfig.from_args(config, knobs)
        if sites is None:
            sites = self.default_sites()
        sites = list(sites)
        if sample is not None and sample < len(sites):
            sites = random.Random(seed).sample(sites, sample)
        backend = cfg.effective_backend()
        # Re-check the sharded-only knobs against the *resolved* backend:
        # construction already rejected conflicts with an explicit
        # backend, but `retries=` with a defaulted vector backend only
        # becomes a conflict here.
        cfg.require_backend_support(backend)
        return sites, backend, cfg

    def analyze(
        self,
        sites: Sequence[int | str] | None = None,
        sample: int | None = None,
        seed: int = 0,
        config: AnalysisConfig | None = None,
        **knobs,
    ) -> dict[str, EPPResult]:
        """EPP for many sites (default: every combinational gate output).

        ``sample`` draws a deterministic random subset — the treatment the
        paper applies to its larger circuits ("a limited number of gates of
        the circuits are simulated").

        ``backend`` selects the propagation kernel: ``"scalar"`` walks one
        cone per site (the reference oracle), ``"vector"`` runs the batched
        level-parallel NumPy sweep of :mod:`repro.core.epp_batch`, and
        ``"sharded"`` fans site shards out across ``jobs`` worker processes
        each running the vector sweep (:mod:`repro.core.epp_shard`).  The
        default (``None``) picks ``vector`` — or ``sharded`` when ``jobs``
        is given explicitly.  The vector backend runs its sweep on every
        workload, however small, so ``analyze`` returns the very
        ``p_sensitized`` and cone sizes :meth:`snapshot` holds.  All
        backends agree to 1e-9
        (floating-point reassociation only).  ``batch_size`` bounds
        the vector backend's per-chunk site count (default: sized to keep
        the state matrix in cache); ``jobs`` is the sharded worker count
        (default: one per core).  Small workloads never pay process
        spin-up — the sharded driver's crossover guard routes them to the
        in-process vector path.

        The vector sweep is cone-aware: every chunk runs on its
        compacted union-of-cones state matrix and computes only the
        on-path cells of sufficiently sparse gate groups.  Site lists
        spanning more than one chunk are cone-clustered, so chunks share
        fanout cones and the unions stay small; chunk widths follow one
        calibrated policy.  All of it is bit-identical to a dense sweep
        over the whole circuit: compaction and clustering change how
        much is computed, never any value.

        The resilience knobs apply to the sharded backend only (like
        ``jobs``): ``retries`` is the extra attempts allowed per failed
        shard, ``shard_timeout`` the per-shard deadline (seconds) past
        which a slow shard is re-enqueued with backoff, and ``deadline``
        the global analysis deadline.  A retry waits out the fixed
        backoff of :func:`~repro.core.resilience.backoff_delay`.  Once a
        budget is spent the call raises a typed
        :class:`~repro.errors.ResilienceError` (``retries=0`` fails
        fast); it never falls back to another backend by itself.

        ``checkpoint`` (sharded only, like ``jobs``) names a directory
        for the per-shard sweep journal (:mod:`repro.core.checkpoint`):
        completed shards are journaled as they merge, and re-running the
        identical analysis — including after the process was killed
        mid-sweep — loads the journaled shards back checksum-verified
        and re-sweeps only the rest, bit-identical to a clean run.

        ``config`` accepts a pre-built
        :class:`~repro.core.config.AnalysisConfig` carrying all of the
        above at once; it is mutually exclusive with the individual
        knobs.  Every knob — named or via ``config`` — is validated by
        the config layer at this boundary, so unknown names, bad values
        and conflicting combinations raise
        :class:`~repro.errors.AnalysisConfigError` before any backend
        is resolved or constructed.

        The vector and sharded backends build the results from one
        ``pack_sites`` call (every on-path (site, sink) pair);
        :meth:`analyze_columns` answers the same query with
        ``P_sensitized`` and cone sizes only.
        """
        sites, backend, cfg = self._select_sites(sites, sample, seed, config, knobs)
        with self._sweep_lock:
            site_ids = [self._cones.resolve(site) for site in sites]
            if backend == "scalar":
                # The reference oracle: one cone walk per site.
                results = (self.node_epp(site_id) for site_id in site_ids)
                return {result.site: result for result in results}
            packed = self._backend(backend, cfg).pack_sites(site_ids)
            results: dict[str, EPPResult] = {}
            # _backend made the resolved backend's local vector backend
            # the cached one.
            self._vector_backend.materialize(site_ids, packed, results)
            return results

    def analyze_columns(
        self,
        sites: Sequence[int | str] | None = None,
        sample: int | None = None,
        seed: int = 0,
        config: AnalysisConfig | None = None,
        **knobs,
    ) -> tuple:
        """``(site_names, p_sensitized, cone_sizes)`` for many sites.

        The two columns the SER report reads, for the sites
        :meth:`analyze` would analyze with the same arguments, in that
        order (a repeated site repeats).  The vector and sharded
        backends reduce each swept chunk straight to the columns
        (``analyze_sites``) and never pack a (site, sink) pair; the
        scalar backend reads them off one :meth:`node_epp` per site.
        Per site the values equal :meth:`analyze`'s ``p_sensitized`` and
        ``cone_size`` on the same backend bit for bit.
        """
        import numpy as np

        sites, backend, cfg = self._select_sites(sites, sample, seed, config, knobs)
        with self._sweep_lock:
            site_ids = [self._cones.resolve(site) for site in sites]
            names = [self.compiled.names[site_id] for site_id in site_ids]
            if backend != "scalar":
                return (names, *self._backend(backend, cfg).analyze_sites(site_ids))
            results = [self.node_epp(site_id) for site_id in site_ids]
        p_sens = np.array([result.p_sensitized for result in results])
        cone_sizes = np.array(
            [result.cone_size for result in results], dtype=np.intp
        )
        return names, p_sens, cone_sizes

    # ------------------------------------------------------- incremental

    def snapshot(
        self,
        sites: Sequence[int | str] | None = None,
        config: AnalysisConfig | None = None,
        **knobs,
    ):
        """A full analysis packaged for incremental what-if edits.

        Returns a :class:`~repro.core.epp_delta.DeltaAnalysis`: the two
        per-site result columns (``p_sensitized``, ``cone_sizes``) of a
        full vectorized sweep plus everything :meth:`analyze_delta` needs
        to re-sweep only the sites an edit can affect — the resolved SP
        map (with its provenance), the site-list semantics (an omitted
        ``sites`` re-derives the default site list after structural
        edits) and the backend knobs.  The columns are exactly the
        backend's ``analyze_sites`` output, so a later delta's columns
        are ``np.array_equal``-identical to re-running this snapshot on
        the edited circuit.  No (site, sink) pair is packed or held; the
        scalar oracle is refused (a revision chain shares one sweep's
        bits).  A snapshot starts unhardened: hardening factors live on
        the revisions a delta returns, never on the engine, which
        metadata-only revisions share.

        The resilience knobs (``retries``/``shard_timeout``/
        ``deadline``) apply to the sharded backend only,
        exactly as in :meth:`analyze` — the analysis service uses
        ``deadline`` to push a request's remaining budget into the sweep
        itself.
        """
        from repro.core.epp_delta import snapshot as _snapshot

        knobs = AnalysisConfig.from_args(config, knobs).knobs()
        return _snapshot(self, sites=sites, **knobs)

    def analyze_delta(self, prev, edits, sites: Sequence[int | str] | None = None, **knobs):
        """Re-analyze after ``edits``, reusing every unaffected column.

        ``prev`` is a :class:`~repro.core.epp_delta.DeltaAnalysis` from
        :meth:`snapshot` (or a previous delta) over *this* engine's
        circuit; ``edits`` an :class:`~repro.core.epp_delta.EditSet`.  The
        edit set is applied to a copy of the circuit, the dirty site set
        is derived from reverse reachability over both the old and new
        netlists, only dirty sites are re-swept through the column query,
        and every clean site keeps ``prev``'s column values — so the
        result is bit-identical (``np.array_equal``) to a full
        re-analysis of the edited circuit.  Keyword knobs
        (``backend``/``jobs``/``batch_size``/...) override the
        snapshot's for the re-sweep.  A ``harden``-only edit set skips
        all of that and returns a revision that shares this engine and
        ``prev``'s columns.
        """
        from repro.core.epp_delta import analyze_delta as _analyze_delta

        if prev.engine is not self:
            raise AnalysisError(
                "analyze_delta: the previous DeltaAnalysis belongs to a "
                "different engine; call it on prev.engine (each delta "
                "carries the engine of its own circuit revision)"
            )
        return _analyze_delta(prev, edits, sites=sites, **knobs)
