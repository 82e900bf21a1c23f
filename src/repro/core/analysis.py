"""End-to-end SER analysis: ``SER(n_i) = R_SEU x P_latched x P_sensitized``.

:class:`SERAnalyzer` combines the EPP engine's ``P_sensitized`` with the
parametric :class:`~repro.ser.seu_rate.SEURateModel` and
:class:`~repro.ser.latching.LatchingModel` exactly as the paper factors the
error rate, producing per-node and circuit-level FIT together with the
vulnerability ranking the paper motivates ("identify the most vulnerable
components to be protected").

Two optional extensions beyond the paper's two-factor derating:

* **electrical masking** — per-sink pulse attenuation over the traversed
  logic depth (:class:`~repro.ser.electrical.ElectricalMaskingModel`);
* **multi-cycle observability** — an error captured into a flip-flop is
  re-injected as an error site in the next cycle; a bounded-depth fixpoint
  estimates the probability it eventually reaches a primary output.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import repeat

from repro.errors import AnalysisError
from repro.core.epp import EPPEngine, EPPResult
from repro.core.sensitization import combine_sensitization
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.ser.electrical import ElectricalMaskingModel
from repro.ser.fit import combine_fit, per_second_to_fit
from repro.ser.latching import LatchingModel
from repro.ser.seu_rate import SEURateModel

__all__ = ["NodeSER", "CircuitSERReport", "SERAnalyzer"]


@dataclass(frozen=True)
class NodeSER:
    """SER decomposition of one error site (rates in failures/second)."""

    node: str
    gate_type: str
    r_seu: float
    p_latched: float
    p_sensitized: float
    ser: float
    fit: float
    cone_size: int

    @staticmethod
    def header() -> str:
        return (
            f"{'node':<16} {'type':<6} {'R_SEU':>10} {'P_latch':>8} "
            f"{'P_sens':>8} {'FIT':>12}"
        )

    def format_row(self) -> str:
        return (
            f"{self.node:<16} {self.gate_type:<6} {self.r_seu:>10.3e} "
            f"{self.p_latched:>8.4f} {self.p_sensitized:>8.4f} {self.fit:>12.4e}"
        )


@dataclass
class CircuitSERReport:
    """Per-node and aggregate SER of one analysis run."""

    circuit_name: str
    nodes: dict[str, NodeSER] = field(default_factory=dict)

    @property
    def total_fit(self) -> float:
        return combine_fit(entry.fit for entry in self.nodes.values())

    def ranked(self, top: int | None = None) -> list[NodeSER]:
        """Nodes by decreasing SER contribution (the vulnerability ranking).

        A ``top`` count selects with a bounded heap instead of sorting
        every node (``heapq.nsmallest`` equals ``sorted(...)[:top]``).
        """
        def key(entry):
            return (-entry.ser, entry.node)

        if top is None:
            return sorted(self.nodes.values(), key=key)
        return heapq.nsmallest(top, self.nodes.values(), key=key)

    def contribution(self, node: str) -> float:
        """Fraction of the circuit SER contributed by one node."""
        total = self.total_fit
        if total == 0.0:
            return 0.0
        try:
            return self.nodes[node].fit / total
        except KeyError:
            raise AnalysisError(f"node {node!r} not in this report") from None

    def format_table(self, top: int = 10) -> str:
        lines = [
            f"SER report for {self.circuit_name}: "
            f"{len(self.nodes)} sites, total {self.total_fit:.4e} FIT",
            NodeSER.header(),
        ]
        lines += [entry.format_row() for entry in self.ranked(top)]
        return "\n".join(lines)

    def to_dict(self, top: int | None = None) -> dict:
        """JSON-ready view of the report (ranked, optionally truncated).

        Floats pass through untouched — ``repr`` round-trips them exactly
        through JSON, so a report served over the analysis-service wire
        is numerically identical to one assembled in-process.
        """
        return {
            "circuit": self.circuit_name,
            "sites": len(self.nodes),
            "total_fit": self.total_fit,
            "nodes": [
                {
                    "node": entry.node,
                    "gate_type": entry.gate_type,
                    "r_seu": entry.r_seu,
                    "p_latched": entry.p_latched,
                    "p_sensitized": entry.p_sensitized,
                    "ser": entry.ser,
                    "fit": entry.fit,
                    "cone_size": entry.cone_size,
                }
                for entry in self.ranked(top)
            ],
        }


class SERAnalyzer:
    """Full-circuit SER analysis on top of an :class:`EPPEngine`.

    Parameters mirror the paper's factorization; every model is replaceable.
    ``electrical_model`` switches the per-sink attenuation extension on.
    """

    def __init__(
        self,
        circuit: Circuit,
        seu_model: SEURateModel | None = None,
        latching_model: LatchingModel | None = None,
        electrical_model: ElectricalMaskingModel | None = None,
        signal_probs: Mapping[str, float] | None = None,
        sp_method: str = "topological",
        engine: EPPEngine | None = None,
        hardening_factors: Mapping[str, float] | None = None,
    ):
        self.circuit = circuit
        self.seu_model = seu_model if seu_model is not None else SEURateModel()
        self.latching_model = (
            latching_model if latching_model is not None else LatchingModel()
        )
        self.electrical_model = electrical_model
        self.engine = (
            engine
            if engine is not None
            else EPPEngine(circuit, signal_probs=signal_probs, sp_method=sp_method)
        )
        self.compiled = self.engine.compiled
        # Per-node drive-strength factors: upsizing by ``s`` divides the
        # node's sensitive cross section — R_SEU, SER and FIT — by ``s``
        # while leaving P_sensitized untouched (Mohanram & Touba's model,
        # see ser/hardening.py).  Incremental what-if analyses carry their
        # own accumulated factors, which compose with these.
        self.hardening_factors: dict[str, float] = dict(hardening_factors or {})
        for node, factor in self.hardening_factors.items():
            if not math.isfinite(factor) or factor <= 0.0:
                raise AnalysisError(
                    f"hardening factor for {node!r} must be positive "
                    f"and finite, got {factor}"
                )

    # ------------------------------------------------------------- per node

    def node_ser(self, site: str) -> NodeSER:
        """SER decomposition for one site."""
        result = self.engine.node_epp(site)
        rows = [(site, result.p_sensitized, result.cone_size, result)]
        return self._assemble(self.compiled, rows)[site]

    def _assemble(
        self,
        compiled,
        rows: Iterable[tuple[str, float, int, EPPResult | None]],
        hardening: Mapping[str, float] | None = None,
    ) -> dict[str, NodeSER]:
        """``{site: NodeSER}`` for ``(site, p_sensitized, cone_size,
        result)`` rows, assembled against an explicit compiled view.

        Incremental what-if results (:meth:`report_for`) live on *edited*
        circuit revisions whose compiled view differs from the analyzer's
        own; everything here indexes through the ``compiled`` argument so
        both paths share one assembly.  ``hardening`` holds a revision's
        factors, composed with the analyzer's own.  ``result`` is read
        only by the electrical-masking model, which needs the per-sink
        vectors.  Per-report invariants are looked up once, not per site:
        a full-circuit report assembles thousands of rows.
        """
        index = compiled.index
        gate_type_of = compiled.gate_type
        rate = self.seu_model.rate
        own_factors = self.hardening_factors
        hardening = hardening or {}
        two_factor = self.electrical_model is None
        p_latched = self.latching_model.p_latched() if two_factor else 1.0
        nodes: dict[str, NodeSER] = {}
        for site, p_sensitized, cone_size, result in rows:
            node_id = index[site]
            gate_type = gate_type_of(node_id)
            factor = own_factors.get(site, 1.0) * hardening.get(site, 1.0)
            r_seu = rate(gate_type, site) / factor
            if two_factor:
                p_observable = p_sensitized
            else:
                # p_latched stays 1.0: the latching window is folded into
                # the per-sink combination.
                p_observable = self._electrical_observability(
                    compiled, node_id, result
                )
            ser = r_seu * p_latched * p_observable
            nodes[site] = NodeSER(
                node=site,
                gate_type=gate_type.value,
                r_seu=r_seu,
                p_latched=p_latched,
                p_sensitized=p_sensitized,
                ser=ser,
                fit=per_second_to_fit(ser),
                cone_size=cone_size,
            )
        return nodes

    def _electrical_observability(
        self, compiled, node_id: int, result: EPPResult
    ) -> float:
        """Per-sink: attenuate the pulse over the traversed depth, then
        apply the latching window at flip-flop sinks (primary outputs
        observe any surviving pulse)."""
        site_level = compiled.level[node_id]
        output_set = set(compiled.output_ids)
        terms = []
        for sink_name, value in result.sink_values.items():
            sink_id = compiled.index[sink_name]
            depth = max(0, compiled.level[sink_id] - site_level)
            width = self.electrical_model.width_after(
                self.latching_model.nominal_pulse_width, depth
            )
            if width == 0.0:
                continue
            capture = 1.0 if sink_id in output_set else self.latching_model.p_latched(width)
            terms.append(value.error_probability * capture)
        return combine_sensitization(terms)

    # ------------------------------------------------------------- analysis

    def analyze(
        self,
        sites: Sequence[str] | None = None,
        sample: int | None = None,
        seed: int = 0,
        config=None,
        **knobs,
    ) -> CircuitSERReport:
        """Analyze many sites (default: every combinational gate output).

        Analysis knobs — ``backend``/``batch_size``/``jobs``/``prune``/
        ``schedule`` plus the resilience set (``retries``/
        ``shard_timeout``/``on_failure``/``deadline``/``checkpoint``) —
        are forwarded to :meth:`EPPEngine.analyze`, either individually
        or as one pre-built :class:`~repro.core.config.AnalysisConfig`
        via ``config=``: ``"scalar"`` for the per-site reference path,
        ``"vector"`` for the batched NumPy backend (the default:
        cone-clustered chunks swept on compacted union-of-cones state
        matrices with cell-compacted kernels),
        ``"sharded"`` (or just passing ``jobs=``) for the multi-process
        site-sharded driver.
        ``retries``/``shard_timeout``/``on_failure``/``deadline``
        configure the sharded driver's recovery — shard retry budget,
        per-shard and global deadlines, and whether an exhausted shard
        raises or degrades to the in-process backend
        (bit-identical either way).  ``checkpoint`` names the sharded
        sweep-journal directory (:mod:`repro.core.checkpoint`): completed
        shards survive the process and an identical re-run resumes from
        them, bit-identical.  Unknown or conflicting knobs raise
        :class:`~repro.errors.AnalysisConfigError` before any backend
        is constructed.
        """
        results = self.engine.analyze(
            sites=sites, sample=sample, seed=seed, config=config, **knobs
        )
        report = CircuitSERReport(self.circuit.name)
        report.nodes = self._assemble(
            self.compiled,
            (
                (site, result.p_sensitized, result.cone_size, result)
                for site, result in results.items()
            ),
        )
        return report

    # ------------------------------------------------- incremental what-if

    def snapshot(self, sites: Sequence[str] | None = None, **knobs):
        """A full packed analysis ready for incremental what-if edits.

        Returns a :class:`~repro.core.epp_delta.DeltaAnalysis`; feed it to
        :meth:`analyze_delta` with an
        :class:`~repro.core.epp_delta.EditSet`, and read SER numbers off
        any revision with :meth:`report_for`.  Knobs are the vector/
        sharded analysis knobs (``backend``/``jobs``/``batch_size``/...).
        """
        return self.engine.snapshot(sites=sites, **knobs)

    def analyze_delta(self, prev, edits, sites: Sequence[str] | None = None, **knobs):
        """Re-analyze after ``edits``, re-sweeping only affected sites.

        ``prev`` may be the analyzer's own :meth:`snapshot` or any later
        delta — each revision carries the engine of its own circuit, so
        this dispatches to ``prev.engine`` (not necessarily ours).
        """
        return prev.engine.analyze_delta(prev, edits, sites=sites, **knobs)

    def report_for(self, delta) -> CircuitSERReport:
        """SER report for one what-if revision.

        Assembles against the revision's own compiled circuit and applies
        the revision's accumulated hardening factors (composed with the
        analyzer's, if any) — an upsized gate's R_SEU is divided by its
        factor, exactly as :mod:`repro.ser.hardening` models it.  The
        default two-factor model reads only ``P_sensitized`` and the cone
        size, so it assembles straight from the revision's packed arrays;
        only the electrical-masking model materializes per-site results.
        """
        if self.electrical_model is None:
            rows = zip(
                delta.site_names,
                delta.p_sensitized.tolist(),
                delta.cone_sizes.tolist(),
                repeat(None),
            )
        else:
            rows = (
                (site, result.p_sensitized, result.cone_size, result)
                for site, result in delta.results().items()
            )
        report = CircuitSERReport(delta.engine.circuit.name)
        report.nodes = self._assemble(delta.engine.compiled, rows, delta.hardening)
        return report

    def release_buffers(self) -> None:
        """Reclaim the engine's vectorized-backend state matrices.

        Long-lived analyzers keep their engine (and its backends) cached
        between ``analyze()`` calls; this drops the ~3x chunk-budget
        resident set until the next bulk analysis rebuilds it lazily.
        If a sharded worker pool is live it is shut down too (its workers
        hold their own state copies) — the next sharded ``analyze()``
        respawns it, so prefer calling this between batches, not between
        every call.
        """
        self.engine.release_buffers()

    # ------------------------------------------- multi-cycle extension

    def multi_cycle_observability(self, site: str, cycles: int = 3) -> float:
        """P(error at ``site`` reaches a primary output within ``cycles``).

        Cycle 1 is the combinational propagation of the SEU itself; an error
        captured into a flip-flop (probability = EPP at its D driver times
        the latching window) becomes an error site at the flip-flop output
        in the next cycle.  Captures into distinct flip-flops are treated as
        independent, and a captured error is assumed to persist only one
        cycle — both standard first-order approximations.
        """
        if cycles < 1:
            raise AnalysisError(f"cycles must be >= 1, got {cycles}")
        memo: dict[tuple[str, int], float] = {}
        return self._observability(site, cycles, memo)

    def _observability(
        self, site: str, cycles: int, memo: dict[tuple[str, int], float]
    ) -> float:
        key = (site, cycles)
        cached = memo.get(key)
        if cached is not None:
            return cached
        memo[key] = 0.0  # cut feedback loops pessimistically during recursion

        result = self.engine.node_epp(site)
        output_set = set(self.compiled.output_ids)
        p_latch = self.latching_model.p_latched()

        direct_terms = []
        capture_terms = []
        d_driver_to_ffs: dict[int, list[str]] = {}
        for dff_id in self.compiled.dff_ids:
            driver = self.compiled.fanin(dff_id)[0]
            d_driver_to_ffs.setdefault(driver, []).append(self.compiled.names[dff_id])

        for sink_name, value in result.sink_values.items():
            sink_id = self.compiled.index[sink_name]
            if sink_id in output_set:
                direct_terms.append(value.error_probability)
            if cycles > 1:
                for ff_name in d_driver_to_ffs.get(sink_id, ()):
                    p_capture = value.error_probability * p_latch
                    if p_capture > 0.0:
                        p_onward = self._observability(ff_name, cycles - 1, memo)
                        capture_terms.append(p_capture * p_onward)

        p = combine_sensitization(direct_terms + capture_terms)
        memo[key] = p
        return p
