"""End-to-end SER analysis: ``SER(n_i) = R_SEU x P_latched x P_sensitized``.

:class:`SERAnalyzer` combines the EPP engine's ``P_sensitized`` with the
parametric :class:`~repro.ser.seu_rate.SEURateModel` and
:class:`~repro.ser.latching.LatchingModel` exactly as the paper factors the
error rate, producing per-node and circuit-level FIT together with the
vulnerability ranking the paper motivates ("identify the most vulnerable
components to be protected").

One extension goes beyond the paper's two-factor derating:
**multi-cycle observability** — an error captured into a flip-flop is
re-injected as an error site in the next cycle; a bounded-depth fixpoint
estimates the probability it eventually reaches a primary output.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from itertools import repeat, starmap
from types import MappingProxyType

import numpy as np

from repro.errors import AnalysisError
from repro.core.epp import EPPEngine
from repro.core.sensitization import combine_sensitization
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import CODE_TO_TYPE
from repro.ser.fit import rates_to_fit, sum_fit
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


class CircuitSERReport:
    """Per-node and aggregate SER of one analysis run, held as columns.

    Row ``i`` is site ``sites[i]``.  ``gate_types`` is a list of gate-type
    names; ``r_seu``, ``p_sensitized``, ``ser`` and ``fit`` are read-only
    float64 arrays and ``cone_sizes`` a read-only integer array;
    ``p_latched`` is one scalar shared by every row.  ``total_fit`` is
    summed once, here.  :class:`NodeSER` rows are built only for the rows
    a caller reads — :meth:`ranked`, :meth:`to_dict`, :meth:`format_table`
    — and :attr:`nodes` builds the full mapping on first access;
    :meth:`ranked_records` hands a writer the same values as plain tuples.
    """

    #: The fields of :meth:`ranked_records`' tuples: NodeSER's, in order.
    RECORD_FIELDS = tuple(field.name for field in fields(NodeSER))

    def __init__(
        self,
        circuit_name: str,
        sites: list[str],
        gate_types: list[str],
        r_seu: np.ndarray,
        p_latched: float,
        p_sensitized: np.ndarray,
        ser: np.ndarray,
        fit: np.ndarray,
        cone_sizes: np.ndarray,
    ):
        self.circuit_name = circuit_name
        self.sites = sites
        self.gate_types = gate_types
        self.r_seu = _read_only(r_seu)
        self.p_latched = p_latched
        self.p_sensitized = _read_only(p_sensitized)
        self.ser = _read_only(ser)
        self.fit = _read_only(fit)
        self.cone_sizes = _read_only(cone_sizes)
        self.total_fit = sum_fit(self.fit)
        self._rows: dict[str, int] | None = None  # built on first lookup
        self._nodes: Mapping[str, NodeSER] | None = None

    def __repr__(self) -> str:
        return (
            f"CircuitSERReport({self.circuit_name!r}: {len(self.sites)} sites, "
            f"total_fit={self.total_fit!r})"
        )

    @property
    def nodes(self) -> Mapping[str, NodeSER]:
        """Every row as a read-only ``{site: NodeSER}`` mapping, in site
        order, built on first access (for callers that want every entry)."""
        if self._nodes is None:
            entries = self._entries(range(len(self.sites)))
            self._nodes = MappingProxyType({entry.node: entry for entry in entries})
        return self._nodes

    def _entries(self, rows) -> list[NodeSER]:
        """:class:`NodeSER` objects for ``rows``, in that order."""
        return list(starmap(NodeSER, self._records(rows)))

    def _records(self, rows) -> Iterator[tuple]:
        """``rows``' values as tuples in :attr:`RECORD_FIELDS` order."""
        rows = np.fromiter(rows, dtype=np.intp)
        order = rows.tolist()
        sites, gate_types = self.sites, self.gate_types
        return zip(
            [sites[row] for row in order],
            [gate_types[row] for row in order],
            self.r_seu[rows].tolist(),
            repeat(self.p_latched, len(order)),
            self.p_sensitized[rows].tolist(),
            self.ser[rows].tolist(),
            self.fit[rows].tolist(),
            self.cone_sizes[rows].tolist(),
        )

    def rank_order(self, top: int | None = None) -> list[int]:
        """Row indices by decreasing SER, ties by site name.

        The ``(-ser, node)`` order of :meth:`ranked`, with
        ``heapq.nsmallest``'s edge cases: ``top <= 0`` gives ``[]`` and a
        ``top`` past the row count gives every row.  A ``top`` count
        partitions the SER column instead of sorting it; only the rows
        tied with the cut are compared by name.
        """
        key = -self.ser
        sites = self.sites
        if top is None or top >= len(sites):
            by_name = np.array(
                sorted(range(len(sites)), key=sites.__getitem__), dtype=np.intp
            )
            return by_name[np.argsort(key[by_name], kind="stable")].tolist()
        if top <= 0:
            return []
        cut = np.partition(key, top - 1)[top - 1]
        chosen = np.flatnonzero(key < cut).tolist()
        tied = np.flatnonzero(key == cut).tolist()
        chosen += heapq.nsmallest(top - len(chosen), tied, key=sites.__getitem__)
        chosen.sort(key=lambda row: (key[row], sites[row]))
        return chosen

    def ranked(self, top: int | None = None) -> list[NodeSER]:
        """Nodes by decreasing SER contribution (the vulnerability ranking).

        Ties order by node name; ``top`` keeps the first ``top`` rows (see
        :meth:`rank_order`).
        """
        return self._entries(self.rank_order(top))

    def ranked_records(self, top: int | None = None) -> Iterator[tuple]:
        """:meth:`ranked`'s rows as plain tuples in :attr:`RECORD_FIELDS`
        order, without building a :class:`NodeSER` per row — what
        ``repro analyze --csv`` writes."""
        return self._records(self.rank_order(top))

    def contribution(self, node: str) -> float:
        """Fraction of the circuit SER contributed by one node."""
        total = self.total_fit
        if total == 0.0:
            return 0.0
        if self._rows is None:
            self._rows = dict(zip(self.sites, range(len(self.sites))))
        try:
            row = self._rows[node]
        except KeyError:
            raise AnalysisError(f"node {node!r} not in this report") from None
        return float(self.fit[row]) / total

    def format_table(self, top: int = 10) -> str:
        lines = [
            f"SER report for {self.circuit_name}: "
            f"{len(self.sites)} sites, total {self.total_fit:.4e} FIT",
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
            "sites": len(self.sites),
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


def _read_only(column: np.ndarray) -> np.ndarray:
    """A read-only view: the report's columns never change after
    ``total_fit`` is summed, and the caller's array keeps its flags."""
    view = column.view()
    view.flags.writeable = False
    return view


class SiteRows:
    """The rows of a report, as far as the site list and the compiled
    view alone determine them: site order, gate codes and type names.
    No SER model value enters, so one instance serves every
    report of a packed generation (:meth:`SERAnalyzer.report_for`).

    ``columns`` maps each site to its column of ``p_sensitized`` and
    ``cone_sizes``, which hold ``n_columns`` entries.  It is a dict built
    from the site list, so a repeated site is one row, at its first
    position, holding its last column (what assigning into a dict per
    site did); ``take`` then gathers the columns into row order.  Every
    attribute is shared: read it, never change it.
    """

    __slots__ = ("sites", "row_of", "take", "codes", "first_codes", "type_names")

    def __init__(self, compiled, columns: Mapping[str, int], n_columns: int):
        sites = list(columns)
        n = len(sites)
        self.take = None
        if n != n_columns:
            self.take = np.fromiter(columns.values(), dtype=np.intp, count=n)
            columns = dict(zip(sites, range(n)))
        self.sites = sites
        self.row_of = columns
        index, code_of = compiled.index, compiled.code
        codes = [code_of[index[site]] for site in sites]
        # Distinct codes in first-row order: the per-call weight lookup
        # then raises for the type the per-site loop hit first.
        self.first_codes = tuple(dict.fromkeys(codes))
        self.codes = np.array(codes, dtype=np.intp)
        name_of_code = {code: CODE_TO_TYPE[code].value for code in self.first_codes}
        self.type_names = [name_of_code[code] for code in codes]


class SERAnalyzer:
    """Full-circuit SER analysis on top of an :class:`EPPEngine`.

    Parameters mirror the paper's factorization; every model is replaceable.
    """

    def __init__(
        self,
        circuit: Circuit,
        seu_model: SEURateModel | None = None,
        latching_model: LatchingModel | None = None,
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
        factors = dict(hardening_factors or {})
        for node, factor in factors.items():
            if not math.isfinite(factor) or factor <= 0.0:
                raise AnalysisError(
                    f"hardening factor for {node!r} must be positive "
                    f"and finite, got {factor}"
                )
        # Read-only once validated: a factor changed afterwards would skip
        # the check above.
        self.hardening_factors: Mapping[str, float] = MappingProxyType(factors)

    # ------------------------------------------------------------- assembly

    def _assemble(
        self,
        circuit_name: str,
        rows: SiteRows,
        p_sensitized: np.ndarray,
        cone_sizes: np.ndarray,
        hardening: Mapping[str, float] | None = None,
    ) -> CircuitSERReport:
        """The report of ``rows`` over the ``p_sensitized`` and
        ``cone_sizes`` columns: every model value, read now.

        ``hardening`` holds a what-if revision's factors
        (:meth:`report_for`), composed with the analyzer's own.

        The arithmetic is the per-site formula's, column-wise and in the
        same order: ``r_seu = flux * cross_section * weight``, then
        ``/ drive_strength``, then ``/ (own * revision hardening)`` —
        dividing by 1.0 is exact, so only the sites those maps name are
        divided — then ``ser = r_seu * p_latched * p`` and ``fit``.
        """
        if rows.take is not None:
            p_sensitized, cone_sizes = p_sensitized[rows.take], cone_sizes[rows.take]
        # Gate codes, not GateType members, key the weight table: an enum
        # hashes in Python, an int in C.
        seu = self.seu_model
        weight_of_code = np.zeros(len(CODE_TO_TYPE), dtype=np.float64)
        for code in rows.first_codes:
            weight_of_code[code] = seu.type_weight(CODE_TO_TYPE[code])
        r_seu = (seu.flux * seu.base_cross_section_cm2) * weight_of_code[rows.codes]
        row_of = rows.row_of
        for site, strength in seu.drive_strength.items():
            row = row_of.get(site)
            if row is not None:
                r_seu[row] /= strength
        own_factors = self.hardening_factors
        hardening = hardening or {}
        for site in own_factors.keys() | hardening.keys():
            row = row_of.get(site)
            if row is not None:
                r_seu[row] /= own_factors.get(site, 1.0) * hardening.get(site, 1.0)
        p_latched = self.latching_model.p_latched()
        ser = r_seu * p_latched * p_sensitized
        return CircuitSERReport(
            circuit_name,
            list(rows.sites),
            list(rows.type_names),
            r_seu,
            p_latched,
            p_sensitized,
            ser,
            rates_to_fit(ser),
            cone_sizes,
        )

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

        Analysis knobs — ``backend``/``batch_size``/``jobs`` plus the
        resilience set (``retries``/``shard_timeout``/
        ``deadline``/``checkpoint``) — are forwarded to
        :meth:`EPPEngine.analyze`, either individually
        or as one pre-built :class:`~repro.core.config.AnalysisConfig`
        via ``config=``: ``"scalar"`` for the per-site reference path,
        ``"vector"`` for the batched NumPy backend (the default:
        cone-clustered chunks swept on compacted union-of-cones state
        matrices with cell-compacted kernels, on every circuit size, so
        the report's ``p_sensitized`` and ``cone_sizes`` equal
        :meth:`snapshot`'s packed columns bit for bit),
        ``"sharded"`` (or just passing ``jobs=``) for the multi-process
        site-sharded driver.
        ``retries``/``shard_timeout``/``deadline`` configure the sharded
        driver's recovery — shard retry budget and per-shard and global
        deadlines; once one is spent the call raises a typed
        :class:`~repro.errors.ResilienceError`, and rerunning without
        ``jobs`` gives the same numbers in-process.  ``checkpoint`` names
        the sharded sweep-journal directory
        (:mod:`repro.core.checkpoint`): completed
        shards survive the process and an identical re-run resumes from
        them, bit-identical.  Unknown or conflicting knobs raise
        :class:`~repro.errors.AnalysisConfigError` before any backend
        is constructed.

        The engine's column query (:meth:`EPPEngine.analyze_columns`)
        selects the sites :meth:`EPPEngine.analyze` would and returns
        only the two columns the report reads: no per-site result and,
        on the vector and sharded backends, no (site, sink) pair.
        """
        site_names, p_sensitized, cone_sizes = self.engine.analyze_columns(
            sites=sites, sample=sample, seed=seed, config=config, **knobs
        )
        # The rows are built for this call only: a column query has no
        # generation to memoize them on.
        n = len(site_names)
        rows = SiteRows(self.compiled, dict(zip(site_names, range(n))), n)
        return self._assemble(self.circuit.name, rows, p_sensitized, cone_sizes)

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
        size, so the report's columns are computed straight from the
        revision's packed arrays, and its :class:`SiteRows` are built once
        per packed generation (``delta.generation``) and shared by every
        revision and analyzer that reports on it.
        """
        compiled = delta.engine.compiled
        p_sensitized = delta.p_sensitized
        rows = delta.generation.memo(
            "report_rows",
            lambda: SiteRows(
                compiled,
                dict(zip(delta.site_names, range(len(p_sensitized)))),
                len(p_sensitized),
            ),
        )
        return self._assemble(
            delta.engine.circuit.name, rows, p_sensitized, delta.cone_sizes,
            delta.hardening,
        )

    def release_buffers(self) -> None:
        """Reclaim the engine's vectorized-backend state matrices.

        Long-lived analyzers keep their engine (and its backends) cached
        between ``analyze()`` calls; this drops the vector backend's state
        until the next bulk analysis rebuilds it lazily: the sweep arena
        sized to the largest chunk's live slots (~58 MiB on a default
        s9234 ``analyze``; a ``snapshot``'s pipeline holds a second one)
        and the cached chunk plans.
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
