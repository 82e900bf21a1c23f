"""Hardening flows: selective gate hardening and TMR evaluation.

The paper's conclusion motivates EPP as the tool "to identify the most
vulnerable components to be protected by soft error hardening techniques".
This module implements the two classic responses:

* **Selective hardening** (gate upsizing, after Mohanram & Touba [3]):
  harden the top-k SER contributors.  Upsizing by factor ``s`` divides the
  node's sensitive cross section — hence its R_SEU and FIT — by ``s`` while
  leaving the logic (and therefore ``P_sensitized``) unchanged, so the
  whole cost/benefit curve falls out of a single analysis report.

* **TMR** (:func:`evaluate_tmr`): triplicate-and-vote.  Evaluated with
  *fault injection* rather than EPP, deliberately: a single-replica error
  reconverges with the two untouched replicas at the voter, and the EPP
  independence assumption cannot see that the other replicas carry the
  correct value with certainty.  The function reports both numbers, making
  it the library's canonical demonstration of where the EPP approximation
  breaks (see EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.core.analysis import CircuitSERReport, SERAnalyzer
from repro.core.baseline import RandomSimulationEstimator
from repro.core.epp import EPPEngine
from repro.netlist.circuit import Circuit
from repro.netlist.transform import triplicate

__all__ = [
    "HardeningStep",
    "HardeningCurve",
    "selective_hardening_curve",
    "WhatIfStep",
    "HardeningPlan",
    "optimize_hardening",
    "TMRComparison",
    "evaluate_tmr",
]


@dataclass(frozen=True)
class HardeningStep:
    """One point on the selective-hardening curve."""

    n_hardened: int
    hardened_nodes: tuple[str, ...]
    total_fit: float
    fit_reduction_pct: float
    area_cost: float  # sum of (strength_factor - 1) over hardened nodes


@dataclass
class HardeningCurve:
    """FIT-vs-cost curve for greedy selective hardening."""

    circuit_name: str
    strength_factor: float
    baseline_fit: float
    steps: list[HardeningStep] = field(default_factory=list)

    def nodes_for_target(self, target_reduction_pct: float) -> HardeningStep | None:
        """The cheapest step achieving a target FIT reduction.

        A target of 0% (or below) is already met by hardening nothing, so
        a synthetic zero-node step at the baseline FIT is returned — not
        the first curve step.  Unreachable targets (including 100%, which
        a finite strength factor can never reach on a circuit with any
        FIT) return ``None``; the curve is non-decreasing, so the first
        step at or past the target is the cheapest.
        """
        if target_reduction_pct <= 0.0:
            return HardeningStep(
                n_hardened=0,
                hardened_nodes=(),
                total_fit=self.baseline_fit,
                fit_reduction_pct=0.0,
                area_cost=0.0,
            )
        for step in self.steps:
            if step.fit_reduction_pct >= target_reduction_pct:
                return step
        return None


def selective_hardening_curve(
    report: CircuitSERReport,
    strength_factor: float = 10.0,
    max_nodes: int | None = None,
) -> HardeningCurve:
    """Greedy selective-hardening curve from an SER report.

    Nodes are hardened in decreasing order of SER contribution; each step
    divides the hardened node's FIT by ``strength_factor``.  Because
    upsizing does not alter the logic, no re-analysis is needed — the curve
    is exact given the report.
    """
    if strength_factor <= 1.0:
        raise ConfigError(f"strength_factor must be > 1, got {strength_factor}")
    order = report.rank_order()
    if max_nodes is not None:
        order = order[:max_nodes]
    baseline = report.total_fit
    curve = HardeningCurve(report.circuit_name, strength_factor, baseline)

    hardened: list[str] = []
    current = baseline
    fits = report.fit.tolist()
    for row in order:
        hardened.append(report.sites[row])
        current -= fits[row] * (1.0 - 1.0 / strength_factor)
        reduction = 0.0 if baseline == 0.0 else 100.0 * (baseline - current) / baseline
        curve.steps.append(
            HardeningStep(
                n_hardened=len(hardened),
                hardened_nodes=tuple(hardened),
                total_fit=current,
                fit_reduction_pct=reduction,
                area_cost=len(hardened) * (strength_factor - 1.0),
            )
        )
    return curve


@dataclass(frozen=True)
class WhatIfStep:
    """One evaluated candidate in the incremental hardening loop."""

    action: str  # "upsize" | "tmr"
    node: str
    accepted: bool
    area_cost: float  # paid only if accepted
    fit_before: float
    fit_after: float  # the candidate's total FIT, kept or discarded
    dirty_sites: int  # how many site columns the delta re-swept
    reused_sites: int


@dataclass
class HardeningPlan:
    """Result of the incremental selective-hardening optimizer."""

    circuit_name: str
    action: str
    area_budget: float
    strength_factor: float
    baseline_fit: float
    final_fit: float
    area_used: float
    steps: list[WhatIfStep] = field(default_factory=list)
    result: object = field(default=None, repr=False)  # final DeltaAnalysis

    @property
    def fit_reduction_pct(self) -> float:
        if self.baseline_fit == 0.0:
            return 0.0
        return 100.0 * (self.baseline_fit - self.final_fit) / self.baseline_fit

    def format(self) -> str:
        lines = [
            f"hardening plan for {self.circuit_name} "
            f"(action={self.action}, budget={self.area_budget:g}, "
            f"strength={self.strength_factor:g}):",
            f"  baseline {self.baseline_fit:.4e} FIT -> final "
            f"{self.final_fit:.4e} FIT ({self.fit_reduction_pct:.1f}% lower), "
            f"area used {self.area_used:g}/{self.area_budget:g}",
            f"  {'step':<5} {'action':<7} {'node':<16} {'verdict':<9} "
            f"{'FIT after':>12} {'re-swept':>9}",
        ]
        for i, step in enumerate(self.steps, start=1):
            verdict = "accepted" if step.accepted else "rejected"
            lines.append(
                f"  {i:<5} {step.action:<7} {step.node:<16} {verdict:<9} "
                f"{step.fit_after:>12.4e} "
                f"{step.dirty_sites:>4}/{step.dirty_sites + step.reused_sites}"
            )
        if not self.steps:
            lines.append("  (no candidates evaluated)")
        return "\n".join(lines)


def optimize_hardening(
    analyzer: SERAnalyzer,
    area_budget: float,
    strength_factor: float = 10.0,
    action: str = "upsize",
    max_steps: int | None = None,
    sites=None,
    **knobs,
) -> HardeningPlan:
    """Greedy selective hardening driven by incremental re-analysis.

    The interactive design loop the incremental layer exists for: rank the
    current revision's sites by SER contribution, try hardening the top
    contributor, re-analyze *only what the edit can affect*
    (``analyze_delta``), and keep the edit iff the circuit FIT strictly
    drops within the remaining area budget.  Rejected candidates stay
    rejected; accepted ones update the revision the next candidate is
    ranked against.

    ``action="upsize"`` upsizes by ``strength_factor`` (area cost
    ``strength_factor - 1`` per gate, FIT contribution divided by the
    factor).  That is a metadata-only edit: each trial revision shares
    the current one's circuit, compiled view, SP map, engine and result
    columns by reference, so a step costs one report assembly and no
    sweep, SP pass, compile or engine build.
    ``action="tmr"`` inserts local triplicate-and-vote structure (area
    cost 3.0: two replicas plus a voter) — a real structural edit that
    reuses none of that: each trial copies and recompiles the circuit,
    recomputes the SP map, builds a new engine and re-sweeps the dirty
    cones, which exercises the dirty-set machinery.  Note the documented EPP
    limitation (module docstring): EPP cannot see cross-replica masking,
    so the *estimated* FIT after local TMR usually rises (three copies'
    cross section, no credited masking) and such steps are honestly
    rejected; the accept test is what keeps the optimizer truthful to its
    own model.  Candidates are drawn from the baseline report's sites
    only, so voters/replicas created by accepted TMR steps never become
    candidates themselves.

    ``max_steps`` bounds *evaluated* candidates (accepted or not);
    remaining knobs are the snapshot's analysis knobs.
    """
    from repro.core.epp_delta import EditSet

    if not area_budget > 0.0:  # NaN included
        raise ConfigError(f"area_budget must be > 0, got {area_budget}")
    if action not in ("upsize", "tmr"):
        raise ConfigError(
            f"unknown hardening action {action!r}; choose 'upsize' or 'tmr'"
        )
    if action == "upsize" and not (
        math.isfinite(strength_factor) and strength_factor > 1.0
    ):
        raise ConfigError(
            f"strength_factor must be > 1 and finite, got {strength_factor}"
        )
    step_cost = (strength_factor - 1.0) if action == "upsize" else 3.0

    delta = analyzer.snapshot(sites=sites, **knobs)
    report = analyzer.report_for(delta)
    current_fit = report.total_fit
    candidate_pool = set(report.sites)

    plan = HardeningPlan(
        circuit_name=analyzer.circuit.name,
        action=action,
        area_budget=float(area_budget),
        strength_factor=float(strength_factor),
        baseline_fit=current_fit,
        final_fit=current_fit,
        area_used=0.0,
    )
    tried: set[str] = set()
    ranked = _ranked_live_sites(report)
    while (max_steps is None or len(plan.steps) < max_steps) and (
        plan.area_used + step_cost <= area_budget
    ):
        candidate = next(
            (site for site in ranked if site in candidate_pool and site not in tried),
            None,
        )
        if candidate is None:
            break
        tried.add(candidate)
        edits = EditSet()
        if action == "upsize":
            edits.harden(candidate, strength_factor)
        else:
            edits.tmr(candidate)
        trial = delta.apply(edits)
        trial_report = analyzer.report_for(trial)
        trial_fit = trial_report.total_fit
        accepted = trial_fit < current_fit
        plan.steps.append(
            WhatIfStep(
                action=action,
                node=candidate,
                accepted=accepted,
                area_cost=step_cost if accepted else 0.0,
                fit_before=current_fit,
                fit_after=trial_fit,
                dirty_sites=trial.stats["dirty"],
                reused_sites=trial.stats["reused"],
            )
        )
        if trial.engine is not delta.engine:
            # A structural trial runs on an engine (and worker pool) of its
            # own; free the one this step drops, unless it is the caller's.
            dropped = delta if accepted else trial
            if dropped.engine is not analyzer.engine:
                dropped.engine.release_buffers()
        if accepted:
            delta, current_fit = trial, trial_fit
            ranked = _ranked_live_sites(trial_report)
            plan.area_used += step_cost
    plan.final_fit = current_fit
    plan.result = delta
    return plan


def _ranked_live_sites(report: CircuitSERReport) -> list[str]:
    """The sites with a positive FIT, by decreasing SER, ties by name.

    ``fit > 0`` exactly when ``ser > 0``, so these rows are the head of
    the report's rank order and one ``top`` selection finds them.
    """
    live = int(np.count_nonzero(report.fit > 0.0))
    return [report.sites[row] for row in report.rank_order(live)]


@dataclass(frozen=True)
class TMRComparison:
    """Original-vs-TMR soft-error masking, by fault injection and by EPP.

    ``injection_mean_p_sens`` is averaged over the *replica copies* of the
    original gate sites; for proper TMR it collapses to (near) zero.
    ``epp_mean_p_sens_tmr`` will NOT collapse — the EPP independence
    assumption cannot represent cross-replica correlation at the voter —
    and the gap is the documented limitation of the method.
    """

    circuit_name: str
    original_mean_p_sens: float
    injection_mean_p_sens: float
    epp_mean_p_sens_tmr: float
    n_sites: int


def evaluate_tmr(
    circuit: Circuit,
    n_vectors: int = 4096,
    seed: int = 7,
    max_sites: int | None = 64,
) -> TMRComparison:
    """Quantify TMR masking on replica-interior error sites.

    Compares mean ``P_sensitized`` over the original circuit's gate sites
    against (a) fault injection and (b) EPP on the corresponding replica-0
    sites of the TMR'd circuit.
    """
    tmr = triplicate(circuit)
    sites = [g for g in circuit.gates]
    if max_sites is not None:
        sites = sites[:max_sites]
    # Use the suffixes triplicate actually chose — a circuit that already
    # contains __r0-style names makes it escalate, and guessing "__r0"
    # here would query the wrong (or a missing) node.
    replica_suffix = tmr.tmr_suffixes[0]
    tmr_sites = [f"{site}{replica_suffix}" for site in sites]

    original = RandomSimulationEstimator(circuit, n_vectors=n_vectors, seed=seed)
    originals = original.estimate(sites)

    injected = RandomSimulationEstimator(tmr, n_vectors=n_vectors, seed=seed)
    injections = injected.estimate(tmr_sites)

    epp = EPPEngine(tmr)
    epp_values = [epp.p_sensitized(site) for site in tmr_sites]

    n = len(sites)
    return TMRComparison(
        circuit_name=circuit.name,
        original_mean_p_sens=sum(originals.values()) / n,
        injection_mean_p_sens=sum(injections.values()) / n,
        epp_mean_p_sens_tmr=sum(epp_values) / n,
        n_sites=n,
    )
