"""The columnar SER report against the per-site loop it replaced.

:class:`~repro.core.analysis.CircuitSERReport` holds its rows as columns
and builds :class:`~repro.core.analysis.NodeSER` objects only for the rows
a caller reads.  Its arithmetic is the loop's, column-wise and in the same
order, so every comparison here is ``==`` (and ``to_dict`` goes through
``json.dumps``, which also pins the sign of zero and every digit).  The
reference is the loop itself, kept in ``tests/helpers.py``.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.analysis import CircuitSERReport, SERAnalyzer
from repro.core.epp_delta import EditSet
from repro.errors import AnalysisError, ConfigError
from repro.experiments.reporting import rows_to_csv
from repro.netlist.generate import generate_iscas, random_combinational
from repro.netlist.library import c17, s27
from repro.ser.seu_rate import SEURateModel
from tests.helpers import reference_analyze, reference_report_for

CIRCUITS = {
    "c17": c17,
    "s27": s27,
    "s953": lambda: generate_iscas("s953"),
    "random-a": lambda: random_combinational(10, 120, seed=3),
    "random-b": lambda: random_combinational(16, 400, seed=8),
}


def tie_cuts(report) -> list[int]:
    """``top`` counts that cut inside a block of equal SER: the first
    three such cuts, and the first and last inside the all-zero block."""
    ser = sorted(report.ser.tolist(), reverse=True)
    cuts = [i for i in range(1, len(ser)) if ser[i] == ser[i - 1]]
    zero = [i for i in cuts if ser[i] == 0.0]
    return sorted(set(cuts[:3] + zero[:1] + zero[-1:]))


def assert_same(report, reference) -> None:
    """Every read of the report equals the per-site reference's."""
    assert report.circuit_name == reference.circuit_name
    assert report.nodes == reference.nodes
    assert list(report.nodes) == list(reference.nodes)
    assert report.sites == list(reference.nodes)
    assert report.total_fit == reference.total_fit
    n = len(reference.nodes)
    for top in [None, -1, 0, 1, 3, 10, n, n + 5, *tie_cuts(report)]:
        assert report.ranked(top) == reference.ranked(top), top
        assert list(report.ranked_records(top)) == [
            dataclasses.astuple(entry) for entry in reference.ranked(top)
        ], top
        assert json.dumps(report.to_dict(top)) == json.dumps(
            reference.to_dict(top)
        ), top
    for top in [0, 1, 3, 10, n + 5]:
        assert report.format_table(top) == reference.format_table(top)
    # ``repro analyze --csv`` writes the records; the bytes are those of
    # the NodeSER rows the per-site loop built.
    assert rows_to_csv(
        report.ranked_records(), header=report.RECORD_FIELDS
    ) == rows_to_csv(reference.ranked())
    for node in reference.nodes:
        assert report.contribution(node) == reference.contribution(node)
    if reference.total_fit == 0.0:
        assert report.contribution("no-such-site") == 0.0
    else:
        with pytest.raises(AnalysisError, match="not in this report"):
            report.contribution("no-such-site")


def hardening_chain(delta, *, structural: bool = True):
    """A what-if chain: three upsizes (one site twice), optionally a gate
    swap that rebuilds the revision, then one more upsize."""
    sites = delta.site_names
    delta = delta.apply(EditSet().harden(sites[1], 10.0))
    delta = delta.apply(EditSet().harden(sites[-1], 3.0))
    delta = delta.apply(EditSet().harden(sites[1], 2.0))
    if structural:
        delta = delta.apply(EditSet().replace_gate(sites[2], "xor"))
    return delta.apply(EditSet().harden(delta.site_names[0], 7.0))


@pytest.fixture(params=list(CIRCUITS), scope="module")
def circuit(request):
    return CIRCUITS[request.param]()


class TestAgainstPerSiteLoop:
    def test_analyze(self, circuit):
        analyzer = SERAnalyzer(circuit)
        reference = reference_analyze(analyzer, analyzer.engine.analyze())
        assert_same(analyzer.analyze(), reference)

    def test_report_for_with_analyzer_and_delta_hardening(self, circuit):
        sites = SERAnalyzer(circuit).engine.default_sites()
        factors = {
            sites[0]: 4.0,
            sites[3]: 2.5,
            circuit.inputs[0]: 6.0,  # not a site: ignored
        }
        analyzer = SERAnalyzer(circuit, hardening_factors=factors)
        delta = hardening_chain(analyzer.snapshot())
        assert_same(analyzer.report_for(delta), reference_report_for(analyzer, delta))
        reference = reference_analyze(analyzer, analyzer.engine.analyze())
        assert_same(analyzer.analyze(), reference)

    def test_drive_strength_composes_with_hardening(self, circuit):
        sites = SERAnalyzer(circuit).engine.default_sites()
        seu = SEURateModel(
            drive_strength={sites[0]: 3.0, sites[1]: 8.0, circuit.inputs[0]: 2.0}
        )
        analyzer = SERAnalyzer(
            circuit, seu_model=seu, hardening_factors={sites[0]: 1.7}
        )
        delta = hardening_chain(analyzer.snapshot(), structural=False)
        assert_same(analyzer.report_for(delta), reference_report_for(analyzer, delta))
        reference = reference_analyze(analyzer, analyzer.engine.analyze())
        assert_same(analyzer.analyze(), reference)

    def test_repeated_sites_collapse_at_first_position(self, circuit):
        analyzer = SERAnalyzer(circuit)
        a, b, c = analyzer.engine.default_sites()[:3]
        delta = analyzer.snapshot(sites=[a, b, c, a, b])
        report = analyzer.report_for(delta)
        assert report.sites == [a, b, c]
        assert_same(report, reference_report_for(analyzer, delta))
        hardened = delta.apply(EditSet().harden(b, 10.0))
        assert_same(
            analyzer.report_for(hardened), reference_report_for(analyzer, hardened)
        )

    def test_empty_site_list(self, circuit):
        analyzer = SERAnalyzer(circuit)
        delta = analyzer.snapshot(sites=[])
        report = analyzer.report_for(delta)
        assert report.sites == [] and report.total_fit == 0.0
        assert_same(report, reference_report_for(analyzer, delta))
        reference = reference_analyze(analyzer, analyzer.engine.analyze(sites=[]))
        assert_same(analyzer.analyze(sites=[]), reference)


class TestColumns:
    def test_columns_are_read_only_views(self):
        analyzer = SERAnalyzer(s27())
        delta = analyzer.snapshot()
        report = analyzer.report_for(delta)
        for column in (report.r_seu, report.p_sensitized, report.ser,
                       report.fit, report.cone_sizes):
            with pytest.raises(ValueError):
                column[0] = 0.0
        # The report's views leave their caller's arrays writable; the
        # snapshot's arrays are read-only because report_for memoized
        # the report rows on their generation.
        p, cones = np.array([0.5]), np.array([1])
        CircuitSERReport("x", ["a"], ["AND"], p, 0.1, p, p, p, cones)
        assert p.flags.writeable and cones.flags.writeable
        assert not delta.p_sensitized.flags.writeable

    def test_nodes_is_a_read_only_mapping(self):
        report = SERAnalyzer(c17()).analyze()
        with pytest.raises(TypeError):
            report.nodes["N10"] = None
        assert report.nodes is report.nodes  # built once

    def test_missing_type_weight_still_raises(self):
        weights = dict(SEURateModel().type_weights)
        del weights["NOR"]
        analyzer = SERAnalyzer(s27(), seu_model=SEURateModel(type_weights=weights))
        with pytest.raises(ConfigError, match="no type weight for gate type NOR"):
            analyzer.analyze()

    def test_nan_weight_set_after_construction_cannot_reach_the_json(
        self, monkeypatch
    ):
        seu = SEURateModel()
        with pytest.raises(TypeError):
            seu.type_weights["NAND"] = float("nan")  # past __post_init__
        # The FIT conversion's NaN guard stays: forge a NaN P_sensitized,
        # which the engine cannot produce, to reach it.
        analyzer = SERAnalyzer(c17(), seu_model=seu)
        delta = analyzer.snapshot()
        forged = delta.p_sensitized.copy()
        forged[3] = float("nan")
        monkeypatch.setattr(
            type(delta), "p_sensitized", property(lambda self: forged)
        )
        with pytest.raises(ConfigError, match="rate must be >= 0, got nan"):
            analyzer.report_for(delta)

    def test_negative_rate_names_the_loops_first_offender(self, monkeypatch):
        analyzer = SERAnalyzer(c17())
        delta = analyzer.snapshot()
        # A negative P_sensitized cannot come out of the engine; forge two
        # to reach the FIT conversion's sign check.
        forged = delta.p_sensitized.copy()
        forged[2] = -0.5
        forged[4] = -0.25
        monkeypatch.setattr(
            type(delta), "p_sensitized", property(lambda self: forged)
        )
        with pytest.raises(ConfigError, match="rate must be >= 0") as columnar:
            analyzer.report_for(delta)
        with pytest.raises(ConfigError) as looped:
            reference_report_for(analyzer, delta)
        assert str(columnar.value) == str(looped.value)


def reference_curve(report, strength_factor, max_nodes=None):
    """``selective_hardening_curve``'s loop over ``ranked()``, as it was."""
    ranked = report.ranked()
    if max_nodes is not None:
        ranked = ranked[:max_nodes]
    baseline = report.total_fit
    current = baseline
    steps = []
    for entry in ranked:
        current -= entry.fit * (1.0 - 1.0 / strength_factor)
        steps.append((entry.node, current))
    return baseline, steps


def reference_plan(analyzer, area_budget, action, max_steps):
    """``optimize_hardening``'s greedy loop over full ``ranked()`` lists,
    as it was: (candidate, accepted, fit before, fit after) per step."""
    strength_factor = 10.0
    step_cost = (strength_factor - 1.0) if action == "upsize" else 3.0
    delta = analyzer.snapshot()
    report = reference_report_for(analyzer, delta)
    pool = set(report.nodes)
    tried, steps, used = set(), [], 0.0
    while (max_steps is None or len(steps) < max_steps) and (
        used + step_cost <= area_budget
    ):
        candidate = next(
            (
                entry.node
                for entry in report.ranked()
                if entry.node in pool and entry.node not in tried and entry.fit > 0.0
            ),
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
        trial_report = reference_report_for(analyzer, trial)
        accepted = trial_report.total_fit < report.total_fit
        steps.append((candidate, accepted, report.total_fit, trial_report.total_fit))
        if accepted:
            delta, report = trial, trial_report
            used += step_cost
    return report.total_fit, steps


class TestHardeningFlows:
    @pytest.mark.parametrize("max_nodes", [None, 0, 5, -3])
    def test_curve_matches_the_loop(self, circuit, max_nodes):
        from repro.ser.hardening import selective_hardening_curve

        analyzer = SERAnalyzer(circuit)
        results = analyzer.engine.analyze()
        curve = selective_hardening_curve(
            analyzer.analyze(), strength_factor=4.0, max_nodes=max_nodes
        )
        baseline, steps = reference_curve(
            reference_analyze(analyzer, results), 4.0, max_nodes
        )
        assert curve.baseline_fit == baseline
        assert [(s.hardened_nodes[-1], s.total_fit) for s in curve.steps] == steps

    # A TMR step is a structural rebuild (and is always rejected), so its
    # walk is bounded by max_steps.
    @pytest.mark.parametrize("action, budget, max_steps", [
        ("upsize", 45.0, None), ("tmr", 9.0, 4),
    ])
    def test_plan_matches_the_loop(self, circuit, action, budget, max_steps):
        from repro.ser.hardening import optimize_hardening

        analyzer = SERAnalyzer(circuit)
        plan = optimize_hardening(
            analyzer, area_budget=budget, action=action, max_steps=max_steps
        )
        final_fit, steps = reference_plan(analyzer, budget, action, max_steps)
        assert plan.final_fit == final_fit
        assert [
            (s.node, s.accepted, s.fit_before, s.fit_after) for s in plan.steps
        ] == steps
