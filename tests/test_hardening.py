"""Hardening flows: selective hardening curves and TMR evaluation."""

import pytest

from repro.core.analysis import SERAnalyzer
from repro.core.epp_delta import EditSet
from repro.errors import ConfigError
from repro.netlist.generate import random_combinational
from repro.netlist.library import c17, s27
from repro.ser.hardening import (
    evaluate_tmr,
    optimize_hardening,
    selective_hardening_curve,
)


@pytest.fixture(scope="module")
def s27_report():
    return SERAnalyzer(s27()).analyze()


def accepted_nodes(plan) -> list[str]:
    """The nodes a hardening plan accepted, in step order."""
    return [step.node for step in plan.steps if step.accepted]


class TestSelectiveHardening:
    def test_fit_decreases_monotonically(self, s27_report):
        curve = selective_hardening_curve(s27_report, strength_factor=10.0)
        fits = [step.total_fit for step in curve.steps]
        assert fits == sorted(fits, reverse=True)
        assert curve.baseline_fit >= fits[0]

    def test_greedy_order_matches_ranking(self, s27_report):
        curve = selective_hardening_curve(s27_report)
        ranked = [entry.node for entry in s27_report.ranked()]
        assert list(curve.steps[2].hardened_nodes) == ranked[:3]

    def test_full_hardening_limit(self, s27_report):
        curve = selective_hardening_curve(s27_report, strength_factor=10.0)
        final = curve.steps[-1]
        assert final.total_fit == pytest.approx(curve.baseline_fit / 10.0)
        assert final.fit_reduction_pct == pytest.approx(90.0)

    def test_reduction_percentages_consistent(self, s27_report):
        curve = selective_hardening_curve(s27_report, strength_factor=4.0)
        for step in curve.steps:
            expected = 100.0 * (curve.baseline_fit - step.total_fit) / curve.baseline_fit
            assert step.fit_reduction_pct == pytest.approx(expected)

    def test_pareto_shape_front_loaded(self, s27_report):
        """Hardening the top node cuts more FIT than hardening the last one."""
        curve = selective_hardening_curve(s27_report)
        gains = [curve.baseline_fit - curve.steps[0].total_fit]
        for previous, current in zip(curve.steps, curve.steps[1:]):
            gains.append(previous.total_fit - current.total_fit)
        assert gains[0] >= gains[-1]

    def test_target_queries(self, s27_report):
        curve = selective_hardening_curve(s27_report, strength_factor=10.0)
        step = curve.nodes_for_target(50.0)
        assert step is not None
        assert step.fit_reduction_pct >= 50.0
        assert curve.nodes_for_target(99.9) is None  # 10x hardening caps at 90%

    def test_max_nodes_truncates(self, s27_report):
        curve = selective_hardening_curve(s27_report, max_nodes=2)
        assert len(curve.steps) == 2

    def test_strength_validation(self, s27_report):
        with pytest.raises(ConfigError):
            selective_hardening_curve(s27_report, strength_factor=1.0)


class TestCurveEdgeCases:
    """Target queries at the boundaries."""

    def test_target_of_zero_is_the_empty_step(self, s27_report):
        curve = selective_hardening_curve(s27_report)
        step = curve.nodes_for_target(0.0)
        assert step.n_hardened == 0
        assert step.hardened_nodes == ()
        assert step.total_fit == pytest.approx(curve.baseline_fit)
        assert curve.nodes_for_target(-5.0).n_hardened == 0

    def test_target_of_one_hundred_pct_unreachable(self, s27_report):
        curve = selective_hardening_curve(s27_report, strength_factor=10.0)
        assert curve.nodes_for_target(100.0) is None

    def test_monotone_nondecreasing_reduction(self, s27_report):
        curve = selective_hardening_curve(s27_report)
        reductions = [step.fit_reduction_pct for step in curve.steps]
        assert reductions == sorted(reductions)


class TestOptimizeHardening:
    def test_upsize_plan_reduces_fit_within_budget(self):
        analyzer = SERAnalyzer(s27())
        plan = optimize_hardening(analyzer, area_budget=30.0, strength_factor=10.0)
        assert accepted_nodes(plan)
        assert plan.final_fit < plan.baseline_fit
        assert plan.area_used <= plan.area_budget
        # Upsizing is metadata-only: no columns should have been re-swept.
        assert all(
            step.dirty_sites == 0 for step in plan.steps if step.accepted
        )
        # Greedy order: accepted nodes follow the baseline ranking.
        ranking = [entry.node for entry in analyzer.analyze().ranked()]
        accepted = accepted_nodes(plan)
        assert accepted == ranking[: len(accepted)]

    def test_tmr_steps_are_honestly_rejected_by_epp(self):
        """EPP cannot credit cross-replica masking (documented limitation),
        so local-TMR trials raise the *estimated* FIT and the optimizer
        must reject them rather than report phantom gains."""
        analyzer = SERAnalyzer(s27())
        plan = optimize_hardening(
            analyzer, area_budget=30.0, action="tmr", max_steps=3
        )
        assert plan.steps, "candidates should have been evaluated"
        assert not accepted_nodes(plan)
        assert plan.final_fit == pytest.approx(plan.baseline_fit)
        # The structural trials exercised the delta machinery for real.
        assert all(step.dirty_sites > 0 for step in plan.steps)

    def test_max_steps_bounds_evaluations(self):
        analyzer = SERAnalyzer(s27())
        plan = optimize_hardening(analyzer, area_budget=100.0, max_steps=2)
        assert len(plan.steps) == 2

    def test_budget_validation(self):
        analyzer = SERAnalyzer(s27())
        with pytest.raises(ConfigError, match="area_budget"):
            optimize_hardening(analyzer, area_budget=0.0)
        with pytest.raises(ConfigError, match="action"):
            optimize_hardening(analyzer, area_budget=5.0, action="pray")
        with pytest.raises(ConfigError, match="strength_factor"):
            optimize_hardening(analyzer, area_budget=5.0, strength_factor=1.0)
        for factor in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="finite"):
                optimize_hardening(analyzer, area_budget=5.0, strength_factor=factor)

    @pytest.mark.parametrize("make_circuit", [
        s27,
        # Large enough (n * sites >= the scalar-crossover work) that the
        # direct analyze() runs the same vector reduction as the chain's
        # packed arrays, so the comparison is exact by construction.
        lambda: random_combinational(10, 300, seed=9),
    ], ids=["s27", "random"])
    def test_upsize_chain_matches_independent_analysis(self, make_circuit):
        """The chain of metadata-only revisions agrees exactly with one
        plain analyze() that carries the accepted factors up front."""
        circuit = make_circuit()
        plan = optimize_hardening(
            SERAnalyzer(circuit), area_budget=45.0, strength_factor=10.0
        )
        factors = {node: 10.0 for node in accepted_nodes(plan)}
        assert len(factors) >= 3
        assert plan.result.hardening == factors
        direct = SERAnalyzer(circuit, hardening_factors=factors).analyze()
        assert plan.final_fit == direct.total_fit

    def test_hardening_one_node_twice_multiplies(self):
        circuit = s27()
        analyzer = SERAnalyzer(circuit)
        first = analyzer.snapshot().apply(EditSet().harden("G10", 3.0))
        second = first.apply(EditSet().harden("G10", 7.0))
        assert second.hardening == {"G10": 21.0}
        report = analyzer.report_for(second)
        direct = SERAnalyzer(circuit, hardening_factors={"G10": 21.0}).analyze()
        assert report.nodes == direct.nodes
        assert report.total_fit == direct.total_fit

    def test_plan_format_smoke(self):
        analyzer = SERAnalyzer(s27())
        plan = optimize_hardening(analyzer, area_budget=9.0)
        text = plan.format()
        assert "hardening plan for s27" in text
        assert "baseline" in text and "accepted" in text


class TestTMR:
    def test_tmr_masks_interior_faults(self):
        comparison = evaluate_tmr(c17(), n_vectors=2048, seed=3)
        # Fault injection shows (near-)total masking of single-replica SEUs.
        assert comparison.injection_mean_p_sens == pytest.approx(0.0, abs=1e-9)
        assert comparison.original_mean_p_sens > 0.3

    def test_epp_cannot_see_cross_replica_correlation(self):
        """Documented limitation: EPP treats the other replicas as
        independent off-path signals and wrongly reports vulnerability."""
        comparison = evaluate_tmr(c17(), n_vectors=1024, seed=3)
        assert comparison.epp_mean_p_sens_tmr > 0.1
        assert comparison.epp_mean_p_sens_tmr > comparison.injection_mean_p_sens

    def test_site_cap(self):
        comparison = evaluate_tmr(c17(), n_vectors=256, seed=1, max_sites=2)
        assert comparison.n_sites == 2
