"""Full SER analysis: factor combination, ranking, extensions."""

import pytest

from repro.core.analysis import SERAnalyzer
from repro.errors import AnalysisError
from repro.netlist.library import c17, s27
from repro.ser.seu_rate import SEURateModel


class TestFactorization:
    def test_node_ser_is_the_product(self, s27_circuit):
        entry = SERAnalyzer(s27_circuit).analyze(sites=["G9"]).nodes["G9"]
        assert entry.ser == pytest.approx(
            entry.r_seu * entry.p_latched * entry.p_sensitized
        )
        assert entry.fit == pytest.approx(entry.ser * 3600e9)

    def test_report_covers_default_sites(self, s27_circuit):
        report = SERAnalyzer(s27_circuit).analyze()
        assert set(report.nodes) == set(s27_circuit.gates)

    def test_total_fit_adds_up(self, s27_circuit):
        report = SERAnalyzer(s27_circuit).analyze()
        assert report.total_fit == pytest.approx(
            sum(entry.fit for entry in report.nodes.values())
        )

    @pytest.mark.parametrize("factor", [0.0, -2.0, float("nan"), float("inf")])
    def test_hardening_factors_must_be_positive_and_finite(self, c17_circuit, factor):
        with pytest.raises(AnalysisError, match="positive and finite"):
            SERAnalyzer(c17_circuit, hardening_factors={"N10": factor})

    def test_hardening_factors_are_read_only_after_validation(self, c17_circuit):
        factors = {"N10": 2.0}
        analyzer = SERAnalyzer(c17_circuit, hardening_factors=factors)
        with pytest.raises(TypeError):
            analyzer.hardening_factors["N10"] = float("inf")
        factors["N10"] = float("inf")  # the caller's dict was copied
        assert analyzer.hardening_factors == {"N10": 2.0}

    def test_custom_models_scale_linearly(self, c17_circuit):
        base = SERAnalyzer(c17_circuit).analyze()
        doubled_flux = SERAnalyzer(
            c17_circuit, seu_model=SEURateModel(flux=2 * SEURateModel().flux)
        ).analyze()
        assert doubled_flux.total_fit == pytest.approx(2 * base.total_fit)


class TestRanking:
    def test_ranked_is_descending(self, s27_circuit):
        ranked = SERAnalyzer(s27_circuit).analyze().ranked()
        sers = [entry.ser for entry in ranked]
        assert sers == sorted(sers, reverse=True)

    def test_top_parameter(self, s27_circuit):
        assert len(SERAnalyzer(s27_circuit).analyze().ranked(top=3)) == 3

    def test_contribution_sums_to_one(self, s27_circuit):
        report = SERAnalyzer(s27_circuit).analyze()
        total = sum(report.contribution(node) for node in report.nodes)
        assert total == pytest.approx(1.0)

    def test_contribution_unknown_node(self, s27_circuit):
        with pytest.raises(AnalysisError):
            SERAnalyzer(s27_circuit).analyze().contribution("ghost")

    def test_format_table(self, s27_circuit):
        text = SERAnalyzer(s27_circuit).analyze().format_table(top=4)
        assert "FIT" in text and "s27" in text


class TestMultiCycle:
    def test_monotone_in_cycles(self, s27_circuit):
        analyzer = SERAnalyzer(s27_circuit)
        values = [
            analyzer.multi_cycle_observability("G12", cycles=c) for c in (1, 2, 3, 4)
        ]
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1e-12
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_one_cycle_counts_only_direct_pos(self, s27_circuit):
        analyzer = SERAnalyzer(s27_circuit)
        engine_result = analyzer.engine.node_epp("G10")
        # G10 reaches no PO directly (only DFF G5), so 1-cycle observability is 0.
        one_cycle = analyzer.multi_cycle_observability("G10", cycles=1)
        assert one_cycle == pytest.approx(0.0)
        assert engine_result.p_sensitized == pytest.approx(1.0)  # captured by FF

    def test_multi_cycle_reaches_po_through_state(self, s27_circuit):
        analyzer = SERAnalyzer(s27_circuit)
        assert analyzer.multi_cycle_observability("G10", cycles=3) > 0.0

    def test_invalid_cycles(self, s27_circuit):
        with pytest.raises(AnalysisError):
            SERAnalyzer(s27_circuit).multi_cycle_observability("G10", cycles=0)
