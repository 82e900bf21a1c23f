"""Circuit statistics and reconvergence detection."""

from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.netlist.library import c17, figure1_circuit, parity_tree, s27
from repro.netlist.stats import circuit_stats


class TestCounts:
    def test_s27(self):
        stats = circuit_stats(s27())
        assert stats.n_inputs == 4
        assert stats.n_outputs == 1
        assert stats.n_flip_flops == 3
        assert stats.n_gates == 10
        assert stats.gate_histogram["NOR"] == 4

    def test_c17(self):
        stats = circuit_stats(c17())
        assert stats.n_gates == 6
        assert stats.gate_histogram == {"NAND": 6}
        assert stats.depth == 3
        assert stats.max_fanin == 2

    def test_format_mentions_name(self):
        assert "c17" in circuit_stats(c17()).format()


class TestReconvergence:
    def test_parity_tree_has_none(self):
        assert circuit_stats(parity_tree(8)).n_reconvergent_stems == 0

    def test_figure1_stem_at_error_site(self):
        # A fans out to E and D; the branches re-meet at H.
        assert circuit_stats(figure1_circuit()).n_reconvergent_stems >= 1

    def test_c17_is_reconvergent(self):
        # N11 feeds N16 and N19; both reach N23.
        assert circuit_stats(c17()).n_reconvergent_stems >= 1

    def test_handmade_diamond(self):
        circuit = Circuit()
        circuit.add_input("x")
        circuit.add_gate("l", GateType.NOT, ["x"])
        circuit.add_gate("r", GateType.BUF, ["x"])
        circuit.add_gate("m", GateType.AND, ["l", "r"])
        circuit.mark_output("m")
        assert circuit_stats(circuit).n_reconvergent_stems == 1

    def test_fanout_without_reconvergence(self):
        circuit = Circuit()
        circuit.add_input("x")
        circuit.add_gate("l", GateType.NOT, ["x"])
        circuit.add_gate("r", GateType.BUF, ["x"])
        circuit.mark_output("l")
        circuit.mark_output("r")
        assert circuit_stats(circuit).n_reconvergent_stems == 0

    def test_reconvergence_does_not_cross_dff(self):
        circuit = Circuit()
        circuit.add_input("x")
        circuit.add_gate("l", GateType.NOT, ["x"])
        circuit.add_dff("q", "x")
        circuit.add_gate("m", GateType.AND, ["l", "q"])
        circuit.mark_output("m")
        assert circuit_stats(circuit).n_reconvergent_stems == 0

    def test_limit_caps_scan(self):
        stats = circuit_stats(c17(), reconvergence_limit=0)
        assert stats.n_reconvergent_stems == 0  # scan skipped
