"""The EPP engine: golden values, exactness guarantees, engine behaviour."""

import pytest

from repro.core.epp import EPPEngine
from repro.errors import AnalysisError
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.netlist.library import (
    FIGURE1_SIGNAL_PROBS,
    c17,
    figure1_circuit,
    parity_tree,
    s27,
)
from repro.probability import signal_probabilities

from tests.helpers import build_chain, exhaustive_p_sensitized


class TestFigure1Golden:
    def test_published_vector_at_H(self, fig1):
        sp = signal_probabilities(fig1, input_probs={**FIGURE1_SIGNAL_PROBS, "A": 0.5})
        engine = EPPEngine(fig1, signal_probs=sp)
        result = engine.node_epp("A")
        h = result.sink_values["H"]
        assert h.pa == pytest.approx(0.042, abs=1e-12)
        assert h.pa_bar == pytest.approx(0.392, abs=1e-12)
        assert h.p0 == pytest.approx(0.168, abs=1e-12)
        assert h.p1 == pytest.approx(0.398, abs=1e-12)
        assert result.p_sensitized == pytest.approx(0.434, abs=1e-12)

    def test_cone_size_recorded(self, fig1):
        engine = EPPEngine(fig1)
        assert engine.node_epp("A").cone_size == 4


class TestExactness:
    """EPP is exact when no on-path reconvergence exists."""

    def test_parity_tree_all_sites(self):
        circuit = parity_tree(8)
        engine = EPPEngine(circuit)
        for site in circuit.gates + circuit.inputs:
            assert engine.p_sensitized(site) == pytest.approx(
                exhaustive_p_sensitized(circuit, site), abs=1e-12
            )

    def test_inverting_chain(self):
        chain = build_chain(
            [GateType.NAND, GateType.NOR, GateType.NOT, GateType.AND, GateType.XNOR]
        )
        engine = EPPEngine(chain)
        for site in ["x"] + chain.gates:
            assert engine.p_sensitized(site) == pytest.approx(
                exhaustive_p_sensitized(chain, site), abs=1e-12
            )

    def test_site_at_primary_output_is_certainly_sensitized(self, c17_circuit):
        engine = EPPEngine(c17_circuit)
        assert engine.p_sensitized("N22") == pytest.approx(1.0)

    def test_unreachable_site_is_never_sensitized(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("dead", GateType.NOT, ["b"])
        circuit.add_gate("po", GateType.BUF, ["a"])
        circuit.mark_output("po")
        engine = EPPEngine(circuit)
        assert engine.p_sensitized("dead") == 0.0


class TestReconvergencePolarity:
    def test_polarity_tracking_cancels_equal_paths(self):
        """x feeds an XOR twice through buffers: the flip always cancels."""
        circuit = Circuit()
        circuit.add_input("x")
        circuit.add_gate("b1", GateType.BUF, ["x"])
        circuit.add_gate("b2", GateType.BUF, ["x"])
        circuit.add_gate("out", GateType.XOR, ["b1", "b2"])
        circuit.mark_output("out")
        engine = EPPEngine(circuit)
        assert engine.p_sensitized("x") == pytest.approx(0.0)
        assert exhaustive_p_sensitized(circuit, "x") == 0.0

    def test_opposite_parity_reconvergence(self):
        """x and NOT(x) into XOR: output constant, flip still cancels."""
        circuit = Circuit()
        circuit.add_input("x")
        circuit.add_gate("inv", GateType.NOT, ["x"])
        circuit.add_gate("out", GateType.XOR, ["x", "inv"])
        circuit.mark_output("out")
        engine = EPPEngine(circuit)
        assert engine.p_sensitized("x") == pytest.approx(0.0)

    def test_opposite_parity_and_reconvergence(self):
        """AND(x, NOT(x)) is constant 0; a flip on x can never reach out."""
        circuit = Circuit()
        circuit.add_input("x")
        circuit.add_gate("inv", GateType.NOT, ["x"])
        circuit.add_gate("out", GateType.AND, ["x", "inv"])
        circuit.mark_output("out")
        engine = EPPEngine(circuit)
        assert engine.p_sensitized("x") == pytest.approx(0.0)
        assert exhaustive_p_sensitized(circuit, "x") == 0.0

    def test_polarity_blind_engine_gets_opposite_parity_wrong(self):
        """Without the a/ā split, AND(a, ā) wrongly propagates — the case
        the paper's polarity tracking exists to fix."""
        circuit = Circuit()
        circuit.add_input("x")
        circuit.add_gate("inv", GateType.NOT, ["x"])
        circuit.add_gate("out", GateType.AND, ["x", "inv"])
        circuit.mark_output("out")
        blind = EPPEngine(circuit, track_polarity=False)
        assert blind.p_sensitized("x") > 0.5  # wrong, and that is the point

    def test_polarity_blind_engine_is_scalar_only(self):
        """The vector and sharded kernels always track polarity, so a
        polarity-blind engine refuses them, and the packed snapshot built
        on them, with a typed error; its scalar pass is unchanged."""
        circuit = Circuit()
        circuit.add_input("x")
        circuit.add_gate("inv", GateType.NOT, ["x"])
        circuit.add_gate("out", GateType.AND, ["x", "inv"])
        circuit.mark_output("out")
        blind = EPPEngine(circuit, track_polarity=False)
        refused = (
            blind.vector_backend,
            lambda: blind.sharded_backend(jobs=2),
            blind.snapshot,
            blind.analyze,  # the default backend is vector
            lambda: blind.analyze(backend="sharded", jobs=2),
        )
        for query in refused:
            with pytest.raises(AnalysisError, match='backend="scalar"'):
                query()
        # Blind to polarity, AND(x, NOT x) passes the error for certain.
        assert blind.p_sensitized("x") == 1.0
        scalar = blind.analyze(sites=["x"], backend="scalar")
        assert scalar["x"].p_sensitized == 1.0

    def test_polarity_blind_agrees_on_trees(self):
        circuit = parity_tree(6)
        tracked = EPPEngine(circuit)
        blind = EPPEngine(circuit, track_polarity=False)
        for site in circuit.gates:
            assert blind.p_sensitized(site) == pytest.approx(
                tracked.p_sensitized(site), abs=1e-12
            )


class TestEngineBehaviour:
    def test_p_sensitized_matches_node_epp(self, c17_circuit):
        engine = EPPEngine(c17_circuit)
        for site in c17_circuit.gates:
            assert engine.p_sensitized(site) == pytest.approx(
                engine.node_epp(site).p_sensitized, abs=1e-12
            )

    def test_default_sites(self, s27_circuit):
        engine = EPPEngine(s27_circuit)
        assert set(engine.default_sites()) == set(s27_circuit.gates)

    def test_analyze_covers_default_sites(self, c17_circuit):
        engine = EPPEngine(c17_circuit)
        results = engine.analyze()
        assert set(results) == set(c17_circuit.gates)

    def test_analyze_sampling_deterministic(self, s27_circuit):
        engine = EPPEngine(s27_circuit)
        a = set(engine.analyze(sample=4, seed=11))
        b = set(engine.analyze(sample=4, seed=11))
        assert a == b
        assert len(a) == 4

    def test_incomplete_signal_probs_rejected(self, c17_circuit):
        with pytest.raises(AnalysisError, match="missing node"):
            EPPEngine(c17_circuit, signal_probs={"N1": 0.5})

    def test_out_of_range_signal_probs_rejected(self, c17_circuit):
        sp = signal_probabilities(c17_circuit)
        sp["N22"] = 1.7
        with pytest.raises(AnalysisError, match="out of"):
            EPPEngine(c17_circuit, signal_probs=sp)

    def test_unknown_site_rejected(self, c17_circuit):
        engine = EPPEngine(c17_circuit)
        with pytest.raises(AnalysisError):
            engine.p_sensitized("ghost")

    def test_scratch_state_isolated_between_sites(self, c17_circuit):
        """Interleaved queries give the same answers as fresh engines."""
        engine = EPPEngine(c17_circuit)
        interleaved = [engine.p_sensitized(s) for s in ("N10", "N11", "N10", "N16", "N11")]
        fresh = [EPPEngine(c17_circuit).p_sensitized(s) for s in ("N10", "N11", "N10", "N16", "N11")]
        assert interleaved == fresh

    def test_sequential_sites_see_ff_sinks(self, s27_circuit):
        engine = EPPEngine(s27_circuit)
        result = engine.node_epp("G12")
        # G12 reaches DFF D-drivers; sinks must include at least one of them.
        assert result.sink_values
        assert result.p_sensitized > 0.0

    def test_sp_method_passthrough(self, c17_circuit):
        engine = EPPEngine(c17_circuit, sp_method="exact")
        assert 0.0 <= engine.p_sensitized("N11") <= 1.0
