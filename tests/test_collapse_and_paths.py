"""SEU-site collapsing and dominant-path extraction."""

import threading

import pytest

from repro.core.collapse import collapse_seu_sites
from repro.core.epp import EPPEngine
from repro.errors import AnalysisError
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.netlist.generate import random_combinational
from repro.netlist.library import FIGURE1_SIGNAL_PROBS, figure1_circuit, s27

from tests.helpers import exhaustive_p_sensitized


def chain_circuit():
    """a -> inv1 -> buf1 -> inv2 -> PO, plus a side branch breaking one link."""
    circuit = Circuit("chains")
    circuit.add_input("a")
    circuit.add_gate("inv1", GateType.NOT, ["a"])
    circuit.add_gate("buf1", GateType.BUF, ["inv1"])
    circuit.add_gate("inv2", GateType.NOT, ["buf1"])
    circuit.add_input("b")
    circuit.add_gate("mix", GateType.AND, ["inv2", "b"])
    circuit.mark_output("mix")
    return circuit


class TestCollapse:
    def test_chain_collapses_to_one_class(self):
        equivalence = collapse_seu_sites(chain_circuit())
        chain_classes = [c for c in equivalence.classes if "inv1" in c]
        assert chain_classes == [["a", "inv1", "buf1", "inv2"]]
        assert equivalence.representative["a"] == "inv2"

    def test_fanout_breaks_the_chain(self):
        circuit = chain_circuit()
        # give inv1 a second fanout: no longer collapsible into buf1
        circuit.add_gate("tap", GateType.AND, ["inv1", "b"])
        circuit.mark_output("tap")
        equivalence = collapse_seu_sites(circuit)
        assert equivalence.representative["inv1"] == "inv1"

    def test_observable_driver_not_collapsed(self):
        circuit = Circuit("po_chain")
        circuit.add_input("a")
        circuit.add_gate("mid", GateType.NOT, ["a"])
        circuit.add_gate("out", GateType.BUF, ["mid"])
        circuit.mark_output("mid")  # mid is itself observable
        circuit.mark_output("out")
        equivalence = collapse_seu_sites(circuit)
        assert equivalence.representative["mid"] == "mid"

    def test_dff_driver_not_collapsed(self):
        circuit = Circuit("ff_chain")
        circuit.add_input("a")
        circuit.add_gate("g", GateType.NOT, ["a"])
        circuit.add_gate("h", GateType.BUF, ["g"])  # g also feeds a DFF
        circuit.add_dff("q", "g")
        circuit.add_gate("po", GateType.AND, ["h", "q"])
        circuit.mark_output("po")
        equivalence = collapse_seu_sites(circuit)
        assert equivalence.representative["g"] == "g"

    @pytest.mark.parametrize("seed", range(4))
    def test_collapsed_sites_share_exact_p_sensitized(self, seed):
        circuit = random_combinational(6, 40, seed=400 + seed)
        equivalence = collapse_seu_sites(circuit)
        for members in equivalence.classes:
            truths = {exhaustive_p_sensitized(circuit, m) for m in members}
            assert len(truths) == 1, members

    def test_collapsed_analyze_matches_plain_analyze(self):
        circuit = s27()
        engine = EPPEngine(circuit)
        plain = engine.analyze()
        collapsed = engine.analyze(collapse=True)
        assert set(plain) == set(collapsed)
        for site in plain:
            assert collapsed[site].p_sensitized == pytest.approx(
                plain[site].p_sensitized, abs=1e-12
            )

    def test_savings_counted(self):
        equivalence = collapse_seu_sites(chain_circuit())
        assert equivalence.n_saved_analyses >= 3

    def test_collapsed_members_own_their_sink_values(self):
        """Regression: collapsed members used to share one sink_values dict
        with their representative, so mutating one result corrupted every
        sibling in the equivalence class."""
        engine = EPPEngine(chain_circuit())
        results = engine.analyze(collapse=True)
        assert results["buf1"].sink_values  # chain reaches the PO
        assert results["buf1"].sink_values is not results["inv1"].sink_values
        results["buf1"].sink_values.clear()
        assert results["inv1"].sink_values, "sibling result was corrupted"

    def test_members_of(self):
        equivalence = collapse_seu_sites(chain_circuit())
        assert equivalence.members_of("buf1") == ["a", "inv1", "buf1", "inv2"]
        assert equivalence.members_of("mix") == ["mix"]


class TestDominantPath:
    def test_figure1_prefers_the_strong_branch(self):
        circuit = figure1_circuit()
        from repro.probability import signal_probabilities

        sp = signal_probabilities(
            circuit, input_probs={**FIGURE1_SIGNAL_PROBS, "A": 0.5}
        )
        engine = EPPEngine(circuit, signal_probs=sp)
        path = engine.dominant_path("A")
        names = [name for name, _ in path]
        # E->G carries 0.7 error probability vs D's 0.2: the dominant route.
        assert names == ["A", "E", "G", "H"]
        assert path[0][1] == pytest.approx(1.0)

    def test_explicit_sink_selection(self):
        circuit = figure1_circuit()
        engine = EPPEngine(circuit)
        path = engine.dominant_path("A", sink="H")
        assert path[-1][0] == "H"

    def test_unreachable_sink_rejected(self, c17_circuit):
        engine = EPPEngine(c17_circuit)
        with pytest.raises(AnalysisError, match="not a reachable sink"):
            engine.dominant_path("N19", sink="N22")  # N19 only reaches N23

    def test_chain_path_is_the_chain(self):
        circuit = chain_circuit()
        engine = EPPEngine(circuit)
        path = engine.dominant_path("a")
        assert [name for name, _ in path] == ["a", "inv1", "buf1", "inv2", "mix"]

    def test_no_sink_returns_empty(self):
        circuit = Circuit("deadend")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("dead", GateType.NOT, ["b"])
        circuit.add_gate("po", GateType.BUF, ["a"])
        circuit.mark_output("po")
        engine = EPPEngine(circuit)
        assert engine.dominant_path("dead") == []

    def test_path_endpoints_and_probabilities(self, c17_circuit):
        """A dominant path starts at the site with error probability 1,
        ends at a sink, and every step is a real fanin edge.  (Error
        probability is NOT monotone along the path: reconverging branches
        can jointly exceed either single branch.)"""
        engine = EPPEngine(c17_circuit)
        compiled = engine.compiled
        sinks = {compiled.names[s] for s in compiled.sink_ids}
        for site in c17_circuit.gates:
            path = engine.dominant_path(site)
            assert path[0][0] == site
            assert path[0][1] == pytest.approx(1.0)
            assert path[-1][0] in sinks
            for (driver, _), (user, _) in zip(path, path[1:]):
                assert driver in c17_circuit.node(user).fanin
            assert all(0.0 <= p <= 1.0 + 1e-12 for _, p in path)

    def test_waits_for_the_sweep_lock(self):
        """dominant_path reads the scratch arrays node_epp/p_sensitized
        fill, so it must hold the same lock: a concurrent sweep would
        otherwise overwrite them mid-walk."""
        engine = EPPEngine(s27())
        expected = engine.dominant_path("G10")
        result = []
        worker = threading.Thread(
            target=lambda: result.append(engine.dominant_path("G10"))
        )
        with engine._sweep_lock:
            worker.start()
            worker.join(timeout=0.2)
            assert worker.is_alive() and not result
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert result == [expected]
