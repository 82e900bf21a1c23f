"""Netlist transforms: the sequential cut and TMR."""

import pytest

from repro.errors import NetlistError
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.netlist.generate import generate_iscas
from repro.netlist.library import c17, counter, s27
from repro.netlist.transform import to_combinational, triplicate, triplicate_nodes
from repro.netlist.validate import validate_circuit
from repro.sim.fault_sim import FaultInjector
from repro.sim.vectors import RandomVectorSource


class TestToCombinational:
    def test_identity_for_combinational(self):
        view = to_combinational(c17())
        assert view.is_identity
        assert view.circuit.inputs == c17().inputs

    def test_s27_cut_shape(self):
        view = to_combinational(s27())
        cut = view.circuit
        assert not cut.is_sequential
        assert set(cut.inputs) == {"G0", "G1", "G2", "G3", "G5", "G6", "G7"}
        # original PO plus the three D drivers
        assert set(cut.outputs) == {"G17", "G10", "G11", "G13"}
        assert set(view.state_inputs) == {"G5", "G6", "G7"}

    def test_cut_matches_sequential_evaluation(self):
        original = s27()
        view = to_combinational(original)
        assignment = {"G0": 1, "G1": 0, "G2": 1, "G3": 0, "G5": 1, "G6": 0, "G7": 1}
        assert original.evaluate(assignment) == view.circuit.evaluate(assignment)

    def test_shared_d_driver_maps_to_both_ffs(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", GateType.NOT, ["a"])
        circuit.add_dff("q1", "g")
        circuit.add_dff("q2", "g")
        circuit.mark_output("q1")
        view = to_combinational(circuit)
        assert sorted(view.state_outputs["g"]) == ["q1", "q2"]


class TestTriplicate:
    def test_shape(self):
        tmr = triplicate(c17())
        assert len(tmr.gates) == 3 * 6 + 2  # replicas + two voters
        assert tmr.inputs == c17().inputs
        assert tmr.outputs == c17().outputs

    def test_functional_equivalence(self):
        original = c17()
        tmr = triplicate(original)
        for pattern in range(32):
            assignment = {
                name: (pattern >> k) & 1 for k, name in enumerate(original.inputs)
            }
            expected = original.evaluate(assignment)
            got = tmr.evaluate(assignment)
            for output in original.outputs:
                assert expected[output] == got[output]

    def test_single_replica_fault_is_masked(self):
        original = c17()
        tmr = triplicate(original)
        injector = FaultInjector(tmr)
        words = RandomVectorSource(tmr.inputs, seed=5).next_words(512)
        good = injector.simulator.run(words, 512)
        for gate in original.gates:
            assert injector.detection_count(good, f"{gate}__r0", 512) == 0

    def test_voter_fault_is_not_masked(self):
        tmr = triplicate(c17())
        injector = FaultInjector(tmr)
        words = RandomVectorSource(tmr.inputs, seed=5).next_words(512)
        good = injector.simulator.run(words, 512)
        # The voter output IS the primary output: always detected.
        assert injector.detection_count(good, "N22", 512) == 512

    def test_sequential_circuits_triplicate(self):
        tmr = triplicate(counter(3))
        assert len(tmr.flip_flops) == 9

    def test_duplicate_suffixes_rejected(self):
        with pytest.raises(NetlistError):
            triplicate(c17(), suffixes=("_a", "_a", "_b"))

    def test_records_suffixes_used(self):
        tmr = triplicate(c17())
        assert tmr.tmr_suffixes == ("__r0", "__r1", "__r2")
        assert "N10__r0" in tmr

    def test_default_suffixes_escalate_past_existing_names(self):
        """A circuit already holding a ``__r0`` name must not explode —
        the auto suffixes deterministically escalate instead."""
        circuit = c17()
        circuit.add_gate("N10__r0", GateType.NOT, ["N1"])
        circuit.mark_output("N10__r0")
        tmr = triplicate(circuit)
        assert tmr.tmr_suffixes == ("__r0_", "__r1_", "__r2_")
        # the pre-existing __r0 node is replicated like any other gate
        assert "N10__r0__r0_" in tmr
        validate_circuit(tmr, strict=True)

    def test_explicit_suffix_collision_raises(self):
        circuit = c17()
        circuit.add_gate("N10_a", GateType.NOT, ["N1"])
        circuit.mark_output("N10_a")
        with pytest.raises(NetlistError, match="collide"):
            triplicate(circuit, suffixes=("_a", "_b", "_c"))


class TestTriplicateNodes:
    def test_voter_replaces_gate_in_place(self):
        circuit = c17()
        mapping = triplicate_nodes(circuit, ["N10"])
        assert mapping == {"N10": ("N10__r0", "N10__r1", "N10__r2")}
        assert circuit.node("N10").gate_type is GateType.MAJ
        assert circuit.node("N10").fanin == mapping["N10"]
        for replica in mapping["N10"]:
            assert circuit.node(replica).gate_type is GateType.NAND
            assert circuit.node(replica).fanin == ("N1", "N3")
        # users of N10 are untouched
        assert "N10" in circuit.node("N22").fanin
        validate_circuit(circuit, strict=True)

    def test_functional_equivalence(self):
        original = c17()
        edited = original.copy()
        triplicate_nodes(edited, ["N10", "N16"])
        for pattern in range(32):
            assignment = {
                name: (pattern >> k) & 1
                for k, name in enumerate(original.inputs)
            }
            expected = original.evaluate(assignment)
            got = edited.evaluate(assignment)
            for output in original.outputs:
                assert expected[output] == got[output]

    def test_single_replica_fault_is_masked(self):
        circuit = c17()
        triplicate_nodes(circuit, ["N10"])
        injector = FaultInjector(circuit)
        words = RandomVectorSource(circuit.inputs, seed=5).next_words(512)
        good = injector.simulator.run(words, 512)
        assert injector.detection_count(good, "N10__r0", 512) == 0

    def test_repeated_local_tmr_escalates_suffixes(self):
        circuit = c17()
        triplicate_nodes(circuit, ["N10"])
        mapping = triplicate_nodes(circuit, ["N10"])  # re-TMR the voter
        assert mapping["N10"] == ("N10__r0_", "N10__r1_", "N10__r2_")
        validate_circuit(circuit, strict=True)

    def test_duplicate_targets_rejected(self):
        with pytest.raises(NetlistError, match="duplicate"):
            triplicate_nodes(c17(), ["N10", "N10"])

    def test_non_combinational_targets_rejected(self):
        circuit = s27()
        with pytest.raises(NetlistError, match="combinational"):
            triplicate_nodes(circuit, ["G0"])  # primary input
        with pytest.raises(NetlistError, match="combinational"):
            triplicate_nodes(circuit, ["G5"])  # flip-flop

    def test_sequential_users_untouched(self):
        circuit = s27()
        # G10 drives DFF G5's D pin; local TMR must keep that wiring.
        triplicate_nodes(circuit, ["G10"])
        assert circuit.node("G5").fanin == ("G10",)
        validate_circuit(circuit, strict=True)


class TestTransformSweepOnISCAS:
    """Local TMR on profile-matched ISCAS circuits must not corrupt the
    netlist."""

    @pytest.mark.parametrize("profile", ["c432", "s953"])
    def test_transforms_validate(self, profile):
        circuit = generate_iscas(profile, seed=3)
        validate_circuit(circuit, strict=True)
        edited = circuit.copy()
        targets = [
            name for name in edited.gates[:4]
            if edited.node(name).gate_type.is_combinational
        ]
        triplicate_nodes(edited, targets)
        validate_circuit(edited, strict=True)
