"""Bit-parallel logic simulation vs the reference evaluator."""

import pytest

from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.netlist.generate import random_combinational
from repro.netlist.library import c17, counter, s27
from repro.sim.logic_sim import BitParallelSimulator, simulate_sequential
from repro.sim.vectors import RandomVectorSource, exhaustive_words


class TestCombinational:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_evaluator(self, seed):
        circuit = random_combinational(6, 35, seed=seed)
        simulator = BitParallelSimulator(circuit)
        words, width = exhaustive_words(circuit.inputs)
        values = simulator.run(words, width)
        for pattern in (0, 1, width // 2, width - 1):
            assignment = {
                name: (words[name] >> pattern) & 1 for name in circuit.inputs
            }
            reference = circuit.evaluate(assignment)
            for node_id, name in enumerate(simulator.compiled.names):
                assert (values[node_id] >> pattern) & 1 == reference[name], name

    def test_constants_fill_automatically(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_const("one", 1)
        circuit.add_gate("g", GateType.AND, ["a", "one"])
        circuit.mark_output("g")
        simulator = BitParallelSimulator(circuit)
        values = simulator.run({"a": 0b1010}, 4)
        assert values[simulator.compiled.index["g"]] == 0b1010

    def test_missing_input_raises(self):
        simulator = BitParallelSimulator(c17())
        with pytest.raises(SimulationError, match="missing input"):
            simulator.run({"N1": 0}, 4)

    def test_missing_state_raises(self):
        simulator = BitParallelSimulator(s27())
        words = {name: 0 for name in ["G0", "G1", "G2", "G3"]}
        with pytest.raises(SimulationError, match="DFF"):
            simulator.run(words, 4)

    def test_input_words_masked_to_width(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", GateType.BUF, ["a"])
        circuit.mark_output("g")
        simulator = BitParallelSimulator(circuit)
        values = simulator.run({"a": 0xFFFF}, 4)
        assert values[simulator.compiled.index["g"]] == 0xF


class TestSequential:
    def test_counter_counts_bitparallel(self):
        circuit = counter(3)
        # Two parallel universes: en=1 in bit 0, en=0 in bit 1.
        trace = simulate_sequential(circuit, lambda _: {"en": 0b01}, cycles=5, width=2)
        lane0 = [
            sum(((trace.word(t, f"q{i}") >> 0) & 1) << i for i in range(3))
            for t in range(5)
        ]
        lane1 = [
            sum(((trace.word(t, f"q{i}") >> 1) & 1) << i for i in range(3))
            for t in range(5)
        ]
        assert lane0 == [0, 1, 2, 3, 4]
        assert lane1 == [0, 0, 0, 0, 0]

    def test_initial_state_respected(self):
        circuit = counter(3)
        trace = simulate_sequential(
            circuit,
            lambda _: {"en": 1},
            cycles=2,
            width=1,
            initial_state={"q0": 1, "q1": 1, "q2": 0},
        )
        first = sum(trace.word(0, f"q{i}") << i for i in range(3))
        assert first == 3

    def test_unknown_initial_state_rejected(self):
        with pytest.raises(SimulationError, match="unknown flip-flop"):
            simulate_sequential(
                counter(2), lambda _: {"en": 1}, cycles=1, width=1,
                initial_state={"zz": 1},
            )

    def test_keep_trace_false_keeps_last_cycle_only(self):
        trace = simulate_sequential(
            counter(2), lambda _: {"en": 1}, cycles=4, width=1, keep_trace=False
        )
        assert trace.cycles == 1

    def test_input_sequence_as_list(self):
        circuit = counter(2)
        inputs = [{"en": 1}, {"en": 0}, {"en": 1}]
        trace = simulate_sequential(circuit, inputs, cycles=3, width=1)
        values = [
            sum(trace.word(t, f"q{i}") << i for i in range(2)) for t in range(3)
        ]
        assert values == [0, 1, 1]
