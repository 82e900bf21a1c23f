"""Topological signal probabilities: gate formulas, trees, sequential fixpoint."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProbabilityError
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType, eval_gate_bool
from repro.netlist.generate import generate_iscas, random_combinational
from repro.netlist.library import counter, parity_tree, s27
from repro.probability.monte_carlo import monte_carlo_signal_probabilities
from repro.probability.signal_prob import (
    SequentialConvergence,
    _SPLevelPlan,
    compute_signal_probabilities,
    run_fixed_point,
)

from tests.helpers import reference_signal_probabilities


def gate_sp(gate_type, probs):
    """The SP pass's output probability of one gate fed by independent
    primary inputs with probabilities ``probs``."""
    circuit = Circuit()
    names = [f"i{k}" for k in range(len(probs))]
    for name in names:
        circuit.add_input(name)
    circuit.add_gate("g", gate_type, names)
    circuit.mark_output("g")
    return compute_signal_probabilities(
        circuit, input_probs=dict(zip(names, probs))
    )["g"]


def one_level_circuit() -> Circuit:
    """Every product code (AND, NAND, OR and NOR at arities 1-6, NOT,
    BUF), both parity codes at arities 1-6, a MUX and a MAJ, all reading
    the six primary inputs: one level, whose SP plan holds one product
    block, one parity block and one block each for the MUX and the MAJ."""
    circuit = Circuit("one_level")
    inputs = [f"i{k}" for k in range(6)]
    for name in inputs:
        circuit.add_input(name)
    gates = [(GateType.NOT, ["i0"]), (GateType.BUF, ["i1"]),
             (GateType.MUX, ["i2", "i3", "i4"]),
             (GateType.MAJ, ["i5", "i0", "i3"])]
    for gate_type in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
                      GateType.XOR, GateType.XNOR):
        for arity in range(1, 7):
            gates.append((gate_type, [inputs[(arity + k) % 6]
                                      for k in range(arity)]))
    for index, (gate_type, pins) in enumerate(gates):
        name = f"{gate_type.name.lower()}{len(pins)}_{index}"
        circuit.add_gate(name, gate_type, pins)
        circuit.mark_output(name)
    return circuit


def enumerate_gate_probability(gate_type, probs):
    """Ground truth: sum over input minterms."""
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(probs)):
        weight = 1.0
        for p, bit in zip(probs, bits):
            weight *= p if bit else 1 - p
        total += weight * eval_gate_bool(gate_type, list(bits))
    return total


@pytest.mark.parametrize(
    "gate_type",
    [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
     GateType.XOR, GateType.XNOR, GateType.MUX, GateType.MAJ],
)
def test_gate_formula_matches_enumeration(gate_type):
    probs = [0.3, 0.7, 0.5]
    got = gate_sp(gate_type, probs)
    assert got == pytest.approx(enumerate_gate_probability(gate_type, probs))


def test_not_and_buf():
    assert gate_sp(GateType.NOT, [0.3]) == pytest.approx(0.7)
    assert gate_sp(GateType.BUF, [0.3]) == pytest.approx(0.3)


def test_constants():
    circuit = Circuit()
    circuit.add_const("zero", 0)
    circuit.add_const("one", 1)
    sp = compute_signal_probabilities(circuit)
    assert sp["zero"] == 0.0
    assert sp["one"] == 1.0


class TestCombinational:
    def test_default_inputs_are_half(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", GateType.NOT, ["a"])
        circuit.mark_output("g")
        sp = compute_signal_probabilities(circuit)
        assert sp["a"] == 0.5
        assert sp["g"] == 0.5

    def test_custom_input_probs(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("g", GateType.AND, ["a", "b"])
        circuit.mark_output("g")
        sp = compute_signal_probabilities(circuit, input_probs={"a": 0.9, "b": 0.9})
        assert sp["g"] == pytest.approx(0.81)

    def test_exact_on_tree(self):
        circuit = parity_tree(6)
        sp = compute_signal_probabilities(
            circuit, input_probs={f"x{i}": 0.3 for i in range(6)}
        )
        # Parity of independent bits: closed form via product of (1-2p).
        expected = 0.5 * (1 - (1 - 2 * 0.3) ** 6)
        assert sp[circuit.outputs[0]] == pytest.approx(expected)

    def test_validation(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", GateType.BUF, ["a"])
        circuit.mark_output("g")
        with pytest.raises(ProbabilityError, match="unknown node"):
            compute_signal_probabilities(circuit, input_probs={"zz": 0.5})
        with pytest.raises(ProbabilityError, match="out of"):
            compute_signal_probabilities(circuit, input_probs={"a": 1.5})


class TestSequential:
    def test_fixed_point_converges_on_s27(self):
        record = SequentialConvergence()
        compute_signal_probabilities(s27(), convergence=record)
        assert record.converged
        assert record.final_delta < 1e-9

    def test_counter_states_approach_half(self):
        # A free-running counter bit spends half its time at 1.
        sp = compute_signal_probabilities(
            counter(3), input_probs={"en": 1.0}, max_iterations=200
        )
        assert sp["q0"] == pytest.approx(0.5, abs=0.05)

    def test_state_probs_override(self):
        sp = compute_signal_probabilities(
            s27(), state_probs={"G5": 1.0, "G6": 1.0, "G7": 1.0}, max_iterations=1
        )
        assert 0.0 <= sp["G17"] <= 1.0

    def test_state_probs_reject_non_dff(self):
        with pytest.raises(ProbabilityError, match="non-DFF"):
            compute_signal_probabilities(s27(), state_probs={"G0": 0.5})

    def test_agrees_with_monte_carlo_on_s27(self):
        sp = compute_signal_probabilities(s27())
        mc = monte_carlo_signal_probabilities(
            s27(), n_vectors=200_000, seed=3, warmup_cycles=16
        )
        # Independence bias exists but stays moderate on s27.
        for name in ("G13", "G12", "G10"):
            assert sp[name] == pytest.approx(mc[name], abs=0.08)


class TestFixedPointDriver:
    """``run_fixed_point`` over a scripted pass on a one-flip-flop loop
    (``q`` fed back through ``d = NOT(q)``)."""

    @staticmethod
    def _loop(next_state):
        circuit = Circuit("loop")
        circuit.add_gate("d", GateType.NOT, ["q"])
        circuit.add_dff("q", "d")
        circuit.mark_output("d")
        compiled = circuit.compiled()
        q, d = compiled.index["q"], compiled.index["d"]
        seen = []

        def one_pass(state):
            seen.append(state[q])
            probs = [0.0] * compiled.n
            probs[q] = state[q]
            probs[d] = next_state(state[q])
            return probs

        return compiled, q, d, one_pass, seen

    def test_settles_then_runs_one_more_pass(self):
        compiled, q, d, one_pass, seen = self._loop(lambda s: 0.5 * s + 0.25)
        record = SequentialConvergence()
        probs = run_fixed_point(compiled, one_pass, {q: 0.0}, 100, 1e-9, record)
        assert record.converged
        assert record.final_delta < 1e-9
        # One pass per iteration, then one at the settled state.
        assert len(seen) == record.iterations + 1
        assert probs[q] == seen[-1] == seen[-2] * 0.5 + 0.25
        assert probs[d] == pytest.approx(0.5, abs=1e-9)

    def test_stops_at_the_cap_without_claiming_convergence(self):
        # A 2-cycle: 0.25 -> 0.75 -> 0.25 never settles.
        compiled, q, d, one_pass, seen = self._loop(lambda s: 1.0 - s)
        record = SequentialConvergence()
        probs = run_fixed_point(compiled, one_pass, {q: 0.25}, 7, 1e-9, record)
        assert not record.converged
        assert record.iterations == len(seen) == 7
        assert record.final_delta == 0.5
        assert (probs[q], probs[d]) == (0.25, 0.75)  # the seventh pass

    def test_combinational_circuit_takes_one_pass(self):
        compiled = parity_tree(4).compiled()
        calls = []
        record = SequentialConvergence()
        run_fixed_point(
            compiled, lambda state: calls.append(state) or [0.0] * compiled.n,
            {}, 50, 1e-9, record,
        )
        assert calls == [{}]
        assert record.converged and record.iterations == 0


class TestVectorizedPass:
    """The level-grouped NumPy pass equals the node-by-node oracle
    (``tests/helpers.py``) bit for bit, on every node."""

    @staticmethod
    def _assert_matches_oracle(circuit, input_probs=None):
        sp = compute_signal_probabilities(circuit, input_probs=input_probs)
        oracle = reference_signal_probabilities(circuit, input_probs=input_probs)
        assert sp.keys() == oracle.keys()
        for name, value in oracle.items():
            assert sp[name] == value, name

    @pytest.mark.parametrize("maker", [s27, lambda: counter(4), lambda: parity_tree(8)])
    def test_matches_scalar_pass(self, maker):
        self._assert_matches_oracle(maker())

    def test_matches_scalar_on_generated_circuit(self):
        self._assert_matches_oracle(generate_iscas("s953"))

    @pytest.mark.parametrize("name", ["c432", "c1908"])
    def test_matches_scalar_on_iscas85_profile(self, name):
        self._assert_matches_oracle(generate_iscas(name))

    def test_mux_and_maj_kernels(self):
        circuit = Circuit("vec_zoo")
        for name in ("a", "b", "c", "d", "e"):
            circuit.add_input(name)
        circuit.add_gate("m", GateType.MUX, ["a", "b", "c"])
        circuit.add_gate("j3", GateType.MAJ, ["a", "b", "c"])
        circuit.add_gate("j5", GateType.MAJ, ["a", "b", "c", "d", "e"])
        circuit.add_gate("x", GateType.XOR, ["m", "j3"])
        circuit.mark_output("x")
        circuit.mark_output("j5")
        probs = {"a": 0.3, "b": 0.7, "c": 0.5, "d": 0.9, "e": 0.1}
        self._assert_matches_oracle(circuit, input_probs=probs)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        n_inputs=st.integers(min_value=2, max_value=10),
        n_gates=st.integers(min_value=3, max_value=80),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_matches_scalar_on_random_circuit(self, n_inputs, n_gates, seed, data):
        circuit = random_combinational(n_inputs, n_gates, seed=seed)
        probs = {
            name: data.draw(st.floats(min_value=0.0, max_value=1.0), label=name)
            for name in circuit.inputs
        }
        self._assert_matches_oracle(circuit, input_probs=probs)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(probs=st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=6, max_size=6))
    def test_family_blocks_match_oracle(self, probs):
        """One level holding every product and parity code at arities
        1-6 beside a MUX and a MAJ runs as four blocks, and equals the
        node-by-node oracle on every node at drawn input probabilities."""
        circuit = one_level_circuit()
        blocks = _SPLevelPlan.for_compiled(circuit.compiled()).blocks
        assert sorted(block.family for block in blocks) == [
            "mux", "parity", "product", "table"]
        inputs = [f"i{k}" for k in range(6)]
        self._assert_matches_oracle(circuit, dict(zip(inputs, probs)))

    def test_s9234_plan_has_one_block_per_level_and_family(self):
        """s9234's plan holds at most one product and one parity block
        per level, plus one block per MUX or truth-table group, in level
        order, and places every gate in exactly one block."""
        compiled = generate_iscas("s9234").compiled()
        groups = compiled.level_gate_groups()
        blocks = _SPLevelPlan.for_compiled(compiled).blocks
        levels = [compiled.level[block.out_ids[0]] for block in blocks]
        assert levels == sorted(levels)
        for level, block in zip(levels, blocks):
            assert {compiled.level[node] for node in block.out_ids} == {level}
        family = Counter(
            (level, block.family) for level, block in zip(levels, blocks)
            if block.family in ("product", "parity")
        )
        assert set(family.values()) == {1}
        singles = [block for block in blocks if block.family in ("mux", "table")]
        assert len(singles) == sum(
            compiled.gate_type(outs[0]) in (GateType.MUX, GateType.MAJ)
            for _, _, outs, _, _ in groups
        )
        n_levels = len({level for level, *_ in groups})
        assert len(blocks) <= 2 * n_levels + len(singles) < len(groups)
        outs = np.concatenate([block.out_ids for block in blocks])
        assert sorted(outs.tolist()) == sorted(
            node for _, _, group_outs, _, _ in groups for node in group_outs)

    def test_returns_plain_floats(self):
        sp = compute_signal_probabilities(s27())
        assert all(type(v) is float for v in sp.values())
