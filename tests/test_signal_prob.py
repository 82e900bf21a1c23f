"""Topological signal probabilities: gate formulas, trees, sequential fixpoint."""

import itertools

import pytest

from repro.errors import ProbabilityError
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType, eval_gate_bool
from repro.netlist.library import counter, parity_tree, s27
from repro.probability.monte_carlo import monte_carlo_signal_probabilities
from repro.probability.signal_prob import (
    SequentialConvergence,
    compute_signal_probabilities,
)


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

    def test_damping_still_converges(self):
        record = SequentialConvergence()
        compute_signal_probabilities(
            s27(), damping=0.5, convergence=record, max_iterations=200
        )
        assert record.converged

    def test_agrees_with_monte_carlo_on_s27(self):
        sp = compute_signal_probabilities(s27())
        mc = monte_carlo_signal_probabilities(
            s27(), n_vectors=200_000, seed=3, warmup_cycles=16
        )
        # Independence bias exists but stays moderate on s27.
        for name in ("G13", "G12", "G10"):
            assert sp[name] == pytest.approx(mc[name], abs=0.08)


class TestVectorizedPass:
    """The level-parallel NumPy pass must match the scalar pass exactly."""

    @staticmethod
    def _both_passes(circuit, monkeypatch, **kwargs):
        import repro.probability.signal_prob as sp_mod

        monkeypatch.setattr(sp_mod, "_VEC_MIN_NODES", 0)
        vec = compute_signal_probabilities(circuit, **kwargs)
        monkeypatch.setattr(sp_mod, "_VEC_MIN_NODES", circuit.compiled().n + 1)
        scalar = compute_signal_probabilities(circuit, **kwargs)
        return vec, scalar

    @pytest.mark.parametrize("maker", [s27, lambda: counter(4), lambda: parity_tree(8)])
    def test_matches_scalar_pass(self, maker, monkeypatch):
        vec, scalar = self._both_passes(maker(), monkeypatch)
        assert vec.keys() == scalar.keys()
        for name in scalar:
            assert vec[name] == pytest.approx(scalar[name], abs=1e-12), name

    def test_matches_scalar_on_generated_circuit(self, monkeypatch):
        from repro.netlist.generate import generate_iscas

        vec, scalar = self._both_passes(generate_iscas("s953"), monkeypatch)
        for name in scalar:
            assert vec[name] == pytest.approx(scalar[name], abs=1e-12), name

    def test_mux_and_maj_kernels(self, monkeypatch):
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
        vec, scalar = self._both_passes(circuit, monkeypatch, input_probs=probs)
        for name in scalar:
            assert vec[name] == pytest.approx(scalar[name], abs=1e-12), name

    def test_returns_plain_floats(self, monkeypatch):
        import repro.probability.signal_prob as sp_mod

        monkeypatch.setattr(sp_mod, "_VEC_MIN_NODES", 0)  # force the vec path
        sp = compute_signal_probabilities(s27())
        assert all(type(v) is float for v in sp.values())
