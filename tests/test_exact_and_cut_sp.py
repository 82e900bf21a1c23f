"""Exact (global BDD) and cut-BDD signal probabilities."""

import pytest

from repro.errors import ProbabilityError
from repro.netlist.generate import random_combinational
from repro.netlist.library import c17, parity_tree, s27
from repro.netlist.transform import to_combinational
from repro.probability import signal_probabilities
from repro.probability.cut_bdd import cut_signal_probabilities
from repro.probability.exact import build_node_bdds, exact_signal_probabilities
from repro.probability.signal_prob import compute_signal_probabilities


#: Sources every backend refuses: (circuit, input_probs, message).
SOURCE_CASES = {
    "unknown_name": (c17, {"zz": 0.5}, "unknown node"),
    "gate_name": (c17, {"N10": 0.5}, "not a primary input"),
    "flip_flop_name": (s27, {"G5": 0.5}, "not a primary input"),
    "above_one": (c17, {"N1": 1.5}, "out of"),
    "nan": (c17, {"N1": float("nan")}, "out of"),
}


class TestExact:
    def test_rejects_sequential(self):
        with pytest.raises(ProbabilityError, match="sequential"):
            exact_signal_probabilities(s27())

    def test_sequential_via_cut(self):
        cut = to_combinational(s27()).circuit
        sp = exact_signal_probabilities(cut)
        assert sp["G17"] == pytest.approx(1 - sp["G11"], abs=1e-12)

    def test_matches_enumeration_on_c17(self):
        circuit = c17()
        exact = exact_signal_probabilities(circuit)
        # Brute-force ground truth over the 32 input patterns.
        counts = {name: 0 for name in exact}
        for pattern in range(32):
            assignment = {
                name: (pattern >> k) & 1 for k, name in enumerate(circuit.inputs)
            }
            for name, value in circuit.evaluate(assignment).items():
                counts[name] += value
        for name in exact:
            assert exact[name] == pytest.approx(counts[name] / 32)

    def test_build_node_bdds_returns_manager(self):
        bdd, functions, var_levels = build_node_bdds(c17())
        assert set(var_levels) == set(c17().inputs)
        assert "N22" in functions

    def test_equals_topological_on_tree(self):
        circuit = parity_tree(7)
        probs = {f"x{i}": 0.1 * (i + 1) for i in range(7)}
        exact = exact_signal_probabilities(circuit, input_probs=probs)
        topo = compute_signal_probabilities(circuit, input_probs=probs)
        for name in exact:
            assert exact[name] == pytest.approx(topo[name], abs=1e-12)


class TestCut:
    def test_wide_window_recovers_exact(self):
        for seed in range(3):
            circuit = random_combinational(5, 25, seed=seed)
            exact = exact_signal_probabilities(circuit)
            cut = cut_signal_probabilities(circuit, cut_depth=50, max_cut_width=24)
            for name in exact:
                assert cut[name] == pytest.approx(exact[name], abs=1e-9), (seed, name)

    def test_never_worse_than_topological_on_average(self):
        total_topo = 0.0
        total_cut = 0.0
        for seed in range(5):
            circuit = random_combinational(6, 30, seed=seed)
            exact = exact_signal_probabilities(circuit)
            topo = compute_signal_probabilities(circuit)
            cut = cut_signal_probabilities(circuit, cut_depth=4)
            total_topo += sum(abs(exact[n] - topo[n]) for n in exact)
            total_cut += sum(abs(exact[n] - cut[n]) for n in exact)
        assert total_cut <= total_topo + 1e-9

    def test_depth_one_equals_topological(self):
        circuit = c17()
        cut = cut_signal_probabilities(circuit, cut_depth=1)
        topo = compute_signal_probabilities(circuit)
        for name in cut:
            assert cut[name] == pytest.approx(topo[name], abs=1e-12)

    def test_sequential_fixpoint(self):
        # Per-node windows differ, so the NOT-complement relation is only
        # approximate for the cut backend; it must still be close and valid.
        sp = cut_signal_probabilities(s27(), cut_depth=3)
        assert all(0.0 <= p <= 1.0 for p in sp.values())
        assert sp["G17"] == pytest.approx(1 - sp["G11"], abs=0.05)

    def test_parameter_validation(self):
        with pytest.raises(ProbabilityError):
            cut_signal_probabilities(c17(), cut_depth=0)
        with pytest.raises(ProbabilityError):
            cut_signal_probabilities(c17(), max_cut_width=1)


class TestFacade:
    def test_all_methods_dispatch(self):
        circuit = c17()
        for method in ("topological", "cut", "monte_carlo", "exact"):
            sp = signal_probabilities(circuit, method=method, **(
                {"n_vectors": 2000} if method == "monte_carlo" else {}
            ))
            assert set(sp) == {node.name for node in circuit}

    def test_unknown_method(self):
        with pytest.raises(ProbabilityError, match="unknown"):
            signal_probabilities(c17(), method="astrology")

    @pytest.mark.parametrize(
        "method,case",
        [
            (method, case)
            for method in ("topological", "cut", "monte_carlo", "exact")
            for case in SOURCE_CASES
            # exact takes no sequential circuit at all
            if not (method == "exact" and case == "flip_flop_name")
        ],
    )
    def test_source_rule(self, method, case):
        maker, input_probs, message = SOURCE_CASES[case]
        options = {"n_vectors": 64} if method == "monte_carlo" else {}
        with pytest.raises(ProbabilityError, match=message):
            signal_probabilities(
                maker(), method=method, input_probs=input_probs, **options
            )
