"""Monte Carlo signal probabilities."""

import pytest

from repro.errors import ProbabilityError
from repro.netlist.library import c17, counter, s27
from repro.probability.exact import exact_signal_probabilities
from repro.probability.monte_carlo import monte_carlo_signal_probabilities


class TestCombinational:
    def test_converges_to_exact(self):
        circuit = c17()
        exact = exact_signal_probabilities(circuit)
        estimate = monte_carlo_signal_probabilities(circuit, n_vectors=100_000, seed=5)
        for name in exact:
            assert estimate[name] == pytest.approx(exact[name], abs=0.01)

    def test_weighted_inputs(self):
        circuit = c17()
        weights = {name: 0.9 for name in circuit.inputs}
        exact = exact_signal_probabilities(circuit, input_probs=weights)
        estimate = monte_carlo_signal_probabilities(
            circuit, input_probs=weights, n_vectors=100_000, seed=6
        )
        for name in exact:
            assert estimate[name] == pytest.approx(exact[name], abs=0.01)

    def test_deterministic_by_seed(self):
        a = monte_carlo_signal_probabilities(c17(), n_vectors=2048, seed=9)
        b = monte_carlo_signal_probabilities(c17(), n_vectors=2048, seed=9)
        assert a == b

    def test_seed_changes_estimate(self):
        a = monte_carlo_signal_probabilities(c17(), n_vectors=512, seed=1)
        b = monte_carlo_signal_probabilities(c17(), n_vectors=512, seed=2)
        assert a != b

    def test_explicit_rng_is_deterministic(self):
        """Two master generators in the same state yield identical maps —
        the sampling is a pure function of the rng, never module state."""
        import random

        a = monte_carlo_signal_probabilities(
            c17(), n_vectors=2048, rng=random.Random(42)
        )
        b = monte_carlo_signal_probabilities(
            c17(), n_vectors=2048, rng=random.Random(42)
        )
        assert a == b

    def test_explicit_rng_overrides_seed(self):
        import random

        by_seed = monte_carlo_signal_probabilities(c17(), n_vectors=512, seed=9)
        by_rng = monte_carlo_signal_probabilities(
            c17(), n_vectors=512, seed=9, rng=random.Random(1234)
        )
        assert by_seed != by_rng

    def test_explicit_rng_advances_master_state(self):
        """Consecutive calls on one master rng draw fresh streams, so a
        calling experiment gets independent components from one seed."""
        import random

        master = random.Random(7)
        first = monte_carlo_signal_probabilities(c17(), n_vectors=512, rng=master)
        second = monte_carlo_signal_probabilities(c17(), n_vectors=512, rng=master)
        assert first != second

    def test_explicit_rng_seeds_sequential_state_stream(self):
        """The sequential path's initial-state stream also descends from
        the master rng (bit-for-bit reproducible sequential estimates)."""
        import random

        a = monte_carlo_signal_probabilities(
            s27(), n_vectors=1024, rng=random.Random(3)
        )
        b = monte_carlo_signal_probabilities(
            s27(), n_vectors=1024, rng=random.Random(3)
        )
        assert a == b

    def test_small_word_width(self):
        # Exercises the multi-batch path.
        estimate = monte_carlo_signal_probabilities(
            c17(), n_vectors=1000, seed=4, word_width=64
        )
        assert all(0.0 <= p <= 1.0 for p in estimate.values())


class TestSequential:
    def test_counter_bit_frequency(self):
        estimate = monte_carlo_signal_probabilities(
            counter(3),
            input_probs={"en": 1.0},
            n_vectors=50_000,
            seed=7,
            warmup_cycles=8,
        )
        assert estimate["q0"] == pytest.approx(0.5, abs=0.03)

    def test_s27_probabilities_in_range(self):
        estimate = monte_carlo_signal_probabilities(s27(), n_vectors=20_000, seed=8)
        assert all(0.0 <= p <= 1.0 for p in estimate.values())
        assert estimate["G17"] == pytest.approx(1 - estimate["G11"], abs=1e-12)


class TestValidation:
    def test_rejects_zero_vectors(self):
        with pytest.raises(ProbabilityError):
            monte_carlo_signal_probabilities(c17(), n_vectors=0)
