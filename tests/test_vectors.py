"""Pattern sources: exhaustive enumeration, weighted randomness."""

import pytest

from repro.errors import SimulationError
from repro.sim.vectors import RandomVectorSource, exhaustive_words


def bits(word: int, width: int) -> list[int]:
    """A word's per-pattern bits, pattern 0 first."""
    return [(word >> p) & 1 for p in range(width)]


class TestExhaustive:
    def test_columns_follow_truth_table_convention(self):
        words, width = exhaustive_words(["x0", "x1"])
        assert width == 4
        # pattern p assigns bit (p >> k) & 1 to signal k
        assert bits(words["x0"], 4) == [0, 1, 0, 1]
        assert bits(words["x1"], 4) == [0, 0, 1, 1]

    def test_all_patterns_distinct(self):
        signals = ["a", "b", "c"]
        words, width = exhaustive_words(signals)
        seen = set()
        for p in range(width):
            seen.add(tuple((words[s] >> p) & 1 for s in signals))
        assert len(seen) == 8

    def test_limit_guard(self):
        with pytest.raises(SimulationError, match="not tractable"):
            exhaustive_words([f"x{i}" for i in range(25)])


class TestRandomSource:
    def test_deterministic_stream(self):
        a = RandomVectorSource(["x", "y"], seed=42).next_words(128)
        b = RandomVectorSource(["x", "y"], seed=42).next_words(128)
        assert a == b

    def test_different_seeds_differ(self):
        a = RandomVectorSource(["x"], seed=1).next_words(256)
        b = RandomVectorSource(["x"], seed=2).next_words(256)
        assert a != b

    def test_external_rng_instance(self):
        """An explicitly passed generator is drawn from directly — two
        sources sharing one rng continue a single stream, and a source
        given a fresh rng in a known state is fully reproducible."""
        import random

        shared = random.Random(5)
        first = RandomVectorSource(["x"], rng=shared).next_words(128)
        second = RandomVectorSource(["x"], rng=shared).next_words(128)
        assert first != second  # one continuing stream, not a reset
        replay = random.Random(5)
        assert RandomVectorSource(["x"], rng=replay).next_words(128) == first

    def test_weighted_extremes(self):
        source = RandomVectorSource(["lo", "hi"], seed=0, weights={"lo": 0.0, "hi": 1.0})
        words = source.next_words(64)
        assert words["lo"] == 0
        assert words["hi"] == (1 << 64) - 1

    def test_weighted_statistics(self):
        source = RandomVectorSource(["x"], seed=7, weights={"x": 0.2})
        total = sum(source.next_words(1024)["x"].bit_count() for _ in range(8))
        fraction = total / (8 * 1024)
        assert 0.15 < fraction < 0.25

    def test_invalid_weight_rejected(self):
        with pytest.raises(SimulationError):
            RandomVectorSource(["x"], weights={"x": 1.5})

    def test_invalid_width_rejected(self):
        with pytest.raises(SimulationError):
            RandomVectorSource(["x"]).next_words(0)
