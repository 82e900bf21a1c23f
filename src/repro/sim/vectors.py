"""Pattern sources for bit-parallel simulation.

A *word* is a Python int whose bit ``p`` carries the value of one signal in
pattern ``p``; a *word assignment* maps each source signal to one word of a
common width.  All sources here are deterministic given their seed.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence

from repro.errors import SimulationError

__all__ = [
    "RandomVectorSource",
    "exhaustive_words",
]


def exhaustive_words(signals: Sequence[str]) -> tuple[dict[str, int], int]:
    """All ``2**len(signals)`` input combinations as one word assignment.

    Signal ``k`` gets the truth-table column pattern of variable ``k``
    (LSB-first), so pattern ``p`` assigns bit ``(p >> k) & 1`` to signal
    ``k``.  Returns ``(words, width)``.  Refuses more than 24 signals
    (16M-bit words) to protect the caller from accidental blowup.
    """
    n = len(signals)
    if n > 24:
        raise SimulationError(
            f"exhaustive enumeration over {n} signals is not tractable (limit 24)"
        )
    width = 1 << n
    words: dict[str, int] = {}
    for k, signal in enumerate(signals):
        block = (1 << (1 << k)) - 1  # 2^k zeros then 2^k ones, repeated
        period = 1 << (k + 1)
        word = 0
        for start in range(1 << k, width, period):
            word |= block << start
        words[signal] = word
    return words, width


class RandomVectorSource:
    """Seeded uniform (or per-signal weighted) random word generator.

    Parameters
    ----------
    signals:
        The source signal names to drive.
    seed:
        PRNG seed; identical seeds give identical streams.
    weights:
        Optional map signal -> probability of 1 (default 0.5 for all).
        Weighted words are built by thresholding blocks of uniform bits,
        which keeps generation O(width) per signal.
    rng:
        Optional externally-owned :class:`random.Random` instance to draw
        from instead of constructing one from ``seed``.  Callers composing
        several stochastic components (e.g. the Monte Carlo
        cross-validation harness) pass one generator through explicitly so
        the whole experiment is a pure function of a single seed — no
        module-level random state is ever consulted.
    """

    def __init__(
        self,
        signals: Sequence[str],
        seed: int = 0,
        weights: Mapping[str, float] | None = None,
        rng: random.Random | None = None,
    ):
        self.signals = list(signals)
        self._rng = rng if rng is not None else random.Random(seed)
        self._weights = dict(weights) if weights else {}
        for signal, weight in self._weights.items():
            if not 0.0 <= weight <= 1.0:
                raise SimulationError(
                    f"weight for {signal!r} must be in [0, 1], got {weight}"
                )

    def next_words(self, width: int) -> dict[str, int]:
        """One word assignment of ``width`` fresh random patterns."""
        if width < 1:
            raise SimulationError(f"word width must be >= 1, got {width}")
        words: dict[str, int] = {}
        for signal in self.signals:
            weight = self._weights.get(signal, 0.5)
            words[signal] = self._weighted_word(width, weight)
        return words

    def _weighted_word(self, width: int, weight: float) -> int:
        if weight == 0.5:
            return self._rng.getrandbits(width)
        if weight <= 0.0:
            return 0
        if weight >= 1.0:
            return (1 << width) - 1
        # Per-bit Bernoulli via 16-bit threshold comparison, vectorized in
        # chunks to limit Python-loop overhead.
        threshold = int(weight * 65536)
        word = 0
        for position in range(width):
            if self._rng.getrandbits(16) < threshold:
                word |= 1 << position
        return word
