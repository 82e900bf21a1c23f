"""Monte Carlo signal-probability estimation.

Bit-parallel random simulation: N vectors are packed into big-int words and
pushed through the circuit once; each node's SP estimate is its one-count
divided by N.  For sequential circuits the circuit is clocked with fresh
random inputs every cycle from a random initial state; a warmup prefix is
discarded so the state distribution approaches steady state before counting
begins.

This backend converges to the true SP (standard error ~ 1/(2*sqrt(N))) and
is the "accurate but slow" SP computation whose cost the paper reports
separately as the SPT column of Table 2.
"""

from __future__ import annotations

import random
from collections.abc import Mapping

from repro.errors import ProbabilityError
from repro.netlist.circuit import Circuit
from repro.probability.signal_prob import check_sources
from repro.sim.logic_sim import BitParallelSimulator, simulate_sequential
from repro.sim.vectors import RandomVectorSource

__all__ = ["monte_carlo_signal_probabilities"]

_WORD_WIDTH = 1024


def monte_carlo_signal_probabilities(
    circuit: Circuit,
    input_probs: Mapping[str, float] | None = None,
    n_vectors: int = 100_000,
    seed: int = 2005,
    warmup_cycles: int = 8,
    cycles_per_batch: int = 16,
    word_width: int = _WORD_WIDTH,
    rng: random.Random | None = None,
) -> dict[str, float]:
    """Estimate every node's SP from ``n_vectors`` random patterns.

    For sequential circuits each batch simulates ``warmup_cycles`` unscored
    cycles followed by ``cycles_per_batch`` scored cycles, so ``n_vectors``
    counts *scored* pattern-cycles.

    Every sampled bit descends from ``seed`` (or, when given, from ``rng``,
    an explicit :class:`random.Random` whose state seeds the internal
    pattern and initial-state streams) — the function never touches
    module-level random state, so runs are reproducible bit for bit.  The
    explicit ``rng`` form lets a calling experiment derive all of its
    stochastic components from one master generator.
    """
    compiled = circuit.compiled()
    check_sources(compiled, input_probs)
    if n_vectors < 1:
        raise ProbabilityError(f"n_vectors must be >= 1, got {n_vectors}")
    if word_width < 1:
        raise ProbabilityError(f"word_width must be >= 1, got {word_width}")

    if rng is not None:
        # Two independent derived streams (patterns / initial state), both
        # pure functions of the caller's generator state.
        seed = rng.getrandbits(64)

    counts = [0] * compiled.n
    source = RandomVectorSource(circuit.inputs, seed=seed, weights=input_probs)

    if not circuit.is_sequential:
        simulator = BitParallelSimulator(compiled)
        remaining = n_vectors
        while remaining > 0:
            width = min(word_width, remaining)
            words = source.next_words(width)
            values = simulator.run(words, width)
            for node_id in range(compiled.n):
                counts[node_id] += values[node_id].bit_count()
            remaining -= width
        total = n_vectors
    else:
        state_source = RandomVectorSource(circuit.flip_flops, seed=seed ^ 0x5EED)
        total = 0
        remaining = n_vectors
        while remaining > 0:
            width = min(word_width, max(1, remaining // max(1, cycles_per_batch)))
            scored = min(cycles_per_batch, max(1, -(-remaining // width)))
            trace = simulate_sequential(
                circuit,
                lambda cycle: source.next_words(width),
                cycles=warmup_cycles + scored,
                width=width,
                initial_state=state_source.next_words(width),
                keep_trace=True,
            )
            for cycle in range(warmup_cycles, warmup_cycles + scored):
                values = trace.node_words[cycle]
                for node_id in range(compiled.n):
                    counts[node_id] += values[node_id].bit_count()
            total += scored * width
            remaining -= scored * width

    return {compiled.names[i]: counts[i] / total for i in range(compiled.n)}
