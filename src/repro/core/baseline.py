"""The random-simulation baseline the paper compares against.

Every prior SER estimation flow cited by the paper ([2, 3, 4, 6]) measures
``P_sensitized`` by brute force: apply random vectors, flip the node, and
count how often the flip reaches an output.  Two implementations live here:

* :class:`RandomSimulationEstimator` — a *modern* baseline: bit-parallel
  words, cone-restricted resimulation, good-value amortization across
  sites.  Use it whenever an unbiased Monte Carlo reference is needed
  cheaply (it anchors the Table 2 accuracy column).

* :class:`SerialRandomSimulationEstimator` — the *2005-methodology*
  baseline: one vector at a time, full-circuit good and faulty evaluation
  per vector, no cone restriction.  This is what the paper's SimT column
  timed, so the Table 2 runtime/speedup columns are measured against it.

The ablation benchmark ``bench_ablation_cone`` quantifies how much of the
paper's reported gap a smarter simulator implementation closes.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping, Sequence

from repro.errors import SimulationError
from repro.netlist.circuit import Circuit, CompiledCircuit
from repro.probability.signal_prob import check_sources
from repro.sim.fault_sim import FaultInjector
from repro.sim.vectors import RandomVectorSource

__all__ = ["RandomSimulationEstimator", "SerialRandomSimulationEstimator"]


def _source_weights(
    compiled: CompiledCircuit,
    input_weights: Mapping[str, float] | None,
    state_weights: Mapping[str, float] | None,
) -> dict[str, float]:
    """Every primary input's and flip-flop's probability of 1, by name.

    The weights follow the SP backends' source rule
    (:func:`~repro.probability.signal_prob.check_sources`): a name that is
    not a primary input in ``input_weights``, or not a flip-flop in
    ``state_weights``, and a value outside [0, 1] raise
    :class:`~repro.errors.ProbabilityError`.
    """
    fixed, state = check_sources(compiled, input_weights, state_weights)
    return {compiled.names[node_id]: p for node_id, p in (fixed | state).items()}


def _site_name(compiled: CompiledCircuit, site: int | str) -> str:
    """A site's node name, from its name or its integer id.

    An unknown name, an id out of range, a ``bool`` and a non-integral
    value raise :class:`~repro.errors.SimulationError`; NumPy integers
    are ids (the rule of ``ConeExtractor.resolve``).
    """
    if isinstance(site, str):
        if site not in compiled.index:
            raise SimulationError(f"unknown error site {site!r}")
        return site
    if (isinstance(site, bool) or not isinstance(site, numbers.Integral)
            or not 0 <= site < compiled.n):
        raise SimulationError(f"unknown error site {site!r}")
    return compiled.names[site]


class RandomSimulationEstimator:
    """Monte Carlo ``P_sensitized`` estimation by SEU injection.

    Parameters
    ----------
    circuit:
        Circuit under analysis (combinational or sequential).
    n_vectors:
        Random vectors per site.  The standard error of each estimate is
        at most ``0.5 / sqrt(n_vectors)``.
    input_weights:
        Per-primary-input probability of 1 (default 0.5) — match these to
        the EPP engine's input SPs for an apples-to-apples comparison.
    state_weights:
        Probability of 1 for each flip-flop output.  Sequential circuits
        sample the state vector independently per pattern from these
        marginals (use the same SP map the EPP engine consumes, keeping
        both methods under the same input distribution).  Default 0.5.
    word_width:
        Patterns per bit-parallel pass.

    Weights outside the SP backends' source rule raise
    :class:`~repro.errors.ProbabilityError` here, at construction.
    """

    def __init__(
        self,
        circuit: Circuit,
        n_vectors: int = 10_000,
        seed: int = 2005,
        input_weights: Mapping[str, float] | None = None,
        state_weights: Mapping[str, float] | None = None,
        word_width: int = 1024,
    ):
        if n_vectors < 1:
            raise SimulationError(f"n_vectors must be >= 1, got {n_vectors}")
        if word_width < 1:
            raise SimulationError(f"word_width must be >= 1, got {word_width}")
        self.circuit = circuit
        self.n_vectors = n_vectors
        self.seed = seed
        self.word_width = word_width
        self.injector = FaultInjector(circuit)
        self.compiled = self.injector.compiled
        self._weights = _source_weights(self.compiled, input_weights,
                                        state_weights)
        self._sources = circuit.inputs + circuit.flip_flops

    # -------------------------------------------------------------- estimate

    def p_sensitized(self, site: int | str) -> float:
        """Estimate for a single site."""
        return self.estimate([site])[_site_name(self.compiled, site)]

    def estimate(self, sites: Sequence[int | str]) -> dict[str, float]:
        """Estimates for many sites against a shared vector stream."""
        site_names = [_site_name(self.compiled, site) for site in sites]
        source = RandomVectorSource(self._sources, seed=self.seed, weights=self._weights)
        counts = {name: 0 for name in site_names}
        remaining = self.n_vectors
        while remaining > 0:
            width = min(self.word_width, remaining)
            words = source.next_words(width)
            good = self.injector.simulator.run(words, width)
            for name in site_names:
                counts[name] += self.injector.detection_count(good, name, width)
            remaining -= width
        return {name: counts[name] / self.n_vectors for name in site_names}


class SerialRandomSimulationEstimator:
    """Per-vector, full-circuit random fault simulation (2005 methodology).

    For every vector: simulate the fault-free circuit, then for each site
    flip the site's value and re-simulate the *entire* circuit, comparing
    all observable sinks.  No bit-parallel words, no cone restriction —
    deliberately, because this is the implementation style whose runtime
    the paper's SimT column reports, and it is what makes the 4–5
    orders-of-magnitude ESP speedups reproducible in shape.

    The good-value evaluation is shared across sites within one vector, so
    timing a single site is conservative (the paper's per-node SimT pays
    the good simulation too).  Weights and sites follow the rules of
    :class:`RandomSimulationEstimator`.
    """

    def __init__(
        self,
        circuit: Circuit,
        n_vectors: int = 10_000,
        seed: int = 2005,
        input_weights: Mapping[str, float] | None = None,
        state_weights: Mapping[str, float] | None = None,
    ):
        if n_vectors < 1:
            raise SimulationError(f"n_vectors must be >= 1, got {n_vectors}")
        self.circuit = circuit
        self.n_vectors = n_vectors
        self.seed = seed
        self.injector = FaultInjector(circuit)  # reused for its compiled tables
        self.compiled = self.injector.compiled
        simulator = self.injector.simulator
        self._eval_order = simulator._eval_order
        self._order_position = {
            node_id: position for position, node_id in enumerate(self._eval_order)
        }
        self._simulator = simulator
        self._weights = _source_weights(self.compiled, input_weights,
                                        state_weights)
        self._sources = circuit.inputs + circuit.flip_flops

    def p_sensitized(self, site: int | str) -> float:
        return self.estimate([site])[_site_name(self.compiled, site)]

    def estimate(self, sites: Sequence[int | str]) -> dict[str, float]:
        """Serial estimate for many sites against a shared vector stream."""
        compiled = self.compiled
        site_ids = [compiled.index[_site_name(compiled, site)] for site in sites]
        counts = [0] * len(site_ids)
        sinks = compiled.sink_ids
        source = RandomVectorSource(self._sources, seed=self.seed, weights=self._weights)

        for _ in range(self.n_vectors):
            words = source.next_words(1)
            good = self._simulator.run(words, 1)
            for position, site_id in enumerate(site_ids):
                faulty = self._run_with_flip(good, site_id)
                for sink in sinks:
                    if faulty[sink] != good[sink]:
                        counts[position] += 1
                        break
        return {
            compiled.names[site_id]: counts[position] / self.n_vectors
            for position, site_id in enumerate(site_ids)
        }

    def _run_with_flip(self, good: list[int], site_id: int) -> list[int]:
        """Full-circuit single-vector evaluation with the site value flipped."""
        compiled = self.compiled
        values = list(good)
        order = self._eval_order
        if not compiled.gate_type(site_id).is_combinational:
            # Source-site SEU (input pad or flip-flop state bit).
            values[site_id] ^= 1
            self._simulator.run_into(values, 1, order)
            return values
        # One full pass, with the flip forced right after the site evaluates.
        position = self._order_position[site_id]
        self._simulator.run_into(values, 1, order[: position + 1])
        values[site_id] ^= 1
        self._simulator.run_into(values, 1, order[position + 1 :])
        return values
