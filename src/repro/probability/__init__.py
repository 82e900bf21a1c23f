"""Signal-probability substrate.

The signal probability (SP) of a line is the probability that it carries
logic 1 under the circuit's input distribution (Parker & McCluskey, 1975).
The EPP method consumes SPs for *off-path* signals; the paper charges SP
computation separately (its Table 2 "SPT" column) because SPs are reusable
across all error sites and "already used in other steps of the design flow".

Four backends, trading accuracy for runtime:

* ``topological`` — one level-parallel NumPy pass assuming signal
  independence (fast, exact on fanout-free circuits, biased under
  reconvergence).
* ``cut`` — local BDDs over a bounded-depth cut capture nearby
  reconvergence (accuracy midpoint).
* ``monte_carlo`` — bit-parallel random simulation (converges to truth,
  slow; this is the backend the Table 2 harness charges as SPT).
* ``exact`` — global BDDs (ground truth; small circuits only).

All four check their sources first, by one rule: ``input_probs`` names
primary inputs only, each value in [0, 1], or :class:`ProbabilityError`
is raised.  On sequential circuits the topological and cut passes run
under one fixed-point driver.  Both live in :mod:`.signal_prob`.

:func:`signal_probabilities` is the façade over all four.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import ProbabilityError
from repro.netlist.circuit import Circuit
from repro.probability.signal_prob import compute_signal_probabilities
from repro.probability.monte_carlo import monte_carlo_signal_probabilities
from repro.probability.exact import exact_signal_probabilities
from repro.probability.cut_bdd import cut_signal_probabilities
from repro.probability.bdd import BDD

__all__ = [
    "signal_probabilities",
    "compute_signal_probabilities",
    "monte_carlo_signal_probabilities",
    "exact_signal_probabilities",
    "cut_signal_probabilities",
    "BDD",
]

_METHODS = ("topological", "cut", "monte_carlo", "exact")


def signal_probabilities(
    circuit: Circuit,
    method: str = "topological",
    input_probs: Mapping[str, float] | None = None,
    **kwargs,
) -> dict[str, float]:
    """Compute the SP of every node with the chosen backend.

    ``input_probs`` maps primary-input names to their probability of 1
    (default 0.5 everywhere); backend-specific options are forwarded
    (e.g. ``n_vectors`` for ``monte_carlo``, ``cut_depth`` for ``cut``,
    ``max_iterations`` for sequential fixed-point iteration).
    """
    if method == "topological":
        return compute_signal_probabilities(circuit, input_probs=input_probs, **kwargs)
    if method == "cut":
        return cut_signal_probabilities(circuit, input_probs=input_probs, **kwargs)
    if method == "monte_carlo":
        return monte_carlo_signal_probabilities(circuit, input_probs=input_probs, **kwargs)
    if method == "exact":
        return exact_signal_probabilities(circuit, input_probs=input_probs, **kwargs)
    raise ProbabilityError(
        f"unknown signal-probability method {method!r}; choose from {_METHODS}"
    )
