"""The paper's core contribution: EPP-based soft-error analysis.

* :mod:`repro.core.fourvalue` — the four-valued probability vector
  ``(Pa, Pā, P0, P1)`` attached to every on-path signal.
* :mod:`repro.core.rules` — per-gate propagation rules (paper Table 1 plus
  derived and generic rules).
* :mod:`repro.core.cone` — on-path cone extraction (paper steps 1 & 2).
* :mod:`repro.core.epp` — the one-pass EPP engine (paper step 3) and
  ``P_sensitized`` computation (scalar reference backend).
* :mod:`repro.core.rules_vec` / :mod:`repro.core.epp_batch` — the
  vectorized rule kernels and the batched level-parallel NumPy backend
  (``EPPEngine.analyze(backend="vector")``), cone-aware on every
  workload: each chunk sweeps only the rows on some member's fanout
  cone, bit-identical to a dense sweep of the whole circuit, and
  multi-chunk site lists are cone-clustered.
* :mod:`repro.core.schedule` — the scheduling layer: the cached per-node
  reachable-sink :class:`~repro.core.schedule.ConeIndex` and the
  cone-clustered site ordering the sparse sweeps feed on.
* :mod:`repro.core.epp_shard` — the multi-process sharded driver fanning
  cone-clustered site shards across a worker pool of vector backends
  (``EPPEngine.analyze(backend="sharded", jobs=4)``), returning flat
  result arrays through the executor's pickle channel.  Not re-exported here: the
  engine imports it on the first sharded call, so a run that never
  shards never loads :mod:`multiprocessing`.
* :mod:`repro.core.baseline` — the random fault-injection estimator the
  paper compares against.
* :mod:`repro.core.analysis` — full SER analysis combining EPP with the
  R_SEU and latching models.
"""

from repro.core.fourvalue import EPPValue
from repro.core.epp import EPPEngine, EPPResult
from repro.core.baseline import RandomSimulationEstimator
from repro.core.sensitization import combine_sensitization
from repro.core.analysis import SERAnalyzer, NodeSER, CircuitSERReport

__all__ = [
    "EPPValue",
    "EPPEngine",
    "EPPResult",
    "RandomSimulationEstimator",
    "combine_sensitization",
    "SERAnalyzer",
    "NodeSER",
    "CircuitSERReport",
]
