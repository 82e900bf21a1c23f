"""repro — EPP-based soft error rate estimation for gate-level circuits.

A production-quality reproduction of

    Ghazanfar Asadi and Mehdi B. Tahoori,
    "An Accurate SER Estimation Method Based on Propagation Probability",
    DATE 2005.

Quickstart
----------
>>> from repro import EPPEngine
>>> from repro.netlist.library import s27
>>> engine = EPPEngine(s27())
>>> round(engine.node_epp("G9").p_sensitized, 3)
0.856

Package map
-----------
* :mod:`repro.netlist` — circuits, ``.bench``/Verilog I/O, the
  sequential cut and TMR, generators.
* :mod:`repro.sim` — bit-parallel logic and fault simulation.
* :mod:`repro.probability` — signal-probability backends (topological,
  cut-BDD, Monte Carlo, exact BDD).
* :mod:`repro.core` — the EPP engine, the random-simulation baseline, and
  the full SER analyzer.
* :mod:`repro.ser` — R_SEU and latching models, FIT math, hardening
  flows.
* :mod:`repro.experiments` — regeneration harnesses for the paper's
  Figure 1, Table 1 and Table 2.
"""

from repro.core import (
    CircuitSERReport,
    EPPEngine,
    EPPResult,
    EPPValue,
    NodeSER,
    RandomSimulationEstimator,
    SERAnalyzer,
    combine_sensitization,
)
from repro.errors import (
    AnalysisError,
    ConfigError,
    NetlistError,
    ParseError,
    ProbabilityError,
    ReproError,
    SimulationError,
    ValidationError,
)
from repro.netlist import (
    Circuit,
    GateType,
    parse_bench,
    parse_bench_file,
    validate_circuit,
    write_bench,
)
from repro.probability import signal_probabilities
from repro.ser import LatchingModel, SEURateModel

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "EPPEngine",
    "EPPResult",
    "EPPValue",
    "SERAnalyzer",
    "NodeSER",
    "CircuitSERReport",
    "RandomSimulationEstimator",
    "combine_sensitization",
    # netlist
    "Circuit",
    "GateType",
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    "validate_circuit",
    # probability / models
    "signal_probabilities",
    "SEURateModel",
    "LatchingModel",
    # errors
    "ReproError",
    "NetlistError",
    "ParseError",
    "ValidationError",
    "SimulationError",
    "ProbabilityError",
    "AnalysisError",
    "ConfigError",
]
