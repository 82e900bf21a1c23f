"""Logic and fault simulation substrate.

* :mod:`repro.sim.vectors` — seeded pattern sources (random, weighted,
  exhaustive) packed as bit-parallel words.
* :mod:`repro.sim.logic_sim` — levelized bit-parallel logic simulation of
  combinational and sequential circuits.
* :mod:`repro.sim.fault_sim` — SEU (bit-flip) injection with cone-restricted
  resimulation and sink observation.

The bit-parallel representation packs one simulation pattern per bit of an
arbitrary-width Python integer, so a single pass of Python-level work
evaluates hundreds or thousands of patterns.
"""

from repro.sim.vectors import RandomVectorSource, exhaustive_words
from repro.sim.logic_sim import BitParallelSimulator, simulate_sequential
from repro.sim.fault_sim import FaultInjector

__all__ = [
    "RandomVectorSource",
    "exhaustive_words",
    "BitParallelSimulator",
    "simulate_sequential",
    "FaultInjector",
]
