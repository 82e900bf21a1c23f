"""Gate-level netlist substrate.

This subpackage provides everything the analysis engines need to represent
and manipulate circuits:

* :mod:`repro.netlist.gate_types` — the gate alphabet.
* :mod:`repro.netlist.circuit` — the :class:`~repro.netlist.circuit.Circuit`
  container and its compiled (integer-array) views.
* :mod:`repro.netlist.bench` — ISCAS ``.bench`` reader/writer.
* :mod:`repro.netlist.validate` — structural lint.
* :mod:`repro.netlist.transform` — sequential cut, TMR.
* :mod:`repro.netlist.stats` — circuit statistics.
* :mod:`repro.netlist.library` — embedded reference circuits (s27, c17,
  the paper's Figure 1 example, and small teaching circuits).
* :mod:`repro.netlist.generate` — seeded synthetic benchmark generator.
"""

from repro.netlist.gate_types import GateType
from repro.netlist.circuit import Circuit, Node
from repro.netlist.bench import parse_bench, parse_bench_file, write_bench
from repro.netlist.verilog import parse_verilog, parse_verilog_file, write_verilog
from repro.netlist.validate import validate_circuit
from repro.netlist.stats import circuit_stats, CircuitStats

__all__ = [
    "GateType",
    "Circuit",
    "Node",
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    "parse_verilog",
    "parse_verilog_file",
    "write_verilog",
    "validate_circuit",
    "circuit_stats",
    "CircuitStats",
]
