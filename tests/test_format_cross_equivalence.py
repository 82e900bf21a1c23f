"""Property: the two interchange formats preserve behaviour exactly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.bench import parse_bench, write_bench
from repro.netlist.generate import random_combinational
from repro.netlist.verilog import parse_verilog, write_verilog
from repro.sim.logic_sim import BitParallelSimulator
from repro.sim.vectors import RandomVectorSource


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_gates=st.integers(min_value=5, max_value=60),
)
def test_bench_and_verilog_roundtrips_agree(seed, n_gates):
    """write->parse through BOTH formats yields simulation-identical circuits."""
    original = random_combinational(6, n_gates, seed=seed)
    via_bench = parse_bench(write_bench(original), name=original.name)
    via_verilog = parse_verilog(write_verilog(original), name=original.name)

    width = 128
    words = RandomVectorSource(original.inputs, seed=seed).next_words(width)

    def output_words(circuit):
        simulator = BitParallelSimulator(circuit)
        values = simulator.run(words, width)
        return [values[simulator.compiled.index[o]] for o in original.outputs]

    reference = output_words(original)
    for circuit in (via_bench, via_verilog):
        assert output_words(circuit) == reference


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_formats_preserve_node_inventory(seed):
    original = random_combinational(5, 30, seed=seed)
    via_bench = parse_bench(write_bench(original))
    via_verilog = parse_verilog(write_verilog(original))
    names = set(original.node_names())
    assert set(via_bench.node_names()) == names
    assert set(via_verilog.node_names()) == names
    for node in original:
        assert via_bench.node(node.name).gate_type is node.gate_type
        assert via_verilog.node(node.name).gate_type is node.gate_type


def test_sequential_cross_format():
    from repro.netlist.library import s27
    from repro.sim.logic_sim import simulate_sequential

    original = s27()
    via_bench = parse_bench(write_bench(original), name="s27")
    via_verilog = parse_verilog(write_verilog(original), name="s27")
    width = 64
    source = RandomVectorSource(original.inputs, seed=27)
    inputs = [source.next_words(width) for _ in range(6)]
    traces = [
        simulate_sequential(c, inputs, cycles=6, width=width)
        for c in (original, via_bench, via_verilog)
    ]
    for t in range(6):
        reference = [traces[0].word(t, o) for o in original.outputs]
        for trace in traces[1:]:
            assert [trace.word(t, o) for o in original.outputs] == reference
