"""Levelized bit-parallel logic simulation.

:class:`BitParallelSimulator` evaluates a circuit's combinational network
over word assignments (one pattern per bit).  The hot loop dispatches on
integer gate codes and indexes plain Python lists, which is the fastest
interpretation strategy available in pure Python; with 1024-bit words one
pass through an N-gate circuit costs ~N big-int operations for 1024
patterns.

:func:`simulate_sequential` drives a sequential circuit cycle by cycle:
flip-flop outputs are sources for the current cycle, and each DFF captures
the word at its D driver for the next cycle.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from repro.errors import SimulationError
from repro.netlist.circuit import Circuit, CompiledCircuit
from repro.netlist.gate_types import (
    CODE_AND,
    CODE_BUF,
    CODE_CONST0,
    CODE_CONST1,
    CODE_DFF,
    CODE_INPUT,
    CODE_MAJ,
    CODE_MUX,
    CODE_NAND,
    CODE_NOR,
    CODE_NOT,
    CODE_OR,
    CODE_XNOR,
    CODE_XOR,
    GateType,
    eval_gate_word,
)

__all__ = ["BitParallelSimulator", "simulate_sequential", "SequentialTrace"]


class BitParallelSimulator:
    """Bit-parallel evaluator bound to one circuit.

    The simulator precomputes per-node fanin lists and the topological
    order once, then :meth:`run` evaluates any number of word assignments.
    """

    def __init__(self, circuit: Circuit | CompiledCircuit):
        self.compiled = circuit.compiled() if isinstance(circuit, Circuit) else circuit
        compiled = self.compiled
        self._fanin: list[list[int]] = [compiled.fanin(i) for i in range(compiled.n)]
        self._code: list[int] = compiled.code
        # Gate evaluation order: topological, sources excluded (their words
        # come from the caller).
        self._eval_order: list[int] = [
            i for i in compiled.topo if compiled.gate_type(i).is_combinational
        ]
        self._source_ids: list[int] = [
            i for i in compiled.topo if not compiled.gate_type(i).is_combinational
        ]

    def run(self, source_words: Mapping[str, int], width: int) -> list[int]:
        """Evaluate one word assignment; returns a word per node id.

        ``source_words`` must provide a word for every primary input and —
        for sequential circuits — every DFF output (current state).
        Constants are filled in automatically.
        """
        compiled = self.compiled
        values = [0] * compiled.n
        mask = (1 << width) - 1
        for node_id in self._source_ids:
            code = self._code[node_id]
            if code == CODE_CONST0:
                continue
            if code == CODE_CONST1:
                values[node_id] = mask
                continue
            name = compiled.names[node_id]
            try:
                values[node_id] = source_words[name] & mask
            except KeyError:
                kind = "input" if code == CODE_INPUT else "state (DFF output)"
                raise SimulationError(f"missing {kind} word for {name!r}") from None
        self.run_into(values, mask)
        return values

    def run_into(self, values: list[int], mask: int, order: Sequence[int] | None = None) -> None:
        """Evaluate gates in ``order`` (default: all) into a preloaded buffer.

        ``values`` must already hold source words; entries for evaluated
        gates are overwritten.  Exposed so the fault injector can resimulate
        just a fanout cone.
        """
        fanin = self._fanin
        code = self._code
        for node_id in order if order is not None else self._eval_order:
            gate_code = code[node_id]
            pins = fanin[node_id]
            if gate_code == CODE_NAND:
                acc = mask
                for pin in pins:
                    acc &= values[pin]
                values[node_id] = acc ^ mask
            elif gate_code == CODE_AND:
                acc = mask
                for pin in pins:
                    acc &= values[pin]
                values[node_id] = acc
            elif gate_code == CODE_NOR:
                acc = 0
                for pin in pins:
                    acc |= values[pin]
                values[node_id] = acc ^ mask
            elif gate_code == CODE_OR:
                acc = 0
                for pin in pins:
                    acc |= values[pin]
                values[node_id] = acc
            elif gate_code == CODE_NOT:
                values[node_id] = values[pins[0]] ^ mask
            elif gate_code == CODE_BUF:
                values[node_id] = values[pins[0]]
            elif gate_code == CODE_XOR:
                acc = 0
                for pin in pins:
                    acc ^= values[pin]
                values[node_id] = acc
            elif gate_code == CODE_XNOR:
                acc = 0
                for pin in pins:
                    acc ^= values[pin]
                values[node_id] = acc ^ mask
            elif gate_code == CODE_MUX:
                sel, a, b = (values[p] for p in pins)
                values[node_id] = (a & (sel ^ mask)) | (b & sel)
            else:  # MAJ and any future exotic cell: generic path
                values[node_id] = eval_gate_word(
                    self.compiled.gate_type(node_id),
                    [values[p] for p in pins],
                    mask,
                )



class SequentialTrace:
    """Cycle-by-cycle record of a sequential simulation.

    ``node_words[t]`` holds the word per node id at cycle ``t``;
    ``state_words[t]`` the flip-flop state entering cycle ``t``.
    """

    def __init__(self, compiled: CompiledCircuit, width: int):
        self.compiled = compiled
        self.width = width
        self.node_words: list[list[int]] = []
        self.state_words: list[dict[str, int]] = []

    def word(self, cycle: int, name: str) -> int:
        return self.node_words[cycle][self.compiled.index[name]]

    @property
    def cycles(self) -> int:
        return len(self.node_words)


def simulate_sequential(
    circuit: Circuit,
    input_words: Sequence[Mapping[str, int]] | Callable[[int], Mapping[str, int]],
    cycles: int,
    width: int,
    initial_state: Mapping[str, int] | None = None,
    keep_trace: bool = True,
) -> SequentialTrace:
    """Simulate ``cycles`` clock cycles of a sequential circuit.

    ``input_words`` provides the primary-input word assignment per cycle
    (a sequence or a ``cycle -> words`` callable).  Flip-flops start at
    ``initial_state`` (default all zeros) and capture their D-driver word at
    every cycle boundary.  With ``keep_trace=False`` only the final cycle's
    node words are retained (memory-friendly warmup runs).
    """
    simulator = BitParallelSimulator(circuit)
    compiled = simulator.compiled
    trace = SequentialTrace(compiled, width)

    state: dict[str, int] = {name: 0 for name in circuit.flip_flops}
    if initial_state:
        for name, word in initial_state.items():
            if name not in state:
                raise SimulationError(f"initial_state names unknown flip-flop {name!r}")
            state[name] = word

    d_driver = {
        compiled.names[dff_id]: compiled.fanin(dff_id)[0] for dff_id in compiled.dff_ids
    }

    for cycle in range(cycles):
        cycle_inputs = input_words(cycle) if callable(input_words) else input_words[cycle]
        source_words = dict(state)
        source_words.update(cycle_inputs)
        values = simulator.run(source_words, width)
        if keep_trace or cycle == cycles - 1:
            trace.node_words.append(values)
            trace.state_words.append(dict(state))
        state = {name: values[driver] for name, driver in d_driver.items()}
    return trace
