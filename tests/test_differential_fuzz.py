"""Property-based differential fuzzing of the EPP backends.

Three oracles, fuzzed over generated circuits (:mod:`repro.netlist.generate`):

* **Backend agreement** — scalar vs vector vs sharded must agree to 1e-9 on
  every site of every circuit; sharding and vectorization reassociate
  floating-point work but must never change the semantics.  The vector
  sweep's packed arrays, and the columns its column query reduces to,
  must also equal the dense oracle sweep's (``tests.helpers``) bit for
  bit.
* **Exhaustive exactness on trees** — on fanout-free circuits the EPP
  algebra is *exact* (signals are independent and every site has a single
  path to a single sink), so the engine must match exhaustive logic
  simulation over all ``2^n`` input vectors to 1e-9, not approximately.
* **Bounded approximation under reconvergence** — on general random
  circuits EPP is a first-order approximation; the error against the
  exhaustive ground truth must stay inside the documented band (a broken
  rule or traversal typically shows errors of 0.3+ immediately).

The hypothesis properties shrink failures to minimal circuits; every
example is reconstructible from ``random_combinational``'s integer seed.
"""

import random

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.epp import EPPEngine
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.netlist.generate import random_combinational

from tests.helpers import dense_backend, exhaustive_all_sites

TOL = 1e-9

#: Gate pool for random trees: every closed-form family plus the
#: truth-table-kernel cells (MUX/MAJ), single-input cells included.
_TREE_GATES = [
    GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
    GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF,
    GateType.MUX, GateType.MAJ,
]


def random_tree_circuit(seed: int, max_inputs: int = 12, n_gates: int = 12) -> Circuit:
    """A random *fanout-free* circuit (every signal consumed at most once).

    Fanout-freedom is what makes the EPP algebra exact: all fanins of every
    gate are mutually independent and each error site has exactly one path
    to exactly one sink, so there is no reconvergence for the four-valued
    abstraction to approximate.  Inputs are created on demand up to
    ``max_inputs`` (≤ 12 keeps exhaustive enumeration at ≤ 4096 vectors).
    """
    rng = random.Random(seed)
    circuit = Circuit(f"tree_{seed}")
    pool: list[str] = []  # signals not yet consumed
    n_inputs = 0

    def fresh_operand() -> str:
        nonlocal n_inputs
        # Prefer reusing an unconsumed signal; mint a new input otherwise.
        if pool and (n_inputs >= max_inputs or rng.random() < 0.5):
            return pool.pop(rng.randrange(len(pool)))
        if n_inputs < max_inputs:
            name = circuit.add_input(f"pi{n_inputs}")
            n_inputs += 1
            return name
        return pool.pop(rng.randrange(len(pool)))

    for index in range(n_gates):
        gate_type = rng.choice(_TREE_GATES)
        if gate_type in (GateType.NOT, GateType.BUF):
            arity = 1
        elif gate_type in (GateType.MUX, GateType.MAJ):
            arity = 3
        else:
            arity = rng.choice((2, 2, 3))
        if len(pool) + (max_inputs - n_inputs) < arity:
            break  # operand supply exhausted: the tree is complete
        fanin = [fresh_operand() for _ in range(arity)]
        name = f"g{index}"
        circuit.add_gate(name, gate_type, fanin)
        pool.append(name)

    # Every unconsumed gate is a root of its own tree; observe them all.
    # (The most recently added gate is always unconsumed, so at least one
    # output exists.)
    for name in pool:
        if name.startswith("g"):
            circuit.mark_output(name)
    return circuit


def force_vector(engine: EPPEngine, cells: str = "auto"):
    """The engine's vector backend, its cell tier forced through the
    private ``_cells`` hook (assigned on every call: the engine caches
    its backend)."""
    backend = engine.vector_backend()
    backend._cells = cells
    return backend


def assert_all_sites_agree(reference: dict, candidate: dict):
    assert list(reference) == list(candidate)
    for site, expected in reference.items():
        got = candidate[site]
        assert got.p_sensitized == pytest.approx(expected.p_sensitized, abs=TOL), site
        assert got.cone_size == expected.cone_size, site
        assert set(got.sink_values) == set(expected.sink_values), site
        for sink, value in expected.sink_values.items():
            assert got.sink_values[sink].isclose(value, tolerance=TOL), (site, sink)


# ---------------------------------------------------------------- properties


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n_inputs=st.integers(min_value=2, max_value=8),
    n_gates=st.integers(min_value=4, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
    cells=st.sampled_from(("auto", "on", "off")),
)
def test_scalar_vs_vector_agree_on_random_circuits(
    n_inputs, n_gates, seed, cells,
):
    """Vectorization — compacted cone-pruned sweeps, row or
    cell-compacted kernels — is a pure reassociation: scalar == vector
    to 1e-9, and vector == the dense oracle bit for bit."""
    circuit = random_combinational(n_inputs, n_gates, seed=seed)
    engine = EPPEngine(circuit)
    backend = force_vector(engine, cells=cells)
    scalar = engine.analyze(backend="scalar")
    vector = engine.analyze(backend="vector")
    assert_all_sites_agree(scalar, vector)
    ids = [engine._cones.resolve(site) for site in engine.default_sites()]
    expected = dense_backend(engine).pack_sites(ids)
    for left, right in zip(expected, backend.pack_sites(ids)):
        assert np.array_equal(left, right)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    n_inputs=st.integers(min_value=3, max_value=8),
    n_gates=st.integers(min_value=8, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
    cells=st.sampled_from(("on", "off", "auto")),
    batch_size=st.integers(min_value=2, max_value=9),
)
def test_cell_compacted_bit_equal_on_random_circuits(
    n_inputs, n_gates, seed, cells, batch_size
):
    """The compacted sweeps are not merely close to the dense oracle
    sweep — they run the same elementwise IEEE ops per computed cell on
    the per-chunk union-of-cones remap, so packed arrays must match
    np.array_equal across random circuits (MUX/MAJ truth tables and
    sentinel-padded mixed arities included), under every cell tier and
    any chunk width."""
    circuit = random_combinational(n_inputs, n_gates, seed=seed)
    engine = EPPEngine(circuit)
    ids = [engine._cones.resolve(site) for site in engine.default_sites()]
    expected = dense_backend(engine, batch_size).pack_sites(ids)
    compacted = force_vector(engine, cells=cells)
    compacted.batch_size = batch_size
    packed = compacted.pack_sites(ids)
    for left, right in zip(expected, packed):
        assert np.array_equal(left, right)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n_inputs=st.integers(min_value=2, max_value=8),
    n_gates=st.integers(min_value=4, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
    cells=st.sampled_from(("on", "off", "auto")),
    batch_size=st.integers(min_value=1, max_value=9),
    picks=st.lists(st.integers(min_value=0, max_value=2**16), max_size=60),
)
def test_column_query_bit_equal_on_random_circuits(
    n_inputs, n_gates, seed, cells, batch_size, picks
):
    """``analyze_sites`` reduces each chunk to its two columns without
    selecting a (site, sink) pair; the columns must equal ``_pack``'s
    ``p_sens``/``cone_sizes`` and the dense oracle's bit for bit.  Site
    lists draw with repeats from every gate, including a dead two-gate
    chain that reaches no sink (its second gate inside the first's
    cone), and always hold the chain twice."""
    circuit = random_combinational(
        n_inputs, n_gates, seed=seed, n_outputs=max(1, n_gates // 3)
    )
    inputs = circuit.inputs
    circuit.add_gate("dead0", GateType.AND, [inputs[0], inputs[-1]])
    circuit.add_gate("dead1", GateType.NOR, ["dead0", inputs[0]])
    # Many sinks, and SPs off the dyadic grid: with every input at 0.5
    # the error masses are short binary fractions whose survival product
    # is exact in any order, which would hide a reordered reduction.
    rng = random.Random(seed)
    engine = EPPEngine(circuit, signal_probs={
        name: rng.uniform(0.05, 0.95) for name in circuit.node_names()
    })
    pool = [engine._cones.resolve(site) for site in engine.default_sites()]
    dead = [engine._cones.resolve(site) for site in ("dead0", "dead1")]
    ids = [pool[pick % len(pool)] for pick in picks] + dead + dead[::-1]
    backend = engine.vector_backend(batch_size=batch_size)
    backend._cells = cells
    p_sens, cone_sizes = backend.analyze_sites(ids)
    packed = backend.pack_sites(ids)
    oracle = dense_backend(engine, len(ids)).pack_sites(ids)
    for column, left, right in zip((p_sens, cone_sizes), packed, oracle):
        assert column.dtype == left.dtype
        assert np.array_equal(column, left)
        assert np.array_equal(column, right)
    assert p_sens[-4:].tolist() == [0.0] * 4


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_gates=st.integers(min_value=3, max_value=20),
)
def test_epp_exact_on_fanout_free_cones(seed, n_gates):
    """On trees (≤ 12 inputs) EPP equals exhaustive simulation to 1e-9."""
    circuit = random_tree_circuit(seed, max_inputs=12, n_gates=n_gates)
    truth = exhaustive_all_sites(circuit)
    engine = EPPEngine(circuit)
    force_vector(engine)
    scalar = engine.analyze(backend="scalar")
    vector = engine.analyze(backend="vector")
    assert_all_sites_agree(scalar, vector)
    for site in circuit.gates:
        assert scalar[site].p_sensitized == pytest.approx(truth[site], abs=TOL), site


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    n_inputs=st.integers(min_value=4, max_value=8),
    gates_per_input=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_epp_error_bounded_under_reconvergence(n_inputs, gates_per_input, seed):
    """On general random circuits EPP stays inside the documented band.

    Density is controlled (≤ 5 gates per input): a handful of inputs
    driving dozens of gates is pure reconvergence, a regime the paper's
    benchmarks never approach and where first-order EPP error is unbounded
    by design.  Inside the realistic band, a 200-circuit scan shows
    worst-case per-site error 0.33 and worst mean 0.083; the asserted
    bounds carry ~1.5x headroom over that envelope.
    """
    circuit = random_combinational(n_inputs, n_inputs * gates_per_input, seed=seed)
    truth = exhaustive_all_sites(circuit)
    engine = EPPEngine(circuit)
    errors = [
        abs(engine.p_sensitized(site) - truth[site]) for site in circuit.gates
    ]
    assert max(errors) < 0.5, max(errors)
    assert sum(errors) / len(errors) < 0.15, sum(errors) / len(errors)


# ------------------------------------------------- three-way with real pools


@pytest.mark.parametrize("seed", [11, 407, 90210])
def test_scalar_vector_sharded_threeway(seed):
    """The full differential triangle, sharded side on a real process pool
    (cone-clustered shards, results over the executor's pickle channel)."""
    circuit = random_combinational(8, 120, seed=seed)
    engine = EPPEngine(circuit)
    force_vector(engine)
    sharded = engine.sharded_backend(jobs=2)
    sharded.min_process_work = 0
    try:
        scalar = engine.analyze(backend="scalar")
        vector = engine.analyze(backend="vector")
        fanned = engine.analyze(backend="sharded", jobs=2)
        assert sharded.pool_started
    finally:
        sharded.close()
    assert_all_sites_agree(scalar, vector)
    assert_all_sites_agree(vector, fanned)
