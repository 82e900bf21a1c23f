"""Incremental what-if analysis: staleness guards, edit sets, dirty sets, column reuse.

The tentpole invariant under test: ``analyze_delta(prev, edits)`` holds
``p_sensitized`` and ``cone_sizes`` columns ``np.array_equal`` —
bit-identical, not merely close — to a full ``snapshot`` of the edited
circuit, across every backend tier (vector, sharded) and along chains,
because clean sites keep their parent's values byte for byte and dirty
sites run through the very same column query; and to the dense oracle
sweep of ``tests.helpers`` on the edited circuit.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core.analysis import SERAnalyzer
from repro.core.epp import EPPEngine
from repro.core.epp_delta import EditSet, dirty_mask
from repro.errors import AnalysisError, NetlistError
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.netlist.generate import (
    GenerationProfile,
    generate_circuit,
    generate_iscas,
    random_combinational,
)
from repro.netlist.library import c17, s27

from tests.helpers import dense_backend


def assert_bit_identical(delta, full):
    assert delta.site_names == full.site_names
    assert np.array_equal(delta.p_sensitized, full.p_sensitized)
    assert np.array_equal(delta.cone_sizes, full.cone_sizes)
    assert delta.cone_sizes.dtype == full.cone_sizes.dtype


def full_resnapshot(delta):
    """A from-scratch snapshot of the delta's own circuit revision."""
    return delta.engine.snapshot(
        sites=None if delta.default_sites else delta.site_names,
        **delta.knobs,
    )


def assert_columns_exact(delta):
    """Both columns equal a fresh snapshot of the revision and the dense
    oracle's column query over its sites, bit for bit."""
    assert_bit_identical(delta, full_resnapshot(delta))
    p_sens, cone_sizes = dense_backend(delta.engine).analyze_sites(
        delta.site_ids
    )
    assert np.array_equal(delta.p_sensitized, p_sens)
    assert np.array_equal(delta.cone_sizes, cone_sizes)


# ------------------------------------------------------------------ staleness


class TestStalenessGuard:
    """Mutating a circuit under a live engine must raise, not mis-answer.

    Each test first *reproduces the stale read* the guard exists for:
    before the guard, the engine kept answering from its build-time
    compiled snapshot, returning numerically plausible values for the
    pre-edit netlist.
    """

    def test_replace_gate_invalidates_queries(self):
        circuit = c17()
        engine = EPPEngine(circuit)
        before = engine.p_sensitized("N10")
        # Swapping N16 changes its SP, which N10's error reads off-path
        # at N22 = NAND(N10, N16): the pre-edit answer IS stale.
        circuit.replace_gate("N16", "nor")
        assert EPPEngine(circuit).p_sensitized("N10") != pytest.approx(before)
        with pytest.raises(AnalysisError, match="mutated after"):
            engine.p_sensitized("N10")

    def test_mark_output_invalidates_queries(self):
        circuit = c17()
        engine = EPPEngine(circuit)
        engine.node_epp("N10")
        circuit.mark_output("N10")
        with pytest.raises(AnalysisError, match="mutated after"):
            engine.node_epp("N10")

    def test_replace_fanin_invalidates_analyze(self):
        circuit = c17()
        engine = EPPEngine(circuit)
        engine.analyze()
        circuit.replace_fanin("N22", "N10", "N1")
        with pytest.raises(AnalysisError, match="mutated after"):
            engine.analyze()

    def test_mutation_invalidates_snapshot(self):
        circuit = c17()
        engine = EPPEngine(circuit)
        circuit.add_gate("extra", GateType.NOT, ["N1"])
        with pytest.raises(AnalysisError, match="mutated after"):
            engine.snapshot()

    def test_every_mutator_bumps_the_token(self):
        circuit = c17()
        seen = {circuit.mutation_token}

        def bumped():
            token = circuit.mutation_token
            assert token not in seen, "mutator did not bump mutation_token"
            seen.add(token)

        circuit.add_gate("t1", GateType.NOT, ["N1"])
        bumped()
        circuit.replace_gate("t1", "buf")
        bumped()
        circuit.replace_fanin("t1", "N1", "N2")
        bumped()
        circuit.mark_output("t1")
        bumped()
        circuit.add_input("t2")
        bumped()
        circuit.add_dff("t3", "t1")
        bumped()

    def test_rebuilt_engine_answers(self):
        circuit = c17()
        engine = EPPEngine(circuit)
        circuit.replace_gate("N10", "nor")
        with pytest.raises(AnalysisError):
            engine.p_sensitized("N10")
        assert 0.0 <= EPPEngine(circuit).p_sensitized("N10") <= 1.0

    def test_mutation_invalidates_harden_only_delta(self):
        circuit = c17()
        engine = EPPEngine(circuit)
        prev = engine.snapshot()
        circuit.replace_gate("N10", "nor")
        with pytest.raises(AnalysisError, match="mutated after"):
            engine.analyze_delta(prev, EditSet().harden("N10", 2.0))

    def test_error_message_points_to_analyze_delta(self):
        circuit = c17()
        engine = EPPEngine(circuit)
        circuit.mark_output("N10")
        with pytest.raises(AnalysisError, match="analyze_delta"):
            engine.analyze()


# ------------------------------------------------------------------- edit set


class TestEditSet:
    def test_fluent_and_counts(self):
        edits = (
            EditSet()
            .replace_gate("g", "nand")
            .set_sp("a", 0.25)
            .harden("g", 4.0)
            .tmr("h")
        )
        assert len(edits) == 4

    def test_set_sp_out_of_range(self):
        with pytest.raises(AnalysisError, match="out of"):
            EditSet().set_sp("a", 1.5)

    def test_harden_needs_factor_above_one(self):
        with pytest.raises(AnalysisError, match="must be > 1"):
            EditSet().harden("g", 1.0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_harden_needs_finite_factor(self, factor):
        with pytest.raises(AnalysisError, match="finite"):
            EditSet().harden("g", factor)

    def test_tmr_needs_names(self):
        with pytest.raises(AnalysisError, match="at least one"):
            EditSet().tmr()

    def test_apply_never_mutates_the_original(self):
        circuit = c17()
        token = circuit.mutation_token
        edited, touched = EditSet().replace_gate("N10", "nor").apply(circuit)
        assert circuit.mutation_token == token
        assert circuit.node("N10").gate_type is GateType.NAND
        assert edited.node("N10").gate_type is GateType.NOR
        assert touched == {"N10"}

    def test_touched_is_exactly_the_edited_nodes(self):
        circuit = c17()
        edited, touched = (
            EditSet()
            .rewire("N22", "N10", "N16")
            .add_gate("extra", GateType.AND, ["N1", "N2"])
            .mark_output("extra")
            .apply(circuit)
        )
        # Fanins of edited nodes are NOT touched: reverse reachability
        # follows each side's own edges, so seeding them would only
        # inflate the dirty set.
        assert touched == {"N22", "extra"}

    def test_tmr_touches_replicas_and_aliases_their_sp(self):
        circuit = c17()
        edits = EditSet().tmr("N10")
        edited, touched = edits.apply(circuit)
        assert "N10" in touched and len(touched) == 4
        replicas = sorted(touched - {"N10"})
        assert edited.node("N10").gate_type is GateType.MAJ
        for replica in replicas:
            assert edits.sp_aliases[replica] == "N10"
            assert edited.node(replica).gate_type is GateType.NAND

    def test_remove_node_requires_it_unused(self):
        circuit = c17()
        with pytest.raises(NetlistError, match="still drives"):
            EditSet().remove_node("N10").apply(circuit)

    def test_sp_override_must_name_a_surviving_node(self):
        circuit = c17()
        with pytest.raises(NetlistError, match="unknown node"):
            EditSet().set_sp("ghost", 0.5).apply(circuit)

    def test_harden_unknown_node_rejected(self):
        with pytest.raises(NetlistError):
            EditSet().harden("ghost", 2.0).apply(c17())
        prev = EPPEngine(c17()).snapshot()
        with pytest.raises(NetlistError, match="ghost"):
            prev.apply(EditSet().harden("ghost", 2.0))


# ----------------------------------------------------------------- dirty mask


class TestDirtyMask:
    def build_chain(self):
        """a -> g1 -> g2 -> g3 -> out, with a side PO on g1."""
        circuit = Circuit("chain")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("g1", GateType.AND, ["a", "b"])
        circuit.add_gate("g2", GateType.NOT, ["g1"])
        circuit.add_gate("g3", GateType.OR, ["g2", "b"])
        circuit.mark_output("g1")
        circuit.mark_output("g3")
        return circuit

    def test_structural_edit_dirties_upstream_not_downstream(self):
        compiled = self.build_chain().compiled()
        mask = dirty_mask(compiled, {"g2"})
        flags = {compiled.names[i]: bool(mask[i]) for i in range(compiled.n)}
        # g2's column changes; anything whose cone contains g2 (g1, a, b)
        # changes; g3 is merely *downstream* -- its cone never contains
        # g2, so its column only reads g2's SP, which is handled by the
        # SP diff, not the structural seed.
        assert flags["g2"] and flags["g1"] and flags["a"] and flags["b"]
        assert not flags["g3"]

    def test_sp_change_dirties_users_and_upstream(self):
        compiled = self.build_chain().compiled()
        mask = dirty_mask(compiled, set(), {"g1"})
        flags = {compiled.names[i]: bool(mask[i]) for i in range(compiled.n)}
        # g2 *reads* g1's SP as an on/off-path value -> dirty; and
        # everything reaching g2 follows.
        assert flags["g1"] and flags["g2"] and flags["a"] and flags["b"]
        assert not flags["g3"]

    def test_dff_edit_seeds_the_d_driver(self):
        circuit = Circuit("seq")
        circuit.add_input("a")
        circuit.add_gate("g", GateType.NOT, ["a"])
        circuit.add_dff("q", "g")
        circuit.mark_output("q")
        compiled = circuit.compiled()
        mask = dirty_mask(compiled, {"q"})
        flags = {compiled.names[i]: bool(mask[i]) for i in range(compiled.n)}
        # Cones stop at D pins, so reachability alone would never reach
        # the DFF; the D driver is seeded explicitly (its sink list
        # derives from the DFF).
        assert flags["g"] and flags["a"]

    def test_unknown_names_ignored(self):
        compiled = self.build_chain().compiled()
        mask = dirty_mask(compiled, {"only_on_the_other_side"}, {"ghost"})
        assert not any(mask)


# --------------------------------------------------------------- bit identity

#: The backend tiers the acceptance criteria pin: the vector sweep at its
#: default chunk width, one site per chunk, a width that leaves a ragged
#: last chunk, and the sharded pool.
TIERS = [
    {},
    {"batch_size": 1},
    {"batch_size": 16},
    {"backend": "sharded", "jobs": 2},
]

#: Polarity swaps keep the netlist's shape; only the swapped gates'
#: cones propagate differently.
POLARITY_SWAP = {
    GateType.AND: "nand", GateType.NAND: "and",
    GateType.OR: "nor", GateType.NOR: "or",
}


def small_xor_swap():
    circuit = random_combinational(6, 60, seed=11)
    target = circuit.gates[len(circuit.gates) // 2]
    return circuit, EditSet().replace_gate(target, "xor")


def structural_mix():
    """A gate swap, an added observable gate and a local TMR at once."""
    circuit = random_combinational(6, 40, seed=23)
    gates = circuit.gates
    edits = (
        EditSet()
        .replace_gate(gates[5], "nor")
        .add_gate("extra", GateType.AND, [gates[0], gates[1]])
        .mark_output("extra")
        .tmr(gates[-1])
    )
    return circuit, edits


def s9234_polarity_swaps(count: int | None = None):
    """Swap ``g963`` (an AND) alone, or ``count`` evenly spaced
    AND/NAND/OR/NOR gates of s9234."""
    circuit = generate_iscas("s9234")
    gates = ["g963"]
    if count is not None:
        swappable = [
            name for name in circuit.gates
            if circuit.node(name).gate_type in POLARITY_SWAP
        ]
        gates = swappable[:: len(swappable) // count][:count]
    edits = EditSet()
    for name in gates:
        edits.replace_gate(name, POLARITY_SWAP[circuit.node(name).gate_type])
    return circuit, edits


#: (circuit and edits, snapshot knobs, sites the edits dirty).  At scale,
#: a local swap dirties 88 of s9234's 5,808 sites, and 58 swaps (1% of
#: the sites) dirty 5,091.
SWAP_CASES = [
    *(
        pytest.param(small_xor_swap, knobs, 53, id=f"knobs{index}")
        for index, knobs in enumerate(TIERS)
    ),
    pytest.param(
        s9234_polarity_swaps, {}, 88,
        id="s9234-g963", marks=pytest.mark.slow,
    ),
    pytest.param(
        lambda: s9234_polarity_swaps(58), {}, 5091,
        id="s9234-58-swaps", marks=pytest.mark.slow,
    ),
]


class TestBitIdentity:
    @pytest.mark.parametrize("build, knobs, dirty", SWAP_CASES)
    def test_single_gate_swap(self, build, knobs, dirty):
        circuit, edits = build()
        engine = EPPEngine(circuit)
        prev = engine.snapshot(**knobs)
        delta = engine.analyze_delta(prev, edits)
        assert delta.stats["dirty"] == dirty
        assert delta.stats["dirty"] + delta.stats["reused"] == delta.stats["sites"]
        assert_columns_exact(delta)

    @pytest.mark.parametrize("knobs", TIERS)
    def test_structural_mix(self, knobs):
        circuit, edits = structural_mix()
        engine = EPPEngine(circuit)
        prev = engine.snapshot(**knobs)
        delta = engine.analyze_delta(prev, edits)
        assert 0 < delta.stats["dirty"] < delta.stats["sites"]
        assert_columns_exact(delta)

    def test_cone_shrink_and_grow(self):
        circuit = random_combinational(6, 40, seed=7)
        engine = EPPEngine(circuit)
        prev = engine.snapshot()
        wide = next(
            name for name in circuit.gates
            if len(circuit.node(name).fanin) >= 3
            and circuit.node(name).gate_type
            in (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR)
        )
        shrunk = engine.analyze_delta(
            prev, EditSet().replace_gate(wide, fanin=circuit.node(wide).fanin[:2])
        )
        assert_columns_exact(shrunk)
        narrow = next(
            name for name in shrunk.engine.circuit.gates
            if len(shrunk.engine.circuit.node(name).fanin) == 2
            and shrunk.engine.circuit.node(name).gate_type
            in (GateType.AND, GateType.OR)
        )
        grown_fanin = shrunk.engine.circuit.node(narrow).fanin + (
            shrunk.engine.circuit.inputs[0],
        )
        grown = shrunk.apply(EditSet().replace_gate(narrow, fanin=grown_fanin))
        assert_columns_exact(grown)

    def test_chained_deltas(self):
        circuit = s27()
        engine = EPPEngine(circuit)
        prev = engine.snapshot()
        d1 = engine.analyze_delta(prev, EditSet().tmr("G10"))
        d2 = d1.apply(EditSet().set_sp("G0", 0.3))
        d3 = d2.apply(EditSet().replace_gate("G11", "or"))
        assert d3.stats["chain_length"] == 3
        for delta in (d1, d2, d3):
            assert_columns_exact(delta)

    def test_empty_edit_set_reuses_everything(self):
        engine = EPPEngine(c17())
        prev = engine.snapshot()
        delta = engine.analyze_delta(prev, EditSet())
        assert delta.stats["dirty"] == 0
        assert delta.stats["reused"] == delta.stats["sites"]
        assert delta.engine is prev.engine
        assert_columns_exact(delta)

    def test_harden_only_edit_resweeps_nothing(self):
        engine = EPPEngine(c17())
        prev = engine.snapshot()
        delta = engine.analyze_delta(prev, EditSet().harden("N10", 10.0))
        assert delta.stats["dirty"] == 0
        chained = delta.apply(EditSet().harden("N10", 2.0).harden("N11", 3.0))
        assert chained.hardening == {"N10": 20.0, "N11": 3.0}
        assert delta.hardening == {"N10": 10.0}  # the parent is untouched
        assert chained.engine is prev.engine
        assert chained.stats["chain_length"] == 2
        assert_columns_exact(chained)

    def test_scalar_oracle_agreement(self):
        engine = EPPEngine(s27())
        prev = engine.snapshot()
        delta = engine.analyze_delta(prev, EditSet().replace_gate("G10", "nor"))
        for name, value in zip(delta.site_names, delta.p_sensitized):
            assert value == pytest.approx(
                delta.engine.p_sensitized(name), abs=1e-9
            ), name

    def test_explicit_site_list_is_preserved(self):
        engine = EPPEngine(c17())
        sites = ["N22", "N10"]
        prev = engine.snapshot(sites=sites)
        assert not prev.default_sites
        delta = engine.analyze_delta(prev, EditSet().replace_gate("N16", "nor"))
        assert delta.site_names == sites
        assert_columns_exact(delta)

    def test_default_sites_rederived_after_add(self):
        engine = EPPEngine(c17())
        prev = engine.snapshot()
        delta = engine.analyze_delta(
            prev,
            EditSet().add_gate("extra", GateType.AND, ["N1", "N2"]).mark_output(
                "extra"
            ),
        )
        assert "extra" in delta.site_names
        assert_columns_exact(delta)

    def test_removed_site_drops_from_retained_list(self):
        circuit = c17()
        circuit.add_gate("spare", GateType.NOT, ["N1"])
        circuit.mark_output("spare")
        engine = EPPEngine(circuit)
        prev = engine.snapshot(sites=["N22", "spare"])
        dropped = engine.analyze_delta(prev, EditSet().remove_node("spare"))
        assert dropped.site_names == ["N22"]
        assert_columns_exact(dropped)

    def test_wrong_engine_rejected(self):
        engine_a = EPPEngine(c17())
        engine_b = EPPEngine(c17())
        prev = engine_a.snapshot()
        with pytest.raises(AnalysisError, match="different engine"):
            engine_b.analyze_delta(prev, EditSet())

    def test_scalar_backend_rejected(self):
        engine = EPPEngine(c17())
        with pytest.raises(AnalysisError, match="scalar"):
            engine.snapshot(backend="scalar")

    def test_unknown_knob_rejected(self):
        engine = EPPEngine(c17())
        prev = engine.snapshot()
        with pytest.raises(AnalysisError, match="unknown analysis knob"):
            engine.analyze_delta(prev, EditSet(), bogus=1)

    def test_knob_override_merges_per_key(self):
        engine = EPPEngine(c17())
        prev = engine.snapshot(backend="vector", batch_size=4)
        delta = engine.analyze_delta(
            prev, EditSet().replace_gate("N10", "nor"), batch_size=2
        )
        assert delta.knobs["batch_size"] == 2
        assert delta.knobs["backend"] == "vector"  # untouched keys survive
        assert_columns_exact(delta)

    def test_pool_sharded_chain(self, monkeypatch, tmp_path):
        """A snapshot and two chained structural deltas through a real
        two-worker pool (crossover guard off): every sweep ships two
        columns per shard, the snapshot's journal holds ``columns``
        shards, and every revision's columns are exact."""
        import json

        from repro.core.epp_shard import ShardedEPPEngine

        monkeypatch.setattr(ShardedEPPEngine, "_use_local",
                            lambda self, n_sites: False)
        circuit, edits = structural_mix()
        journal = tmp_path / "journal"
        prev = EPPEngine(circuit).snapshot(
            backend="sharded", jobs=2, checkpoint=str(journal)
        )
        revisions = [prev]
        try:
            manifest = json.loads((journal / "manifest.json").read_text())
            assert manifest["payload_key"].endswith("|kind=columns")
            first = prev.apply(edits)
            revisions.append(first)
            second = first.apply(
                EditSet().replace_gate(first.site_names[0], "xnor")
            )
            revisions.append(second)
            for delta in revisions:
                shards = delta.engine._sharded_backend.stats["pickle_shards"]
                assert shards > 0
                assert_columns_exact(delta)
            assert second.stats["chain_length"] == 2
            assert 0 < second.stats["dirty"] < second.stats["sites"]
        finally:
            for delta in revisions:
                delta.engine.release_buffers()


# ------------------------------------------------------------ sink-set edits

#: A small random sequential circuit: 5 inputs, 3 outputs, 6 flip-flops,
#: 60 gates, depth 8.
SEQUENTIAL = GenerationProfile("seq60", 5, 3, 6, 60, 8)


def sink_edit(circuit, op: str) -> EditSet:
    """One edit of kind ``op`` on a sequential ``circuit``.

    ``mark_output`` makes a gate that is no sink observable;
    ``rewire_d_pin`` moves a flip-flop's D pin onto such a gate;
    ``replace_d_driver`` turns a D driver into an AND of two primary
    inputs, so every site that reached it through its old fanin loses
    that sink; ``remove_output`` deletes a primary output nothing reads.
    """
    compiled = circuit.compiled()
    sinks = {compiled.names[sink_id] for sink_id in compiled.sink_ids}
    plain = [name for name in circuit.gates if name not in sinks]
    gate = plain[len(plain) // 2]
    flip_flop = circuit.flip_flops[0]
    driver = circuit.node(flip_flop).fanin[0]
    if op == "mark_output":
        return EditSet().mark_output(gate)
    if op == "rewire_d_pin":
        return EditSet().rewire(flip_flop, driver, gate)
    if op == "replace_d_driver":
        return EditSet().replace_gate(driver, "and", circuit.inputs[:2])
    read = {name for node in circuit for name in node.fanin}
    unused = next(name for name in circuit.outputs if name not in read)
    return EditSet().remove_node(unused)


def reachable_sinks(engine, site: str) -> frozenset:
    names = engine.compiled.names
    return frozenset(names[sink_id] for sink_id in engine.cone(site).sinks)


class TestSinkSetEdits:
    """A delta has no per-(site, sink) record a vanished sink could
    contradict, so the dirty set alone must catch every site whose sinks
    an edit adds, removes or re-routes.  The SP map is user-supplied, so
    no SP ripple dirties the sites for another reason."""

    @pytest.mark.parametrize("op", [
        "mark_output", "rewire_d_pin", "replace_d_driver", "remove_output",
    ])
    @pytest.mark.parametrize(
        "build",
        [s27, lambda: generate_circuit(SEQUENTIAL, seed=5)],
        ids=["s27", "random-sequential"],
    )
    def test_sink_changes_dirty_every_reaching_site(self, build, op,
                                                    monkeypatch):
        from repro.core.epp_batch import BatchEPPBackend

        circuit = build()
        base = EPPEngine(circuit)
        sp = dict(zip(base.compiled.names, base._sp))
        engine = EPPEngine(circuit, signal_probs=sp)
        prev = engine.snapshot()
        swept: list[int] = []
        column_query = BatchEPPBackend.analyze_sites

        def recording(backend, site_ids):
            swept.extend(site_ids)
            return column_query(backend, site_ids)

        monkeypatch.setattr(BatchEPPBackend, "analyze_sites", recording)
        delta = engine.analyze_delta(prev, sink_edit(circuit, op))
        monkeypatch.undo()

        new = delta.engine
        dirty = {new.compiled.names[site_id] for site_id in swept}
        assert len(dirty) == delta.stats["dirty"] > 0
        assert delta.stats["reused"] > 0  # the dirty set stays local
        names = engine.compiled.names
        old_sinks = {names[sink_id] for sink_id in engine.compiled.sink_ids}
        new_sinks = {
            new.compiled.names[sink_id] for sink_id in new.compiled.sink_ids
        }
        changed = old_sinks ^ new_sinks
        assert bool(changed) == (op != "replace_d_driver")
        reaching = 0
        for site in delta.site_names:
            after = reachable_sinks(new, site)
            before = (
                reachable_sinks(engine, site)
                if site in engine.compiled.index else None
            )
            if before is None or before != after or (before | after) & changed:
                reaching += 1
                assert site in dirty, site
        assert reaching > 0
        assert_columns_exact(delta)


class TestMetadataOnlyReuse:
    """A harden-only edit set reuses the parent revision outright.

    Nothing it could recompute differs from the parent — same netlist,
    same SP map, same columns — so the revision shares the parent's
    engine and columns and carries only the new hardening map.
    """

    @staticmethod
    def count_rebuilds(monkeypatch) -> dict:
        """Count SP passes, circuit compiles and engine builds."""
        import repro.core.epp as epp_module
        import repro.core.epp_delta as delta_module
        from repro.netlist.circuit import CompiledCircuit

        calls = {"sp": 0, "compile": 0, "engine": 0}

        def counting(key, func):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return wrapper

        for module in (delta_module, epp_module):
            monkeypatch.setattr(
                module, "signal_probabilities",
                counting("sp", module.signal_probabilities),
            )
        monkeypatch.setattr(
            CompiledCircuit, "__init__",
            counting("compile", CompiledCircuit.__init__),
        )
        monkeypatch.setattr(
            EPPEngine, "__init__", counting("engine", EPPEngine.__init__)
        )
        return calls

    def test_harden_only_delta_rebuilds_nothing(self, monkeypatch):
        engine = EPPEngine(s27())
        prev = engine.snapshot()
        calls = self.count_rebuilds(monkeypatch)
        delta = engine.analyze_delta(
            prev, EditSet().harden("G10", 10.0).harden("G11", 4.0)
        )
        assert calls == {"sp": 0, "compile": 0, "engine": 0}
        assert delta.engine is prev.engine
        assert delta.sp_map is prev.sp_map
        assert delta.hardening == {"G10": 10.0, "G11": 4.0}
        assert delta.stats == {
            "sites": len(prev.site_names), "dirty": 0,
            "reused": len(prev.site_names), "frontier": 0, "chain_length": 1,
        }
        assert delta.generation is prev.generation
        assert delta.p_sensitized is prev.p_sensitized
        assert delta.cone_sizes is prev.cone_sizes
        assert not delta.p_sensitized.flags.writeable
        assert not delta.cone_sizes.flags.writeable
        with pytest.raises(ValueError):
            delta.p_sensitized[0] = 0.5
        assert_columns_exact(delta)
        assert full_resnapshot(delta).hardening == {}  # revisions only

    def test_explicit_sites_reuse_only_when_they_match(self, monkeypatch):
        engine = EPPEngine(c17())
        prev = engine.snapshot()
        ids = [engine.compiled.index[name] for name in prev.site_names]
        same = engine.analyze_delta(prev, EditSet().harden("N10", 2.0), sites=ids)
        assert same.engine is prev.engine
        assert same.site_names == prev.site_names
        assert not same.default_sites

        sites = ["N22", "N10"]
        calls = self.count_rebuilds(monkeypatch)
        other = engine.analyze_delta(
            prev, EditSet().harden("N10", 2.0), sites=sites
        )
        assert calls["engine"] == 1
        assert other.engine is not prev.engine
        assert other.site_names == sites
        assert other.hardening == {"N10": 2.0}
        assert_columns_exact(other)

    def test_mixed_chain_stays_bit_identical(self):
        analyzer = SERAnalyzer(s27())
        prev = analyzer.snapshot()
        steps = [
            (EditSet().harden("G10", 10.0), False),
            (EditSet().replace_gate("G11", "or"), True),
            (EditSet().harden("G11", 4.0), False),
            (EditSet().set_sp("G0", 0.3), True),
            (EditSet().harden("G10", 2.0), False),
        ]
        for edits, rebuilds in steps:
            delta = prev.apply(edits)
            assert (delta.engine is not prev.engine) == rebuilds
            assert_columns_exact(delta)
            report = analyzer.report_for(delta)
            reference = SERAnalyzer(
                delta.engine.circuit, engine=delta.engine,
                hardening_factors=delta.hardening,
            ).analyze()
            assert report.total_fit == pytest.approx(
                reference.total_fit, rel=1e-12
            )
            prev = delta
        assert prev.hardening == {"G10": 20.0, "G11": 4.0}
        assert prev.stats["chain_length"] == len(steps)


class TestSiteResolution:
    """Every bulk query resolves its sites through the engine's
    ``ConeExtractor.resolve``: a negative id, a bool, a float and an id
    one past the last node raise AnalysisError on each of them."""

    @staticmethod
    def _query(engine, query, sites):
        if query == "analyze_columns":
            return engine.analyze_columns(sites=sites)
        if query == "snapshot":
            return engine.snapshot(sites=sites)
        prev = engine.snapshot()
        if query == "harden_delta":
            edits = EditSet().harden("N10", 2.0)
        else:
            edits = EditSet().replace_gate("N10", "nor")
        return engine.analyze_delta(prev, edits, sites=sites)

    @pytest.mark.parametrize("site", ["negative", "bool", "float", "past_end"])
    @pytest.mark.parametrize(
        "query", ["analyze_columns", "snapshot", "harden_delta", "structural_delta"]
    )
    def test_bad_site_raises(self, query, site):
        engine = EPPEngine(c17())
        bad = {
            "negative": -1,
            "bool": True,
            "float": 1.0,
            "past_end": engine.compiled.n,
        }[site]
        with pytest.raises(AnalysisError):
            self._query(engine, query, [bad])

    @pytest.mark.parametrize(
        "query", ["analyze_columns", "snapshot", "harden_delta", "structural_delta"]
    )
    def test_ids_and_names_resolve_alike(self, query):
        engine = EPPEngine(c17())
        ids = [engine.compiled.index["N22"], np.int64(engine.compiled.index["N10"])]
        by_id = self._query(engine, query, ids)
        by_name = self._query(engine, query, ["N22", "N10"])
        names = by_id[0] if query == "analyze_columns" else by_id.site_names
        assert names == ["N22", "N10"]
        if query != "analyze_columns":
            assert by_name.site_names == names
            assert np.array_equal(by_id.p_sensitized, by_name.p_sensitized)


class TestUserSuppliedSP:
    def make_engine(self):
        circuit = c17()
        base = EPPEngine(circuit)
        user_sp = {
            base.compiled.names[i]: base._sp[i] for i in range(base.compiled.n)
        }
        return circuit, EPPEngine(circuit, signal_probs=user_sp)

    def test_new_node_without_sp_is_an_error(self):
        _, engine = self.make_engine()
        prev = engine.snapshot()
        with pytest.raises(AnalysisError, match="set_sp"):
            engine.analyze_delta(
                prev, EditSet().add_gate("extra", GateType.AND, ["N1", "N2"])
            )

    def test_new_node_with_set_sp_works(self):
        _, engine = self.make_engine()
        prev = engine.snapshot()
        delta = engine.analyze_delta(
            prev,
            EditSet()
            .add_gate("extra", GateType.AND, ["N1", "N2"])
            .mark_output("extra")
            .set_sp("extra", 0.25),
        )
        assert_columns_exact(delta)

    def test_tmr_replicas_inherit_sp_via_alias(self):
        _, engine = self.make_engine()
        prev = engine.snapshot()
        # No set_sp for the replicas: they inherit N10's user SP.
        delta = engine.analyze_delta(prev, EditSet().tmr("N10"))
        assert_columns_exact(delta)
        replicas = [n for n in delta.sp_map if n not in prev.sp_map and n != "N10"]
        assert len(replicas) == 3
        for replica in replicas:
            assert delta.sp_map[replica] == prev.sp_map["N10"]

    def test_swap_under_user_sp_stays_local(self):
        """With a user SP map, a gate swap dirties only TFI(gate): no SP
        ripple exists because the user's map is authoritative."""
        _, engine = self.make_engine()
        prev = engine.snapshot()
        delta = engine.analyze_delta(prev, EditSet().replace_gate("N22", "and"))
        # N22 is a PO with nothing downstream: its TFI covers the sites
        # reaching it, and N19/N7 (in c17's other cone) stay clean.
        assert 0 < delta.stats["dirty"] < delta.stats["sites"]


# --------------------------------------------------------------- SER analyzer


class TestSERAnalyzerDelta:
    def test_report_for_applies_hardening(self):
        analyzer = SERAnalyzer(s27())
        prev = analyzer.snapshot()
        baseline = analyzer.report_for(prev)
        hardened = analyzer.analyze_delta(prev, EditSet().harden("G10", 10.0))
        report = analyzer.report_for(hardened)
        assert report.total_fit < baseline.total_fit
        assert report.nodes["G10"].fit == pytest.approx(
            baseline.nodes["G10"].fit / 10.0
        )

    def test_report_matches_full_analyze_without_edits(self):
        analyzer = SERAnalyzer(s27())
        report = analyzer.report_for(analyzer.snapshot())
        direct = analyzer.analyze()
        assert report.total_fit == pytest.approx(direct.total_fit)

    def test_chained_report_on_edited_circuit(self):
        analyzer = SERAnalyzer(s27())
        prev = analyzer.snapshot()
        delta = analyzer.analyze_delta(prev, EditSet().replace_gate("G11", "or"))
        report = analyzer.report_for(delta)
        rebuilt = SERAnalyzer(delta.engine.circuit).analyze()
        assert report.total_fit == pytest.approx(rebuilt.total_fit)

    @pytest.mark.parametrize(
        "circuit",
        [s27, lambda: random_combinational(8, 90, seed=4)],
        ids=["s27", "random"],
    )
    def test_packed_report_equals_materialized_report(self, circuit, monkeypatch):
        """report_for reads the revision's two columns; assembling the
        same revision from the EPPResults ``engine.analyze`` materializes
        from packed pairs (through the per-site reference loop) gives the
        identical report."""
        from repro.core.epp_batch import BatchEPPBackend
        from tests.helpers import ReferenceReport, reference_assemble

        analyzer = SERAnalyzer(circuit())
        delta = analyzer.snapshot()
        for site in delta.site_names[:3]:
            delta = delta.apply(EditSet().harden(site, 10.0))
        delta = delta.apply(EditSet().replace_gate(delta.site_names[-1], "xor"))
        delta = delta.apply(EditSet().harden(delta.site_names[0], 3.0))

        results = delta.engine.analyze(sites=delta.site_ids, backend="vector")
        assert list(results) == delta.site_names
        materialized = ReferenceReport(
            delta.engine.circuit.name,
            reference_assemble(
                analyzer,
                delta.engine.compiled,
                [
                    (site, result.p_sensitized, result.cone_size)
                    for site, result in results.items()
                ],
                delta.hardening,
            ),
        )

        def no_materialize(self, *args):
            raise AssertionError("the two-factor report materialized results")

        monkeypatch.setattr(BatchEPPBackend, "materialize", no_materialize)
        report = analyzer.report_for(delta)
        assert report.nodes == materialized.nodes
        assert list(report.nodes) == list(materialized.nodes)
        assert report.to_dict(5) == materialized.to_dict(5)
        assert report.total_fit == materialized.total_fit


# ------------------------------------------------------------- thread safety


class TestConcurrentSweeps:
    """The engine sweep lock (PR 8): one engine, many threads.

    The analysis service runs sweeps from worker threads against shared
    per-circuit engines, so concurrent ``snapshot()`` and
    ``analyze_delta()`` calls must serialize on the engine's internal
    scratch (scalar caches, cone caches, cached backend slots) and every
    thread must still get the bit-identical answer.
    """

    def test_concurrent_snapshots_are_identical(self):
        import threading

        engine = EPPEngine(random_combinational(8, 180, seed=11))
        reference = engine.snapshot()
        barrier = threading.Barrier(8)
        results: list = [None] * 8
        errors: list = []

        def sweep(slot):
            try:
                barrier.wait(timeout=10)
                results[slot] = engine.snapshot()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=sweep, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for snap in results:
            assert snap is not None
            assert_bit_identical(snap, reference)

    def test_concurrent_deltas_from_shared_base(self):
        import threading

        engine = EPPEngine(random_combinational(8, 180, seed=12))
        base = engine.snapshot()
        gates = [name for name, _ in zip(engine.circuit.gates, range(6))]
        # Sequential references first: each edit set applied to the base.
        references = [
            engine.analyze_delta(base, EditSet().harden(name, 10.0))
            for name in gates
        ]
        barrier = threading.Barrier(len(gates))
        results: list = [None] * len(gates)
        errors: list = []

        def what_if(slot, name):
            try:
                barrier.wait(timeout=10)
                results[slot] = engine.analyze_delta(
                    base, EditSet().harden(name, 10.0)
                )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=what_if, args=(i, name))
            for i, name in enumerate(gates)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for got, want in zip(results, references):
            assert got is not None
            assert got.site_names == want.site_names
            assert np.array_equal(got.p_sensitized, want.p_sensitized)

    def test_mixed_snapshot_and_delta_threads(self):
        import threading

        engine = EPPEngine(s27())
        base = engine.snapshot()
        snap_ref = np.asarray(base.p_sensitized)
        delta_ref = np.asarray(
            engine.analyze_delta(base, EditSet().harden("G10", 10.0)).p_sensitized
        )
        errors: list = []
        barrier = threading.Barrier(6)

        def snapshotter():
            try:
                barrier.wait(timeout=10)
                for _ in range(5):
                    assert np.array_equal(
                        np.asarray(engine.snapshot().p_sensitized), snap_ref
                    )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        def deltaist():
            try:
                barrier.wait(timeout=10)
                for _ in range(5):
                    delta = engine.analyze_delta(
                        base, EditSet().harden("G10", 10.0)
                    )
                    assert np.array_equal(
                        np.asarray(delta.p_sensitized), delta_ref
                    )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=snapshotter) for _ in range(3)]
        threads += [threading.Thread(target=deltaist) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
