"""Circuit container: construction, queries, topology, compiled views."""

import pytest

from repro.errors import NetlistError
from repro.netlist.circuit import Circuit, Node
from repro.netlist.gate_types import GateType


def tiny():
    circuit = Circuit("tiny")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("g", GateType.AND, ["a", "b"])
    circuit.mark_output("g")
    return circuit


def topo_names(circuit):
    """Node names in the compiled topological order the engines walk."""
    compiled = circuit.compiled()
    return [compiled.names[i] for i in compiled.topo]


class TestConstruction:
    def test_duplicate_name_rejected(self):
        circuit = tiny()
        with pytest.raises(NetlistError, match="duplicate"):
            circuit.add_input("a")

    def test_empty_name_rejected(self):
        with pytest.raises(NetlistError):
            Circuit().add_input("")

    def test_string_gate_type_accepted(self):
        circuit = Circuit()
        circuit.add_input("x")
        circuit.add_gate("y", "not", ["x"])
        assert circuit.node("y").gate_type is GateType.NOT

    def test_unknown_string_gate_type(self):
        circuit = Circuit()
        circuit.add_input("x")
        with pytest.raises(NetlistError, match="unknown gate type"):
            circuit.add_gate("y", "frobnicate", ["x"])

    def test_add_gate_rejects_non_combinational(self):
        circuit = Circuit()
        with pytest.raises(NetlistError, match="not a combinational"):
            circuit.add_gate("q", GateType.DFF, ["x"])

    def test_const_values(self):
        circuit = Circuit()
        circuit.add_const("zero", 0)
        circuit.add_const("one", 1)
        assert circuit.node("zero").gate_type is GateType.CONST0
        assert circuit.node("one").gate_type is GateType.CONST1
        with pytest.raises(NetlistError):
            circuit.add_const("two", 2)

    def test_node_arity_enforced_at_construction(self):
        with pytest.raises(NetlistError):
            Node("bad", GateType.NOT, ("a", "b"))

    def test_forward_references_allowed(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g1", GateType.NOT, ["g2"])  # g2 defined later
        circuit.add_gate("g2", GateType.BUF, ["a"])
        circuit.mark_output("g1")
        assert topo_names(circuit).index("g2") < topo_names(circuit).index("g1")


class TestQueries:
    def test_membership_and_len(self):
        circuit = tiny()
        assert "g" in circuit
        assert "nope" not in circuit
        assert len(circuit) == 3

    def test_unknown_node_raises_with_name(self):
        with pytest.raises(NetlistError, match="ghost"):
            tiny().node("ghost")

    def test_role_lists(self):
        circuit = tiny()
        circuit.add_dff("q", "g")
        assert circuit.inputs == ["a", "b"]
        assert circuit.outputs == ["g"]
        assert circuit.flip_flops == ["q"]
        assert circuit.gates == ["g"]
        assert circuit.is_sequential

    def test_mark_output_idempotent(self):
        circuit = tiny()
        circuit.mark_output("g")
        assert circuit.outputs == ["g"]

    def test_repr_mentions_counts(self):
        assert "2 PI" in repr(tiny())


class TestMutation:
    def test_remove_leaf_node(self):
        circuit = tiny()
        circuit.add_gate("dead", GateType.NOT, ["a"])
        circuit.remove_node("dead")
        assert "dead" not in circuit

    def test_remove_driving_node_rejected(self):
        circuit = tiny()
        with pytest.raises(NetlistError, match="still drives"):
            circuit.remove_node("a")

    def test_replace_fanin(self):
        circuit = tiny()
        circuit.add_input("c")
        circuit.replace_fanin("g", "b", "c")
        assert circuit.node("g").fanin == ("a", "c")

    def test_replace_fanin_unknown_pin(self):
        circuit = tiny()
        with pytest.raises(NetlistError, match="not a fanin"):
            circuit.replace_fanin("g", "zzz", "a")

    def test_mutation_invalidates_compiled_cache(self):
        circuit = tiny()
        before = circuit.compiled()
        circuit.add_gate("h", GateType.NOT, ["g"])
        after = circuit.compiled()
        assert after is not before
        assert after.n == before.n + 1

    def test_compiled_cache_reused_when_unchanged(self):
        circuit = tiny()
        assert circuit.compiled() is circuit.compiled()


class TestTopology:
    def test_drivers_precede_users(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("n1", GateType.NOT, ["a"])
        circuit.add_gate("n2", GateType.NOT, ["n1"])
        circuit.add_gate("n3", GateType.AND, ["n1", "n2"])
        circuit.mark_output("n3")
        order = topo_names(circuit)
        position = {name: i for i, name in enumerate(order)}
        for node in circuit:
            for driver in node.fanin:
                assert position[driver] < position[node.name]

    def test_levels_and_depth(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("n1", GateType.NOT, ["a"])
        circuit.add_gate("n2", GateType.NOT, ["n1"])
        circuit.mark_output("n2")
        levels = circuit.levels()
        assert levels == {"a": 0, "n1": 1, "n2": 2}
        assert circuit.depth() == 2

    def test_duplicate_driver_is_not_a_cycle(self):
        circuit = Circuit()
        circuit.add_input("x")
        circuit.add_gate("g", GateType.AND, ["x", "x"])
        circuit.mark_output("g")
        assert topo_names(circuit) == ["x", "g"]

    def test_combinational_cycle_detected(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("p", GateType.AND, ["a", "q"])
        circuit.add_gate("q", GateType.AND, ["a", "p"])
        circuit.mark_output("p")
        with pytest.raises(NetlistError, match="cycle"):
            circuit.compiled()

    def test_cycle_through_dff_is_legal(self):
        circuit = Circuit()
        circuit.add_input("en")
        circuit.add_gate("d", GateType.XOR, ["q", "en"])
        circuit.add_dff("q", "d")
        circuit.mark_output("q")
        order = topo_names(circuit)
        assert order.index("q") < order.index("d")

    def test_unknown_driver_reported_at_compile(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", GateType.NOT, ["missing"])
        circuit.mark_output("g")
        with pytest.raises(NetlistError, match="missing"):
            circuit.compiled()


class TestCompiledView:
    def test_csr_fanin_preserves_pin_order(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("m", GateType.MUX, ["b", "a", "b"])
        circuit.mark_output("m")
        compiled = circuit.compiled()
        pins = [compiled.names[i] for i in compiled.fanin(compiled.index["m"])]
        assert pins == ["b", "a", "b"]

    def test_fanout_deduplicated(self):
        circuit = Circuit()
        circuit.add_input("x")
        circuit.add_gate("g", GateType.AND, ["x", "x"])
        circuit.mark_output("g")
        compiled = circuit.compiled()
        assert compiled.fanout(compiled.index["x"]) == [compiled.index["g"]]

    def test_sink_ids_cover_outputs_and_dff_drivers(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g1", GateType.NOT, ["a"])
        circuit.add_gate("g2", GateType.NOT, ["g1"])
        circuit.add_dff("q", "g2")
        circuit.mark_output("g1")
        compiled = circuit.compiled()
        sinks = {compiled.names[i] for i in compiled.sink_ids}
        assert sinks == {"g1", "g2"}

    def test_is_source_counts_dff(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_dff("q", "a")
        circuit.mark_output("q")
        compiled = circuit.compiled()
        assert compiled.is_source(compiled.index["q"])
        assert compiled.is_source(compiled.index["a"])


class TestEvaluate:
    def test_and_gate(self):
        circuit = tiny()
        assert circuit.evaluate({"a": 1, "b": 1})["g"] == 1
        assert circuit.evaluate({"a": 1, "b": 0})["g"] == 0

    def test_missing_input_rejected(self):
        with pytest.raises(NetlistError, match="missing input"):
            tiny().evaluate({"a": 1})

    def test_sequential_needs_state(self):
        circuit = tiny()
        circuit.add_dff("q", "g")
        with pytest.raises(NetlistError, match="DFF"):
            circuit.evaluate({"a": 0, "b": 0})
        values = circuit.evaluate({"a": 0, "b": 0, "q": 1})
        assert values["q"] == 1

    def test_non_binary_value_rejected(self):
        with pytest.raises(NetlistError, match="0/1"):
            tiny().evaluate({"a": 2, "b": 0})

    def test_copy_is_independent(self):
        circuit = tiny()
        clone = circuit.copy("clone")
        clone.add_gate("extra", GateType.NOT, ["a"])
        assert "extra" not in circuit
        assert clone.name == "clone"
