"""The :class:`Circuit` container and its compiled integer-array views.

Design
------
``Circuit`` is the friendly, name-based API: nodes are looked up by string
name, mutation methods validate as they go, and structure queries (fanout,
levels, topological order) are computed lazily and cached.

The analysis engines never walk the name-based structure.  They call
:meth:`Circuit.compiled` to obtain a :class:`CompiledCircuit`: a frozen
snapshot holding flat integer arrays (gate codes, CSR fanin/fanout,
topological order).  Hot loops index Python lists by int, which is the
fastest dispatch available without native code.

Terminology used throughout the library:

* *source* nodes drive values into the combinational network: primary
  inputs, constants, and DFF outputs (a DFF's Q pin is a source for the
  current cycle).
* *sink* signals are observed: primary outputs and DFF inputs (D pins).
* the *combinational interior* is everything else.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from repro.errors import NetlistError
from repro.netlist.gate_types import (
    GATE_CODES,
    GateType,
    check_arity,
    eval_gate_bool,
)

__all__ = ["Node", "Circuit", "CompiledCircuit"]


@dataclass(frozen=True)
class Node:
    """One named node: a primary input, constant, logic gate, or DFF.

    ``fanin`` holds driver *names* in pin order.  Node objects are immutable;
    mutating a circuit replaces the node.
    """

    name: str
    gate_type: GateType
    fanin: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_arity(self.gate_type, len(self.fanin), self.name)


class Circuit:
    """A gate-level netlist with named nodes.

    Nodes are created through :meth:`add_input`, :meth:`add_gate`,
    :meth:`add_dff` and :meth:`add_const`; output markers through
    :meth:`mark_output`.  Forward references are allowed while building —
    a gate may name a fanin that is added later — and are checked when the
    circuit is compiled or validated.

    Parameters
    ----------
    name:
        Circuit name, used in reports and as the default generator seed.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._outputs: list[str] = []
        self._mutation = 0
        self._compiled: CompiledCircuit | None = None
        self._compiled_mutation = -1

    # ------------------------------------------------------------------ build

    def _add_node(self, node: Node) -> None:
        if node.name in self._nodes:
            raise NetlistError(f"duplicate node name {node.name!r} in circuit {self.name!r}")
        if not node.name:
            raise NetlistError("node names must be non-empty strings")
        self._nodes[node.name] = node
        self._mutation += 1

    def add_input(self, name: str) -> str:
        """Declare a primary input. Returns the name for chaining."""
        self._add_node(Node(name, GateType.INPUT))
        return name

    def add_const(self, name: str, value: int) -> str:
        """Declare a constant-0 or constant-1 source node."""
        if value not in (0, 1):
            raise NetlistError(f"constant node {name!r} must be 0 or 1, got {value!r}")
        gate_type = GateType.CONST1 if value else GateType.CONST0
        self._add_node(Node(name, gate_type))
        return name

    def add_gate(self, name: str, gate_type: GateType | str, fanin: Sequence[str]) -> str:
        """Add a combinational gate driven by ``fanin`` (driver names, in pin order)."""
        if isinstance(gate_type, str):
            try:
                gate_type = GateType[gate_type.upper()]
            except KeyError:
                raise NetlistError(f"unknown gate type {gate_type!r} for node {name!r}") from None
        if not gate_type.is_combinational:
            raise NetlistError(
                f"add_gate({name!r}): {gate_type.value} is not a combinational gate; "
                "use add_input/add_dff/add_const"
            )
        self._add_node(Node(name, gate_type, tuple(fanin)))
        return name

    def add_dff(self, name: str, d_input: str) -> str:
        """Add a D flip-flop. ``name`` is the Q output net, ``d_input`` the D pin driver."""
        self._add_node(Node(name, GateType.DFF, (d_input,)))
        return name

    def mark_output(self, name: str) -> str:
        """Mark a node as a primary output. Idempotent; order of first marking is kept."""
        if name not in self._outputs:
            self._outputs.append(name)
            self._mutation += 1
        return name

    def remove_node(self, name: str) -> None:
        """Remove a node. Fails if any other node still references it as fanin."""
        if name not in self._nodes:
            raise NetlistError(f"cannot remove unknown node {name!r}")
        users = [n.name for n in self._nodes.values() if name in n.fanin]
        if users:
            raise NetlistError(
                f"cannot remove {name!r}: still drives {len(users)} node(s), e.g. {users[:3]}"
            )
        del self._nodes[name]
        if name in self._outputs:
            self._outputs.remove(name)
        self._mutation += 1

    def replace_fanin(self, name: str, old: str, new: str) -> None:
        """Rewire every occurrence of ``old`` in ``name``'s fanin to ``new``."""
        node = self.node(name)
        if old not in node.fanin:
            raise NetlistError(f"{old!r} is not a fanin of {name!r}")
        fanin = tuple(new if f == old else f for f in node.fanin)
        self._nodes[name] = Node(node.name, node.gate_type, fanin)
        self._mutation += 1

    def replace_gate(
        self,
        name: str,
        gate_type: GateType | str | None = None,
        fanin: Sequence[str] | None = None,
    ) -> str:
        """Swap an existing combinational gate's type and/or fanin in place.

        The node keeps its name, its declaration-order position and its
        output marking; every user keeps referencing it unchanged.  Only
        combinational gates can be replaced (inputs, constants and DFFs
        have structural roles an in-place swap would silently break).
        """
        node = self.node(name)
        if not node.gate_type.is_combinational:
            raise NetlistError(
                f"replace_gate({name!r}): only combinational gates can be "
                f"replaced, not {node.gate_type.value}"
            )
        if gate_type is None:
            gate_type = node.gate_type
        elif isinstance(gate_type, str):
            try:
                gate_type = GateType[gate_type.upper()]
            except KeyError:
                raise NetlistError(
                    f"unknown gate type {gate_type!r} for node {name!r}"
                ) from None
        if not gate_type.is_combinational:
            raise NetlistError(
                f"replace_gate({name!r}): {gate_type.value} is not a "
                "combinational gate"
            )
        new_fanin = node.fanin if fanin is None else tuple(fanin)
        self._nodes[name] = Node(name, gate_type, new_fanin)
        self._mutation += 1
        return name

    @property
    def mutation_token(self) -> int:
        """Monotonic edit counter — changes whenever the circuit mutates.

        Consumers holding derived state (a compiled view, an analysis
        engine) capture the token at build time and compare later to
        detect that their snapshot went stale.
        """
        return self._mutation

    # ------------------------------------------------------------------ query

    def node(self, name: str) -> Node:
        """Look up a node by name (raises :class:`NetlistError` if absent)."""
        try:
            return self._nodes[name]
        except KeyError:
            raise NetlistError(f"unknown node {name!r} in circuit {self.name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def node_names(self) -> list[str]:
        return list(self._nodes)

    @property
    def inputs(self) -> list[str]:
        """Primary input names, in declaration order."""
        return [n.name for n in self._nodes.values() if n.gate_type is GateType.INPUT]

    @property
    def outputs(self) -> list[str]:
        """Primary output names, in marking order."""
        return list(self._outputs)

    @property
    def flip_flops(self) -> list[str]:
        """DFF (Q net) names, in declaration order."""
        return [n.name for n in self._nodes.values() if n.gate_type is GateType.DFF]

    @property
    def gates(self) -> list[str]:
        """Combinational gate names, in declaration order."""
        return [n.name for n in self._nodes.values() if n.gate_type.is_combinational]

    @property
    def is_sequential(self) -> bool:
        return any(n.gate_type is GateType.DFF for n in self._nodes.values())

    # --------------------------------------------------------------- compiled

    def compiled(self) -> CompiledCircuit:
        """Return the cached compiled view, rebuilding it if the circuit changed."""
        if self._compiled is None or self._compiled_mutation != self._mutation:
            self._compiled = CompiledCircuit(self)
            self._compiled_mutation = self._mutation
        return self._compiled

    def levels(self) -> dict[str, int]:
        """Combinational level per node (sources at level 0)."""
        compiled = self.compiled()
        return {compiled.names[i]: compiled.level[i] for i in range(compiled.n)}

    def depth(self) -> int:
        """Maximum combinational level in the circuit."""
        compiled = self.compiled()
        return max(compiled.level, default=0)

    # ------------------------------------------------------------- evaluation

    def evaluate(self, assignment: Mapping[str, int]) -> dict[str, int]:
        """Evaluate the combinational network for one input assignment.

        ``assignment`` must provide a 0/1 value for every primary input and —
        if the circuit is sequential — for every DFF output (the current
        state).  Returns values for every node.  This is the slow reference
        evaluator used by tests; simulation workloads should use
        :mod:`repro.sim.logic_sim`.
        """
        compiled = self.compiled()
        values: list[int] = [0] * compiled.n
        for i in compiled.topo:
            gate_type = compiled.gate_type(i)
            if gate_type is GateType.INPUT or gate_type is GateType.DFF:
                name = compiled.names[i]
                if name not in assignment:
                    kind = "input" if gate_type is GateType.INPUT else "state (DFF)"
                    raise NetlistError(f"evaluate: missing {kind} value for {name!r}")
                value = int(assignment[name])
                if value not in (0, 1):
                    raise NetlistError(f"evaluate: {name!r} must be 0/1, got {value!r}")
                values[i] = value
            else:
                fanin_values = [values[j] for j in compiled.fanin(i)]
                values[i] = eval_gate_bool(gate_type, fanin_values)
        return {compiled.names[i]: values[i] for i in range(compiled.n)}

    # ---------------------------------------------------------------- utility

    def copy(self, name: str | None = None) -> "Circuit":
        """Deep-enough copy (nodes are immutable, so sharing them is safe)."""
        clone = Circuit(name if name is not None else self.name)
        clone._nodes = dict(self._nodes)
        clone._outputs = list(self._outputs)
        return clone

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}: {len(self.inputs)} PI, {len(self._outputs)} PO, "
            f"{len(self.flip_flops)} DFF, {len(self.gates)} gates)"
        )


class CompiledCircuit:
    """Frozen integer-array snapshot of a :class:`Circuit`.

    Attributes (all plain Python lists; indexing a list by int is the fastest
    per-element access in CPython):

    * ``n`` — node count; node ids are ``0..n-1`` in declaration order.
    * ``names`` / ``index`` — id↔name maps.
    * ``code`` — gate code per node (see :mod:`repro.netlist.gate_types`).
    * ``fanin_ptr`` / ``fanin_flat`` — CSR fanin ids (pin order preserved).
    * ``fanout_ptr`` / ``fanout_flat`` — CSR fanout ids (deduplicated).
    * ``topo`` — node ids in combinational topological order, sources first.
    * ``level`` — combinational level per node (sources = 0).
    * ``output_ids`` — primary output ids in marking order.
    * ``input_ids`` / ``dff_ids`` — source ids in declaration order.
    * ``sink_ids`` — observation points: POs followed by DFF D-pin drivers
      (deduplicated, order stable).  An SEU is *observable* iff it reaches a
      sink, matching the paper's "primary outputs or flip-flops".
    """

    def __init__(self, circuit: Circuit):
        nodes = list(circuit)
        self.n = len(nodes)
        self.names: list[str] = [node.name for node in nodes]
        self.index: dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self._types: list[GateType] = [node.gate_type for node in nodes]
        self.code: list[int] = [GATE_CODES[node.gate_type] for node in nodes]

        # CSR fanin (also validates that every referenced driver exists).
        self.fanin_ptr: list[int] = [0]
        self.fanin_flat: list[int] = []
        for node in nodes:
            for driver in node.fanin:
                driver_id = self.index.get(driver)
                if driver_id is None:
                    raise NetlistError(
                        f"node {node.name!r} references unknown driver {driver!r}"
                    )
                self.fanin_flat.append(driver_id)
            self.fanin_ptr.append(len(self.fanin_flat))

        # CSR fanout, deduplicated per (driver, user) pair.
        fanout_lists: list[list[int]] = [[] for _ in range(self.n)]
        for user_id in range(self.n):
            seen: set[int] = set()
            for driver_id in self.fanin(user_id):
                if driver_id not in seen:
                    fanout_lists[driver_id].append(user_id)
                    seen.add(driver_id)
        self.fanout_ptr = [0]
        self.fanout_flat: list[int] = []
        for lst in fanout_lists:
            self.fanout_flat.extend(lst)
            self.fanout_ptr.append(len(self.fanout_flat))

        self.input_ids: list[int] = [
            i for i, t in enumerate(self._types) if t is GateType.INPUT
        ]
        self.dff_ids: list[int] = [i for i, t in enumerate(self._types) if t is GateType.DFF]
        self.output_ids: list[int] = [self.index[name] for name in circuit.outputs]

        self.topo, self.level = self._toposort(nodes)

        sink_ids: list[int] = []
        sink_seen: set[int] = set()
        for out_id in self.output_ids:
            if out_id not in sink_seen:
                sink_ids.append(out_id)
                sink_seen.add(out_id)
        for dff_id in self.dff_ids:
            d_driver = self.fanin(dff_id)[0]
            if d_driver not in sink_seen:
                sink_ids.append(d_driver)
                sink_seen.add(d_driver)
        self.sink_ids = sink_ids

    # -- pickling -----------------------------------------------------------

    #: Attributes holding lazily-built execution plans cached on the
    #: compiled circuit by the vectorized engines: the batch EPP plan, the
    #: level-parallel SP plan, and the cone-scheduling index
    #: (:class:`~repro.core.schedule.ConeIndex`).  They contain kernel
    #: closures or derived structure and are cheap to rebuild, so pickling
    #: drops them — this is what lets a compiled circuit cross a process
    #: boundary once and be re-planned inside each worker
    #: (:mod:`repro.core.epp_shard`).
    _PLAN_CACHE_ATTRS = ("_batch_epp_plan", "_sp_level_plan", "_cone_index")

    def __getstate__(self):
        state = self.__dict__.copy()
        for attr in self._PLAN_CACHE_ATTRS:
            state.pop(attr, None)
        return state

    # -- small accessors ----------------------------------------------------

    def fanin(self, node_id: int) -> list[int]:
        return self.fanin_flat[self.fanin_ptr[node_id] : self.fanin_ptr[node_id + 1]]

    def fanout(self, node_id: int) -> list[int]:
        return self.fanout_flat[self.fanout_ptr[node_id] : self.fanout_ptr[node_id + 1]]

    def gate_type(self, node_id: int) -> GateType:
        return self._types[node_id]

    def is_source(self, node_id: int) -> bool:
        gate_type = self._types[node_id]
        return gate_type.is_source or gate_type is GateType.DFF

    # -- topology -----------------------------------------------------------

    def level_gate_groups(
        self,
        merge_codes: frozenset[int] | set[int],
        pad_one_codes: frozenset[int] | set[int],
    ) -> list[tuple[int, int, list[int], list[list[int]], int]]:
        """Combinational gates bucketed into rectangular per-level blocks.

        The common execution-plan shape of the vectorized engines (the
        batch EPP backend and the level-parallel SP pass): gates grouped by
        ``(level, gate code)`` — per exact arity normally, with mixed
        arities of ``merge_codes`` sharing one block via sentinel padding.
        Short fanin rows of merged blocks are padded to the block width
        with sentinel node id ``n`` (a constant-1 input, for codes in
        ``pad_one_codes``) or ``n + 1`` (constant 0); padding with a
        kernel's exact neutral element is a float identity, so consumers
        lose no precision.  Returns ``(level, code, out_ids, fanin_rows,
        width)`` tuples sorted by level; ``fanin_rows`` is rectangular.
        """
        one_id, zero_id = self.n, self.n + 1
        buckets: dict[tuple, tuple[list[int], list[list[int]]]] = {}
        for node_id in range(self.n):
            if not self.gate_type(node_id).is_combinational:
                continue
            pins = self.fanin(node_id)
            code = self.code[node_id]
            arity = -1 if code in merge_codes else len(pins)
            outs, fins = buckets.setdefault(
                (self.level[node_id], code, arity), ([], [])
            )
            outs.append(node_id)
            fins.append(pins)
        groups = []
        for (level, code, arity), (outs, fins) in sorted(buckets.items()):
            width = max(len(pins) for pins in fins)
            if arity == -1 and any(len(pins) != width for pins in fins):
                pad = one_id if code in pad_one_codes else zero_id
                fins = [pins + [pad] * (width - len(pins)) for pins in fins]
            groups.append((level, code, outs, fins, width))
        return groups

    def _toposort(self, nodes: list[Node]) -> tuple[list[int], list[int]]:
        """Kahn's algorithm over combinational edges.

        DFF nodes have no combinational in-edges (their D dependency crosses
        a cycle boundary), so they seed the frontier together with inputs and
        constants.  A nonempty remainder means a combinational cycle.
        """
        indegree = [0] * self.n
        for node_id in range(self.n):
            if self._types[node_id].is_combinational:
                # Count *unique* drivers to mirror the deduplicated fanout
                # edges (a gate may legally list the same driver twice).
                indegree[node_id] = len(set(self.fanin(node_id)))
        order: list[int] = []
        level = [0] * self.n
        frontier = [
            i
            for i in range(self.n)
            if indegree[i] == 0 and not self._types[i].is_combinational
        ]
        frontier += [
            i for i in range(self.n) if self._types[i].is_combinational and indegree[i] == 0
        ]
        head = 0
        order.extend(frontier)
        while head < len(order):
            node_id = order[head]
            head += 1
            for user_id in self.fanout(node_id):
                if not self._types[user_id].is_combinational:
                    continue  # DFF D-pin edge: crosses the clock boundary
                indegree[user_id] -= 1
                if level[user_id] < level[node_id] + 1:
                    level[user_id] = level[node_id] + 1
                if indegree[user_id] == 0:
                    order.append(user_id)
        if len(order) != self.n:
            stuck = [self.names[i] for i in range(self.n) if indegree[i] > 0][:5]
            raise NetlistError(
                f"combinational cycle detected involving nodes {stuck} "
                f"({self.n - len(order)} node(s) unordered)"
            )
        return order, level
