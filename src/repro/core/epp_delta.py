"""Incremental what-if analysis: re-sweep only what an edit can touch.

The paper's SER estimates exist to drive design decisions — harden this
gate, triplicate that one — and a design loop applies many small netlist
edits in sequence.  A full re-analysis per edit wastes almost all of its
work: a local edit changes a site's result columns (``P_sensitized`` and
the cone size) only if the edit can influence that site's propagation.
This module makes the re-analysis proportional to the edit instead:

* :class:`EditSet` — a structured, replayable edit script over a
  :class:`~repro.netlist.circuit.Circuit`: gate replacement/rewiring,
  node addition/removal, output marking, signal-probability overrides,
  drive-strength hardening (metadata only — upsizing changes R_SEU, not
  the logic) and local TMR insertion
  (:func:`~repro.netlist.transform.triplicate_nodes`).  ``apply`` clones
  the circuit, replays the script and reports every node name the edits
  touched structurally.
* :func:`snapshot` — a full vectorized analysis packaged with everything
  a later delta needs: the two columns of the backend's column query
  (``analyze_sites``), the resolved SP map and its provenance, the
  site-list semantics and the backend knobs.
* :func:`analyze_delta` — the incremental step.  A site's columns
  depend only on its fanout cone's membership, those gates' functions
  and fanin lists, and the SPs the cone reads — so a site is dirty
  exactly when its cone (in the old *or* the new netlist) intersects
  the *seed set*: structurally edited nodes, plus the combinational
  users of every node whose signal probability changed bitwise (so
  correctness never depends on the SP method being local), plus the
  D-pin drivers of edited flip-flops (cones stop at DFF inputs, so
  sink-list changes must be seeded one hop upstream).  :func:`dirty_mask`
  computes exactly that set with a single reverse topological pass —
  the same reverse-reachability structure
  :class:`~repro.core.schedule.ConeIndex` bitsets encode, kept exact
  here by running it per edit instead of intersecting signatures.
  Deliberately *not* a forward-then-reverse butterfly: nodes merely
  downstream of an edit contribute nothing to an off-path site's column
  beyond their SP, and SP ripple is already captured explicitly by the
  bitwise diff.  Only dirty sites are re-swept, through the same column
  query as a full run; every clean site keeps its parent's columns.

Bit-identicality: every site's columns are computed independently of its
chunk-mates (the pinned invariant of :mod:`repro.core.epp_batch`), so a
retained column is byte-for-byte what a full re-analysis would have
produced, and a delta's columns are ``np.array_equal`` to re-running
:func:`snapshot` on the edited circuit — the differential tests pin
exactly that, plus 1e-9 agreement with the scalar oracle.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import AnalysisError, NetlistError
from repro.core.epp import EPPEngine
from repro.netlist.circuit import Circuit, CompiledCircuit
from repro.probability import signal_probabilities

__all__ = [
    "DeltaAnalysis",
    "EditSet",
    "Generation",
    "analyze_delta",
    "dirty_mask",
    "snapshot",
]

#: The analysis knobs a snapshot records and a delta may override — now
#: the authoritative tuple of :mod:`repro.core.config`, re-exported so
#: existing importers keep working.  The resilience knobs (sharded
#: backend only, like ``jobs``) let a caller — the analysis service most
#: of all — propagate a request's end-to-end deadline into the sharded
#: ``deadline`` knob for the sweep itself, not just the boundaries
#: around it.  ``fault_injector`` is the chaos harness's hook
#: (:class:`repro.testing.faults.FaultInjector`) — testing only, never
#: accepted over the analysis-service wire.
#: ``checkpoint`` (the sweep journal directory,
#: :mod:`repro.core.checkpoint`) is likewise server-controlled, never
#: wire-reachable: a client must not pick filesystem paths on the
#: service host.
from repro.core.config import (  # noqa: E402
    KNOB_KEYS,
    RESILIENCE_KNOB_KEYS,
    AnalysisConfig,
)


class EditSet:
    """A structured, replayable edit script over one circuit.

    Build it fluently (every method returns ``self``)::

        edits = (EditSet()
                 .replace_gate("g5", "nand")
                 .set_sp("in2", 0.9)
                 .harden("g7", strength_factor=8.0)
                 .tmr("g3"))

    ``apply`` replays the script onto a *copy* of a circuit — the
    original is never mutated — and returns the edited circuit together
    with the set of structurally touched node names (exactly the nodes
    whose function, fanin list or sink status changed), which is what
    the dirty-set computation seeds from.  ``harden`` is metadata-only:
    upsizing divides a node's SEU cross section without changing the
    logic, so it contributes no structural touches, and an edit set of
    nothing else (:attr:`metadata_only`) is never applied at all —
    :func:`analyze_delta` reuses the parent revision instead.
    """

    def __init__(self):
        self._ops: list[tuple] = []
        #: Signal-probability overrides (node name -> P(1)), applied on
        #: top of the reused/recomputed SP map by :func:`analyze_delta`.
        self.sp_overrides: dict[str, float] = {}
        #: Drive-strength factors (node name -> factor > 1); carried as
        #: metadata into the delta and applied by the SER layer.
        self.hardening: dict[str, float] = {}
        #: New-node -> source-node SP inheritance (TMR replicas), filled
        #: by :meth:`apply`; consulted when the analysis runs on a
        #: user-supplied SP map that cannot cover nodes it predates.
        self._sp_alias: dict[str, str] = {}

    @property
    def sp_aliases(self) -> dict[str, str]:
        """SP inheritance recorded by the most recent :meth:`apply`."""
        return dict(self._sp_alias)

    # ------------------------------------------------------------- builders

    def set_sp(self, name: str, value: float) -> "EditSet":
        """Override one node's signal probability."""
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise AnalysisError(
                f"set_sp({name!r}): probability out of [0, 1]: {value}"
            )
        self._ops.append(("set_sp", name, value))
        self.sp_overrides[name] = value
        return self

    def harden(self, name: str, strength_factor: float = 10.0) -> "EditSet":
        """Upsize a gate: divide its SEU cross section by the factor.

        Metadata-only — the logic (and every EPP value) is unchanged, so
        hardening edits never dirty any site; the SER layer divides the
        node's R_SEU by the accumulated factor instead.  A delta whose
        edits are all ``harden`` does no analysis work: it
        shares the parent revision's circuit, compiled view, SP map,
        engine and columns by reference and records only the new
        factors (see :func:`analyze_delta`).  Mixing in any structural
        or ``set_sp`` op forfeits that reuse for the whole set.  The
        factor must be finite and above 1.
        """
        factor = float(strength_factor)
        if not math.isfinite(factor) or factor <= 1.0:
            raise AnalysisError(
                f"harden({name!r}): strength_factor must be > 1 and "
                f"finite, got {factor}"
            )
        self._ops.append(("harden", name, factor))
        self.hardening[name] = self.hardening.get(name, 1.0) * factor
        return self

    def replace_gate(
        self,
        name: str,
        gate_type=None,
        fanin: Sequence[str] | None = None,
    ) -> "EditSet":
        """Swap an existing gate's type and/or fanin in place (name kept)."""
        self._ops.append(
            ("replace_gate", name, gate_type,
             None if fanin is None else tuple(fanin))
        )
        return self

    def add_gate(self, name: str, gate_type, fanin: Sequence[str]) -> "EditSet":
        """Add a new combinational gate."""
        self._ops.append(("add_gate", name, gate_type, tuple(fanin)))
        return self

    def remove_node(self, name: str) -> "EditSet":
        """Remove an unused node (fails if anything still references it)."""
        self._ops.append(("remove_node", name))
        return self

    def mark_output(self, name: str) -> "EditSet":
        """Mark a node as a primary output (a new observable sink)."""
        self._ops.append(("mark_output", name))
        return self

    def rewire(self, name: str, old: str, new: str) -> "EditSet":
        """Replace every occurrence of ``old`` in ``name``'s fanin by ``new``."""
        self._ops.append(("rewire", name, old, new))
        return self

    def tmr(self, *names: str) -> "EditSet":
        """Locally triplicate gates with majority voters (in-place TMR).

        Each named gate becomes a MAJ voter over three fresh replicas of
        itself (:func:`~repro.netlist.transform.triplicate_nodes`), so
        every user — and the gate's output marking — is untouched.
        """
        if not names:
            raise AnalysisError("tmr() needs at least one gate name")
        self._ops.append(("tmr", tuple(names)))
        return self

    # --------------------------------------------------------------- replay

    def __len__(self) -> int:
        return len(self._ops)

    def __bool__(self) -> bool:
        return True  # an empty edit set is still a (no-op) edit set

    @property
    def metadata_only(self) -> bool:
        """True when every op is ``harden`` (an empty set counts).

        Such a set leaves the netlist, the SP map and every EPP column
        exactly as they were; only the hardening factors change.
        """
        return all(op[0] == "harden" for op in self._ops)

    def apply(self, circuit: Circuit) -> tuple[Circuit, set[str]]:
        """Replay onto a copy of ``circuit``; return (edited, touched names).

        ``touched`` contains exactly the structurally edited nodes — the
        seed of the dirty-set computation.  SP overrides are validated
        here (the node must
        exist after the structural edits) but contribute to the dirty
        set through the bitwise SP diff, not through ``touched``.
        """
        from repro.netlist.transform import triplicate_nodes

        edited = circuit.copy()
        touched: set[str] = set()
        # Rebuilt per apply(): replica names can depend on the circuit
        # (suffix escalation), so aliases are a per-application artifact.
        self._sp_alias = {}
        for op in self._ops:
            kind = op[0]
            if kind == "set_sp":
                continue  # validated below, once all structure is in place
            if kind == "harden":
                edited.node(op[1])  # raises NetlistError on unknown nodes
                continue
            # ``touched`` holds exactly the nodes whose function, fanin
            # list or sink status changed — NOT their fanins.  A site
            # whose cone contains a touched node's *fanin* but not the
            # touched node itself reads that fanin's (unchanged) SP and
            # is unaffected; the reverse-reachability pass in
            # :func:`dirty_mask` follows each side's own edges, so paths
            # through old or new fanins are accounted for structurally.
            if kind == "replace_gate":
                _, name, gate_type, fanin = op
                edited.replace_gate(name, gate_type, fanin)
                touched.add(name)
            elif kind == "add_gate":
                _, name, gate_type, fanin = op
                edited.add_gate(name, gate_type, fanin)
                touched.add(name)
            elif kind == "remove_node":
                _, name = op
                edited.node(name)
                touched.add(name)
                edited.remove_node(name)
            elif kind == "mark_output":
                _, name = op
                edited.node(name)
                edited.mark_output(name)
                touched.add(name)
            elif kind == "rewire":
                _, name, old, new = op
                edited.replace_fanin(name, old, new)
                touched.add(name)
            elif kind == "tmr":
                for name in op[1]:
                    replicas = triplicate_nodes(edited, [name])[name]
                    touched.add(name)
                    touched.update(replicas)
                    for replica in replicas:
                        # Replicas compute the original gate's function on
                        # the original inputs, so under a user-supplied SP
                        # map they inherit the original node's SP (chasing
                        # one level keeps aliases rooted at pre-edit names
                        # when a voter from this same edit set is re-TMR'd).
                        self._sp_alias[replica] = self._sp_alias.get(name, name)
            else:  # pragma: no cover - builder methods are the only writers
                raise AssertionError(f"unknown edit op {kind!r}")
        for name in self.sp_overrides:
            if name not in edited:
                raise NetlistError(
                    f"set_sp: unknown node {name!r} after applying the "
                    "structural edits"
                )
        return edited, touched


def dirty_mask(
    compiled: CompiledCircuit,
    structural_names,
    sp_changed_names=(),
) -> bytearray:
    """Per-node flag: can the given edits affect this node's EPP column?

    A site's columns depend on three things only: which gates its
    fanout cone contains, each cone gate's function/fanin list, and the
    signal probabilities those gates read off-path.  So they can change
    only if the cone intersects the *seed set*:

    * a structurally edited node (function, fanin list or sink status
      changed) — ``structural_names``;
    * a node whose SP changed bitwise — its value seeds the site's own
      initial state, and every **combinational user** of it reads the SP
      as an off-path fanin value, so users seed too.  The bitwise diff
      already contains any downstream SP ripple explicitly (the engine
      recomputes the full map), so no forward closure is taken — that
      would conflate "downstream of an edit" with "reads a changed
      value" and drag in the whole butterfly ``TFI(TFO(edit))`` instead
      of ``TFI(edit)``;
    * the D-pin driver of a structurally edited flip-flop — the driver's
      *sink status* derives from the DFF, and cones stop at the D pin,
      so reachability through the DFF itself would never propagate.

    One reverse pass over the topological order then flags every node
    whose combinational fanout cone intersects the seeds — exactly the
    set whose columns must be re-swept.  Names absent from ``compiled``
    (nodes that exist only on the other side of the edit) are ignored;
    callers run this on both the old and the new netlist and union the
    verdicts.
    """
    n = compiled.n
    reach = bytearray(n)
    index = compiled.index
    combinational = [
        compiled.gate_type(node_id).is_combinational for node_id in range(n)
    ]
    from repro.netlist.gate_types import GateType

    for name in structural_names:
        node_id = index.get(name)
        if node_id is None:
            continue
        reach[node_id] = 1
        if compiled.gate_type(node_id) is GateType.DFF:
            reach[compiled.fanin(node_id)[0]] = 1
    for name in sp_changed_names:
        node_id = index.get(name)
        if node_id is None:
            continue
        reach[node_id] = 1
        for user_id in compiled.fanout(node_id):
            if combinational[user_id]:
                reach[user_id] = 1
    for node_id in reversed(compiled.topo):
        if not reach[node_id]:
            for user_id in compiled.fanout(node_id):
                if combinational[user_id] and reach[user_id]:
                    reach[node_id] = 1
                    break
    return reach


class Generation:
    """One pair of result columns and what they determine, computed once.

    A :func:`snapshot` or a structural delta starts a new generation; a
    metadata-only revision (:func:`_reuse_revision`) shares its parent's
    by reference.  :meth:`memo` entries may depend only on the columns,
    the site list and the compiled view — never on an SER model or a
    revision's hardening — so nothing invalidates them, and they die
    with the generation's last revision.
    """

    __slots__ = ("p_sensitized", "cone_sizes", "_memo")

    def __init__(self, p_sensitized: np.ndarray, cone_sizes: np.ndarray):
        self.p_sensitized = p_sensitized
        self.cone_sizes = cone_sizes
        self._memo: dict = {}

    def freeze(self) -> None:
        """Mark the columns read-only: every revision sharing them would
        see one write through either of them."""
        self.p_sensitized.setflags(write=False)
        self.cone_sizes.setflags(write=False)

    def memo(self, key: str, build):
        """``build()``'s value, computed on the first call for ``key``.

        Safe from several threads: racing builders may both compute the
        entry, the first one stored wins, and a reader only ever sees a
        finished value.
        """
        value = self._memo.get(key)
        if value is None:
            self.freeze()
            value = self._memo.setdefault(key, build())
        return value


class DeltaAnalysis:
    """One analysis revision in an incremental what-if chain.

    Holds the two per-site result columns of a full (or incremental)
    analysis plus the bookkeeping a further delta needs.  ``engine`` is
    the :class:`~repro.core.epp.EPPEngine` of *this* revision's circuit —
    chain onward with ``delta.apply(edits)`` (or
    ``delta.engine.analyze_delta(delta, edits)``).  Revisions that
    differ only in ``hardening`` share one engine and one
    :class:`Generation` (the read-only columns and their memo).
    """

    __slots__ = (
        "engine", "site_names", "site_ids", "generation", "default_sites",
        "user_sp", "sp_method", "sp_options", "sp_map", "sp_overrides",
        "hardening", "knobs", "stats",
    )

    @property
    def p_sensitized(self) -> np.ndarray:
        """``P_sensitized`` per site, aligned with ``site_names``."""
        return self.generation.p_sensitized

    @property
    def cone_sizes(self) -> np.ndarray:
        """On-path gates per site, aligned with ``site_names``."""
        return self.generation.cone_sizes

    def apply(self, edits: EditSet, sites=None, **knobs) -> "DeltaAnalysis":
        """Chain: re-analyze this revision after ``edits`` (see
        :func:`analyze_delta`)."""
        return analyze_delta(self, edits, sites=sites, **knobs)

    def __repr__(self) -> str:
        return (
            f"DeltaAnalysis({self.engine.circuit.name!r}: "
            f"{len(self.site_names)} sites, "
            f"dirty={self.stats['dirty']}, reused={self.stats['reused']})"
        )


def _normalize_knobs(knobs: Mapping) -> dict:
    # The config layer owns unknown-name rejection and value validation;
    # a snapshot's knob record stays a plain dict, which analyze_delta
    # merges per-key overrides into (an explicit None clears a recorded
    # knob — the service's degrade path relies on that).
    return AnalysisConfig.from_knobs(
        **{k: v for k, v in knobs.items() if v is not None}
    ).knobs()


def _column_backend(engine: EPPEngine, knobs: Mapping):
    """The backend object whose ``analyze_sites`` runs the (re-)sweep."""
    config = AnalysisConfig.from_knobs(
        **{k: v for k, v in knobs.items() if v is not None}
    )
    backend = config.effective_backend()
    if backend == "scalar":
        raise AnalysisError(
            "snapshot/analyze_delta sweep on the vector or sharded backend, "
            "whose columns every revision of a chain must share bit for "
            f"bit; backend={backend!r} is the per-site reference oracle "
            f"(use engine.analyze_columns(backend={backend!r}) to check a "
            "revision against it)"
        )
    # Mirror analyze()'s guard: a retry budget or deadline on the
    # in-process path would be silently meaningless.
    config.require_backend_support(backend)
    with engine._sweep_lock:
        return engine._backend(backend, config)


def snapshot(
    engine: EPPEngine,
    sites=None,
    **knobs,
) -> DeltaAnalysis:
    """A full column analysis plus the context for incremental deltas."""
    engine._check_current()
    resolved = _normalize_knobs(knobs)
    # The sweep lock serializes the engine's shared scratch — backend
    # cache slots, cone cache, chunk-width state matrices — so the
    # service's coalescing layer can snapshot one engine from several
    # threads without corrupting a sweep in flight.  Reentrant:
    # _column_backend takes it again.
    with engine._sweep_lock:
        backend = _column_backend(engine, resolved)
        defaulted = sites is None
        site_ids = [
            engine._cones.resolve(site)
            for site in (engine.default_sites() if defaulted else sites)
        ]
        columns = backend.analyze_sites(site_ids)
    site_names = [engine.compiled.names[site_id] for site_id in site_ids]

    delta = DeltaAnalysis()
    delta.engine = engine
    delta.site_names = site_names
    delta.site_ids = site_ids
    delta.generation = Generation(*columns)
    delta.default_sites = defaulted
    delta.user_sp = engine._user_sp
    delta.sp_method = engine._sp_method
    delta.sp_options = dict(engine._sp_options)
    delta.sp_map = {
        engine.compiled.names[node_id]: engine._sp[node_id]
        for node_id in range(engine.compiled.n)
    }
    # A delta-built engine carries the chain's accumulated SP overrides,
    # so a *fresh* snapshot of it keeps recomputed SP maps consistent.
    delta.sp_overrides = dict(getattr(engine, "_sp_delta_overrides", {}))
    # Hardening lives on revisions only: one engine backs every
    # metadata-only revision of its circuit, so a fresh snapshot starts
    # unhardened.
    delta.hardening = {}
    delta.knobs = resolved
    delta.stats = {
        "sites": len(site_names),
        "dirty": len(site_names),
        "reused": 0,
        "frontier": 0,
        "chain_length": 0,
    }
    return delta


def _accumulate_hardening(prev: DeltaAnalysis, edits: EditSet) -> dict:
    hardening = dict(prev.hardening)
    for name, factor in edits.hardening.items():
        hardening[name] = hardening.get(name, 1.0) * factor
    return hardening


def _prepare_reuse(prev: DeltaAnalysis, edits: EditSet, sites) -> dict | None:
    """The front half of a metadata-only delta, or ``None`` when
    ``sites`` names a different site list than the parent's."""
    circuit = prev.engine.circuit
    for name in edits.hardening:
        circuit.node(name)  # raises NetlistError on unknown nodes
    if sites is not None:
        engine = prev.engine
        requested = [
            engine.compiled.names[engine._cones.resolve(site)] for site in sites
        ]
        if requested != prev.site_names:
            return None
    return {"reuse": True, "hardening": _accumulate_hardening(prev, edits)}


def _prepare(prev: DeltaAnalysis, edits: EditSet, sites) -> dict:
    """The analysis-independent front half of a delta: apply the edits,
    derive the new SP map and the edit frontier, classify sites.

    A metadata-only edit set over the parent's site list short-cuts all
    of that (``context["reuse"]``): nothing it could compute differs
    from the parent revision.
    """
    engine = prev.engine
    engine._check_current()
    if edits.metadata_only:
        context = _prepare_reuse(prev, edits, sites)
        if context is not None:
            return context
    new_circuit, touched = edits.apply(engine.circuit)
    new_compiled = new_circuit.compiled()

    # ---- the new SP map: reuse (user-supplied) or recompute (engine
    # methods), then apply the chain's accumulated overrides.
    overrides = dict(prev.sp_overrides)
    overrides.update(edits.sp_overrides)
    computed = None
    if not prev.user_sp:
        computed = signal_probabilities(
            new_circuit, method=prev.sp_method, **prev.sp_options
        )
    aliases = edits.sp_aliases
    sp_map: dict[str, float] = {}
    missing: list[str] = []
    for name in new_compiled.names:
        if name in overrides:
            sp_map[name] = overrides[name]
        elif computed is not None:
            sp_map[name] = float(computed[name])
        elif name in prev.sp_map:
            sp_map[name] = prev.sp_map[name]
        elif aliases.get(name) in prev.sp_map:
            # TMR replicas compute the source gate's function on the
            # source gate's inputs — same SP by construction.
            sp_map[name] = prev.sp_map[aliases[name]]
        else:
            missing.append(name)
    if missing:
        raise AnalysisError(
            "analyze_delta: the analysis uses user-supplied signal "
            f"probabilities, which do not cover new node(s) "
            f"{missing[:3]!r}; add set_sp edits for them"
        )

    # ---- every bitwise SP change (including new and removed nodes).
    # Keeping this separate from the structural set matters: SP changes
    # seed their *users* in dirty_mask, structural edits seed only
    # themselves.  The bitwise diff is what keeps correctness independent
    # of the SP method's locality — a global backend simply dirties more.
    sp_changed: set[str] = set()
    for name, value in sp_map.items():
        old = prev.sp_map.get(name)
        if old is None or old != value:
            sp_changed.add(name)
    for name in prev.sp_map:
        if name not in sp_map:
            sp_changed.add(name)  # removed nodes dirty the old side
    frontier = touched | sp_changed

    hardening = {
        name: factor
        for name, factor in _accumulate_hardening(prev, edits).items()
        if name in new_compiled.index
    }

    new_engine = EPPEngine(new_circuit, signal_probs=sp_map)
    # Preserve SP provenance across the chain: the new engine's map is
    # materialized (we just built it), but *semantically* it is still
    # whatever the original analysis used.
    new_engine._user_sp = prev.user_sp
    new_engine._sp_method = prev.sp_method
    new_engine._sp_options = dict(prev.sp_options)
    new_engine._sp_delta_overrides = overrides

    dirty_old = dirty_mask(engine.compiled, touched, sp_changed)
    dirty_new = dirty_mask(new_compiled, touched, sp_changed)

    if sites is not None:
        site_names = [
            new_compiled.names[new_engine._cones.resolve(site)]
            for site in sites
        ]
        defaulted = False
    elif prev.default_sites:
        site_names = new_engine.default_sites()
        defaulted = True
    else:
        site_names = [
            name for name in prev.site_names if name in new_compiled.index
        ]
        defaulted = False

    old_column = {name: i for i, name in enumerate(prev.site_names)}
    old_index = engine.compiled.index
    new_index = new_compiled.index
    site_ids: list[int] = []
    dirty_flags: list[bool] = []
    for name in site_names:
        node_id = new_index[name]
        site_ids.append(node_id)
        dirty_flags.append(
            name not in old_column
            or bool(dirty_new[node_id])
            or bool(dirty_old[old_index[name]])
        )
    return {
        "reuse": False,
        "new_engine": new_engine,
        "sp_map": sp_map,
        "sp_overrides": overrides,
        "hardening": hardening,
        "frontier": frontier,
        "site_names": site_names,
        "site_ids": site_ids,
        "dirty_flags": dirty_flags,
        "defaulted": defaulted,
        "old_column": old_column,
    }


def _reuse_revision(
    prev: DeltaAnalysis, hardening: dict, sites, knobs: dict
) -> DeltaAnalysis:
    """A metadata-only revision: the parent's analysis, new hardening.

    The circuit, compiled view, SP map and engine (with its cached
    vector backend and batch plan) are shared by reference, and so are
    the generation — the columns, which are marked read-only first, and
    what was computed from them.
    """
    prev.generation.freeze()
    delta = DeltaAnalysis()
    delta.engine = prev.engine
    delta.site_names = list(prev.site_names)
    delta.site_ids = list(prev.site_ids)
    delta.generation = prev.generation
    delta.default_sites = prev.default_sites if sites is None else False
    delta.user_sp = prev.user_sp
    delta.sp_method = prev.sp_method
    delta.sp_options = dict(prev.sp_options)
    delta.sp_map = prev.sp_map
    delta.sp_overrides = prev.sp_overrides
    delta.hardening = hardening
    delta.knobs = knobs
    n_sites = len(delta.site_names)
    delta.stats = {
        "sites": n_sites,
        "dirty": 0,
        "reused": n_sites,
        "frontier": 0,
        "chain_length": prev.stats.get("chain_length", 0) + 1,
    }
    return delta


def analyze_delta(
    prev: DeltaAnalysis,
    edits: EditSet,
    sites=None,
    **knobs,
) -> DeltaAnalysis:
    """Incremental re-analysis: apply ``edits``, re-sweep only dirty sites.

    Returns a new :class:`DeltaAnalysis` over the edited circuit whose
    columns are ``np.array_equal`` to a full :func:`snapshot` of that
    circuit: each clean site keeps its parent column values byte for
    byte, and the dirty sites' come from a fresh column query
    (``analyze_sites``) over the same backends.  Keyword knobs override
    the snapshot's for the re-sweep.

    A metadata-only edit set (:attr:`EditSet.metadata_only`) over the
    parent's site list re-sweeps nothing and rebuilds nothing: the new
    revision shares the parent's circuit, compiled view, SP map, engine
    and (read-only) columns, so ``delta.engine is prev.engine``, and
    carries only the accumulated hardening factors.  Any structural or
    ``set_sp`` op, or an explicit ``sites`` list that differs from the
    parent's, takes the general path above.
    """
    # An override of one knob keeps the snapshot's choice for the rest.
    merged_knobs = dict(prev.knobs)
    for key, value in knobs.items():
        if key not in KNOB_KEYS:
            raise AnalysisError(
                f"unknown analysis knob {key!r}; choose from {KNOB_KEYS}"
            )
        merged_knobs[key] = value

    context = _prepare(prev, edits, sites)
    if context["reuse"]:
        return _reuse_revision(prev, context["hardening"], sites, merged_knobs)
    new_engine = context["new_engine"]
    site_names = context["site_names"]
    site_ids = context["site_ids"]
    dirty_flags = np.asarray(context["dirty_flags"], dtype=bool)
    n_sites = len(site_names)

    # Clean sites keep their parent columns; dirty ones are re-swept.
    dirty_positions = np.nonzero(dirty_flags)[0]
    clean_positions = np.nonzero(~dirty_flags)[0]
    old_column = context["old_column"]
    parent_columns = np.asarray(
        [old_column[site_names[position]] for position in clean_positions],
        dtype=np.intp,
    )
    p_sens = np.empty(n_sites)
    cone_sizes = np.empty(n_sites, dtype=np.intp)
    p_sens[clean_positions] = prev.p_sensitized[parent_columns]
    cone_sizes[clean_positions] = prev.cone_sizes[parent_columns]
    if len(dirty_positions):
        dirty_ids = [site_ids[position] for position in dirty_positions]
        with new_engine._sweep_lock:
            backend = _column_backend(new_engine, merged_knobs)
            p_sens[dirty_positions], cone_sizes[dirty_positions] = (
                backend.analyze_sites(dirty_ids)
            )

    delta = DeltaAnalysis()
    delta.engine = new_engine
    delta.site_names = site_names
    delta.site_ids = site_ids
    delta.generation = Generation(p_sens, cone_sizes)
    delta.default_sites = context["defaulted"] if sites is None else False
    delta.user_sp = prev.user_sp
    delta.sp_method = prev.sp_method
    delta.sp_options = dict(prev.sp_options)
    delta.sp_map = context["sp_map"]
    delta.sp_overrides = context["sp_overrides"]
    delta.hardening = context["hardening"]
    delta.knobs = merged_knobs
    delta.stats = {
        "sites": n_sites,
        "dirty": len(dirty_positions),
        "reused": len(clean_positions),
        "frontier": len(context["frontier"]),
        "chain_length": prev.stats.get("chain_length", 0) + 1,
    }
    return delta
