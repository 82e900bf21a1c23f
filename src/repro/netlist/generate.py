"""Seeded synthetic benchmark circuit generator.

The original ISCAS'89 netlists are not redistributable in this offline
workspace, so the Table 2 experiment runs on *profile-matched synthetic
circuits*: for each benchmark the generator reproduces the published
interface and size statistics — primary inputs/outputs, flip-flop count,
combinational gate count, approximate logic depth and a realistic gate-type
mix — while the Boolean functions themselves are random.

Why this preserves the experiment: the EPP method's accuracy is governed by
reconvergent-fanout structure and its runtime by cone sizes; the random
baseline's runtime is governed by circuit size and vector count.  None of
these depend on the specific logic functions, so a structurally matched
circuit reproduces the *shape* of Table 2 (accuracy within a few percent,
orders-of-magnitude speedup).  See DESIGN.md §4.

Everything is deterministic: the default seed is derived from the circuit
name, so ``generate_iscas("s9234")`` always returns the same netlist.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from repro.errors import ConfigError
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType

__all__ = [
    "GenerationProfile",
    "ISCAS85_PROFILES",
    "ISCAS89_PROFILES",
    "generate_circuit",
    "generate_iscas",
    "random_combinational",
]

#: Default gate-type mix, shaped after the ISCAS'89 distribution
#: (NAND/NOR-heavy with a tail of inverters and a pinch of XOR).
DEFAULT_GATE_MIX: dict[GateType, float] = {
    GateType.AND: 0.20,
    GateType.NAND: 0.21,
    GateType.OR: 0.16,
    GateType.NOR: 0.16,
    GateType.NOT: 0.19,
    GateType.BUF: 0.04,
    GateType.XOR: 0.03,
    GateType.XNOR: 0.01,
}

#: Default fanin-count distribution for multi-input gates.
DEFAULT_FANIN_DIST: dict[int, float] = {2: 0.62, 3: 0.24, 4: 0.11, 5: 0.03}


@dataclass(frozen=True)
class GenerationProfile:
    """Target statistics for one synthetic circuit.

    ``depth`` is the *approximate* target combinational depth; the generator
    ramps gate levels linearly, so the realized depth lands within a couple
    of levels of the target.
    """

    name: str
    n_inputs: int
    n_outputs: int
    n_flip_flops: int
    n_gates: int
    depth: int
    gate_mix: dict[GateType, float] = field(default_factory=lambda: dict(DEFAULT_GATE_MIX))
    fanin_dist: dict[int, float] = field(default_factory=lambda: dict(DEFAULT_FANIN_DIST))

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise ConfigError(f"profile {self.name!r}: need at least one input")
        if self.n_gates < 1:
            raise ConfigError(f"profile {self.name!r}: need at least one gate")
        if self.n_outputs < 1 and self.n_flip_flops < 1:
            raise ConfigError(f"profile {self.name!r}: need an output or a flip-flop")
        if self.depth < 1:
            raise ConfigError(f"profile {self.name!r}: depth must be >= 1")


#: Approximate published profiles of the Table 2 ISCAS'89 circuits
#: (PI, PO, FF, combinational gates incl. inverters, logic depth).
#: Sizes follow the commonly cited benchmark tables; small deviations do not
#: affect the experiment (see module docstring).
ISCAS89_PROFILES: dict[str, GenerationProfile] = {
    profile.name: profile
    for profile in [
        GenerationProfile("s27", 4, 1, 3, 10, 5),
        GenerationProfile("s953", 16, 23, 29, 424, 16),
        GenerationProfile("s1196", 14, 14, 18, 547, 24),
        GenerationProfile("s1238", 14, 14, 18, 526, 22),
        GenerationProfile("s1423", 17, 5, 74, 731, 59),
        GenerationProfile("s1488", 8, 19, 6, 659, 17),
        GenerationProfile("s1494", 8, 19, 6, 653, 17),
        GenerationProfile("s9234", 36, 39, 211, 5808, 58),
        GenerationProfile("s15850", 77, 150, 534, 10306, 82),
        GenerationProfile("s35932", 35, 320, 1728, 16065, 29),
        GenerationProfile("s38584", 38, 304, 1426, 19253, 56),
        GenerationProfile("s38417", 28, 106, 1636, 22179, 47),
    ]
}


#: Approximate published profiles of the ISCAS'85 combinational benchmarks
#: (PI, PO, 0 FF, gates, depth) — used for combinational-only studies and
#: the COP/EPP ablations.
ISCAS85_PROFILES: dict[str, GenerationProfile] = {
    profile.name: profile
    for profile in [
        GenerationProfile("c17", 5, 2, 0, 6, 3),
        GenerationProfile("c432", 36, 7, 0, 160, 17),
        GenerationProfile("c499", 41, 32, 0, 202, 11),
        GenerationProfile("c880", 60, 26, 0, 383, 24),
        GenerationProfile("c1355", 41, 32, 0, 546, 24),
        GenerationProfile("c1908", 33, 25, 0, 880, 40),
        GenerationProfile("c2670", 233, 140, 0, 1193, 32),
        GenerationProfile("c3540", 50, 22, 0, 1669, 47),
        GenerationProfile("c5315", 178, 123, 0, 2307, 49),
        GenerationProfile("c6288", 32, 32, 0, 2406, 124),
        GenerationProfile("c7552", 207, 108, 0, 3512, 43),
    ]
}


def _seed_from_name(name: str) -> int:
    """Stable cross-run seed (Python's hash() is salted, crc32 is not)."""
    return zlib.crc32(name.encode("utf-8"))


def generate_iscas(name: str, seed: int | None = None) -> Circuit:
    """Generate the profile-matched synthetic stand-in for an ISCAS circuit.

    Accepts both ISCAS'89 (``s*``) and ISCAS'85 (``c*``) profile names.
    """
    profile = ISCAS89_PROFILES.get(name) or ISCAS85_PROFILES.get(name)
    if profile is None:
        known = sorted(ISCAS89_PROFILES) + sorted(ISCAS85_PROFILES)
        raise ConfigError(
            f"no ISCAS profile named {name!r}; known: {', '.join(known)}"
        )
    return generate_circuit(profile, seed=seed)


def generate_circuit(profile: GenerationProfile, seed: int | None = None) -> Circuit:
    """Generate a random circuit matching ``profile``.

    Construction: primary inputs and flip-flop Q nets form level 0; gates are
    created with linearly ramped target levels so the final depth matches the
    profile.  Each gate draws one driver from the level directly below it
    (realizing the target level) and the rest from anywhere lower, with a
    bias toward not-yet-consumed signals (keeps dead logic rare) and shared
    drivers (creates reconvergent fanout).  Primary outputs and DFF D-pins
    are then chosen, preferring unconsumed deep signals.
    """
    rng = random.Random(_seed_from_name(profile.name) if seed is None else seed)
    circuit = Circuit(profile.name)

    inputs = [circuit.add_input(f"pi{i}") for i in range(profile.n_inputs)]
    ff_names = [f"ff{i}" for i in range(profile.n_flip_flops)]
    # DFF nodes are added *after* the gates (forward references are legal),
    # but their Q nets participate as level-0 drivers from the start.
    sources = inputs + ff_names

    gate_types, gate_weights = zip(*profile.gate_mix.items())
    fanin_counts, fanin_weights = zip(*profile.fanin_dist.items())
    # What ``rng.choices`` accumulates from ``weights`` on every call.
    gate_cum = list(accumulate(gate_weights))
    fanin_cum = list(accumulate(fanin_weights))

    by_level: list[list[str]] = [list(sources)]
    level_of: dict[str, int] = {name: 0 for name in sources}
    unconsumed: set[str] = set(sources)
    gate_names: list[str] = []

    max_level = max(1, profile.depth)
    for i in range(profile.n_gates):
        if profile.n_gates > 1:
            target = 1 + (i * (max_level - 1)) // (profile.n_gates - 1)
        else:
            target = 1
        target = min(target, len(by_level))  # can't exceed current frontier + 1

        gate_type = rng.choices(gate_types, cum_weights=gate_cum, k=1)[0]
        if gate_type in (GateType.NOT, GateType.BUF):
            n_fanin = 1
        else:
            n_fanin = rng.choices(fanin_counts, cum_weights=fanin_cum, k=1)[0]

        drivers = _pick_drivers(rng, by_level, target, n_fanin, unconsumed)
        name = f"g{i}"
        circuit.add_gate(name, gate_type, drivers)
        gate_names.append(name)

        realized = 1 + max(level_of[d] for d in drivers)
        level_of[name] = realized
        while len(by_level) <= realized:
            by_level.append([])
        by_level[realized].append(name)
        unconsumed.add(name)
        for driver in drivers:
            unconsumed.discard(driver)

    # Sinks: prefer unconsumed gates (deepest first) so little logic is dead.
    dangling = sorted(
        (g for g in gate_names if g in unconsumed),
        key=lambda g: (-level_of[g], g),
    )
    po_pool = dangling + [g for g in gate_names if g not in unconsumed]
    if not gate_names:
        po_pool = list(sources)
    outputs = po_pool[: profile.n_outputs]
    while len(outputs) < profile.n_outputs:
        outputs.append(rng.choice(po_pool))
    for name in dict.fromkeys(outputs):  # preserve order, drop duplicates
        circuit.mark_output(name)

    output_set = set(outputs)
    remaining = [g for g in dangling if g not in output_set]
    candidates = remaining + gate_names + inputs
    for k, ff_name in enumerate(ff_names):
        d_driver = candidates[k] if k < len(remaining) else rng.choice(candidates)
        circuit.add_dff(ff_name, d_driver)

    circuit.compiled()
    return circuit


class _Levels:
    """The nodes of ``by_level[:stop]`` in one virtual sequence, without
    copying them: ``rng.choice`` reads only its length and the one index
    it draws, which a bisect over the running per-level counts finds."""

    __slots__ = ("by_level", "ends")

    def __init__(self, by_level: list[list[str]], stop: int):
        self.by_level = by_level
        self.ends = list(accumulate(map(len, by_level[:stop])))

    def __len__(self) -> int:
        return self.ends[-1]

    def __getitem__(self, index: int) -> str:
        level = bisect_right(self.ends, index)
        start = self.ends[level - 1] if level else 0
        return self.by_level[level][index - start]


def _pick_drivers(
    rng: random.Random,
    by_level: list[list[str]],
    target: int,
    n_fanin: int,
    unconsumed: set[str],
) -> list[str]:
    """Choose ``n_fanin`` distinct drivers realizing (approximately) ``target``.

    One driver comes from the deepest non-empty level below ``target`` so the
    gate lands near its target level; the remainder are drawn from all lower
    levels, preferring unconsumed signals half of the time.
    """
    anchor_level = min(target - 1, len(by_level) - 1)
    while anchor_level > 0 and not by_level[anchor_level]:
        anchor_level -= 1
    anchor = rng.choice(by_level[anchor_level])
    drivers = [anchor]

    eligible = _Levels(by_level, min(target, len(by_level)))
    attempts = 0
    while len(drivers) < n_fanin and attempts < 64:
        attempts += 1
        pick_unconsumed = unconsumed and rng.random() < 0.5
        if pick_unconsumed:
            # Cheap biased pick: sample a few candidates, keep an unconsumed
            # one if present (avoids materializing the intersection).
            candidate = None
            for _ in range(4):
                probe = rng.choice(eligible)
                if probe in unconsumed:
                    candidate = probe
                    break
            if candidate is None:
                candidate = rng.choice(eligible)
        else:
            candidate = rng.choice(eligible)
        if candidate not in drivers:
            drivers.append(candidate)
    while len(drivers) < n_fanin:
        # Tiny pools may not offer enough distinct drivers; duplicates are
        # legal (AND(x, x) is just x) and exceedingly rare in real profiles.
        drivers.append(rng.choice(eligible))
    return drivers


def random_combinational(
    n_inputs: int,
    n_gates: int,
    seed: int,
    n_outputs: int | None = None,
    depth: int | None = None,
    gate_mix: dict[GateType, float] | None = None,
) -> Circuit:
    """Small random *combinational* circuit, for tests and property checks.

    Unlike :func:`generate_circuit` this never creates flip-flops, making the
    result directly comparable against exhaustive-vector ground truth.
    """
    if depth is None:
        depth = max(2, n_gates // max(1, n_inputs))
    profile = GenerationProfile(
        name=f"rand_{n_inputs}x{n_gates}_{seed}",
        n_inputs=n_inputs,
        n_outputs=n_outputs if n_outputs is not None else max(1, n_gates // 8),
        n_flip_flops=0,
        n_gates=n_gates,
        depth=depth,
        gate_mix=dict(gate_mix) if gate_mix is not None else dict(DEFAULT_GATE_MIX),
    )
    return generate_circuit(profile, seed=seed)
