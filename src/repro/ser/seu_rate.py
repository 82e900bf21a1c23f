"""Parametric raw SEU rate model: ``R_SEU(n_i)``.

The paper takes ``R_SEU`` as an input: "the bit-flip rate at node n_i which
depends on the particle flux, the energy of the particle, type and size of
the gate, and the device characteristics".  This module provides exactly
that parametric surface:

``R_SEU = flux x cross_section(gate_type) x drive_strength_factor``

with the per-type cross sections expressing that larger/more-complex cells
present more sensitive diffusion area, and the drive-strength factor that
upsized cells need more collected charge to flip (smaller cross section).

The numeric defaults are order-of-magnitude figures consistent with the
2005-era literature (sea-level neutron flux ~56.5 /m^2/s above 10 MeV;
per-cell sensitive cross sections of 1e-14..1e-13 cm^2), and they cancel
out of every *relative* result (rankings, speedups, percentage
differences).  Absolute FIT outputs should be read as calibrated-model
placeholders, as in the paper.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.errors import ConfigError
from repro.netlist.gate_types import GateType

__all__ = ["SEURateModel", "TECHNOLOGY_PRESETS"]

#: Relative sensitive-area weight per gate type (dimensionless).
_DEFAULT_TYPE_WEIGHTS: dict[GateType, float] = {
    GateType.NOT: 0.6,
    GateType.BUF: 0.6,
    GateType.AND: 1.0,
    GateType.NAND: 0.9,
    GateType.OR: 1.0,
    GateType.NOR: 0.9,
    GateType.XOR: 1.5,
    GateType.XNOR: 1.5,
    GateType.MUX: 1.4,
    GateType.MAJ: 1.8,
    GateType.DFF: 2.0,
    GateType.INPUT: 0.0,
    GateType.CONST0: 0.0,
    GateType.CONST1: 0.0,
}


@dataclass(frozen=True)
class SEURateModel:
    """``R_SEU`` as flux x cross-section x per-node factors.

    Parameters
    ----------
    flux:
        Particle flux in particles / cm^2 / s (default: sea-level neutron
        flux above 10 MeV, 5.65e-3 /cm^2/s).
    base_cross_section_cm2:
        Sensitive cross section of a reference (weight-1.0) gate in cm^2.
    type_weights:
        Relative sensitive-area weight per gate type.
    drive_strength:
        Per-node drive-strength factor map (node name -> factor).  A factor
        ``s`` divides the cross section by ``s`` (upsized cells are harder
        to upset).  Used by the gate-sizing hardening flow.

    Both maps are copied into read-only mappings once validated, so no
    value can change after the checks ran; derive a changed model with
    :func:`dataclasses.replace`.
    """

    flux: float = 5.65e-3
    base_cross_section_cm2: float = 5.0e-14
    type_weights: Mapping[str, float] = field(
        default_factory=lambda: {g.value: w for g, w in _DEFAULT_TYPE_WEIGHTS.items()}
    )
    drive_strength: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Finite and in range, not just "not below": NaN passes a plain
        # ``x < 0`` test, and a NaN FIT then slips past every sign check.
        if not (math.isfinite(self.flux) and self.flux >= 0):
            raise ConfigError(f"flux must be finite and >= 0, got {self.flux}")
        if not (
            math.isfinite(self.base_cross_section_cm2)
            and self.base_cross_section_cm2 >= 0
        ):
            raise ConfigError(
                "base_cross_section_cm2 must be finite and >= 0, "
                f"got {self.base_cross_section_cm2}"
            )
        for gate_type, weight in self.type_weights.items():
            if not (math.isfinite(weight) and weight >= 0):
                raise ConfigError(
                    f"type weight for {gate_type} must be finite and >= 0, "
                    f"got {weight}"
                )
        for name, factor in self.drive_strength.items():
            if not (math.isfinite(factor) and factor > 0):
                raise ConfigError(
                    f"drive strength for {name!r} must be finite and > 0, "
                    f"got {factor}"
                )
        for name in ("type_weights", "drive_strength"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    def __reduce__(self):
        # A read-only mapping does not pickle; its plain copy does, and
        # the rebuilt model validates it again.
        return type(self), (
            self.flux,
            self.base_cross_section_cm2,
            dict(self.type_weights),
            dict(self.drive_strength),
        )

    def type_weight(self, gate_type: GateType) -> float:
        """Relative sensitive-area weight of one gate type."""
        weight = self.type_weights.get(gate_type.value)
        if weight is None:
            raise ConfigError(f"no type weight for gate type {gate_type.value}")
        return weight

    def rate(self, gate_type: GateType, node_name: str | None = None) -> float:
        """Raw upset rate (upsets/second) for one node."""
        weight = self.type_weight(gate_type)
        strength = self.drive_strength.get(node_name, 1.0) if node_name else 1.0
        return self.flux * self.base_cross_section_cm2 * weight / strength



#: Named presets: rough technology/environment corners for examples and
#: sensitivity studies.  ``flux`` scales with altitude; cross sections
#: shrink with feature size while per-bit sensitivity grows — the numbers
#: here are illustrative corners, not foundry data.
TECHNOLOGY_PRESETS: dict[str, SEURateModel] = {
    "sea-level-180nm": SEURateModel(flux=5.65e-3, base_cross_section_cm2=5.0e-14),
    "sea-level-130nm": SEURateModel(flux=5.65e-3, base_cross_section_cm2=8.0e-14),
    "sea-level-90nm": SEURateModel(flux=5.65e-3, base_cross_section_cm2=1.2e-13),
    "avionics-130nm": SEURateModel(flux=3.0, base_cross_section_cm2=8.0e-14),
}
