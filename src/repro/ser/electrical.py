"""Electrical-masking attenuation (extension beyond the paper).

The paper's EPP covers *logical* masking and its latching model covers
*temporal* masking; the third mechanism of Shivakumar et al. [6] is
*electrical* masking — each gate a transient traverses attenuates it, and
pulses below a cutoff width die out.  This module provides the standard
first-order level-count model::

    w_out = w_in - attenuation_per_level        (0 once below cutoff)

combined with :class:`~repro.ser.latching.LatchingModel` it derates deep
error sites more than shallow ones.  Disabled by default in the analyzer so
the reproduction matches the paper's two-factor model; the examples and
ablation benches switch it on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["ElectricalMaskingModel"]


@dataclass(frozen=True)
class ElectricalMaskingModel:
    """Linear per-level pulse attenuation, all times in seconds.

    Parameters
    ----------
    attenuation_per_level:
        Width lost per logic level traversed (default 10 ps).
    cutoff_width:
        Pulses at or below this width are considered fully masked
        (default 20 ps).
    """

    attenuation_per_level: float = 1.0e-11
    cutoff_width: float = 2.0e-11

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.attenuation_per_level)
            and self.attenuation_per_level >= 0
        ):
            raise ConfigError(
                "attenuation_per_level must be finite and >= 0, "
                f"got {self.attenuation_per_level}"
            )
        if not (math.isfinite(self.cutoff_width) and self.cutoff_width >= 0):
            raise ConfigError(
                f"cutoff_width must be finite and >= 0, got {self.cutoff_width}"
            )

    def width_after(self, initial_width: float, levels: int) -> float:
        """Pulse width after traversing ``levels`` gates (0 if masked)."""
        if levels < 0:
            raise ConfigError(f"levels must be >= 0, got {levels}")
        width = initial_width - levels * self.attenuation_per_level
        if width <= self.cutoff_width:
            return 0.0
        return width
