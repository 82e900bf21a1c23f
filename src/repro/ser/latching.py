"""Latching-window derating: ``P_latched(n_i)``.

A transient pulse arriving at a flip-flop's D pin is captured only if it
overlaps the latching window around the clock edge.  The standard
first-order model (Mohanram & Touba [3]; Nguyen & Yagil [4]) is::

    P_latched = (w - t_setup_hold) / T_clk        (clipped to [0, 1])

where ``w`` is the transient pulse width at the flip-flop input.  Pulses
narrower than the window can never be captured; pulses wider than the
clock period are always captured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["LatchingModel"]


@dataclass(frozen=True)
class LatchingModel:
    """Latching-window model with all times in seconds.

    Parameters
    ----------
    clock_period:
        ``T_clk`` (default 1 GHz clock = 1e-9 s).
    window:
        Setup+hold aperture ``t_setup_hold`` (default 50 ps).
    nominal_pulse_width:
        Transient width at the error site before any attenuation
        (default 150 ps, a typical 2005-era SET width).
    """

    clock_period: float = 1.0e-9
    window: float = 5.0e-11
    nominal_pulse_width: float = 1.5e-10

    def __post_init__(self) -> None:
        # Written so NaN fails too: it compares false against any bound.
        if not (math.isfinite(self.clock_period) and self.clock_period > 0):
            raise ConfigError(
                f"clock_period must be finite and > 0, got {self.clock_period}"
            )
        if not (math.isfinite(self.window) and self.window >= 0):
            raise ConfigError(f"window must be finite and >= 0, got {self.window}")
        if not (
            math.isfinite(self.nominal_pulse_width) and self.nominal_pulse_width >= 0
        ):
            raise ConfigError(
                "nominal_pulse_width must be finite and >= 0, "
                f"got {self.nominal_pulse_width}"
            )

    def p_latched(self, pulse_width: float | None = None) -> float:
        """Capture probability for a pulse of the given width (default nominal)."""
        width = self.nominal_pulse_width if pulse_width is None else pulse_width
        if not width >= 0:  # NaN fails too
            raise ConfigError(f"pulse_width must be >= 0, got {width}")
        effective = (width - self.window) / self.clock_period
        if effective < 0.0:
            return 0.0
        if effective > 1.0:
            return 1.0
        return effective
