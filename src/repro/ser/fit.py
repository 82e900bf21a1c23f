"""FIT unit handling and aggregation.

FIT (Failures In Time) is the reliability community's unit for soft error
rates: failures per 10^9 device-hours.  Per-node rates computed as
``R_SEU x P_latched x P_sensitized`` are in failures/second; these helpers
convert and combine them.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "per_second_to_fit",
    "rates_to_fit",
    "combine_fit",
    "sum_fit",
]

_SECONDS_PER_1E9_HOURS = 3600.0 * 1.0e9


def per_second_to_fit(rate_per_second: float) -> float:
    """failures/second -> FIT (failures per 1e9 device-hours)."""
    if not rate_per_second >= 0:  # NaN fails too
        raise ConfigError(f"rate must be >= 0, got {rate_per_second}")
    return rate_per_second * _SECONDS_PER_1E9_HOURS


def rates_to_fit(rates: np.ndarray) -> np.ndarray:
    """:func:`per_second_to_fit` over a float64 array, element for element.

    Raises for the first negative or NaN rate, as a loop of scalar calls
    would.
    """
    bad = np.flatnonzero(~(rates >= 0))
    if bad.size:
        raise ConfigError(f"rate must be >= 0, got {float(rates[bad[0]])}")
    return rates * _SECONDS_PER_1E9_HOURS


def combine_fit(node_fits: Iterable[float]) -> float:
    """Circuit-level FIT: rates of rare independent upsets add linearly."""
    total = 0.0
    for fit in node_fits:
        if not fit >= 0:  # NaN fails too
            raise ConfigError(f"FIT must be >= 0, got {fit}")
        total += fit
    return total


def sum_fit(fits: np.ndarray) -> float:
    """:func:`combine_fit` over a float64 array, bit for bit.

    ``np.add.accumulate`` adds left to right, as the loop does; ``np.sum``
    adds pairwise and can differ in the last bits.  Adding the result to
    ``0.0`` reproduces the loop's start value (it turns a ``-0.0`` total
    into ``0.0``).
    """
    bad = np.flatnonzero(~(fits >= 0))
    if bad.size:
        raise ConfigError(f"FIT must be >= 0, got {float(fits[bad[0]])}")
    if not len(fits):
        return 0.0
    return 0.0 + float(np.add.accumulate(fits)[-1])
