"""SER component models: raw upset rate and latching window.

The paper factors a node's soft error rate as::

    SER(n_i) = R_SEU(n_i) x P_latched(n_i) x P_sensitized(n_i)

``P_sensitized`` comes from the EPP engine (:mod:`repro.core`); this
package provides the other two factors plus unit handling and the
hardening flows built on top of the full product:

* :mod:`repro.ser.seu_rate` — parametric ``R_SEU`` (flux x sensitive
  cross-section by gate type and drive strength), with technology presets.
* :mod:`repro.ser.latching` — latching-window derating ``P_latched``.
* :mod:`repro.ser.fit` — FIT (failures per 1e9 device-hours) conversions
  and aggregation.
* :mod:`repro.ser.hardening` — selective hardening and TMR evaluation,
  the paper's motivating application.
"""

from repro.ser.seu_rate import SEURateModel, TECHNOLOGY_PRESETS
from repro.ser.latching import LatchingModel
from repro.ser.fit import per_second_to_fit, fit_to_mtbf_years, combine_fit

__all__ = [
    "SEURateModel",
    "TECHNOLOGY_PRESETS",
    "LatchingModel",
    "per_second_to_fit",
    "fit_to_mtbf_years",
    "combine_fit",
]
