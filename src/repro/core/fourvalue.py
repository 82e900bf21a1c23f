"""The four-valued error-propagation probability vector.

Every *on-path* signal — a signal on some structural path from the error
site to an output — carries four probabilities (paper Section 2):

* ``pa``     — the signal equals the erroneous value ``a`` (the error has
  propagated with an **even** number of inversions);
* ``pa_bar`` — the signal equals ``ā`` (odd number of inversions);
* ``p0`` / ``p1`` — the error was blocked and the signal sits at constant
  0 / 1.

The four entries of an on-path signal sum to 1.  An *off-path* signal has
``pa = pa_bar = 0`` and ``p0 + p1 = 1`` — its vector is just its signal
probability.  These states are the D-calculus alphabet ``{D, D̄, 0, 1}``
with probabilities attached, which is what makes reconvergent fanout
first-order correct: two reconverging error paths with opposite parities
cancel exactly as the algebra dictates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError

__all__ = ["EPPValue"]

_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True, slots=True)
class EPPValue:
    """Immutable four-valued probability vector ``(pa, pa_bar, p0, p1)``.

    Use the constructors :meth:`error_site`, :meth:`off_path` and
    :meth:`blocked` for the three common shapes.  ``validate`` (default on)
    checks ranges and unit sum; engines that clamp tiny negative rounding
    residues construct with ``validate=False`` via :meth:`clamped`.
    (``slots=True`` both shrinks the footprint and speeds construction —
    full-circuit batch analyses build one instance per on-path sink per
    site, hundreds of thousands on Table 2-sized circuits.)
    """

    pa: float
    pa_bar: float
    p0: float
    p1: float

    def __post_init__(self) -> None:
        for field_name in ("pa", "pa_bar", "p0", "p1"):
            value = getattr(self, field_name)
            if not -_SUM_TOLERANCE <= value <= 1.0 + _SUM_TOLERANCE:
                raise AnalysisError(
                    f"EPPValue.{field_name} out of range [0,1]: {value!r}"
                )
        if abs(self.total - 1.0) > 1e-3:
            raise AnalysisError(
                f"EPPValue components must sum to 1, got {self.total!r} for {self!r}"
            )

    # ---------------------------------------------------------- constructors

    @staticmethod
    def error_site() -> "EPPValue":
        """The vector at the SEU site itself: the erroneous value with certainty."""
        return EPPValue(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def off_path(signal_probability: float) -> "EPPValue":
        """Vector of an off-path signal with the given probability of 1."""
        if not 0.0 <= signal_probability <= 1.0:
            raise AnalysisError(
                f"signal probability out of [0,1]: {signal_probability!r}"
            )
        return EPPValue(0.0, 0.0, 1.0 - signal_probability, signal_probability)

    @staticmethod
    def blocked(p1: float) -> "EPPValue":
        """Fully blocked error: constant 1 with probability ``p1``, else 0."""
        return EPPValue.off_path(p1)

    @staticmethod
    def clamped(pa: float, pa_bar: float, p0: float, p1: float) -> "EPPValue":
        """Construct with tiny negative rounding residues clamped to 0."""
        return EPPValue(
            pa if pa > 0.0 else 0.0,
            pa_bar if pa_bar > 0.0 else 0.0,
            p0 if p0 > 0.0 else 0.0,
            p1 if p1 > 0.0 else 0.0,
        )

    @staticmethod
    def _unchecked(pa: float, pa_bar: float, p0: float, p1: float) -> "EPPValue":
        """Construct without range/sum validation.

        Reserved for engine hot paths whose components are already clamped
        and normalized in bulk (the batch backend builds hundreds of
        thousands of sink vectors per full-circuit analyze; re-validating
        each would dominate the run).
        """
        value = object.__new__(EPPValue)
        _setattr = object.__setattr__
        _setattr(value, "pa", pa)
        _setattr(value, "pa_bar", pa_bar)
        _setattr(value, "p0", p0)
        _setattr(value, "p1", p1)
        return value

    # ------------------------------------------------------------ properties

    @property
    def total(self) -> float:
        return self.pa + self.pa_bar + self.p0 + self.p1

    @property
    def error_probability(self) -> float:
        """Probability the signal still carries the error (either polarity).

        This is the quantity ``Pa(PO) + Pā(PO)`` the paper feeds into
        ``P_sensitized``.
        """
        return self.pa + self.pa_bar

    # ------------------------------------------------------------ operations

    def invert(self) -> "EPPValue":
        """The vector after a NOT gate: polarities and constants swap."""
        return EPPValue(self.pa_bar, self.pa, self.p1, self.p0)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.pa, self.pa_bar, self.p0, self.p1)

    def isclose(self, other: "EPPValue", tolerance: float = 1e-9) -> bool:
        return (
            abs(self.pa - other.pa) <= tolerance
            and abs(self.pa_bar - other.pa_bar) <= tolerance
            and abs(self.p0 - other.p0) <= tolerance
            and abs(self.p1 - other.p1) <= tolerance
        )

    def __str__(self) -> str:
        """The paper's notation, e.g. ``0.042(a) + 0.392(a̅) + 0.168(0) + 0.398(1)``."""
        parts = []
        if self.pa:
            parts.append(f"{self.pa:.4g}(a)")
        if self.pa_bar:
            parts.append(f"{self.pa_bar:.4g}(a̅)")
        if self.p0:
            parts.append(f"{self.p0:.4g}(0)")
        if self.p1:
            parts.append(f"{self.p1:.4g}(1)")
        return " + ".join(parts) if parts else "0"
