"""SER component models: R_SEU, latching window, FIT."""

import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from repro.core.analysis import SERAnalyzer
from repro.errors import ConfigError
from repro.netlist.gate_types import GateType
from repro.netlist.library import c17
from repro.ser.fit import combine_fit, per_second_to_fit, rates_to_fit, sum_fit
from repro.ser.latching import LatchingModel
from repro.ser.seu_rate import TECHNOLOGY_PRESETS, SEURateModel


class TestSEURate:
    def test_rate_is_flux_times_cross_section(self):
        model = SEURateModel(flux=1.0, base_cross_section_cm2=2.0)
        assert model.rate(GateType.AND) == pytest.approx(2.0)

    def test_type_weights_differentiate_cells(self):
        model = SEURateModel()
        assert model.rate(GateType.XOR) > model.rate(GateType.NOT)
        assert model.rate(GateType.DFF) > model.rate(GateType.NAND)

    def test_sources_have_zero_rate(self):
        model = SEURateModel()
        assert model.rate(GateType.INPUT) == 0.0
        assert model.rate(GateType.CONST0) == 0.0

    def test_drive_strength_divides_rate(self):
        model = SEURateModel(drive_strength={"big_gate": 4.0})
        weak = model.rate(GateType.AND, "normal_gate")
        strong = model.rate(GateType.AND, "big_gate")
        assert strong == pytest.approx(weak / 4.0)

    def test_maps_are_read_only_after_validation(self):
        weights = dict(SEURateModel().type_weights)
        model = SEURateModel(type_weights=weights, drive_strength={"g": 2.0})
        with pytest.raises(TypeError):
            model.type_weights["NAND"] = float("inf")
        with pytest.raises(TypeError):
            model.drive_strength["g"] = 0.0
        weights["NAND"] = float("inf")  # the caller's dict was copied
        assert model.type_weights["NAND"] == 0.9

    def test_infinite_weight_cannot_reach_the_json(self):
        model = SEURateModel()
        with pytest.raises(TypeError):
            model.type_weights["NAND"] = float("inf")
        report = SERAnalyzer(c17(), seu_model=model).analyze().to_dict(1)
        json.dumps(report, allow_nan=False)  # raises on Infinity or NaN

    def test_functional_updates_and_pickle_keep_equality(self):
        model = SEURateModel(drive_strength={"g": 2.0})
        assert pickle.loads(pickle.dumps(model)) == model
        assert copy.deepcopy(model) == model
        assert dataclasses.replace(model, flux=1.0).drive_strength == {"g": 2.0}
        assert dataclasses.replace(model) == model
        updated = dataclasses.replace(
            model, drive_strength={**model.drive_strength, "h": 3.0}
        )
        assert updated.drive_strength == {"g": 2.0, "h": 3.0}
        assert model.drive_strength == {"g": 2.0}
        with pytest.raises(TypeError):
            pickle.loads(pickle.dumps(model)).drive_strength["g"] = 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            SEURateModel(flux=-1.0)
        with pytest.raises(ConfigError):
            SEURateModel(base_cross_section_cm2=-1e-15)
        with pytest.raises(ConfigError):
            SEURateModel(drive_strength={"g": 0.0})

    @pytest.mark.parametrize("kwargs", [
        {"flux": float("nan")},
        {"flux": float("inf")},
        {"base_cross_section_cm2": float("nan")},
        {"base_cross_section_cm2": float("inf")},
        {"type_weights": {"AND": -1.0}},
        {"type_weights": {"AND": float("nan")}},
        {"type_weights": {"AND": float("inf")}},
        {"drive_strength": {"g": float("nan")}},
        {"drive_strength": {"g": float("inf")}},
    ], ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()))
    def test_rejects_non_finite_and_negative_weights(self, kwargs):
        with pytest.raises(ConfigError, match="finite"):
            SEURateModel(**kwargs)

    def test_presets_exist_and_scale(self):
        sea = TECHNOLOGY_PRESETS["sea-level-130nm"]
        avionics = TECHNOLOGY_PRESETS["avionics-130nm"]
        assert avionics.rate(GateType.AND) > 100 * sea.rate(GateType.AND)


class TestLatching:
    def test_window_formula(self):
        model = LatchingModel(clock_period=1e-9, window=5e-11, nominal_pulse_width=1.5e-10)
        assert model.p_latched() == pytest.approx((1.5e-10 - 5e-11) / 1e-9)

    def test_narrow_pulse_never_latches(self):
        model = LatchingModel(window=5e-11, nominal_pulse_width=4e-11)
        assert model.p_latched() == 0.0

    def test_wide_pulse_always_latches(self):
        model = LatchingModel(clock_period=1e-9, nominal_pulse_width=2e-9)
        assert model.p_latched() == 1.0

    def test_monotone_in_pulse_width(self):
        widths = [1e-11 * k for k in range(1, 30)]
        values = [LatchingModel(nominal_pulse_width=w).p_latched() for w in widths]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(ConfigError):
            LatchingModel(clock_period=0.0)
        with pytest.raises(ConfigError):
            LatchingModel(window=-1.0)
        with pytest.raises(ConfigError):
            LatchingModel(nominal_pulse_width=-1e-12)

    def test_nan_pulse_width_is_rejected(self):
        with pytest.raises(ConfigError, match="nominal_pulse_width must be finite"):
            LatchingModel(nominal_pulse_width=float("nan"))

    @pytest.mark.parametrize("field", ["clock_period", "window", "nominal_pulse_width"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_times(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            LatchingModel(**{field: value})


class TestFit:
    def test_one_fit_is_one_failure_per_1e9_hours(self):
        assert per_second_to_fit(1.0 / (3600.0 * 1e9)) == pytest.approx(1.0)

    def test_combine_adds(self):
        assert combine_fit([1.0, 2.0, 3.5]) == pytest.approx(6.5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            per_second_to_fit(-1.0)
        with pytest.raises(ConfigError):
            combine_fit([1.0, -2.0])

    def test_array_forms_match_the_scalar_loops_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rates = rng.random(997) * 10.0 ** rng.integers(-20, -10, 997)
            fits = rates_to_fit(rates)
            assert fits.tolist() == [per_second_to_fit(r) for r in rates.tolist()]
            assert sum_fit(fits) == combine_fit(fits.tolist())
        # A vector where the pairwise np.sum is not the left-to-right sum.
        values = np.array([1.0] + [1e-16] * 1000)
        assert float(np.sum(values)) != combine_fit(values.tolist())
        assert sum_fit(values) == combine_fit(values.tolist())

    def test_array_forms_edge_cases(self):
        assert sum_fit(np.array([])) == 0.0
        negative_zero = sum_fit(np.array([-0.0, -0.0]))
        assert math.copysign(1.0, negative_zero) == math.copysign(
            1.0, combine_fit([-0.0, -0.0])
        )
        with pytest.raises(ConfigError, match=r"rate must be >= 0, got -2.0"):
            rates_to_fit(np.array([1.0, -2.0, -3.0]))
        with pytest.raises(ConfigError, match=r"FIT must be >= 0, got -2.0"):
            sum_fit(np.array([1.0, -2.0, -3.0]))

    def test_nan_rates_and_fits_are_rejected(self):
        nan = float("nan")
        with pytest.raises(ConfigError, match="rate must be >= 0, got nan"):
            per_second_to_fit(nan)
        with pytest.raises(ConfigError, match="FIT must be >= 0, got nan"):
            combine_fit([1.0, nan])
        with pytest.raises(ConfigError, match="rate must be >= 0, got nan"):
            rates_to_fit(np.array([1.0, nan, -1.0]))
        with pytest.raises(ConfigError, match="FIT must be >= 0, got nan"):
            sum_fit(np.array([1.0, nan]))
