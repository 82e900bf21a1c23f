"""Random-simulation baselines (fast bit-parallel and serial 2005-style)."""

import numpy as np
import pytest

from repro.core.baseline import (
    RandomSimulationEstimator,
    SerialRandomSimulationEstimator,
)
from repro.errors import ProbabilityError, SimulationError
from repro.netlist.library import c17, s27

from tests.helpers import exhaustive_p_sensitized


class TestFastEstimator:
    def test_matches_exhaustive_on_c17(self, c17_circuit):
        estimator = RandomSimulationEstimator(c17_circuit, n_vectors=60_000, seed=3)
        for site in ("N10", "N11", "N16"):
            truth = exhaustive_p_sensitized(c17_circuit, site)
            assert estimator.p_sensitized(site) == pytest.approx(truth, abs=0.01)

    def test_deterministic(self, c17_circuit):
        a = RandomSimulationEstimator(c17_circuit, n_vectors=2048, seed=5).estimate(["N11"])
        b = RandomSimulationEstimator(c17_circuit, n_vectors=2048, seed=5).estimate(["N11"])
        assert a == b

    def test_po_site_is_always_one(self, c17_circuit):
        estimator = RandomSimulationEstimator(c17_circuit, n_vectors=512, seed=1)
        assert estimator.p_sensitized("N22") == 1.0

    def test_shared_vectors_across_sites(self, c17_circuit):
        """estimate() and per-site calls agree (same stream per construction)."""
        batch = RandomSimulationEstimator(c17_circuit, n_vectors=4096, seed=9).estimate(
            ["N10", "N16"]
        )
        single = RandomSimulationEstimator(c17_circuit, n_vectors=4096, seed=9).estimate(
            ["N10"]
        )
        assert batch["N10"] == single["N10"]

    def test_sequential_state_weights(self, s27_circuit):
        skewed = RandomSimulationEstimator(
            s27_circuit, n_vectors=8192, seed=2,
            state_weights={"G5": 1.0, "G6": 1.0, "G7": 1.0},
        )
        uniform = RandomSimulationEstimator(s27_circuit, n_vectors=8192, seed=2)
        # State distribution changes the estimate for state-dependent sites.
        assert skewed.p_sensitized("G8") != uniform.p_sensitized("G8")

    def test_validation(self, c17_circuit):
        with pytest.raises(SimulationError):
            RandomSimulationEstimator(c17_circuit, n_vectors=0)
        estimator = RandomSimulationEstimator(c17_circuit, n_vectors=16)
        with pytest.raises(SimulationError):
            estimator.p_sensitized("ghost")


class TestSerialEstimator:
    def test_matches_exhaustive_on_c17(self, c17_circuit):
        estimator = SerialRandomSimulationEstimator(c17_circuit, n_vectors=3000, seed=3)
        for site in ("N11", "N16"):
            truth = exhaustive_p_sensitized(c17_circuit, site)
            assert estimator.p_sensitized(site) == pytest.approx(truth, abs=0.04)

    def test_agrees_with_fast_estimator(self, c17_circuit):
        serial = SerialRandomSimulationEstimator(c17_circuit, n_vectors=4000, seed=8)
        fast = RandomSimulationEstimator(c17_circuit, n_vectors=40_000, seed=9)
        for site in ("N10", "N19"):
            assert serial.p_sensitized(site) == pytest.approx(
                fast.p_sensitized(site), abs=0.04
            )

    def test_source_site_flip(self, c17_circuit):
        estimator = SerialRandomSimulationEstimator(c17_circuit, n_vectors=2000, seed=1)
        truth = exhaustive_p_sensitized(c17_circuit, "N3")
        assert estimator.p_sensitized("N3") == pytest.approx(truth, abs=0.05)

    def test_sequential_site(self, s27_circuit):
        estimator = SerialRandomSimulationEstimator(s27_circuit, n_vectors=500, seed=6)
        assert estimator.p_sensitized("G11") == 1.0  # drives the PO inverter

    def test_deterministic(self, c17_circuit):
        a = SerialRandomSimulationEstimator(c17_circuit, n_vectors=256, seed=5).estimate(["N11"])
        b = SerialRandomSimulationEstimator(c17_circuit, n_vectors=256, seed=5).estimate(["N11"])
        assert a == b

    def test_validation(self, c17_circuit):
        with pytest.raises(SimulationError):
            SerialRandomSimulationEstimator(c17_circuit, n_vectors=0)


ESTIMATORS = [RandomSimulationEstimator, SerialRandomSimulationEstimator]


class TestSourcesAndSites:
    """Both estimators check their weights by the SP backends' source rule
    at construction and resolve integer sites like
    ``ConeExtractor.resolve``."""

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("maker,weights", [
        (c17, {"input_weights": {"zz": 0.3}}),
        (c17, {"input_weights": {"N10": 0.9}}),
        (s27, {"input_weights": {"G5": 0.5}}),
        (s27, {"state_weights": {"G0": 0.3}}),
        (s27, {"state_weights": {"G8": 0.3}}),
        (s27, {"state_weights": {"nope": 0.2}}),
        (c17, {"input_weights": {"N1": 1.5}}),
        (c17, {"input_weights": {"N1": float("nan")}}),
        (s27, {"state_weights": {"G5": 1.5}}),
        (s27, {"state_weights": {"G5": float("nan")}}),
    ], ids=[
        "unknown-input", "gate-input", "flip-flop-input", "input-state",
        "gate-state", "unknown-state", "input-1.5", "input-nan",
        "state-1.5", "state-nan",
    ])
    def test_bad_weights_raise_at_construction(self, estimator, maker, weights):
        with pytest.raises(ProbabilityError):
            estimator(maker(), n_vectors=16, **weights)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("site", [
        -1, "past-end", True, False, 1.0, np.float64(2.0), None,
    ])
    def test_bad_site_raises(self, estimator, site):
        sampler = estimator(c17(), n_vectors=16)
        if site == "past-end":
            site = sampler.compiled.n
        with pytest.raises(SimulationError, match="unknown error site"):
            sampler.estimate([site])
        with pytest.raises(SimulationError, match="unknown error site"):
            sampler.p_sensitized(site)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_ids_and_names_resolve_alike(self, estimator):
        sampler = estimator(c17(), n_vectors=64, seed=4)
        ids = [3, np.int64(7), np.intp(10)]
        names = [sampler.compiled.names[site] for site in ids]
        assert sampler.estimate(ids) == sampler.estimate(names)
        assert sampler.p_sensitized(np.int32(7)) == sampler.p_sensitized(names[1])
