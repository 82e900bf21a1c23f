"""Random-simulation baselines (fast bit-parallel and serial 2005-style)."""

import pytest

from repro.core.baseline import (
    RandomSimulationEstimator,
    SerialRandomSimulationEstimator,
)
from repro.errors import SimulationError
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


class TestAdaptiveEstimation:
    def test_reaches_target_precision(self, c17_circuit):
        estimator = RandomSimulationEstimator(c17_circuit, seed=4, word_width=1024)
        truth = exhaustive_p_sensitized(c17_circuit, "N11")
        estimate, used = estimator.estimate_adaptive("N11", half_width=0.01)
        assert estimate == pytest.approx(truth, abs=0.02)
        assert used >= 4 * estimator.word_width

    def test_easy_sites_stop_early(self, c17_circuit):
        estimator = RandomSimulationEstimator(c17_circuit, seed=4, word_width=256)
        # N22 is a PO: p = 1.0, zero variance -> stops at the floor sample.
        estimate, used = estimator.estimate_adaptive("N22", half_width=0.02)
        assert estimate == 1.0
        assert used == 4 * 256

    def test_hard_targets_use_more_vectors(self, c17_circuit):
        estimator = RandomSimulationEstimator(c17_circuit, seed=4, word_width=256)
        _, loose = estimator.estimate_adaptive("N11", half_width=0.05)
        _, tight = estimator.estimate_adaptive("N11", half_width=0.01)
        assert tight > loose

    def test_validation(self, c17_circuit):
        estimator = RandomSimulationEstimator(c17_circuit)
        with pytest.raises(SimulationError):
            estimator.estimate_adaptive("N11", half_width=0.7)
