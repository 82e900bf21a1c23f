"""Experiment harnesses: Figure 1, Table 1, Table 2 (budget-limited)."""

import pytest

from repro.errors import ConfigError
from repro.experiments.figure1 import run_figure1
from repro.experiments.profiles import PAPER_TABLE2, TABLE2_CIRCUITS
from repro.experiments.table1 import grid_prob4, run_table1
from repro.experiments.table2 import (
    Table2Config,
    format_table2,
    run_table2,
    run_table2_circuit,
)


class TestFigure1:
    def test_matches_paper_exactly(self):
        result = run_figure1()
        assert result.matches_paper
        assert result.p_sensitized == pytest.approx(0.434, abs=1e-12)

    def test_format_prints_all_intermediates(self):
        text = run_figure1().format()
        for fragment in ("P(E)", "P(D)", "P(G)", "P(H)", "0.042", "0.392", "[MATCH]"):
            assert fragment in text


class TestTable1:
    def test_all_rules_match_at_coarse_grid(self):
        result = run_table1(steps=2, arities=(1, 2))
        assert result.all_match
        assert set(result.max_error) >= {"AND", "OR", "NOT"}

    def test_grid_points_are_valid_vectors(self):
        for point in grid_prob4(steps=3):
            assert all(component >= 0 for component in point)
            assert sum(point) == pytest.approx(1.0)

    def test_format(self):
        text = run_table1(steps=2, arities=(1, 2)).format()
        assert "ALL RULES MATCH" in text
        assert "P1(out) = prod P1(Xi)" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def tiny_rows(self):
        config = Table2Config(
            circuits=("s27", "s953"),
            sim_vectors=100,
            sim_sites=2,
            accuracy_sites=15,
            reference_vectors=4000,
            sp_vectors=4000,
            epp_sites=30,
        )
        return run_table2(config)

    def test_roster_matches_paper(self):
        assert TABLE2_CIRCUITS == list(PAPER_TABLE2)
        assert len(TABLE2_CIRCUITS) == 11

    def test_rows_are_well_formed(self, tiny_rows):
        for row in tiny_rows:
            assert row.syst_ms > 0
            assert row.simt_s > 0
            assert row.spt_s > 0
            assert 0 <= row.pct_dif < 50
            assert row.n_nodes > 0

    def test_epp_is_faster_than_serial_simulation(self, tiny_rows):
        for row in tiny_rows:
            assert row.esp > 1.0, row.circuit
            assert row.isp > 1.0, row.circuit

    def test_extrapolation_is_linear(self, tiny_rows):
        for row in tiny_rows:
            assert row.simt_ref_s == pytest.approx(
                row.simt_s * 100_000 / row.sim_vectors
            )
            assert row.esp_ref > row.esp

    def test_format_contains_paper_reference(self, tiny_rows):
        text = format_table2(tiny_rows)
        assert "paper avg" in text
        assert "extrapolated" in text

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            Table2Config(sim_vectors=0)
        with pytest.raises(ConfigError):
            Table2Config(circuits=("c6288",))
        with pytest.raises(ConfigError):
            Table2Config(backend="simd")
        with pytest.raises(ConfigError):
            Table2Config(backend="sharded", jobs=0)
        with pytest.raises(ConfigError, match="sharded"):
            Table2Config(backend="scalar", jobs=2)  # jobs needs sharded
        # The EPP knobs fail at construction, not inside the first row.
        with pytest.raises(ConfigError, match="jobs must be an integer"):
            Table2Config(backend="sharded", jobs=2.5)
        with pytest.raises(ConfigError, match="jobs must be an integer"):
            Table2Config(backend="sharded", jobs=True)

    def test_sharded_backend_row(self):
        """The sharded SysT column really engages worker processes (the
        crossover guard is bypassed for an explicit sharded request)."""
        config = Table2Config(
            circuits=("s27",), backend="sharded", jobs=2, sim_vectors=50,
            sim_sites=1, accuracy_sites=5, reference_vectors=1000,
            sp_vectors=1000, epp_sites=5,
        )
        row = run_table2_circuit("s27", config)
        assert row.syst_ms > 0
        assert row.circuit == "s27"

    def test_quick_and_full_presets(self):
        assert len(Table2Config.quick().circuits) == 4
        assert Table2Config.full().circuits == tuple(TABLE2_CIRCUITS)

    def test_single_circuit_runner(self):
        config = Table2Config(
            circuits=("s27",), sim_vectors=50, sim_sites=1,
            accuracy_sites=5, reference_vectors=1000, sp_vectors=1000, epp_sites=5,
        )
        row = run_table2_circuit("s27", config)
        assert row.circuit == "s27"
        assert row.n_nodes == 10


class TestTable2Roster:
    """circuit_jobs: whole circuits fanned across a worker pool."""

    TINY = dict(
        sim_vectors=50, sim_sites=1, accuracy_sites=5,
        reference_vectors=1000, sp_vectors=1000, epp_sites=5,
    )

    def test_circuit_jobs_validation(self):
        with pytest.raises(ConfigError, match="circuit_jobs"):
            Table2Config(circuit_jobs=0)
        with pytest.raises(ConfigError, match="nested"):
            Table2Config(backend="sharded", circuit_jobs=2)
        Table2Config(backend="vector", circuit_jobs=2)  # fine
        Table2Config(backend="sharded", jobs=2, circuit_jobs=1)  # serial: fine

    def test_roster_pool_rows_match_serial(self):
        """Every row is an independent seeded measurement, so the
        deterministic columns of a fanned-out run are identical to a
        serial run's — only the timing columns may differ."""
        serial = run_table2(Table2Config(circuits=("s27", "s953"), **self.TINY))
        parallel = run_table2(
            Table2Config(circuits=("s27", "s953"), circuit_jobs=2, **self.TINY)
        )
        assert [row.circuit for row in parallel] == [row.circuit for row in serial]
        for got, want in zip(parallel, serial):
            assert got.n_nodes == want.n_nodes
            assert got.pct_dif == want.pct_dif
            assert got.mean_abs_dif == want.mean_abs_dif
            assert got.n_accuracy_sites == want.n_accuracy_sites
            assert got.sim_vectors == want.sim_vectors
            assert got.syst_ms > 0 and got.simt_s > 0

    def test_circuit_jobs_one_stays_serial(self):
        """circuit_jobs=1 (or a single-circuit roster) never spawns a
        pool — same code path as the default serial loop."""
        rows = run_table2(
            Table2Config(circuits=("s27",), circuit_jobs=4, **self.TINY)
        )
        assert [row.circuit for row in rows] == ["s27"]

    def test_worker_circuit_cache_builds_once(self):
        """The worker-side cache: a re-submitted roster job for the same
        circuit reuses the cached Circuit object — and therefore the
        batch plan / cone index already cached on its compiled form."""
        import pickle

        from repro.experiments import table2 as table2_module

        table2_module._ROSTER_CIRCUITS.clear()
        table2_module._ROSTER_STATS["circuits_built"] = 0
        try:
            table2_module._roster_worker_init(
                pickle.dumps(Table2Config(circuits=("s27",), **self.TINY))
            )
            first = table2_module._run_roster_job("s27")
            cached = table2_module._ROSTER_CIRCUITS["s27"]
            compiled = cached.compiled()
            again = table2_module._run_roster_job("s27")
            assert table2_module._ROSTER_STATS["circuits_built"] == 1
            assert table2_module._ROSTER_CIRCUITS["s27"] is cached
            assert cached.compiled() is compiled  # plan caches survive
            assert first.n_nodes == again.n_nodes
            assert first.pct_dif == again.pct_dif
        finally:
            table2_module._ROSTER_CIRCUITS.clear()
            table2_module._ROSTER_STATS["circuits_built"] = 0
            table2_module._ROSTER_CONFIG = None
