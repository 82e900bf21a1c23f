"""CLI commands (exercised in-process through cli.main)."""

import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.cli import main, resolve_circuit
from repro.errors import ReproError
from repro.netlist.bench import write_bench
from repro.netlist.library import c17


class TestResolve:
    def test_library_name(self):
        assert resolve_circuit("c17").name == "c17"

    def test_profile_name(self):
        circuit = resolve_circuit("s953")
        assert len(circuit.gates) == 424

    def test_bench_file(self, tmp_path):
        path = tmp_path / "mine.bench"
        write_bench(c17(), path)
        assert resolve_circuit(str(path)).name == "mine"

    def test_unresolvable(self):
        with pytest.raises(ReproError, match="cannot resolve"):
            resolve_circuit("definitely_not_a_circuit")


class TestCommands:
    def test_figure1_succeeds(self, capsys):
        assert main(["figure1"]) == 0
        assert "[MATCH]" in capsys.readouterr().out

    def test_table1_succeeds(self, capsys):
        assert main(["table1", "--steps", "2"]) == 0
        assert "ALL RULES MATCH" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "c17" in out and "s38417" in out

    def test_stats(self, capsys):
        assert main(["stats", "c17"]) == 0
        assert "NAND=6" in capsys.readouterr().out

    def test_analyze_with_sample(self, capsys):
        assert main(["analyze", "s27", "--top", "3", "--sample", "5"]) == 0
        assert "FIT" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["scalar", "vector", "sharded", "auto"])
    def test_analyze_backend_flag(self, backend, capsys):
        assert main(["analyze", "s27", "--top", "2", "--backend", backend]) == 0
        assert "FIT" in capsys.readouterr().out

    def test_analyze_backend_flag_with_batch_size(self, capsys):
        assert main(
            ["analyze", "s27", "--backend", "vector", "--batch-size", "4"]
        ) == 0
        assert "FIT" in capsys.readouterr().out

    def test_analyze_jobs_flag_implies_sharded(self, capsys):
        # s27 sits far below the crossover, so this exercises the routing
        # (jobs => sharded backend) without paying process spin-up.
        assert main(["analyze", "s27", "--top", "2", "--jobs", "2"]) == 0
        assert "FIT" in capsys.readouterr().out

    def test_analyze_jobs_with_scalar_backend_fails_cleanly(self, capsys):
        code = main(["analyze", "s27", "--backend", "scalar", "--jobs", "2"])
        assert code == 1
        assert "jobs=" in capsys.readouterr().err

    def test_analyze_multi_cycle(self, capsys):
        assert main(["analyze", "s27", "--multi-cycle", "2"]) == 0
        assert "multi-cycle observability" in capsys.readouterr().out

    def test_analyze_multi_cycle_without_sites_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "wire.bench"
        path.write_text("INPUT(a)\nOUTPUT(a)\n")
        assert main(["analyze", str(path), "--multi-cycle", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--multi-cycle" in err and "has none" in err

    def test_analyze_csv_export(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["analyze", "s27", "--csv", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("node,")
        assert "G9" in text

    def test_analyze_verilog_file(self, tmp_path, capsys):
        from repro.netlist.verilog import write_verilog

        path = tmp_path / "mine.v"
        write_verilog(c17(), path)
        assert main(["analyze", str(path), "--top", "3"]) == 0
        assert "FIT" in capsys.readouterr().out

    def test_ablations_quick(self, capsys):
        assert main(["ablations"]) == 0
        out = capsys.readouterr().out
        assert "ablation: polarity" in out
        assert "ablation: cop" in out

    @pytest.mark.parametrize("argv, field", [
        (["analyze", "s27", "--top", "-1"], "--top"),
        (["analyze-delta", "s27", "--harden", "G10", "--top", "-2"], "--top"),
        (["analyze", "s27", "--sample", "-1"], "--sample"),
        (["analyze", "s27", "--jobs", "2", "--shard-timeout", "1e300"],
         "--shard-timeout"),
        (["analyze", "s27", "--jobs", "2", "--shard-timeout", "nan"],
         "--shard-timeout"),
        (["harden", "s27", "--budget", "nan"], "area_budget"),
    ])
    def test_bad_count_or_seconds_fails_with_one_line(self, argv, field, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err

    def test_analyze_unknown_circuit_fails_cleanly(self, capsys):
        assert main(["analyze", "no_such_thing"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_generate_to_file(self, tmp_path, capsys):
        out = tmp_path / "s953.bench"
        assert main(["generate", "s953", "-o", str(out)]) == 0
        assert out.exists()
        assert resolve_circuit(str(out)).gates  # parses back

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "s27"]) == 0
        assert "INPUT(" in capsys.readouterr().out

    def test_generate_unknown_profile(self, capsys):
        assert main(["generate", "b19"]) == 1

    def test_table2_tiny(self, capsys, tmp_path):
        csv_path = tmp_path / "t2.csv"
        code = main(
            ["table2", "--mode", "quick", "--circuits", "s27", "--csv", str(csv_path)]
        )
        assert code == 0
        assert csv_path.exists()
        assert "paper avg" in capsys.readouterr().out

    def test_table2_sharded_backend_flag(self, capsys):
        code = main(
            ["table2", "--mode", "quick", "--circuits", "s27",
             "--backend", "sharded", "--jobs", "2"]
        )
        assert code == 0
        assert "paper avg" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["analyze", "c17", "--no-prune"],
        ["analyze-delta", "c17", "--replace", "N10:nor", "--no-prune"],
        ["harden", "c17", "--budget", "3", "--no-prune"],
        ["table2", "--no-prune"],
    ], ids=["analyze", "analyze-delta", "harden", "table2"])
    def test_removed_no_prune_flag_exits_2(self, argv, capsys):
        """The dense sweep is a test oracle, not a user option: the flag
        is an unrecognized argument on every command."""
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --no-prune" in capsys.readouterr().err

    def test_table2_jobs_without_sharded_fails_cleanly(self, capsys):
        code = main(
            ["table2", "--mode", "quick", "--circuits", "s27", "--jobs", "2"]
        )
        assert code == 1
        assert "jobs" in capsys.readouterr().err

    def test_table2_circuit_jobs_flag(self, capsys):
        """--circuit-jobs reaches the roster pool (a single-circuit quick
        run stays serial by construction, so this is a plumbing check)."""
        code = main(
            ["table2", "--mode", "quick", "--circuits", "s27",
             "--circuit-jobs", "2"]
        )
        assert code == 0
        assert "paper avg" in capsys.readouterr().out

    def test_table2_circuit_jobs_with_sharded_fails_cleanly(self, capsys):
        code = main(
            ["table2", "--mode", "quick", "--circuits", "s27",
             "--backend", "sharded", "--circuit-jobs", "2"]
        )
        assert code == 1
        assert "circuit_jobs" in capsys.readouterr().err


class TestAnalyzeDelta:
    def test_single_edit_with_verify(self, capsys):
        code = main(["analyze-delta", "c17", "--replace", "N10:nor",
                     "--verify", "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "re-swept" in out
        assert "incremental == full re-analysis: True" in out

    def test_mixed_edits_sharded(self, capsys):
        code = main(["analyze-delta", "s27", "--tmr", "G10",
                     "--set-sp", "G0=0.3", "--jobs", "2", "--verify"])
        assert code == 0
        assert "True" in capsys.readouterr().out

    def test_harden_edit_resweeps_nothing(self, capsys):
        code = main(["analyze-delta", "c17", "--harden", "N10:8"])
        assert code == 0
        assert "re-swept 0 of" in capsys.readouterr().out

    def test_no_edits_fails_cleanly(self, capsys):
        code = main(["analyze-delta", "c17"])
        assert code == 1
        assert "no edits" in capsys.readouterr().err

    def test_bad_edit_spec_fails_cleanly(self, capsys):
        code = main(["analyze-delta", "c17", "--set-sp", "N10"])
        assert code == 1
        assert "set-sp" in capsys.readouterr().err.lower()

    def test_unknown_node_fails_cleanly(self, capsys):
        code = main(["analyze-delta", "c17", "--replace", "ghost:nor"])
        assert code == 1
        assert capsys.readouterr().err


class TestHardenCommand:
    def test_upsize_plan(self, capsys):
        code = main(["harden", "s27", "--budget", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hardening plan for s27" in out
        assert "accepted" in out

    def test_tmr_action(self, capsys):
        code = main(["harden", "s27", "--budget", "12", "--action", "tmr",
                     "--max-steps", "2"])
        assert code == 0
        assert "hardening plan" in capsys.readouterr().out

    def test_bad_budget_fails_cleanly(self, capsys):
        code = main(["harden", "s27", "--budget", "0"])
        assert code == 1
        assert "budget" in capsys.readouterr().err


class TestPoolClosedOnReturn:
    """A sharded command shuts its worker pools down before ``main``
    returns, so no worker outlives the command into the interpreter's
    exit hooks (s9234 is the smallest profile the crossover guard sends
    to the pool)."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "s9234", "--jobs", "2", "--top", "1"],
        ["analyze-delta", "s9234", "--harden", "g1070:2", "--jobs", "2",
         "--top", "1"],
        # A rejected TMR trial's own engine ran the re-sweep on a pool.
        ["harden", "s9234", "--budget", "6", "--action", "tmr",
         "--max-steps", "1", "--jobs", "2"],
    ], ids=["analyze", "analyze-delta", "harden-tmr"])
    def test_no_pool_worker_alive_after_main(self, argv, capsys):
        before = set(multiprocessing.active_children())
        assert main(argv) == 0
        assert set(multiprocessing.active_children()) <= before


def test_cli_start_up_loads_no_sharded_driver():
    """``import repro.cli`` loads neither the sharded driver nor the
    process machinery under it: the engine imports
    :mod:`repro.core.epp_shard` on its first sharded call."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    probe = (
        "import sys, repro.cli\n"
        "heavy = ('repro.core.epp_shard', 'multiprocessing',"
        " 'concurrent.futures.process')\n"
        "print([name for name in heavy if name in sys.modules])\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    )
    assert loaded.stdout.strip() == "[]"
