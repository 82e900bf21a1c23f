"""The benchmark's own tests: every workload at a tiny size (s953, a few ops).

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from host import PROBE_REF_S, Sample, reference_scale  # noqa: E402
from spans import AttributionError, TracedOp, op_layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload: str, trace: int = 0, *extra: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1.5", "--trace", str(trace),
         "--circuit", "s953", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def assert_metrics(result: dict, lines: list[str], wanted: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {metric["name"] for metric in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        assert any(
            line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}")
            for line in lines
        ), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    result, lines = result_of(run_bench(workload))
    assert_metrics(result, lines, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert "fail_pct = 0.000 %" in "\n".join(lines)
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_result_is_a_failure(workload):
    result, lines = result_of(run_bench(workload, 0, "--inject-wrong"))
    assert not result["correct"]
    assert result["failed"] >= 1
    fail_line = next(line for line in lines if line.startswith("fail_pct = "))
    assert float(fail_line.split()[2]) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result, lines = result_of(run_bench(workload, 1))
    assert_metrics(result, lines, SPEC["per_layer"])
    assert result["correct"]
    metrics = {name: value["value"] for name, value in result["metrics"].items()}
    assert metrics["op.wall_raw_ms"] > 0
    assert metrics["check.pct_dif"] > 0
    if workload == "serve_whatif":
        assert metrics["probability.sp_ms"] > 0
        assert metrics["server.wire_ms.hit"] > 0
        assert metrics["epp_delta.reuse_ratio"] == 1.0
    else:
        assert metrics["cli.startup_ms"] > 0
        assert metrics["epp_batch.sweep_ms"] > 0


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_scaled_time_is_net_time_at_the_reference_speed():
    # The probe read 2x and 4x its reference time around the op: the core
    # ran at a third of the reference speed on average.
    scale = reference_scale(2 * PROBE_REF_S, 4 * PROBE_REF_S)
    sample = Sample(raw_s=3.5, steal_s=0.5, scale=scale)
    assert sample.scaled_s == pytest.approx(1.0)
    assert reference_scale(PROBE_REF_S, PROBE_REF_S) == pytest.approx(1.0)


def _op(spans, end_ns=100_000_000):
    return TracedOp("cli", 0, end_ns, list(enumerate(spans)))


def test_self_time_subtracts_children_and_other_is_uncovered():
    spans = [
        ["cli.main", 0, 90_000_000, -1, 0, {}],
        ["analysis.assemble", 10_000_000, 70_000_000, 0, 0, {}],
        ["epp_batch.sweep", 20_000_000, 60_000_000, 1, 0, {"chunks": 2}],
    ]
    values = op_layers(_op(spans))
    assert values["analysis.assemble_ms"] == pytest.approx(20.0)
    assert values["epp_batch.sweep_ms"] == pytest.approx(40.0)
    assert values["epp_batch.chunks"] == 2
    assert values["op.other_ms"] == pytest.approx(40.0)


def test_children_longer_than_their_span_fail_attribution():
    spans = [
        ["epp_shard.sweep", 0, 50_000_000, -1, 0, {}],
        ["epp_batch.materialize", 0, 40_000_000, 0, 0, {}],
        ["epp_batch.materialize", 10_000_000, 50_000_000, 0, 0, {}],
    ]
    with pytest.raises(AttributionError):
        op_layers(_op(spans))


def test_root_spans_longer_than_the_op_fail_attribution():
    spans = [["cli.main", 0, 90_000_000, -1, 0, {}]]
    with pytest.raises(AttributionError):
        op_layers(_op(spans, end_ns=50_000_000))
