"""The repository's benchmark: three workloads on s9234, one op at a time.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_analyze --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs the same ops with every other op (or, for the server,
the second half of the run) started through ``perfbench/launcher.py`` and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines above it hold every op's raw wall time, steal and net time,
the failures and the host record.  Workloads, ops and the layer to
end-to-end mapping are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from host import (  # noqa: E402
    CoreClock,
    HostRecord,
    Sample,
    SpeedProbe,
    become_subreaper,
    choose_cores,
    median,
    reap,
    reap_group,
    reference_scale,
    spawn,
)
from spans import AttributionError, TracedOp, load_spans, spans_by_op  # noqa: E402
from workloads import ACCURACY_SITES, REFERENCE_VECTORS, WORKLOADS  # noqa: E402

LAUNCHER = HERE / "launcher.py"
OP_TIMEOUT_S = 120.0
WORK_DIR = ".perfbench_work"


@dataclass
class CliOp:
    sample: Sample
    rc: int
    rss_mb: float
    traced: bool
    op_id: int
    start_ns: int
    end_ns: int
    trace_path: Path | None


class Bench:
    """One run: pinned processes, the op core's clock and speed probe,
    failure counts."""

    def __init__(self, root: Path, args):
        self.root = root
        self.src = root / "src"
        self.circuit = args.circuit
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.inject_wrong = args.inject_wrong
        self.work = root / WORK_DIR / args.workload
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        bench_core, op_core = choose_cores()
        self.host = HostRecord(args.seed, bench_core, op_core)
        os.sched_setaffinity(0, {bench_core})
        self.host.note_affinity("bench", os.getpid())
        become_subreaper()
        self.clock = CoreClock(op_core)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=str(self.src) + (os.pathsep + path if path else ""),
            PYTHONHASHSEED="0",
            TMPDIR=str(self.work / "tmp"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        for key in ("PERFBENCH_TRACE_OUT", "PERFBENCH_OP", "PERFBENCH_SPAWN_NS"):
            self.env.pop(key, None)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.lines: list[str] = []
        self.live: set[subprocess.Popen] = set()
        self._circuit = None
        with open(self.work / "probe.log", "wb") as log:
            self.probe = SpeedProbe(self.clock, self.env, log)
        self.live.add(self.probe.proc)
        self.host.note_affinity("probe", self.probe.proc.pid)
        try:
            self.last_probe = self.read_probe()
        except BaseException:
            self.stop_all()
            raise

    # ----------------------------------------------------------- processes

    def spawn_cli(self, argv, tag: str, traced: bool, op_id: int, module: bool = True):
        """Start a pinned ``python -m repro ARGV`` (or, traced, the launcher);
        returns (process, trace path or None)."""
        env = self.env
        trace_path = None
        if traced:
            trace_path = self.work / f"{tag}.trace.json"
            cmd = [sys.executable, str(LAUNCHER), *argv]
            env = dict(
                env,
                PERFBENCH_TRACE_OUT=str(trace_path),
                PERFBENCH_OP=str(op_id),
                PERFBENCH_SPAWN_NS=str(time.monotonic_ns()),
            )
        elif module:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, *argv]
        with open(self.work / f"{tag}.log", "wb") as log:
            proc = spawn(cmd, self.clock.core, env, log, subprocess.STDOUT, cwd=self.root)
        self.live.add(proc)
        self.host.note_affinity(tag.rstrip("0123456789"), proc.pid)
        return proc, trace_path

    def cli(self, argv, tag: str, traced: bool = False, op_id: int = -1,
            module: bool = True) -> CliOp:
        """One timed CLI process, from start until it has exited."""
        before = self.last_probe
        started = self.clock.start()
        start_ns = time.monotonic_ns()
        proc, trace_path = self.spawn_cli(argv, tag, traced, op_id, module)
        try:
            rc, rss_mb = reap(proc, OP_TIMEOUT_S)
            sample = self.clock.stop(started)
            end_ns = time.monotonic_ns()
        finally:
            self.live.discard(proc)
            reap_group(proc.pid)
        self.scale(sample, before)
        return CliOp(sample, rc, rss_mb, traced, op_id, start_ns, end_ns, trace_path)

    def read_probe(self) -> float:
        self.last_probe = self.probe.read()
        return self.last_probe

    def scale(self, sample: Sample, before: float) -> None:
        """Scale ``sample`` to the reference core speed from the probe
        reading ``before`` it and a fresh one after it."""
        sample.scale = reference_scale(before, self.read_probe())

    def stop_all(self) -> None:
        """Kill and reap whatever this run started and is still running."""
        for proc in list(self.live):
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            self.live.discard(proc)
            reap_group(proc.pid, grace=0.0)

    def traced_op(self, op: CliOp) -> TracedOp:
        spans = spans_by_op(load_spans(op.trace_path)).get(op.op_id, [])
        return TracedOp("cli", op.start_ns, op.end_ns, spans)

    # -------------------------------------------------------- correctness

    def circuit_object(self):
        if self._circuit is None:
            from repro.cli import resolve_circuit

            self._circuit = resolve_circuit(self.circuit)
        return self._circuit

    def n_sites(self) -> int:
        """The sites a full analysis reports: combinational gate outputs."""
        compiled = self.circuit_object().compiled()
        return sum(
            1 for node in range(compiled.n)
            if compiled.gate_type(node).is_combinational
        )

    def pct_dif(self, epp: dict[str, float]) -> float:
        """100 * sum|EPP - ref| / sum(ref) over seeded sites, against a
        random-simulation reference built here, outside any op."""
        from repro.core.baseline import RandomSimulationEstimator
        from repro.probability import signal_probabilities

        circuit = self.circuit_object()
        sp = signal_probabilities(circuit, method="topological")
        sites = random.Random(self.seed).sample(
            sorted(epp), min(ACCURACY_SITES, len(epp))
        )
        reference = RandomSimulationEstimator(
            circuit,
            n_vectors=REFERENCE_VECTORS,
            seed=self.seed,
            state_weights={ff: sp[ff] for ff in circuit.flip_flops},
        ).estimate(sites)
        total = sum(reference[site] for site in sites)
        error = sum(abs(epp[site] - reference[site]) for site in sites)
        return 100.0 * error / total if total else 0.0

    def count(self, label: str, reason: str | None) -> None:
        """One attempted op; ``reason`` says why it failed, None if it passed."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{label}: {reason}")

    # ------------------------------------------------------------- report

    def report_samples(self, kind: str, samples: list[Sample]) -> None:
        for index, sample in enumerate(samples):
            self.lines.append(
                f"{kind} {index}: scaled {sample.scaled_s * 1e3:.3f} ms  net "
                f"{sample.net_s * 1e3:.3f} ms  raw {sample.raw_s * 1e3:.3f} ms  "
                f"steal {sample.steal_s * 1e3:.1f} ms  scale {sample.scale:.4f}"
            )

    def note(self, name: str, value: float, unit: str) -> None:
        self.lines.append(f"diagnostic {name} = {value:.6g} {unit}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--circuit", default="s9234",
                        help="ISCAS'89 profile or library circuit (tests use s953)")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="corrupt the second op's output before it is "
                        "checked (tests the failure accounting)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(root / "src"))
    compileall.compile_dir(str(root / "src" / "repro"), quiet=1)

    bench = Bench(root, args)
    try:
        metrics = WORKLOADS[args.workload](bench)
    except AttributionError as exc:
        print(f"perfbench: traced run failed the attribution check: {exc}",
              file=sys.stderr)
        return 1
    finally:
        bench.stop_all()
    host = bench.host.finish()
    probe_ms = sorted(seconds * 1e3 for seconds in bench.probe.readings)
    host["probe_ms"] = {"readings": len(probe_ms), "min": probe_ms[0],
                        "median": median(probe_ms), "max": probe_ms[-1]}
    fail_pct = 100.0 * bench.failed / bench.attempted
    if args.trace:
        metrics["check.fail_pct"] = fail_pct
        metrics["host.steal_pct"] = host["steal_pct_by_core"][bench.clock.core]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"{args.workload} computed no value for {missing}")

    for line in bench.lines:
        print(line)
    for failure in bench.failures:
        print(f"FAILED {failure}")
    print(f"fail_pct = {fail_pct:.3f} % ({bench.failed} of {bench.attempted} ops)")
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print("host " + json.dumps(host, sort_keys=True))
    (bench.work / "run.json").write_text(json.dumps(
        {"args": vars(args), "host": host, "metrics": metrics,
         "failures": bench.failures, "lines": bench.lines}, indent=1))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
