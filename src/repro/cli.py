"""Command-line interface: ``python -m repro <command>`` or ``repro-ser``.

Commands
--------
* ``figure1`` — regenerate the paper's Figure 1 worked example.
* ``table1``  — verify/print the paper's Table 1 propagation rules.
* ``table2``  — regenerate the paper's Table 2 comparison.
* ``analyze`` — SER-analyze a circuit (``.bench`` file, library name, or
  ISCAS'89 profile name) and print the vulnerability ranking.
* ``analyze-delta`` — apply what-if edits (harden/TMR/rewire/SP changes)
  and re-analyze incrementally, re-sweeping only affected sites.
* ``harden`` — greedy selective-hardening loop under an area budget,
  driven by the incremental analyzer.
* ``serve`` — run the long-lived analysis service on a unix socket
  (admission control, request deadlines, artifact cache, degradation).
* ``knobs``   — print the analysis-knob reference, generated from the
  :class:`~repro.core.config.AnalysisConfig` field metadata (the same
  table the CLI flags and the wire schema derive from).
* ``stats``   — print circuit statistics.
* ``generate`` — emit a synthetic ISCAS'89-profile circuit as ``.bench``.
* ``list``    — list embedded circuits and known profiles.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import AnalysisError, ConfigError, ReproError
from repro.netlist.bench import parse_bench_file, write_bench
from repro.netlist.circuit import Circuit
from repro.netlist.generate import (
    ISCAS85_PROFILES,
    ISCAS89_PROFILES,
    generate_iscas,
)
from repro.netlist.library import get_circuit, list_circuits
from repro.netlist.stats import circuit_stats
from repro.netlist.verilog import parse_verilog_file

__all__ = ["main", "build_parser", "resolve_circuit"]


def resolve_circuit(spec: str) -> Circuit:
    """Interpret a circuit argument: file path, library name, or profile name.

    Files ending in ``.v`` parse as structural Verilog, everything else
    file-like as ISCAS ``.bench``.
    """
    path = Path(spec)
    if path.suffix == ".v":
        return parse_verilog_file(path)
    if path.suffix == ".bench" or path.exists():
        return parse_bench_file(path)
    if spec in list_circuits():
        return get_circuit(spec)
    if spec in ISCAS89_PROFILES or spec in ISCAS85_PROFILES:
        return generate_iscas(spec)
    raise ReproError(
        f"cannot resolve circuit {spec!r}: not a file, not one of the library "
        f"circuits ({', '.join(list_circuits())}), and not an ISCAS profile"
    )


def _add_analysis_flags(
    parser: argparse.ArgumentParser, *, delta: bool = False
) -> None:
    """Analysis-knob flags, generated from the
    :class:`~repro.core.config.AnalysisConfig` field metadata — a knob
    added there shows up on ``analyze`` with zero CLI edits.
    ``delta=True`` keeps only the knobs the incremental layer accepts (no
    resilience/checkpoint surface) and drops ``scalar`` from
    ``--backend`` (the incremental layer splices packed arrays, which
    the scalar oracle does not produce).
    """
    from repro.core.config import BACKENDS, KNOB_KEYS, field_metadata

    for name in KNOB_KEYS:
        meta = field_metadata(name)
        flag = meta["cli"]
        if flag is None or (delta and not meta["delta"]):
            continue
        if name == "backend":
            parser.add_argument(
                flag, choices=("auto",) + (BACKENDS[1:] if delta else BACKENDS),
                default="auto", help=meta["doc"],
            )
        elif meta["kind"] == "int":
            parser.add_argument(flag, dest=name, type=int, help=meta["doc"])
        elif meta["kind"] == "float":
            parser.add_argument(
                flag, dest=name, type=float, metavar="SECONDS",
                help=meta["doc"],
            )
        else:  # paths and other pass-through strings
            parser.add_argument(
                flag, dest=name, metavar="DIR", help=meta["doc"]
            )


def _analysis_knobs(args: argparse.Namespace) -> dict:
    """The knob subset of parsed args, keyed by config field name."""
    from repro.core.config import KNOB_KEYS, field_metadata

    knobs = {}
    for name in KNOB_KEYS:
        if field_metadata(name)["cli"] is None or not hasattr(args, name):
            continue
        value = getattr(args, name)
        if name == "backend" and value == "auto":
            value = None
        knobs[name] = value
    return knobs


def _check_counts(args: argparse.Namespace) -> None:
    """Reject a negative ``--top`` and an empty ``--sample`` by flag name."""
    if args.top < 0:
        raise ConfigError(f"--top must be >= 0, got {args.top}")
    sample = getattr(args, "sample", None)
    if sample is not None and sample < 1:
        raise ConfigError(f"--sample must be >= 1, got {sample}")


def _build_edit_set(args: argparse.Namespace):
    """Translate the repeatable --harden/--set-sp/... options into an EditSet."""
    from repro.core.epp_delta import EditSet

    edits = EditSet()
    for spec in args.harden or ():
        node, _, factor = spec.partition(":")
        try:
            edits.harden(node, float(factor) if factor else 10.0)
        except ValueError:
            raise ReproError(
                f"--harden expects NODE[:FACTOR], got {spec!r}"
            ) from None
    for spec in args.set_sp or ():
        node, sep, probability = spec.partition("=")
        if not sep:
            raise ReproError(f"--set-sp expects NODE=P, got {spec!r}")
        try:
            edits.set_sp(node, float(probability))
        except ValueError:
            raise ReproError(f"--set-sp expects NODE=P, got {spec!r}") from None
    for node in args.tmr or ():
        edits.tmr(node)
    for spec in args.rewire or ():
        parts = spec.split(":")
        if len(parts) != 3:
            raise ReproError(f"--rewire expects GATE:OLD:NEW, got {spec!r}")
        edits.rewire(*parts)
    for spec in args.replace or ():
        node, sep, gate_type = spec.partition(":")
        if not sep or not gate_type:
            raise ReproError(f"--replace expects NODE:TYPE, got {spec!r}")
        edits.replace_gate(node, gate_type)
    if not len(edits):
        raise ReproError(
            "no edits given; pass at least one of --harden/--set-sp/--tmr/"
            "--rewire/--replace"
        )
    return edits


def build_parser() -> argparse.ArgumentParser:
    from repro.core.config import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro-ser",
        description="EPP-based SER estimation (Asadi & Tahoori, DATE 2005 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("figure1", help="regenerate the Figure 1 worked example")

    table1 = commands.add_parser("table1", help="verify the Table 1 EPP rules")
    table1.add_argument("--steps", type=int, default=3, help="simplex grid resolution")

    table2 = commands.add_parser("table2", help="regenerate the Table 2 comparison")
    table2.add_argument(
        "--mode",
        choices=("quick", "default", "full"),
        default="quick",
        help="budget preset (quick: 4 small circuits; default/full: whole roster)",
    )
    table2.add_argument("--circuits", nargs="*", help="override the circuit roster")
    table2.add_argument("--csv", help="write measured rows to a CSV file")
    table2.add_argument("--json", help="write measured rows to a JSON file")
    table2.add_argument(
        "--backend",
        choices=BACKENDS,
        default="scalar",
        help="EPP backend for the SysT column (scalar keeps the paper's "
        "per-cone accounting; vector times the batched NumPy sweep; "
        "sharded fans the sweep out across --jobs worker processes)",
    )
    table2.add_argument(
        "--jobs",
        type=int,
        help="worker processes for the sharded backend (default: one per core)",
    )
    table2.add_argument(
        "--circuit-jobs",
        type=int,
        help="fan whole circuits across this many worker processes "
        "(roster-level parallelism: every row is an independent "
        "measurement, so rows are unchanged — only wall-clock drops; "
        "mutually exclusive with --backend sharded)",
    )

    analyze = commands.add_parser("analyze", help="SER-analyze a circuit")
    analyze.add_argument("circuit", help=".bench file, library name, or profile name")
    analyze.add_argument("--top", type=int, default=10, help="ranking rows to print")
    analyze.add_argument("--sample", type=int, help="analyze a random sample of sites")
    analyze.add_argument(
        "--sp-method",
        default="topological",
        choices=("topological", "cut", "monte_carlo", "exact"),
        help="signal-probability backend",
    )
    _add_analysis_flags(analyze)
    analyze.add_argument(
        "--multi-cycle",
        type=int,
        metavar="CYCLES",
        help="also report multi-cycle observability of the top node",
    )
    analyze.add_argument("--csv", help="write the per-node SER rows to a CSV file")

    delta = commands.add_parser(
        "analyze-delta",
        help="apply what-if edits and re-analyze incrementally",
    )
    delta.add_argument("circuit", help=".bench file, library name, or profile name")
    delta.add_argument(
        "--harden",
        action="append",
        metavar="NODE[:FACTOR]",
        help="upsize a gate by a drive-strength factor (default 10); "
        "repeatable",
    )
    delta.add_argument(
        "--set-sp",
        action="append",
        metavar="NODE=P",
        help="override a node's signal probability; repeatable",
    )
    delta.add_argument(
        "--tmr",
        action="append",
        metavar="NODE",
        help="locally triplicate a gate with a majority voter; repeatable",
    )
    delta.add_argument(
        "--rewire",
        action="append",
        metavar="GATE:OLD:NEW",
        help="replace fanin OLD of GATE by NEW; repeatable",
    )
    delta.add_argument(
        "--replace",
        action="append",
        metavar="NODE:TYPE",
        help="swap a gate's type in place (e.g. g5:nand); repeatable",
    )
    delta.add_argument("--top", type=int, default=10, help="ranking rows to print")
    delta.add_argument(
        "--sp-method",
        default="topological",
        choices=("topological", "cut", "monte_carlo", "exact"),
        help="signal-probability backend",
    )
    delta.add_argument(
        "--verify",
        action="store_true",
        help="also run a full re-analysis of the edited circuit and check "
        "the incremental result is bit-identical",
    )
    _add_analysis_flags(delta, delta=True)

    harden = commands.add_parser(
        "harden",
        help="greedy selective hardening under an area budget",
    )
    harden.add_argument("circuit", help=".bench file, library name, or profile name")
    harden.add_argument(
        "--budget",
        type=float,
        required=True,
        help="area budget (upsizing a gate costs strength-1; TMR costs 3)",
    )
    harden.add_argument(
        "--strength",
        type=float,
        default=10.0,
        help="drive-strength factor per upsized gate (default 10)",
    )
    harden.add_argument(
        "--action",
        choices=("upsize", "tmr"),
        default="upsize",
        help="hardening move per step (tmr demonstrates the documented "
        "EPP limitation: estimated FIT usually rises, steps are rejected)",
    )
    harden.add_argument(
        "--max-steps",
        type=int,
        help="bound on evaluated candidates (accepted or rejected)",
    )
    harden.add_argument(
        "--sp-method",
        default="topological",
        choices=("topological", "cut", "monte_carlo", "exact"),
        help="signal-probability backend",
    )
    _add_analysis_flags(harden, delta=True)

    stats = commands.add_parser("stats", help="print circuit statistics")
    stats.add_argument("circuit", help=".bench file, library name, or profile name")

    generate = commands.add_parser("generate", help="emit a synthetic profile circuit")
    generate.add_argument("profile", help="ISCAS'89 profile name (e.g. s9234)")
    generate.add_argument("-o", "--output", help="output .bench path (default stdout)")
    generate.add_argument("--seed", type=int, help="override the deterministic seed")

    ablations = commands.add_parser(
        "ablations", help="run the design-decision ablation studies"
    )
    ablations.add_argument("--full", action="store_true", help="more circuits/vectors")
    ablations.add_argument("--seed", type=int, default=0)

    serve = commands.add_parser(
        "serve",
        help="run the long-lived analysis service on a unix socket",
    )
    serve.add_argument(
        "socket",
        help="unix-domain socket path to listen on (unlinked at shutdown)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=32,
        help="admission-queue bound; beyond it requests are shed with a "
        "retriable queue-full error carrying a retry_after estimate",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent request executors (each sweep runs in a thread "
        "and may itself fan out over a sharded process pool)",
    )
    serve.add_argument(
        "--client-inflight",
        type=int,
        default=4,
        help="per-client cap on admitted-but-unanswered requests",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        help="default sharded worker count for sweeps (default: stay on "
        "the in-process vector backend unless a request asks)",
    )
    serve.add_argument(
        "--request-deadline",
        type=float,
        metavar="SECONDS",
        help="default end-to-end budget for requests that carry none; "
        "checked at the queue, plan and merge boundaries",
    )
    serve.add_argument(
        "--max-engines",
        type=int,
        default=4,
        help="live per-circuit engines kept; least-recently-used ones "
        "are closed (pools shut down) on overflow",
    )
    serve.add_argument(
        "--store-mb",
        type=int,
        default=64,
        help="artifact-store budget in MiB (checksummed circuits and "
        "finished results, LRU-evicted)",
    )
    serve.add_argument(
        "--store-dir",
        metavar="DIR",
        help="disk tier for the artifact store: results, idempotency "
        "journal and per-circuit sweep checkpoints live in DIR "
        "(content-addressed, checksummed, atomically written) so a "
        "restarted server answers warm",
    )
    serve.add_argument(
        "--disk-mb",
        type=int,
        default=512,
        help="disk-tier budget in MiB for --store-dir (LRU-evicted)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="recover a crashed/drained server from --store-dir: report "
        "requests persisted at the last drain as retriable, and serve "
        "journaled results warm",
    )
    serve.add_argument(
        "--warm",
        action="append",
        metavar="CIRCUIT",
        help="pre-load a circuit at start (engine built; the sharded "
        "pool is warmed too when --jobs is set); repeatable",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive sharded failures before the circuit breaker "
        "trips to the in-process backend",
    )
    serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long a tripped breaker stays open before sweeps may try "
        "the pool again (half-open, until the first result is recorded)",
    )

    knobs = commands.add_parser(
        "knobs",
        help="print the analysis-knob reference (generated from the "
        "AnalysisConfig field metadata)",
    )
    knobs.add_argument(
        "--markdown",
        action="store_true",
        help="emit the Markdown table embedded in the README",
    )

    commands.add_parser("list", help="list embedded circuits and profiles")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "figure1":
        from repro.experiments.figure1 import run_figure1

        result = run_figure1()
        print(result.format())
        return 0 if result.matches_paper else 1

    if args.command == "table1":
        from repro.experiments.table1 import run_table1

        result = run_table1(steps=args.steps)
        print(result.format())
        return 0 if result.all_match else 1

    if args.command == "table2":
        from repro.experiments.reporting import rows_to_csv, rows_to_json
        from repro.experiments.table2 import Table2Config, format_table2, run_table2

        if args.mode == "quick":
            config = Table2Config.quick(args.circuits)
        elif args.mode == "full":
            config = Table2Config.full()
        else:
            config = Table2Config()
        overrides = {}
        if args.circuits and args.mode != "quick":
            overrides["circuits"] = tuple(args.circuits)
        if args.backend != config.backend:
            overrides["backend"] = args.backend
        if args.jobs is not None:
            overrides["jobs"] = args.jobs
        if args.circuit_jobs is not None:
            overrides["circuit_jobs"] = args.circuit_jobs
        if overrides:
            config = Table2Config(**{**config.__dict__, **overrides})
        rows = run_table2(config, verbose=True)
        print()
        print(format_table2(rows))
        if args.csv:
            rows_to_csv(rows, args.csv)
        if args.json:
            rows_to_json(rows, args.json)
        return 0

    if args.command == "analyze":
        from repro.core.analysis import SERAnalyzer

        _check_counts(args)
        circuit = resolve_circuit(args.circuit)
        analyzer = SERAnalyzer(circuit, sp_method=args.sp_method)
        from repro.core.config import AnalysisConfig

        try:
            report = analyzer.analyze(
                sample=args.sample,
                config=AnalysisConfig.from_knobs(**_analysis_knobs(args)),
            )
            print(report.format_table(top=args.top))
            if args.csv:
                from repro.experiments.reporting import rows_to_csv

                rows_to_csv(
                    report.ranked_records(), args.csv,
                    header=report.RECORD_FIELDS,
                )
                print(f"wrote {args.csv}")
            if args.multi_cycle:
                if not report.sites:
                    raise AnalysisError(
                        f"--multi-cycle needs an analyzed site; "
                        f"{circuit.name} has none"
                    )
                top_node = report.ranked(1)[0].node
                value = analyzer.multi_cycle_observability(
                    top_node, cycles=args.multi_cycle
                )
                print(
                    f"multi-cycle observability of {top_node} over "
                    f"{args.multi_cycle} cycles: {value:.4f}"
                )
            return 0
        finally:
            # Shut a sharded run's worker pool down before returning, not
            # in an interpreter-exit finalizer.
            analyzer.release_buffers()

    if args.command == "analyze-delta":
        from repro.core.analysis import SERAnalyzer

        _check_counts(args)
        circuit = resolve_circuit(args.circuit)
        analyzer = SERAnalyzer(circuit, sp_method=args.sp_method)
        edits = _build_edit_set(args)
        delta = None
        try:
            snap = analyzer.snapshot(**_analysis_knobs(args))
            delta = analyzer.analyze_delta(snap, edits)
            stats = delta.stats
            print(
                f"delta analysis of {circuit.name}: re-swept {stats['dirty']} "
                f"of {stats['sites']} sites (reused {stats['reused']}, edit "
                f"frontier {stats['frontier']} nodes)"
            )
            report = analyzer.report_for(delta)
            print(report.format_table(top=args.top))
            if args.verify:
                import numpy as np

                full = delta.engine.snapshot(**delta.knobs)
                identical = all(
                    np.array_equal(left, right)
                    for left, right in zip(delta.packed, full.packed)
                ) and delta.site_names == full.site_names
                print(f"verify: incremental == full re-analysis: {identical}")
                if not identical:
                    return 1
            return 0
        finally:
            analyzer.release_buffers()
            if delta is not None:
                # A structural edit's revision runs on an engine (and
                # pool) of its own.
                delta.engine.release_buffers()

    if args.command == "harden":
        from repro.core.analysis import SERAnalyzer
        from repro.ser.hardening import optimize_hardening

        circuit = resolve_circuit(args.circuit)
        analyzer = SERAnalyzer(circuit, sp_method=args.sp_method)
        plan = None
        try:
            plan = optimize_hardening(
                analyzer,
                area_budget=args.budget,
                strength_factor=args.strength,
                action=args.action,
                max_steps=args.max_steps,
                **_analysis_knobs(args),
            )
            print(plan.format())
            return 0
        finally:
            analyzer.release_buffers()
            if plan is not None:
                plan.result.engine.release_buffers()

    if args.command == "stats":
        circuit = resolve_circuit(args.circuit)
        print(circuit_stats(circuit).format())
        return 0

    if args.command == "generate":
        circuit = generate_iscas(args.profile, seed=args.seed)
        text = write_bench(circuit, args.output)
        if not args.output:
            print(text, end="")
        else:
            print(f"wrote {args.output}")
        return 0

    if args.command == "ablations":
        from repro.experiments.ablations import run_ablations

        report = run_ablations(seed=args.seed, quick=not args.full)
        print(report.format())
        return 0

    if args.command == "knobs":
        from repro.core.config import knob_reference

        print(knob_reference(markdown=args.markdown), end="")
        return 0

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "list":
        print("library circuits: " + ", ".join(list_circuits()))
        print("ISCAS'89 profiles: " + ", ".join(sorted(ISCAS89_PROFILES)))
        print("ISCAS'85 profiles: " + ", ".join(sorted(ISCAS85_PROFILES)))
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.config import AnalysisConfig
    from repro.errors import ConfigError
    from repro.server.service import AnalysisService

    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    if args.max_queue < 1:
        raise ConfigError(f"--max-queue must be >= 1, got {args.max_queue}")
    if args.request_deadline is not None:
        # The budget becomes the sharded ``deadline`` knob: validate it
        # there (rejects <= 0 and unwaitable values).
        AnalysisConfig(deadline=args.request_deadline)
    if args.resume and not args.store_dir:
        raise ConfigError("--resume needs --store-dir (nothing to recover from)")
    service = AnalysisService(
        args.socket,
        max_queue=args.max_queue,
        workers=args.workers,
        client_inflight=args.client_inflight,
        jobs=args.jobs,
        default_deadline=args.request_deadline,
        max_engines=args.max_engines,
        store_bytes=args.store_mb * 1024 * 1024,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        warm=tuple(args.warm or ()),
        store_dir=args.store_dir,
        disk_bytes=args.disk_mb * 1024 * 1024,
        resume=args.resume,
    )

    async def _serve() -> None:
        await service.start()
        print(f"serving on {service.socket_path}", flush=True)
        if service.recovered_pending:
            print(
                f"recovered {len(service.recovered_pending)} pending "
                "request(s) from the last drain; clients may retry them "
                "against warm artifacts",
                flush=True,
            )
        await service.run()
        print("drained", flush=True)

    asyncio.run(_serve())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
