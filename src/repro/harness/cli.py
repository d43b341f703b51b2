"""``repro-run`` command line interface.

Examples::

    repro-run --list
    repro-run table1 table4 --scale 1
    repro-run --all --scale 2 --input secondary
    repro-run table1 --profile
    repro-run --all --metrics-out metrics.json --trace-out trace.json

Telemetry flags (all opt-in, see :mod:`repro.obs`):

* ``--profile`` prints a per-phase / per-analyzer time table;
* ``--metrics-out FILE`` writes the metrics snapshot plus the suite run
  manifest as JSON;
* ``--trace-out FILE`` writes Chrome trace-event JSON for
  ``chrome://tracing`` / Perfetto.

With any telemetry flag the experiment list may be empty — the suite
still runs and the telemetry artifacts are written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.harness.cache import source_digest
from repro.harness.experiments import EXPERIMENT_ORDER, EXPERIMENTS
from repro.harness.runner import SuiteConfig, run_suite, set_cache_dir
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs import profiling as obs_profiling
from repro.obs import tracing as obs_tracing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description=(
            "Reproduce tables and figures from Sodani & Sohi, 'An Empirical "
            "Analysis of Instruction Repetition' (ASPLOS 1998)."
        ),
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids (e.g. table1 fig5)")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list experiment ids and exit")
    parser.add_argument("--scale", type=int, default=1, help="workload input scale (default 1)")
    parser.add_argument(
        "--input",
        choices=("primary", "secondary"),
        default="primary",
        help="input set (secondary = the paper's sensitivity check)",
    )
    parser.add_argument(
        "--buffer-capacity",
        type=int,
        default=2000,
        help="unique instances buffered per static instruction (paper: 2000)",
    )
    parser.add_argument("--reuse-entries", type=int, default=8192)
    parser.add_argument("--reuse-assoc", type=int, default=4)
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=1024,
        help="trace reuse table entries (Table 10T; default 1024)",
    )
    parser.add_argument(
        "--trace-ways",
        type=int,
        default=4,
        help="trace reuse table associativity (default 4)",
    )
    parser.add_argument(
        "--trace-max-len",
        type=int,
        default=16,
        help="maximum instructions per memoized trace (default 16)",
    )
    parser.add_argument(
        "--workloads",
        default=None,
        help="comma-separated subset of workloads (default: all eight)",
    )
    parser.add_argument(
        "--engine",
        choices=("predecoded", "interpreter"),
        default="predecoded",
        help="execution engine (interpreter = slow reference backend)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the suite run (default 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist workload results to this directory "
        "(default: $REPRO_CACHE_DIR if set, else no persistent cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache even if configured",
    )
    parser.add_argument(
        "--markdown",
        metavar="FILE",
        default=None,
        help="also write the selected experiments as a markdown report "
        "(plus FILE.manifest.json with the run manifest)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-phase and per-analyzer timing after the run",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the metrics registry snapshot + run manifest as JSON",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON (chrome://tracing, Perfetto)",
    )
    parser.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="--no-strict keeps going on workload failures and reports "
        "partial results (exit code 3 when anything failed)",
    )
    parser.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="per-workload wall-clock budget in seconds (default: none)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retry budget for transient workload failures (default 2)",
    )
    parser.add_argument(
        "--faults",
        metavar="PLAN",
        default=None,
        help="fault-injection plan, e.g. 'worker.crash:go' or "
        "'engine.predecode_raise:*:2' (grammar: repro.harness.faults)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI; returns the exit status.

    A reader that closes the pipe early (``repro-run ... | head``) ends
    the run with status 1 and no traceback, as the Python documentation
    on SIGPIPE recommends.
    """
    try:
        status = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull: the interpreter's final flush of the
        # unwritten buffer would raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


def _run(argv: Optional[List[str]]) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for exp_id in EXPERIMENT_ORDER:
            exp = EXPERIMENTS[exp_id]
            print(f"{exp_id:8s} {exp.paper_ref:9s} {exp.title}")
        return 0

    telemetry = bool(args.profile or args.metrics_out or args.trace_out)
    exp_ids = list(EXPERIMENT_ORDER) if args.all else args.experiments
    if not exp_ids and not telemetry:
        print("no experiments selected; try --list or --all", file=sys.stderr)
        return 2
    unknown = [e for e in exp_ids if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    if args.no_cache:
        set_cache_dir(None)
    elif args.cache_dir:
        set_cache_dir(args.cache_dir)

    config = SuiteConfig(
        scale=args.scale,
        buffer_capacity=args.buffer_capacity,
        reuse_entries=args.reuse_entries,
        reuse_associativity=args.reuse_assoc,
        input_kind=args.input,
        engine=args.engine,
        trace_capacity=args.trace_capacity,
        trace_ways=args.trace_ways,
        trace_max_len=args.trace_max_len,
        fault_plan=args.faults,
    )
    names = args.workloads.split(",") if args.workloads else None

    # Telemetry is process-global and opt-in; arm it for the run and
    # restore the previous state afterwards so embedding callers (and
    # tests) never observe leaked counters or a stale tracer.
    registry = obs_metrics.REGISTRY
    armed_metrics = (args.metrics_out or args.profile) and not registry.enabled
    if armed_metrics:
        obs_metrics.enable()
        registry.reset()
    prior_tracer = obs_tracing.current_tracer()
    tracer = prior_tracer
    if (args.trace_out or args.profile) and tracer is None:
        tracer = obs_tracing.SpanTracer()
        obs_tracing.install_tracer(tracer)
    try:
        started = time.time()
        results = run_suite(
            config,
            names,
            jobs=args.jobs,
            profile=args.profile,
            strict=args.strict,
            retries=args.retries,
            timeout_s=args.timeout_s,
        )
        elapsed = time.time() - started
        total = sum(r.run.analyzed_instructions for r in results.values())
        print(
            f"# suite: {len(results)} workloads, {total:,} instructions, {elapsed:.1f}s\n"
        )
        failures = getattr(results, "failures", {})
        if failures:
            print(f"== failures ({len(failures)}) ==")
            for name, record in failures.items():
                print(
                    f"{name:10s} {record.kind:13s} attempts={record.attempts} "
                    f"engine={record.engine}"
                    + (" [injected]" if record.injected else "")
                    + f" — {record.message}"
                )
            print()
        for exp_id in exp_ids:
            exp = EXPERIMENTS[exp_id]
            print(f"== {exp.paper_ref}: {exp.title} [{exp_id}] ==")
            print(exp.render(results))
            print()

        phase_timing = tracer.durations() if tracer is not None else {}
        manifest = obs_manifest.build_suite_manifest(
            config,
            results,
            source_digest(),
            timing=phase_timing,
            elapsed_seconds=elapsed,
            failures=failures,
        )
        if args.metrics_out:
            with open(args.metrics_out, "w") as handle:
                json.dump(
                    {"manifest": manifest, "metrics": registry.snapshot()},
                    handle,
                    indent=2,
                    sort_keys=True,
                )
                handle.write("\n")
            print(f"# metrics written to {args.metrics_out}")
        if args.trace_out and tracer is not None:
            tracer.write(args.trace_out)
            print(f"# trace written to {args.trace_out}")
        if args.profile:
            profiles = obs_profiling.profiles_from_snapshot(registry.snapshot())
            print("== profile ==")
            if profiles:
                print(obs_profiling.format_profile_table(profiles, phase_timing))
            else:
                print("no analyzer ran: every result came from a cache")
            print()
        if args.markdown:
            from repro.analysis.report import build_markdown_report

            with open(args.markdown, "w") as handle:
                handle.write(build_markdown_report(results, exp_ids, failures=failures))
            manifest_path = f"{args.markdown}.manifest.json"
            obs_manifest.write_manifest(manifest, manifest_path)
            print(
                f"# markdown report written to {args.markdown} "
                f"(manifest: {manifest_path})"
            )
    finally:
        obs_tracing.install_tracer(prior_tracer)
        if armed_metrics:
            obs_metrics.disable()
            registry.reset()
    # Partial (non-strict) completion: artifacts were written, but the
    # run must not look clean to scripts and CI.
    return 3 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
