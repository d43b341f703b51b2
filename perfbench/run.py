"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-suite --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (the traced run also writes a Chrome trace and prints a per-layer
self-time table). The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]

#: Timed builds of the 8 programs in set-up; ``setup_s`` takes their median.
SETUP_REPEATS = 3


def _add_import_paths() -> None:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"perfbench: {src / 'repro'} not found; run from a checkout of the repository")
    sys.path[:0] = [str(src), str(ROOT)]


class GcClock:
    """Host time and count of interpreter GC collections (``gc.callbacks``)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1


def host_facts(seed: int) -> Dict[str, object]:
    """Host, seed and code identity stamped on every result."""
    from repro.harness.cache import source_digest

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = ""
    # Only this checkout's own repository: a parent directory's must not answer.
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "seed": seed,
        "source_digest": source_digest(),
        "git_commit": commit or "unknown (not a git checkout)",
    }


def peak_rss_mb() -> float:
    """This process's peak RSS (Linux reports KiB).

    Only the ``warm-tables`` cache fill starts workers, and which programs
    each worker gets varies, so their peak is left out.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(samples: List[float], pct: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def op_seconds(outcomes, clock, pct: int) -> float:
    """Operation time at percentile ``pct`` in ``clock``'s seconds.

    Each part (one program, where an operation runs the programs one
    after another) gets its own percentile over the run's operations,
    and the operation's time is their sum.
    """
    by_part: Dict[str, List[float]] = {}
    for outcome in outcomes:
        for name, (start, end) in outcome.parts.items():
            by_part.setdefault(name, []).append(clock.normalize(start, end))
    return sum(percentile(samples, pct) for samples in by_part.values())


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    expected_digests: Optional[Dict[str, str]] = None,
    names: Optional[Sequence[str]] = None,
) -> dict:
    """Set up, run the closed loop for ``seconds``, and return a report.

    ``names`` restricts the run to some of the 8 programs (tests and
    quick local runs); ``expected_digests`` replaces the digest book.
    """
    from perfbench.hostclock import HostClock, NullClock

    # Checked times are in reference seconds (see hostclock.py); the
    # traced run's are plain host seconds.
    clock = NullClock() if trace else HostClock()
    with clock:
        return _run(clock, workload, seed, seconds, trace, expected_digests, names)


def _run(clock, workload, seed, seconds, trace, expected_digests, names) -> dict:
    from repro.workloads import WORKLOAD_ORDER
    from repro.workloads.base import _compile_cached

    from perfbench import suite
    from perfbench.hostclock import REFERENCE_LOOP_S, NullClock
    from perfbench.probe import run_probe
    from perfbench.spans import NullTracer, Tracer, format_self_times
    from perfbench.workloads import WORKLOADS, Outcome

    programs = suite.install_seeded_workloads(seed, names or WORKLOAD_ORDER)
    builds = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        _compile_cached.cache_clear()
        for program in programs:
            program.program()
        builds.append(clock.normalize(started, time.perf_counter()))
    started = time.perf_counter()
    bench = WORKLOADS[workload](seed, programs, suite.DigestBook(seed, expected_digests))
    bench.work.mkdir(parents=True)
    bench.setup()
    setup_s = statistics.median(builds) + clock.normalize(started, time.perf_counter())
    gc.collect()
    gc.freeze()

    tracer = Tracer() if trace else None
    untraced = NullTracer()
    gc_clock = GcClock()
    outcomes: List[Outcome] = []
    traced_flags: List[bool] = []
    problems: List[str] = []
    loop_started = time.perf_counter()
    try:
        while True:
            # The traced run alternates untraced and traced operations.
            traced = trace and len(outcomes) % 2 == 1
            if traced:
                gc.callbacks.append(gc_clock)
            op_started = time.perf_counter()
            try:
                outcome = bench.op(tracer if traced else untraced)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                now = time.perf_counter()
                raised = [f"raised {type(exc).__name__}: {exc}"]
                outcome = Outcome(now - op_started, 0, raised, {"op": (op_started, now)})
            finally:
                if traced:
                    gc.callbacks.remove(gc_clock)
            outcomes.append(outcome)
            traced_flags.append(traced)
            problems += outcome.problems
            gc.collect()
            elapsed = time.perf_counter() - loop_started
            typical = statistics.median(o.seconds for o in outcomes)
            both_kinds = not trace or len(outcomes) >= 2
            if both_kinds and elapsed + typical > seconds:
                break
        probe_metrics: Dict[str, float] = {}
        if trace:
            probe_started = time.perf_counter()
            try:
                probe_metrics, probe_problems = run_probe(tracer, programs)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                probe_problems = [f"probe raised {type(exc).__name__}: {exc}"]
            probe_seconds = time.perf_counter() - probe_started
    finally:
        bench.close()
        gc.unfreeze()

    attempted = len(outcomes) + (1 if trace else 0)
    failed = sum(1 for outcome in outcomes if outcome.problems)
    timed = [o for o, t in zip(outcomes, traced_flags) if not t]
    report: Dict[str, object] = {"workload": workload}
    if trace:
        failed += 1 if probe_problems else 0
        problems += probe_problems
        traced_ops = [o for o, t in zip(outcomes, traced_flags) if t]
        overhead = statistics.median(o.seconds for o in traced_ops) / statistics.median(
            o.seconds for o in timed
        )
        metrics = dict(probe_metrics)
        metrics.update(
            {
                "py.gc_s": gc_clock.seconds,
                "py.gc_collections": gc_clock.collections,
                "bench.trace_overhead_frac": overhead - 1.0,
            }
        )
        wall = sum(o.seconds for o in traced_ops) + probe_seconds
        layers = tracer.self_times()
        layers.pop("bench", None)
        report["self_times"] = layers
        report["traced_wall_s"] = wall
        report["self_time_table"] = format_self_times(layers, wall)
        report["tracer"] = tracer
    else:
        op_p50 = op_seconds(timed, clock, 50)
        metrics = {
            "insns_per_s": statistics.median(o.insns for o in timed) / op_p50,
            "op_s.p50": op_p50,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        report["op_s.p90"] = op_seconds(timed, clock, 90)
        report["host_op_s.p50"] = op_seconds(timed, NullClock(), 50)
        report["host_slowdown"] = statistics.median(clock.busy_loop_seconds) / REFERENCE_LOOP_S
    report.update(
        {
            # After the RSS reading: the stamp may start a git process.
            "host": host_facts(seed),
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "problems": problems,
            "op_seconds": [o.seconds for o in outcomes],
            "metrics": metrics,
        }
    )
    return report


def _units() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--programs", help="comma-separated subset of the 8 programs")
    args = parser.parse_args(argv)
    _add_import_paths()
    from perfbench import suite
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    units = _units()
    names = args.programs.split(",") if args.programs else None
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), names=names)

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    out_dir = suite.WORK_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = report.pop("tracer", None)
    if tracer is not None:
        trace_path = out_dir / f"{stamp}.trace.json"
        tracer.write(str(trace_path), report["host"])
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        print(report["self_time_table"])
        coverage = sum(report["self_times"].values()) / report["traced_wall_s"]
        print(f"layer self time covers {100.0 * coverage:.1f}% of the traced wall time")
    (out_dir / f"{stamp}.json").write_text(json.dumps(report, indent=1, default=str))

    print("# host " + json.dumps(report["host"], sort_keys=True))
    for problem in report["problems"][:20]:
        print(f"# FAILED CHECK: {problem}")
    print(f"# failed_frac {report['failed_frac']:.4f} ({report['failed']} of {report['attempted']})")
    for name in ("op_s.p90", "host_op_s.p50", "host_slowdown"):
        if name in report:
            print(f"# {name} {report[name]:.6f} (not a checked metric)")
    for name, value in report["metrics"].items():
        print(f"{name:<42} {value:>16.6f} {units[name]}")
    final = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
