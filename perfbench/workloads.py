"""The three benchmark workloads.

Each is a closed loop with one client and no pacing: the next operation
starts when the previous one has been checked. ``setup()`` holds the
one-time part of the set-up (references, the warm cache);
``op(tracer)`` runs one operation and returns what it did and what its
checks found. Checks run after the clock stops.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.harness import runner
from repro.harness.runner import SuiteConfig
from repro.sim.simulator import Simulator
from repro.workloads import WORKLOAD_ORDER
from repro.workloads.base import Workload

from perfbench import suite
from perfbench.probe import add_manifest_phases

#: The paper's configuration: scale 1, seven analyzers, predecoded engine.
PAPER_CONFIG = SuiteConfig()

#: Input scale for ``engine-only``: the suite's own scale, about 1.8M
#: instructions per pass, so a run times each program about 20 times.
ENGINE_SCALE = 1


@dataclass
class Outcome:
    seconds: float
    insns: int
    problems: List[str] = field(default_factory=list)
    #: ``perf_counter`` start and end of each timed part of the operation:
    #: one per program where the programs run one after another, else one.
    parts: Dict[str, Tuple[float, float]] = field(default_factory=dict)


class BenchWorkload:
    #: The workload's name in BENCHMARK.json, which also says why it exists.
    name = ""

    def __init__(self, seed: int, workloads: Sequence[Workload], digests: suite.DigestBook):
        self.workloads = list(workloads)
        self.names = [workload.name for workload in self.workloads]
        self.digests = digests
        self.ops = 0
        self.work = suite.WORK_DIR / f"run-{time.time_ns()}"
        # The committed artifacts hold the full suite at the default seed.
        self.checks_artifacts = seed == 0 and len(self.workloads) == len(WORKLOAD_ORDER)

    def setup(self) -> None:
        pass

    def op(self, tracer) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        runner.set_cache_dir(None)
        runner.clear_cache()
        shutil.rmtree(self.work, ignore_errors=True)

    def _bare_references(self) -> None:
        self.references = {
            w.name: suite.bare_run(w, w.primary_input(1), "predecoded") for w in self.workloads
        }

    def _check_results(self, results) -> List[str]:
        problems = []
        for name, result in results.items():
            problems += suite.compare_run(name, result.run, self.references[name])
        problems += self.digests.check(results)
        if self.checks_artifacts:
            problems += suite.compare_artifacts(suite.render_all(results))
        return problems


class PaperSuite(BenchWorkload):
    name = "paper-suite"

    def setup(self) -> None:
        self._bare_references()

    def op(self, tracer) -> Outcome:
        self.ops += 1
        cache_dir = self.work / f"cache-{self.ops}"
        runner.set_cache_dir(str(cache_dir))
        results = {}
        parts = {}
        started = time.perf_counter()
        with tracer.span("bench:op", trace_id=f"op-{self.ops}"):
            for workload in self.workloads:
                call = time.perf_counter()
                with tracer.span("harness.runner:run_workload", trace_id=workload.name):
                    result = runner.run_workload(workload, PAPER_CONFIG)
                    add_manifest_phases(tracer, call, result)
                parts[workload.name] = (call, time.perf_counter())
                results[workload.name] = result
        seconds = time.perf_counter() - started
        insns = sum(result.run.analyzed_instructions for result in results.values())
        problems = self._check_results(results)
        runner.set_cache_dir(None)
        runner.clear_cache()
        shutil.rmtree(cache_dir, ignore_errors=True)
        return Outcome(seconds, insns, problems, parts)


class EngineOnly(BenchWorkload):
    name = "engine-only"

    def setup(self) -> None:
        self.inputs = {w.name: w.primary_input(ENGINE_SCALE) for w in self.workloads}
        self.references = {
            w.name: suite.bare_run(w, self.inputs[w.name], "interpreter") for w in self.workloads
        }

    def op(self, tracer) -> Outcome:
        self.ops += 1
        runs = {}
        parts = {}
        started = time.perf_counter()
        with tracer.span("bench:op", trace_id=f"op-{self.ops}"):
            for workload in self.workloads:
                call = time.perf_counter()
                with tracer.span("sim:Simulator.run", trace_id=workload.name):
                    runs[workload.name] = Simulator(
                        workload.program(), input_data=self.inputs[workload.name]
                    ).run()
                parts[workload.name] = (call, time.perf_counter())
        seconds = time.perf_counter() - started
        problems = []
        for name, run in runs.items():
            problems += suite.compare_run(name, run, self.references[name])
        insns = sum(run.total_instructions for run in runs.values())
        return Outcome(seconds, insns, problems, parts)


class WarmTables(BenchWorkload):
    name = "warm-tables"

    def setup(self) -> None:
        self.cache_dir = str(self.work / "cache")
        runner.set_cache_dir(self.cache_dir)
        cold = runner.run_suite(PAPER_CONFIG, names=self.names, jobs=2)
        self.fill_problems = self.digests.check(cold)
        self.cold_texts = suite.render_all(cold)
        if self.checks_artifacts:
            self.fill_problems += suite.compare_artifacts(self.cold_texts)

    def op(self, tracer) -> Outcome:
        self.ops += 1
        # Drop the in-memory layer only; the disk layer stays warm.
        runner.set_cache_dir(None)
        runner.clear_cache()
        runner.set_cache_dir(self.cache_dir)
        started = time.perf_counter()
        with tracer.span("bench:op", trace_id=f"op-{self.ops}"):
            with tracer.span("harness.runner:run_suite"):
                results = runner.run_suite(PAPER_CONFIG, names=self.names)
            with tracer.span("harness.experiments:render"):
                texts = suite.render_all(results)
        ended = time.perf_counter()
        seconds = ended - started
        problems = [] if self.ops > 1 else list(self.fill_problems)
        hits = sum(result.manifest.cache == "disk-hit" for result in results.values())
        if hits != len(self.workloads):
            problems.append(f"{hits} of {len(self.workloads)} loads were disk-cache hits")
        for exp_id, text in texts.items():
            if text != self.cold_texts[exp_id]:
                problems.append(f"{exp_id}: warm rendering differs from the cold run's")
        insns = sum(result.run.analyzed_instructions for result in results.values())
        return Outcome(seconds, insns, problems, {"op": (started, ended)})


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (PaperSuite, EngineOnly, WarmTables)
}
