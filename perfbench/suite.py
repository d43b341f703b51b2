"""Seeded inputs and correctness oracles shared by the workloads.

Inputs come from the registry's own per-program generators. Seed 0
reproduces the registry's primary inputs; seed ``s`` shifts every
program's generator seed by ``30 * s``. 30 is a multiple of every
modulus the generators take of their seed to pick an input *size*
(go: 5, m88ksim and gcc: 3, vortex: 30), so sizes stay fixed across
seeds while the generated text and images change. For go, m88ksim,
vortex and gcc the seed only picks a size, so their inputs are the
same at every seed.

The seeded workloads are installed into the registry in place, so
``run_suite`` (which looks workloads up by name) and the fork-started
pool workers of ``run_suite(jobs=2)`` see the same inputs as
``run_workload``.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.experiments import EXPERIMENT_ORDER, EXPERIMENTS
from repro.harness.failures import result_digest
from repro.sim.simulator import RunResult, Simulator
from repro.workloads import WORKLOAD_ORDER, registry
from repro.workloads.base import Workload

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".perfbench"
ARTIFACT_DIR = ROOT / "benchmarks" / "results"
EXPECTED_DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"

#: Seed shift per benchmark seed (see the module docstring).
SEED_STRIDE = 30

#: Registry generator and primary seed per program.
GENERATORS: Dict[str, Tuple[Callable[[int, int], bytes], int]] = {
    "go": (registry._go_input, 12345),
    "m88ksim": (registry._m88k_input, 1),
    "ijpeg": (registry._ijpeg_input, 17),
    "perl": (registry._perl_input, 11),
    "vortex": (registry._vortex_input, 9),
    "li": (registry._li_input, 5),
    "gcc": (registry._gcc_input, 3),
    "compress": (registry._compress_input, 7),
}

#: The registry as shipped, before any seeded input is installed.
_SHIPPED: Dict[str, Workload] = dict(registry.WORKLOADS)

#: Experiments with a committed artifact (Table 10T has none).
ARTIFACT_IDS = tuple(exp for exp in EXPERIMENT_ORDER if exp != "table10t")


def seeded_input(name: str, seed: int, scale: int) -> bytes:
    maker, primary_seed = GENERATORS[name]
    return maker(primary_seed + SEED_STRIDE * seed, scale)


def install_seeded_workloads(seed: int, names: Sequence[str] = WORKLOAD_ORDER) -> List[Workload]:
    """Point every registry entry's primary input at this seed's input.

    Returns the seeded workloads named in ``names``, in suite order.
    """
    workloads = []
    for name in WORKLOAD_ORDER:
        original = _SHIPPED[name]
        if seeded_input(name, 0, 1) != original.primary_input(1):
            raise RuntimeError(f"seed 0 no longer reproduces {name}'s primary input")
        seeded = dataclasses.replace(
            original,
            primary_input=lambda scale, name=name: seeded_input(name, seed, scale),
        )
        registry.WORKLOADS[name] = seeded
        if name in names:
            workloads.append(seeded)
    return workloads


def bare_run(workload: Workload, input_data: bytes, engine: str) -> RunResult:
    return Simulator(workload.program(), input_data=input_data, engine=engine).run()


def compare_run(name: str, run: RunResult, reference: RunResult) -> List[str]:
    """Output, exit code and retired-instruction mismatches against a reference."""
    problems = []
    if run.stop_reason not in ("exit", "halt"):
        problems.append(f"{name}: stopped by {run.stop_reason}")
    if run.exit_code != reference.exit_code:
        problems.append(f"{name}: exit code {run.exit_code} != {reference.exit_code}")
    if run.output != reference.output:
        problems.append(f"{name}: program output differs from the reference")
    retired = run.analyzed_instructions
    if retired != reference.total_instructions:
        problems.append(f"{name}: retired {retired} != {reference.total_instructions}")
    return problems


def render_all(results) -> Dict[str, str]:
    """Every experiment rendered the way the committed artifacts are."""
    texts = {}
    for exp_id in EXPERIMENT_ORDER:
        exp = EXPERIMENTS[exp_id]
        texts[exp_id] = f"== {exp.paper_ref}: {exp.title} ==\n{exp.render(results)}\n"
    return texts


def compare_artifacts(texts: Dict[str, str]) -> List[str]:
    """Rendered text against the committed ``benchmarks/results`` files."""
    problems: List[str] = []
    for exp_id in ARTIFACT_IDS:
        path = ARTIFACT_DIR / f"{exp_id}.txt"
        if not path.is_file():
            problems.append(f"{exp_id}: committed artifact missing")
        elif path.read_text() != texts[exp_id]:
            problems.append(f"{exp_id}: rendered text differs from the committed artifact")
    return problems


class DigestBook:
    """Expected ``result_digest`` per program for one seed.

    At seed 0 the expectation is committed (``expected_digests.json``).
    At any other seed the first run in a checkout records the digests
    it computed, and every later pass, run and workload (serial,
    parallel or cache fill) must reproduce them. An explicit
    ``expected`` map is used as given and never written back.
    """

    def __init__(self, seed: int, expected: Optional[Dict[str, str]] = None) -> None:
        self._path: Optional[Path] = None
        if expected is not None:
            self.expected = dict(expected)
        elif seed == 0:
            self.expected = json.loads(EXPECTED_DIGESTS.read_text())
        else:
            self._path = WORK_DIR / "digests" / f"seed-{seed}.json"
            is_file = self._path.is_file()
            self.expected = json.loads(self._path.read_text()) if is_file else {}

    def check(self, results) -> List[str]:
        digests = {name: result_digest(result) for name, result in results.items()}
        problems = [
            f"{name}: result digest {digest[:12]} != expected {self.expected[name][:12]}"
            for name, digest in digests.items()
            if name in self.expected and self.expected[name] != digest
        ]
        fresh = {name: d for name, d in digests.items() if name not in self.expected}
        if fresh:
            self.expected.update(fresh)
            if self._path is not None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                tmp = self._path.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(json.dumps(self.expected, indent=1, sort_keys=True))
                os.replace(tmp, self._path)
        return problems
