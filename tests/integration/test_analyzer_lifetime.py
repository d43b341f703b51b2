"""Analyzers are freed by reference counting once a run is over.

Compiled step closures refer back to their analyzer.  The on_step
adapter keeps them in the analyzer's ``_compiled_steps``, which makes a
cycle; a finished run and an event-trace replay drop it, so the seven
analyzers do not wait for the cycle collector.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.harness import SuiteConfig, build_analyzers
from repro.sim import Simulator
from repro.sim.trace import TraceRecorder
from repro.workloads import get_workload

CONFIG = SuiteConfig(engine="interpreter", limit_instructions=3_000)


@pytest.fixture
def no_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _simulate(analyzers):
    workload = get_workload("compress")
    Simulator(
        workload.program(),
        input_data=CONFIG.input_for(workload),
        analyzers=analyzers,
        engine=CONFIG.engine,
    ).run(limit=CONFIG.limit_instructions)


def test_interpreter_run_frees_the_stack(no_cycle_collector):
    analyzers = build_analyzers(CONFIG)
    _simulate(analyzers)
    refs = [weakref.ref(analyzer) for analyzer in analyzers]
    del analyzers
    assert [ref() for ref in refs] == [None] * len(refs)


def test_replay_frees_the_stack(no_cycle_collector):
    recorder = TraceRecorder()
    _simulate([recorder])
    analyzers = build_analyzers(CONFIG)
    recorder.trace().replay(analyzers)
    refs = [weakref.ref(analyzer) for analyzer in analyzers]
    del analyzers
    assert [ref() for ref in refs] == [None] * len(refs)
