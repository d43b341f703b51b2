"""Window edges on both engines: where ``skip`` and ``limit`` stop a run.

The predecoded engine has one dispatch loop for both windows
(``Simulator._run``).  In warm-up, and in runs without step analyzers,
it dispatches a straight-line run of instructions at a time
(:func:`repro.sim.predecode.chain`); in analysis mode it dispatches one
observed closure per instruction.  The end of warm-up and the analysis
limit must still fall on exactly the instruction the reference
interpreter stops at, wherever inside a run they land, with and without
a step analyzer (``bare`` and ``observed``).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import RepetitionTracker
from repro.sim import Analyzer, Simulator, predecode
from repro.sim.simulator import ENGINES
from repro.workloads import get_workload


class _PcRecorder(Analyzer):
    def __init__(self) -> None:
        self.pcs = []

    def on_step(self, record) -> None:
        self.pcs.append(record.pc)


def _memory_digest(simulator: Simulator) -> str:
    digest = hashlib.sha256()
    for index, page in sorted(simulator.memory._pages.items()):
        if any(page):
            digest.update(index.to_bytes(4, "little"))
            digest.update(page)
    return digest.hexdigest()


def _state(simulator: Simulator, run) -> tuple:
    return (
        run,
        simulator.pc,
        list(simulator.regs),
        simulator.hi,
        simulator.lo,
        simulator.output,
        len(simulator.call_stack),
        _memory_digest(simulator),
    )


@pytest.fixture(scope="module")
def compress():
    workload = get_workload("compress")
    return workload.program(), workload.primary_input(1)


@pytest.fixture(scope="module")
def long_run(compress):
    """``(first, length)``: a dispatch of at least 8 instructions.

    ``first`` counts the instructions retired before it in a run from
    the program entry; the dispatches are replayed from the
    interpreter's pc stream with the engine's own chain rule.
    """
    program, input_data = compress
    recorder = _PcRecorder()
    Simulator(program, input_data, [recorder], engine="interpreter").run(limit=5_000)
    text = program.text
    code = [None] * len(text)
    pcs = recorder.pcs
    position = 0
    while position < len(pcs):
        _, length = predecode.chain(code, text, (pcs[position] - program.text_base) >> 2)
        if length >= 8 and all(
            pcs[position + i] == pcs[position] + 4 * i for i in range(length)
        ):
            return position, length
        position += length
    pytest.fail("no straight-line run of 8 instructions in compress's first 5,000")


def _both_engines(compress, observed: bool, **window):
    program, input_data = compress
    states = []
    for engine in ENGINES:
        analyzers = [RepetitionTracker()] if observed else []
        simulator = Simulator(program, input_data, analyzers, engine=engine)
        states.append(_state(simulator, simulator.run(**window)))
    return states


_MODES = pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])


@_MODES
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("skip", [0, 1, 5, 1_000])
def test_zero_limit_retires_nothing(compress, engine, skip, observed):
    program, input_data = compress
    analyzers = [RepetitionTracker()] if observed else []
    simulator = Simulator(program, input_data, analyzers, engine=engine)
    run = simulator.run(limit=0, skip=skip)
    assert run.stop_reason == "limit"
    assert run.total_instructions == 0
    assert run.analyzed_instructions == 0
    assert simulator.pc == program.entry


@_MODES
def test_warmup_end_at_every_offset(compress, long_run, observed):
    first, length = long_run
    for offset in range(length + 1):
        fast, reference = _both_engines(compress, observed, skip=first + offset, limit=3 * length)
        assert fast == reference, f"skip={first + offset}"
        assert fast[0].total_instructions == first + offset + 3 * length


@_MODES
def test_limit_at_every_offset(compress, long_run, observed):
    first, length = long_run
    for offset in range(length + 1):
        fast, reference = _both_engines(compress, observed, limit=first + offset)
        assert fast == reference, f"limit={first + offset}"
        assert fast[0].stop_reason == "limit"
        assert fast[0].analyzed_instructions == first + offset


@_MODES
def test_skip_and_limit_inside_runs(compress, long_run, observed):
    first, length = long_run
    for offset in range(length + 1):
        # The warm-up ends inside one run; the limit falls at every
        # offset of the runs that follow.
        window = dict(skip=first + length // 2, limit=offset + 2 * length)
        fast, reference = _both_engines(compress, observed, **window)
        assert fast == reference, f"{window}"

