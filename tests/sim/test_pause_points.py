"""Breakpoints, watchpoints and single-stepping on the pause/resume API.

An analyzer hook that calls :meth:`Simulator.request_pause` stops the
run at the next instruction boundary with ``stop_reason == "paused"``;
:meth:`Simulator.resume` continues it.  These tests drive a small MiniC
program through function-entry breakpoints, memory watchpoints and
instruction stepping on both engines, and inspect registers, memory, the
call stack and the output at each stop.
"""

from __future__ import annotations

import threading

import pytest

from repro.isa.registers import A0
from repro.lang import compile_source
from repro.sim import Analyzer, SimError, Simulator

ENGINES = ("predecoded", "interpreter")

SOURCE = """
int total = 0;

int accumulate(int x) {
    total += x;
    return total;
}

int main() {
    int i;
    for (i = 1; i <= 5; i++) {
        accumulate(i);
    }
    print_int(total);
    return 0;
}
"""

PROGRAM = compile_source(SOURCE)


class Breakpoints(Analyzer):
    """Pauses on entry to any function named in ``functions``."""

    def __init__(self, *functions: str) -> None:
        self.functions = set(functions)
        self.simulator = None

    def on_call(self, event) -> None:
        if event.function is not None and event.function.name in self.functions:
            self.simulator.request_pause()


class Watchpoint(Analyzer):
    """Pauses after any load or store touching the word at ``address``."""

    def __init__(self, address: int) -> None:
        self.address = address
        self.hits = []
        self.simulator = None

    def compile_step(self, pc, instr):
        if not (instr.is_load or instr.is_store):
            return None

        def step(n, inputs, outputs, value, address) -> None:
            if address == self.address:
                self.hits.append(address)
                self.simulator.request_pause()

        return step


class StepStops(Analyzer):
    """Pauses once the given numbers of instructions have retired."""

    def __init__(self, *counts: int) -> None:
        self.counts = set(counts)
        self.simulator = None

    def on_step(self, record) -> None:
        # Step indices count retired instructions from 1.
        if record.index in self.counts:
            self.simulator.request_pause()


def attach(engine: str, hook: Analyzer) -> Simulator:
    simulator = Simulator(PROGRAM, analyzers=[hook], engine=engine)
    hook.simulator = simulator
    return simulator


def stops(simulator: Simulator, first):
    """Results of every stop from ``first`` on, the final one last."""
    results = [first]
    while results[-1].stop_reason == "paused":
        results.append(simulator.resume())
    return results


@pytest.mark.parametrize("engine", ENGINES)
class TestBreakpoints:
    def test_break_at_function_entry(self, engine):
        simulator = attach(engine, Breakpoints("accumulate"))
        result = simulator.run()
        assert result.stop_reason == "paused"
        assert PROGRAM.function_at(simulator.pc).name == "accumulate"
        assert simulator.pc == PROGRAM.symbols["accumulate"]

    def test_hit_count_over_loop(self, engine):
        simulator = attach(engine, Breakpoints("accumulate"))
        results = stops(simulator, simulator.run())
        assert [r.stop_reason for r in results] == ["paused"] * 5 + ["halt"]

    def test_argument_values_at_stop(self, engine):
        simulator = attach(engine, Breakpoints("accumulate"))
        values = []
        result = simulator.run()
        while result.stop_reason == "paused":
            values.append(simulator.regs[A0])
            result = simulator.resume()
        assert values == [1, 2, 3, 4, 5]

    def test_remove_breakpoint(self, engine):
        hook = Breakpoints("accumulate")
        simulator = attach(engine, hook)
        assert simulator.run().stop_reason == "paused"
        hook.functions.clear()
        result = simulator.resume()
        assert result.stop_reason == "halt"
        assert result.output == "15"

    def test_breakpoint_on_function_never_called(self, engine):
        simulator = attach(engine, Breakpoints("print_total"))
        result = simulator.run()
        assert result.stop_reason == "halt"
        assert not simulator.paused


@pytest.mark.parametrize("engine", ENGINES)
class TestWatchpoints:
    def test_watch_global_accesses(self, engine):
        hook = Watchpoint(PROGRAM.symbols["total"])
        simulator = attach(engine, hook)
        results = stops(simulator, simulator.run())
        # total is stored 5x and loaded several times (loads count too).
        assert len(results) - 1 == len(hook.hits) >= 5
        assert results[-1].stop_reason == "halt"

    def test_watch_reports_address(self, engine):
        hook = Watchpoint(PROGRAM.symbols["total"])
        simulator = attach(engine, hook)
        assert simulator.run().stop_reason == "paused"
        assert hook.hits == [PROGRAM.symbols["total"]]


@pytest.mark.parametrize("engine", ENGINES)
class TestStepping:
    def test_single_step(self, engine):
        simulator = attach(engine, StepStops(1))
        result = simulator.run()
        assert result.stop_reason == "paused"
        assert result.analyzed_instructions == 1
        assert simulator.pc == PROGRAM.entry + 4

    def test_multi_step(self, engine):
        simulator = attach(engine, StepStops(10, 15))
        assert simulator.run().analyzed_instructions == 10
        assert simulator.resume().analyzed_instructions == 15

    def test_step_then_continue_to_end(self, engine):
        simulator = attach(engine, StepStops(3))
        assert simulator.run().stop_reason == "paused"
        result = simulator.resume()
        assert result.stop_reason == "halt"
        assert result.output == "15"


@pytest.mark.parametrize("engine", ENGINES)
class TestInspection:
    def test_read_memory_by_symbol(self, engine):
        simulator = attach(engine, Breakpoints("main"))
        assert simulator.run().stop_reason == "paused"
        assert simulator.memory.read_word(PROGRAM.symbols["total"]) == 0
        assert simulator.resume().stop_reason == "halt"
        assert simulator.memory.read_word(PROGRAM.symbols["total"]) == 15

    def test_backtrace(self, engine):
        simulator = attach(engine, Breakpoints("accumulate"))
        simulator.run()
        names = [frame.function.name for frame in simulator.call_stack]
        assert names == ["main", "accumulate"]

    def test_finished_guard(self, engine):
        simulator = attach(engine, Breakpoints())
        assert simulator.run().stop_reason == "halt"
        assert not simulator.paused
        with pytest.raises(SimError):
            simulator.resume()
        with pytest.raises(SimError):
            simulator.run()

    def test_output_accumulates_in_stops(self, engine):
        simulator = attach(engine, Breakpoints("accumulate"))
        results = stops(simulator, simulator.run())
        assert [r.output for r in results] == [""] * 5 + ["15"]

    def test_stops_match_an_uninterrupted_run(self, engine):
        simulator = attach(engine, Breakpoints("accumulate"))
        paused = stops(simulator, simulator.run())[-1]
        plain = Simulator(PROGRAM, engine=engine).run()
        assert paused == plain


#: About 3M instructions, 15 per iteration: 0.5 s on the bare engine
#: (CPython 3.11, shared 2-CPU x86 host).
LONG_LOOP = compile_source(
    """
int main() {
    int i;
    int total = 0;
    for (i = 0; i < 200000; i++) {
        total += i & 7;
    }
    print_int(total);
    return 0;
}
"""
)


@pytest.mark.wall_clock
def test_a_request_from_another_thread_stops_a_bare_run():
    """The watchdog's case: no analyzer, and a timer thread asks to pause.

    The record-free loop checks the flag on every dispatch, so the run
    stops at the end of the straight-line run it is in (at most
    :data:`~repro.sim.predecode.CHAIN_CAP` instructions), long before the
    program ends, and resumes to the same output.
    """
    simulator = Simulator(LONG_LOOP)
    timer = threading.Timer(0.01, simulator.request_pause)
    timer.start()
    try:
        result = simulator.run()
    finally:
        timer.cancel()
    assert result.stop_reason == "paused"
    # A third of the run takes about 0.17 s, 17 times the timer's delay.
    assert result.analyzed_instructions < 1_000_000
    result = simulator.resume()
    assert result.stop_reason == "halt"
    assert result.output == "700000"
