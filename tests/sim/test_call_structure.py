"""Call/return events, instruction classes and control flow of whole runs.

The function-level and local analyses are driven by the simulator's
call and return events and by each step's instruction kind.  These tests
count those events for small programs whose call graph, loop trip counts
and memory traffic are known by hand, on both engines, and check the
static program structure (function extents, branch targets, call sites)
the counts rely on.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.asm import assemble
from repro.core import FunctionAnalyzer
from repro.isa.convention import TEXT_BASE
from repro.isa.instructions import Kind
from repro.lang import compile_source
from repro.sim import Analyzer, Simulator

ENGINES = ("predecoded", "interpreter")

CALLS = """
int leaf(int x) { return x * 2; }
int middle(int x) { return leaf(x) + leaf(x + 1); }
int main() {
    int i; int s = 0;
    for (i = 0; i < 5; i++) { s += middle(i); }
    print_int(s);
    return 0;
}
"""

LOOP = """
int data[8];
int touch(int i) { data[i & 7] = i; return data[i & 7]; }
int main() {
    int i; int s = 0;
    for (i = 0; i < 20; i += 1) { s += touch(i); }
    print_int(s);
    return 0;
}
"""

BRANCHY = """
        .text
        .ent main, 0
main:   li $t0, 0
        li $t1, 0
loop:   addiu $t0, $t0, 1
        addiu $t1, $t1, 2
        blt $t0, 10, loop
        beq $t1, $zero, never
        jr $ra
never:  li $t2, 1
        jr $ra
        .end main
"""


class Recorder(Analyzer):
    """Counts calls, returns and steps by function and by kind."""

    def __init__(self) -> None:
        self.program = None
        self.calls = Counter()
        self.edges = Counter()
        self.returns = Counter()
        self.max_depth = 0
        self.steps_by_function = Counter()
        self.steps_by_pc = Counter()
        self.kinds = Counter()
        self.branches_taken = 0

    def on_start(self, program) -> None:
        self.program = program

    def on_call(self, event) -> None:
        callee = event.function.name
        # The synthetic entry call is the only one at depth 1.
        caller = None if event.depth == 1 else self.program.function_at(event.pc).name
        self.calls[callee] += 1
        self.edges[(caller, callee)] += 1
        self.max_depth = max(self.max_depth, event.depth)

    def on_return(self, event) -> None:
        self.returns[event.function.name] += 1

    def on_step(self, record) -> None:
        function = self.program.function_at(record.pc)
        self.steps_by_function[function.name if function else None] += 1
        self.steps_by_pc[record.pc] += 1
        self.kinds[record.instr.op.kind] += 1
        if record.instr.op.kind == Kind.BRANCH and record.outputs[0]:
            self.branches_taken += 1


def record(program, engine, input_data=b"", limit=None):
    recorder = Recorder()
    result = Simulator(
        program, input_data=input_data, analyzers=[recorder], engine=engine
    ).run(limit=limit)
    return recorder, result


def record_minic(source, engine):
    return record(compile_source(source), engine)


@pytest.mark.parametrize("engine", ENGINES)
class TestCallGraph:
    def test_call_counts(self, engine):
        recorder, _ = record_minic(CALLS, engine)
        assert recorder.calls == {"main": 1, "middle": 5, "leaf": 10}

    def test_edges(self, engine):
        recorder, _ = record_minic(CALLS, engine)
        assert recorder.edges == {
            (None, "main"): 1,
            ("main", "middle"): 5,
            ("middle", "leaf"): 10,
        }

    def test_returns_match_calls(self, engine):
        recorder, result = record_minic(CALLS, engine)
        assert result.stop_reason == "halt"
        assert recorder.returns == recorder.calls

    def test_function_analyzer_agrees(self, engine):
        analyzer = FunctionAnalyzer()
        Simulator(compile_source(CALLS), analyzers=[analyzer], engine=engine).run()
        report = analyzer.report()
        calls = {name: stats.calls for name, stats in report.per_function.items()}
        assert calls == {"main": 1, "middle": 5, "leaf": 10}
        assert report.dynamic_calls == 16

    def test_every_step_lies_in_a_function(self, engine):
        recorder, result = record_minic(CALLS, engine)
        assert None not in recorder.steps_by_function
        assert sum(recorder.steps_by_function.values()) == result.analyzed_instructions

    def test_recursion(self, engine):
        recorder, result = record_minic(
            """
int fact(int n) {
    if (n <= 1) { return 1; }
    return n * fact(n - 1);
}
int main() { print_int(fact(6)); return 0; }
""",
            engine,
        )
        assert result.output == "720"
        assert recorder.calls["fact"] == 6
        assert recorder.edges[("fact", "fact")] == 5
        assert recorder.max_depth == 7

    def test_exit_mid_call_leaves_frames_open(self, engine):
        program = compile_source(
            """
int deep(int n) {
    if (n == 0) { exit(0); }
    return deep(n - 1);
}
int main() { return deep(4); }
"""
        )
        recorder = Recorder()
        simulator = Simulator(program, analyzers=[recorder], engine=engine)
        result = simulator.run()
        assert result.stop_reason == "exit"
        assert recorder.calls == {"main": 1, "deep": 5}
        assert not recorder.returns
        assert [f.function.name for f in simulator.call_stack] == ["main"] + ["deep"] * 5
        assert sum(recorder.steps_by_function.values()) == result.analyzed_instructions

    def test_workload_window_lies_in_functions(self, engine):
        from repro.workloads import get_workload

        workload = get_workload("vortex")
        recorder, result = record(
            workload.program(), engine, workload.primary_input(1), limit=30_000
        )
        assert result.analyzed_instructions == 30_000
        assert None not in recorder.steps_by_function
        assert len(recorder.calls) > 5


@pytest.mark.parametrize("engine", ENGINES)
class TestInstructionClasses:
    def test_loads_and_stores_counted(self, engine):
        recorder, _ = record_minic(LOOP, engine)
        assert recorder.kinds[Kind.LOAD] >= 20
        assert recorder.kinds[Kind.STORE] >= 20

    def test_calls_and_returns_paired(self, engine):
        recorder, _ = record_minic(LOOP, engine)
        # touch() is called 20 times; main's own entry is synthetic.
        assert recorder.kinds[Kind.CALL] == 20
        assert sum(recorder.returns.values()) == 21

    def test_jr_through_other_register_is_not_a_return(self, engine):
        recorder, result = record(
            assemble(
                """
        .ent main, 0
main:   la $t0, next
        jr $t0
        li $t1, 1
next:   jr $ra
        .end main
"""
            ),
            engine,
        )
        assert result.stop_reason == "halt"
        assert recorder.kinds[Kind.JUMP_REG] == 2
        assert recorder.returns == {"main": 1}

    def test_branch_taken_rate(self, engine):
        recorder, _ = record_minic(LOOP, engine)
        assert 0 < recorder.branches_taken < recorder.kinds[Kind.BRANCH]

    def test_call_depth(self, engine):
        recorder, _ = record_minic(
            """
int depth3() { return 1; }
int depth2() { return depth3(); }
int depth1() { return depth2(); }
int main() { print_int(depth1()); return 0; }
""",
            engine,
        )
        # main + depth1 + depth2 + depth3 (the entry call counts too).
        assert recorder.max_depth == 4
        assert sum(recorder.calls.values()) == 4

    def test_telemetry_matches_step_classes(self, engine, metrics_enabled):
        recorder, result = record_minic(LOOP, engine)
        assert metrics_enabled.value("sim.branches") == recorder.kinds[Kind.BRANCH]
        assert metrics_enabled.value("sim.memory_ops") == (
            recorder.kinds[Kind.LOAD] + recorder.kinds[Kind.STORE]
        )
        assert metrics_enabled.value("sim.calls") == sum(recorder.calls.values())
        assert metrics_enabled.value("sim.returns") == sum(recorder.returns.values())
        assert sum(recorder.kinds.values()) == result.analyzed_instructions


@pytest.mark.parametrize("engine", ENGINES)
class TestBlockCounts:
    def test_loop_body_runs_ten_times(self, engine):
        program = assemble(BRANCHY)
        recorder, _ = record(program, engine)
        assert recorder.steps_by_pc[program.symbols["loop"]] == 10
        assert recorder.steps_by_pc[program.text_base] == 1

    def test_never_taken_block_unexecuted(self, engine):
        program = assemble(BRANCHY)
        recorder, result = record(program, engine)
        assert recorder.steps_by_pc[program.symbols["never"]] == 0
        # 2 setup + 10 x (2 adds + blt's two slots) + beq + jr.
        assert result.analyzed_instructions == 2 + 10 * 4 + 2


class TestStaticStructure:
    def test_branch_targets_resolve_to_labels(self):
        program = assemble(BRANCHY)
        branches = [i for i in program.text if i.op.kind == Kind.BRANCH]
        targets = [i.target for i in branches]
        assert targets == [program.symbols["loop"], program.symbols["never"]]

    def test_instruction_at_lookup(self):
        program = assemble(BRANCHY)
        loop = program.symbols["loop"]
        assert program.instruction_at(loop).addr == loop
        assert program.instruction_at(loop + 4).addr == loop + 4
        with pytest.raises(IndexError):
            program.instruction_at(TEXT_BASE - 4)
        with pytest.raises(IndexError):
            program.instruction_at(program.text_end)

    def test_function_membership(self):
        program = compile_source(
            """
int helper(int x) { if (x > 0) { return x; } return -x; }
int main() { print_int(helper(-3)); return 0; }
"""
        )
        helper = program.function_by_name("helper")
        addresses = range(helper.entry, helper.entry + 4 * helper.size, 4)
        assert len(addresses) >= 4
        assert all(program.function_at(a) is helper for a in addresses)
        assert program.function_at(helper.entry - 4) is not helper

    def test_call_sites_target_function_entries(self):
        program = compile_source(CALLS)
        calls = [i for i in program.text if i.is_call]
        assert len(calls) == 3
        for call in calls:
            assert program.function_by_entry(call.target) is not None
            # The return point is in the caller, right after the call.
            assert program.function_at(call.addr + 4) is program.function_at(call.addr)
