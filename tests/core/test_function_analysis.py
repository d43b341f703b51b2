"""Tests for the function-level analysis (Tables 4/8, Figure 5)."""

from __future__ import annotations

import pytest

from repro.asm.program import FunctionInfo
from repro.core.function_analysis import FunctionAnalyzer
from repro.lang import compile_source
from repro.sim import Simulator
from repro.sim.events import CallEvent, ReturnEvent, SyscallEvent


def call(analyzer, func, args, warmup=False):
    analyzer.on_call(
        CallEvent(0, func.entry, 4, func, tuple(args), 1, 0x7FFF0000, warmup)
    )


def ret(analyzer, func, value=0):
    analyzer.on_return(ReturnEvent(0, 4, func, value, 1, False))


FUNC2 = FunctionInfo("f", 0x400100, 0x400200, 2)
FUNC0 = FunctionInfo("g", 0x400200, 0x400240, 0)


class TestArgumentRepetition:
    def test_first_call_never_repeats(self):
        analyzer = FunctionAnalyzer()
        call(analyzer, FUNC2, (1, 2))
        ret(analyzer, FUNC2)
        report = analyzer.report()
        assert report.dynamic_calls == 1
        assert report.all_args_repeated == 0

    def test_all_args_repeated(self):
        analyzer = FunctionAnalyzer()
        for _ in range(3):
            call(analyzer, FUNC2, (1, 2))
            ret(analyzer, FUNC2)
        report = analyzer.report()
        assert report.all_args_repeated == 2
        assert report.all_args_repeated_pct == pytest.approx(200 / 3)

    def test_no_args_repeated_requires_all_positions_fresh(self):
        analyzer = FunctionAnalyzer()
        call(analyzer, FUNC2, (1, 2))  # first call: nothing repeats
        ret(analyzer, FUNC2)
        call(analyzer, FUNC2, (3, 4))  # both positions fresh
        ret(analyzer, FUNC2)
        call(analyzer, FUNC2, (1, 9))  # position 0 repeats
        ret(analyzer, FUNC2)
        report = analyzer.report()
        assert report.no_args_repeated == 2

    def test_partial_repetition_counts_neither_all_nor_none(self):
        analyzer = FunctionAnalyzer()
        call(analyzer, FUNC2, (1, 2))
        ret(analyzer, FUNC2)
        call(analyzer, FUNC2, (1, 3))  # position 0 repeats, position 1 fresh
        ret(analyzer, FUNC2)
        report = analyzer.report()
        assert report.all_args_repeated == 0
        assert report.no_args_repeated == 1  # just the first call

    def test_zero_arg_functions_repeat_vacuously(self):
        analyzer = FunctionAnalyzer()
        for _ in range(2):
            call(analyzer, FUNC0, ())
            ret(analyzer, FUNC0)
        report = analyzer.report()
        assert report.all_args_repeated == 1
        assert report.no_args_repeated == 0

    def test_warmup_calls_not_counted(self):
        analyzer = FunctionAnalyzer()
        call(analyzer, FUNC2, (1, 2), warmup=True)
        ret(analyzer, FUNC2)
        call(analyzer, FUNC2, (1, 2))
        ret(analyzer, FUNC2)
        report = analyzer.report()
        assert report.dynamic_calls == 1
        # Warm-up call still primed the seen-set, so this counts repeated.
        assert report.all_args_repeated == 1


class TestTopKCoverage:
    def test_single_tuple_covers_everything(self):
        analyzer = FunctionAnalyzer()
        for _ in range(5):
            call(analyzer, FUNC2, (7, 7))
            ret(analyzer, FUNC2)
        report = analyzer.report()
        assert report.top_k_coverage[0] == 100.0

    def test_distribution_across_tuples(self):
        analyzer = FunctionAnalyzer()
        # Tuple A repeats 3x, tuple B repeats 1x.
        for _ in range(4):
            call(analyzer, FUNC2, (1, 1))
            ret(analyzer, FUNC2)
        for _ in range(2):
            call(analyzer, FUNC2, (2, 2))
            ret(analyzer, FUNC2)
        report = analyzer.report()
        assert report.top_k_coverage[0] == pytest.approx(75.0)
        assert report.top_k_coverage[1] == pytest.approx(100.0)


class TestPurity:
    def impure_event(self, analyzer):
        from tests.helpers import make_step

        analyzer.on_step(
            make_step(op="sw", mem_addr=0x1000_0000, store_value=1, inputs=(1, 0))
        )

    def test_return_without_a_call_is_ignored(self):
        analyzer = FunctionAnalyzer()
        ret(analyzer, FUNC2)
        assert analyzer.report().pure_calls == 0

    def test_pure_call(self):
        analyzer = FunctionAnalyzer()
        call(analyzer, FUNC2, (1, 2))
        ret(analyzer, FUNC2)
        assert analyzer.report().pure_calls == 1

    def test_global_store_makes_impure(self):
        analyzer = FunctionAnalyzer()
        call(analyzer, FUNC2, (1, 2))
        self.impure_event(analyzer)
        ret(analyzer, FUNC2)
        assert analyzer.report().pure_calls == 0

    def test_global_load_is_implicit_input(self):
        from tests.helpers import make_step

        analyzer = FunctionAnalyzer()
        call(analyzer, FUNC2, (1, 2))
        analyzer.on_step(make_step(op="lw", mem_addr=0x1000_0000, inputs=(0,), outputs=(3,)))
        ret(analyzer, FUNC2)
        assert analyzer.report().pure_calls == 0

    def test_stack_accesses_stay_pure(self):
        from tests.helpers import make_step

        analyzer = FunctionAnalyzer()
        call(analyzer, FUNC2, (1, 2))
        analyzer.on_step(
            make_step(op="sw", mem_addr=0x7FFF_F000, store_value=1, inputs=(1, 0))
        )
        analyzer.on_step(make_step(op="lw", mem_addr=0x7FFF_F000, inputs=(0,), outputs=(1,)))
        ret(analyzer, FUNC2)
        assert analyzer.report().pure_calls == 1

    def test_impurity_propagates_to_callers(self):
        analyzer = FunctionAnalyzer()
        call(analyzer, FUNC2, (1, 2))  # outer
        call(analyzer, FUNC0, ())  # inner
        self.impure_event(analyzer)
        ret(analyzer, FUNC0)
        ret(analyzer, FUNC2)
        assert analyzer.report().pure_calls == 0

    def test_io_syscall_is_side_effect(self):
        analyzer = FunctionAnalyzer()
        call(analyzer, FUNC2, (1, 2))
        analyzer.on_syscall(SyscallEvent(0, 1, 5, None, False, True, False))
        ret(analyzer, FUNC2)
        assert analyzer.report().pure_calls == 0

    def test_input_syscall_is_implicit_input(self):
        analyzer = FunctionAnalyzer()
        call(analyzer, FUNC2, (1, 2))
        analyzer.on_syscall(SyscallEvent(0, 12, 0, 65, True, False, False))
        ret(analyzer, FUNC2)
        assert analyzer.report().pure_calls == 0

    def test_pure_all_repeated_split(self):
        analyzer = FunctionAnalyzer()
        call(analyzer, FUNC2, (1, 2))
        ret(analyzer, FUNC2)  # pure, not repeated
        call(analyzer, FUNC2, (1, 2))
        ret(analyzer, FUNC2)  # pure, repeated
        report = analyzer.report()
        assert report.pure_calls == 2
        assert report.pure_all_repeated_calls == 1
        assert report.pure_all_repeated_pct == 100.0


class TestEndToEnd:
    def test_minic_function_argument_repetition(self):
        source = """
int square(int x) { return x * x; }
int main() {
    int i; int s = 0;
    for (i = 0; i < 10; i += 1) { s += square(3); }
    print_int(s);
    return 0;
}
"""
        analyzer = FunctionAnalyzer()
        Simulator(compile_source(source), analyzers=[analyzer]).run()
        report = analyzer.report()
        square = report.per_function["square"]
        assert square.calls == 10
        assert square.all_args_repeated == 9

    def test_minic_purity_with_global_access(self):
        source = """
int counter = 0;
int impure(int x) { counter += 1; return x; }
int pure_add(int a, int b) { return a + b; }
int main() {
    int i;
    for (i = 0; i < 5; i += 1) {
        impure(1);
        pure_add(1, 2);
    }
    return 0;
}
"""
        analyzer = FunctionAnalyzer()
        Simulator(compile_source(source), analyzers=[analyzer]).run()
        report = analyzer.report()
        assert report.per_function["impure"].pure_calls == 0
        assert report.per_function["pure_add"].pure_calls == 5
