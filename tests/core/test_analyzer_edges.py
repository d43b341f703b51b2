"""Edge-case tests for the slice analyzers: hi/lo propagation, indirect
calls, multiply/divide tagging, and default-tag behaviour."""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.core import GlobalSourceAnalyzer, LocalAnalyzer, RepetitionTracker
from repro.core import global_analysis as ga
from repro.core import local_analysis as la
from repro.core.value_prediction import LastValuePredictor, ValuePredictionAnalyzer
from repro.lang import compile_source
from repro.sim import Simulator


def run_with(program, analyzer_class, input_data):
    tracker = RepetitionTracker()
    analyzer = analyzer_class(tracker)
    Simulator(program, input_data=input_data, analyzers=[tracker, analyzer]).run()
    return analyzer


def run_asm_with(source, analyzer_class, input_data=b""):
    return run_with(assemble(source), analyzer_class, input_data)


def run_minic_with(source, analyzer_class, input_data=b""):
    return run_with(compile_source(source), analyzer_class, input_data)


class TestHiLoPropagation:
    def test_global_analysis_tracks_hilo(self):
        # External value -> mult -> mflo: the mflo result is external.
        source = """
int main() {
    int x = read_int();
    int y = x * 3;
    print_int(y + 1);
    return 0;
}
"""
        analyzer = run_minic_with(source, GlobalSourceAnalyzer, input_data=b"5")
        assert analyzer.stats["external input"].total > 0

    def test_local_analysis_muldiv_category(self):
        source = """
        .data
v:      .word 6
        .text
        .ent main, 0
main:   lw $t0, v($gp)       # global slice
        li $t1, 7
        mult $t0, $t1        # mixes global x internal -> global
        mflo $t2             # reads hi/lo -> still global slice
        jr $ra
        .end main
"""
        analyzer = run_asm_with(source, LocalAnalyzer)
        # lw + mult + mflo are all on the global slice.
        assert analyzer.stats["global"].total == 3


class TestIndirectCalls:
    SOURCE = """
        .text
        .ent main, 0
main:   addiu $sp, $sp, -8
        sw $ra, 4($sp)
        la $t0, callee
        jalr $t0
        lw $ra, 4($sp)
        addiu $sp, $sp, 8
        jr $ra
        .end main
        .ent callee, 0
callee: li $v0, 3
        jr $ra
        .end callee
"""

    def test_local_analyzer_handles_jalr(self):
        analyzer = run_asm_with(self.SOURCE, LocalAnalyzer)
        # jalr's category comes from its target register's slice; the la
        # produced a text address via lui/ori (not a data address), so it
        # lands in function internals — the key point is no crash and
        # full coverage.
        total = sum(analyzer.stats[c].total for c in analyzer.stats)
        assert total == analyzer.dynamic_total

    def test_return_value_tagged_after_indirect_call(self):
        analyzer = run_asm_with(self.SOURCE, LocalAnalyzer)
        assert analyzer.stats["return"].total == 2  # both jr $ra


class TestDefaultTags:
    def test_load_from_unwritten_stack_slot(self):
        source = """
        .ent main, 0
main:   addiu $sp, $sp, -16
        lw $t0, 8($sp)      # never written: default local tag
        addu $t1, $t0, $t0
        addiu $sp, $sp, 16
        jr $ra
        .end main
"""
        analyzer = run_asm_with(source, LocalAnalyzer)
        # Defaults map to function internals rather than crashing.
        assert analyzer.stats["function internals"].total >= 2

    def test_global_tag_of_sbrk_result_is_internal(self):
        source = """
int main() {
    int *p = (sbrk(16));
    p[0] = 5;
    print_int(p[0]);
    return 0;
}
"""
        analyzer = run_minic_with(source, GlobalSourceAnalyzer)
        # sbrk returns a program-managed constant: no external taint.
        assert analyzer.stats["external input"].total == 0


class TestSupersedePriorities:
    def test_global_priority_order(self):
        assert ga.EXTERNAL > ga.GLOBAL_INIT > ga.INTERNAL > ga.UNINIT

    def test_local_priority_order(self):
        assert la.ARG > la.RETVAL > la.HEAP >= la.GLOBAL > la.GLB_ADDR > la.SP_ADDR > la.INTERNAL

    def test_argument_beats_global_in_merge(self):
        source = """
int scale = 3;
int f(int a) { return a * scale; }   /* arg slice x global slice */
int main() { print_int(f(7)); return 0; }
"""
        tracker = RepetitionTracker()
        analyzer = LocalAnalyzer(tracker)
        Simulator(compile_source(source), analyzers=[tracker, analyzer]).run()
        # The mult mixing ARG and GLOBAL lands in 'arguments'.
        assert analyzer.stats["arguments"].total > 0


LOOP = """
int main() {
    int i;
    int total = 0;
    for (i = 0; i < 20; i = i + 1) {
        total = total + i;
    }
    print_int(total);
    return 0;
}
"""


class TestTrackerRequired:
    """The slice and value-prediction analyzers have no tracker-less mode."""

    @pytest.mark.parametrize(
        "build",
        [
            GlobalSourceAnalyzer,
            LocalAnalyzer,
            lambda: ValuePredictionAnalyzer(LastValuePredictor()),
        ],
        ids=["global", "local", "value-prediction"],
    )
    def test_constructor_requires_tracker(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize(
        "analyzer_class", [GlobalSourceAnalyzer, LocalAnalyzer], ids=["global", "local"]
    )
    def test_repeated_counts_are_the_trackers(self, analyzer_class):
        tracker = RepetitionTracker()
        analyzer = analyzer_class(tracker)
        Simulator(compile_source(LOOP), analyzers=[tracker, analyzer]).run()
        assert 0 < analyzer.dynamic_repeated < analyzer.dynamic_total
        assert analyzer.dynamic_total == tracker.dynamic_total
        assert analyzer.dynamic_repeated == tracker.dynamic_repeated

    def test_one_category_stats_type(self):
        # Both slice analyses count into the same dataclass, so result
        # digests key their categories by one class name.
        assert la.CategoryStats is ga.CategoryStats
