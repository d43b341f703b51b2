"""Tests for the global source-slice analysis (Table 3)."""

from __future__ import annotations

import pytest

from repro.core.global_analysis import GlobalSourceAnalyzer
from repro.core.repetition import RepetitionTracker
from repro.lang import compile_source
from repro.sim import Simulator


def analyze_minic(source, input_data=b""):
    tracker = RepetitionTracker()
    analyzer = GlobalSourceAnalyzer(tracker)
    program = compile_source(source)
    Simulator(program, input_data=input_data, analyzers=[tracker, analyzer]).run()
    return analyzer.report()


class TestSourceCategories:
    def test_pure_internal_program(self):
        report = analyze_minic(
            """
int main() {
    int i; int s = 0;
    for (i = 0; i < 50; i += 1) { s += i; }
    print_int(s);
    return 0;
}
"""
        )
        assert report.overall_pct("internals") > 95.0
        assert report.overall_pct("external input") == 0.0

    def test_initialized_global_slices(self):
        report = analyze_minic(
            """
int table[8] = {1, 2, 3, 4, 5, 6, 7, 8};
int main() {
    int i; int s = 0;
    for (i = 0; i < 8; i += 1) { s += table[i] * 3; }
    print_int(s);
    return 0;
}
"""
        )
        assert report.overall_pct("global init data") > 5.0

    def test_runtime_initialized_globals_stay_internal(self):
        # Values stored at runtime carry the tag of what was stored, not
        # "global init": writing internal data keeps the slice internal.
        report = analyze_minic(
            """
int table[8];
int main() {
    int i; int s = 0;
    for (i = 0; i < 8; i += 1) { table[i] = i; }
    for (i = 0; i < 8; i += 1) { s += table[i]; }
    print_int(s);
    return 0;
}
"""
        )
        assert report.overall_pct("global init data") < 2.0
        assert report.overall_pct("internals") > 90.0

    def test_external_input_slices(self):
        report = analyze_minic(
            """
int main() {
    int i;
    int s = 0;
    int n = read_int();
    for (i = 0; i < 40; i += 1) { s += n * 2 + 1; }
    print_int(s);
    return 0;
}
""",
            input_data=b"5",
        )
        assert report.overall_pct("external input") > 10.0

    def test_supersede_external_beats_global_init(self):
        # Mixing an external value with initialized global data must land
        # the mixed slice in "external input" (the paper's supersede rule).
        report = analyze_minic(
            """
int weight = 7;
int main() {
    int x = read_int();
    int i; int s = 0;
    for (i = 0; i < 30; i += 1) { s += x * weight; }
    print_int(s);
    return 0;
}
""",
            input_data=b"3",
        )
        assert report.overall_pct("external input") > 10.0

    def test_external_propagates_through_memory(self):
        report = analyze_minic(
            """
int cell;
int main() {
    int i; int s = 0;
    cell = read_int();
    for (i = 0; i < 30; i += 1) { s += cell; }
    print_int(s);
    return 0;
}
""",
            input_data=b"9",
        )
        assert report.overall_pct("external input") > 10.0


class TestRepeatedSplit:
    def test_category_totals_sum_to_dynamic_total(self):
        report = analyze_minic(
            """
int t[4] = {1, 2, 3, 4};
int main() {
    int i; int s = 0;
    for (i = 0; i < 4; i += 1) { s += t[i]; }
    print_int(s);
    return 0;
}
"""
        )
        total = sum(stats.total for stats in report.categories.values())
        assert total == report.dynamic_total
        repeated = sum(stats.repeated for stats in report.categories.values())
        assert repeated == report.dynamic_repeated

    def test_propensity_bounded(self):
        report = analyze_minic(
            """
int main() {
    int i; int s = 0;
    for (i = 0; i < 20; i += 1) { s += 2; }
    print_int(s);
    return 0;
}
"""
        )
        for name in report.categories:
            assert 0.0 <= report.propensity_pct(name) <= 100.0


class TestUninit:
    def test_uninitialized_register_slice(self):
        from repro.asm import assemble

        source = """
        .text
        .ent main, 0
main:   addu $t0, $s0, $s1   # s0/s1 never written: uninit slice
        addu $t1, $t0, $t0
        jr $ra
        .end main
"""
        tracker = RepetitionTracker()
        analyzer = GlobalSourceAnalyzer(tracker)
        Simulator(assemble(source), analyzers=[tracker, analyzer]).run()
        assert analyzer.stats["uninit"].total >= 2
