"""Tests for the local (within-function) analysis (Tables 5/6/7/9).

Hand-written assembly pins down exactly which instructions land in which
category; MiniC programs validate the categories over compiler output.
"""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.core.local_analysis import CATEGORY_ORDER, LocalAnalyzer
from repro.core.repetition import RepetitionTracker
from repro.lang import compile_source
from repro.sim import Simulator


def analyze_asm(source, input_data=b""):
    tracker = RepetitionTracker()
    analyzer = LocalAnalyzer(tracker)
    Simulator(assemble(source), input_data=input_data, analyzers=[tracker, analyzer]).run()
    return analyzer


def analyze_minic(source, input_data=b""):
    tracker = RepetitionTracker()
    analyzer = LocalAnalyzer(tracker)
    Simulator(
        compile_source(source), input_data=input_data, analyzers=[tracker, analyzer]
    ).run()
    return analyzer


class TestTaskCategories:
    def test_prologue_and_epilogue(self):
        analyzer = analyze_asm(
            """
        .ent main, 0
main:   addiu $sp, $sp, -16     # prologue: frame allocation
        sw $ra, 12($sp)         # prologue: save of uninit reg
        sw $s0, 8($sp)          # prologue: save of uninit reg
        li $s0, 5
        lw $s0, 8($sp)          # epilogue: restore
        lw $ra, 12($sp)         # epilogue: restore
        addiu $sp, $sp, 16      # epilogue: frame release
        jr $ra                  # return
        .end main
"""
        )
        assert analyzer.stats["prologue"].total == 3
        assert analyzer.stats["epilogue"].total == 3
        assert analyzer.stats["return"].total == 1

    def test_value_spill_is_not_prologue(self):
        analyzer = analyze_asm(
            """
        .ent main, 0
main:   addiu $sp, $sp, -16
        li $t0, 9               # internal value
        sw $t0, 0($sp)          # spill of a *written* register
        lw $t1, 0($sp)          # reload carries the stored tag
        addiu $sp, $sp, 16
        jr $ra
        .end main
"""
        )
        # One prologue (frame alloc) + one epilogue (release); the spill
        # pair is categorized by its data (function internals).
        assert analyzer.stats["prologue"].total == 1
        assert analyzer.stats["epilogue"].total == 1
        assert analyzer.stats["function internals"].total >= 3

    def test_sp_arithmetic_category(self):
        analyzer = analyze_asm(
            """
        .ent main, 0
main:   addiu $sp, $sp, -16
        addiu $t0, $sp, 4       # address of a local: SP category
        addiu $sp, $sp, 16
        jr $ra
        .end main
"""
        )
        assert analyzer.stats["SP"].total == 1

    def test_global_address_calculation(self):
        analyzer = analyze_asm(
            """
        .data
var:    .word 3
        .text
        .ent main, 0
main:   la $t0, var             # addiu $t0, $gp, off -> glb_addr_calc
        lw $t1, 0($t0)          # load from data: global
        jr $ra
        .end main
"""
        )
        assert analyzer.stats["glb_addr_calc"].total == 1
        assert analyzer.stats["global"].total == 1

    def test_lui_ori_address_synthesis(self):
        analyzer = analyze_asm(
            """
        .ent main, 0
main:   lui $t0, 0x1000         # upper half of a data address
        ori $t0, $t0, 0x100     # completes the address: stays glb_addr
        lui $t1, 0x0100         # not a data address: internal
        jr $ra
        .end main
"""
        )
        assert analyzer.stats["glb_addr_calc"].total == 2
        assert analyzer.stats["function internals"].total >= 1


class TestSourceCategories:
    def test_argument_slices(self):
        analyzer = analyze_minic(
            """
int f(int a, int b) { return a * 2 + b; }
int main() { print_int(f(3, 4)); return 0; }
"""
        )
        assert analyzer.stats["arguments"].total > 0

    def test_heap_vs_global_loads(self):
        analyzer = analyze_minic(
            """
int g[4] = {1, 2, 3, 4};
int main() {
    int *h = (sbrk(16));
    int i; int s = 0;
    for (i = 0; i < 4; i += 1) { h[i] = 5; }
    for (i = 0; i < 4; i += 1) { s += g[i] + h[i]; }
    print_int(s);
    return 0;
}
"""
        )
        assert analyzer.stats["global"].total > 0
        assert analyzer.stats["heap"].total > 0

    def test_return_value_slices(self):
        analyzer = analyze_minic(
            """
int pick() { return 7; }
int main() {
    int i; int s = 0;
    for (i = 0; i < 5; i += 1) { s += pick() * 3; }
    print_int(s);
    return 0;
}
"""
        )
        assert analyzer.stats["return values"].total > 0

    def test_syscall_results_are_return_values(self):
        analyzer = analyze_minic(
            """
int main() {
    int c = getchar();
    print_int(c + 1);
    return 0;
}
""",
            input_data=b"A",
        )
        assert analyzer.stats["return values"].total > 0

    def test_totals_are_complete(self):
        analyzer = analyze_minic(
            """
int g = 3;
int helper(int x) { return x + g; }
int main() {
    int i; int s = 0;
    for (i = 0; i < 10; i += 1) { s += helper(i); }
    print_int(s);
    return 0;
}
"""
        )
        by_category = sum(analyzer.stats[name].total for name in CATEGORY_ORDER)
        assert by_category == analyzer.dynamic_total
        repeated = sum(analyzer.stats[name].repeated for name in CATEGORY_ORDER)
        assert repeated == analyzer.dynamic_repeated


class TestTable9:
    def test_prologue_contributors_ranked(self):
        analyzer = analyze_minic(
            """
int heavy(int a, int b) {
    int x = a + b;
    int y = a - b;
    return x * y;
}
int light(int a) { return a; }
int main() {
    int i; int s = 0;
    for (i = 0; i < 20; i += 1) { s += heavy(2, 3) + light(1); }
    print_int(s);
    return 0;
}
"""
        )
        report = analyzer.report()
        top = report.top_prologue_contributors(5)
        names = [c.name for c in top]
        assert "heavy" in names
        # Sizes come from the program's function metadata.
        heavy = next(c for c in top if c.name == "heavy")
        assert heavy.static_size > 0
        assert 0.0 <= report.prologue_coverage_pct(5) <= 100.0

    def test_coverage_of_all_contributors_is_total(self):
        analyzer = analyze_minic(
            """
int f(int a) {
    int b = a + 1;   /* s-register local: forces a prologue save */
    return b * 2;
}
int main() {
    int i; int s = 0;
    for (i = 0; i < 5; i += 1) { s += f(1); }
    print_int(s);
    return 0;
}
"""
        )
        report = analyzer.report()
        assert report.prologue_coverage_pct(100) == pytest.approx(100.0)

    def test_frameless_leaf_has_no_prologue(self):
        analyzer = analyze_minic(
            """
int f(int a) { return a + 1; }
int main() {
    int i; int s = 0;
    for (i = 0; i < 5; i += 1) { s += f(1); }
    print_int(s);
    return 0;
}
"""
        )
        report = analyzer.report()
        # f is a frameless leaf: only main contributes prologue/epilogue.
        assert "f" not in report.prologue_epilogue_by_function


class TestPropensity:
    def test_repeated_calls_make_prologue_repeat(self):
        analyzer = analyze_minic(
            """
int i_g = 0;
int s_g = 0;
int f(int a) {
    int doubled = a * 2;   /* forces a saved register, hence a prologue */
    return doubled + 1;
}
int main() {
    /* Loop state in globals so the caller's callee-saved registers keep
     * the same (dead) values across calls — the paper's condition for
     * prologue/epilogue repetition. */
    while (i_g < 30) {
        s_g += f(7);
        i_g += 1;
    }
    print_int(s_g);
    return 0;
}
"""
        )
        report = analyzer.report()
        # Same call site, same frame depth, same saved values: prologue
        # and epilogue repeat heavily (the paper's explanation).
        assert report.propensity_pct("prologue") > 80.0
        assert report.propensity_pct("epilogue") > 80.0
