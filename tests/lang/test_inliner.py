"""Tests for small-function inlining."""

from __future__ import annotations

import pytest

from repro.lang import compile_source
from repro.lang import astnodes as ast
from repro.lang.inliner import Inliner, _copy_expr
from repro.lang.parser import parse
from repro.lang.sema import analyze
from repro.sim import Simulator


def run_both(source, input_data=b""):
    plain = Simulator(compile_source(source), input_data=input_data).run()
    inlined = Simulator(compile_source(source, inline=True), input_data=input_data).run()
    return plain, inlined


class TestCandidates:
    def analyze_candidates(self, source):
        sema = analyze(parse(source))
        return Inliner(sema).candidate_names

    def test_single_return_expression_is_candidate(self):
        names = self.analyze_candidates(
            """
int double_(int x) { return x + x; }
int main() { return double_(2); }
"""
        )
        assert names == ["double_"]

    def test_main_never_candidate(self):
        names = self.analyze_candidates("int main() { return 1; }")
        assert names == []

    def test_multi_statement_body_excluded(self):
        names = self.analyze_candidates(
            """
int f(int x) { int y = x; return y; }
int main() { return f(1); }
"""
        )
        assert names == []

    def test_impure_body_excluded(self):
        names = self.analyze_candidates(
            """
int g;
int f(int x) { return g = x; }
int main() { return f(1); }
"""
        )
        assert names == []

    def test_global_reads_allowed(self):
        names = self.analyze_candidates(
            """
int scale = 3;
int f(int x) { return x * scale; }
int main() { return f(1); }
"""
        )
        assert names == ["f"]


class TestSemantics:
    CASES = [
        (
            """
int add(int a, int b) { return a + b; }
int main() { print_int(add(3, add(4, 5))); return 0; }
""",
            b"",
        ),
        (
            """
int scale = 7;
int weigh(int x) { return x * scale; }
int main() {
    int i; int s = 0;
    for (i = 0; i < 10; i++) { s += weigh(i); }
    print_int(s);
    return 0;
}
""",
            b"",
        ),
        (
            """
int table[4] = {5, 6, 7, 8};
int at(int i) { return table[i & 3]; }
int main() { print_int(at(read_int()) + at(2)); return 0; }
""",
            b"1",
        ),
        (
            """
int min_(int a, int b) { return a < b ? a : b; }
int max_(int a, int b) { return a > b ? a : b; }
int clamp(int v, int lo, int hi) { return min_(max_(v, lo), hi); }
int main() {
    print_int(clamp(15, 0, 10));
    print_int(clamp(-3, 0, 10));
    print_int(clamp(5, 0, 10));
    return 0;
}
""",
            b"",
        ),
        # A string-literal argument, copied into the inlined body.
        (
            """
int second(char *s) { return s[1]; }
int main() { print_int(second("hi!")); return 0; }
""",
            b"",
        ),
        # '*' and '&' operands, in the callee body and in the argument; a
        # char load keeps its width when it is the whole inlined body.
        (
            """
int cell = 41;
int load(int *p) { return *p + 1; }
int peek(char *p) { return *p; }
int address(int **pp) { return *pp; }
int main() {
    int *p = &cell;
    print_int(load(&cell));
    print_int(peek("xyz" + 1));
    print_int(address(&p) + 1 - address(&p));
    return 0;
}
""",
            b"",
        ),
        # Calls in a do-while body and condition, under a unary operator,
        # and in a for loop without init and step; a callee whose body is
        # a parameter alone or a unary operator on one.
        (
            """
int add(int a, int b) { return a + b; }
int same(int x) { return x; }
int neg(int x) { return -x; }
int main() {
    int i = 0; int s = 0;
    do { s = add(s, i); i = add(i, 1); } while (add(i, 0) < 5);
    for (; i < 9;) { s = s + neg(-same(i)); i = add(i, 1); }
    print_int(s);
    return 0;
}
""",
            b"",
        ),
    ]

    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_output_unchanged(self, index):
        source, data = self.CASES[index]
        plain, inlined = run_both(source, data)
        assert plain.output == inlined.output
        assert inlined.total_instructions < plain.total_instructions

    def test_copy_rejects_a_node_with_effects(self):
        # Candidates and arguments are pure, so the inliner never copies one.
        with pytest.raises(TypeError, match="cannot copy Call"):
            _copy_expr(ast.Call(1, "f", []))

    def test_inlining_removes_calls(self):
        source = """
int add(int a, int b) { return a + b; }
int main() {
    int i; int s = 0;
    for (i = 0; i < 50; i++) { s += add(s, i); }
    print_int(s);
    return 0;
}
"""
        plain, inlined = run_both(source)
        assert inlined.total_instructions < plain.total_instructions

    def test_impure_argument_blocks_inlining(self):
        """getchar() as an argument must still be called exactly once even
        though the parameter appears twice in the body."""
        source = """
int double_(int x) { return x + x; }
int main() {
    print_int(double_(getchar()));
    print_int(getchar());
    return 0;
}
"""
        plain, inlined = run_both(source, b"AB")
        # 'A' = 65 doubled, then 'B' = 66 — in both builds.
        assert plain.output == inlined.output == "13066"

    def test_chained_expression_functions_collapse(self):
        source = """
int twice(int x) { return x * 2; }
int quad(int x) { return twice(twice(x)); }
int main() { print_int(quad(5)); return 0; }
"""
        plain, inlined = run_both(source)
        assert plain.output == inlined.output == "20"
        assert inlined.total_instructions < plain.total_instructions

    def test_composes_with_optimizer(self):
        source = """
int mul4(int x) { return x * 4; }
int main() {
    int i; int s = 0;
    for (i = 0; i < 20; i++) { s += mul4(i) + 0; }
    print_int(s);
    return 0;
}
"""
        plain = Simulator(compile_source(source)).run()
        full = Simulator(compile_source(source, optimize=True, inline=True)).run()
        assert plain.output == full.output
        assert full.total_instructions < plain.total_instructions


class TestEffectOnWorkloads:
    def test_workload_outputs_survive_inlining(self):
        """All eight workloads compute the same results fully inlined —
        the strongest end-to-end check of substitution correctness."""
        from repro.workloads import WORKLOADS

        for workload in WORKLOADS.values():
            data = workload.primary_input(1)
            plain = Simulator(workload.program(), input_data=data).run()
            inlined = Simulator(
                compile_source(workload.source(), inline=True), input_data=data
            ).run()
            assert plain.output == inlined.output, workload.name
            assert inlined.total_instructions <= plain.total_instructions, workload.name
