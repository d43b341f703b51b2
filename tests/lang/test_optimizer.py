"""Tests for the MiniC optimizer.

The key property: optimization never changes program output — verified
by running a corpus of programs both ways.  Individual transformations
are checked by counting dynamic instructions.
"""

from __future__ import annotations

import itertools

import pytest

from repro.lang import compile_source
from repro.lang.compiler import compile_to_assembly
from repro.lang.optimizer import peephole_assembly
from repro.sim import Simulator


def run_both(source: str, input_data: bytes = b""):
    plain = Simulator(compile_source(source), input_data=input_data).run()
    optimized = Simulator(
        compile_source(source, optimize=True), input_data=input_data
    ).run()
    return plain, optimized


CORPUS = [
    """
int main() {
    print_int(2 * 3 + 4 * (5 - 1));
    putchar('\\n');
    return 0;
}
""",
    """
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
int main() { print_int(fib(12)); return 0; }
""",
    """
int data[16];
int main() {
    int i;
    for (i = 0; i < 16; i += 1) { data[i] = i * 8; }
    print_int(data[7] + data[15] * 1 + 0);
    return 0;
}
""",
    """
int main() {
    int x = read_int();
    if (1) { print_int(x * 4); } else { print_int(99); }
    while (0) { print_int(123); }
    if (0) { print_int(456); }
    return 0;
}
""",
    """
int square(int x) { return x * x; }
int main() {
    int i; int s = 0;
    for (i = 0; i < 20; i += 1) { s += square(i) - 0 + (i << 0); }
    print_int(s);
    return 0;
}
""",
    # '*' and '&' operands, a for loop without init or step, a do-while
    # with a false constant condition, a for loop that never runs.
    """
int cell = 5;
int main() {
    int i = 0; int *p = &cell;
    for (; i < 3;) { *p = *p + 1; i += 1; }
    do { print_int(*p); } while (0);
    for (; 0;) { print_int(99); }
    print_int(i);
    return 0;
}
""",
]


class TestSemanticsPreserved:
    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_same_output(self, index):
        plain, optimized = run_both(CORPUS[index], input_data=b"21")
        assert plain.output == optimized.output
        assert plain.stop_reason == optimized.stop_reason

    def test_workloads_unchanged_by_optimization(self):
        """All eight workloads must produce identical results at -O1."""
        from repro.workloads import WORKLOADS

        for workload in WORKLOADS.values():
            data = workload.primary_input(1)
            plain = Simulator(workload.program(), input_data=data).run()
            optimized = Simulator(
                compile_source(workload.source(), optimize=True), input_data=data
            ).run()
            assert plain.output == optimized.output, workload.name


class TestTransformations:
    def test_constant_folding_reduces_instructions(self):
        source = """
int main() {
    int i; int s = 0;
    for (i = 0; i < 50; i += 1) { s += 2 * 3 + 4 - 1; }
    print_int(s);
    return 0;
}
"""
        plain, optimized = run_both(source)
        assert optimized.total_instructions < plain.total_instructions

    def test_mul_by_power_of_two_becomes_shift(self):
        text = compile_to_assembly(
            "int main() { int x = read_int(); print_int(x * 8); return 0; }",
            optimize=True,
        )
        assert "sllv" in text or "sll" in text
        assert "mult" not in text

    def test_dead_if_removed(self):
        text = compile_to_assembly(
            "int main() { if (0) { print_int(1); } return 0; }", optimize=True
        )
        plain = compile_to_assembly(
            "int main() { if (0) { print_int(1); } return 0; }", optimize=False
        )
        assert len(text.splitlines()) < len(plain.splitlines())

    def test_dead_while_removed(self):
        plain, optimized = run_both(
            "int main() { while (0) { print_int(9); } print_int(1); return 0; }"
        )
        assert optimized.total_instructions < plain.total_instructions
        assert optimized.output == "1"

    def test_pure_statement_dropped(self):
        plain, optimized = run_both(
            "int main() { int x = 5; x + 3; print_int(x); return 0; }"
        )
        assert optimized.output == "5"
        assert optimized.total_instructions < plain.total_instructions

    def test_impure_subexpression_kept(self):
        # x * 0 must NOT drop the call inside x.
        source = """
int calls = 0;
int bump() { calls += 1; return 7; }
int main() {
    int r = bump() * 0;
    print_int(r); putchar(' '); print_int(calls);
    return 0;
}
"""
        plain, optimized = run_both(source)
        assert plain.output == optimized.output == "0 1"

    def test_for_with_constant_false_keeps_impure_init(self):
        source = """
int main() {
    int x = 0;
    for (x = 5; 0; x += 1) { print_int(9); }
    print_int(x);
    return 0;
}
"""
        plain, optimized = run_both(source)
        assert plain.output == optimized.output == "5"

    def test_division_by_zero_not_folded(self):
        # 1/0 stays a runtime operation (defined as 0 by the machine).
        plain, optimized = run_both("int main() { print_int(1 / 0); return 0; }")
        assert plain.output == optimized.output


#: Edge operands; INT_MIN is written as an expression MiniC can lex.
EDGE = ("0", "1", "-1", "(-2147483647 - 1)", "2147483647", "31", "32")
BINARY = (
    "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
    "==", "!=", "<", "<=", ">", ">=", "&&", "||",
)


def _printed(statements, optimize):
    body = "\n".join(f"    {statement} putchar(10);" for statement in statements)
    source = f"int main() {{\n    int x; int y;\n{body}\n    return 0;\n}}\n"
    return Simulator(compile_source(source, optimize=optimize)).run().output.split()


class TestFoldingMatchesRuntime:
    """Every rule of the optimizer, on edge operands, prints what the
    unoptimized program computes at run time.

    ``a OP b`` with two literals is folded at -O1; ``x OP b`` and
    ``a OP y`` meet the algebraic identities and strength reduction
    (32 is a power of two); ``x OP y`` at -O0 is the reference.
    """

    PAIRS = [(op, a, b) for op in BINARY for a, b in itertools.product(EDGE, EDGE)]

    @pytest.fixture(scope="class")
    def reference(self):
        printed = _printed(
            [f"x = {a}; y = {b}; print_int(x {op} y);" for op, a, b in self.PAIRS], False
        )
        assert len(printed) == len(self.PAIRS)
        return printed

    @pytest.mark.parametrize("form", ["folded", "literal-right", "literal-left"])
    def test_binary(self, form, reference):
        text = {
            "folded": "print_int({a} {op} {b});",
            "literal-right": "x = {a}; print_int(x {op} {b});",
            "literal-left": "y = {b}; print_int({a} {op} y);",
        }[form]
        optimized = _printed([text.format(op=op, a=a, b=b) for op, a, b in self.PAIRS], True)
        mismatches = [
            (f"{a} {op} {b}", got, want)
            for (op, a, b), got, want in zip(self.PAIRS, optimized, reference)
            if got != want
        ]
        assert not mismatches

    def test_unary(self):
        cases = list(itertools.product("-~!", EDGE))
        optimized = _printed([f"print_int({op}({a}));" for op, a in cases], True)
        reference = _printed([f"x = {a}; print_int({op}x);" for op, a in cases], False)
        assert optimized == reference

    def test_only_division_by_zero_stays_unfolded(self):
        source = "int main() {{ {} return 0; }}".format(
            " ".join(f"print_int({a} {op} {b});" for op, a, b in self.PAIRS)
        )
        divides = [
            line for line in compile_to_assembly(source, optimize=True).splitlines()
            if line.split()[:1] in (["div"], ["divu"], ["rem"], ["remu"])
        ]
        assert len(divides) == 2 * len(EDGE)  # a / 0 and a % 0 for each a


class TestPeephole:
    def test_self_move_removed(self):
        text = "  move $t0, $t0\n  move $t1, $t2\n"
        cleaned = peephole_assembly(text)
        assert "move $t0, $t0" not in cleaned
        assert "move $t1, $t2" in cleaned

    def test_branch_to_next_line_removed(self):
        text = "  b L1\nL1:\n  nop\n"
        cleaned = peephole_assembly(text)
        assert "b L1" not in cleaned
        assert "L1:" in cleaned

    def test_branch_elsewhere_kept(self):
        text = "  b L2\nL1:\n  nop\nL2:\n"
        assert "b L2" in peephole_assembly(text)

    def test_branch_past_a_blank_line_or_last_kept(self):
        assert "b L1" in peephole_assembly("  b L1\n\nL1:\n")
        assert peephole_assembly("L1:\n  b L1") == "L1:\n  b L1"
