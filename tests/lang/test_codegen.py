"""Execution-based tests for MiniC code generation.

Each test compiles a snippet and runs it on the simulator, asserting
printed output — validating codegen end to end against the language's
C-subset semantics.
"""

from __future__ import annotations

import pytest

from tests.helpers import eval_expr, minic_output


class TestArithmetic:
    @pytest.mark.parametrize(
        "expression,expected",
        [
            ("1 + 2", 3),
            ("10 - 25", -15),
            ("7 * 6", 42),
            ("17 / 5", 3),
            ("-17 / 5", -3),  # C truncation toward zero
            ("17 % 5", 2),
            ("-17 % 5", -2),
            ("6 & 3", 2),
            ("6 | 3", 7),
            ("6 ^ 3", 5),
            ("1 << 10", 1024),
            ("-32 >> 2", -8),
            ("~0", -1),
            ("-(3 + 4)", -7),
            ("!5", 0),
            ("!0", 1),
            ("2147483647 + 1", -2147483648),  # 32-bit wraparound
        ],
    )
    def test_constant_expressions(self, expression, expected):
        assert eval_expr(expression) == expected

    @pytest.mark.parametrize(
        "expression,expected",
        [
            ("a + b", 30),
            ("a * b - b / a", 198),
            ("(a < b) + (b < a)", 1),
            ("a == 10", 1),
            ("a != 10", 0),
            ("a <= 10", 1),
            ("b >= 21", 0),
            ("a < b && b < 100", 1),
            ("a > b || b > 100", 0),
        ],
    )
    def test_variable_expressions(self, expression, expected):
        assert eval_expr(expression, setup="int a = 10; int b = 20;") == expected

    def test_large_constants_synthesized(self):
        assert eval_expr("0x12345678") == 0x12345678
        assert eval_expr("0x12340000 + 0x5678") == 0x12345678

    def test_division_by_variable(self):
        assert eval_expr("100 / d", setup="int d = 7;") == 14


class TestShortCircuit:
    def test_and_skips_rhs(self):
        source = """
int calls = 0;
int bump() { calls += 1; return 1; }
int main() {
    int r = 0 && bump();
    print_int(r); putchar(' ');
    print_int(calls); putchar('\\n');
    return 0;
}
"""
        assert minic_output(source) == "0 0\n"

    def test_or_skips_rhs(self):
        source = """
int calls = 0;
int bump() { calls += 1; return 0; }
int main() {
    int r = 1 || bump();
    print_int(r); putchar(' ');
    print_int(calls); putchar('\\n');
    return 0;
}
"""
        assert minic_output(source) == "1 0\n"

    def test_chained_conditions(self):
        assert eval_expr("1 && 2 && 3") == 1
        assert eval_expr("0 || 0 || 7") == 1


class TestControlFlow:
    def test_if_else_chain(self):
        source = """
int grade(int score) {
    if (score >= 90) { return 4; }
    else if (score >= 80) { return 3; }
    else if (score >= 70) { return 2; }
    else { return 0; }
}
int main() {
    print_int(grade(95)); print_int(grade(85)); print_int(grade(75)); print_int(grade(5));
    putchar('\\n');
    return 0;
}
"""
        assert minic_output(source) == "4320\n"

    def test_while_loop(self):
        setup = "int i = 0; int s = 0; while (i < 10) { s += i; i += 1; }"
        assert eval_expr("s", setup=setup) == 45

    def test_for_loop_with_break_continue(self):
        setup = """
    int i; int s = 0;
    for (i = 0; i < 100; i += 1) {
        if (i % 2 == 0) { continue; }
        if (i > 10) { break; }
        s += i;
    }
"""
        assert eval_expr("s", setup=setup) == 1 + 3 + 5 + 7 + 9

    def test_nested_loops(self):
        setup = """
    int i; int j; int s = 0;
    for (i = 0; i < 5; i += 1) {
        for (j = 0; j < i; j += 1) {
            s += 1;
        }
    }
"""
        assert eval_expr("s", setup=setup) == 10


class TestFunctions:
    def test_four_args(self):
        source = """
int combine(int a, int b, int c, int d) { return a * 1000 + b * 100 + c * 10 + d; }
int main() { print_int(combine(1, 2, 3, 4)); putchar('\\n'); return 0; }
"""
        assert minic_output(source) == "1234\n"

    def test_recursion(self):
        source = """
int fact(int n) {
    if (n <= 1) { return 1; }
    return n * fact(n - 1);
}
int main() { print_int(fact(10)); putchar('\\n'); return 0; }
"""
        assert minic_output(source) == "3628800\n"

    def test_mutual_recursion(self):
        source = """
int is_odd(int n);
int is_even(int n) {
    if (n == 0) { return 1; }
    return is_odd(n - 1);
}
int is_odd(int n) {
    if (n == 0) { return 0; }
    return is_even(n - 1);
}
int main() { print_int(is_even(10)); print_int(is_odd(7)); putchar('\\n'); return 0; }
"""
        # MiniC has no prototypes; both orders work because declaration is
        # two-phase.  Strip the stray prototype-looking line.
        source = source.replace("int is_odd(int n);\n", "")
        assert minic_output(source) == "11\n"

    def test_nested_calls_preserve_temporaries(self):
        source = """
int add(int a, int b) { return a + b; }
int main() {
    print_int(add(add(1, 2), add(3, add(4, 5))));
    putchar('\\n');
    return 0;
}
"""
        assert minic_output(source) == "15\n"

    def test_call_in_condition(self):
        source = """
int positive(int x) { return x > 0; }
int main() {
    if (positive(5) && positive(-3) == 0) { print_int(1); } else { print_int(0); }
    putchar('\\n');
    return 0;
}
"""
        assert minic_output(source) == "1\n"

    def test_void_function(self):
        source = """
int count = 0;
void bump() { count += 1; }
void twice() { bump(); bump(); }
int main() { twice(); twice(); print_int(count); putchar('\\n'); return 0; }
"""
        assert minic_output(source) == "4\n"

    def test_deep_recursion_stack(self):
        source = """
int depth(int n) {
    int local = n * 2;
    if (n == 0) { return 0; }
    return depth(n - 1) + 1;
}
int main() { print_int(depth(200)); putchar('\\n'); return 0; }
"""
        assert minic_output(source) == "200\n"


class TestArraysAndPointers:
    def test_local_array(self):
        setup = """
    int a[5]; int i; int s = 0;
    for (i = 0; i < 5; i += 1) { a[i] = i * i; }
    for (i = 0; i < 5; i += 1) { s += a[i]; }
"""
        assert eval_expr("s", setup=setup) == 30

    def test_global_array_initialized(self):
        source = """
int primes[5] = {2, 3, 5, 7, 11};
int main() {
    print_int(primes[0] + primes[4]);
    putchar('\\n');
    return 0;
}
"""
        assert minic_output(source) == "13\n"

    def test_partial_initializer_zero_fills(self):
        source = """
int a[5] = {9};
int main() { print_int(a[0] + a[1] + a[4]); putchar('\\n'); return 0; }
"""
        assert minic_output(source) == "9\n"

    def test_pointer_walk(self):
        source = """
int data[4] = {10, 20, 30, 40};
int main() {
    int *p = data;
    int s = 0;
    while (p < data + 4) {
        s += *p;
        p += 1;
    }
    print_int(s);
    putchar('\\n');
    return 0;
}
"""
        assert minic_output(source) == "100\n"

    def test_pointer_difference(self):
        source = """
int data[8];
int main() {
    int *a = data + 1;
    int *b = data + 6;
    print_int(b - a);
    putchar('\\n');
    return 0;
}
"""
        assert minic_output(source) == "5\n"

    def test_addrof_local(self):
        setup = "int x = 5; int *p = &x; *p = 42;"
        assert eval_expr("x", setup=setup) == 42

    def test_pointer_argument_mutation(self):
        source = """
void set(int *p, int v) { *p = v; }
int main() {
    int x = 0;
    set(&x, 99);
    print_int(x);
    putchar('\\n');
    return 0;
}
"""
        assert minic_output(source) == "99\n"

    def test_array_argument(self):
        source = """
int sum(int a[], int n) {
    int i; int s = 0;
    for (i = 0; i < n; i += 1) { s += a[i]; }
    return s;
}
int table[3] = {7, 8, 9};
int main() { print_int(sum(table, 3)); putchar('\\n'); return 0; }
"""
        assert minic_output(source) == "24\n"

    def test_char_array_and_signs(self):
        source = """
int main() {
    char buf[4];
    buf[0] = 200;    /* stores as byte; loads back signed */
    buf[1] = 'a';
    print_int(buf[0]);
    putchar(' ');
    print_int(buf[1]);
    putchar('\\n');
    return 0;
}
"""
        assert minic_output(source) == "-56 97\n"

    def test_global_char_scalar(self):
        source = """
char flag = 'x';
int main() { print_int(flag); flag = 'y'; print_int(flag); putchar('\\n'); return 0; }
"""
        assert minic_output(source) == "120121\n"

    def test_string_literal(self):
        source = """
int main() {
    char *s = "ok";
    print_int(s[0]);
    putchar(s[1]);
    putchar('\\n');
    return 0;
}
"""
        assert minic_output(source) == "111k\n"

    def test_string_deduplication(self):
        source = """
int main() {
    char *a = "same";
    char *b = "same";
    print_int(a == b);
    putchar('\\n');
    return 0;
}
"""
        assert minic_output(source) == "1\n"


class TestCompoundAssignment:
    @pytest.mark.parametrize(
        "op,start,operand,expected",
        [
            ("+=", 10, 3, 13),
            ("-=", 10, 3, 7),
            ("*=", 10, 3, 30),
            ("/=", 10, 3, 3),
            ("%=", 10, 3, 1),
            ("&=", 12, 10, 8),
            ("|=", 12, 10, 14),
            ("^=", 12, 10, 6),
            ("<<=", 3, 2, 12),
            (">>=", 12, 2, 3),
        ],
    )
    def test_scalar_compound(self, op, start, operand, expected):
        assert eval_expr("x", setup=f"int x = {start}; x {op} {operand};") == expected

    def test_array_element_compound(self):
        setup = "int a[3]; a[1] = 5; a[1] += 7;"
        assert eval_expr("a[1]", setup=setup) == 12

    def test_deref_compound(self):
        setup = "int x = 5; int *p = &x; *p *= 3;"
        assert eval_expr("x", setup=setup) == 15

    def test_assignment_is_expression(self):
        setup = "int a; int b; a = (b = 21) + 1;"
        assert eval_expr("a + b", setup=setup) == 43

    def test_global_compound(self):
        source = """
int total = 5;
int main() { total += 37; print_int(total); putchar('\\n'); return 0; }
"""
        assert minic_output(source) == "42\n"


class TestHeapAndIo:
    def test_sbrk_allocation(self):
        source = """
int main() {
    int *a = (sbrk(40));
    int i;
    for (i = 0; i < 10; i += 1) { a[i] = i; }
    print_int(a[9]);
    putchar('\\n');
    return 0;
}
"""
        assert minic_output(source) == "9\n"

    def test_getchar_eof(self):
        source = """
int main() {
    int n = 0;
    while (getchar() >= 0) { n += 1; }
    print_int(n);
    putchar('\\n');
    return 0;
}
"""
        assert minic_output(source, input_data=b"abcde") == "5\n"

    def test_read_int(self):
        source = """
int main() {
    print_int(read_int() + read_int());
    putchar('\\n');
    return 0;
}
"""
        assert minic_output(source, input_data=b"40 2") == "42\n"

    def test_print_str(self):
        source = """
int main() { print_str("hello\\n"); return 0; }
"""
        assert minic_output(source) == "hello\n"

    def test_exit_code(self):
        from tests.helpers import run_minic

        result = run_minic("int main() { exit(3); return 0; }")
        assert result.stop_reason == "exit" and result.exit_code == 3


class TestExpressionDepth:
    def test_deep_expression_spills(self):
        # Depth > 8 forces value-stack spilling to memory slots.
        expression = "1 + (2 + (3 + (4 + (5 + (6 + (7 + (8 + (9 + (10 + 11)))))))))"
        assert eval_expr(expression) == 66

    def test_wide_call_arguments_with_spill(self):
        source = """
int f(int a, int b, int c, int d) { return a + b * 10 + c * 100 + d * 1000; }
int main() {
    print_int(f(1 + 1, f(1, 0, 0, 0) - 1, 3, 4) );
    putchar('\\n');
    return 0;
}
"""
        assert minic_output(source) == "4302\n"


class TestRareShapes:
    """Code shapes the workloads never produce."""

    @pytest.mark.parametrize(
        "source,expected",
        [
            pytest.param(
                'char *msg = "hey"; int main() { print_str(msg); return 0; }',
                "hey",
                id="global-pointer-to-string",
            ),
            pytest.param(
                "int bump(int x) { int *p = &x; *p = *p + 1; return x; }"
                " int main() { print_int(bump(4)); return 0; }",
                "5",
                id="parameter-in-frame",
            ),
            pytest.param(
                "int main() { int x = 3; int *p = &x; x += 4; x++; print_int(*p); return 0; }",
                "8",
                id="compound-on-frame-local",
            ),
            pytest.param(
                "int f(int x) { x += 2; return x; } int main() { print_int(f(5)); return 0; }",
                "7",
                id="compound-on-argument-register",
            ),
            pytest.param(
                "int a[3] = {7, 8, 9}; int main() { int *p = 1 + a; print_int(*p); return 0; }",
                "8",
                id="integer-plus-pointer",
            ),
            pytest.param(
                "int a[3] = {7, 8, 9};"
                " int main() { int *p = &a[2]; int *q = &*p; print_int(*q); return 0; }",
                "9",
                id="address-of-index-and-deref",
            ),
            pytest.param(
                "int a[3] = {7, 8, 9};"
                " int main() { int c = 1; int *p = a + 2; int *q = 0;"
                " int *r = c ? p - 1 : 0; int *s = c ? 0 : p;"
                " int z = q;"
                " print_int(q == 0); print_int(*r); print_int(s == 0); print_int(z); return 0; }",
                "1810",
                id="null-pointer-mixes",
            ),
        ],
    )
    def test_program(self, source, expected):
        assert minic_output(source) == expected

    @pytest.mark.parametrize("flag,expected", [(b"1", "19"), (b"0", "29")])
    def test_conditional_in_a_spilled_position(self, flag, expected):
        expression = "c ? 10 : 20"
        for _ in range(9):  # deeper than the 8 temporary registers
            expression = f"1 + ({expression})"
        source = f"int main() {{ int c = read_int(); print_int({expression}); return 0; }}"
        assert minic_output(source, flag) == expected

    def test_scalar_global_beyond_gp_reach(self):
        # Scalars fill the $gp window first; past 16K of them, the last
        # is addressed with 'la' for loads, stores, compound ops and ++.
        declarations = "".join(f"int g{i};" for i in range(16_400))
        source = declarations + """
int main() {
    g16399 = 5;
    g16399 += 2;
    g16399++;
    print_int(g16399);
    return 0;
}
"""
        assert minic_output(source) == "8"
