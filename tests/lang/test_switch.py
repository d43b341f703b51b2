"""Execution tests for the switch statement."""

from __future__ import annotations

import pytest

from repro.lang.errors import SemaError
from repro.lang.parser import parse
from repro.lang.sema import analyze

from tests.helpers import minic_output


def classify_source(body: str) -> str:
    return f"""
int classify(int v) {{
    int r = 0;
    {body}
    return r;
}}
int main() {{
    int i;
    for (i = 0; i < 6; i++) {{
        print_int(classify(i));
    }}
    return 0;
}}
"""


class TestDispatch:
    def test_basic_cases_with_breaks(self):
        body = """
    switch (v) {
        case 0: r = 10; break;
        case 1: r = 11; break;
        case 2: r = 12; break;
        default: r = 99; break;
    }
"""
        assert minic_output(classify_source(body)) == "101112999999"

    def test_no_default_falls_past(self):
        body = """
    r = 7;
    switch (v) {
        case 1: r = 1; break;
    }
"""
        assert minic_output(classify_source(body)) == "717777"

    def test_fallthrough(self):
        body = """
    switch (v) {
        case 0:
        case 1:
            r += 1;     /* 0 and 1 share the arm */
        case 2:
            r += 10;    /* 0,1,2 all run this */
            break;
        default:
            r = 50;
    }
"""
        # v=0: 11, v=1: 11, v=2: 10, v=3..5: 50.
        assert minic_output(classify_source(body)) == "111110505050"

    def test_default_in_middle(self):
        body = """
    switch (v) {
        case 0: r = 1; break;
        default: r = 8; break;
        case 2: r = 3; break;
    }
"""
        assert minic_output(classify_source(body)) == "183888"

    def test_case_stacked_on_default(self):
        body = """
    switch (v) {
        case 0: r = 1; break;
        case 4:
        default: r = 8; break;
    }
"""
        assert minic_output(classify_source(body)) == "188888"

    def test_negative_and_char_case_values(self):
        source = """
int main() {
    int v = -2;
    switch (v) {
        case -2: print_int(1); break;
        case 'a': print_int(2); break;
        default: print_int(3);
    }
    switch ('a') {
        case 'a': print_int(4); break;
        default: print_int(5);
    }
    return 0;
}
"""
        assert minic_output(source) == "14"

    def test_break_binds_to_switch_continue_to_loop(self):
        source = """
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 6; i++) {
        switch (i % 3) {
            case 0: continue;      /* next loop iteration */
            case 1: s += 1; break; /* leaves the switch only */
            default: s += 10;
        }
        s += 100;                  /* runs for i%3 != 0 */
    }
    print_int(s);
    return 0;
}
"""
        # i=1,4: +1 +100 each; i=2,5: +10 +100 each; i=0,3: skipped.
        assert minic_output(source) == str(2 * 101 + 2 * 110)

    def test_switch_in_interpreter_style_loop(self):
        source = """
int run(int op, int a, int b) {
    switch (op) {
        case 0: return a + b;
        case 1: return a - b;
        case 2: return a * b;
        case 3: return b == 0 ? 0 : a / b;
        default: return -1;
    }
}
int main() {
    print_int(run(0, 6, 2));
    print_int(run(1, 6, 2));
    print_int(run(2, 6, 2));
    print_int(run(3, 6, 2));
    print_int(run(9, 6, 2));
    return 0;
}
"""
        assert minic_output(source) == "84123-1"

    def test_optimizer_preserves_switch(self):
        from repro.lang import compile_source
        from repro.sim import Simulator

        source = classify_source(
            """
    switch (v * 1 + 0) {
        case 0: r = 2 + 3; break;
        case 1: r = 10; break;
        default: r = 0;
    }
"""
        )
        plain = Simulator(compile_source(source)).run()
        optimized = Simulator(compile_source(source, optimize=True)).run()
        assert plain.output == optimized.output


class TestSemaRules:
    def test_duplicate_case_rejected(self):
        with pytest.raises(SemaError, match="duplicate case"):
            analyze(
                parse(
                    "int main() { switch (1) { case 2: break; case 2: break; } return 0; }"
                )
            )

    def test_multiple_defaults_rejected(self):
        with pytest.raises(SemaError, match="default"):
            analyze(
                parse(
                    "int main() { switch (1) { default: break; default: break; } return 0; }"
                )
            )

    def test_continue_inside_bare_switch_rejected(self):
        with pytest.raises(SemaError, match="continue"):
            analyze(
                parse(
                    "int main() { switch (1) { case 1: continue; } return 0; }"
                )
            )

    def test_break_inside_switch_allowed_outside_loop(self):
        analyze(parse("int main() { switch (1) { case 1: break; } return 0; }"))

    def test_pointer_selector_rejected(self):
        with pytest.raises(SemaError, match="arithmetic"):
            analyze(
                parse(
                    "int main() { int *p = 0; switch (p) { case 0: break; } return 0; }"
                )
            )
