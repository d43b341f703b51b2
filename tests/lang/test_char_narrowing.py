"""A value converted to ``char`` keeps its sign-extended low byte, as in C.

Memory narrows through ``sb``/``lb``; these cases hold a char in a
register (a local, a parameter, a return value) or use the value of an
assignment or prefix ``++``/``--`` whose target is a char in memory (a
global, an array element, ``*p``), at ``-O0``, with the optimizer, with
the inliner and with both.
"""

from __future__ import annotations

import pytest

from repro.lang import compile_source, compile_to_assembly
from repro.sim import Simulator

MODES = [
    pytest.param({}, id="O0"),
    pytest.param({"optimize": True}, id="optimize"),
    pytest.param({"inline": True}, id="inline"),
    pytest.param({"optimize": True, "inline": True}, id="optimize-inline"),
]

CASES = [
    pytest.param(
        "int main() { char c = 300; print_int(c); return 0; }", "44", id="local-init"
    ),
    pytest.param(
        "char f(int x) { return x; }\nint main() { print_int(f(300)); return 0; }",
        "44",
        id="return",
    ),
    pytest.param(
        "int g(char c) { return c; }\nint main() { print_int(g(200)); return 0; }",
        "-56",
        id="param",
    ),
    pytest.param(
        "int main() { char c = 127; c++; print_int(c); return 0; }", "-128", id="increment"
    ),
    pytest.param(
        "int main() { char c; print_int(c = 384); print_int(c); return 0; }",
        "-128-128",
        id="assignment-value",
    ),
    pytest.param(
        "int main() { char c = 100; c += 100; print_int(c); return 0; }",
        "-56",
        id="compound",
    ),
    pytest.param(
        "int main() { char c = 127; print_int(c++); print_int(c); return 0; }",
        "127-128",
        id="postfix-value",
    ),
    pytest.param(
        "int main() { char c = 1; char *p = &c; c = 300; print_int(*p); return 0; }",
        "44",
        id="stack-local",
    ),
    pytest.param(
        "int show(int x) { print_int(x); return x; }\n"
        "int h(char c) { show(0); return c; }\n"
        "int main() { print_int(h(255)); return 0; }",
        "0-1",
        id="saved-param",
    ),
    pytest.param(
        "char same(char c) { return c; }\n"
        "int main() { char c = -3; print_int(same(c)); return 0; }",
        "-3",
        id="char-argument",
    ),
    pytest.param(
        "char g;\nint main() { print_int(g = 300); print_int(g); return 0; }",
        "4444",
        id="global-assignment-value",
    ),
    pytest.param(
        "int main() { char b[2]; print_int(b[0] = 300); print_int(b[0]); return 0; }",
        "4444",
        id="element-assignment-value",
    ),
    pytest.param(
        "int main() { char b[1]; char *p = b; *p = 100; print_int(*p += 100); return 0; }",
        "-56",
        id="compound-through-pointer",
    ),
    pytest.param(
        "char g;\nint main() { g = 127; print_int(++g); print_int(g); return 0; }",
        "-128-128",
        id="global-prefix-increment",
    ),
    pytest.param(
        "char g;\nint main() { g = -128; print_int(--g); print_int(g++); return 0; }",
        "127127",
        id="global-prefix-decrement",
    ),
    pytest.param(
        "int main() { char c; char *p = &c; *p = 127; print_int(++*p); print_int(c); return 0; }",
        "-128-128",
        id="pointer-prefix-increment",
    ),
    pytest.param(
        "int main() { char b[1]; b[0] = 127; print_int(b[0]++); print_int(b[0]); return 0; }",
        "127-128",
        id="element-postfix-value",
    ),
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("source, expected", CASES)
def test_char_holds_its_low_byte(source, expected, mode):
    result = Simulator(compile_source(source, **mode)).run()
    assert result.stop_reason in ("halt", "exit")
    assert result.output == expected


def test_char_beyond_gp_reach():
    # Scalars fill the $gp window first; past 16K of them, ``g`` is
    # addressed with ``la`` for the store of ``=`` and of prefix ``++``.
    declarations = "".join(f"int g{i};" for i in range(16_400))
    source = declarations + """
char g;
int main() { print_int(g = 300); g = 127; print_int(++g); return 0; }
"""
    assert "la $at, g" in compile_to_assembly(source)
    assert Simulator(compile_source(source)).run().output == "44-128"
