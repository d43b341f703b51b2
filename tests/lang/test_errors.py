"""One case per message the MiniC front end raises for a bad program."""

from __future__ import annotations

import re

import pytest

from repro.lang import compile_source
from repro.lang.errors import CodegenError, LexError, ParseError, SemaError

_VOID = "void v() { return; } int f(int x) { return x; } "


def _in_main(body: str) -> str:
    return _VOID + "int main() { " + body + " return 0; }"


_DEEP = "1"
for _ in range(40):  # deeper than the 32 expression-stack slots
    _DEEP = f"1 + ({_DEEP})"


@pytest.mark.parametrize(
    "source, error, message",
    [
        ("int main() { int c = '", LexError, "unterminated literal"),
        (_in_main("int c = '';"), LexError, "empty literal"),
        ("int 5; int main() { return 0; }", ParseError, "expected identifier, got '5'"),
        (_in_main("int i = 0; do { i++; } until (i);"), ParseError, "expected 'while' after do-body"),
        ("int main() { switch (1) { case 1: return 0;", ParseError, "unterminated switch"),
        (_in_main("switch (1) { return 0; case 1: break; }"), ParseError, "statement before first case label"),
        (_in_main("int x = 1; void *q = &x;"), ParseError, "void is a return type only, not a pointer target"),
        ("void g; int main() { return 0; }", SemaError, "global cannot have type void"),
        ("int a[2] = 5; int main() { return 0; }", SemaError, "scalar initializer on array"),
        ("int h(void x) { return 0; } int main() { return 0; }", SemaError, "parameter cannot be void"),
        (_VOID + "int g() { return v(); } int main() { return 0; }", SemaError, "cannot return void as int"),
        (_in_main("int *q = v();"), SemaError, "cannot initialize int* with void"),
        (_in_main("if (v()) {}"), SemaError, "expected scalar value, got void"),
        (_in_main("int a[2]; int *p = a; a[p] = 1;"), SemaError, "array index must be arithmetic"),
        (_in_main("int a[2]; int *p = a; int x = -p;"), SemaError, "unary - needs arithmetic operand"),
        (_in_main("int a[2]; int *p = a; int x = p < v();"), SemaError, "invalid pointer comparison"),
        (_in_main("int a[2]; int *p = a; int x = 1 - p;"), SemaError, "invalid operands to -"),
        (_in_main("int x; x = v();"), SemaError, "cannot assign void to int"),
        (_in_main("int a[2]; int *p = a; p += p;"), SemaError, "pointer compound assignment needs integer"),
        (_in_main("int a[2]; int *p = a; p *= 2;"), SemaError, "operator '*=' needs arithmetic operands"),
        (_in_main("f(v());"), SemaError, "cannot pass void as int"),
        (_in_main(f"int x = {_DEEP};"), CodegenError, "expression too complex"),
    ],
)
def test_rejected(source, error, message):
    with pytest.raises(error, match=re.escape(message)):
        compile_source(source)
