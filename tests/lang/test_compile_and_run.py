"""Compile MiniC source and run it: the whole source-to-output pipeline.

Each test goes through the public entry points only —
:func:`compile_source` / :func:`compile_to_assembly` and
:class:`Simulator` — the way an example script or the experiment runner
uses them.
"""

from __future__ import annotations

import pytest

from repro.core import RepetitionTracker
from repro.lang import MiniCError, SemaError, compile_source, compile_to_assembly
from repro.sim import Simulator

HELLO = """
int main() {
    print_str("hi\\n");
    return 0;
}
"""

SUMMER = """
int main() {
    int total = 0;
    int n = read_int();
    while (n >= 0) {
        total += n;
        n = read_int();
    }
    print_int(total);
    putchar('\\n');
    return 0;
}
"""


def run(source: str, input_data: bytes = b"", limit=None, **options):
    return Simulator(compile_source(source, **options), input_data=input_data).run(
        limit=limit
    )


class TestCompileOnly:
    def test_program_summary(self):
        program = compile_source(HELLO)
        assert program.static_instruction_count == len(program.text) > 0
        assert [f.name for f in program.functions] == ["main"]
        assert program.entry == program.symbols["main"]

    def test_assembly_output(self):
        text = compile_to_assembly(HELLO)
        assert ".ent main" in text and "syscall" in text
        assert ".asciiz" in text

    def test_disassembly_names_functions(self):
        text = compile_source(HELLO).disassemble()
        assert "main:" in text and "jr $ra" in text

    def test_compile_error_names_the_identifier(self):
        with pytest.raises(SemaError, match="undeclared"):
            compile_source("int main() { undeclared = 1; }")

    def test_compile_errors_share_a_base_class(self):
        with pytest.raises(MiniCError):
            compile_source("int main() { return 0 }")


class TestRun:
    def test_run_program(self):
        result = run(HELLO)
        assert result.output == "hi\n"
        assert result.stop_reason == "halt"
        assert result.exit_code == 0

    def test_run_with_input(self):
        assert run(SUMMER, b"1 2 3 4 -1").output == "10\n"

    @pytest.mark.parametrize(
        "options",
        [{"optimize": True}, {"inline": True}, {"optimize": True, "inline": True}],
        ids=["optimize", "inline", "optimize-inline"],
    )
    def test_compiler_options_keep_output(self, options):
        plain = run(SUMMER, b"5 6 -1")
        assert run(SUMMER, b"5 6 -1", **options).output == plain.output == "11\n"

    def test_exit_code_propagates(self):
        result = run("int main() { exit(3); return 0; }")
        assert result.stop_reason == "exit"
        assert result.exit_code == 3

    def test_limit(self):
        result = run("int main() { while (1) { } return 0; }", limit=500)
        assert result.stop_reason == "limit"
        assert result.analyzed_instructions == 500

    def test_repetition_profile(self):
        tracker = RepetitionTracker()
        program = compile_source(SUMMER)
        result = Simulator(program, input_data=b"3 3 3 3 -1", analyzers=[tracker]).run()
        report = tracker.report()
        assert report.dynamic_total == result.analyzed_instructions
        # The loop body re-executes with the same operands after the
        # first pass over a repeated input value.
        assert 0 < report.dynamic_repeated < report.dynamic_total
