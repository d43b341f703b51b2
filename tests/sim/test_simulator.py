"""Execution tests for the functional simulator.

Each opcode's semantics are exercised with a tiny assembly program that
prints its result, and the event stream (steps, calls, returns,
syscalls) is checked with a recording analyzer.
"""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.sim import Analyzer, SimError, Simulator

from tests.helpers import run_asm


#: The three paths every opcode test runs on: the reference interpreter,
#: and the predecoded engine's fast closures and its observed closures
#: feeding an ``on_step`` observer.
PATHS = {
    "interpreter": {"engine": "interpreter"},
    "fast": {"engine": "predecoded"},
    "record": {"engine": "predecoded", "observed": True},
}


@pytest.fixture(params=sorted(PATHS))
def path(request):
    return PATHS[request.param]


@pytest.fixture
def asm_result(path):
    """Run a main() that ends by falling back to the halt sentinel."""

    def run(body: str, input_data: bytes = b"", data: str = "") -> str:
        source = f"""
        .data
{data}
        .text
        .ent main, 0
main:
{body}
        jr $ra
        .end main
"""
        return run_asm(source, input_data, **path).output

    return run


def print_reg(reg: str) -> str:
    return f"move $a0, {reg}\n li $v0, 1\n syscall\n"


class TestAluSemantics:
    @pytest.mark.parametrize(
        "body,expected",
        [
            ("li $t0, 7\n li $t1, 5\n addu $t2, $t0, $t1\n" + print_reg("$t2"), "12"),
            ("li $t0, 7\n li $t1, 5\n add $t2, $t0, $t1\n" + print_reg("$t2"), "12"),
            ("li $t0, 7\n li $t1, 5\n sub $t2, $t1, $t0\n" + print_reg("$t2"), "-2"),
            ("li $t0, 5\n addi $t1, $t0, -7\n" + print_reg("$t1"), "-2"),
            ("li $t0, 7\n li $t1, 5\n subu $t2, $t1, $t0\n" + print_reg("$t2"), "-2"),
            ("li $t0, 12\n li $t1, 10\n and $t2, $t0, $t1\n" + print_reg("$t2"), "8"),
            ("li $t0, 12\n li $t1, 10\n or $t2, $t0, $t1\n" + print_reg("$t2"), "14"),
            ("li $t0, 12\n li $t1, 10\n xor $t2, $t0, $t1\n" + print_reg("$t2"), "6"),
            ("li $t0, 0\n li $t1, 0\n nor $t2, $t0, $t1\n" + print_reg("$t2"), "-1"),
            ("li $t0, -3\n li $t1, 2\n slt $t2, $t0, $t1\n" + print_reg("$t2"), "1"),
            ("li $t0, -3\n li $t1, 2\n sltu $t2, $t0, $t1\n" + print_reg("$t2"), "0"),
            ("li $t0, 5\n addiu $t1, $t0, -7\n" + print_reg("$t1"), "-2"),
            ("li $t0, 5\n andi $t1, $t0, 3\n" + print_reg("$t1"), "1"),
            ("li $t0, 5\n ori $t1, $t0, 8\n" + print_reg("$t1"), "13"),
            ("li $t0, 5\n xori $t1, $t0, 1\n" + print_reg("$t1"), "4"),
            ("li $t0, -1\n slti $t1, $t0, 0\n" + print_reg("$t1"), "1"),
            ("li $t0, -1\n sltiu $t1, $t0, 10\n" + print_reg("$t1"), "0"),
            ("lui $t0, 2\n" + print_reg("$t0"), str(2 << 16)),
        ],
    )
    def test_alu(self, body, expected, asm_result):
        assert asm_result(body) == expected

    @pytest.mark.parametrize(
        "body,expected",
        [
            ("li $t0, 3\n sll $t1, $t0, 4\n" + print_reg("$t1"), "48"),
            ("li $t0, -16\n srl $t1, $t0, 28\n" + print_reg("$t1"), "15"),
            ("li $t0, -16\n sra $t1, $t0, 2\n" + print_reg("$t1"), "-4"),
            ("li $t0, 3\n li $t2, 4\n sllv $t1, $t0, $t2\n" + print_reg("$t1"), "48"),
            ("li $t0, -16\n li $t2, 2\n srav $t1, $t0, $t2\n" + print_reg("$t1"), "-4"),
            ("li $t0, 16\n li $t2, 2\n srlv $t1, $t0, $t2\n" + print_reg("$t1"), "4"),
        ],
    )
    def test_shifts(self, body, expected, asm_result):
        assert asm_result(body) == expected

    def test_writes_to_zero_discarded(self, asm_result):
        assert asm_result("li $t0, 9\n addu $zero, $t0, $t0\n" + print_reg("$zero")) == "0"


class TestMulDiv:
    def test_mult_mflo_mfhi(self, asm_result):
        body = (
            "li $t0, 100000\n li $t1, 100000\n mult $t0, $t1\n"
            "mflo $t2\n mfhi $t3\n" + print_reg("$t2") + print_reg("$t3")
        )
        product = 100000 * 100000
        lo = product & 0xFFFFFFFF
        lo_signed = lo - (1 << 32) if lo & (1 << 31) else lo
        assert asm_result(body) == f"{lo_signed}{product >> 32}"

    def test_div_quotient_remainder(self, asm_result):
        body = (
            "li $t0, -17\n li $t1, 5\n div $t0, $t1\n"
            "mflo $t2\n mfhi $t3\n" + print_reg("$t2") + print_reg("$t3")
        )
        assert asm_result(body) == "-3-2"

    def test_multu(self, asm_result):
        body = (
            "li $t0, -1\n li $t1, 3\n multu $t0, $t1\n"
            "mflo $t2\n mfhi $t3\n" + print_reg("$t2") + print_reg("$t3")
        )
        # 0xFFFFFFFF * 3 = 0x2_FFFFFFFD: lo prints as signed -3, hi is 2.
        assert asm_result(body) == "-32"

    def test_divu(self, asm_result):
        body = (
            "li $t0, 17\n li $t1, 5\n divu $t0, $t1\n"
            "mflo $t2\n mfhi $t3\n" + print_reg("$t2") + print_reg("$t3")
        )
        assert asm_result(body) == "32"


class TestMemoryOps:
    def test_word_store_load(self, asm_result):
        body = (
            "la $t0, buf\n li $t1, 123456\n sw $t1, 0($t0)\n"
            "lw $t2, 0($t0)\n" + print_reg("$t2")
        )
        assert asm_result(body, data="buf: .space 16") == "123456"

    def test_signed_byte_load(self, asm_result):
        body = (
            "la $t0, buf\n li $t1, 0xFF\n sb $t1, 0($t0)\n"
            "lb $t2, 0($t0)\n lbu $t3, 0($t0)\n" + print_reg("$t2") + print_reg("$t3")
        )
        assert asm_result(body, data="buf: .space 4") == "-1255"

    def test_signed_half_load(self, asm_result):
        body = (
            "la $t0, buf\n li $t1, 0x8000\n sh $t1, 0($t0)\n"
            "lh $t2, 0($t0)\n lhu $t3, 0($t0)\n" + print_reg("$t2") + print_reg("$t3")
        )
        assert asm_result(body, data="buf: .space 4") == "-3276832768"

    def test_data_segment_preloaded(self, asm_result):
        assert asm_result(
            "la $t0, val\n lw $t1, 0($t0)\n" + print_reg("$t1"), data="val: .word 77"
        ) == "77"

    def test_unaligned_load_faults(self, asm_result):
        with pytest.raises(SimError):
            asm_result("la $t0, buf\n lw $t1, 1($t0)", data="buf: .space 8")

    def test_load_into_zero_discarded(self, asm_result):
        body = "la $t0, val\n lw $zero, 0($t0)\n" + print_reg("$zero")
        assert asm_result(body, data="val: .word 77") == "0"

    @pytest.mark.parametrize("op,offset", [("lw", 2), ("lh", 1), ("lhu", 1)])
    def test_unaligned_load_into_zero_still_faults(self, op, offset, asm_result):
        with pytest.raises(SimError, match="unaligned"):
            asm_result(f"la $t0, buf\n {op} $zero, {offset}($t0)", data="buf: .space 8")


class TestControlFlow:
    def test_branch_taken_and_not_taken(self, asm_result):
        body = """
        li $t0, 1
        beq $t0, $zero, skip
        li $t1, 5
        b done
skip:   li $t1, 9
done:
""" + print_reg("$t1")
        assert asm_result(body) == "5"

    @pytest.mark.parametrize(
        "value,op,expected",
        [
            (0, "blez", "1"),
            (1, "blez", "0"),
            (1, "bgtz", "1"),
            (-1, "bgtz", "0"),
            (-1, "bltz", "1"),
            (0, "bltz", "0"),
            (0, "bgez", "1"),
            (-1, "bgez", "0"),
        ],
    )
    def test_single_register_branches(self, value, op, expected, asm_result):
        body = f"""
        li $t0, {value}
        li $t1, 0
        {op} $t0, yes
        b done
yes:    li $t1, 1
done:
""" + print_reg("$t1")
        assert asm_result(body) == expected

    def test_jump(self, asm_result):
        body = """
        j over
        li $t0, 1
over:   li $t0, 2
""" + print_reg("$t0")
        assert asm_result(body) == "2"

    def test_jr_through_other_register(self, asm_result):
        body = """
        la $t0, over
        jr $t0
        li $t1, 1
over:   li $t1, 2
""" + print_reg("$t1")
        assert asm_result(body) == "2"

    def test_break_runs_the_syscall_service(self, asm_result):
        assert asm_result("li $a0, 42\n li $v0, 1\n break\n") == "42"

    def test_jalr_calls_through_register(self, path):
        source = """
        .text
        .ent main, 0
main:   addiu $sp, $sp, -8
        sw $ra, 4($sp)
        la $t0, target
        jalr $t0
        move $a0, $v0
        li $v0, 1
        syscall
        lw $ra, 4($sp)
        addiu $sp, $sp, 8
        jr $ra
        .end main
        .ent target, 0
target: li $v0, 31
        jr $ra
        .end target
"""
        assert run_asm(source, **path).output == "31"


class _Recorder(Analyzer):
    def __init__(self):
        self.steps = []
        self.calls = []
        self.returns = []
        self.syscalls = []

    def on_step(self, record):
        self.steps.append(record)

    def on_call(self, event):
        self.calls.append(event)

    def on_return(self, event):
        self.returns.append(event)

    def on_syscall(self, event):
        self.syscalls.append(event)


CALL_PROGRAM = """
        .text
        .ent main, 0
main:   addiu $sp, $sp, -8
        sw $ra, 4($sp)
        li $a0, 4
        li $a1, 9
        jal add2
        lw $ra, 4($sp)
        addiu $sp, $sp, 8
        jr $ra
        .end main
        .ent add2, 2
add2:   addu $v0, $a0, $a1
        jr $ra
        .end add2
"""


class TestEventStream:
    def test_call_and_return_events(self):
        recorder = _Recorder()
        program = assemble(CALL_PROGRAM)
        Simulator(program, analyzers=[recorder]).run()
        # Synthetic entry call for main + the real call to add2.
        assert [c.function.name for c in recorder.calls] == ["main", "add2"]
        add2_call = recorder.calls[1]
        assert add2_call.args == (4, 9)
        assert add2_call.depth == 2
        assert [r.function.name for r in recorder.returns] == ["add2", "main"]
        assert recorder.returns[0].return_value == 13

    def test_step_records_are_sequential(self):
        recorder = _Recorder()
        Simulator(assemble(CALL_PROGRAM), analyzers=[recorder]).run()
        indices = [s.index for s in recorder.steps]
        assert indices == list(range(1, len(indices) + 1))

    def test_load_record_fields(self):
        recorder = _Recorder()
        source = """
        .data
v:      .word 55
        .text
        .ent main, 0
main:   la $t0, v
        lw $t1, 0($t0)
        jr $ra
        .end main
"""
        Simulator(assemble(source), analyzers=[recorder]).run()
        load = next(s for s in recorder.steps if s.instr.is_load)
        assert load.outputs == (55,)
        assert load.dest_value == 55
        assert load.mem_addr is not None

    def test_store_record_fields(self):
        recorder = _Recorder()
        source = """
        .data
v:      .space 4
        .text
        .ent main, 0
main:   la $t0, v
        li $t1, 7
        sw $t1, 0($t0)
        jr $ra
        .end main
"""
        Simulator(assemble(source), analyzers=[recorder]).run()
        store = next(s for s in recorder.steps if s.instr.is_store)
        assert store.store_value == 7
        assert store.inputs[0] == 7

    def test_branch_outputs_taken_flag(self):
        recorder = _Recorder()
        source = """
        .ent main, 0
main:   li $t0, 1
        bne $t0, $zero, over
        nop
over:   beq $t0, $zero, out
out:    jr $ra
        .end main
"""
        Simulator(assemble(source), analyzers=[recorder]).run()
        branches = [s for s in recorder.steps if s.instr.op.kind == "branch"]
        assert branches[0].outputs == (1,)
        assert branches[1].outputs == (0,)

    def test_syscall_events(self):
        recorder = _Recorder()
        source = """
        .ent main, 0
main:   li $v0, 12
        syscall
        move $a0, $v0
        li $v0, 11
        syscall
        jr $ra
        .end main
"""
        result = Simulator(assemble(source), b"Z", analyzers=[recorder]).run()
        assert result.output == "Z"
        kinds = [(e.is_input, e.is_output) for e in recorder.syscalls]
        assert kinds == [(True, False), (False, True)]


class TestRunControl:
    def test_limit_stops_execution(self):
        source = """
        .ent main, 0
main:   b main
        .end main
"""
        result = Simulator(assemble(source)).run(limit=100)
        assert result.stop_reason == "limit"
        assert result.analyzed_instructions == 100

    def test_skip_delivers_no_early_steps(self):
        recorder = _Recorder()
        source = """
        .ent main, 0
main:   li $t0, 0
loop:   addiu $t0, $t0, 1
        blt $t0, 50, loop
        jr $ra
        .end main
"""
        result = Simulator(assemble(source), analyzers=[recorder]).run(skip=20)
        assert result.total_instructions == result.analyzed_instructions + 20
        assert recorder.steps[0].index == 1  # indices restart after warm-up

    def test_warmup_events_flagged(self):
        recorder = _Recorder()
        Simulator(assemble(CALL_PROGRAM), analyzers=[recorder]).run(skip=4)
        assert recorder.calls[0].warmup  # entry call happens during warm-up
        assert not recorder.calls[-1].warmup

    def test_exit_syscall(self):
        source = """
        .ent main, 0
main:   li $a0, 7
        li $v0, 10
        syscall
        .end main
"""
        result = Simulator(assemble(source)).run()
        assert result.stop_reason == "exit"
        assert result.exit_code == 7

    def test_fall_off_main_halts(self):
        result = Simulator(assemble(".ent main, 0\nmain: jr $ra\n.end main")).run()
        assert result.stop_reason == "halt"

    def test_pc_out_of_text_faults(self):
        source = """
        .ent main, 0
main:   li $t0, 0x00400100
        jr $t0
        .end main
"""
        with pytest.raises(SimError):
            Simulator(assemble(source)).run()

    def test_run_twice_rejected(self):
        simulator = Simulator(assemble(".ent main, 0\nmain: jr $ra\n.end main"))
        simulator.run()
        with pytest.raises(SimError):
            simulator.run()
