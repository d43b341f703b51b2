"""Shared test utilities: synthetic step records and run helpers."""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple

from repro.asm import Program, assemble
from repro.isa.instructions import Instruction, OPCODES
from repro.lang import compile_source
from repro.sim import Analyzer, Simulator, StepRecord
from repro.sim.simulator import DEFAULT_ENGINE, RunResult

_INDEX = itertools.count(1)


def make_instruction(op: str = "addu", **fields: int) -> Instruction:
    """Build a decoded instruction directly (no assembler round trip)."""
    return Instruction(OPCODES[op], **fields)


def make_step(
    pc: int = 0x0040_0000,
    op: str = "addu",
    inputs: Tuple[int, ...] = (),
    outputs: Tuple[int, ...] = (),
    dest_reg: Optional[int] = None,
    dest_value: int = 0,
    mem_addr: Optional[int] = None,
    store_value: Optional[int] = None,
    index: Optional[int] = None,
    instr: Optional[Instruction] = None,
    **instr_fields: int,
) -> StepRecord:
    """Build a synthetic StepRecord for feeding analyzers directly."""
    if instr is None:
        instr = make_instruction(op, addr=pc, **instr_fields)
    return StepRecord(
        index=index if index is not None else next(_INDEX),
        pc=pc,
        instr=instr,
        inputs=inputs,
        outputs=outputs,
        dest_reg=dest_reg,
        dest_value=dest_value,
        mem_addr=mem_addr,
        store_value=store_value,
    )


class NullStepObserver(Analyzer):
    """Takes every step record and ignores it.

    Attached to the predecoded engine, it makes the run use the observed
    closures, with step records built for it, instead of the fast ones.
    """

    def on_step(self, record: StepRecord) -> None:
        pass


def run_asm(
    source: str,
    input_data: bytes = b"",
    analyzers: Sequence = (),
    engine: str = DEFAULT_ENGINE,
    observed: bool = False,
) -> RunResult:
    """Assemble and run an assembly program.

    ``observed`` adds a :class:`NullStepObserver` to ``analyzers``.
    """
    program = assemble(source)
    analyzers = list(analyzers) + ([NullStepObserver()] if observed else [])
    return Simulator(program, input_data=input_data, analyzers=analyzers, engine=engine).run()


def run_minic(
    source: str, input_data: bytes = b"", analyzers: Sequence = ()
) -> RunResult:
    """Compile and run a MiniC program."""
    program = compile_source(source)
    return Simulator(program, input_data=input_data, analyzers=list(analyzers)).run()


def minic_output(source: str, input_data: bytes = b"") -> str:
    """Compile, run, and return printed output (asserting a clean stop)."""
    result = run_minic(source, input_data)
    assert result.stop_reason in ("halt", "exit"), result
    return result.output


def asm_program(source: str) -> Program:
    return assemble(source)


WRAP_MAIN = """
int main() {{
    {body}
    return 0;
}}
"""


def expr_program(expression: str, setup: str = "") -> str:
    """A MiniC program printing one integer expression."""
    body = f"{setup}\n    print_int({expression});\n    putchar('\\n');"
    return WRAP_MAIN.format(body=body)


def eval_expr(expression: str, setup: str = "", input_data: bytes = b"") -> int:
    """Compile and run a tiny program, returning the printed integer."""
    output = minic_output(expr_program(expression, setup), input_data)
    return int(output.strip())
