"""Seeded all-opcode differential: interpreter vs fast vs observed closures.

The workloads execute only part of the ISA, so the engine differential
over them never compares the rarely used opcodes.  Here every opcode in
:data:`~repro.isa.instructions.OPCODES` runs on edge operands, with a
destination that is fresh, ``$zero`` or one of its sources, on four
paths: the reference interpreter, the predecoded engine's fast closures
(no step observer), its observed closures feeding an ``on_step``
observer (step records rebuilt by the per-pc adapter), and its observed
closures feeding a compiled step directly (positional values, no
record).  Registers, hi/lo, data memory, output, the trap message and
the event stream must agree; the steps must agree between the
interpreter's records and both observed paths.  Each case also runs
watched, with the metrics registry on, a span tracer installed and a
watchdog armed: every engine loop must end in the same state as its
plain run, and the predecoded engine must generate no closure the plain
run did not.
"""

from __future__ import annotations

import contextlib
import random
from typing import Dict, List

import pytest

from repro.asm import assemble
from repro.harness.failures import Watchdog
from repro.isa.instructions import OPCODES, Format, Kind
from repro.obs import tracing as obs_tracing
from repro.sim import Analyzer, SimError, Simulator, predecode

#: Operand values at the edges of the 32-bit, 16-bit and 8-bit views
#: and of the shift-amount range.
EDGES = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0x8000, 0xFFFF, 0x80, 0xFF, 31, 32)

#: Immediates at the edges of the signed and the unsigned 16-bit fields.
SIGNED_IMMS = (-32768, -1, 0, 1, 0x7F, 0x80, 0x7FFF)
UNSIGNED_IMMS = (0, 1, 0x80, 0xFF, 0x8000, 0xFFFF)
SHAMTS = (0, 1, 15, 16, 31)

_SEED = 20261017


class EventRecorder(Analyzer):
    """Calls, returns and syscalls as comparable tuples."""

    def __init__(self) -> None:
        self.events: List[tuple] = []

    def on_call(self, event) -> None:
        self.events.append(
            ("call", event.pc, event.target, event.return_addr, event.args, event.depth)
        )

    def on_return(self, event) -> None:
        self.events.append(
            ("return", event.pc, event.target, event.return_value, event.depth)
        )

    def on_syscall(self, event) -> None:
        self.events.append(("syscall", event.pc, event.service, event.arg, event.result))


class StepRecorder(EventRecorder):
    """Also takes every step record, so the predecoded engine builds them."""

    def on_step(self, record) -> None:
        self.events.append(
            (
                "step",
                record.index,
                record.pc,
                record.instr,
                record.inputs,
                record.outputs,
                record.dest_reg,
                record.dest_value,
                record.mem_addr,
                record.store_value,
            )
        )


class ValueRecorder(EventRecorder):
    """Also takes every step as a compiled step: positional values only."""

    def compile_step(self, pc, instr):
        events = self.events

        def step(n, inputs, outputs, value, address) -> None:
            events.append(("step", n, pc, inputs, outputs, value, address))

        return step


def _values(event: tuple) -> tuple:
    """The part of a :class:`StepRecorder` step a compiled step receives."""
    if event[0] != "step":
        return event
    _, index, pc, _instr, inputs, outputs, _dest_reg, value, address, _store = event
    return ("step", index, pc, inputs, outputs, value, address)


def _program(body: str) -> str:
    return f"""
        .data
buf:    .word {", ".join(str(value) for value in EDGES)}
out:    .space 4096
        .text
        .ent main, 0
main:   la $s0, out
{body}
        jr $ra
        .end main
"""


def _dests(rng: random.Random, sources: List[str]) -> List[str]:
    """Fresh, ``$zero``, and one of the sources (seeded choice)."""
    return ["$t2", "$zero", rng.choice(sources)]


def _alu_cases(name: str, rng: random.Random) -> List[str]:
    op = OPCODES[name]
    lines = []
    slot = 0

    def case(setup: str, dest: str, operands: str) -> None:
        nonlocal slot
        lines.append(f"{setup}\n {name} {dest}, {operands}\n sw {dest}, {4 * slot}($s0)")
        slot += 1

    if op.fmt in (Format.R3, Format.R3_SHIFTV):
        for a in EDGES:
            for b in EDGES:
                for dest in _dests(rng, ["$t0", "$t1"]):
                    case(f"li $t0, {a}\n li $t1, {b}", dest, "$t0, $t1")
    elif op.fmt == Format.SHIFT:
        for a in EDGES:
            for shamt in SHAMTS:
                for dest in _dests(rng, ["$t0"]):
                    case(f"li $t0, {a}", dest, f"$t0, {shamt}")
    elif op.fmt == Format.I2:
        imms = UNSIGNED_IMMS if op.unsigned_imm else SIGNED_IMMS
        for a in EDGES:
            for imm in imms:
                for dest in _dests(rng, ["$t0"]):
                    case(f"li $t0, {a}", dest, f"$t0, {imm}")
    else:  # lui
        for imm in UNSIGNED_IMMS:
            for dest in ("$t2", "$zero"):
                case("", dest, str(imm))
    return ["\n".join(lines)]


def _muldiv_cases(name: str, rng: random.Random) -> List[str]:
    lines = []
    for slot, (a, b) in enumerate((a, b) for a in EDGES for b in EDGES):
        lines.append(
            f"li $t0, {a}\n li $t1, {b}\n {name} $t0, $t1\n"
            f"mfhi $t2\n mflo $t3\n sw $t2, {8 * slot}($s0)\n sw $t3, {8 * slot + 4}($s0)"
        )
    return ["\n".join(lines)]


def _mfhilo_cases(name: str, rng: random.Random) -> List[str]:
    lines = []
    for slot, (a, b) in enumerate(zip(EDGES, reversed(EDGES))):
        for dest in ("$t2", "$zero"):
            lines.append(
                f"li $t0, {a}\n li $t1, {b}\n multu $t0, $t1\n"
                f"{name} {dest}\n sw {dest}, {8 * slot + (4 if dest == '$zero' else 0)}($s0)"
            )
    return ["\n".join(lines)]


def _load_cases(name: str, rng: random.Random) -> List[str]:
    width = OPCODES[name].mem_width
    lines = []
    slot = 0
    for offset in range(0, 4 * len(EDGES), width):
        for dest in _dests(rng, ["$t0"]):
            # Reach the same byte from two bases: a positive and a negative imm.
            for base, imm in (("buf", offset), ("buf+64", offset - 64)):
                lines.append(
                    f"la $t0, {base}\n {name} {dest}, {imm}($t0)\n sw {dest}, {4 * slot}($s0)"
                )
                slot += 1
    cases = ["\n".join(lines)]
    for misalign in range(1, width):
        for dest in ("$t2", "$zero"):
            cases.append(f"la $t0, buf\n {name} {dest}, {misalign}($t0)")
    return cases


def _store_cases(name: str, rng: random.Random) -> List[str]:
    width = OPCODES[name].mem_width
    lines = []
    for slot, value in enumerate(EDGES):
        for base, imm in (("out", 4 * slot), ("out+256", 4 * slot - 256)):
            lines.append(f"li $t1, {value}\n la $t0, {base}\n {name} $t1, {imm}($t0)")
        # A store whose data and base are the same register.
        lines.append(f"la $t0, out+{512 + 4 * slot}\n {name} $t0, 0($t0)")
    cases = ["\n".join(lines)]
    for misalign in range(1, width):
        cases.append(f"la $t0, out\n li $t1, 7\n {name} $t1, {misalign}($t0)")
    return cases


def _branch_cases(name: str, rng: random.Random) -> List[str]:
    two_reg = OPCODES[name].fmt == Format.BR2
    pairs = [(a, b) for a in EDGES for b in EDGES] if two_reg else [(a, 0) for a in EDGES]
    lines = []
    for slot, (a, b) in enumerate(pairs):
        operands = "$t0, $t1" if two_reg else "$t0"
        lines.append(
            f"li $t0, {a}\n li $t1, {b}\n li $t2, 0\n {name} {operands}, taken{slot}\n"
            f"li $t2, 1\ntaken{slot}: sw $t2, {4 * slot}($s0)"
        )
    return ["\n".join(lines)]


#: Hand-written programs for the control and system opcodes.  Each runs
#: as the body of ``main`` (``$s0`` points at the output buffer).
_CONTROL = {
    "j": ["li $t2, 1\n j over\n li $t2, 2\nover: sw $t2, 0($s0)"],
    "jal": [
        "addiu $sp, $sp, -8\n sw $ra, 4($sp)\n li $a0, 5\n jal double\n"
        "sw $v0, 0($s0)\n lw $ra, 4($sp)\n addiu $sp, $sp, 8"
    ],
    "jalr": [
        # Link into $ra, into $zero, and into the target register itself.
        "addiu $sp, $sp, -8\n sw $ra, 4($sp)\n li $a0, 7\n la $t0, double\n jalr $ra, $t0\n"
        "sw $v0, 0($s0)\n lw $ra, 4($sp)\n addiu $sp, $sp, 8",
        "la $t0, land\n jalr $zero, $t0\n li $t2, 1\nland: sw $ra, 0($s0)",
        "addiu $sp, $sp, -8\n sw $ra, 4($sp)\n li $a0, 9\n la $ra, double\n jalr $ra, $ra\n"
        "sw $v0, 0($s0)\n lw $ra, 4($sp)\n addiu $sp, $sp, 8",
    ],
    "jr": [
        "la $t0, over\n jr $t0\n li $t2, 1\nover: sw $t2, 0($s0)",
        "la $t0, out\n jr $t0",  # a data address: pc outside the text segment
    ],
    "syscall": [
        "\n".join(f"li $a0, {value}\n li $v0, 1\n syscall" for value in EDGES)
        + "\nli $a0, 65\n li $v0, 11\n syscall\n li $v0, 12\n syscall\n sw $v0, 0($s0)"
        + "\nli $v0, 12\n syscall\n sw $v0, 4($s0)\n li $v0, 5\n syscall\n sw $v0, 8($s0)",
        "li $a0, 3\n li $v0, 10\n syscall\n li $t2, 1",
        "li $v0, 77\n syscall",  # unknown service
    ],
    "break": [
        "li $a0, 42\n li $v0, 1\n break",
        "li $a0, 9\n li $v0, 10\n break\n li $t2, 1",
    ],
    "nop": ["li $t2, 5\n nop\n nop\n sw $t2, 0($s0)"],
}

#: A callee for the call cases: returns 2 * $a0.
_DOUBLE = """
        .ent double, 1
double: addu $v0, $a0, $a0
        jr $ra
        .end double
"""

_FAMILIES = {
    Kind.ALU: _alu_cases,
    Kind.MULDIV: _muldiv_cases,
    Kind.MFHILO: _mfhilo_cases,
    Kind.LOAD: _load_cases,
    Kind.STORE: _store_cases,
    Kind.BRANCH: _branch_cases,
}


def _cases() -> Dict[str, List[str]]:
    cases = {}
    for name, op in OPCODES.items():
        rng = random.Random(f"{_SEED}:{name}")
        family = _FAMILIES.get(op.kind)
        cases[name] = family(name, rng) if family else _CONTROL[name]
    return cases


CASES = _cases()

#: Input for the read services: one character, then one integer.
_INPUT = b"x-1234\n"


def _run(program, engine: str, recorder: Analyzer, watched: bool = False) -> dict:
    sim = Simulator(program, input_data=_INPUT, analyzers=[recorder], engine=engine)
    trap = None
    # A deadline no case reaches: the watchdog's timer is armed, never fired.
    watchdog = Watchdog(sim, 600.0) if watched else contextlib.nullcontext()
    try:
        with watchdog:
            result = sim.run(limit=200_000)
        stop = (result.stop_reason, result.exit_code)
    except SimError as exc:
        trap = str(exc)
        stop = None
    return {
        "trap": trap,
        "stop": stop,
        "pc": sim.pc,
        "regs": list(sim.regs),
        "hi_lo": (sim.hi, sim.lo),
        "memory": {page: bytes(data) for page, data in sim.memory._pages.items()},
        "output": sim.output,
        "events": recorder.events,
    }


CASE_IDS = [(name, index) for name in sorted(CASES) for index in range(len(CASES[name]))]


def test_cases_cover_every_opcode():
    assert set(CASES) == set(OPCODES)


@pytest.mark.parametrize(
    "name,index", CASE_IDS)
def test_paths_agree(name, index):
    program = assemble(_program(CASES[name][index]) + _DOUBLE)
    assert name in {instr.op.name for instr in program.text}
    interpreter = _run(program, "interpreter", StepRecorder())
    record = _run(program, "predecoded", StepRecorder())
    fast = _run(program, "predecoded", EventRecorder())
    compiled = _run(program, "predecoded", ValueRecorder())
    assert record == interpreter
    steps_removed = dict(interpreter, events=[e for e in interpreter["events"] if e[0] != "step"])
    assert fast == steps_removed
    values_only = dict(interpreter, events=[_values(e) for e in interpreter["events"]])
    assert compiled == values_only


#: The three engine loops: the interpreter, the predecoded record-free
#: loop (no step analyzer) and the predecoded observed loop.
LOOPS = {
    "interpreter": ("interpreter", StepRecorder),
    "fast": ("predecoded", EventRecorder),
    "observed": ("predecoded", ValueRecorder),
}


@pytest.mark.parametrize("name,index", CASE_IDS)
@pytest.mark.parametrize("loop", list(LOOPS))
def test_watched_runs_agree(loop, name, index, metrics_enabled, tracer, monkeypatch):
    """Telemetry, tracing and a watchdog leave the code and the result alone."""
    # An empty factory cache, so the plain run generates every closure it uses.
    monkeypatch.setattr(predecode, "_FACTORIES", {})
    program = assemble(_program(CASES[name][index]) + _DOUBLE)
    engine, recorder = LOOPS[loop]
    metrics_enabled.enabled = False
    obs_tracing.install_tracer(None)
    plain = _run(program, engine, recorder())
    factories = set(predecode._FACTORIES)
    metrics_enabled.enabled = True
    obs_tracing.install_tracer(tracer)
    watched = _run(program, engine, recorder(), watched=True)
    assert watched == plain
    assert set(predecode._FACTORIES) == factories
    assert tracer.span_count("simulate") == 1
