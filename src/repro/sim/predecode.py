"""Predecoded execution engine: static instructions -> step closures.

The reference interpreter in :mod:`repro.sim.simulator` re-derives
everything about an instruction on every dynamic instance: it chains
string comparisons on the opcode name, re-reads format/kind/width
attributes, and re-normalizes immediates.  For the paper-scale windows
(hundreds of thousands of retired instructions) that per-step decode
dominates simulation time.

This module binds each *static* instruction once to a closure with every
compile-time-constant decision already taken: operand register indices,
immediates, branch targets and the fall-through pc are closure
constants, writes to ``$zero`` are dropped, and loads and stores inline
the sparse-page access of :class:`~repro.sim.memory.Memory`.

The closures are generated, not hand-written.  Each opcode's semantics
is one expression in the :data:`~repro.isa.instructions.OPCODES` table;
this module holds one source template per opcode family (ALU, load,
store, branch, ...) that places the expression between the family's
operand reads, memory access, alignment trap and control tuple.  A
template is turned into Python source, ``exec``'d once per process for
each (opcode, flavor, hook count) on first use, and the
resulting factory is then called once per static instruction.

Two closure flavors exist because the simulator has two execution modes.
They share a template and return the same thing; besides that, a fast
ALU or ``mfhi``/``mflo`` closure whose destination is ``$zero`` is bound
to one that only returns the next pc:

* **fast** closures (``(n=0) -> next_pc``) mutate machine state and
  return the next pc; used during warm-up and whenever no analyzer takes
  steps.  They ignore the step number ``n``, which lets the run loop call
  every entry the same way.
  Control-transfer instructions that must emit events return a tuple
  ``(next_pc, CTRL_*, ...)`` instead of a bare int — the run loop
  distinguishes the two with a single ``type(r) is int`` check.
* **observed** closures (``(n) -> next_pc``, or the same control tuple)
  are bound with a tuple of per-step hooks, the analyzers' compiled
  steps for that instruction.  After the family body they build the
  step's ``inputs`` and ``outputs`` once and call each hook as
  ``hook(n, inputs, outputs, value, address)``, unrolled, with the
  semantics of the reference interpreter's step records (the
  differential tests lock this down).  No
  :class:`~repro.sim.events.StepRecord` is built here: ``n``, ``value``
  (the destination value) and ``address`` (the memory address) are the
  record's ``index``, ``dest_value`` and ``mem_addr``, and everything
  else in a record is static (:func:`repro.sim.observer.record_step`).

Control tuples carried by both flavors:

* ``(next_pc, CTRL_CALL, target, return_addr)`` for ``jal``/``jalr``;
* ``(next_pc, CTRL_RETURN, target)`` for ``jr $ra``;
* ``(next_pc, CTRL_SYSCALL, service, arg, result, halt)`` for
  ``syscall``/``break``.

The closures are the same whether or not telemetry, profiling or a
watchdog is on: nothing outside the step's own work is generated into
them.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.isa import bits
from repro.isa.instructions import (
    BIND_CONSTANTS,
    BOUNDARY_END,
    BOUNDARY_EXCLUDE,
    Format,
    Instruction,
    Kind,
    OpcodeInfo,
    boundary_kind,
)
from repro.isa.registers import A0, V0
from repro.sim.errors import SimError
from repro.sim.memory import PAGE_MASK, PAGE_SHIFT

#: Control markers carried in the tuples returned by control closures.
#: Compared with ``is`` against these exact objects.
CTRL_CALL = "call"
CTRL_RETURN = "return"
CTRL_SYSCALL = "syscall"

FAST = "fast"
OBSERVED = "observed"

#: Factory per (opcode name, flavor, hook count); ``jr $ra`` is keyed
#: ``"return"`` because it binds to a different template than ``jr``.
_FACTORIES: Dict[Tuple[str, str, int], Callable] = {}


def bind_fast(sim) -> List[Callable[..., object]]:
    """Bind the fast closures to one simulator's state."""
    return [_factory(instr, FAST, 0)(sim, instr) for instr in sim.program.text]


def bind_observed(sim, instr: Instruction, hooks: Sequence[Callable]) -> Callable[[int], object]:
    """Bind one observed closure: ``instr``'s step, then each of ``hooks``."""
    return _factory(instr, OBSERVED, len(hooks))(sim, instr, hooks)


def bind_full(sim) -> List[Callable[[int], object]]:
    """Bind an observed closure without hooks for every static instruction.

    The simulator binds observed closures one at a time, with their
    hooks, as instructions first retire (:func:`bind_observed`); this
    binds the whole text at once, for timing the binding itself.
    """
    return [bind_observed(sim, instr, ()) for instr in sim.program.text]


#: Longest chain, in instructions.  Longer straight-line runs take more
#: than one dispatch; the cap bounds the number of chain makers and how
#: many instructions a pause request from another thread may wait for.
CHAIN_CAP = 16

#: Chain maker per length; length 1 needs none (the closure itself).
_CHAIN_MAKERS: Dict[int, Callable] = {}

#: Line of a generated chain's first closure call (see :func:`_chain_maker`).
_CHAIN_FIRST_LINE = 3


def chain(
    code: Sequence[Callable[..., object]], text: Sequence[Instruction], start: int
) -> Tuple[Callable[[int], object], int]:
    """One dispatch's worth of fast closures, from text index ``start``.

    ``chain(n)`` runs a straight-line run in order, ignoring the step
    number ``n`` as fast closures do, and returns its last closure's
    result.  It is cut where Table 10T cuts its traces
    (:func:`~repro.isa.instructions.boundary_kind`): it ends with the
    first branch, ``j`` or non-return ``jr``, and stops before any
    call, return, syscall or ``break``.  So every closure in it but the
    last returns the next pc, and only a chain of one instruction can
    return a control tuple.  Returns ``(chain, length)``.
    """
    end = start
    stop = min(len(text), start + CHAIN_CAP)
    while end < stop:
        boundary = boundary_kind(text[end])
        if boundary == BOUNDARY_EXCLUDE:
            break
        end += 1
        if boundary == BOUNDARY_END:
            break
    length = end - start
    if length <= 1:
        return code[start], 1
    return _chain_maker(length)(*code[start:end]), length


def chain_retired(tb, chain: Callable[[int], object]) -> int:
    """How many closures of ``chain`` retired before an exception.

    ``tb`` is the traceback entry of the frame that called ``chain``.
    When the exception came out of the chain itself, the chain frame's
    line number says which closure raised, so a trap inside a chain
    costs nothing until it happens.  Otherwise nothing in it retired.
    """
    inner = tb.tb_next
    if inner is None or inner.tb_frame.f_code is not chain.__code__:
        return 0
    return inner.tb_lineno - _CHAIN_FIRST_LINE


def _chain_maker(length: int) -> Callable:
    """``make(c0, ..., c{length-1}) -> chain(n)``, generated once per length."""
    maker = _CHAIN_MAKERS.get(length)
    if maker is None:
        names = [f"c{i}" for i in range(length)]
        source = "\n".join(
            [f"def make({', '.join(names)}):", "    def chain(n):"]
            + [f"        {name}()" for name in names[:-1]]
            + [f"        return {names[-1]}()", "    return chain"]
        )
        namespace: Dict[str, object] = {}
        exec(compile(source, f"<chain {length}>", "exec"), namespace)
        maker = _CHAIN_MAKERS[length] = namespace["make"]
    return maker


def _factory(instr: Instruction, flavor: str, hooks: int) -> Callable:
    variant = "return" if instr.is_return else instr.op.name
    key = (variant, flavor, hooks)
    factory = _FACTORIES.get(key)
    if factory is None:
        factory = _FACTORIES[key] = _generate(instr.op, *key)
    return factory


# ---------------------------------------------------------------------------
# Family templates
# ---------------------------------------------------------------------------


class _Template(NamedTuple):
    #: Statements both flavors run, with the operands named ``a``, ``b``.
    body: str
    #: What both flavors return: the next pc or a control tuple.
    fast: str
    #: The observed flavor's hook arguments after ``n``: the step's
    #: ``inputs``, ``outputs``, destination value and memory address.
    observed: Tuple[str, str, str, str]
    #: Value written to the destination register, if the family writes one.
    write: str = ""
    #: The write is the only effect, so a ``$zero`` destination binds the
    #: fast flavor to a closure that only returns the next pc.
    pure: bool = False


def _alu(op: OpcodeInfo, inputs: str) -> _Template:
    return _Template(
        f"result = {op.semantics}",
        "next_pc",
        (inputs, "(result,)", "result", "None"),
        write="result",
        pure=True,
    )


def _mfhilo(op: OpcodeInfo, inputs: str) -> _Template:
    return _Template(
        f"value = sim.{op.semantics}",
        "next_pc",
        ("(value,)", "(value,)", "value", "None"),
        write="value",
        pure=True,
    )


def _muldiv(op: OpcodeInfo, inputs: str) -> _Template:
    return _Template(
        f"sim.hi, sim.lo = {op.semantics}",
        "next_pc",
        (inputs, "(sim.hi, sim.lo)", "0", "None"),
    )


def _branch(op: OpcodeInfo, inputs: str) -> _Template:
    return _Template(
        f"taken = {op.semantics}",
        "target if taken else next_pc",
        (inputs, "(1,) if taken else (0,)", "0", "None"),
    )


def _page_access(op: OpcodeInfo, base: str, direction: str) -> str:
    """Compute ``address`` from operand ``base``, trap if unaligned, find its page."""
    width = op.mem_width
    lines = [f"address = ({base} + imm) & 0xFFFFFFFF"]
    if width > 1:
        noun = "word" if width == 4 else "halfword"
        lines += [
            f"if address & {width - 1}:",
            f'    raise SimError(f"unaligned {noun} {direction} at {{address:#010x}}")',
        ]
    lines += [
        f"page = pages.get(address >> {PAGE_SHIFT})",
        "if page is None:",
        "    page = page_for(address)",
    ]
    if width > 1:
        lines.append(f"offset = address & {PAGE_MASK:#x}")
    return "\n".join(lines)


def _load(op: OpcodeInfo, inputs: str) -> _Template:
    width = op.mem_width
    body = _page_access(op, "a", "read")
    if width > 1:
        body += f'\nvalue = int.from_bytes(page[offset : offset + {width}], "little")'
    else:
        body += f"\nvalue = page[address & {PAGE_MASK:#x}]"
    if op.signed_load and width < 4:
        sign = 1 << (8 * width - 1)
        body += f"\nif value >= {sign:#x}:\n    value += 0x{0x100000000 - 2 * sign:X}"
    return _Template(
        body,
        "next_pc",
        ("(a,)", "(value,)", "value", "address"),
        write="value",
    )


def _store(op: OpcodeInfo, inputs: str) -> _Template:
    width = op.mem_width
    body = _page_access(op, "b", "write")
    if width > 1:
        mask = (1 << (8 * width)) - 1
        body += (
            f"\npage[offset : offset + {width}] = "
            f'(a & 0x{mask:X}).to_bytes({width}, "little")'
        )
    else:
        body += f"\npage[address & {PAGE_MASK:#x}] = a & 0xFF"
    return _Template(
        body,
        "next_pc",
        ("(a, b)", "()", "0", "address"),
    )


def _jump(op: OpcodeInfo, inputs: str) -> _Template:
    return _Template(
        "",
        "target",
        ("()", "()", "0", "None"),
    )


def _call(op: OpcodeInfo, inputs: str) -> _Template:
    if op.fmt == Format.J:  # jal
        return _Template(  # links into $ra, never $zero: no guard
            "regs[dest] = return_addr",
            "(target, CTRL_CALL, target, return_addr)",
            ("()", "()", "return_addr", "None"),
        )
    return _Template(  # jalr
        "callee = a",
        "(callee, CTRL_CALL, callee, return_addr)",
        ("(callee,)", "()", "return_addr", "None"),
        write="return_addr",
    )


def _jump_reg(op: OpcodeInfo, inputs: str) -> _Template:
    return _Template(
        "",
        "a",
        ("(a,)", "()", "0", "None"),
    )


def _return(op: OpcodeInfo, inputs: str) -> _Template:
    return _Template(
        "callee = a",
        "(callee, CTRL_RETURN, callee)",
        ("(callee,)", "()", "0", "None"),
    )


def _syscall(op: OpcodeInfo, inputs: str) -> _Template:
    return _Template(
        f"service = regs[{V0}]\n"
        f"arg = regs[{A0}]\n"
        "result, halt = handle(service, arg, memory)\n"
        "if result is not None:\n"
        f"    regs[{V0}] = result",
        "(next_pc, CTRL_SYSCALL, service, arg, result, halt)",
        (
            "(service, arg)",
            "() if result is None else (result,)",
            "0 if result is None else result",
            "None",
        ),
    )


def _nop(op: OpcodeInfo, inputs: str) -> _Template:
    return _Template(
        "",
        "next_pc",
        ("()", "()", "0", "None"),
    )


_FAMILIES = {
    Kind.ALU: _alu,
    Kind.LOAD: _load,
    Kind.STORE: _store,
    Kind.BRANCH: _branch,
    Kind.JUMP: _jump,
    Kind.CALL: _call,
    Kind.JUMP_REG: _jump_reg,
    Kind.MULDIV: _muldiv,
    Kind.MFHILO: _mfhilo,
    Kind.SYSCALL: _syscall,
    Kind.NOP: _nop,
}


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

#: Names a step body may use that are fixed per static instruction, in
#: dependency order, with how the factory computes them.
_BIND_NAMES = {
    "regs": "sim.regs",
    "memory": "sim.memory",
    "pages": "sim.memory._pages",
    "page_for": "sim.memory._page",
    "handle": "sim.syscalls.handle",
    "addr": "instr.addr",
    "next_pc": "instr.addr + 4",
    "return_addr": "instr.addr + 4",
    "target": "instr.target",
    "shamt": "instr.shamt",
    "imm": "instr.imm",
    **BIND_CONSTANTS,
}

_OPERANDS = ("a", "b")

_FIELDS = {1: "rd", 2: "rs", 3: "rt"}


def _register_fields(op: OpcodeInfo) -> Tuple[List[str], Optional[str]]:
    """Instruction fields (or a fixed register) behind the operands and dest.

    Read off :meth:`Instruction.source_registers` and
    :meth:`Instruction.dest_register` of a probe instruction, so the
    operand order of step records is the one those methods define.
    """
    probe = Instruction(op, rd=1, rs=2, rt=3)
    sources = [_FIELDS[reg] for reg in probe.source_registers()]
    dest = probe.dest_register()
    if dest is None:
        return sources, None
    return sources, f"instr.{_FIELDS[dest]}" if dest in _FIELDS else str(dest)


_NAMESPACE = {
    "SimError": SimError,
    "CTRL_CALL": CTRL_CALL,
    "CTRL_RETURN": CTRL_RETURN,
    "CTRL_SYSCALL": CTRL_SYSCALL,
    "mult32": bits.mult32,
    "multu32": bits.multu32,
    "div32": bits.div32,
    "divu32": bits.divu32,
}


def _uses(name: str, text: str) -> int:
    return len(re.findall(rf"\b{name}\b", text))


def _inline(lines: List[str]) -> List[str]:
    """Fold ``x = expr`` into the next line when that is x's only use."""
    out = list(lines)
    i = 0
    while i + 1 < len(out):
        match = re.fullmatch(r"(\w+) = (.+)", out[i])
        rest = "\n".join(out[i + 1 :])
        if match and _uses(match[1], rest) == 1 and _uses(match[1], out[i + 1]) == 1:
            expr = f"({match[2]})"
            out[i + 1] = re.sub(rf"\b{match[1]}\b", lambda _: expr, out[i + 1])
            del out[i]
        else:
            i += 1
    return out


def _source(op: OpcodeInfo, variant: str, flavor: str, hooks: int = 0) -> str:
    """Python source of the factory that binds one static instruction.

    The fast factory is ``bind(sim, instr) -> step(n=0)``; the observed one
    is ``bind(sim, instr, hooks) -> step(n)`` and calls its ``hooks``
    hooks, named ``h0``, ``h1``, ..., in order.
    """
    sources, dest = _register_fields(op)
    operands = _OPERANDS[: len(sources)]
    inputs = f"({', '.join(operands)}{',' if len(operands) == 1 else ''})"
    family = _return if variant == "return" else _FAMILIES[op.kind]
    template = family(op, inputs)
    shortcut = flavor == FAST and template.pure

    lines = template.body.splitlines()
    if template.write and shortcut:
        lines.append(f"regs[dest] = {template.write}")
    elif template.write:
        lines += ["if dest:", f"    regs[dest] = {template.write}"]
    lines += _hook_calls(template.observed, hooks)
    lines.append(f"return {template.fast}")
    # An operand read once is read in place; otherwise into a local first.
    text = "\n".join(lines)
    reads = []
    for operand, field in zip(operands, sources):
        if _uses(operand, text) == 1:
            text = re.sub(rf"\b{operand}\b", f"regs[{field}]", text)
        else:
            reads.append(f"{operand} = regs[{field}]")
    step = _inline(reads + text.splitlines())

    prologue = []
    if shortcut:
        prologue = ["if not dest:", "    return lambda n=0: next_pc"]
    used = "\n".join(prologue + step)
    bind_names = dict(_BIND_NAMES, **{field: f"instr.{field}" for field in sources})
    if dest is not None:
        bind_names["dest"] = dest
    needed = {name for name in bind_names if _uses(name, used)}
    for name in BIND_CONSTANTS:
        if name in needed:
            needed.add("imm")
    setup = [f"{name} = {expr}" for name, expr in bind_names.items() if name in needed]
    setup += [f"h{i} = hooks[{i}]" for i in range(hooks)]
    if flavor == FAST:
        header, signature = "def bind(sim, instr):", "step(n=0)"
    else:
        header, signature = "def bind(sim, instr, hooks):", "step(n)"
    return "\n".join(
        [header]
        + [f"    {line}" for line in setup + prologue]
        + [f"    def {signature}:"]
        + [f"        {line}" for line in step]
        + ["    return step"]
    )


def _hook_calls(observed: Tuple[str, ...], hooks: int) -> List[str]:
    """Call ``h0`` ... with the step's values, each built once."""
    if hooks == 0:
        return []
    lines = []
    args = ["n"]
    for name, expr in zip(("inputs", "outputs", "dest_value", "mem_addr"), observed):
        if hooks == 1 or re.fullmatch(r"\w+|\(\)", expr):
            args.append(expr)
        else:
            lines.append(f"{name} = {expr}")
            args.append(name)
    call = ", ".join(args)
    return lines + [f"h{i}({call})" for i in range(hooks)]


def _generate(op: OpcodeInfo, variant: str, flavor: str, hooks: int = 0) -> Callable:
    source = _source(op, variant, flavor, hooks)
    filename = f"<{variant} {flavor} {hooks} hooks>" if hooks else f"<{variant} {flavor}>"
    namespace = dict(_NAMESPACE)
    exec(compile(source, filename, "exec"), namespace)
    return namespace["bind"]
