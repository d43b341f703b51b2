"""Two-pass assembler: source text -> :class:`~repro.asm.program.Program`.

Pass structure (data-first, so ``la`` can choose gp-relative forms):

1. parse all statements and partition them into data/text streams;
2. lay out the data segment, assigning every data symbol its address;
3. lay out the text segment — pseudo-instruction expansion lengths are
   computed here, so text labels get final addresses;
4. encode: expand pseudos, build :class:`Instruction` objects, resolve
   symbols and relocations, apply data-word fixups.

Function boundaries come from ``.ent <name>, <argc>`` / ``.end <name>``
directive pairs emitted by the MiniC compiler (or written by hand); they
feed the function-level and local analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.asm.errors import AsmError
from repro.asm.lexer import Token
from repro.asm.parser import (
    DirectiveStmt,
    ImmOp,
    InstrStmt,
    LabelStmt,
    MemOp,
    MemSymOp,
    Operand,
    RegOp,
    Statement,
    SymOp,
    parse_source,
)
from repro.asm.program import FunctionInfo, Program
from repro.asm.pseudo import (
    GPREL,
    HI16,
    LO16,
    PSEUDO_MNEMONICS,
    Proto,
    SymImm,
    expand,
    expansion_length,
)
from repro.isa.bits import fits_s16, fits_u16, to_u32
from repro.isa.convention import DATA_BASE, GP_VALUE, TEXT_BASE
from repro.isa.instructions import Format, Instruction, OPCODES
from repro.isa.registers import GP as GP_REG, RA


@dataclass
class _TextItem:
    stmt: InstrStmt
    address: int
    length: int


class Assembler:
    """Assembles one translation unit into a runnable program image."""

    def __init__(self, filename: str = "<asm>") -> None:
        self.filename = filename

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def assemble(self, source: str) -> Program:
        statements = parse_source(source, self.filename)
        data_stmts, text_stmts = self._partition(statements)

        data, data_init, data_symbols, fixups = self._layout_data(data_stmts)
        text_symbols, functions, items = self._layout_text(text_stmts, data_symbols)

        symbols: Dict[str, int] = dict(data_symbols)
        for name, address in text_symbols.items():
            if name in symbols:
                raise AsmError(f"duplicate symbol {name!r}", filename=self.filename)
            symbols[name] = address

        instructions = self._encode(items, symbols, data_symbols)
        self._apply_fixups(data, fixups, symbols)

        entry = symbols.get("__start", symbols.get("main"))
        if entry is None:
            raise AsmError("no entry point: define 'main' or '__start'", filename=self.filename)
        return Program(
            text=instructions,
            data=data,
            data_initialized=data_init,
            symbols=symbols,
            functions=functions,
            entry=entry,
        )

    # ------------------------------------------------------------------
    # Pass 1: partition into segments
    # ------------------------------------------------------------------

    def _partition(
        self, statements: Sequence[Statement]
    ) -> Tuple[List[Statement], List[Statement]]:
        data_stmts: List[Statement] = []
        text_stmts: List[Statement] = []
        current = text_stmts
        for stmt in statements:
            if isinstance(stmt, DirectiveStmt) and stmt.name == ".data":
                current = data_stmts
            elif isinstance(stmt, DirectiveStmt) and stmt.name == ".text":
                current = text_stmts
            else:
                current.append(stmt)
        return data_stmts, text_stmts

    # ------------------------------------------------------------------
    # Pass 2: data layout
    # ------------------------------------------------------------------

    def _directive_values(self, args: List[Token], lineno: int) -> List[Union[int, str]]:
        """Parse a comma-separated list of integers / symbols / strings."""
        values: List[Union[int, str]] = []
        i = 0
        while i < len(args):
            token = args[i]
            if token.kind == "num":
                values.append(int(token.value))  # type: ignore[arg-type]
            elif token.kind == "string":
                values.append(str(token.value))
            elif token.kind == "ident":
                values.append(token.text)
            elif token.kind == "punct" and token.text == "-" and i + 1 < len(args):
                i += 1
                values.append(-int(args[i].value))  # type: ignore[arg-type]
            elif token.kind == "punct" and token.text == ",":
                i += 1
                continue
            else:
                raise AsmError(f"bad directive argument {token.text!r}", lineno, self.filename)
            i += 1
        return values

    def _layout_data(
        self, statements: Sequence[Statement]
    ) -> Tuple[bytearray, bytearray, Dict[str, int], List[Tuple[int, str]]]:
        data = bytearray()
        initialized = bytearray()
        symbols: Dict[str, int] = {}
        fixups: List[Tuple[int, str]] = []
        # Labels bind after the *next* directive's alignment padding, so
        # ``tbl: .word ...`` right after an odd-length string still labels
        # the aligned word.
        pending_labels: List[str] = []

        def bind_labels() -> None:
            for name in pending_labels:
                symbols[name] = DATA_BASE + len(data)
            pending_labels.clear()

        def pad_to(alignment: int) -> None:
            while len(data) % alignment:
                data.append(0)
                initialized.append(0)
            bind_labels()

        def emit(value: int, width: int, init: bool = True) -> None:
            bind_labels()
            raw = to_u32(value).to_bytes(4, "little")[:width]
            data.extend(raw)
            initialized.extend((1 if init else 0,) * width)

        for stmt in statements:
            if isinstance(stmt, LabelStmt):
                if stmt.name in symbols or stmt.name in pending_labels:
                    raise AsmError(f"duplicate symbol {stmt.name!r}", stmt.lineno, self.filename)
                pending_labels.append(stmt.name)
                continue
            if isinstance(stmt, InstrStmt):
                raise AsmError("instruction in .data segment", stmt.lineno, self.filename)
            assert isinstance(stmt, DirectiveStmt)
            name = stmt.name
            values = self._directive_values(stmt.args, stmt.lineno)
            if name == ".word":
                pad_to(4)
                for value in values:
                    if isinstance(value, str):
                        fixups.append((len(data), value))
                        emit(0, 4)
                    else:
                        emit(value, 4)
            elif name == ".half":
                pad_to(2)
                for value in values:
                    emit(int(value), 2)
            elif name == ".byte":
                for value in values:
                    emit(int(value), 1)
            elif name == ".asciiz":
                for value in values:
                    if not isinstance(value, str):
                        raise AsmError(".asciiz needs a string", stmt.lineno, self.filename)
                    for char in value.encode("latin-1"):
                        emit(char, 1)
                    emit(0, 1)
            elif name == ".ascii":
                for value in values:
                    if not isinstance(value, str):
                        raise AsmError(".ascii needs a string", stmt.lineno, self.filename)
                    for char in value.encode("latin-1"):
                        emit(char, 1)
            elif name == ".space":
                count = int(values[0]) if values else 0
                for _ in range(count):
                    emit(0, 1, init=False)
            elif name == ".align":
                pad_to(1 << int(values[0]))
            elif name == ".globl":
                continue
            else:
                raise AsmError(f"unknown data directive {name!r}", stmt.lineno, self.filename)
        # Keep the data segment word-padded so whole-word loads at the end
        # of the segment stay in bounds; bind any trailing labels.
        pad_to(4)
        bind_labels()
        return data, initialized, symbols, fixups

    def _apply_fixups(
        self, data: bytearray, fixups: Sequence[Tuple[int, str]], symbols: Dict[str, int]
    ) -> None:
        for offset, name in fixups:
            if name not in symbols:
                raise AsmError(f"undefined symbol {name!r} in .word", filename=self.filename)
            data[offset : offset + 4] = to_u32(symbols[name]).to_bytes(4, "little")

    # ------------------------------------------------------------------
    # Pass 3: text layout
    # ------------------------------------------------------------------

    def _layout_text(
        self, statements: Sequence[Statement], data_symbols: Dict[str, int]
    ) -> Tuple[Dict[str, int], List[FunctionInfo], List[_TextItem]]:
        symbols: Dict[str, int] = {}
        functions: List[FunctionInfo] = []
        items: List[_TextItem] = []
        open_functions: Dict[str, Tuple[int, int]] = {}
        address = TEXT_BASE
        lookup = data_symbols.get

        for stmt in statements:
            if isinstance(stmt, LabelStmt):
                if stmt.name in symbols:
                    raise AsmError(f"duplicate symbol {stmt.name!r}", stmt.lineno, self.filename)
                symbols[stmt.name] = address
            elif isinstance(stmt, DirectiveStmt):
                if stmt.name == ".ent":
                    values = self._directive_values(stmt.args, stmt.lineno)
                    if not values or not isinstance(values[0], str):
                        raise AsmError(".ent needs a function name", stmt.lineno, self.filename)
                    argc = int(values[1]) if len(values) > 1 else 0
                    open_functions[values[0]] = (address, argc)
                elif stmt.name == ".end":
                    values = self._directive_values(stmt.args, stmt.lineno)
                    if not values or not isinstance(values[0], str):
                        raise AsmError(".end needs a function name", stmt.lineno, self.filename)
                    fname = values[0]
                    if fname not in open_functions:
                        raise AsmError(f".end without .ent for {fname!r}", stmt.lineno, self.filename)
                    entry, argc = open_functions.pop(fname)
                    functions.append(FunctionInfo(fname, entry, address, argc))
                elif stmt.name == ".globl":
                    continue
                else:
                    raise AsmError(
                        f"directive {stmt.name!r} not allowed in .text", stmt.lineno, self.filename
                    )
            else:
                assert isinstance(stmt, InstrStmt)
                length = self._statement_length(stmt, lookup)
                items.append(_TextItem(stmt, address, length))
                address += 4 * length
        if open_functions:
            missing = ", ".join(sorted(open_functions))
            raise AsmError(f"function(s) missing .end: {missing}", filename=self.filename)
        return symbols, functions, items

    def _statement_length(self, stmt: InstrStmt, lookup) -> int:
        mnemonic = stmt.mnemonic
        if mnemonic in PSEUDO_MNEMONICS or (mnemonic == "div" and len(stmt.operands) == 3):
            return expansion_length(mnemonic, stmt.operands, stmt.lineno, lookup)
        if mnemonic not in OPCODES:
            raise AsmError(f"unknown mnemonic {mnemonic!r}", stmt.lineno, self.filename)
        return 1

    # ------------------------------------------------------------------
    # Pass 4: encoding
    # ------------------------------------------------------------------

    def _encode(
        self,
        items: Sequence[_TextItem],
        symbols: Dict[str, int],
        data_symbols: Dict[str, int],
    ) -> List[Instruction]:
        instructions: List[Instruction] = []
        lookup = data_symbols.get
        for item in items:
            stmt = item.stmt
            mnemonic = stmt.mnemonic
            if mnemonic in PSEUDO_MNEMONICS or (mnemonic == "div" and len(stmt.operands) == 3):
                protos = expand(mnemonic, stmt.operands, stmt.lineno, lookup)
            else:
                protos = [self._proto_from_real(stmt)]
            if len(protos) != item.length:
                raise AsmError(
                    f"internal: expansion length mismatch for {mnemonic!r}",
                    stmt.lineno,
                    self.filename,
                )
            for offset, proto in enumerate(protos):
                instructions.append(
                    self._finalize(proto, item.address + 4 * offset, symbols, stmt.lineno)
                )
        return instructions

    def _operand_error(self, stmt: InstrStmt) -> AsmError:
        return AsmError(f"bad operands for {stmt.mnemonic!r}", stmt.lineno, self.filename)

    _FORMAT_ARITY = {
        Format.R3: (3,),
        Format.R3_SHIFTV: (3,),
        Format.SHIFT: (3,),
        Format.I2: (3,),
        Format.LUI: (2,),
        Format.MEM: (2,),
        Format.BR2: (3,),
        Format.BR1: (2,),
        Format.J: (1,),
        Format.JR: (1,),
        Format.JALR: (1, 2),
        Format.MULDIV: (2,),
        Format.MFHILO: (1,),
        Format.BARE: (0,),
    }

    def _proto_from_real(self, stmt: InstrStmt) -> Proto:
        info = OPCODES[stmt.mnemonic]
        ops = stmt.operands
        fmt = info.fmt
        if len(ops) not in self._FORMAT_ARITY[fmt]:
            raise self._operand_error(stmt)

        def reg(i: int) -> int:
            if i >= len(ops) or not isinstance(ops[i], RegOp):
                raise self._operand_error(stmt)
            return ops[i].index  # type: ignore[union-attr]

        def imm(i: int) -> int:
            if i >= len(ops) or not isinstance(ops[i], ImmOp):
                raise self._operand_error(stmt)
            return ops[i].value  # type: ignore[union-attr]

        def sym_or_imm(i: int) -> Union[SymOp, int]:
            operand = ops[i]
            if isinstance(operand, SymOp):
                return operand
            if isinstance(operand, ImmOp):
                return operand.value
            raise self._operand_error(stmt)

        if fmt == Format.R3:
            return Proto(info.name, rd=reg(0), rs=reg(1), rt=reg(2))
        if fmt == Format.R3_SHIFTV:
            return Proto(info.name, rd=reg(0), rt=reg(1), rs=reg(2))
        if fmt == Format.SHIFT:
            return Proto(info.name, rd=reg(0), rt=reg(1), shamt=imm(2))
        if fmt == Format.I2:
            return Proto(info.name, rt=reg(0), rs=reg(1), imm=imm(2))
        if fmt == Format.LUI:
            return Proto(info.name, rt=reg(0), imm=imm(1))
        if fmt == Format.MEM:
            mem = ops[1]
            if isinstance(mem, MemOp):
                return Proto(info.name, rt=reg(0), rs=mem.base, imm=mem.offset)
            if isinstance(mem, MemSymOp):
                # symbol(base) is only meaningful as a gp-relative access.
                if mem.base != GP_REG:
                    raise AsmError(
                        "symbol(base) memory operands require $gp base",
                        stmt.lineno,
                        self.filename,
                    )
                return Proto(info.name, rt=reg(0), rs=mem.base, imm=SymImm(GPREL, mem.sym))
            raise self._operand_error(stmt)
        if fmt == Format.BR2:
            return Proto(info.name, rs=reg(0), rt=reg(1), target=sym_or_imm(2))
        if fmt == Format.BR1:
            return Proto(info.name, rs=reg(0), target=sym_or_imm(1))
        if fmt == Format.J:
            return Proto(info.name, target=sym_or_imm(0))
        if fmt == Format.JR:
            return Proto(info.name, rs=reg(0))
        if fmt == Format.JALR:
            if len(ops) == 1:
                return Proto(info.name, rd=RA, rs=reg(0))
            return Proto(info.name, rd=reg(0), rs=reg(1))
        if fmt == Format.MULDIV:
            return Proto(info.name, rs=reg(0), rt=reg(1))
        if fmt == Format.MFHILO:
            return Proto(info.name, rd=reg(0))
        if fmt == Format.BARE:
            return Proto(info.name)
        raise AsmError(f"unhandled format {fmt!r}", stmt.lineno, self.filename)

    def _resolve_symbol(self, sym: SymOp, symbols: Dict[str, int], lineno: int) -> int:
        if sym.name not in symbols:
            raise AsmError(f"undefined symbol {sym.name!r}", lineno, self.filename)
        return symbols[sym.name] + sym.offset

    def _finalize(
        self, proto: Proto, address: int, symbols: Dict[str, int], lineno: int
    ) -> Instruction:
        info = OPCODES[proto.name]
        imm = proto.imm
        label: Optional[str] = None
        if isinstance(imm, SymImm):
            resolved = self._resolve_symbol(imm.sym, symbols, lineno)
            if imm.kind == GPREL:
                imm = resolved - GP_VALUE
            elif imm.kind == HI16:
                imm = (resolved >> 16) & 0xFFFF
            elif imm.kind == LO16:
                imm = resolved & 0xFFFF
            else:  # pragma: no cover - exhaustive
                raise AsmError(f"bad relocation {imm.kind!r}", lineno, self.filename)
        target = 0
        if proto.target is not None:
            if isinstance(proto.target, SymOp):
                label = proto.target.name
                target = self._resolve_symbol(proto.target, symbols, lineno)
            else:
                target = proto.target
        if isinstance(imm, int) and info.fmt in (Format.I2, Format.MEM, Format.LUI):
            if info.unsigned_imm:
                if not fits_u16(imm):
                    raise AsmError(
                        f"immediate {imm} out of unsigned 16-bit range", lineno, self.filename
                    )
            elif not fits_s16(imm):
                raise AsmError(
                    f"immediate {imm} out of signed 16-bit range", lineno, self.filename
                )
        if info.fmt == Format.SHIFT and not 0 <= proto.shamt <= 31:
            raise AsmError(
                f"shift amount {proto.shamt} out of range 0..31", lineno, self.filename
            )
        return Instruction(
            info,
            rd=proto.rd,
            rs=proto.rs,
            rt=proto.rt,
            imm=int(imm),
            shamt=proto.shamt,
            target=target,
            addr=address,
            label=label,
        )


def assemble(source: str, filename: str = "<asm>") -> Program:
    """Assemble ``source`` into a :class:`Program` (convenience wrapper)."""
    return Assembler(filename).assemble(source)
