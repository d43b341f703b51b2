"""Executable program image produced by the assembler.

A :class:`Program` bundles the decoded text segment, the initialized data
segment, the symbol table, and per-function metadata.  Function metadata
(entry address, static size, argument count) is the assembler-level
equivalent of the symbol-table information the paper's simulator used to
drive its function-level and local analyses.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.isa.convention import DATA_BASE, TEXT_BASE
from repro.isa.instructions import Instruction


@dataclass(frozen=True)
class FunctionInfo:
    """Static metadata about one function in the program."""

    name: str
    entry: int
    #: Address one past the function's last instruction.
    end: int
    #: Number of register arguments (0..4) declared via ``.ent``.
    num_args: int

    @property
    def size(self) -> int:
        """Static size in instructions."""
        return (self.end - self.entry) // 4

    def contains(self, address: int) -> bool:
        return self.entry <= address < self.end


@dataclass
class Program:
    """A loaded program image."""

    text: List[Instruction]
    data: bytearray
    #: Parallel to ``data``; nonzero bytes were explicitly initialized
    #: (``.word``/``.byte``/``.asciiz``...), zero bytes are bss-like.
    data_initialized: bytearray
    symbols: Dict[str, int]
    functions: List[FunctionInfo] = field(default_factory=list)
    entry: int = 0
    text_base: int = TEXT_BASE
    data_base: int = DATA_BASE

    def __post_init__(self) -> None:
        self.functions = sorted(self.functions, key=lambda f: f.entry)
        self._entries = [f.entry for f in self.functions]
        self._by_entry = {f.entry: f for f in self.functions}
        self._by_name = {f.name: f for f in self.functions}

    @property
    def text_end(self) -> int:
        return self.text_base + 4 * len(self.text)

    def instruction_at(self, address: int) -> Instruction:
        """Fetch the decoded instruction at ``address``."""
        index = (address - self.text_base) >> 2
        if index < 0:
            # A negative index would wrap to the end of the segment.
            raise IndexError(f"address {address:#010x} is below the text segment")
        return self.text[index]

    def function_at(self, address: int) -> Optional[FunctionInfo]:
        """The function whose body contains ``address``, if any."""
        index = bisect.bisect_right(self._entries, address) - 1
        if index < 0:
            return None
        candidate = self.functions[index]
        return candidate if candidate.contains(address) else None

    def function_by_entry(self, address: int) -> Optional[FunctionInfo]:
        return self._by_entry.get(address)

    def function_by_name(self, name: str) -> Optional[FunctionInfo]:
        return self._by_name.get(name)

    @property
    def static_instruction_count(self) -> int:
        return len(self.text)

    def disassemble(self) -> str:
        """Disassembly of the whole text segment, for debugging."""
        labels = {addr: name for name, addr in self.symbols.items()}
        lines = []
        for instr in self.text:
            if instr.addr in labels:
                lines.append(f"{labels[instr.addr]}:")
            lines.append(f"  {instr.addr:#010x}  {instr.disassemble()}")
        return "\n".join(lines)
