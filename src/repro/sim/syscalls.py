"""Syscall layer: program I/O and the heap break.

The syscall boundary is where *external input* enters the machine — the
paper's global analysis tags every value produced by ``READ_INT`` /
``READ_CHAR`` as externally derived.  Input is modelled as a byte stream
(:class:`InputStream`) so workloads consume input the way the SPEC
programs do (character scanning, ``scanf``-style integer parsing).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isa.bits import to_s32, to_u32
from repro.isa.convention import HEAP_BASE, Syscall
from repro.sim.errors import SimError

#: getchar()-style EOF marker returned by READ_CHAR / READ_INT at end of
#: input (-1 as an unsigned word).
EOF_WORD = 0xFFFFFFFF


class InputStream:
    """A byte stream consumed by read syscalls."""

    def __init__(self, data: bytes = b"") -> None:
        self._data = data
        self._pos = 0

    def read_char(self) -> int:
        """Next byte, or -1 (as u32) at end of stream."""
        if self._pos >= len(self._data):
            return EOF_WORD
        byte = self._data[self._pos]
        self._pos += 1
        return byte

    def read_int(self) -> int:
        """Parse a whitespace-delimited decimal integer, scanf-style."""
        data, pos = self._data, self._pos
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        start = pos
        if pos < len(data) and data[pos] in b"+-":
            pos += 1
        digits = pos
        while pos < len(data) and data[pos : pos + 1].isdigit():
            pos += 1
        self._pos = pos
        if pos == digits:  # no digits found
            return EOF_WORD
        return to_u32(int(data[start:pos]))


class SyscallHandler:
    """Implements the syscall services against an input/output pair."""

    #: Services whose result is externally derived input.
    INPUT_SERVICES = frozenset({Syscall.READ_INT, Syscall.READ_CHAR})
    #: Services that perform output (a side effect for memoization).
    OUTPUT_SERVICES = frozenset(
        {Syscall.PRINT_INT, Syscall.PRINT_STRING, Syscall.PRINT_CHAR}
    )

    def __init__(self, input_stream: Optional[InputStream] = None) -> None:
        self.input = input_stream if input_stream is not None else InputStream()
        self.output: List[str] = []
        self.brk = HEAP_BASE
        self.exited = False
        self.exit_code = 0
        #: Total services handled (telemetry reads this at end of run).
        self.invocations = 0

    def output_text(self) -> str:
        """Everything the program printed, concatenated."""
        return "".join(self.output)

    def handle(self, service: int, arg: int, memory) -> Tuple[Optional[int], bool]:
        """Execute one syscall.

        Returns ``(result, halt)`` where ``result`` goes to ``$v0`` (or is
        ``None`` for services with no result).
        """
        self.invocations += 1
        if service == Syscall.PRINT_INT:
            self.output.append(str(to_s32(arg)))
            return None, False
        if service == Syscall.PRINT_CHAR:
            self.output.append(chr(arg & 0xFF))
            return None, False
        if service == Syscall.PRINT_STRING:
            self.output.append(memory.read_cstring(arg).decode("latin-1"))
            return None, False
        if service == Syscall.READ_INT:
            return self.input.read_int(), False
        if service == Syscall.READ_CHAR:
            return self.input.read_char(), False
        if service == Syscall.SBRK:
            old = self.brk
            self.brk = (self.brk + to_s32(arg) + 7) & ~7
            return old, False
        if service == Syscall.EXIT:
            self.exited = True
            self.exit_code = to_s32(arg)
            return None, True
        raise SimError(f"unknown syscall service {service}")
