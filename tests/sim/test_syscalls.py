"""Tests for the syscall layer and input streams."""

from __future__ import annotations

import pytest

from repro.isa.convention import HEAP_BASE, Syscall
from repro.sim.errors import SimError
from repro.sim.memory import Memory
from repro.sim.syscalls import EOF_WORD, InputStream, SyscallHandler


class TestInputStream:
    def test_read_char_sequence(self):
        stream = InputStream(b"ab")
        assert stream.read_char() == ord("a")
        assert stream.read_char() == ord("b")
        assert stream.read_char() == EOF_WORD

    def test_read_int_skips_whitespace(self):
        stream = InputStream(b"  42\n 7")
        assert stream.read_int() == 42
        assert stream.read_int() == 7

    def test_read_int_negative(self):
        stream = InputStream(b"-13")
        assert stream.read_int() == (-13) & 0xFFFFFFFF

    def test_read_int_eof(self):
        assert InputStream(b"").read_int() == EOF_WORD
        assert InputStream(b"   ").read_int() == EOF_WORD

    def test_read_int_stops_at_nondigit(self):
        stream = InputStream(b"12abc")
        assert stream.read_int() == 12
        assert stream.read_char() == ord("a")

    def test_mixing_char_and_int_reads(self):
        stream = InputStream(b"x9")
        assert stream.read_char() == ord("x")
        assert stream.read_int() == 9


class TestSyscallHandler:
    def setup_method(self):
        self.memory = Memory()

    def test_print_int(self):
        handler = SyscallHandler()
        handler.handle(Syscall.PRINT_INT, (-5) & 0xFFFFFFFF, self.memory)
        assert handler.output_text() == "-5"

    def test_print_char(self):
        handler = SyscallHandler()
        handler.handle(Syscall.PRINT_CHAR, ord("Q"), self.memory)
        assert handler.output_text() == "Q"

    def test_print_string_reads_memory(self):
        handler = SyscallHandler()
        self.memory.load_bytes(0x1000, b"hey\0")
        handler.handle(Syscall.PRINT_STRING, 0x1000, self.memory)
        assert handler.output_text() == "hey"

    def test_read_services(self):
        handler = SyscallHandler(InputStream(b"9 x"))
        result, halt = handler.handle(Syscall.READ_INT, 0, self.memory)
        assert result == 9 and not halt
        handler.handle(Syscall.READ_CHAR, 0, self.memory)  # consumes ' '
        result, _ = handler.handle(Syscall.READ_CHAR, 0, self.memory)
        assert result == ord("x")

    def test_sbrk_bumps_break(self):
        handler = SyscallHandler()
        first, _ = handler.handle(Syscall.SBRK, 100, self.memory)
        second, _ = handler.handle(Syscall.SBRK, 8, self.memory)
        assert first == HEAP_BASE
        assert second >= first + 100
        assert second % 8 == 0

    def test_exit_halts(self):
        handler = SyscallHandler()
        result, halt = handler.handle(Syscall.EXIT, 3, self.memory)
        assert halt and handler.exited and handler.exit_code == 3

    def test_unknown_service_raises(self):
        with pytest.raises(SimError):
            SyscallHandler().handle(999, 0, self.memory)

    def test_service_classification(self):
        assert Syscall.READ_INT in SyscallHandler.INPUT_SERVICES
        assert Syscall.READ_CHAR in SyscallHandler.INPUT_SERVICES
        assert Syscall.PRINT_INT in SyscallHandler.OUTPUT_SERVICES
        assert Syscall.SBRK not in SyscallHandler.INPUT_SERVICES
