"""Unit and property tests for the paged memory model."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.errors import SimError
from repro.sim.memory import PAGE_SIZE, Memory

addresses = st.integers(min_value=0, max_value=2**32 - 4).map(lambda a: a & ~3)
words = st.integers(min_value=0, max_value=2**32 - 1)


class TestWordAccess:
    def test_roundtrip(self):
        memory = Memory()
        memory.write_word(0x1000, 0xDEADBEEF)
        assert memory.read_word(0x1000) == 0xDEADBEEF

    def test_unwritten_reads_zero(self):
        assert Memory().read_word(0x12345678 & ~3) == 0

    def test_unaligned_word_rejected(self):
        memory = Memory()
        with pytest.raises(SimError):
            memory.read_word(0x1001)
        with pytest.raises(SimError):
            memory.write_word(0x1002, 1)

    def test_little_endian(self):
        memory = Memory()
        memory.write_word(0, 0x04030201)
        assert [memory.read_byte(i) for i in range(4)] == [1, 2, 3, 4]

    @given(addresses, words)
    def test_word_roundtrip_property(self, address, value):
        memory = Memory()
        memory.write_word(address, value)
        assert memory.read_word(address) == value

    def test_cross_page_neighbours_independent(self):
        memory = Memory()
        memory.write_word(PAGE_SIZE - 4, 0x11111111)
        memory.write_word(PAGE_SIZE, 0x22222222)
        assert memory.read_word(PAGE_SIZE - 4) == 0x11111111
        assert memory.read_word(PAGE_SIZE) == 0x22222222


class TestSubWordAccess:
    def test_half_roundtrip(self):
        memory = Memory()
        memory.write_half(0x2000, 0xBEEF)
        assert memory.read_half(0x2000) == 0xBEEF

    def test_half_alignment(self):
        with pytest.raises(SimError):
            Memory().read_half(0x2001)

    def test_byte_masking(self):
        memory = Memory()
        memory.write_byte(5, 0x1FF)
        assert memory.read_byte(5) == 0xFF

    def test_byte_within_word(self):
        memory = Memory()
        memory.write_word(0, 0xAABBCCDD)
        memory.write_byte(1, 0x00)
        assert memory.read_word(0) == 0xAABB00DD


class TestBulk:
    def test_load_and_read_bytes(self):
        memory = Memory()
        memory.load_bytes(0x3000, b"hello world")
        assert memory.read_bytes(0x3000, 11) == b"hello world"

    def test_load_across_page_boundary(self):
        memory = Memory()
        start = PAGE_SIZE - 3
        memory.load_bytes(start, b"abcdef")
        assert memory.read_bytes(start, 6) == b"abcdef"

    def test_cstring(self):
        memory = Memory()
        memory.load_bytes(0x4000, b"text\0junk")
        assert memory.read_cstring(0x4000) == b"text"

    def test_zero_memory_is_empty_string(self):
        assert Memory().read_cstring(0x5000, limit=8) == b""

    def test_unterminated_cstring_raises(self):
        memory = Memory()
        memory.load_bytes(0x6000, b"x" * 16)
        with pytest.raises(SimError):
            memory.read_cstring(0x6000, limit=8)
