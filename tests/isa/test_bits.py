"""Unit and property tests for 32-bit arithmetic helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import bits

u32 = st.integers(min_value=0, max_value=2**32 - 1)
s32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
shamt = st.integers(min_value=0, max_value=31)


class TestConversions:
    def test_to_u32_wraps(self):
        assert bits.to_u32(-1) == 0xFFFFFFFF
        assert bits.to_u32(2**32) == 0
        assert bits.to_u32(2**32 + 5) == 5

    def test_to_s32_sign(self):
        assert bits.to_s32(0x7FFFFFFF) == 2**31 - 1
        assert bits.to_s32(0x80000000) == -(2**31)
        assert bits.to_s32(0xFFFFFFFF) == -1

    def test_to_s16(self):
        assert bits.to_s16(0x7FFF) == 32767
        assert bits.to_s16(0x8000) == -32768
        assert bits.to_s16(0xFFFF) == -1

    def test_to_s8(self):
        assert bits.to_s8(0x7F) == 127
        assert bits.to_s8(0x80) == -128
        assert bits.to_s8(0xFF) == -1

    @given(s32)
    def test_roundtrip_signed(self, value):
        assert bits.to_s32(bits.to_u32(value)) == value

    @given(u32)
    def test_roundtrip_unsigned(self, value):
        assert bits.to_u32(bits.to_s32(value)) == value


class TestImmediateRanges:
    def test_fits_s16_bounds(self):
        assert bits.fits_s16(-(2**15))
        assert bits.fits_s16(2**15 - 1)
        assert not bits.fits_s16(2**15)
        assert not bits.fits_s16(-(2**15) - 1)

    def test_fits_u16_bounds(self):
        assert bits.fits_u16(0)
        assert bits.fits_u16(2**16 - 1)
        assert not bits.fits_u16(2**16)
        assert not bits.fits_u16(-1)


class TestArithmetic:
    def test_sra_sign_extends(self):
        assert bits.sra32(0x80000000, 31) == 0xFFFFFFFF
        assert bits.sra32(0x40000000, 30) == 1

    @given(u32, shamt)
    def test_sra_matches_python(self, value, amount):
        assert bits.sra32(value, amount) == bits.to_u32(bits.to_s32(value) >> amount)


class TestMulDiv:
    def test_mult_signed(self):
        hi, lo = bits.mult32(bits.to_u32(-2), 3)
        assert bits.to_s32(lo) == -6
        assert hi == 0xFFFFFFFF  # sign extension of the 64-bit product

    def test_multu_large(self):
        hi, lo = bits.multu32(0xFFFFFFFF, 0xFFFFFFFF)
        assert (hi << 32 | lo) == 0xFFFFFFFF * 0xFFFFFFFF

    @given(s32, s32)
    def test_mult_matches_python(self, a, b):
        hi, lo = bits.mult32(bits.to_u32(a), bits.to_u32(b))
        assert ((hi << 32) | lo) == (a * b) & (2**64 - 1)

    def test_div_truncates_toward_zero(self):
        hi, lo = bits.div32(bits.to_u32(-17), 4)
        assert bits.to_s32(lo) == -4  # C semantics, not Python's floor
        assert bits.to_s32(hi) == -1

    def test_div_by_zero_is_deterministic(self):
        assert bits.div32(5, 0) == (0, 0)
        assert bits.divu32(5, 0) == (0, 0)

    @given(s32, s32.filter(lambda v: v != 0))
    def test_div_invariant(self, a, b):
        hi, lo = bits.div32(bits.to_u32(a), bits.to_u32(b))
        quotient, remainder = bits.to_s32(lo), bits.to_s32(hi)
        assert quotient * b + remainder == a
        assert abs(remainder) < abs(b)

    @given(u32, u32.filter(lambda v: v != 0))
    def test_divu_invariant(self, a, b):
        hi, lo = bits.divu32(a, b)
        assert lo * b + hi == a
        assert hi < b
