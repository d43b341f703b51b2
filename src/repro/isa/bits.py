"""32-bit two's-complement arithmetic helpers.

All register and memory values in the simulator are stored as unsigned
32-bit integers (Python ints in ``[0, 2**32)``).  These helpers convert
between signed and unsigned views and implement the handful of operations
whose Python semantics differ from 32-bit hardware semantics (shifts,
signed division, multiplication high words).
"""

from __future__ import annotations

WORD_MASK = 0xFFFFFFFF
WORD_SIGN = 0x80000000
HALF_MASK = 0xFFFF
BYTE_MASK = 0xFF

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1


def to_u32(value: int) -> int:
    """Truncate an arbitrary Python int to an unsigned 32-bit value."""
    return value & WORD_MASK


def to_s32(value: int) -> int:
    """Interpret an unsigned 32-bit value as a signed 32-bit integer."""
    value &= WORD_MASK
    if value & WORD_SIGN:
        return value - (1 << 32)
    return value


def to_s16(value: int) -> int:
    """Interpret an unsigned 16-bit value as a signed 16-bit integer."""
    value &= HALF_MASK
    if value & 0x8000:
        return value - (1 << 16)
    return value


def to_s8(value: int) -> int:
    """Interpret an unsigned 8-bit value as a signed 8-bit integer."""
    value &= BYTE_MASK
    if value & 0x80:
        return value - (1 << 8)
    return value


def fits_s16(value: int) -> bool:
    """True if ``value`` fits in a signed 16-bit immediate field."""
    return -(2**15) <= value < 2**15


def fits_u16(value: int) -> bool:
    """True if ``value`` fits in an unsigned 16-bit immediate field."""
    return 0 <= value < 2**16


def sra32(value: int, shamt: int) -> int:
    """Arithmetic right shift by ``shamt`` (0..31)."""
    return to_u32(to_s32(value) >> (shamt & 31))


def mult32(a: int, b: int) -> "tuple[int, int]":
    """Signed 32x32 -> 64 multiply; returns ``(hi, lo)`` unsigned words."""
    product = to_s32(a) * to_s32(b)
    product &= (1 << 64) - 1
    return (product >> 32) & WORD_MASK, product & WORD_MASK


def multu32(a: int, b: int) -> "tuple[int, int]":
    """Unsigned 32x32 -> 64 multiply; returns ``(hi, lo)`` unsigned words."""
    product = (a & WORD_MASK) * (b & WORD_MASK)
    return (product >> 32) & WORD_MASK, product & WORD_MASK


def div32(a: int, b: int) -> "tuple[int, int]":
    """Signed division; returns ``(hi=remainder, lo=quotient)``.

    Quotient truncates toward zero (C semantics), unlike Python's floor
    division.  Division by zero leaves hi/lo at zero, mirroring the
    "undefined but non-trapping" MIPS behaviour in a deterministic way.
    """
    sa, sb = to_s32(a), to_s32(b)
    if sb == 0:
        return 0, 0
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    remainder = sa - quotient * sb
    return to_u32(remainder), to_u32(quotient)


def divu32(a: int, b: int) -> "tuple[int, int]":
    """Unsigned division; returns ``(hi=remainder, lo=quotient)``."""
    ua, ub = a & WORD_MASK, b & WORD_MASK
    if ub == 0:
        return 0, 0
    return ua % ub, ua // ub
