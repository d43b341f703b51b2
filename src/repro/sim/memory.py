"""Sparse paged memory for the simulated machine.

Memory is a dictionary of 4 KiB pages allocated on first touch.  Word and
halfword accesses must be naturally aligned (the MiniC compiler only emits
aligned accesses); unaligned accesses raise :class:`SimError` because they
would indicate a codegen or workload bug rather than intended behaviour.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.errors import SimError

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


class Memory:
    """Byte-addressable sparse memory with little-endian word access."""

    __slots__ = ("_pages",)

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}

    def _page(self, address: int) -> bytearray:
        index = address >> PAGE_SHIFT
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        return page

    # -- words ---------------------------------------------------------

    def read_word(self, address: int) -> int:
        if address & 3:
            raise SimError(f"unaligned word read at {address:#010x}")
        page = self._page(address)
        offset = address & PAGE_MASK
        return int.from_bytes(page[offset : offset + 4], "little")

    def write_word(self, address: int, value: int) -> None:
        if address & 3:
            raise SimError(f"unaligned word write at {address:#010x}")
        page = self._page(address)
        offset = address & PAGE_MASK
        page[offset : offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    # -- halfwords -----------------------------------------------------

    def read_half(self, address: int) -> int:
        if address & 1:
            raise SimError(f"unaligned halfword read at {address:#010x}")
        page = self._page(address)
        offset = address & PAGE_MASK
        return int.from_bytes(page[offset : offset + 2], "little")

    def write_half(self, address: int, value: int) -> None:
        if address & 1:
            raise SimError(f"unaligned halfword write at {address:#010x}")
        page = self._page(address)
        offset = address & PAGE_MASK
        page[offset : offset + 2] = (value & 0xFFFF).to_bytes(2, "little")

    # -- bytes ---------------------------------------------------------

    def read_byte(self, address: int) -> int:
        return self._page(address)[address & PAGE_MASK]

    def write_byte(self, address: int, value: int) -> None:
        self._page(address)[address & PAGE_MASK] = value & 0xFF

    # -- bulk ----------------------------------------------------------

    def load_bytes(self, address: int, data: bytes) -> None:
        """Copy ``data`` into memory starting at ``address``."""
        for i, byte in enumerate(data):
            self.write_byte(address + i, byte)

    def read_bytes(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``address``."""
        return bytes(self.read_byte(address + i) for i in range(length))

    def read_cstring(self, address: int, limit: int = 1 << 16) -> bytes:
        """Read a NUL-terminated string (without the terminator)."""
        out = bytearray()
        for i in range(limit):
            byte = self.read_byte(address + i)
            if byte == 0:
                return bytes(out)
            out.append(byte)
        raise SimError(f"unterminated string at {address:#010x}")
