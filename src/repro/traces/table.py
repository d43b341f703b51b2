"""Associative trace reuse table.

Mirrors the geometry API of :class:`repro.core.reuse_buffer.ReuseBuffer`
— ``capacity`` entries split into ``capacity // ways`` sets indexed by
``(start_pc >> 2) % num_sets``, MRU-first lists with LRU eviction — plus
a ``memory word -> entries`` side index so a store can invalidate every
resident trace whose memory live-ins it touches (the analyzer's
freshness mechanism, analogous to the buffer's scheme ``Sv``).

All traces starting at one pc live in that pc's set, so a probe scans
the set (at most ``ways`` entries) in MRU order.

``max_trace_len`` is table geometry, not policy: it bounds the length of
an entry, and the recorder driving this table splits regions at it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.traces.trace import Trace

#: Default geometry: far smaller than the 8K-entry instruction buffer —
#: traces are scarcer (one per dynamic region, not per instruction).
DEFAULT_TRACE_CAPACITY = 1024
DEFAULT_TRACE_WAYS = 4
DEFAULT_MAX_TRACE_LEN = 16


class TraceReuseTable:
    """A start-pc-indexed, LRU, set-associative table of traces."""

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        ways: int = DEFAULT_TRACE_WAYS,
        max_trace_len: int = DEFAULT_MAX_TRACE_LEN,
    ) -> None:
        if capacity % ways:
            raise ValueError("capacity must be a multiple of ways")
        if max_trace_len < 1:
            raise ValueError("max_trace_len must be at least 1")
        self.capacity = capacity
        self.ways = ways
        self.max_trace_len = max_trace_len
        self.num_sets = capacity // ways
        self._sets: List[List[Trace]] = [[] for _ in range(self.num_sets)]
        self._by_word: Dict[int, Set[Trace]] = {}
        self.installs = 0
        self.evictions = 0
        self.invalidations = 0

    def _set_for(self, pc: int) -> List[Trace]:
        return self._sets[(pc >> 2) % self.num_sets]

    def entries_at(self, pc: int) -> Optional[List[Trace]]:
        """Resident traces starting at ``pc`` (MRU-first), or ``None``."""
        return [trace for trace in self._set_for(pc) if trace.start_pc == pc] or None

    def lookup(self, pc: int, regs, hi, lo) -> Optional[Trace]:
        """First resident trace at ``pc`` whose register live-ins validate.

        A hit becomes the MRU entry of its set.
        """
        bucket = self._set_for(pc)
        for trace in bucket:
            if trace.start_pc == pc and trace.matches(regs, hi, lo):
                if bucket[0] is not trace:
                    bucket.remove(trace)
                    bucket.insert(0, trace)
                return trace
        return None

    def _unlink(self, trace: Trace) -> None:
        """Drop ``trace`` from the memory-word index (not from its set)."""
        for address, width, _raw in trace.mem_in:
            for word in range(address & ~3, address + width, 4):
                linked = self._by_word.get(word)
                if linked is not None:
                    linked.discard(trace)
                    if not linked:
                        del self._by_word[word]

    def install(self, trace: Trace) -> None:
        """Insert ``trace``, evicting the set's LRU entry if full.

        An entry with the same live-in signature is replaced in place
        (determinism makes it the same trace, so a second copy would
        waste a way).
        """
        bucket = self._set_for(trace.start_pc)
        signature = trace.live_in_signature
        for resident in bucket:
            if (
                resident.start_pc == trace.start_pc
                and resident.live_in_signature == signature
            ):
                bucket.remove(resident)
                self._unlink(resident)
                break
        else:
            if len(bucket) >= self.ways:
                victim = bucket.pop()
                self._unlink(victim)
                self.evictions += 1
        bucket.insert(0, trace)
        for address, width, _raw in trace.mem_in:
            for word in range(address & ~3, address + width, 4):
                self._by_word.setdefault(word, set()).add(trace)
        self.installs += 1

    def invalidate_store(self, address: int, width: int) -> int:
        """Evict every trace with a memory live-in in the stored bytes.

        Returns the number of traces invalidated.  Word granularity,
        like the instruction buffer: any store touching a live-in's word
        conservatively kills the trace.
        """
        count = 0
        for word in range(address & ~3, address + width, 4):
            linked = self._by_word.get(word)
            if not linked:
                continue
            for trace in tuple(linked):
                bucket = self._set_for(trace.start_pc)
                try:
                    bucket.remove(trace)
                except ValueError:
                    pass
                self._unlink(trace)
                count += 1
        self.invalidations += count
        return count

    @property
    def occupancy(self) -> int:
        """Traces currently resident across all sets."""
        return sum(len(bucket) for bucket in self._sets)
