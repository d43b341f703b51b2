"""Dynamic instruction reuse buffer (the paper's Section 7, Table 10).

Models the scheme of Sodani & Sohi's "Dynamic Instruction Reuse" (ISCA
'97) at the fidelity Table 10 needs: a PC-indexed set-associative buffer
whose entries hold one dynamic instance (operand values and results) of a
static instruction.  An instruction *reuses* when it hits an entry with
matching PC and operand values — by determinism its results then equal
the buffered results, so every reuse is a repetition; the buffer simply
cannot capture all of it (capacity, associativity conflicts, one instance
per entry, load invalidations).

Loads are entered with their address operands as inputs and the loaded
value as result; a store to a buffered load's address invalidates the
entry, keeping reuse semantically safe (the paper's scheme ``Sv``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.isa.instructions import Instruction
from repro.obs import metrics as obs_metrics
from repro.sim.events import StepRecord
from repro.sim.observer import Analyzer, StepFn

#: Paper configuration: 8K entries, 4-way set associative.
DEFAULT_ENTRIES = 8192
DEFAULT_ASSOCIATIVITY = 4

#: Probe sentinel: no entry for this instance.
_MISS = object()


@dataclass
class ReuseBufferReport:
    """Table 10 numbers (the repeated-instruction share is computed by the
    harness against the repetition tracker's totals)."""

    dynamic_total: int
    reuse_hits: int
    invalidations: int
    #: Entries displaced by capacity pressure (telemetry; not a paper number).
    evictions: int = 0
    #: Entries resident when the run finished (telemetry).
    occupancy: int = 0

    @property
    def hit_pct(self) -> float:
        """Table 10 column 2: % of all dynamic instructions reused."""
        return 100.0 * self.reuse_hits / self.dynamic_total if self.dynamic_total else 0.0

    def repeated_share_pct(self, dynamic_repeated: int) -> float:
        """Table 10 column 3: % of repeated instructions captured."""
        return 100.0 * self.reuse_hits / dynamic_repeated if dynamic_repeated else 0.0


class ReuseBuffer(Analyzer):
    """A PC-indexed, LRU, set-associative reuse buffer."""

    def __init__(
        self,
        entries: int = DEFAULT_ENTRIES,
        associativity: int = DEFAULT_ASSOCIATIVITY,
    ) -> None:
        if entries % associativity:
            raise ValueError("entries must be a multiple of associativity")
        self.num_sets = entries // associativity
        self.associativity = associativity
        #: Each set maps ``(pc, inputs)`` to the buffered load's memory word
        #: (``None`` for other instructions).  Insertion order is the LRU
        #: order, least recent first.  A key is entered only on a miss, so
        #: a set never holds two entries for the same instance.
        self._sets: List[Dict[Tuple[int, Tuple[int, ...]], Optional[int]]] = [
            {} for _ in range(self.num_sets)
        ]
        #: memory word -> keys of buffered loads of that word.
        self._by_word: Dict[int, Set[Tuple[int, Tuple[int, ...]]]] = {}
        self.reuse_hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        #: Per-step flag for composition (e.g. the timing model): True iff
        #: the most recent step reused; valid for that step only.
        self.last_was_hit = False
        self.last_index = -1

    @property
    def dynamic_total(self) -> int:
        return self.reuse_hits + self.misses

    def was_reused(self, record: StepRecord) -> bool:
        """Reuse flag for ``record`` (must be the most recent step)."""
        if record.index != self.last_index:
            raise RuntimeError(
                "ReuseBuffer.was_reused() queried out of order; attach the "
                "buffer before dependent analyzers"
            )
        return self.last_was_hit

    def _set_for(self, pc: int) -> Dict[Tuple[int, Tuple[int, ...]], Optional[int]]:
        return self._sets[(pc >> 2) % self.num_sets]

    def _invalidate(self, linked: Set[Tuple[int, Tuple[int, ...]]]) -> None:
        """Drop the buffered loads ``linked`` to a word a store just wrote."""
        for key in linked:
            del self._set_for(key[0])[key]
        self.invalidations += len(linked)

    def _evict(self, bucket: Dict) -> None:
        """Drop the set's least recently used entry."""
        key = next(iter(bucket))
        word = bucket.pop(key)
        if word is not None:
            linked = self._by_word[word]
            linked.discard(key)
            if not linked:
                del self._by_word[word]
        self.evictions += 1

    def compile_step(self, pc: int, instr: Instruction) -> StepFn:
        buffer = self
        bucket = self._set_for(pc)
        associativity = self.associativity
        by_word = self._by_word
        is_load = instr.is_load
        is_store = instr.is_store

        def step(record: StepRecord) -> None:
            buffer.last_index = record.index
            # Stores invalidate any buffered load of the written word
            # before the probe (a store never hits a load's entry).
            if is_store:
                linked = by_word.pop(record.mem_addr & ~3, None)
                if linked:
                    buffer._invalidate(linked)
            key = (pc, record.inputs)
            word = bucket.pop(key, _MISS)
            if word is not _MISS:
                bucket[key] = word  # reuse hit: now most recently used
                buffer.reuse_hits += 1
                buffer.last_was_hit = True
                return
            # Miss: insert this instance, evicting the LRU entry if needed.
            buffer.last_was_hit = False
            buffer.misses += 1
            if len(bucket) >= associativity:
                buffer._evict(bucket)
            if is_load:
                word = record.mem_addr & ~3
                bucket[key] = word
                linked = by_word.get(word)
                if linked is None:
                    by_word[word] = {key}
                else:
                    linked.add(key)
            else:
                bucket[key] = None

        return step

    @property
    def occupancy(self) -> int:
        """Entries currently resident across all sets."""
        return sum(len(bucket) for bucket in self._sets)

    def on_finish(self) -> None:
        registry = obs_metrics.REGISTRY
        if registry.enabled:
            registry.counter("reuse.probes").inc(self.dynamic_total)
            registry.counter("reuse.hits").inc(self.reuse_hits)
            registry.counter("reuse.invalidations").inc(self.invalidations)
            registry.counter("reuse.evictions").inc(self.evictions)
            registry.gauge("reuse.occupancy").set(self.occupancy)

    def report(self) -> ReuseBufferReport:
        return ReuseBufferReport(
            dynamic_total=self.dynamic_total,
            reuse_hits=self.reuse_hits,
            invalidations=self.invalidations,
            evictions=self.evictions,
            occupancy=self.occupancy,
        )
