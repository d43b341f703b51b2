"""Workload descriptors and deterministic input generation.

Each workload stands in for one SPEC '95 integer benchmark (see
DESIGN.md §4).  A workload bundles a MiniC source file with two
deterministic input generators — a *primary* input (the one the tables
report) and a *secondary* input for the paper's input-sensitivity check.
Inputs scale with a single ``scale`` knob so tests can run small and
benchmarks larger.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple

from repro.asm.program import Program
from repro.lang import compile_source


class DeterministicRandom:
    """A small LCG used by input generators (numpy-free, stable forever)."""

    _MULTIPLIER = 1103515245
    _INCREMENT = 12345
    _MASK = 0x7FFFFFFF

    def __init__(self, seed: int) -> None:
        self._state = seed & self._MASK

    def next_int(self, bound: int) -> int:
        """Uniform-ish integer in ``[0, bound)``."""
        self._state = (self._state * self._MULTIPLIER + self._INCREMENT) & self._MASK
        return (self._state >> 7) % bound

    def choice(self, items: str) -> str:
        return items[self.next_int(len(items))]


@dataclass(frozen=True)
class Workload:
    """One synthetic benchmark."""

    name: str
    spec_analogue: str
    description: str
    source_file: str
    #: ``(scale) -> bytes`` generators.
    primary_input: Callable[[int], bytes]
    secondary_input: Callable[[int], bytes]
    #: Expected final line(s) of output per (input kind, scale) are not
    #: fixed here; tests assert determinism by running twice instead.

    def __reduce__(self):
        # The input generators are registry lambdas, which don't pickle;
        # reduce to a name lookup so results can cross process boundaries.
        from repro.workloads.registry import get_workload

        return (get_workload, (self.name,))

    def source(self) -> str:
        return _load_source(self.source_file)

    def program(self) -> Program:
        """The compiled program image (cached per source file)."""
        return _compile_cached(self.source_file)


@lru_cache(maxsize=None)
def _load_source(filename: str) -> str:
    package = importlib.resources.files("repro.workloads") / "minic" / filename
    return package.read_text()


@lru_cache(maxsize=None)
def _compile_cached(filename: str) -> Program:
    return compile_source(_load_source(filename), filename)


def words_text(seed: int, word_count: int, vocabulary_size: int = 180) -> bytes:
    """Generate text made of a bounded vocabulary (Zipf-ish repetition)."""
    rng = DeterministicRandom(seed)
    vocabulary = []
    for index in range(vocabulary_size):
        length = 2 + rng.next_int(7)
        vocabulary.append(
            "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(length))
        )
    words = []
    for _ in range(word_count):
        # Skew toward early vocabulary entries (repeated words, like text).
        index = min(rng.next_int(vocabulary_size), rng.next_int(vocabulary_size))
        words.append(vocabulary[index])
    return (" ".join(words) + "\n").encode("ascii")
