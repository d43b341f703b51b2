"""Synthetic SPEC '95 integer workload suite (see DESIGN.md §4).

Each :class:`Workload` couples a MiniC program with deterministic primary
and secondary input generators; :data:`WORKLOADS` holds the suite in the
paper's table order.
"""

from repro.workloads.base import DeterministicRandom, Workload, words_text
from repro.workloads.registry import WORKLOADS, WORKLOAD_ORDER, get_workload

__all__ = [
    "DeterministicRandom",
    "WORKLOADS",
    "WORKLOAD_ORDER",
    "Workload",
    "get_workload",
    "words_text",
]
