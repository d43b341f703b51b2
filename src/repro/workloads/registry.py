"""The eight-workload suite, one per SPEC '95 integer benchmark.

Input generators are tuned so that ``scale=1`` yields roughly 100k-300k
dynamic instructions per workload — small enough for the pure-Python
instrumentation stack, large enough for steady-state behaviour.  The
*secondary* inputs implement the paper's input-sensitivity check
(Section 3 ran go/gcc/ijpeg/perl/compress with second inputs and saw the
same trends).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.workloads.base import DeterministicRandom, Workload, words_text


def _go_input(seed: int, scale: int) -> bytes:
    # External input only sets the game length (go's null.in is famously
    # tiny); seeds vary the setup-stone count across input sets.
    setup_moves = 4 + (seed % 5)
    return f"{2 * scale} {setup_moves}\n".encode("ascii")


def _m88k_input(seed: int, scale: int) -> bytes:
    return f"{15 * scale + seed % 3}\n".encode("ascii")


def _ijpeg_input(seed: int, scale: int) -> bytes:
    # seed, frames, width-blocks-1 (5 -> 48px), height-blocks-1 (1 -> 16px)
    return f"{seed} {scale} 5 1\n".encode("ascii")


def _perl_input(seed: int, scale: int) -> bytes:
    return words_text(seed, 300 * scale)


def _vortex_input(seed: int, scale: int) -> bytes:
    return f"{800 * scale} {50 + seed % 30}\n".encode("ascii")


def _li_input(seed: int, scale: int) -> bytes:
    return f"{seed} {8 * scale}\n".encode("ascii")


def _gcc_input(seed: int, scale: int) -> bytes:
    return f"{2 * scale + seed % 3}\n".encode("ascii")


def _compress_input(seed: int, scale: int) -> bytes:
    return words_text(seed, 150 * scale, vocabulary_size=120)


def _pair(maker, primary_seed: int, secondary_seed: int) -> Tuple:
    return (
        lambda scale: maker(primary_seed, scale),
        lambda scale: maker(secondary_seed, scale),
    )


def _build_registry() -> Dict[str, Workload]:
    entries = (
        Workload(
            "go",
            "go (SPEC95 099.go)",
            "board-game evaluator over global board state",
            "go_like.mc",
            *_pair(_go_input, 12345, 54321),
        ),
        Workload(
            "m88ksim",
            "m88ksim (SPEC95 124.m88ksim)",
            "table-driven CPU interpreter running a fixed kernel",
            "m88k_like.mc",
            *_pair(_m88k_input, 1, 2),
        ),
        Workload(
            "ijpeg",
            "ijpeg (SPEC95 132.ijpeg)",
            "image pipeline: blocked transform, quantization, entropy cost",
            "ijpeg_like.mc",
            *_pair(_ijpeg_input, 17, 91),
        ),
        Workload(
            "perl",
            "perl (SPEC95 134.perl)",
            "word-scoring interpreter with a heap hash table",
            "perl_like.mc",
            *_pair(_perl_input, 11, 47),
        ),
        Workload(
            "vortex",
            "vortex (SPEC95 147.vortex)",
            "object store with deep Mem/Chunk/Obj/Tm call layering",
            "vortex_like.mc",
            *_pair(_vortex_input, 9, 77),
        ),
        Workload(
            "li",
            "li (SPEC95 130.li)",
            "lisp-style cons-cell lists with recursive evaluation",
            "li_like.mc",
            *_pair(_li_input, 5, 23),
        ),
        Workload(
            "gcc",
            "gcc (SPEC95 126.gcc)",
            "toy compiler passes over pseudo-random three-address IR",
            "gcc_like.mc",
            *_pair(_gcc_input, 3, 19),
        ),
        Workload(
            "compress",
            "compress (SPEC95 129.compress)",
            "LZW compression over generated text",
            "compress_like.mc",
            *_pair(_compress_input, 7, 29),
        ),
    )
    return {workload.name: workload for workload in entries}


#: Workloads in the paper's Table 1 row order.
WORKLOADS: Dict[str, Workload] = _build_registry()

WORKLOAD_ORDER = tuple(WORKLOADS)


def get_workload(name: str) -> Workload:
    """Look up a workload by its paper-style name (e.g. ``"go"``)."""
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(WORKLOAD_ORDER)
        raise KeyError(f"unknown workload {name!r} (known: {known})") from None
