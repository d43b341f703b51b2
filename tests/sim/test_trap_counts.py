"""Retirement counts on a trap: a SimError says how far the engine got.

The run loops keep their instruction counters in locals, so every exit,
normal or not, must write them back before the trap is annotated.
"""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.core import RepetitionTracker
from repro.sim import SimError, Simulator, predecode
from repro.sim.simulator import ENGINES

# Four instructions, then a jump into the data segment: five retire and
# the sixth fetch traps.
PROGRAM = """
        .text
        .ent main, 0
main:
        addiu $t0, $zero, 1
        addiu $t1, $zero, 2
        addiu $t2, $zero, 3
        lui $t3, 0x1000
        jr $t3
        .end main
"""


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("skip", [0, 2])
@pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
def test_trap_carries_retired_counts(engine, skip, observed):
    tracker = RepetitionTracker()
    simulator = Simulator(
        assemble(PROGRAM), analyzers=[tracker] if observed else [], engine=engine
    )
    with pytest.raises(SimError) as info:
        simulator.run(skip=skip)
    assert info.value.engine == engine
    assert info.value.retired_total == 5
    assert info.value.retired_analyzed == 5 - skip
    if observed:
        assert tracker.dynamic_total == 5 - skip


# Four instructions, then an unaligned load: four retire and the fifth
# traps inside its own execution, after its fetch.
UNALIGNED_LOAD = """
        .text
        .ent main, 0
main:
        addiu $t0, $zero, 1
        addiu $t1, $zero, 2
        addiu $t2, $zero, 3
        lui $t3, 0x1000
        lw $t4, 1($t3)
        jr $ra
        .end main
"""


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("skip", [0, 2])
@pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
def test_trap_inside_an_instruction_leaves_no_analyzer_state(engine, skip, observed):
    tracker = RepetitionTracker()
    simulator = Simulator(
        assemble(UNALIGNED_LOAD), analyzers=[tracker] if observed else [], engine=engine
    )
    with pytest.raises(SimError, match="unaligned") as info:
        simulator.run(skip=skip)
    assert info.value.engine == engine
    assert info.value.retired_total == 4
    assert info.value.retired_analyzed == 4 - skip
    if observed:
        report = tracker.report()
        assert report.dynamic_total == 4 - skip
        # The load never retired, so the tracker never compiled it.
        assert report.static_executed == 4 - skip



# A jump ends the set-up's straight-line run, so BLOCK starts a fresh
# one on the predecoded engine; the unaligned access sits at POSITION
# inside a run of BLOCK_LENGTH instructions, longer than one chain.
BLOCK_LENGTH = 20
SETUP = 3


def _trap_program(access: str, position: int) -> str:
    lines = [f"addiu $t{i % 3}, $t{i % 3}, {i + 1}" for i in range(BLOCK_LENGTH)]
    lines[position] = access
    body = "\n".join(f"        {line}" for line in lines)
    return f"""
        .text
        .ent main, 0
main:
        lui $t3, 0x1000
        addiu $t3, $t3, 1
        j block
block:
{body}
        jr $ra
        .end main
"""


def _trap_state(program, engine: str, skip: int, observed: bool):
    tracker = RepetitionTracker()
    simulator = Simulator(program, analyzers=[tracker] if observed else [], engine=engine)
    with pytest.raises(SimError, match="unaligned") as info:
        simulator.run(skip=skip)
    error = info.value
    return (
        str(error),
        error.retired_total,
        error.retired_analyzed,
        simulator.pc,
        list(simulator.regs),
        tracker.dynamic_total if observed else None,
    )


@pytest.mark.parametrize("access", ["lw $t4, 0($t3)", "sh $t0, 0($t3)", "sw $t1, 4($t3)"])
@pytest.mark.parametrize("skip", [0, 100], ids=["analysis", "warmup"])
@pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
def test_trap_at_every_position_of_a_straight_line_run(access, skip, observed):
    assert predecode.CHAIN_CAP < BLOCK_LENGTH
    for position in range(BLOCK_LENGTH):
        program = assemble(_trap_program(access, position))
        fast, reference = (
            _trap_state(program, engine, skip, observed) for engine in ("predecoded", "interpreter")
        )
        assert fast == reference, f"position {position}"
        retired = SETUP + position
        assert fast[1:4] == (retired, max(0, retired - skip), program.text_base + 4 * retired)
