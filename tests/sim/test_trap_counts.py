"""Retirement counts on a trap: a SimError says how far the engine got.

The run loops keep their instruction counters in locals, so every exit,
normal or not, must write them back before the trap is annotated.
"""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.core import RepetitionTracker
from repro.sim import SimError, Simulator
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

