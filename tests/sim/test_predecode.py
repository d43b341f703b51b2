"""The predecoded engine's closures are generated from the opcode table."""

from __future__ import annotations

import pytest

from repro.core import RepetitionTracker
from repro.isa.instructions import BOUNDARY_END, BOUNDARY_EXCLUDE, OPCODES, boundary_kind
from repro.obs import tracing as obs_tracing
from repro.sim import Simulator, predecode
from repro.workloads import WORKLOAD_ORDER, get_workload


@pytest.mark.parametrize("name", sorted(OPCODES))
@pytest.mark.parametrize(
    "flavor",
    # The observed flavor keeps the id of the record-building flavor it replaced.
    [predecode.FAST, pytest.param(predecode.OBSERVED, id="record")],
)
def test_every_opcode_generates_both_flavors(name, flavor):
    variants = [name, "return"] if name == "jr" else [name]
    hook_counts = [0] if flavor == predecode.FAST else [0, 1, 3]
    for variant in variants:
        for hooks in hook_counts:
            factory = predecode._generate(OPCODES[name], variant, flavor, hooks)
            assert callable(factory)


def test_watching_a_run_generates_no_other_closures(metrics_enabled, tracer):
    """Telemetry and tracing on, the engine runs the closures a plain run made."""
    program = get_workload("compress").program()

    def run():
        # A fast warm-up, then observed closures with one hook per analyzer.
        Simulator(program, analyzers=[RepetitionTracker()]).run(limit=5_000, skip=5_000)

    metrics_enabled.enabled = False
    obs_tracing.install_tracer(None)
    run()
    plain = set(predecode._FACTORIES)
    metrics_enabled.enabled = True
    obs_tracing.install_tracer(tracer)
    run()
    assert set(predecode._FACTORIES) == plain
    assert metrics_enabled.value("sim.instructions.total") == 10_000
    assert tracer.span_count("warmup") == tracer.span_count("simulate") == 1


@pytest.mark.parametrize("name", WORKLOAD_ORDER)
def test_chains_end_at_the_trace_boundaries(name):
    text = get_workload(name).program().text
    code = [None] * len(text)
    for start in range(len(text)):
        _, length = predecode.chain(code, text, start)
        kinds = [boundary_kind(instr) for instr in text[start : start + length]]
        if kinds[0] == BOUNDARY_EXCLUDE:
            assert length == 1  # a call, return or syscall runs alone
            continue
        assert 1 <= length <= predecode.CHAIN_CAP
        assert BOUNDARY_EXCLUDE not in kinds
        assert BOUNDARY_END not in kinds[:-1]
        end = start + length
        assert (
            kinds[-1] == BOUNDARY_END
            or length == predecode.CHAIN_CAP
            or end == len(text)
            or boundary_kind(text[end]) == BOUNDARY_EXCLUDE
        )


def test_chain_runs_its_closures_in_order_and_locates_a_trap():
    calls = []

    def closure(i):
        def step():
            calls.append(i)
            if i == 3:
                raise RuntimeError("trap")
            return 100 + i

        return step

    chain = predecode._chain_maker(3)(*(closure(i) for i in range(3)))
    assert chain(1) == 102
    assert calls == [0, 1, 2]
    trapping = predecode._chain_maker(5)(*(closure(i) for i in range(5)))
    try:
        trapping(1)
    except RuntimeError as exc:
        # The traceback entry of this frame, whose callee is the chain.
        assert predecode.chain_retired(exc.__traceback__, trapping) == 3
        assert predecode.chain_retired(exc.__traceback__, chain) == 0
    else:
        pytest.fail("the chain did not raise")
