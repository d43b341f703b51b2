"""Tests for the benchmark itself (run with ``python -m pytest perfbench -q``).

They run every workload on one small program (gcc, about 100k
instructions) with a zero-second loop, so each does one operation.
"""

from __future__ import annotations

import json

import pytest

from perfbench import run as bench

bench._add_import_paths()

from perfbench.hostclock import INTERVAL_S, REFERENCE_LOOP_S, HostClock, NullClock  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
TINY = ("gcc",)


def _final_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_end_to_end_metric(workload, capsys):
    assert bench.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                       "--programs", ",".join(TINY)]) == 0
    final = _final_line(capsys)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in final["metrics"].items()} == units
    assert all(m["value"] > 0 for m in final["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(capsys):
    assert bench.main(["--workload", "warm-tables", "--seed", "1", "--seconds", "0",
                       "--trace", "1", "--programs", ",".join(TINY)]) == 0
    final = _final_line(capsys)
    assert final["correct"], final
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in final["metrics"].items()} == units


def test_wrong_expected_digest_counts_as_failure():
    report = bench.run("paper-suite", seed=1, seconds=0, trace=False,
                       expected_digests={"gcc": "0" * 64}, names=TINY)
    assert report["failed_frac"] > 0
    assert not report["correct"]
    assert any("result digest" in problem for problem in report["problems"])


def test_host_clock_divides_by_the_loops_slowdown():
    clock = HostClock()
    # One sample every interval for 10 s; the host is 2x slow from 5 s on,
    # and no sample counts between 3 s and 4 s (a pool ran).
    for index in range(100):
        start = index * INTERVAL_S
        seconds = REFERENCE_LOOP_S * (2 if start >= 5 else 1)
        clock.starts.append(start)
        clock.loop_seconds.append(seconds)
        if not 3 <= start < 4:
            clock.busy_starts.append(start)
            clock.busy_loop_seconds.append(seconds)
    own = REFERENCE_LOOP_S
    # A short interval takes its neighbours' samples; the handler's own
    # time inside it is taken out.
    assert clock.normalize(1.0, 1.05) == pytest.approx(0.05 - own)
    assert clock.normalize(7.0, 7.05) == pytest.approx((0.05 - 2 * own) / 2)
    # The unsampled second takes the 10 counted samples on each side.
    assert clock.normalize(3.0, 3.95) == pytest.approx(0.95 - 10 * own)
    assert NullClock().normalize(1.0, 3.5) == 2.5


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("bench:op", trace_id="op-1"):
        with tracer.span("harness.runner:run_workload", trace_id="gcc") as outer:
            tracer.add("sim+analyzers:Simulator.run", outer.start, outer.start)
    layers = tracer.self_times()
    wall = tracer.spans[0].seconds
    assert sum(layers.values()) == pytest.approx(wall)
    assert tracer.spans[2].parent == 1 and tracer.spans[2].trace_id == "gcc"
    events = tracer.chrome_trace()["traceEvents"]
    assert [event["args"]["parent"] for event in events] == [None, 0, 1]
    # The layer probe counts only spans recorded after it starts.
    assert tracer.total("harness.runner:run_workload") == outer.seconds
    assert tracer.total("harness.runner:run_workload", first=2) == 0.0
