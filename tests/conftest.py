"""Shared fixtures.

The full suite run is expensive (~20s with every analyzer attached), so
it is session-scoped and shared by all shape/integration tests, and the
harness-level cache makes repeated requests free.
"""

from __future__ import annotations

import pytest

from repro.harness import SuiteConfig, run_suite
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "wall_clock: asserts a wall-clock budget; runs untraced under tests.line_ledger",
    )


@pytest.fixture(scope="session")
def suite_results():
    """Full eight-workload suite at scale 1 with the paper configuration."""
    return run_suite(SuiteConfig(scale=1))


@pytest.fixture(scope="session")
def secondary_results():
    """The paper's input-sensitivity check: a second input set."""
    return run_suite(SuiteConfig(scale=1, input_kind="secondary"))


@pytest.fixture
def metrics_enabled():
    """A clean, enabled global metrics registry; wiped and disabled after."""
    obs_metrics.enable()
    obs_metrics.REGISTRY.reset()
    try:
        yield obs_metrics.REGISTRY
    finally:
        obs_metrics.disable()
        obs_metrics.REGISTRY.reset()


@pytest.fixture
def tracer():
    """A fresh installed SpanTracer; previous tracer restored after."""
    instance = obs_tracing.SpanTracer()
    previous = obs_tracing.current_tracer()
    obs_tracing.install_tracer(instance)
    try:
        yield instance
    finally:
        obs_tracing.install_tracer(previous)
