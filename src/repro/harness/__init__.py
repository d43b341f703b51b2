"""Experiment harness: suite runner, per-table/figure registry, CLI."""

# faults/failures first: cache and runner import them at module load,
# so they must be fully initialized before the rest of the package.
from repro.harness.faults import FaultInjected, FaultPlan
from repro.harness.failures import (
    FailureRecord,
    RecoveryPolicy,
    SuiteReport,
    WorkloadTimeout,
    result_digest,
)
from repro.harness.cache import CACHE_FORMAT_VERSION, ResultCache
from repro.harness.experiments import EXPERIMENT_ORDER, EXPERIMENTS, Experiment
from repro.harness.runner import (
    SuiteConfig,
    WorkloadResult,
    build_analyzers,
    cache_directory,
    clear_cache,
    run_suite,
    run_workload,
    set_cache_dir,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "EXPERIMENTS",
    "EXPERIMENT_ORDER",
    "Experiment",
    "FailureRecord",
    "FaultInjected",
    "FaultPlan",
    "RecoveryPolicy",
    "ResultCache",
    "SuiteConfig",
    "SuiteReport",
    "WorkloadResult",
    "WorkloadTimeout",
    "build_analyzers",
    "cache_directory",
    "clear_cache",
    "result_digest",
    "run_suite",
    "run_workload",
    "set_cache_dir",
]
