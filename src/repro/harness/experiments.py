"""Experiment registry: one entry per table and figure in the paper.

Each experiment renders its artifact from the shared suite results; the
``repro-run`` CLI and the benchmark suite are thin wrappers around this
registry, and EXPERIMENTS.md is generated from the same output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.analysis.coverage import INSTANCE_BUCKETS, contributors_for_fractions
from repro.analysis.tables import format_panels, format_table
from repro.core.global_analysis import CATEGORY_ORDER as GLOBAL_CATEGORIES
from repro.core.local_analysis import CATEGORY_ORDER as LOCAL_CATEGORIES
from repro.harness.runner import WorkloadResult
from repro.traces.analyzer import LENGTH_BUCKET_LABELS
from repro.traces.trace import CLASS_NAMES

Results = Dict[str, WorkloadResult]


@dataclass(frozen=True)
class Experiment:
    exp_id: str
    paper_ref: str
    title: str
    builder: Callable[[Results], str]

    def render(self, results: Results) -> str:
        return self.builder(results)


# ---------------------------------------------------------------------------
# Table 1 and the total-analysis figures
# ---------------------------------------------------------------------------


def build_table1(results: Results) -> str:
    rows = []
    for name, result in results.items():
        report = result.repetition
        static_total = result.static_program_instructions
        executed_pct = 100.0 * report.static_executed / static_total if static_total else 0.0
        rows.append(
            (
                name,
                report.dynamic_total,
                report.dynamic_repeated_pct,
                static_total,
                executed_pct,
                report.static_repeated_pct,
            )
        )
    return format_table(
        ("Benchmark", "Dyn total", "Dyn repeat %", "Static total", "% executed", "% exec repeated"),
        rows,
    )


_FIG1_TARGETS = (0.5, 0.75, 0.9, 0.99)


def build_fig1(results: Results) -> str:
    rows = []
    for name, result in results.items():
        weights = result.repetition.static_repeat_weights
        count = len(weights)
        needed = contributors_for_fractions(weights, _FIG1_TARGETS)
        rows.append([name] + [100.0 * n / count if count else 0.0 for n in needed])
    headers = ("Benchmark",) + tuple(f"% insns for {int(t*100)}% rep" for t in _FIG1_TARGETS)
    return format_table(headers, rows)


def build_fig3(results: Results) -> str:
    labels = [label for _, _, label in INSTANCE_BUCKETS]
    rows = []
    for name, result in results.items():
        shares = result.repetition.bucket_shares()
        rows.append([name] + [100.0 * shares[label] for label in labels])
    return format_table(("Benchmark",) + tuple(labels), rows)


def build_table2(results: Results) -> str:
    rows = [
        (
            name,
            result.repetition.unique_repeatable_instances,
            result.repetition.average_repeats,
        )
        for name, result in results.items()
    ]
    return format_table(("Benchmark", "Unique repeatable instances", "Avg repeats"), rows)


_FIG4_TARGETS = (0.5, 0.75, 0.9)


def build_fig4(results: Results) -> str:
    rows = []
    for name, result in results.items():
        counts = result.repetition.instance_repeat_counts
        total = len(counts)
        needed = contributors_for_fractions(counts, _FIG4_TARGETS)
        rows.append([name] + [100.0 * n / total if total else 0.0 for n in needed])
    headers = ("Benchmark",) + tuple(
        f"% instances for {int(t*100)}% rep" for t in _FIG4_TARGETS
    )
    return format_table(headers, rows)


# ---------------------------------------------------------------------------
# Table 3: global analysis
# ---------------------------------------------------------------------------


def _category_panel(
    results: Results, categories: Sequence[str], getter: Callable[[WorkloadResult, str], float]
) -> List[List[object]]:
    return [
        [category] + [getter(result, category) for result in results.values()]
        for category in categories
    ]


def build_table3(results: Results) -> str:
    names = tuple(results)
    return format_panels(
        [
            (title, ("Category",) + names, _category_panel(results, GLOBAL_CATEGORIES, getter))
            for title, getter in (
                ("Overall (% of all dynamic instructions)", lambda r, c: r.global_analysis.overall_pct(c)),
                ("Repeated (% of repeated instructions)", lambda r, c: r.global_analysis.repeated_pct(c)),
                ("Propensity (% of category repeated)", lambda r, c: r.global_analysis.propensity_pct(c)),
            )
        ]
    )


# ---------------------------------------------------------------------------
# Tables 4 / 8 and Figure 5: function analysis
# ---------------------------------------------------------------------------


def build_table4(results: Results) -> str:
    rows = [
        (
            name,
            result.function_analysis.num_functions,
            result.function_analysis.dynamic_calls,
            result.function_analysis.all_args_repeated_pct,
            result.function_analysis.no_args_repeated_pct,
        )
        for name, result in results.items()
    ]
    return format_table(
        ("Benchmark", "Funcs", "Dyn calls", "ALL args repeated %", "NO args repeated %"),
        rows,
    )


def build_table8(results: Results) -> str:
    rows = [
        (
            name,
            result.function_analysis.pure_pct,
            result.function_analysis.pure_all_repeated_pct,
        )
        for name, result in results.items()
    ]
    return format_table(
        ("Benchmark", "Pure calls (% of all)", "Pure (% of all-arg-repeated)"), rows
    )


def build_fig5(results: Results) -> str:
    rows = [
        [name] + list(result.function_analysis.top_k_coverage)
        for name, result in results.items()
    ]
    headers = ("Benchmark",) + tuple(f"top-{k}" for k in range(1, 6))
    return format_table(headers, rows)


# ---------------------------------------------------------------------------
# Tables 5/6/7 and Table 9: local analysis
# ---------------------------------------------------------------------------


def build_table5(results: Results) -> str:
    names = tuple(results)
    return format_table(
        ("Category",) + names,
        _category_panel(results, LOCAL_CATEGORIES, lambda r, c: r.local_analysis.overall_pct(c)),
    )


def build_table6(results: Results) -> str:
    names = tuple(results)
    return format_table(
        ("Category",) + names,
        _category_panel(results, LOCAL_CATEGORIES, lambda r, c: r.local_analysis.repeated_pct(c)),
    )


def build_table7(results: Results) -> str:
    names = tuple(results)
    return format_table(
        ("Category",) + names,
        _category_panel(
            results, LOCAL_CATEGORIES, lambda r, c: r.local_analysis.propensity_pct(c)
        ),
    )


def build_table9(results: Results) -> str:
    lines = []
    for name, result in results.items():
        top = result.local_analysis.top_prologue_contributors(5)
        coverage = result.local_analysis.prologue_coverage_pct(5)
        entries = ", ".join(f"{c.name}({c.static_size})" for c in top)
        lines.append(f"{name:10s} coverage={coverage:5.1f}%  top: {entries}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 6 and Table 10
# ---------------------------------------------------------------------------


def build_fig6(results: Results) -> str:
    rows = [
        [name] + list(result.value_profile.top_k_coverage)
        for name, result in results.items()
    ]
    headers = ("Benchmark",) + tuple(f"top-{k}" for k in range(1, 6))
    return format_table(headers, rows)


def build_table10(results: Results) -> str:
    rows = [
        (
            name,
            result.reuse.hit_pct,
            result.reuse.repeated_share_pct(result.repetition.dynamic_repeated),
        )
        for name, result in results.items()
    ]
    return format_table(("Benchmark", "% of all insns", "% of repeated insns"), rows)


def build_table10t(results: Results) -> str:
    """Trace-level reuse (Table 10T): the DTM counterpart of Table 10.

    Three panels over the same runs: trace coverage next to the
    instruction-level buffer's capture rate, the hit-trace length
    distribution, and the Coppieters-style per-class decomposition of
    trace-covered instructions.
    """
    names = tuple(results)
    summary_rows = [
        (
            name,
            result.trace_reuse.coverage_pct,
            result.reuse.hit_pct,
            result.trace_reuse.hit_rate_pct,
            result.trace_reuse.mean_hit_length,
            result.trace_reuse.traces_recorded,
            result.trace_reuse.invalidations,
            result.trace_reuse.occupancy,
        )
        for name, result in results.items()
    ]
    length_rows = [
        [f"len {label}"]
        + [result.trace_reuse.hit_length_pct(label) for result in results.values()]
        for label in LENGTH_BUCKET_LABELS
    ]
    class_rows = [
        [class_name]
        + [result.trace_reuse.class_coverage_pct(class_name) for result in results.values()]
        for class_name in CLASS_NAMES
    ]
    return format_panels(
        [
            (
                "Coverage (trace reuse vs instruction-level buffer)",
                (
                    "Benchmark",
                    "Trace cov %",
                    "Insn buf %",
                    "Hit rate %",
                    "Mean len",
                    "Recorded",
                    "Invalidated",
                    "Resident",
                ),
                summary_rows,
            ),
            ("Hit-trace length (% of hits)", ("Length",) + names, length_rows),
            (
                "Covered instructions by class (% of covered)",
                ("Class",) + names,
                class_rows,
            ),
        ]
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


EXPERIMENTS: Dict[str, Experiment] = {
    exp.exp_id: exp
    for exp in (
        Experiment("table1", "Table 1", "Dynamic and static repetition", build_table1),
        Experiment("fig1", "Figure 1", "Static-instruction coverage of repetition", build_fig1),
        Experiment("fig3", "Figure 3", "Repetition by unique-instance bucket", build_fig3),
        Experiment("table2", "Table 2", "Unique repeatable instances", build_table2),
        Experiment("fig4", "Figure 4", "Instance coverage of repetition", build_fig4),
        Experiment("table3", "Table 3", "Global source analysis", build_table3),
        Experiment("table4", "Table 4", "Function argument repetition", build_table4),
        Experiment("table5", "Table 5", "Local analysis: overall", build_table5),
        Experiment("table6", "Table 6", "Local analysis: repetition share", build_table6),
        Experiment("table7", "Table 7", "Local analysis: propensity", build_table7),
        Experiment("table8", "Table 8", "Memoization candidates", build_table8),
        Experiment("fig5", "Figure 5", "Argument-set specialization coverage", build_fig5),
        Experiment("table9", "Table 9", "Top prologue/epilogue contributors", build_table9),
        Experiment("fig6", "Figure 6", "Global-load value specialization", build_fig6),
        Experiment("table10", "Table 10", "Reuse buffer capture", build_table10),
        Experiment("table10t", "Table 10T", "Trace-level reuse (DTM)", build_table10t),
    )
}

EXPERIMENT_ORDER = tuple(EXPERIMENTS)
