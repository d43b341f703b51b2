"""The paper's analyses: repetition tracking and its source attribution.

* :class:`RepetitionTracker` — Section 3/4 methodology (Tables 1-2,
  Figures 1/3/4).
* :class:`GlobalSourceAnalyzer` — Section 5.1 global slice analysis
  (Table 3).
* :class:`FunctionAnalyzer` — Section 5.2/6 function-level analysis
  (Tables 4/8, Figure 5).
* :class:`LocalAnalyzer` — Section 5.3 within-function analysis
  (Tables 5/6/7/9).
* :class:`ReuseBuffer` — Section 7 hardware reuse buffer (Table 10).
* :class:`GlobalLoadValueProfiler` — Section 6 value specialization
  (Figure 6).

Composition rule: analyzers that split counts by "repeated" take the
shared :class:`RepetitionTracker`, which must be attached to the
simulator *before* them so its per-step flag is fresh.
"""

from repro.core.function_analysis import FunctionAnalysisReport, FunctionAnalyzer
from repro.core.global_analysis import GlobalAnalysisReport, GlobalSourceAnalyzer
from repro.core.local_analysis import LocalAnalysisReport, LocalAnalyzer
from repro.core.repetition import (
    DEFAULT_BUFFER_CAPACITY,
    RepetitionReport,
    RepetitionTracker,
)
from repro.core.reuse_buffer import ReuseBuffer, ReuseBufferReport
from repro.core.value_prediction import (
    ContextPredictor,
    HybridPredictor,
    LastValuePredictor,
    StridePredictor,
    ValuePredictionAnalyzer,
    ValuePredictionReport,
)
from repro.core.value_profile import GlobalLoadValueProfiler, ValueProfileReport

__all__ = [
    "ContextPredictor",
    "DEFAULT_BUFFER_CAPACITY",
    "FunctionAnalysisReport",
    "FunctionAnalyzer",
    "GlobalAnalysisReport",
    "GlobalLoadValueProfiler",
    "GlobalSourceAnalyzer",
    "HybridPredictor",
    "LastValuePredictor",
    "LocalAnalysisReport",
    "LocalAnalyzer",
    "RepetitionReport",
    "RepetitionTracker",
    "ReuseBuffer",
    "ReuseBufferReport",
    "StridePredictor",
    "ValuePredictionAnalyzer",
    "ValuePredictionReport",
    "ValueProfileReport",
]
