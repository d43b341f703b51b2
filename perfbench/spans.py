"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's own files, around calls
into each layer's public functions. Each span has a name of the form
``<layer>:<call>``, a start, an end, the index of its parent span, and
an identifier shared by every span of one program (or one suite pass).
Nothing is written until the run ends; then :meth:`Tracer.write` emits
Chrome trace-event JSON and :meth:`Tracer.self_times` gives each
layer's self time (its spans' durations minus their children's).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace_id: str
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; children never outlive their parent."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, trace_id: Optional[str] = None, **args) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        if trace_id is None:
            trace_id = self.spans[parent].trace_id if parent is not None else ""
        record = Span(name, time.perf_counter(), 0.0, parent, trace_id, args)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, **args) -> None:
        """Record a closed child of the innermost open span.

        Used for phases that a layer times itself (the run manifest's
        assemble / simulate / report seconds), which the benchmark cannot
        wrap from outside.
        """
        parent = self._open[-1]
        trace_id = self.spans[parent].trace_id
        self.spans.append(Span(name, start, end, parent, trace_id, args))

    def total(self, name: str, first: int = 0) -> float:
        """Summed duration of the spans called ``name``, from index ``first`` on."""
        return sum(span.seconds for span in self.spans[first:] if span.name == name)

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: span durations minus their children's."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.seconds
        layers: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            layers[span.layer] = layers.get(span.layer, 0.0) + span.seconds - children[index]
        return layers

    def chrome_trace(self) -> dict:
        origin = min((span.start for span in self.spans), default=0.0)
        pid = os.getpid()
        events = []
        for index, span in enumerate(self.spans):
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.seconds * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "args": dict(
                        span.args, span=index, parent=span.parent, id=span.trace_id
                    ),
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str, metadata: Dict[str, object]) -> None:
        trace = self.chrome_trace()
        trace["metadata"] = metadata
        with open(path, "w") as handle:
            json.dump(trace, handle)


class NullTracer:
    """Stand-in for untraced operations: records nothing."""

    def span(self, name: str, trace_id: Optional[str] = None, **args):
        return nullcontext()

    def add(self, name: str, start: float, end: float, **args) -> None:
        pass


def format_self_times(layers: Dict[str, float], wall: float) -> str:
    """A per-layer self-time table, largest first, with shares of ``wall``."""
    lines = [f"{'layer':<22} {'self s':>10} {'share':>7}"]
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        lines.append(f"{layer:<22} {seconds:>10.4f} {100.0 * seconds / wall:>6.1f}%")
    total = sum(layers.values())
    lines.append(f"{'(sum)':<22} {total:>10.4f} {100.0 * total / wall:>6.1f}%")
    return "\n".join(lines)
