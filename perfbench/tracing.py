"""In-memory spans around the benchmark's calls into fermitree.

A span holds its name, start, end, parent and pass id, plus process CPU
time and whatever counts the caller attaches (shots, elements, bytes).
Spans stay in memory until the run ends; ``write_jsonl`` dumps them.

With ``memory`` set, each leaf span also records its ``tracemalloc`` peak
above the traced size at entry.  Memory tracing slows allocation-heavy
Python, so it is switched on for one dedicated pass only, whose spans are
kept out of the timing statistics.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    pass_id: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    cpu_s: float = 0.0
    counts: dict = field(default_factory=dict)
    peak_bytes: int | None = None
    memory: bool = False

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by direct child spans."""
        return self.end - self.start - self.child_s


class NullTracer:
    """Stand-in for the timed passes: records nothing, reads no clock."""

    enabled = False

    @contextmanager
    def span(self, name: str, **counts):
        yield Span(name, -1, None, counts=counts)


class Tracer:
    """Records nested spans; the caller sets ``pass_id`` before each pass."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = 0
        self.memory = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        parent_id = self._stack[-1] if self._stack else None
        sp = Span(name, self.pass_id, parent_id, counts=counts, memory=self.memory)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        base = 0
        if self.memory:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        cpu0 = time.process_time()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.cpu_s = time.process_time() - cpu0
            self._stack.pop()
            if parent_id is not None:
                self.spans[parent_id].child_s += sp.end - sp.start
            if self.memory and sp.child_s == 0.0:
                sp.peak_bytes = tracemalloc.get_traced_memory()[1] - base

    def write_jsonl(self, path: str, header: dict) -> None:
        """One header line, then one line per span; times in seconds from
        the first span's start, rounded to microseconds."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for i, sp in enumerate(self.spans):
                row = {"id": i, "name": sp.name, "pass": sp.pass_id, "parent": sp.parent,
                       "start": round(sp.start - origin, 6), "end": round(sp.end - origin, 6),
                       "self_s": round(sp.self_s, 6), "cpu_s": round(sp.cpu_s, 6)}
                if sp.counts:
                    row["counts"] = sp.counts
                if sp.peak_bytes is not None:
                    row["peak_bytes"] = sp.peak_bytes
                if sp.memory:
                    row["memory"] = True
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def layer_metric(tracer: Tracer, span_name: str, stat: str, passes: list[int]) -> float:
    """Median over ``passes`` of one statistic of the spans named ``span_name``.

    ``stat`` is ``s`` (summed self time), ``cpu_s``, ``calls``, a count key
    attached to the spans, or ``peak_mb`` (largest leaf peak of the memory
    pass, in MiB).  A workload that never calls the function reads 0.
    """
    spans = [sp for sp in tracer.spans if sp.name == span_name]
    if stat == "peak_mb":
        peaks = [sp.peak_bytes for sp in spans if sp.peak_bytes is not None]
        return max(peaks, default=0) / 2 ** 20
    totals = dict.fromkeys(passes, 0.0)
    for sp in spans:
        if sp.memory or sp.pass_id not in totals:
            continue
        if stat == "s":
            totals[sp.pass_id] += sp.self_s
        elif stat == "cpu_s":
            totals[sp.pass_id] += sp.cpu_s
        elif stat == "calls":
            totals[sp.pass_id] += 1
        else:
            totals[sp.pass_id] += sp.counts.get(stat, 0)
    return statistics.median(totals.values()) if totals else 0.0
