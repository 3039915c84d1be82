"""Span tracing of the library's layers from outside the package.

Each public function on the measured path is wrapped under the name its
caller looks it up by: ``pipeline`` calls ``build_network`` through its own
module globals, the benchmark calls ``fa.batch`` through the package, and
so on.  Nothing under ``src/`` changes.  Spans nest on one thread, so a
span's self time is its duration minus the durations of its direct child
spans.

Spans are summed per phase instance (one set-up or one timed round) and
kept in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import resource
import statistics
import time
from collections import defaultdict
from collections.abc import Sized

#: (module, attribute, layer): every name under which a caller on the
#: measured path finds a traced function.  ``enumerate_products`` is not
#: reported; it is traced so that ``batch``'s self time excludes it.
TARGETS = (
    ("flowallometry", "parse_trades", "ingest.parse_trades"),
    ("flowallometry.pipeline", "enumerate_products", "ingest.enumerate_products"),
    ("flowallometry", "FlowNetwork", "netcore.FlowNetwork"),
    ("flowallometry.netcore", "FlowNetwork", "netcore.FlowNetwork"),
    ("flowallometry.pipeline", "build_network", "netcore.build_network"),
    ("flowallometry", "batch", "pipeline.batch"),
    ("flowallometry.pipeline", "batch", "pipeline.batch"),
    ("flowallometry", "analyze", "flowcalc.analyze"),
    ("flowallometry.flowcalc", "analyze", "flowcalc.analyze"),
    ("flowallometry", "fit", "allometry.fit"),
    ("flowallometry.allometry", "fit", "allometry.fit"),
    ("flowallometry", "inequality_report", "metrics.inequality_report"),
    ("flowallometry.metrics", "inequality_report", "metrics.inequality_report"),
    ("flowallometry", "complexity_table", "metrics.complexity_table"),
    ("flowallometry", "prody_all", "metrics.prody_all"),
    ("flowallometry", "extract", "backbone.extract"),
)


class Stats:
    __slots__ = ("calls", "busy", "self_time", "records_in", "rows_out", "peak_mb")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.records_in = 0      # records handed to build_network
        self.rows_out = 0        # records returned by parse_trades
        self.peak_mb = 0.0       # growth of the process's peak RSS


class Tracer:
    """Installs the wrappers, and sums spans per layer for each phase."""

    def __init__(self):
        self.phases: list[tuple[str, dict[str, Stats]]] = []
        self._current: dict[str, Stats] = defaultdict(Stats)
        self._children: list[float] = []
        self._saved = []

    def __enter__(self):
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            peak = _peak_mb()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = self._children.pop()
                if self._children:
                    self._children[-1] += duration
                stats = self._current[layer]
                stats.calls += 1
                stats.busy += duration
                stats.self_time += duration - children
            stats.peak_mb += _peak_mb() - peak
            if layer == "netcore.build_network":
                records = args[0] if args else kwargs["records"]
                stats.records_in += len(records) if isinstance(records, Sized) else 0
            elif layer == "ingest.parse_trades":
                stats.rows_out += len(result)
            return result
        return traced

    def end_phase(self, kind: str) -> None:
        """Close the current phase instance (``"setup"`` or ``"round"``)."""
        self.phases.append((kind, dict(self._current)))
        self._current = defaultdict(Stats)

    def per_session(self, layer: str, field: str) -> float:
        """Median over set-ups plus median over rounds of one summed field:
        the cost of one set-up and one timed round."""
        total = 0.0
        for kind in ("setup", "round"):
            values = [getattr(stats.get(layer, Stats()), field)
                      for k, stats in self.phases if k == kind]
            if values:
                total += statistics.median(values)
        return total

    def total(self, layer: str, field: str) -> float:
        """One field summed over every phase."""
        return sum(getattr(stats.get(layer, Stats()), field) for _, stats in self.phases)


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
