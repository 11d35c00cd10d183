"""Live metrics for the analysis service.

One :class:`MetricsRegistry` per server aggregates:

* request latencies per endpoint (sliding window; p50/p95/p99),
* job counters (completed/failed, per kind),
* engine-stage timings and counters, merged from every job's
  :class:`~repro.core.profile.StageProfile` (the run's aggregate of
  its ``engine.*`` spans),
* scan-cache statistics merged from every engine's
  :class:`~repro.core.cache.CacheStats`,
* span-duration windows per span name, folded in from every finished
  request trace (``ofence_trace_*``),
* live gauges (queue depth, pool occupancy, executor pool state)
  sampled at render time.

``render_json`` feeds ``GET /metrics``; ``render_prometheus`` renders
the same snapshot in the Prometheus text exposition format
(``GET /metrics?format=prometheus``).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any

from repro.core.cache import CacheStats
from repro.core.profile import StageProfile

#: Latency samples kept per series; old samples age out so percentiles
#: track current behaviour, not the daemon's whole lifetime.
WINDOW = 1024


class LatencyWindow:
    """Sliding window of durations with percentile queries.

    Thread-safe on its own lock: windows are written from request
    handler and job worker threads while ``/metrics`` renders them, and
    ``sorted()`` over a deque that another thread is appending to
    raises ``RuntimeError: deque mutated during iteration``.
    """

    def __init__(self, maxlen: int = WINDOW):
        self._lock = threading.Lock()
        self._samples: deque[float] = deque(maxlen=maxlen)
        self.count = 0
        self.total = 0.0

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)
            self.count += 1
            self.total += seconds

    @staticmethod
    def _pick(ordered: list[float], p: float) -> float | None:
        """Nearest-rank percentile over a sorted sample list.

        The index math is exact on tiny windows: with one sample every
        percentile is that sample; with two, p50 rounds to index 0
        (banker's rounding of 0.5) and p95/p99 clamp to index 1.
        """
        if not ordered:
            return None
        index = min(
            len(ordered) - 1, max(0, round(p / 100 * (len(ordered) - 1)))
        )
        return ordered[index]

    def percentile(self, p: float) -> float | None:
        with self._lock:
            ordered = sorted(self._samples)
        return self._pick(ordered, p)

    def summary(self) -> dict[str, Any]:
        # One locked snapshot for all the quantiles, so the summary is
        # internally consistent (p50 <= p95 <= p99 always holds).
        with self._lock:
            ordered = sorted(self._samples)
            count = self.count
            total = self.total
        return {
            "count": count,
            "mean_ms": (total / count * 1000) if count else None,
            "p50_ms": _ms(self._pick(ordered, 50)),
            "p95_ms": _ms(self._pick(ordered, 95)),
            "p99_ms": _ms(self._pick(ordered, 99)),
        }


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1000


class MetricsRegistry:
    """Thread-safe aggregation point for everything ``/metrics`` shows."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._requests: dict[str, LatencyWindow] = {}
        self._jobs: dict[str, LatencyWindow] = {}
        self._counters: dict[str, int] = {}
        self._stage_seconds: dict[str, float] = {}
        self._stage_counters: dict[str, int] = {}
        self._cache = CacheStats()
        #: Span-duration windows keyed by span name (``engine.scan``,
        #: ``exec.check``, ``job``, ...), fed by ``observe_trace``.
        self._span_windows: dict[str, LatencyWindow] = {}

    # -- recording ---------------------------------------------------------

    def observe_request(
        self, endpoint: str, seconds: float, status: int
    ) -> None:
        with self._lock:
            self._requests.setdefault(endpoint, LatencyWindow()) \
                .record(seconds)
            self.increment(f"http.{endpoint}.{status}", _locked=True)

    def observe_job(self, kind: str, seconds: float, ok: bool) -> None:
        with self._lock:
            self._jobs.setdefault(kind, LatencyWindow()).record(seconds)
            name = f"jobs.{kind}.{'completed' if ok else 'failed'}"
            self.increment(name, _locked=True)

    def increment(self, name: str, amount: int = 1,
                  _locked: bool = False) -> None:
        if _locked:
            self._counters[name] = self._counters.get(name, 0) + amount
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def merge_profile(self, profile: StageProfile) -> None:
        with self._lock:
            for name, seconds in profile.stages.items():
                self._stage_seconds[name] = \
                    self._stage_seconds.get(name, 0.0) + seconds
            for name, value in profile.counters.items():
                self._stage_counters[name] = \
                    self._stage_counters.get(name, 0) + value

    def merge_cache(self, stats: CacheStats) -> None:
        with self._lock:
            self._cache.merge(stats)

    def observe_trace(self, trace) -> None:
        """Fold a finished trace's span durations into the windows.

        Takes anything with an ``export()`` returning span dicts (a
        :class:`repro.trace.model.Trace`).  Open spans (``duration``
        ``None``) are skipped — they never closed, so they carry no
        latency signal.
        """
        spans = trace.export()
        with self._lock:
            self.increment("trace.traces", _locked=True)
            self.increment("trace.spans", len(spans), _locked=True)
            for span in spans:
                duration = span.get("duration")
                if duration is None:
                    continue
                self._span_windows.setdefault(
                    str(span.get("name", "?")), LatencyWindow()
                ).record(float(duration))

    # -- rendering ---------------------------------------------------------

    def snapshot(self, **gauges) -> dict[str, Any]:
        """Everything recorded plus the caller's live gauge groups.

        ``queue``/``pool``/``executor`` keep their historical slots;
        any further keyword (``store``, ...) becomes an
        additional gauge group rendered under ``ofence_<group>_``.
        """
        with self._lock:
            snap: dict[str, Any] = {
                "uptime_seconds": time.monotonic() - self._started,
                "requests": {
                    name: window.summary()
                    for name, window in sorted(self._requests.items())
                },
                "jobs": {
                    name: window.summary()
                    for name, window in sorted(self._jobs.items())
                },
                "counters": dict(sorted(self._counters.items())),
                "stage_seconds": dict(sorted(self._stage_seconds.items())),
                "stage_counters": dict(sorted(self._stage_counters.items())),
                "cache": self._cache.as_dict(),
                "trace_spans": {
                    name: window.summary()
                    for name, window in sorted(self._span_windows.items())
                },
            }
        for name in ("queue", "pool", "executor"):
            snap[name] = gauges.pop(name, None) or {}
        for name in sorted(gauges):
            snap[name] = gauges[name] or {}
        return snap

    def render_json(self, **gauges) -> str:
        return json.dumps(self.snapshot(**gauges), indent=2, default=str)

    def render_prometheus(self, **gauges) -> str:
        """The snapshot in Prometheus text exposition format."""
        snap = self.snapshot(**gauges)
        lines: list[str] = [
            "# TYPE ofence_uptime_seconds gauge",
            f"ofence_uptime_seconds {snap['uptime_seconds']:.3f}",
        ]
        lines.append("# TYPE ofence_request_seconds summary")
        for endpoint, summary in snap["requests"].items():
            label = f'endpoint="{endpoint}"'
            lines.append(
                f"ofence_requests_total{{{label}}} {summary['count']}"
            )
            for q, key in ((0.5, "p50_ms"), (0.95, "p95_ms"),
                           (0.99, "p99_ms")):
                value = summary[key]
                if value is not None:
                    lines.append(
                        f'ofence_request_seconds{{{label},quantile="{q}"}} '
                        f"{value / 1000:.6f}"
                    )
        for name, value in snap["counters"].items():
            metric = "ofence_" + name.replace(".", "_")
            lines.append(f"{metric} {value}")
        for name, seconds in snap["stage_seconds"].items():
            metric = "ofence_stage_seconds_total{stage=\"%s\"}" % name
            lines.append(f"{metric} {seconds:.6f}")
        for name, value in snap["stage_counters"].items():
            metric = "ofence_stage_counter_total{counter=\"%s\"}" % name
            lines.append(f"{metric} {value}")
        for name, value in snap["cache"].items():
            lines.append(f"ofence_cache_{name} {value}")
        if snap["trace_spans"]:
            lines.append("# TYPE ofence_trace_span_seconds summary")
        for name, summary in snap["trace_spans"].items():
            label = f'span="{name}"'
            lines.append(
                f"ofence_trace_spans_total{{{label}}} {summary['count']}"
            )
            for q, key in ((0.5, "p50_ms"), (0.95, "p95_ms"),
                           (0.99, "p99_ms")):
                value = summary[key]
                if value is not None:
                    lines.append(
                        f'ofence_trace_span_seconds{{{label},'
                        f'quantile="{q}"}} {value / 1000:.6f}'
                    )
        for group, values in snap.items():
            if group in _FIXED_SECTIONS or not isinstance(values, dict):
                continue
            prefix = _GROUP_PREFIXES.get(group, f"ofence_{group}_")
            _emit_gauges(lines, prefix, values)
        return "\n".join(lines) + "\n"


#: Snapshot keys that are not live gauge groups.
_FIXED_SECTIONS = frozenset((
    "uptime_seconds", "requests", "jobs", "counters",
    "stage_seconds", "stage_counters", "cache", "trace_spans",
))

#: Legacy metric-name prefixes (everything else is ofence_<group>_).
_GROUP_PREFIXES = {"executor": "ofence_exec_"}


def _number(value: Any) -> float | int | None:
    if isinstance(value, bool):
        return int(value)
    return value if isinstance(value, (int, float)) else None


def _emit_gauges(lines: list[str], prefix: str, values: dict) -> None:
    """Render one gauge group's numerics as ``<prefix><name>``."""
    for name, value in values.items():
        number = _number(value)
        if number is not None:
            lines.append(f"{prefix}{name} {number}")
