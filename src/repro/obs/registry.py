"""Process-local metrics registry and the run's event buffer.

The registry is a single module-level object so instrumentation anywhere in
the codebase can record into it without threading handles through every
call signature.  All recording functions take the same fast exit when
observability is disabled — one module-global boolean test — so the
instrumented hot paths (influence dispatch, cache lookups, radius joins)
pay essentially nothing in the default configuration.

Three metric families:

* **counters** — monotonically increasing floats/ints (``counter_add``);
* **gauges** — last-write-wins values (``gauge_set``);
* **histograms** — ``count/total/min/max`` summaries plus sparse log-scaled
  bucket counts (``histogram_observe``), so merged summaries can report
  p50/p95/p99 quantile estimates; also fed by completed spans with their
  durations.

Plus one ordered **event buffer** of Chrome-trace-shaped dicts (completed
spans, solver telemetry instants, RSS/kernel counter samples; see
:mod:`repro.obs.trace`), which :func:`repro.obs.trace.write_trace` writes
out with the final metrics as the run's one trace file.

Worker processes collect into their own registry and ship
:func:`take_snapshot` dicts back to the parent, which
:func:`merge_snapshot`-s them — counter totals, histogram summaries, and
bucket counts are associative, so ``workers=N`` telemetry aggregates to
exactly the serial totals for work that is deterministic per task; events
arrive with the worker's pid and timestamps intact.

One flag, :func:`enable`/:func:`disable`, turns all collection on and off.
:func:`reset` and :func:`disable` drop the metrics, and the event buffer
with them unless an output file is configured: a configured run keeps its
events across the benchmark scripts' enable/disable toggles until
:func:`repro.obs.trace.write_trace` writes them.
"""

from __future__ import annotations

import logging
import math

#: Histogram bucket width: 8 log-scale buckets per octave (ratio 2^(1/8) ≈
#: 1.09), bounding quantile estimates to within ~9% of the true value.
_BUCKET_WIDTH = math.log(2.0) / 8.0

#: Bucket key for non-positive observations (JSON-safe string key).
_ZERO_BUCKET = "z"


class Histogram:
    """A ``count/total/min/max`` summary plus sparse log-bucket counts.

    Buckets are keyed by ``floor(log(value) / _BUCKET_WIDTH)`` (non-positive
    values land in the ``"z"`` bucket), giving p50/p95/p99 estimates within
    one bucket width (~9%) without storing observations.  Bucket counts add
    under merge, so parallel worker summaries quantile-estimate exactly like
    one serial registry would.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets: dict = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        key = int(math.log(value) // _BUCKET_WIDTH) if value > 0.0 else _ZERO_BUCKET
        self.buckets[key] = self.buckets.get(key, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (ceil-rank over the bucket counts).

        Returns the bucket's upper edge clamped to ``[min, max]``; exact for
        the extremes, within one bucket width (~9%) in between.  Falls back
        to linear count/max interpolation when bucket counts are missing
        (summaries merged from a pre-bucket snapshot).
        """
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = self.buckets.get(_ZERO_BUCKET, 0)
        if cumulative >= rank:
            return min(self.min, 0.0)
        for key in sorted(k for k in self.buckets if k != _ZERO_BUCKET):
            cumulative += self.buckets[key]
            if cumulative >= rank:
                upper = math.exp((key + 1) * _BUCKET_WIDTH)
                return max(self.min, min(self.max, upper))
        return self.max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": {str(key): count for key, count in self.buckets.items()},
        }

    def merge_dict(self, other: dict) -> None:
        if not other.get("count"):
            return
        self.count += int(other["count"])
        self.total += float(other["total"])
        self.min = min(self.min, float(other["min"]))
        self.max = max(self.max, float(other["max"]))
        for key, count in other.get("buckets", {}).items():
            key = key if key == _ZERO_BUCKET else int(key)
            self.buckets[key] = self.buckets.get(key, 0) + int(count)


class MetricsRegistry:
    """All metrics of one process, in insertion order."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    def histogram(self, name: str) -> Histogram:
        found = self.histograms.get(name)
        if found is None:
            found = self.histograms[name] = Histogram()
        return found


class _ObsState:
    __slots__ = ("enabled", "registry", "events", "out_path", "span_stack", "last_sample")

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        # Chrome-trace-shaped event dicts (see repro.obs.trace).
        self.events: list[dict] = []
        # The trace file this process's events are bound for.  In a pool
        # worker it names the parent's file, next to which the worker
        # spills what it never shipped.
        self.out_path: str | None = None
        self.span_stack: list[str] = []
        self.last_sample = 0.0


_STATE = _ObsState()


# ------------------------------------------------------------- lifecycle


def enabled() -> bool:
    """Whether observability collection is on in this process."""
    return _STATE.enabled


def enable(out: str | None = None) -> None:
    """Turn collection on; ``out`` optionally names the trace output path."""
    _STATE.enabled = True
    if out is not None:
        _STATE.out_path = str(out)


def disable() -> None:
    """Turn collection off and drop the recorded metrics (see :func:`reset`)."""
    _STATE.enabled = False
    reset()


def reset() -> None:
    """Clear all recorded metrics (collection state unchanged).

    The event buffer is cleared too unless an output file is configured:
    a traced run's events outlive the benchmark sections that toggle
    collection, until :func:`repro.obs.trace.write_trace` writes them.
    """
    _STATE.registry = MetricsRegistry()
    _STATE.span_stack = []
    if _STATE.out_path is None:
        _STATE.events = []


def configured_out() -> str | None:
    """The trace output path configured via :func:`enable`, if any."""
    return _STATE.out_path


def get_registry() -> MetricsRegistry:
    return _STATE.registry


def worker_state() -> tuple[bool, str | None]:
    """The obs state every pool task carries to its worker: the collection
    flag and the output path (the worker spills next to it at teardown)."""
    return _STATE.enabled, _STATE.out_path


def sync_worker_state(state: tuple[bool, str | None]) -> None:
    """Match this (worker) process to the parent's :func:`worker_state`.

    An enable/disable transition resets the registry so snapshots never mix
    work from before and after the toggle; under a configured output the
    pending events survive it and ship with the next snapshot or the
    teardown spill.
    """
    want_enabled, _STATE.out_path = state
    if _STATE.enabled != want_enabled:
        _STATE.enabled = want_enabled
        reset()


# ------------------------------------------------------------- recording


def counter_add(name: str, value: float = 1) -> None:
    """Add ``value`` to counter ``name`` (no-op when disabled)."""
    if not _STATE.enabled:
        return
    counters = _STATE.registry.counters
    counters[name] = counters.get(name, 0) + value


def counter_value(name: str) -> float:
    """Current value of a counter (0 if never incremented)."""
    return _STATE.registry.counters.get(name, 0)


def gauge_set(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (no-op when disabled)."""
    if not _STATE.enabled:
        return
    _STATE.registry.gauges[name] = value


def histogram_observe(name: str, value: float) -> None:
    """Record one observation into histogram ``name`` (no-op when disabled)."""
    if not _STATE.enabled:
        return
    _STATE.registry.histogram(name).observe(value)


# ------------------------------------------------------- snapshot / merge


def metrics() -> dict:
    """The registry as plain JSON-ready dicts: counters, gauges, and the
    histogram summaries (with their p50/p95/p99 estimates)."""
    registry = _STATE.registry
    return {
        "counters": dict(registry.counters),
        "gauges": dict(registry.gauges),
        "histograms": {
            name: histogram.as_dict() for name, histogram in registry.histograms.items()
        },
    }


def take_snapshot(reset_after: bool = False) -> dict:
    """A picklable dict of everything recorded so far (metrics and events).

    ``reset_after=True`` atomically clears the registry and the event
    buffer, which is how pool workers ship per-task deltas back to the
    parent without double counting across tasks.
    """
    snapshot = {**metrics(), "events": list(_STATE.events)}
    if reset_after:
        reset()
        _STATE.events = []
    return snapshot


def merge_snapshot(snapshot: dict | None, force: bool = False) -> None:
    """Fold a :func:`take_snapshot` dict into this process's registry.

    Counters add, gauges last-write-wins, histogram summaries merge, events
    append in call order.  No-op when disabled or for ``None`` snapshots;
    ``force=True`` bypasses the enabled gate (used when folding worker
    spill files into a run being written out).
    """
    if (not _STATE.enabled and not force) or not snapshot:
        return
    registry = _STATE.registry
    for name, value in snapshot.get("counters", {}).items():
        registry.counters[name] = registry.counters.get(name, 0) + value
    registry.gauges.update(snapshot.get("gauges", {}))
    for name, summary in snapshot.get("histograms", {}).items():
        registry.histogram(name).merge_dict(summary)
    _STATE.events.extend(snapshot.get("events", ()))


# --------------------------------------------------------------- logging


def get_logger(name: str = "repro") -> logging.Logger:
    """The shared obs logger hierarchy (stdlib logging, never ``print``)."""
    return logging.getLogger(name)
