"""Observability layer: metrics registry, spans, and the run's trace.

Instrumented code imports this package and records unconditionally::

    from repro import obs

    obs.counter_add("influence.dispatch.idarray")
    with obs.span("coverage.build", lambda_m=lambda_m):
        ...

Collection is **off by default**: every recording call exits on one boolean
test, so the instrumentation is safe to leave in the hottest paths.  It is
turned on by the CLI's ``--trace-out`` / ``--obs-summary`` flags, the
``REPRO_OBS_TRACE`` environment variable (read by the CLI and the benchmark
script), or programmatically via :func:`enable`.  A run's one output file
is its Chrome trace (:func:`write_trace`): spans, solver telemetry, and the
final counters, gauges and histogram summaries.

See ``DESIGN.md`` §8 for the metric naming scheme and merge semantics.
"""

from repro.obs.ledger import (
    LEDGER_ENV,
    git_commit,
    instance_features,
    ledger_path,
    read_ledger,
    record_run,
)
from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    configured_out,
    counter_add,
    counter_value,
    disable,
    enable,
    enabled,
    gauge_set,
    get_logger,
    get_registry,
    histogram_observe,
    merge_snapshot,
    metrics,
    reset,
    sync_worker_state,
    take_snapshot,
    worker_state,
)
from repro.obs.report import render_report, summary_table
from repro.obs.spans import Span, span
from repro.obs.trace import (
    TRACE_ENV,
    collect_spills,
    emit_complete,
    emit_counter,
    emit_instant,
    flush_worker_spill,
    register_worker_flush,
    take_trace,
    validate_chrome_trace,
    write_trace,
)

__all__ = [
    "LEDGER_ENV",
    "TRACE_ENV",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "collect_spills",
    "configured_out",
    "counter_add",
    "counter_value",
    "disable",
    "emit_complete",
    "emit_counter",
    "emit_instant",
    "enable",
    "enabled",
    "flush_worker_spill",
    "gauge_set",
    "get_logger",
    "get_registry",
    "git_commit",
    "histogram_observe",
    "instance_features",
    "ledger_path",
    "merge_snapshot",
    "metrics",
    "read_ledger",
    "record_run",
    "register_worker_flush",
    "render_report",
    "reset",
    "span",
    "summary_table",
    "sync_worker_state",
    "take_snapshot",
    "take_trace",
    "validate_chrome_trace",
    "worker_state",
    "write_trace",
]
