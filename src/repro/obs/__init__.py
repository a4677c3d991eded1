"""Observability layer: metrics registry, spans, and the JSONL run sink.

Instrumented code imports this package and records unconditionally::

    from repro import obs

    obs.counter_add("influence.dispatch.idarray")
    with obs.span("coverage.build", lambda_m=lambda_m):
        ...

Collection is **off by default**: every recording call exits on one boolean
test, so the instrumentation is safe to leave in the hottest paths.  It is
turned on by the CLI's ``--obs-out`` / ``--obs-summary`` flags, the
``REPRO_OBS_OUT`` environment variable (read by the CLI and the benchmark
script), or programmatically via :func:`enable`.

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
    OBS_OUT_ENV,
    SPILL_DIR_ENV,
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
    record_event,
    reset,
    take_snapshot,
)
from repro.obs.report import render_report
from repro.obs.sink import read_jsonl, summary_table, write_jsonl
from repro.obs.spans import Span, span
from repro.obs.trace import (
    TRACE_ENV,
    collect_spills,
    emit_counter,
    emit_instant,
    flush_worker_spill,
    register_worker_flush,
    set_trace_collection,
    take_trace,
    trace_disable,
    trace_enable,
    trace_enabled,
    trace_reset,
    validate_chrome_trace,
    write_trace,
)

__all__ = [
    "LEDGER_ENV",
    "OBS_OUT_ENV",
    "SPILL_DIR_ENV",
    "TRACE_ENV",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "collect_spills",
    "configured_out",
    "counter_add",
    "counter_value",
    "disable",
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
    "read_jsonl",
    "read_ledger",
    "record_event",
    "record_run",
    "register_worker_flush",
    "render_report",
    "reset",
    "set_trace_collection",
    "span",
    "summary_table",
    "take_snapshot",
    "take_trace",
    "trace_disable",
    "trace_enable",
    "trace_enabled",
    "trace_reset",
    "validate_chrome_trace",
    "write_trace",
]
