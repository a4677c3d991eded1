"""The run's one trace: clock-aligned Chrome/Perfetto events.

Completed :mod:`repro.obs.spans` become Chrome-trace *complete* events
(``"ph": "X"``) attributed with the recording process id and native thread
id, so one run that fans restarts or harness cells out over persistent
worker pools (:mod:`repro.parallel.pool`) renders as a per-process timeline
in ``chrome://tracing`` / `Perfetto <https://ui.perfetto.dev>`_.  Solver
telemetry rides as *instant* events (``"ph": "i"``), and :func:`write_trace`
puts the final counters, gauges and histogram summaries in the file's
``otherData``, so the trace is the whole record of a run.

**Clock alignment.**  Span durations come from ``time.perf_counter()``
(``CLOCK_MONOTONIC``), which on Linux is a *system-wide* clock: every forked
worker reads the same timeline as the parent.  Trace timestamps map that
timeline onto the epoch with a per-process offset ``time.time() -
time.perf_counter()`` captured once (and inherited verbatim by forked
children, so parent and workers share one mapping by construction).  Within
a process, timestamps are therefore strictly monotone; across processes
they align to well under a millisecond — a worker's task event lands inside
the parent's ``pool.map`` window.

**Transport.**  Events accumulate in the registry's event buffer and ride
the same :func:`~repro.obs.registry.take_snapshot` / ``merge_snapshot``
path worker metrics already use, so a worker's events arrive in the parent
with the worker's pid/tid/timestamps intact.  Events a worker never got to
ship (a pool torn down right after spawn, work recorded after its last
task) are flushed by :func:`flush_worker_spill` — registered via
``atexit`` *and* ``multiprocessing.util.Finalize`` in every pool worker —
into the spill directory next to the output file named in the obs state
each task carries, and :func:`write_trace` folds the spill files back in
(and removes the directory) before writing.

**Sampling.**  While an output file is configured, span boundaries
(throttled to one sample per ~50 ms) also emit Chrome *counter* events
(``"ph": "C"``) for the process RSS and the kernel dispatch counters, so
the timeline shows memory and kernel activity alongside the spans.

Enable with ``--trace-out`` on the CLI / bench scripts or by exporting
``REPRO_OBS_TRACE=/path/to/trace.json``.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
import uuid
from pathlib import Path

from repro import env
from repro.obs import registry as _registry
from repro.obs.registry import _STATE

#: Environment variable naming the trace output path; setting it enables
#: collection (read by the CLI and the bench scripts, not at import).
TRACE_ENV = env.OBS_TRACE.name

#: Minimum seconds between two boundary samples of the RSS/kernel counters.
_SAMPLE_INTERVAL_S = 0.05

#: Counter series sampled on span boundaries (prefix match on counters).
_SAMPLED_COUNTER_PREFIXES = ("influence.dispatch.",)

_EPOCH_OFFSET: float | None = None


def _epoch_offset() -> float:
    """``time.time() - time.perf_counter()``, captured once per lineage.

    Forked children inherit the parent's cached value, which is exactly what
    clock alignment wants: one shared mapping from the system-wide monotonic
    clock to the epoch (see module docstring).
    """
    global _EPOCH_OFFSET
    if _EPOCH_OFFSET is None:
        _EPOCH_OFFSET = time.time() - time.perf_counter()
    return _EPOCH_OFFSET


def _ts_us(perf_t: float) -> int:
    return int((perf_t + _epoch_offset()) * 1e6)


# ------------------------------------------------------------- buffer


def take_trace(reset_after: bool = False) -> list[dict]:
    """The buffered events (optionally draining the buffer)."""
    events = list(_STATE.events)
    if reset_after:
        _STATE.events = []
    return events


# ------------------------------------------------------------- recording


def emit_complete(
    name: str,
    started_perf: float,
    duration_s: float,
    cat: str = "span",
    args: dict | None = None,
) -> None:
    """Record one Chrome *complete* event from perf-counter coordinates."""
    if not _STATE.enabled:
        return
    event = {
        "name": name,
        "ph": "X",
        "cat": cat,
        "ts": _ts_us(started_perf),
        "dur": max(0, int(duration_s * 1e6)),
        "pid": os.getpid(),
        "tid": threading.get_native_id(),
    }
    if args:
        event["args"] = args
    _STATE.events.append(event)


def emit_counter(name: str, values: dict) -> None:
    """Record one Chrome *counter* sample (one track per dict key)."""
    if not _STATE.enabled:
        return
    _STATE.events.append(
        {
            "name": name,
            "ph": "C",
            "cat": "counter",
            "ts": _ts_us(time.perf_counter()),
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
            "args": {key: float(value) for key, value in values.items()},
        }
    )


def emit_instant(name: str, args: dict | None = None) -> None:
    """Record one Chrome *instant* event (process scope)."""
    if not _STATE.enabled:
        return
    event = {
        "name": name,
        "ph": "i",
        "s": "p",
        "cat": "mark",
        "ts": _ts_us(time.perf_counter()),
        "pid": os.getpid(),
        "tid": threading.get_native_id(),
    }
    if args:
        event["args"] = args
    _STATE.events.append(event)


def read_rss_mb() -> float | None:
    """Current resident set size in MiB (Linux ``/proc``; None elsewhere)."""
    try:
        with open("/proc/self/status") as stream:
            for line in stream:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:  # pragma: no cover - non-Linux
        return None
    return None


def maybe_sample() -> None:
    """Sample the RSS / kernel-dispatch counters at a span boundary.

    Only while an output file is configured (an in-process consumer of the
    registry has no use for the samples), and throttled to one sample per
    ~50 ms so deep span nests don't flood the timeline.
    """
    if _STATE.out_path is None:
        return
    now = time.perf_counter()
    if now - _STATE.last_sample >= _SAMPLE_INTERVAL_S:
        _STATE.last_sample = now
        sample_process_counters()


def sample_process_counters() -> None:
    """One counter sample: RSS plus the kernel dispatch counters."""
    rss = read_rss_mb()
    if rss is not None:
        emit_counter("rss_mb", {"rss_mb": rss})
    registry = _STATE.registry
    dispatch = {
        name: value
        for name, value in registry.counters.items()
        if name.startswith(_SAMPLED_COUNTER_PREFIXES)
    }
    if dispatch:
        emit_counter("kernel_dispatch", dispatch)


# -------------------------------------------------------- worker spill


def _spill_dir() -> Path | None:
    out = _STATE.out_path
    return Path(f"{out}.spill") if out is not None else None


def flush_worker_spill() -> Path | None:
    """Write this process's unshipped snapshot (metrics + events) to the
    spill directory next to the configured output, if anything is pending.

    Registered in pool workers via ``atexit`` *and*
    ``multiprocessing.util.Finalize`` (forked multiprocessing children exit
    through ``os._exit``, which skips ``atexit``); the double registration
    is safe because the first flush drains the registry, making the second
    a no-op.
    """
    directory = _spill_dir()
    if directory is None:
        return None
    snapshot = _registry.take_snapshot(reset_after=True)
    if not any(snapshot.values()):
        return None
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"obs-spill-{os.getpid()}-{uuid.uuid4().hex[:8]}.json"
    path.write_text(json.dumps(snapshot, default=_jsonable))
    return path


def register_worker_flush() -> None:
    """Hook :func:`flush_worker_spill` into this (worker) process's exits."""
    atexit.register(flush_worker_spill)
    try:
        from multiprocessing import util

        util.Finalize(None, flush_worker_spill, exitpriority=100)
    except Exception:  # pragma: no cover - multiprocessing always present
        pass


def collect_spills() -> int:
    """Fold every spill file of the configured output into this registry.

    Returns the number of spill files consumed.  Each is deleted after a
    successful merge, so repeated collects never double count, and the
    directory goes once it is empty.
    """
    directory = _spill_dir()
    if directory is None or not directory.is_dir():
        return 0
    consumed = 0
    for path in sorted(directory.glob("obs-spill-*.json")):
        try:
            snapshot = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        _registry.merge_snapshot(snapshot, force=True)
        path.unlink(missing_ok=True)
        consumed += 1
    try:
        directory.rmdir()
    except OSError:  # an unreadable spill file stays for inspection
        pass
    return consumed


# ------------------------------------------------------------ writing


def _jsonable(value):
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def to_chrome(events: list[dict], other_data: dict | None = None) -> dict:
    """Wrap raw trace events in the Chrome trace-file envelope.

    Adds ``process_name`` metadata per pid (the writing process is ``main``,
    every other pid a ``worker``) and sorts events by timestamp.
    """
    events = sorted(events, key=lambda event: (event.get("ts", 0), event.get("pid", 0)))
    own_pid = os.getpid()
    metadata = []
    for pid in sorted({event["pid"] for event in events if "pid" in event}):
        name = "main" if pid == own_pid else f"worker-{pid}"
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": name},
            }
        )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": other_data or {},
    }


def write_trace(path: str | os.PathLike | None = None) -> Path:
    """Merge worker spills and write the run's trace JSON to ``path``.

    ``path`` defaults to the output configured via :func:`enable`.  The
    final counters, gauges and histogram summaries ride in ``otherData``,
    so the file is self-contained for :mod:`repro.obs.report`.  Writing
    closes the output: the event buffer is handed to the file and the
    configured path cleared (the metrics stay for ``summary_table``).
    """
    if path is None:
        path = _STATE.out_path
    if path is None:
        raise ValueError("no trace output path configured; pass one or enable(out=...)")
    collect_spills()
    other = {
        name: values for name, values in _registry.metrics().items() if values
    }
    try:
        from repro.obs.ledger import git_commit

        other["commit"] = git_commit()
    except Exception:  # pragma: no cover - git metadata is best-effort
        pass
    data = to_chrome(take_trace(reset_after=True), other)
    _STATE.out_path = None
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, default=_jsonable) + "\n")
    return path


def validate_chrome_trace(data: dict) -> list[str]:
    """Schema-check a Chrome trace dict; returns human-readable problems.

    Checks the envelope, the per-event required fields, phase-specific
    fields (complete events need a non-negative ``dur``), and per-pid
    timestamp monotonicity of the complete events.
    """
    problems: list[str] = []
    if not isinstance(data, dict) or not isinstance(data.get("traceEvents"), list):
        return ["top level must be an object with a traceEvents list"]
    last_ts: dict[int, int] = {}
    for index, event in enumerate(data["traceEvents"]):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "ts"):
            if key not in event:
                problems.append(f"{where}: missing required field {key!r}")
        ph = event.get("ph")
        if ph not in ("X", "C", "M", "i", "B", "E"):
            problems.append(f"{where}: unknown phase {ph!r}")
        if not isinstance(event.get("ts", 0), (int, float)) or event.get("ts", 0) < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            if not isinstance(event.get("dur"), (int, float)) or event["dur"] < 0:
                problems.append(f"{where}: complete event needs non-negative dur")
            pid = event.get("pid")
            if isinstance(pid, int):
                if event["ts"] < last_ts.get(pid, 0):
                    problems.append(
                        f"{where}: ts moved backwards within pid {pid} "
                        "(events must sort monotone per process)"
                    )
                last_ts[pid] = event["ts"]
        if ph == "i" and event.get("s") not in (None, "t", "p", "g"):
            problems.append(f"{where}: instant scope must be one of t/p/g")
    return problems
