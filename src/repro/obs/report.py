"""Bottleneck reports over traces and ledgers, and the live run summary.

:func:`render_report` sniffs the file format — Chrome trace JSON
(``traceEvents``) or ledger JSONL — and renders the matching fixed-width
report:

* **trace** — restart-bench time attribution (spawn / export / attach /
  warm-up / compute / reduce, against the pool-map wall time), the BLS
  sweep-phase breakdown, the exchange screen's rows / survivors next to
  the sweep's scans and skips, the kernel dispatch table, per-pid RSS ranges,
  and the run's metrics from ``otherData``: span timings with p50/p95/p99,
  counters, gauges and the other histograms.
* **ledger** — per-(kind, engine) outcome summary across recorded runs.

:func:`summary_table` renders the same metric tables from the live
registry (the CLI's ``--obs-summary``).  Exposed on the CLI as
``repro obs report`` and as ``scripts/obs_report.py``.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path

from repro.obs import registry as _registry

#: Span names whose total duration forms the restart-bench attribution.
_ATTRIBUTION_SPANS = (
    ("spawn", "pool.spawn"),
    ("export", "pool.export"),
    ("attach", "pool.attach"),
    ("compute", "pool.task"),
    ("reduce", "restart.reduce"),
)


def detect_format(path: str | os.PathLike) -> str:
    """``"trace"`` or ``"ledger"`` for the file at ``path``; raises
    :class:`ValueError` for anything else."""
    text = Path(path).read_text()
    try:
        whole = json.loads(text)
    except json.JSONDecodeError:
        whole = None
    if isinstance(whole, dict) and "traceEvents" in whole:
        return "trace"
    first_line = text.lstrip().split("\n", 1)[0]
    try:
        first = json.loads(first_line)
    except json.JSONDecodeError:
        first = None
    if isinstance(first, dict) and str(first.get("schema", "")).startswith("obs-ledger"):
        return "ledger"
    raise ValueError(f"{path}: neither a Chrome trace nor an obs ledger")


def _table(rows: list[tuple], headers: tuple) -> list[str]:
    """Fixed-width table lines: first column left, the rest right-aligned."""
    cells = [tuple(str(cell) for cell in row) for row in (headers, *rows)]
    widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        first, *rest = (cell.ljust(widths[0]) if col == 0 else cell.rjust(widths[col])
                        for col, cell in enumerate(row))
        lines.append("  " + "  ".join((first, *rest)))
        if index == 0:
            lines.append("  " + "-" * (sum(widths) + 2 * (len(widths) - 1)))
    return lines


# --------------------------------------------------------------- trace


def _complete_events(data: dict) -> list[dict]:
    return [event for event in data.get("traceEvents", []) if event.get("ph") == "X"]


def restart_attribution(data: dict) -> dict:
    """Aggregate restart-bench timings from a Chrome trace dict.

    Returns totals (seconds) for each attribution bucket, the pool-map wall
    time, the worker pids seen, and the derived warm-up estimate: the first
    ``pool.map`` window's wall time minus its computed-in-parallel share —
    i.e. fork/import/attach latency the parent observed but no worker span
    accounts for.
    """
    events = _complete_events(data)
    totals = {key: 0.0 for key, _ in _ATTRIBUTION_SPANS}
    counts = {key: 0 for key, _ in _ATTRIBUTION_SPANS}
    by_name = {name: key for key, name in _ATTRIBUTION_SPANS}
    maps = []
    worker_pids: set[int] = set()
    parent_pids: set[int] = set()
    for event in events:
        name = event.get("name")
        key = by_name.get(name)
        duration_s = event.get("dur", 0) / 1e6
        if key is not None:
            totals[key] += duration_s
            counts[key] += 1
            if name in ("pool.task", "pool.attach"):
                worker_pids.add(event.get("pid"))
            else:
                parent_pids.add(event.get("pid"))
        elif name == "pool.map":
            maps.append(event)
            parent_pids.add(event.get("pid"))
    map_wall_s = sum(event.get("dur", 0) for event in maps) / 1e6
    warmup_s = 0.0
    if maps:
        first = min(maps, key=lambda event: event.get("ts", 0))
        start, end = first["ts"], first["ts"] + first.get("dur", 0)
        inner_tasks_us = sum(
            event.get("dur", 0)
            for event in events
            if event.get("name") in ("pool.task", "pool.attach")
            and start <= event.get("ts", 0) <= end
        )
        lanes = max(1, len(worker_pids))
        warmup_s = max(0.0, (first.get("dur", 0) - inner_tasks_us / lanes) / 1e6)
    return {
        "totals_s": totals,
        "counts": counts,
        "map_wall_s": map_wall_s,
        "map_count": len(maps),
        "warmup_s": warmup_s,
        "worker_pids": sorted(pid for pid in worker_pids if pid is not None),
        "parent_pids": sorted(pid for pid in parent_pids if pid is not None),
    }


def bls_phase_breakdown(data: dict) -> dict:
    """Sums of the BLS sweep phases over the ``bls.sweep`` events."""
    phases = ("screen", "exchange", "release", "topup")
    row = {"sweeps": 0, "wall_s": 0.0, **{f"{phase}_s": 0.0 for phase in phases}}
    for event in _complete_events(data):
        if event.get("name") != "bls.sweep":
            continue
        args = event.get("args", {})
        row["sweeps"] += 1
        row["wall_s"] += event.get("dur", 0) / 1e6
        for phase in phases:
            row[f"{phase}_s"] += float(args.get(f"{phase}_s", 0.0))
    return row


def bls_screen_precision(data: dict) -> dict:
    """The exchange screen's precision from the run's final counters: rows
    screened, rows that survived to an exact scan, and the scans and
    certified skips of the BLS sweep loop (empty when no BLS ran)."""
    counters = data.get("otherData", {}).get("counters", {})
    names = {
        "rows": "bls.screen.rows",
        "survivors": "bls.screen.survivors",
        "scanned": "bls.dirty.scanned",
        "skipped": "bls.dirty.skipped",
    }
    if names["rows"] not in counters:
        return {}
    return {key: int(counters.get(name, 0)) for key, name in names.items()}


def kernel_dispatch_table(data: dict) -> dict:
    """Summed ``kernel.dispatch`` instant deltas (the instrumented passes)."""
    passes: dict[str, float] = defaultdict(float)
    for event in data.get("traceEvents", []):
        if event.get("ph") == "i" and event.get("name") == "kernel.dispatch":
            for name, value in event.get("args", {}).items():
                passes[name] += float(value)
    return dict(passes)


def rss_by_pid(data: dict) -> dict:
    """Per-pid (min, max) RSS in MiB from the sampled counter events."""
    ranges: dict[int, tuple[float, float]] = {}
    for event in data.get("traceEvents", []):
        if event.get("ph") == "C" and event.get("name") == "rss_mb":
            value = float(event.get("args", {}).get("rss_mb", 0.0))
            pid = event.get("pid")
            low, high = ranges.get(pid, (value, value))
            ranges[pid] = (min(low, value), max(high, value))
    return ranges


def trace_report(data: dict) -> str:
    lines = ["== trace report =="]
    other = data.get("otherData", {})
    if other.get("commit"):
        lines.append(f"commit: {other['commit']}")

    attribution = restart_attribution(data)
    totals = attribution["totals_s"]
    if any(totals.values()) or attribution["map_count"]:
        lines.append("")
        lines.append("-- restart bench time attribution --")
        lines.append(
            f"pool.map wall: {attribution['map_wall_s']:.4f}s over "
            f"{attribution['map_count']} map(s); worker pids: "
            f"{attribution['worker_pids'] or '(none)'}"
        )
        wall = attribution["map_wall_s"] or sum(totals.values()) or 1.0
        rows = []
        for key, _ in _ATTRIBUTION_SPANS:
            rows.append(
                (key, attribution["counts"][key], f"{totals[key]:.4f}",
                 f"{100.0 * totals[key] / wall:.1f}%")
            )
        rows.insert(3, ("warm-up", "-", f"{attribution['warmup_s']:.4f}",
                        f"{100.0 * attribution['warmup_s'] / wall:.1f}%"))
        lines.extend(_table(rows, ("bucket", "count", "total_s", "of map wall")))
        lines.append(
            "  (compute sums worker-side task time across lanes; warm-up is the"
        )
        lines.append(
            "   first map's wall minus its per-lane compute — fork/import cost)"
        )

    phases = bls_phase_breakdown(data)
    if phases["sweeps"]:
        lines.append("")
        lines.append("-- BLS sweep phases --")
        keys = ("wall_s", "screen_s", "exchange_s", "release_s", "topup_s")
        row = (phases["sweeps"], *(f"{phases[key]:.4f}" for key in keys))
        lines.extend(_table([row], ("sweeps", *keys)))

    precision = bls_screen_precision(data)
    if precision:
        lines.append("")
        lines.append("-- BLS exchange screen --")
        keys = ("rows", "survivors", "scanned", "skipped")
        lines.extend(_table([tuple(precision[key] for key in keys)], keys))
        lines.append(
            "  (rows = rows screened, survivors = rows the screen could not "
            "clear; scanned/skipped = bls.dirty.*)"
        )

    kernels = kernel_dispatch_table(data)
    if kernels:
        lines.append("")
        lines.append("-- kernel dispatch in instrumented passes --")
        rows = [(name, f"{value:.0f}") for name, value in sorted(kernels.items())]
        lines.extend(_table(rows, ("counter", "count")))

    rss = rss_by_pid(data)
    if rss:
        lines.append("")
        lines.append("-- RSS by pid (MiB) --")
        rows = [
            (str(pid), f"{low:.1f}", f"{high:.1f}")
            for pid, (low, high) in sorted(rss.items())
        ]
        lines.extend(_table(rows, ("pid", "min", "max")))

    lines.extend(metrics_tables(other))

    if len(lines) <= 2:
        lines.append("(no attributable events in trace)")
    return "\n".join(lines)


# -------------------------------------------------------------- metrics


def _number(value) -> str:
    return f"{value:.0f}" if float(value).is_integer() else f"{value:.3f}"


def metrics_tables(metrics: dict) -> list[str]:
    """Span, histogram, counter and gauge tables of one run's metrics.

    ``metrics`` is :func:`repro.obs.registry.metrics` output — the live
    registry, or a trace's ``otherData``.  Each section opens with a blank
    line.  Spans sort by total time; the p50/p95/p99 columns are the
    histograms' own bucket estimates.
    """
    lines: list[str] = []
    histograms = metrics.get("histograms", {})
    spans = {
        name[len("span."):]: summary
        for name, summary in histograms.items()
        if name.startswith("span.")
    }
    if spans:
        lines += ["", "-- spans --"]
        rows = [
            (name, summary["count"], *(f"{summary[key]:.4f}"
                                       for key in ("total", "p50", "p95", "p99", "max")))
            for name, summary in sorted(spans.items(), key=lambda item: -item[1]["total"])
        ]
        lines.extend(
            _table(rows, ("span", "count", "total_s", "p50_s", "p95_s", "p99_s", "max_s"))
        )
    others = {name: summary for name, summary in histograms.items()
              if not name.startswith("span.")}
    if others:
        lines += ["", "-- histograms --"]
        rows = [
            (name, summary["count"], *(f"{summary[key]:.6g}"
                                       for key in ("total", "p50", "p95", "p99", "max")))
            for name, summary in sorted(others.items())
        ]
        lines.extend(_table(rows, ("histogram", "count", "total", "p50", "p95", "p99", "max")))
    for kind in ("counters", "gauges"):
        values = metrics.get(kind, {})
        if values:
            lines += ["", f"-- {kind} --"]
            rows = [(name, _number(value)) for name, value in sorted(values.items())]
            lines.extend(_table(rows, (kind[:-1], "value")))
    return lines


def summary_table() -> str:
    """The CLI's end-of-run summary: :func:`metrics_tables` of the registry."""
    lines = metrics_tables(_registry.metrics()) or ["(nothing recorded)"]
    return "\n".join(["== observability summary ==", *lines])


# --------------------------------------------------------------- ledger


def ledger_report(records: list[dict]) -> str:
    lines = ["== ledger report =="]
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for record in records:
        key = (record.get("kind", "?"), str(record.get("engine", record.get("method", "-"))))
        groups[key].append(record)
    rows = []
    for (kind, engine), members in sorted(groups.items()):
        regrets = [m["regret"] for m in members if isinstance(m.get("regret"), (int, float))]
        times = [m["wall_s"] for m in members if isinstance(m.get("wall_s"), (int, float))]
        commits = {m.get("commit", "?")[:9] for m in members}
        rows.append(
            (
                f"{kind}/{engine}",
                len(members),
                f"{sum(regrets) / len(regrets):.4f}" if regrets else "-",
                f"{sum(times) / len(times):.4f}" if times else "-",
                len(commits),
            )
        )
    if rows:
        lines.extend(_table(rows, ("kind/engine", "runs", "mean_regret", "mean_wall_s", "commits")))
    else:
        lines.append("(empty ledger)")
    return "\n".join(lines)


# ------------------------------------------------------------ dispatch


def render_report(path: str | os.PathLike) -> str:
    """Sniff the file format and render the matching report."""
    if detect_format(path) == "trace":
        return trace_report(json.loads(Path(path).read_text()))
    from repro.obs.ledger import read_ledger

    return ledger_report(read_ledger(path))
