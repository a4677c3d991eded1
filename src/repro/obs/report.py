"""Bottleneck reports over traces, run logs, and ledgers.

:func:`render_report` sniffs the file format — Chrome trace JSON
(``traceEvents``), obs run-log JSONL, or ledger JSONL — and renders the
matching fixed-width report:

* **trace** — restart-bench time attribution (spawn / export / attach /
  warm-up / compute / reduce, against the pool-map wall time), the
  per-engine BLS sweep-phase breakdown, the kernel dispatch table, and
  per-pid RSS ranges.  This is the artifact that quantifies *why* parallel
  restarts do or don't pay at a given scale.
* **run log** — span timings with p50/p95/p99 plus the final counters.
* **ledger** — per-(kind, engine) outcome summary across recorded runs.

Exposed on the CLI as ``repro obs report`` and as
``scripts/obs_report.py``.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path

#: Span names whose total duration forms the restart-bench attribution.
_ATTRIBUTION_SPANS = (
    ("spawn", "pool.spawn"),
    ("export", "pool.export"),
    ("attach", "pool.attach"),
    ("compute", "pool.task"),
    ("reduce", "restart.reduce"),
)


def detect_format(path: str | os.PathLike) -> str:
    """``"trace"``, ``"ledger"``, or ``"runlog"`` for the file at ``path``."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        first_line = stripped.splitlines()[0] if stripped else ""
        try:
            whole = json.loads(text)
        except json.JSONDecodeError:
            whole = None
        if isinstance(whole, dict) and "traceEvents" in whole:
            return "trace"
        try:
            first = json.loads(first_line)
        except json.JSONDecodeError:
            first = None
        if isinstance(first, dict) and first.get("schema", "").startswith("obs-ledger"):
            return "ledger"
    return "runlog"


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
    """Per-engine sums of the BLS sweep phases from ``bls.sweep`` events."""
    engines: dict[str, dict] = {}
    for event in _complete_events(data):
        if event.get("name") != "bls.sweep":
            continue
        args = event.get("args", {})
        engine = str(args.get("engine", "?"))
        row = engines.setdefault(
            engine,
            {"sweeps": 0, "wall_s": 0.0, "screen_s": 0.0, "exchange_s": 0.0,
             "release_s": 0.0, "topup_s": 0.0},
        )
        row["sweeps"] += 1
        row["wall_s"] += event.get("dur", 0) / 1e6
        for phase in ("screen", "exchange", "release", "topup"):
            row[f"{phase}_s"] += float(args.get(f"{phase}_s", 0.0))
    return engines


def kernel_dispatch_table(data: dict) -> dict:
    """Kernel/dispatch counts: final totals plus per-engine instant deltas."""
    other = data.get("otherData", {})
    totals = {
        name: value
        for name, value in other.get("counters", {}).items()
        if name.startswith("influence.dispatch.")
    }
    per_engine: dict[str, dict] = {}
    for event in data.get("traceEvents", []):
        if event.get("ph") == "i" and event.get("name") == "kernel.dispatch":
            args = dict(event.get("args", {}))
            engine = str(args.pop("engine", "?"))
            row = per_engine.setdefault(engine, defaultdict(float))
            for name, value in args.items():
                row[name] += float(value)
    return {"totals": totals, "per_engine": {k: dict(v) for k, v in per_engine.items()}}


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

    engines = bls_phase_breakdown(data)
    if engines:
        lines.append("")
        lines.append("-- BLS sweep phases per engine --")
        rows = []
        for engine, row in sorted(engines.items()):
            rows.append(
                (engine, row["sweeps"], f"{row['wall_s']:.4f}",
                 f"{row['screen_s']:.4f}", f"{row['exchange_s']:.4f}",
                 f"{row['release_s']:.4f}", f"{row['topup_s']:.4f}")
            )
        lines.extend(
            _table(rows, ("engine", "sweeps", "wall_s", "screen_s", "exchange_s",
                          "release_s", "topup_s"))
        )

    kernels = kernel_dispatch_table(data)
    if kernels["per_engine"]:
        lines.append("")
        lines.append("-- kernel dispatch per engine pass --")
        names = sorted({name for row in kernels["per_engine"].values() for name in row})
        rows = [
            (engine, *(f"{row.get(name, 0.0):.0f}" for name in names))
            for engine, row in sorted(kernels["per_engine"].items())
        ]
        short = [name.replace("influence.", "") for name in names]
        lines.extend(_table(rows, ("engine", *short)))
    if kernels["totals"]:
        lines.append("")
        lines.append("-- kernel dispatch totals --")
        rows = [(name, f"{value:.0f}") for name, value in sorted(kernels["totals"].items())]
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

    if len(lines) <= 2:
        lines.append("(no attributable events in trace)")
    return "\n".join(lines)


# -------------------------------------------------------------- run log


def runlog_report(events: list[dict]) -> str:
    lines = ["== run-log report =="]
    histograms = {}
    counters = {}
    for event in events:
        if event.get("event") == "histograms":
            histograms = event.get("histograms", {})
        elif event.get("event") == "counters":
            counters = event.get("counters", {})
    spans = {
        name[len("span."):]: summary
        for name, summary in histograms.items()
        if name.startswith("span.")
    }
    if spans:
        lines.append("-- spans (by total time) --")
        rows = []
        ordered = sorted(spans.items(), key=lambda item: -item[1].get("total", 0.0))
        for name, summary in ordered:
            rows.append(
                (name, summary.get("count", 0), f"{summary.get('total', 0.0):.4f}",
                 f"{summary.get('p50', 0.0):.4f}", f"{summary.get('p95', 0.0):.4f}",
                 f"{summary.get('p99', 0.0):.4f}", f"{summary.get('max', 0.0):.4f}")
            )
        lines.extend(
            _table(rows, ("span", "count", "total_s", "p50_s", "p95_s", "p99_s", "max_s"))
        )
    if counters:
        lines.append("")
        lines.append("-- counters --")
        rows = [(name, f"{value:g}") for name, value in sorted(counters.items())]
        lines.extend(_table(rows, ("counter", "value")))
    if len(lines) == 1:
        lines.append("(no summary lines found — was the run log truncated?)")
    return "\n".join(lines)


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
    kind = detect_format(path)
    if kind == "trace":
        return trace_report(json.loads(Path(path).read_text()))
    if kind == "ledger":
        from repro.obs.ledger import read_ledger

        return ledger_report(read_ledger(path))
    from repro.obs.sink import read_jsonl

    return runlog_report(read_jsonl(path))
