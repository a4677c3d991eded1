"""Append-only benchmark history and the >15% regression gate.

The bench scripts used to overwrite their ``BENCH_*.json`` with the latest
single report, losing the perf trajectory the ROADMAP's querytorque-style
bench discipline wants.  This module turns those files into append-only time
series::

    {"schema": "bench-history-v1", "runs": [<report>, <report>, ...]}

Each run is the same commit-stamped report dict the scripts always produced
(legacy single-report files are migrated in place on first append).  Runs are
keyed by a *scenario key* — benchmark name + scenario parameters — so a
smoke run never gates against a full run and a resized scenario starts a
fresh baseline.

The regression gate compares every ``*_s`` timing of the new run (rates
ending ``_per_s`` excluded) against the **median** value recorded for the
same scenario key and metric (the lower median, so the baseline is a real
run whose commit can be named), and fails when any is slower than
``threshold`` (default 1.15 = >15% slower).  The median, not the best,
because each row is one run on a shared host: the best row is the luckiest
draw, and unchanged code lands above it by more than 15% routinely.  A run
that fails the gate is recorded with ``"gate_failed": true`` and never
becomes a baseline, so a sustained regression cannot raise its own bar.
Timings whose baseline is under ``min_gated_s`` (default
:data:`MIN_GATED_S`) are not gated: a wall measured once that short swings
by several times between runs of the same code.  A bench whose timings are
per-operation means or quantiles over many operations passes
``min_gated_s=0``, since its measured wall is long however small the
reported figure.  Only runs with the same
:func:`machine_stamp` (python, numpy, usable CPUs) count as baselines: a
row from another host says nothing about this one, and rows recorded
before the stamp carried ``cpus`` never gate.  With no prior baseline for
the key the gate passes trivially — a fresh CI workspace gates nothing,
while a checked-in history gates every run.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

SCHEMA = "bench-history-v1"

#: Fail when a timing exceeds its median recorded value × this factor.
DEFAULT_THRESHOLD = 1.15

#: One-shot walls whose baseline is shorter than this many seconds are not
#: gated (``influence_of_set.mark_s`` read 0.012–0.070 s across runs of one
#: commit).
MIN_GATED_S = 0.1


def scenario_key(report: dict) -> str:
    """Stable identity of one benchmark configuration."""
    scenario = report.get("scenario", {})
    parts = [str(report.get("benchmark", "unknown"))]
    parts.extend(f"{k}={scenario[k]}" for k in sorted(scenario))
    if report.get("smoke"):
        parts.append("smoke")
    return "|".join(parts)


def machine_stamp() -> dict:
    """The host facts a timing depends on, recorded as a run's ``machine``."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": len(os.sched_getaffinity(0)),
    }


def baseline_key(report: dict) -> str | None:
    """:func:`scenario_key` plus the run's machine stamp, or ``None`` for a
    run whose stamp lacks ``cpus`` (it can neither gate nor be gated)."""
    machine = report.get("machine")
    if not isinstance(machine, dict) or "cpus" not in machine:
        return None
    stamp = ",".join(f"{k}={machine[k]}" for k in sorted(machine))
    return f"{scenario_key(report)}|machine:{stamp}"


def load_history(path: str | Path) -> dict:
    """The history at ``path`` (empty, or migrated from a legacy report)."""
    path = Path(path)
    if not path.is_file():
        return {"schema": SCHEMA, "runs": []}
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {"schema": SCHEMA, "runs": []}
    if isinstance(data, dict) and data.get("schema") == SCHEMA:
        runs = data.get("runs")
        return {"schema": SCHEMA, "runs": runs if isinstance(runs, list) else []}
    if isinstance(data, dict) and "benchmark" in data:
        # Legacy layout: the file held one bare report.
        return {"schema": SCHEMA, "runs": [data]}
    return {"schema": SCHEMA, "runs": []}


def append_run(path: str | Path, report: dict) -> dict:
    """Append ``report`` to the history at ``path`` and write it back."""
    path = Path(path)
    history = load_history(path)
    entry = dict(report)
    entry.setdefault(
        "recorded_at", time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime())
    )
    history["runs"].append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return history


def timing_metrics(report: dict, prefix: str = "") -> dict[str, float]:
    """Every ``*_s`` timing in a report, flattened to dotted paths.

    Rates (``*_per_s``) are not timings: higher is better for them."""
    metrics: dict[str, float] = {}
    for key, value in report.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            metrics.update(timing_metrics(value, prefix=f"{dotted}."))
        elif (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and key.endswith("_s")
            and not key.endswith("_per_s")
        ):
            metrics[dotted] = float(value)
    return metrics


def median_baselines(history: dict, key: str | None) -> dict[str, tuple[float, str]]:
    """Lower-median recorded ``(value, commit)`` per timing metric for one
    :func:`baseline_key`, over the runs that did not fail the gate.  The
    commit is the ``commit`` stamp of the run that recorded the median value
    (``"unknown"`` when the run carries none), so gate failures can name a
    commit to bisect against."""
    recorded: dict[str, list[tuple[float, str]]] = {}
    if key is None:
        return {}
    for run in history.get("runs", []):
        if baseline_key(run) != key or run.get("gate_failed"):
            continue
        commit = str(run.get("commit", "unknown"))
        for metric, value in timing_metrics(run).items():
            if value > 0:
                recorded.setdefault(metric, []).append((value, commit))
    return {metric: statistics.median_low(rows) for metric, rows in recorded.items()}


def gate_regression(
    history: dict,
    report: dict,
    threshold: float = DEFAULT_THRESHOLD,
    min_gated_s: float = MIN_GATED_S,
) -> list[str]:
    """Messages for every timing of ``report`` slower than median × threshold.

    ``history`` should hold the *prior* runs (gate before appending, or
    accept that the new run shifts its own baseline).  An empty list means
    the gate passes; no baseline for the scenario key on this machine stamp
    passes trivially, and timings with a baseline under ``min_gated_s``
    never gate.  Each failure names the commit that recorded the median
    value and the regression as a percentage over it.
    """
    baselines = median_baselines(history, baseline_key(report))
    failures = []
    for metric, value in timing_metrics(report).items():
        baseline = baselines.get(metric)
        if baseline is None or baseline[0] < min_gated_s:
            continue
        median, commit = baseline
        if value > median * threshold:
            failures.append(
                f"{metric}: {value:.4f}s is {value / median:.2f}x "
                f"(+{(value / median - 1.0) * 100:.1f}%) the median recorded "
                f"{median:.4f}s from commit {commit} "
                f"(threshold {threshold:.2f}x)"
            )
    return failures


def append_gated_run(
    path: str | Path,
    report: dict,
    threshold: float | None,
    min_gated_s: float = MIN_GATED_S,
) -> tuple[dict, list[str]]:
    """Gate ``report`` against the history at ``path`` (skipped when
    ``threshold`` is ``None``), then append it.  A failing run is appended
    with ``"gate_failed": true`` so it never counts as a baseline.  Returns
    the new history and the gate's failure messages."""
    failures = []
    if threshold is not None:
        failures = gate_regression(load_history(path), report, threshold, min_gated_s)
    if failures:
        report["gate_failed"] = True
    return append_run(path, report), failures
