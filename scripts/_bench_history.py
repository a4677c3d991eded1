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

The regression gate compares every ``*_s`` timing of the new run against the
**best** (minimum) value recorded for the same scenario key and metric, and
fails when any is slower than ``threshold`` (default 1.15 = >15% slower).
Only runs with the same :func:`machine_stamp` (python, numpy, usable CPUs)
count as baselines: a row from another host says nothing about this one, and
rows recorded before the stamp carried ``cpus`` never gate.  With no prior
baseline for the key the gate passes trivially — a fresh CI workspace gates
nothing, while a checked-in history gates every run.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

SCHEMA = "bench-history-v1"

#: Fail when a timing exceeds best-recorded × this factor.
DEFAULT_THRESHOLD = 1.15


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
    """Every ``*_s`` timing in a report, flattened to dotted paths."""
    metrics: dict[str, float] = {}
    for key, value in report.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            metrics.update(timing_metrics(value, prefix=f"{dotted}."))
        elif (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and key.endswith("_s")
        ):
            metrics[dotted] = float(value)
    return metrics


def best_baselines(history: dict, key: str | None) -> dict[str, tuple[float, str]]:
    """Best (minimum) recorded ``(value, commit)`` per timing metric for one
    :func:`baseline_key`.  The commit is the ``commit`` stamp of the run that
    set the best value (``"unknown"`` when the run carries none), so gate
    failures can name the exact commit to bisect against."""
    best: dict[str, tuple[float, str]] = {}
    if key is None:
        return best
    for run in history.get("runs", []):
        if baseline_key(run) != key:
            continue
        commit = str(run.get("commit", "unknown"))
        for metric, value in timing_metrics(run).items():
            if value > 0 and (metric not in best or value < best[metric][0]):
                best[metric] = (value, commit)
    return best


def gate_regression(
    history: dict, report: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[str]:
    """Messages for every timing of ``report`` slower than best × threshold.

    ``history`` should hold the *prior* runs (gate before appending, or
    accept that the new run is its own >=1.0x baseline and can never fail).
    An empty list means the gate passes; no baseline for the scenario key on
    this machine stamp passes trivially.  Each failure names the commit that
    set the best value and the regression as a percentage over it.
    """
    baselines = best_baselines(history, baseline_key(report))
    failures = []
    for metric, value in timing_metrics(report).items():
        baseline = baselines.get(metric)
        if baseline is None:
            continue
        best, commit = baseline
        if value > best * threshold:
            failures.append(
                f"{metric}: {value:.4f}s is {value / best:.2f}x "
                f"(+{(value / best - 1.0) * 100:.1f}%) the best recorded "
                f"{best:.4f}s from commit {commit} "
                f"(threshold {threshold:.2f}x)"
            )
    return failures
