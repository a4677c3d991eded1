"""Bottleneck report over an observability artifact.

Accepts either artifact kind the repo's tooling writes and prints the
matching human-readable report:

* a run's **Chrome trace** (``--trace-out`` / ``REPRO_OBS_TRACE``) —
  restart-bench time attribution (spawn / export / attach / warm-up /
  compute / reduce), the BLS sweep-phase breakdown, kernel-dispatch deltas,
  RSS per process, and the run's metrics: span p50/p95/p99, histograms,
  counters and gauges;
* a **run ledger** (``--ledger`` / ``REPRO_OBS_LEDGER``) — per-kind outcome
  summaries with instance features.

Usage::

    PYTHONPATH=src python scripts/bench_solvers.py --smoke --trace-out t.json
    python scripts/obs_report.py t.json
    python scripts/obs_report.py --validate t.json

Runs ``repro obs report`` with the same arguments and flags; this wrapper
bootstraps ``src`` itself so it runs from a bare checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main as cli_main


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    return cli_main(["obs", "report", *args])


if __name__ == "__main__":
    raise SystemExit(main())
