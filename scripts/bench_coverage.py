"""Coverage-kernel benchmark: the CSR id-array kernel against its references.

Times, on the default NYC-scale benchmark city:

* **index build** — the seed's per-billboard grid-query loop vs the
  point-streaming cell-table join now used by :class:`CoverageIndex`;
* **1k ``influence_of_set`` queries** — the seed ``np.unique(concatenate)``
  union vs the mark-scatter union :meth:`CoverageIndex.influence_of_set`
  runs, answers asserted equal;
* **a BLS cell** — the full billboard-driven local search (the paper's
  efficiency-study workload).

Appends to ``BENCH_coverage.json`` — an append-only, commit-stamped time
series (see ``scripts/_bench_history.py``); ``--gate-regression 1.15`` fails
the run when any timing is >15% slower than the median recorded run of the
same scenario (timings under 0.1 s are not gated).

Usage::

    PYTHONPATH=src python scripts/bench_coverage.py            # full bench
    PYTHONPATH=src python scripts/bench_coverage.py --smoke    # seconds-fast
    PYTHONPATH=src python scripts/bench_coverage.py \
        --gate-regression 1.15                                 # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _bench_history

from repro import obs
from repro.billboard import coverage_cache
from repro.billboard.influence import CoverageIndex
from repro.billboard.model import BillboardDB
from repro.experiments.harness import run_cell
from repro.market.scenario import Scenario
from repro.obs import ledger
from repro.spatial.grid import GridIndex
from repro.trajectory.model import TrajectoryDB
from repro.utils.rng import as_generator

REPO_ROOT = Path(__file__).resolve().parent.parent


def git_commit() -> str:
    """Hash of the commit that produced this report (``unknown`` outside git).

    A ``-dirty`` suffix marks reports produced from an uncommitted tree; the
    head hash itself comes from the shared :mod:`repro.obs.ledger` helper so
    every artifact (bench history, run ledger, trace) stamps the same id.
    """
    head = ledger.git_commit()
    if head == "unknown":
        return head
    try:
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            check=True,
            cwd=REPO_ROOT,
        ).stdout.strip()
        return f"{head}-dirty" if dirty else head
    except Exception:
        return head


def legacy_covered_lists(
    billboards: BillboardDB, trajectories: TrajectoryDB, lambda_m: float
) -> list[np.ndarray]:
    """The seed repo's coverage build: one Python-level grid query per billboard."""
    grid = GridIndex(trajectories.all_points, cell_size=lambda_m)
    point_owner = np.repeat(
        np.arange(len(trajectories), dtype=np.int64), trajectories.point_counts
    )
    covered = []
    for billboard in billboards:
        hits = grid.query_radius(billboard.location.x, billboard.location.y, lambda_m)
        covered.append(np.unique(point_owner[hits]))
    return covered


def bench_build(scenario: Scenario, repeats: int = 3) -> tuple[dict, CoverageIndex]:
    """Best-of-``repeats`` timings so first-call overheads don't skew either side."""
    city = scenario.build_city()
    legacy_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        legacy = legacy_covered_lists(
            city.billboards, city.trajectories, scenario.lambda_m
        )
        legacy_s = min(legacy_s, time.perf_counter() - started)

    vectorized_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        index = CoverageIndex(
            city.billboards, city.trajectories, lambda_m=scenario.lambda_m
        )
        vectorized_s = min(vectorized_s, time.perf_counter() - started)

    for billboard_id in range(index.num_billboards):
        assert np.array_equal(legacy[billboard_id], index.covered_by(billboard_id)), (
            f"vectorized join disagrees with legacy build at billboard {billboard_id}"
        )
    return {
        "legacy_loop_s": legacy_s,
        "vectorized_join_s": vectorized_s,
        "speedup": legacy_s / vectorized_s if vectorized_s > 0 else float("inf"),
        "note": "legacy loop also runs on the rewritten CSR grid, so this "
        "under-reports the gain over the seed's dict-of-cells grid",
    }, index


def bench_influence_queries(index: CoverageIndex, num_queries: int, seed: int = 0) -> dict:
    rng = as_generator(seed)
    max_set = max(2, min(50, index.num_billboards))
    query_sets = [
        rng.choice(
            index.num_billboards, size=int(rng.integers(1, max_set)), replace=False
        ).tolist()
        for _ in range(num_queries)
    ]

    started = time.perf_counter()
    unique_answers = [
        len(np.unique(np.concatenate([index.covered_by(b) for b in ids])))
        for ids in query_sets
    ]
    unique_s = time.perf_counter() - started

    started = time.perf_counter()
    mark_answers = [index.influence_of_set(ids) for ids in query_sets]
    mark_s = time.perf_counter() - started

    assert unique_answers == mark_answers, "mark-scatter union disagrees with np.unique"
    return {
        "queries": num_queries,
        "unique_s": unique_s,
        "mark_s": mark_s,
        "speedup": unique_s / mark_s if mark_s > 0 else float("inf"),
    }


def bench_bls_cell(scenario: Scenario, restarts: int) -> dict:
    """One BLS cell on a fresh city (no coverage cache leaks into it)."""
    city = scenario.build_city()
    city.coverage(scenario.lambda_m)  # the build stays out of the timing
    started = time.perf_counter()
    metrics = run_cell(scenario, city=city, methods=["bls"], restarts=restarts)
    return {
        "bls_s": time.perf_counter() - started,
        "total_regret": metrics["bls"].total_regret,
        "restarts": restarts,
    }


def collect_obs_columns(scenario: Scenario, index: CoverageIndex, seed: int) -> dict:
    """Kernel-dispatch and cache-hit counters for the BENCH JSON.

    Runs *outside* the timed sections with collection enabled: a short
    instrumented replay of the union and batch kernels, plus one cold + one
    warm coverage-cache round trip in a temporary directory, so the timed
    benchmark itself keeps the (default, disabled) no-op instrumentation
    path that the <5% regression criterion measures.
    """
    rng = as_generator(seed)
    max_set = max(2, min(50, index.num_billboards))
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    try:
        for _ in range(50):
            ids = rng.choice(
                index.num_billboards, size=int(rng.integers(1, max_set)), replace=False
            ).tolist()
            index.influence_of_set(ids)
            index.batch_add_gains(np.zeros(index.num_trajectories, dtype=np.int64))
        city = scenario.build_city()
        with tempfile.TemporaryDirectory() as cache_dir:
            for _ in range(2):  # cold miss, then warm hit
                coverage_cache.get_or_build(
                    city.billboards,
                    city.trajectories,
                    lambda_m=scenario.lambda_m,
                    cache_dir=cache_dir,
                )
        counters = dict(obs.get_registry().counters)
    finally:
        if was_enabled:
            obs.reset()
        else:
            obs.disable()
    keys = (
        "influence.dispatch.idarray",
        "coverage_cache.hit",
        "coverage_cache.miss",
    )
    return {key: int(counters.get(key, 0)) for key in keys}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny city + few queries (CI wiring)"
    )
    parser.add_argument("--output", default="BENCH_coverage.json")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--gate-regression",
        type=float,
        default=None,
        nargs="?",
        const=_bench_history.DEFAULT_THRESHOLD,
        metavar="X",
        help="fail when any timing of at least 0.1 s exceeds X times the "
        "median recorded run of the same scenario "
        f"(default X={_bench_history.DEFAULT_THRESHOLD})",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        scenario = Scenario(
            dataset="nyc", n_billboards=60, n_trajectories=400, seed=args.seed
        )
        num_queries, restarts = 100, 1
    else:
        scenario = Scenario(
            dataset="nyc", n_billboards=800, n_trajectories=8_000, seed=args.seed
        )
        num_queries, restarts = 1_000, 1

    build, index = bench_build(scenario)
    queries = bench_influence_queries(index, num_queries, seed=args.seed)
    bls = bench_bls_cell(scenario, restarts)
    obs_columns = collect_obs_columns(scenario, index, seed=args.seed)

    report = {
        "benchmark": "coverage-kernel",
        "smoke": bool(args.smoke),
        "commit": git_commit(),
        "scenario": {
            "dataset": scenario.dataset,
            "n_billboards": scenario.n_billboards,
            "n_trajectories": scenario.n_trajectories,
            "lambda_m": scenario.lambda_m,
            "seed": scenario.seed,
        },
        "machine": _bench_history.machine_stamp(),
        "build": build,
        "influence_of_set": queries,
        "bls_cell": bls,
        "obs": obs_columns,
    }
    path = Path(args.output)
    history, failures = _bench_history.append_gated_run(
        path, report, args.gate_regression
    )
    print(json.dumps(report, indent=2))
    print(f"\nappended run {len(history['runs'])} to {path}")
    if args.gate_regression is not None:
        if failures:
            print("\nREGRESSION GATE FAILED:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"regression gate passed (threshold {args.gate_regression:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
