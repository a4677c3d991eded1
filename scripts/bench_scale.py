"""Paper-scale coverage benchmark: streaming build and query kernels.

Sweeps synthetic-NYC corpora from 10^4 to 2*10^6 trajectories (the paper's
NYC dataset is ~1.7 M trips) and, at each size:

* **streams** the coverage build through
  :meth:`CoverageIndex.from_trajectory_chunks` in 100k-trip chunks — the
  corpus never exists in memory at once;
* times the **query workload** (unions + full and candidate-restricted batch
  passes) on the CSR id-array kernel, asserting every union equals the
  ``np.unique(concatenate)`` reference;
* records the ``influence.dispatch.idarray`` counter of one replay.

The 10^6 size also solves one greedy + BLS cell, demonstrating an
end-to-end paper-scale solve.

Appends to ``BENCH_scale.json`` (append-only history, see
``scripts/_bench_history.py``).

Usage::

    PYTHONPATH=src python scripts/bench_scale.py --smoke   # 10^4 tier only
    PYTHONPATH=src python scripts/bench_scale.py           # full sweep
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _bench_history

from repro import obs
from repro.algorithms.bls import billboard_driven_local_search
from repro.algorithms.greedy_global import synchronous_greedy
from repro.billboard.influence import CoverageIndex
from repro.core.allocation import Allocation
from repro.core.problem import MROAMInstance
from repro.datasets.nyc import DEFAULT_BILLBOARDS
from repro.datasets.stream import nyc_stream
from repro.market.demand import generate_advertisers
from repro.utils.rng import as_generator

FULL_SIZES = (10_000, 100_000, 1_000_000, 2_000_000)
SMOKE_SIZES = (10_000,)
CHUNK_SIZE = 100_000
BLS_SIZE = 1_000_000  # largest available size solves a cell too

#: Advertiser market for the end-to-end solve: alpha/p_avg -> 5 advertisers.
BLS_ALPHA, BLS_P_AVG, BLS_GAMMA = 0.25, 0.05, 0.5


def build_streaming(stream, n: int, lambda_m: float) -> tuple[CoverageIndex, float]:
    started = time.perf_counter()
    index = CoverageIndex.from_trajectory_chunks(
        stream.billboards,
        stream.chunks(),
        num_trajectories=n,
        lambda_m=lambda_m,
    )
    return index, time.perf_counter() - started


def query_workload(index: CoverageIndex, n: int, seed: int) -> dict:
    """Timings of the query workload; unions are checked against the
    ``np.unique(concatenate)`` reference outside the timed sections."""
    rng = as_generator(seed)
    num_b = index.num_billboards
    # counts_row must be a real multiplicity counter over a set containing
    # the removed billboard — batch_add_gains_without assumes that
    # consistency (covered-by-removed implies count >= 1).
    owned = rng.choice(num_b, size=min(30, num_b), replace=False)
    counts_row = np.zeros(n, dtype=np.int64)
    for billboard_id in owned:
        counts_row[index.covered_by(int(billboard_id))] += 1
    removed = int(owned[0])
    union_sets = [
        np.sort(rng.choice(num_b, size=min(50, num_b), replace=False)).tolist()
        for _ in range(20)
    ]
    candidates = [
        np.sort(rng.choice(num_b, size=min(64, num_b), replace=False))
        for _ in range(8)
    ]

    started = time.perf_counter()
    unions = [index.influence_of_set(s) for s in union_sets]
    union_s = time.perf_counter() - started

    batch_full_s = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        index.batch_add_gains(counts_row)
        batch_full_s = min(batch_full_s, time.perf_counter() - started)

    started = time.perf_counter()
    for cand in candidates:
        index.batch_add_gains(counts_row, candidate_ids=cand)
        index.batch_add_gains_without(counts_row, removed, candidate_ids=cand)
        index.batch_remove_losses(counts_row, candidate_ids=cand)
        index.batch_swap_deltas(removed, cand, counts_row)
    batch_restricted_s = time.perf_counter() - started

    for ids, union in zip(union_sets, unions):
        expected = len(np.unique(np.concatenate([index.covered_by(b) for b in ids])))
        assert union == expected, "influence_of_set disagrees with np.unique"
    return {
        "union_s": union_s,
        "batch_full_s": batch_full_s,
        "batch_restricted_s": batch_restricted_s,
        "total_s": union_s + batch_full_s + batch_restricted_s,
    }


def dispatch_counters(index: CoverageIndex, n: int, seed: int) -> dict:
    """``influence.dispatch.*`` counters for one replay."""
    rng = as_generator(seed)
    counts_row = rng.integers(0, 3, size=n).astype(np.int64)
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    try:
        index.influence_of_set(range(min(20, index.num_billboards)))
        index.batch_add_gains(counts_row)
        index.batch_add_gains(
            counts_row, candidate_ids=np.arange(min(16, index.num_billboards))
        )
        counters = dict(obs.get_registry().counters)
    finally:
        if was_enabled:
            obs.reset()
        else:
            obs.disable()
    return {
        key: int(value)
        for key, value in sorted(counters.items())
        if key.startswith("influence.dispatch.")
    }


def bench_size(stream, n: int, lambda_m: float, seed: int) -> dict:
    index, build_s = build_streaming(stream, n, lambda_m)
    queries = query_workload(index, n, seed)
    queries["obs"] = dispatch_counters(index, n, seed)
    print(f"  n={n:>9,} total={queries['total_s']:.4f}s", flush=True)
    return {
        "n_trajectories": n,
        "build": {
            "streaming_build_s": build_s,
            "chunks": stream.num_chunks(),
            "coverage_nnz": int(index.supply),
        },
        "queries": queries,
    }


def bench_bls(stream, n: int, lambda_m: float, seed: int) -> dict:
    """Greedy + BLS on the streamed corpus."""
    index, build_s = build_streaming(stream, n, lambda_m)
    advertisers = generate_advertisers(index.supply, BLS_ALPHA, BLS_P_AVG, seed)
    instance = MROAMInstance(index, advertisers, BLS_GAMMA)
    allocation = Allocation(instance)

    started = time.perf_counter()
    synchronous_greedy(allocation)
    greedy_s = time.perf_counter() - started
    greedy_regret = allocation.total_regret()

    stats: dict = {}
    started = time.perf_counter()
    improved = billboard_driven_local_search(allocation, max_sweeps=2, stats=stats)
    bls_s = time.perf_counter() - started

    return {
        "n_trajectories": n,
        "advertisers": len(advertisers),
        "alpha": BLS_ALPHA,
        "p_avg": BLS_P_AVG,
        "gamma": BLS_GAMMA,
        "streaming_build_s": build_s,
        "greedy_s": greedy_s,
        "bls_s": bls_s,
        "greedy_regret": greedy_regret,
        "total_regret": improved.total_regret(),
        "bls_sweeps": int(stats.get("bls_sweeps", 0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke", action="store_true", help="10^4-trajectory tier only (CI wiring)"
    )
    parser.add_argument("--output", default="BENCH_scale.json")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--billboards", type=int, default=DEFAULT_BILLBOARDS, help="inventory size"
    )
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    lambda_m = 100.0

    size_entries = {}
    for n in sizes:
        stream = nyc_stream(args.billboards, n, chunk_size=CHUNK_SIZE, seed=args.seed)
        size_entries[str(n)] = bench_size(stream, n, lambda_m, args.seed)

    bls_n = max(s for s in sizes if s <= BLS_SIZE)
    stream = nyc_stream(args.billboards, bls_n, chunk_size=CHUNK_SIZE, seed=args.seed)
    bls = bench_bls(stream, bls_n, lambda_m, args.seed)

    report = {
        "benchmark": "coverage-scale",
        "smoke": bool(args.smoke),
        "commit": _bench_history.git_commit(),
        "scenario": {
            "dataset": "nyc-stream",
            "n_billboards": args.billboards,
            "sizes": "-".join(str(s) for s in sizes),
            "chunk_size": CHUNK_SIZE,
            "lambda_m": lambda_m,
            "seed": args.seed,
        },
        "machine": _bench_history.machine_stamp(),
        "sizes": size_entries,
        "bls_cell": bls,
    }
    path = Path(args.output)
    history = _bench_history.append_run(path, report)
    print(json.dumps(report, indent=2))
    print(f"\nappended run {len(history['runs'])} to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
