"""Solver benchmark: the BLS sweep loop and serial vs persistent-pool
parallel restarts.

Times, on the PR-1 ``bls_cell`` scenario (NYC scale, seed 7):

* **the BLS local-search loop** (the dirty-set sweep: version-counter
  certificates choose *which* billboards to scan, and surviving scans are
  restricted to the screened candidate ids).  Every repeat must report the
  identical total regret and accepted-move counts — the benchmark *fails*
  otherwise.  Equivalence with the literal rescan loop of Algorithm 5 is
  the test suite's job (``tests/oracles.py``);
* **random restarts** — ``RandomizedLocalSearch(restarts=N)`` run serially
  vs fanned out over a *persistent* shared-memory worker pool
  (:mod:`repro.parallel.pool`).  An untimed warm-up spawns the pool (and
  collects ``shm.attach`` / ``pool.spawn`` under observability); the timed
  runs then execute with observability off in both parent and workers —
  symmetric conditions — against the already-warm pool, which is what
  repeated driver calls (restart batches, harness cells) actually pay.
  The best allocation must be identical to serial.

``best_restart`` uses ``-1`` as a sentinel meaning the deterministic greedy
start was never beaten by a random restart; restart indices count from 0.

Appends to ``BENCH_solvers.json`` — an append-only, commit-stamped time
series (see ``scripts/_bench_history.py``); ``--gate-regression 1.15`` fails
the run when any timing is >15% slower than the median recorded run of the
same scenario (timings under 0.1 s are not gated).

Usage::

    PYTHONPATH=src python scripts/bench_solvers.py            # full bench
    PYTHONPATH=src python scripts/bench_solvers.py --smoke    # seconds-fast
    PYTHONPATH=src python scripts/bench_solvers.py --smoke \
        --assert-parallel-speedup 1.0                         # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _bench_history

from repro import env, obs
from repro.algorithms.bls import billboard_driven_local_search
from repro.algorithms.greedy_global import synchronous_greedy
from repro.algorithms.local_search import RandomizedLocalSearch
from repro.core.allocation import Allocation
from repro.core.problem import MROAMInstance
from repro.market.scenario import Scenario
from repro.obs import ledger
from repro.parallel.pool import OVERSUBSCRIBE_ENV, close_all_pools

REPO_ROOT = Path(__file__).resolve().parent.parent


def git_commit() -> str:
    """Hash of the commit that produced this report (``unknown`` outside git).

    A ``-dirty`` suffix marks reports produced from an uncommitted tree; the
    head hash itself comes from the shared :mod:`repro.obs.ledger` helper.
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


def bench_sweep_engines(instance: MROAMInstance, repeats: int = 3) -> dict:
    """Best-of-``repeats`` timing of the BLS sweep loop.

    The greedy start is rebuilt (not cloned) per run so no repeat benefits
    from warm allocation state; only the local-search loop is timed.
    Hard-fails unless every repeat lands on the identical regret and
    accepted-move counts.
    """
    best_s = float("inf")
    outcomes: list[dict] = []
    for _ in range(repeats):
        allocation = Allocation(instance)
        synchronous_greedy(allocation)
        stats: dict = {}
        started = time.perf_counter()
        billboard_driven_local_search(allocation, stats=stats)
        best_s = min(best_s, time.perf_counter() - started)
        outcomes.append(
            {
                "total_regret": allocation.total_regret(),
                "bls_exchanges": stats.get("bls_exchanges", 0),
                "bls_releases": stats.get("bls_releases", 0),
                "bls_topups": stats.get("bls_topups", 0),
                "bls_exchange_evaluated": stats.get("bls_exchange_evaluated", 0),
                "bls_dirty_scanned": stats.get("bls_dirty_scanned"),
                "bls_dirty_skipped": stats.get("bls_dirty_skipped"),
            }
        )
    for repeat, outcome in enumerate(outcomes[1:], start=1):
        assert outcome == outcomes[0], (
            f"BLS repeat {repeat} diverged from repeat 0: {outcome} != {outcomes[0]}"
        )
    return {
        "dirty_engine_s": best_s,
        "total_regret": outcomes[0]["total_regret"],
        "dirty": outcomes[0],
    }


def collect_restricted_rows(instance: MROAMInstance) -> tuple[dict, dict]:
    """Restricted-row and sweep-phase telemetry of one instrumented dirty run.

    Runs *outside* the timed sections with collection enabled.  Restricted
    batch dispatches record the number of rows they actually compute (under
    either kernel); ``max`` far below ``num_billboards`` is the observable
    proof that surviving scans no longer touch the full matrix.  The same
    pass's ``bls.phase.*`` histograms yield the dirty engine's wall split —
    ``screen_share`` is the fraction the exchange screen takes of the summed
    phase wall, the number the round-fused screen (DESIGN.md §13) drives
    down.
    """
    obs.enable()
    obs.reset()
    try:
        allocation = Allocation(instance)
        synchronous_greedy(allocation)
        billboard_driven_local_search(allocation)
        histogram = obs.get_registry().histogram("influence.popcount.rows")
        empty = histogram.count == 0
        rows = {
            "count": histogram.count,
            "total": histogram.total,
            "min": None if empty else histogram.min,
            "max": None if empty else histogram.max,
            "mean": histogram.mean,
            "num_billboards": instance.num_billboards,
            "note": (
                "rows computed per restricted batch dispatch (either kernel); "
                "max far below num_billboards is the restriction at work"
            ),
        }
        phase_names = ("screen", "exchange", "release", "topup")
        phases = {
            name: obs.get_registry().histogram(f"bls.phase.{name}").total
            for name in phase_names
        }
        phase_wall = sum(phases.values())
        phases = {f"{name}_s": seconds for name, seconds in phases.items()}
        phases["sweeps"] = obs.get_registry().histogram("bls.phase.screen").count
        phases["screen_share"] = (
            phases["screen_s"] / phase_wall if phase_wall > 0 else 0.0
        )
        phases["screen_rounds"] = int(
            obs.counter_value("bls.screen.rounds")
        )
        phases["note"] = (
            "one instrumented dirty-BLS pass; screen_share = screen wall / "
            "summed phase wall"
        )
        return rows, phases
    finally:
        obs.disable()
        obs.reset()


def bench_parallel_restarts(
    instance: MROAMInstance,
    restarts: int,
    workers: int,
    seed: int,
    repeats: int = 4,
) -> dict:
    """Serial vs persistent-pool parallel restarts; identical best allocation.

    Three phases keep the timing honest:

    1. *warm-up* (untimed, observability on) — spawns the persistent pool,
       collecting ``shm.attach`` / ``pool.spawn``;
    2. *timed* (observability off in parent **and** workers) — best-of-
       ``repeats`` serial vs best-of-``repeats`` parallel against the warm
       pool, which is the steady-state cost of every driver call after the
       first;
    3. *reuse proof* (untimed, observability on) — one more parallel call,
       which must hit the live pool (``pool.reuse``), not spawn a new one.
    """

    def solver(pool_workers: int | None) -> RandomizedLocalSearch:
        return RandomizedLocalSearch(
            "bls",
            restarts=restarts,
            seed=seed,
            restart_workers=pool_workers,
        )

    obs.enable()
    obs.reset()
    try:
        warmup = solver(workers).solve(instance)
        spawn_counters = dict(obs.get_registry().counters)
        task_spans = obs.get_registry().histogram("span.pool.task")
        batch_sizes = obs.get_registry().histogram("pool.task.batch")
        grain = {
            "tasks": int(task_spans.count),
            "restarts_per_task": float(batch_sizes.mean)
            if batch_sizes.count
            else 1.0,
            "mean_task_compute_s": float(task_spans.mean)
            if task_spans.count
            else None,
            "note": (
                "from the obs-on warm-up run: pool.task span count / mean "
                "seconds, pool.task.batch = restarts packed per task"
            ),
        }
    finally:
        obs.disable()
        obs.reset()

    # Interleave the repeats (serial, parallel, serial, parallel, ...) so a
    # drift in background load hits both sides equally; best-of each.
    serial_s = parallel_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        serial = solver(None).solve(instance)
        serial_s = min(serial_s, time.perf_counter() - started)
        started = time.perf_counter()
        parallel = solver(workers).solve(instance)
        parallel_s = min(parallel_s, time.perf_counter() - started)

    obs.enable()
    obs.reset()
    try:
        solver(workers).solve(instance)
        reuse_counters = dict(obs.get_registry().counters)
    finally:
        obs.disable()
        obs.reset()

    for run, label in ((warmup, "warm-up"), (parallel, "timed")):
        assert (
            run.allocation.assignment_map() == serial.allocation.assignment_map()
        ), f"{label} parallel restarts reached a different allocation than serial"
        assert run.total_regret == serial.total_regret
        assert run.stats.get("best_restart") == serial.stats.get("best_restart")
    assert int(reuse_counters.get("pool.spawn", 0)) == 0, (
        "the reuse-proof call spawned a fresh pool — persistence is broken"
    )
    return {
        "restarts": restarts,
        "workers": workers,
        "grain": grain,
        "timed_repeats": repeats,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
        "total_regret": serial.total_regret,
        "best_restart": serial.stats.get("best_restart"),
        "best_restart_note": (
            "-1 = the deterministic greedy start; random restarts count from 0"
        ),
        "shm_attach": int(spawn_counters.get("shm.attach", 0)),
        "shm_create": int(spawn_counters.get("shm.create", 0)),
        "pool_spawn": int(spawn_counters.get("pool.spawn", 0)),
        "pool_reuse": int(reuse_counters.get("pool.reuse", 0)),
        "timing_note": (
            "timed runs execute with observability off in parent and workers "
            "against the pool spawned during the untimed warm-up"
        ),
    }


def check_parallel_speedup(required: float, measured: float) -> str | None:
    """The ``--assert-parallel-speedup`` gate: a failure message, or ``None``.

    Skips (with a stderr note) when this process may run on fewer than two
    CPUs — the affinity count the pool caps its workers at and
    :func:`_bench_history.machine_stamp` records, not ``os.cpu_count()``.
    There the pool either collapses to one worker or, with
    ``REPRO_POOL_OVERSUBSCRIBE`` (e.g. under ``--trace-out``), time-slices
    two workers on one core; asserting would only flake.
    """
    cpus = _bench_history.machine_stamp()["cpus"]
    if cpus < 2:
        mode = (
            "oversubscribed pool"
            if env.POOL_OVERSUBSCRIBE.is_set()
            else "affinity-capped pool"
        )
        print(
            f"skipping --assert-parallel-speedup {required}: {cpus} CPU in "
            f"this process's affinity mask ({mode}) — it cannot produce a "
            f"parallel speedup (measured {measured:.3f}x)",
            file=sys.stderr,
        )
        return None
    if measured < required:
        return (
            f"warm-pool parallel speedup {measured:.3f} below the required "
            f"{required}"
        )
    return None


def traced_engine_passes(instance: MROAMInstance) -> None:
    """One fully-instrumented BLS pass, for the trace artifact.

    Runs with collection on (outside the timed sections): the pass
    contributes per-sweep ``bls.sweep`` phase events, and its kernel
    dispatch counter deltas are stamped as a ``kernel.dispatch`` instant
    event so the report can attribute kernel dispatches to the pass.
    """
    attributed = "influence.dispatch."
    before = dict(obs.get_registry().counters)
    allocation = Allocation(instance)
    synchronous_greedy(allocation)
    billboard_driven_local_search(allocation)
    after = obs.get_registry().counters
    delta = {
        name: after[name] - before.get(name, 0)
        for name in after
        if name.startswith(attributed) and after[name] != before.get(name, 0)
    }
    obs.emit_instant("kernel.dispatch", delta)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny city + few restarts (CI wiring)"
    )
    parser.add_argument("--output", default="BENCH_solvers.json")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a clock-aligned Chrome trace of the bench's sections "
        "run with collection on (worker pids included) to this JSON file; "
        "implies pool oversubscription so "
        f"multi-worker traces exist even on 1-CPU runners; ${obs.TRACE_ENV} "
        "is the default",
    )
    parser.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="append per-section outcome records to this JSONL ledger; "
        f"${obs.LEDGER_ENV} is the default",
    )
    parser.add_argument(
        "--assert-parallel-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless warm-pool parallel restarts reach X× over serial",
    )
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

    if args.ledger is not None:
        os.environ[obs.LEDGER_ENV] = args.ledger
    trace_out = args.trace_out or env.OBS_TRACE.raw()
    if trace_out is not None:
        # Attribution needs real worker processes even on 1-CPU runners; the
        # oversubscription knob lifts the affinity cap for this (non-timing)
        # run.  Must be exported before the first pool spawns.
        os.environ.setdefault(OVERSUBSCRIBE_ENV, "1")
        obs.enable(out=trace_out)

    if args.smoke:
        scenario = Scenario(
            dataset="nyc", n_billboards=200, n_trajectories=2_000, seed=args.seed
        )
        # The restart section takes best-of-10 interleaved pairs: on a
        # shared 2-vCPU host, bursts of stolen CPU time last seconds, and
        # best-of-2 failed the CI speedup gate in 2 of 12 runs (best-of-5
        # in 2 of 22).
        repeats, restart_repeats, restarts, workers = 2, 10, 6, 2
    else:
        scenario = Scenario(
            dataset="nyc", n_billboards=800, n_trajectories=8_000, seed=args.seed
        )
        repeats, restart_repeats, restarts, workers = 5, 5, 4, 2

    instance = scenario.build_instance()
    sweep_engines = bench_sweep_engines(instance, repeats=repeats)
    restricted_rows, sweep_phases = collect_restricted_rows(instance)
    parallel = bench_parallel_restarts(
        instance,
        restarts=restarts,
        workers=workers,
        seed=args.seed,
        repeats=restart_repeats,
    )

    report = {
        "benchmark": "solver-sweep-engine",
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
        "bls_local_search": sweep_engines,
        "restricted_rows": restricted_rows,
        "bls_sweep_phases": sweep_phases,
        "parallel_restarts": parallel,
    }
    path = Path(args.output)
    history, failures = _bench_history.append_gated_run(
        path, report, args.gate_regression
    )
    print(json.dumps(report, indent=2))
    print(f"\nappended run {len(history['runs'])} to {path}")

    if ledger.enabled():
        ledger.record_run(
            "bench.sweep",
            instance=instance,
            method="bls",
            wall_s=float(sweep_engines["dirty_engine_s"]),
            regret=float(sweep_engines["total_regret"]),
            smoke=bool(args.smoke),
        )
        ledger.record_run(
            "bench.restarts",
            instance=instance,
            method="bls",
            workers=int(parallel["workers"]),
            restarts=int(parallel["restarts"]),
            serial_s=float(parallel["serial_s"]),
            wall_s=float(parallel["parallel_s"]),
            speedup=float(parallel["speedup"]),
            regret=float(parallel["total_regret"]),
            grain=parallel["grain"],
            smoke=bool(args.smoke),
        )
        print(f"appended ledger records to {ledger.ledger_path()}")

    if obs.configured_out() is not None:
        # One instrumented BLS pass for the trace artifact, then retire
        # the pools so every worker's teardown spill is on disk before the
        # trace is assembled.
        obs.enable()
        traced_engine_passes(instance)
        close_all_pools()
        trace_path = obs.write_trace()
        print(f"wrote Chrome trace to {trace_path}")
        obs.disable()

    if args.gate_regression is not None:
        if failures:
            print("\nREGRESSION GATE FAILED:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"regression gate passed (threshold {args.gate_regression:.2f}x)")
    if args.assert_parallel_speedup is not None:
        failure = check_parallel_speedup(
            args.assert_parallel_speedup, parallel["speedup"]
        )
        if failure:
            print(f"\nPARALLEL SPEEDUP GATE FAILED: {failure}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
