"""Parallel restart drivers: fan restart/chain tasks over worker processes.

Workers attach the instance's :class:`~repro.billboard.influence.
CoverageIndex` through shared memory (:mod:`repro.parallel.shared`) — the
only payload pickled per pool is the advertiser list and a few scalars, and
each worker performs exactly one ``shm.attach``.  Tasks carry pre-drawn
restart seeds, so the parallel paths run the *same* restarts the serial
paths run and the best-plan reduction (strict ``<`` in restart order) picks
the identical winner.

The worker pool is *persistent* (:mod:`repro.parallel.pool`): the first
driver call for an ``(instance, workers)`` pair spawns it, every later call
— more restarts, annealing chains, repeated solver runs — reuses the warm
processes, so the fork/attach cost is paid once per instance, not per call.

Restart *grain batching* (DESIGN.md §13): the PR-6 trace attribution showed
pool overhead under 3% of map wall yet a ~1.02× restart speedup — the tasks
were simply too small (tens of milliseconds) for the dispatch/reduce rhythm
to overlap usefully.  The drivers therefore pack ``restart_batch_size``
restarts into one pool task (``"auto"`` sizes batches so a task targets
:data:`TARGET_TASK_SECONDS` of compute, from a cheap calibration estimate or
the run ledger's grain history) and reduce *inside* the task with the same
strict ``<`` in restart order.  The task winner is provably the only restart
whose owner vector the cross-task reduction can ever need — the global best
restart is the first to attain the global minimum, hence also the first to
attain its own task's minimum — so batches ship one owner vector plus
per-restart regrets/stats, and the caller's reduction stays bit-identical
to serial.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.allocation import UNASSIGNED, Allocation
from repro.core.problem import MROAMInstance

#: Auto-sized restart batches target at least this much compute per pool
#: task — small enough to keep every worker busy, large enough that the
#: per-task dispatch + snapshot cost (~1 ms) disappears into the noise.
TARGET_TASK_SECONDS = 0.5


def allocation_from_owners(instance: MROAMInstance, owners: np.ndarray) -> Allocation:
    """Rebuild an allocation from an owner vector (same sets, same regret)."""
    allocation = Allocation(instance)
    for billboard_id in np.nonzero(np.asarray(owners) != UNASSIGNED)[0]:
        allocation.assign(int(billboard_id), int(owners[billboard_id]))
    return allocation


def resolve_batch_size(
    restart_batch_size,
    num_restarts: int,
    workers: int,
    estimate_seconds: float | None = None,
) -> int:
    """Restarts per pool task for the requested batching mode.

    ``None``/``1`` disables batching; an explicit int is honoured (capped at
    the restart count); ``"auto"`` targets :data:`TARGET_TASK_SECONDS` of
    compute per task using ``estimate_seconds`` (seconds per restart, from a
    calibration pass or :func:`estimated_restart_seconds`), never exceeding
    one wave (``ceil(restarts / workers)``) so no worker goes idle.  Without
    an estimate, ``"auto"`` falls back to exactly one wave — the fattest
    grain that still uses every worker.
    """
    if num_restarts <= 0:
        return 1
    if restart_batch_size is None or restart_batch_size == 1:
        return 1
    per_wave = max(1, math.ceil(num_restarts / max(workers, 1)))
    if restart_batch_size == "auto":
        if estimate_seconds is None or estimate_seconds <= 0.0:
            return per_wave
        batch = max(1, math.ceil(TARGET_TASK_SECONDS / estimate_seconds))
        return min(batch, per_wave)
    batch = int(restart_batch_size)
    if batch < 1:
        raise ValueError(f"restart_batch_size must be >= 1, got {restart_batch_size}")
    return min(batch, num_restarts)


def estimated_restart_seconds(kind: str, instance: MROAMInstance) -> float | None:
    """Mean per-restart compute seconds from the run ledger's grain history.

    Scans ``parallel.grain`` ledger records (written by the drivers below)
    for the same task kind on comparably sized instances; ``None`` when the
    ledger is off, unreadable, or has nothing comparable — callers fall back
    to their own calibration estimate.
    """
    from repro import obs

    path = obs.ledger_path()
    if path is None:
        return None
    try:
        rows = obs.read_ledger(path)
    except (OSError, ValueError):
        return None
    per_restart: list[float] = []
    for row in rows:
        if row.get("kind") != "parallel.grain":
            continue
        grain = row.get("grain") or {}
        if grain.get("task_kind") != kind:
            continue
        features = row.get("instance") or {}
        if features.get("billboards") != instance.num_billboards:
            continue
        seconds = grain.get("mean_restart_seconds")
        if isinstance(seconds, (int, float)) and seconds > 0:
            per_restart.append(float(seconds))
    if not per_restart:
        return None
    return sum(per_restart) / len(per_restart)


def _record_grain(
    instance: MROAMInstance,
    task_kind: str,
    num_restarts: int,
    batch_size: int,
    task_seconds: list[float],
) -> None:
    """Ledger one driver call's grain shape — the calibration data
    :func:`estimated_restart_seconds` feeds back into ``"auto"`` sizing."""
    from repro import obs

    if obs.ledger_path() is None:
        return
    tasks = max(len(task_seconds), 1)
    total = float(sum(task_seconds))
    obs.record_run(
        "parallel.grain",
        instance=instance,
        grain={
            "task_kind": task_kind,
            "restarts": int(num_restarts),
            "tasks": int(len(task_seconds)),
            "batch_size": int(batch_size),
            "mean_task_seconds": total / tasks,
            "mean_restart_seconds": total / max(num_restarts, 1),
        },
    )


def _map_over_shared_instance(
    instance: MROAMInstance, runner, payloads: list, workers: int
) -> list:
    """Run ``runner(instance, payload)`` for each payload across ``workers``
    persistent processes sharing one exported coverage index; results in
    payload order.
    """
    from repro.parallel.pool import instance_pool

    return instance_pool(instance, workers).run(runner, payloads)


def _batches(items: list, batch_size: int) -> list[list]:
    return [items[i : i + batch_size] for i in range(0, len(items), batch_size)]


def _local_search_restart(instance: MROAMInstance, payload: tuple) -> dict:
    """One randomized restart: seed plan → greedy completion → local search."""
    from repro.algorithms.als import advertiser_driven_local_search
    from repro.algorithms.bls import billboard_driven_local_search
    from repro.algorithms.greedy_global import synchronous_greedy

    from repro import obs

    params, seed_ids = payload
    stats: dict = {}
    plan = Allocation(instance)
    with obs.span("restart.greedy"):
        for advertiser_id, billboard_id in enumerate(seed_ids):
            plan.assign(int(billboard_id), int(advertiser_id))
        synchronous_greedy(plan, stats=stats)
    with obs.span("restart.local_search", neighborhood=params["neighborhood"]):
        if params["neighborhood"] == "als":
            plan = advertiser_driven_local_search(
                plan, params["min_improvement"], stats
            )
        else:
            plan = billboard_driven_local_search(
                plan, params["min_improvement"], params["max_sweeps"], stats
            )
    return {
        "owners": np.asarray(plan.owners).copy(),
        "total_regret": float(plan.total_regret()),
        "stats": stats,
    }


def _local_search_restart_batch(instance: MROAMInstance, payload: tuple) -> dict:
    """One pool task running a whole batch of restarts.

    Reduces in-task with the same strict ``<`` in restart order the caller
    applies across tasks, so only the batch winner's owner vector travels
    back; every restart's regret and stats counters still do.
    """
    from repro import obs

    params, seed_batches = payload
    obs.histogram_observe("pool.task.batch", float(len(seed_batches)))
    started = time.perf_counter()  # repro-lint: ignore[determinism] telemetry-only clock
    restarts: list[dict] = []
    winner = -1
    winner_regret = math.inf
    owners: np.ndarray | None = None
    for index, seed_ids in enumerate(seed_batches):
        outcome = _local_search_restart(instance, (params, seed_ids))
        if outcome["total_regret"] < winner_regret:
            winner_regret = outcome["total_regret"]
            winner = index
            owners = outcome["owners"]
        outcome.pop("owners")
        restarts.append(outcome)
    return {
        "restarts": restarts,
        "winner": winner,
        "owners": owners,
        "task_seconds": time.perf_counter() - started,  # repro-lint: ignore[determinism] telemetry-only clock
    }


def run_local_search_restarts(
    instance: MROAMInstance,
    seed_ids_per_restart: list,
    *,
    neighborhood: str,
    min_improvement: float,
    max_sweeps: int | None,
    workers: int,
    restart_batch_size=1,
    estimate_seconds: float | None = None,
) -> list[dict]:
    """Run one restart per pre-drawn seed-id array; results in restart order.

    Each result dict carries ``total_regret``, the restart's ``stats``
    counters, and ``owners`` — the owner vector for restarts that won their
    task's in-task reduction, ``None`` otherwise.  The caller's strict-``<``
    reduction only ever dereferences the final winner's vector, which is
    always present (the global winner is by construction its own task's
    winner), so batched, unbatched, and serial runs reduce identically.
    """
    params = {
        "neighborhood": neighborhood,
        "min_improvement": min_improvement,
        "max_sweeps": max_sweeps,
    }
    if estimate_seconds is None and restart_batch_size == "auto":
        estimate_seconds = estimated_restart_seconds("local_search", instance)
    batch_size = resolve_batch_size(
        restart_batch_size, len(seed_ids_per_restart), workers, estimate_seconds
    )
    if batch_size <= 1:
        payloads = [(params, seed_ids) for seed_ids in seed_ids_per_restart]
        return _map_over_shared_instance(
            instance, _local_search_restart, payloads, workers
        )
    payloads = [
        (params, batch) for batch in _batches(seed_ids_per_restart, batch_size)
    ]
    tasks = _map_over_shared_instance(
        instance, _local_search_restart_batch, payloads, workers
    )
    results: list[dict] = []
    for task in tasks:
        for index, outcome in enumerate(task["restarts"]):
            outcome["owners"] = task["owners"] if index == task["winner"] else None
            results.append(outcome)
    _record_grain(
        instance,
        "local_search",
        len(seed_ids_per_restart),
        batch_size,
        [task["task_seconds"] for task in tasks],
    )
    return results


def _annealing_chain(instance: MROAMInstance, payload: tuple) -> dict:
    from repro.algorithms.annealing import anneal_chain

    steps, initial_temperature, cooling, rng = payload
    chain = anneal_chain(instance, steps, initial_temperature, cooling, rng)
    best = chain.pop("best")
    chain["owners"] = np.asarray(best.owners).copy()
    return chain


def _annealing_chain_batch(instance: MROAMInstance, payload: tuple) -> dict:
    """One pool task running a batch of annealing chains (in-task strict ``<``)."""
    from repro import obs
    from repro.algorithms.annealing import anneal_chain

    steps, initial_temperature, cooling, seeds = payload
    obs.histogram_observe("pool.task.batch", float(len(seeds)))
    started = time.perf_counter()  # repro-lint: ignore[determinism] telemetry-only clock
    chains: list[dict] = []
    winner = -1
    winner_regret = math.inf
    owners: np.ndarray | None = None
    for index, seed in enumerate(seeds):
        chain = anneal_chain(instance, steps, initial_temperature, cooling, seed)
        best = chain.pop("best")
        if chain["best_regret"] < winner_regret:
            winner_regret = chain["best_regret"]
            winner = index
            owners = np.asarray(best.owners).copy()
        chains.append(chain)
    return {
        "chains": chains,
        "winner": winner,
        "owners": owners,
        "task_seconds": time.perf_counter() - started,  # repro-lint: ignore[determinism] telemetry-only clock
    }


def run_annealing_chains(
    instance: MROAMInstance,
    seeds: list,
    *,
    steps: int,
    initial_temperature: float | None,
    cooling: float,
    workers: int,
    restart_batch_size=1,
    estimate_seconds: float | None = None,
) -> list[dict]:
    """Run one annealing chain per seed; results in chain order.

    Returns :func:`repro.algorithms.annealing.anneal_chain` dicts with the
    best plan rebuilt against the caller's instance (workers ship back the
    owner vector, never an allocation).  With batching, only each task's
    winning chain carries a ``"best"`` allocation (others get ``None``) —
    sufficient for the strict-``<`` reduction, see
    :func:`run_local_search_restarts`.
    """
    if estimate_seconds is None and restart_batch_size == "auto":
        estimate_seconds = estimated_restart_seconds("sa", instance)
    batch_size = resolve_batch_size(
        restart_batch_size, len(seeds), workers, estimate_seconds
    )
    if batch_size <= 1:
        payloads = [(steps, initial_temperature, cooling, seed) for seed in seeds]
        chains = _map_over_shared_instance(
            instance, _annealing_chain, payloads, workers
        )
        for chain in chains:
            chain["best"] = allocation_from_owners(instance, chain.pop("owners"))
        return chains
    payloads = [
        (steps, initial_temperature, cooling, batch)
        for batch in _batches(list(seeds), batch_size)
    ]
    tasks = _map_over_shared_instance(
        instance, _annealing_chain_batch, payloads, workers
    )
    chains = []
    for task in tasks:
        for index, chain in enumerate(task["chains"]):
            chain["best"] = (
                allocation_from_owners(instance, task["owners"])
                if index == task["winner"]
                else None
            )
            chains.append(chain)
    _record_grain(
        instance, "sa", len(seeds), batch_size, [task["task_seconds"] for task in tasks]
    )
    return chains
