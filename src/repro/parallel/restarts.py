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

Restart *grain* (DESIGN.md §13): the drivers pack one wave —
``ceil(restarts / workers)`` restarts — into each pool task and reduce
*inside* the task with the same strict ``<`` in restart order.  The task
winner is provably the only restart whose owner vector the cross-task
reduction can ever need — the global best restart is the first to attain
the global minimum, hence also the first to attain its own task's minimum —
so a task ships one owner vector plus per-restart regrets/stats, and the
caller's reduction stays bit-identical to serial.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.allocation import UNASSIGNED, Allocation
from repro.core.problem import MROAMInstance


def allocation_from_owners(instance: MROAMInstance, owners: np.ndarray) -> Allocation:
    """Rebuild an allocation from an owner vector (same sets, same regret)."""
    allocation = Allocation(instance)
    for billboard_id in np.nonzero(np.asarray(owners) != UNASSIGNED)[0]:
        allocation.assign(int(billboard_id), int(owners[billboard_id]))
    return allocation


def _map_waves(
    instance: MROAMInstance, runner, head: tuple, items: list, workers: int
) -> list:
    """Run ``runner(instance, (*head, batch))`` over one-wave batches of
    ``items`` across ``workers`` persistent processes sharing one exported
    coverage index; task results in batch order.
    """
    from repro.parallel.pool import instance_pool

    size = max(1, math.ceil(len(items) / workers))
    payloads = [(*head, items[i : i + size]) for i in range(0, len(items), size)]
    return instance_pool(instance, workers).run(runner, payloads)


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
    return {"restarts": restarts, "winner": winner, "owners": owners}


def run_local_search_restarts(
    instance: MROAMInstance,
    seed_ids_per_restart: list,
    *,
    neighborhood: str,
    min_improvement: float,
    max_sweeps: int | None,
    workers: int,
) -> list[dict]:
    """Run one restart per pre-drawn seed-id array; results in restart order.

    Each result dict carries ``total_regret``, the restart's ``stats``
    counters, and ``owners`` — the owner vector for restarts that won their
    task's in-task reduction, ``None`` otherwise.  The caller's strict-``<``
    reduction only ever dereferences the final winner's vector, which is
    always present (the global winner is by construction its own task's
    winner), so parallel and serial runs reduce identically.
    """
    params = {
        "neighborhood": neighborhood,
        "min_improvement": min_improvement,
        "max_sweeps": max_sweeps,
    }
    tasks = _map_waves(
        instance, _local_search_restart_batch, (params,), seed_ids_per_restart, workers
    )
    results: list[dict] = []
    for task in tasks:
        for index, outcome in enumerate(task["restarts"]):
            outcome["owners"] = task["owners"] if index == task["winner"] else None
            results.append(outcome)
    return results


def _annealing_chain_batch(instance: MROAMInstance, payload: tuple) -> dict:
    """One pool task running a batch of annealing chains (in-task strict ``<``)."""
    from repro import obs
    from repro.algorithms.annealing import anneal_chain

    steps, initial_temperature, cooling, seeds = payload
    obs.histogram_observe("pool.task.batch", float(len(seeds)))
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
    return {"chains": chains, "winner": winner, "owners": owners}


def run_annealing_chains(
    instance: MROAMInstance,
    seeds: list,
    *,
    steps: int,
    initial_temperature: float | None,
    cooling: float,
    workers: int,
) -> list[dict]:
    """Run one annealing chain per seed; results in chain order.

    Returns :func:`repro.algorithms.annealing.anneal_chain` dicts with the
    best plan rebuilt against the caller's instance (workers ship back the
    owner vector, never an allocation).  Only each task's winning chain
    carries a ``"best"`` allocation (others get ``None``) — sufficient for
    the strict-``<`` reduction, see :func:`run_local_search_restarts`.
    """
    tasks = _map_waves(
        instance,
        _annealing_chain_batch,
        (steps, initial_temperature, cooling),
        seeds,
        workers,
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
    return chains
