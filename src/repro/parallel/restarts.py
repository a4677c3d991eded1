"""Restart fan-out: independent restarts/chains in one-wave tasks.

Random restarts (Algorithm 3) and annealing chains are independent items
over one instance.  :func:`run_restarts` packs one wave —
``ceil(items / workers)`` items — into each task and hands the tasks to
:func:`repro.parallel.pool.run_tasks`: in this process when ``workers ==
1``, otherwise on the instance's persistent pool, whose workers attach the
coverage index through shared memory and rebuild the instance around it.
Items carry pre-drawn seeds, so both paths run the same restarts.

Each task reduces its batch with strict ``<`` in item order (DESIGN.md
§13).  The task winner is provably the only item whose owner vector the
caller's reduction can ever need — the global best item is the first to
attain the global minimum, hence also the first to attain its own task's
minimum — so a task ships one owner vector plus every item's outcome.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.core.allocation import UNASSIGNED, Allocation
from repro.core.problem import MROAMInstance


def allocation_from_owners(instance: MROAMInstance, owners: np.ndarray) -> Allocation:
    """Rebuild an allocation from an owner vector (same sets, same regret)."""
    allocation = Allocation(instance)
    for billboard_id in np.nonzero(np.asarray(owners) != UNASSIGNED)[0]:
        allocation.assign(int(billboard_id), int(owners[billboard_id]))
    return allocation


def _run_wave(instance: MROAMInstance, payload: tuple) -> tuple:
    """One task: ``run_one`` over a batch of items, reduced in-task."""
    run_one, head, items = payload
    outcomes: list[dict] = []
    winner = -1
    winner_regret = math.inf
    owners: np.ndarray | None = None
    for index, item in enumerate(items):
        regret, plan, outcome = run_one(instance, *head, item)
        if regret < winner_regret:
            winner_regret = regret
            winner = index
            owners = np.asarray(plan.owners).copy()
        outcomes.append(outcome)
    return outcomes, winner, owners


def run_restarts(
    instance: MROAMInstance, run_one, head: tuple, items: list, workers: int
) -> list[tuple[dict, np.ndarray | None]]:
    """Run ``run_one(instance, *head, item)`` for every item; item order.

    ``run_one`` is a module-level function returning ``(regret, plan,
    outcome)`` with a picklable ``outcome``.  Each result pairs the item's
    outcome with its plan's owner vector if it won its task's strict-``<``
    reduction, ``None`` otherwise — enough for the caller's strict-``<``
    reduction in item order, which only ever dereferences the final
    winner's vector.
    """
    from repro.parallel.pool import run_tasks

    size = max(1, math.ceil(len(items) / workers))
    payloads = [(run_one, head, items[i : i + size]) for i in range(0, len(items), size)]
    for payload in payloads:
        obs.histogram_observe("pool.task.batch", float(len(payload[2])))
    # Pool workers rebuild the instance around the attached coverage.
    export = lambda: (
        instance.coverage,
        MROAMInstance,
        (list(instance.advertisers), instance.gamma),
    )
    tasks = run_tasks(instance, _run_wave, payloads, workers, export)
    results: list[tuple[dict, np.ndarray | None]] = []
    for outcomes, winner, owners in tasks:
        results.extend(
            (outcome, owners if index == winner else None)
            for index, outcome in enumerate(outcomes)
        )
    return results
