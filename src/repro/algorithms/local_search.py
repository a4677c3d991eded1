"""The randomized local search framework (paper Algorithm 3).

The framework first takes the synchronous greedy plan as the incumbent and
refines it with the configured neighbourhood search.  It then performs a
number of *random restarts*: each restart seeds every advertiser with one
uniformly random billboard, completes the plan with the synchronous greedy,
runs the neighbourhood search, and keeps the best plan seen.  The random
seeding is what lets the framework escape the greedy's poor local minima
(the objective is neither monotone nor submodular, Example 2 of the paper).

The two neighbourhoods are the paper's ALS (Algorithm 4, advertiser-set
exchanges) and BLS (Algorithm 5, billboard-level moves).

Every restart runs through :func:`repro.parallel.restarts.run_restarts`:
in this process with ``restart_workers`` unset or ``1``, otherwise over
worker processes that attach the coverage index through shared memory.
The restart seed plans are pre-drawn from one sequential RNG stream and the
best-plan reduction applies the same strict ``<`` in restart order either
way, so serial and parallel runs return the identical best allocation.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.algorithms.als import advertiser_driven_local_search
from repro.algorithms.bls import billboard_driven_local_search
from repro.algorithms.greedy_global import synchronous_greedy
from repro.core.allocation import Allocation
from repro.core.problem import MROAMInstance
from repro.algorithms.base import Solver
from repro.utils.rng import as_generator

NEIGHBORHOODS = ("als", "bls")


def _neighborhood_search(
    plan: Allocation,
    stats: dict,
    neighborhood: str,
    min_improvement: float,
    max_sweeps: int | None,
) -> Allocation:
    if neighborhood == "als":
        return advertiser_driven_local_search(plan, min_improvement, stats)
    return billboard_driven_local_search(plan, min_improvement, max_sweeps, stats)


def _restart(instance: MROAMInstance, params: tuple, seed_ids: np.ndarray) -> tuple:
    """Lines 3.3-3.8: one billboard per advertiser from ``seed_ids``, the
    synchronous greedy completion, then the neighbourhood search.

    Returns ``(regret, plan, outcome)`` for
    :func:`repro.parallel.restarts.run_restarts`; ``outcome`` carries the
    regret and this restart's own stats counters.
    """
    stats: dict = {}
    plan = Allocation(instance)
    with obs.span("restart.greedy"):
        for advertiser_id, billboard_id in enumerate(seed_ids):
            plan.assign(int(billboard_id), int(advertiser_id))
        synchronous_greedy(plan, stats=stats)
    with obs.span("restart.local_search", neighborhood=params[0]):
        plan = _neighborhood_search(plan, stats, *params)
    regret = plan.total_regret()
    return regret, plan, {"total_regret": regret, "stats": stats}


class RandomizedLocalSearch(Solver):
    """Algorithm 3 parameterized by the neighbourhood search strategy.

    Parameters
    ----------
    neighborhood:
        ``"als"`` (Algorithm 4) or ``"bls"`` (Algorithm 5).
    restarts:
        The "preset count" of random restarts (Algorithm 3 line 3.2); the
        deterministic greedy start is refined in addition to these.
    seed:
        RNG seed (or generator) driving the random restart plans.
    min_improvement:
        Acceptance threshold forwarded to the neighbourhood search.
    max_sweeps:
        Optional sweep cap forwarded to the BLS neighbourhood.
    restart_workers:
        Fan the random restarts out over this many worker processes attached
        to a shared-memory coverage index; ``None``/``1`` runs them in this
        process.  Each task runs one wave of ``ceil(restarts /
        restart_workers)`` restarts (DESIGN.md §13).  Same best allocation
        either way.
    """

    def __init__(
        self,
        neighborhood: str = "bls",
        restarts: int = 5,
        seed=None,
        min_improvement: float = 1e-9,
        max_sweeps: int | None = None,
        restart_workers: int | None = None,
    ) -> None:
        if neighborhood not in NEIGHBORHOODS:
            raise ValueError(
                f"unknown neighborhood {neighborhood!r}; expected one of {NEIGHBORHOODS}"
            )
        if restarts < 0:
            raise ValueError(f"restarts must be non-negative, got {restarts}")
        if restart_workers is not None and restart_workers < 1:
            raise ValueError(
                f"restart_workers must be >= 1, got {restart_workers}"
            )
        self.neighborhood = neighborhood
        self.restarts = restarts
        self.seed = seed
        self.min_improvement = min_improvement
        self.max_sweeps = max_sweeps
        self.restart_workers = restart_workers
        self.name = neighborhood.upper()

    def _random_seed_ids(
        self, instance: MROAMInstance, rng: np.random.Generator
    ) -> np.ndarray:
        """The billboard drawn for each advertiser (one RNG shuffle)."""
        pool = np.arange(instance.num_billboards)
        rng.shuffle(pool)
        return pool[: min(instance.num_advertisers, len(pool))].copy()

    # Cumulative stats counters the restart telemetry reports as deltas.
    _EVALUATED_KEYS = (
        "als_moves_evaluated",
        "bls_exchange_evaluated",
        "bls_release_evaluated",
    )
    _ACCEPTED_KEYS = (
        "als_exchanges",
        "bls_exchanges",
        "bls_releases",
        "bls_topups",
        "assignments",
        "releases",
    )

    def _record_restart(self, best_regret: float, before: dict, stats: dict) -> None:
        """One telemetry point per restart: best regret + this restart's moves."""

        def delta(keys: tuple) -> int:
            return sum(stats.get(k, 0) - before.get(k, 0) for k in keys)

        self.record_iteration(
            best_regret,
            moves_evaluated=delta(self._EVALUATED_KEYS),
            moves_accepted=delta(self._ACCEPTED_KEYS),
            # Candidates the restart's greedy calls priced.
            marginal_gain_evals=delta(("marginal_gain_evals",)),
        )

    @staticmethod
    def _merge_stats(stats: dict, extra: dict) -> None:
        """Fold a restart's counters into the cumulative stats dict."""
        for key, value in extra.items():
            if isinstance(value, (int, float)):
                stats[key] = stats.get(key, 0) + value

    def _solve(self, instance: MROAMInstance, stats: dict) -> Allocation:
        from repro.parallel.restarts import allocation_from_owners, run_restarts

        rng = as_generator(self.seed)
        params = (self.neighborhood, self.min_improvement, self.max_sweeps)

        # Line 3.1: incumbent from the synchronous greedy, then refined.
        before = dict(stats)
        best = Allocation(instance)
        synchronous_greedy(best, stats=stats)
        best = _neighborhood_search(best, stats, *params)
        best_regret = best.total_regret()
        stats["best_restart"] = -1  # -1 = the deterministic greedy start
        self._record_restart(best_regret, before, stats)

        seed_ids = [self._random_seed_ids(instance, rng) for _ in range(self.restarts)]
        outcomes = run_restarts(
            instance, _restart, (params,), seed_ids, self.restart_workers or 1
        )
        with obs.span("restart.reduce", restarts=len(outcomes)):
            best_owners = None
            for restart, (outcome, owners) in enumerate(outcomes):
                before = dict(stats)
                self._merge_stats(stats, outcome["stats"])
                if outcome["total_regret"] < best_regret:
                    best_regret = outcome["total_regret"]
                    best_owners = owners
                    stats["best_restart"] = restart
                self._record_restart(best_regret, before, stats)
            if best_owners is not None:
                best = allocation_from_owners(instance, best_owners)
        stats["restarts"] = self.restarts
        return best
