"""Simulated annealing over the billboard-level move set.

An extension baseline (not in the paper): the paper's Section 6 framework is
restart + strictly-improving local search; annealing explores the same
neighbourhood — assign, release, exchange — but accepts worsening moves with
Metropolis probability ``exp(−Δ/T)`` under a geometric cooling schedule.
Included to let users check whether MROAM's landscape rewards the paper's
choice (the ablation bench compares the two at matched budgets).

``restarts > 1`` runs that many independent chains (seeds spawned from the
solver seed) and keeps the best plan seen across them.  Every chain runs
through :func:`repro.parallel.restarts.run_restarts`: in this process with
``restart_workers`` unset or ``1``, otherwise over processes that attach the
coverage index through shared memory.  Both run the same chains from the
same seeds, so they return the identical best allocation.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.algorithms.base import Solver
from repro.algorithms.greedy_global import SynchronousGreedy
from repro.core.allocation import UNASSIGNED, Allocation
from repro.core.moves import delta_assign, delta_exchange_billboards, delta_release
from repro.core.problem import MROAMInstance
from repro.utils.rng import as_generator, spawn_children


def _propose(allocation: Allocation, rng: np.random.Generator):
    """One random move as ``(delta, apply_callable)`` or ``None``."""
    instance = allocation.instance
    kind = rng.integers(0, 3)
    if kind == 0 and allocation.unassigned:  # assign
        billboard_id = int(rng.choice(sorted(allocation.unassigned)))
        advertiser_id = int(rng.integers(instance.num_advertisers))
        delta = delta_assign(allocation, billboard_id, advertiser_id)
        return delta, lambda: allocation.assign(billboard_id, advertiser_id)
    if kind == 1:  # release
        assigned = np.nonzero(allocation.owners != UNASSIGNED)[0]
        if len(assigned) == 0:
            return None
        billboard_id = int(rng.choice(assigned))
        delta = delta_release(allocation, billboard_id)
        return delta, lambda: allocation.release(billboard_id)
    # exchange two random billboards (possibly one unassigned)
    billboard_a, billboard_b = rng.integers(0, instance.num_billboards, size=2)
    if billboard_a == billboard_b:
        return None
    if allocation.owner_of(int(billboard_a)) == allocation.owner_of(int(billboard_b)):
        return None
    delta = delta_exchange_billboards(allocation, int(billboard_a), int(billboard_b))
    return delta, lambda: allocation.exchange_billboards(
        int(billboard_a), int(billboard_b)
    )


def anneal_chain(
    instance: MROAMInstance,
    steps: int,
    initial_temperature: float | None,
    cooling: float,
    rng,
) -> tuple:
    """One Metropolis chain from the greedy start.

    Returns ``(best_regret, best plan, outcome)`` for
    :func:`repro.parallel.restarts.run_restarts`; the picklable ``outcome``
    dict holds the best regret, the acceptance count, the final temperature,
    and the telemetry samples ``(best_regret, proposed, accepted_delta)`` —
    the chain itself records nothing, so it runs identically inside a worker
    process and in the solver's own process.
    """
    rng = as_generator(rng)
    with obs.span("anneal.chain", steps=int(steps)):
        outcome = _anneal_chain_body(instance, steps, initial_temperature, cooling, rng)
    best = outcome.pop("best")
    return outcome["best_regret"], best, outcome


def _anneal_chain_body(
    instance: MROAMInstance,
    steps: int,
    initial_temperature: float | None,
    cooling: float,
    rng,
) -> dict:
    allocation = SynchronousGreedy().solve(instance).allocation
    current_regret = allocation.total_regret()
    best = allocation.clone()
    best_regret = current_regret

    temperature = initial_temperature
    if temperature is None:
        scale = current_regret if current_regret > 0 else instance.total_payment()
        temperature = max(0.05 * scale, 1e-6)

    accepted = 0
    # Telemetry sampling window: ~100 convergence points per chain.
    sample_every = max(1, steps // 100)
    steps_since_sample = 0
    accepted_at_sample = 0
    samples = []
    for step in range(steps):
        proposal = _propose(allocation, rng)
        temperature *= cooling
        if proposal is not None:
            delta, apply_move = proposal
            if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-12)):
                apply_move()
                current_regret += delta
                accepted += 1
                if current_regret < best_regret - 1e-12:
                    best_regret = current_regret
                    best = allocation.clone()
        steps_since_sample += 1
        if steps_since_sample == sample_every or step + 1 == steps:
            samples.append((best_regret, steps_since_sample, accepted - accepted_at_sample))
            steps_since_sample = 0
            accepted_at_sample = accepted
    return {
        "best": best,
        "best_regret": best_regret,
        "accepted": accepted,
        "final_temperature": temperature,
        "samples": samples,
    }


class SimulatedAnnealingSolver(Solver):
    """Metropolis search over assign/release/exchange moves.

    Parameters
    ----------
    steps:
        Number of proposed moves per chain.
    initial_temperature:
        Starting temperature, in regret units.  ``None`` self-calibrates to
        a fraction of the greedy plan's regret (or of the total payment when
        the greedy already reaches zero).
    cooling:
        Geometric decay per step (``T ← T · cooling``).
    seed:
        RNG seed or generator.
    restarts:
        Number of independent chains; the best plan across chains wins
        (first chain wins ties).  ``1`` (default) preserves the classic
        single-chain behaviour bit-for-bit.
    restart_workers:
        Fan chains out over this many processes attached to a shared-memory
        coverage index; ``None``/``1`` runs them in this process.  Same
        result either way (one wave of chains per task, DESIGN.md §13).
    """

    name = "SA"

    def __init__(
        self,
        steps: int = 20_000,
        initial_temperature: float | None = None,
        cooling: float = 0.9995,
        seed=None,
        restarts: int = 1,
        restart_workers: int | None = None,
    ) -> None:
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        if not 0.0 < cooling <= 1.0:
            raise ValueError(f"cooling must be in (0, 1], got {cooling}")
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        if restart_workers is not None and restart_workers < 1:
            raise ValueError(
                f"restart_workers must be >= 1, got {restart_workers}"
            )
        self.steps = steps
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.seed = seed
        self.restarts = restarts
        self.restart_workers = restart_workers

    def _solve(self, instance: MROAMInstance, stats: dict) -> Allocation:
        from repro.parallel.restarts import allocation_from_owners, run_restarts

        # One chain keeps the classic single-chain seed; several chains draw
        # spawned child seeds.
        if self.restarts == 1:
            seeds = [self.seed]
        else:
            seeds = spawn_children(self.seed, self.restarts)
        chains = run_restarts(
            instance,
            anneal_chain,
            (self.steps, self.initial_temperature, self.cooling),
            seeds,
            self.restart_workers or 1,
        )

        # Strict < in chain order: the winner is always its own task's
        # winner, so its owner vector is always present.
        best_owners = None
        best_regret = math.inf
        accepted = 0
        for index, (chain, owners) in enumerate(chains):
            for best_so_far, proposed, accepted_delta in chain["samples"]:
                self.record_iteration(
                    min(best_regret, best_so_far),
                    moves_evaluated=proposed,
                    moves_accepted=accepted_delta,
                )
            accepted += chain["accepted"]
            if chain["best_regret"] < best_regret:
                best_regret = chain["best_regret"]
                best_owners = owners
                stats["sa_best_restart"] = index
        best = allocation_from_owners(instance, best_owners)

        stats["sa_steps"] = self.steps * self.restarts
        stats["sa_accepted"] = accepted
        stats["sa_final_temperature"] = chains[-1][0]["final_temperature"]
        if self.restarts > 1:
            stats["sa_restarts"] = self.restarts
        return best
