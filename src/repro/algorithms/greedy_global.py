"""G-Global: the synchronous greedy (paper Algorithm 2).

Unsatisfied advertisers are served round-robin, one billboard each per round,
so no single advertiser monopolizes the ideal inventory.  When the pool runs
dry while several advertisers remain unsatisfied, the least budget-effective
unsatisfied advertiser is *released* — its billboards return to the pool and
it is excluded from further assignment (it ends with an empty set and pays
the full unsatisfied penalty) — until fewer than two advertisers remain
unsatisfied.

The function form :func:`synchronous_greedy` mutates an existing allocation,
which is how Algorithms 3 and 5 invoke it as a subroutine with a non-empty
starting plan ``S^in``.
"""

from __future__ import annotations

from repro.algorithms._marginal import best_marginal_billboard, sorted_unassigned
from repro.algorithms.base import Solver
from repro.core.allocation import Allocation
from repro.core.problem import MROAMInstance


def synchronous_greedy(
    allocation: Allocation,
    active: set[int] | None = None,
    stats: dict | None = None,
) -> None:
    """Run Algorithm 2 in place on ``allocation``.

    Parameters
    ----------
    allocation:
        The plan to extend; may already hold assignments (``S^in``).
    active:
        Advertiser ids eligible for assignment; defaults to all.  Mutated in
        place as advertisers are released.
    stats:
        Optional output dict receiving ``assignments`` / ``releases`` counts
        and ``marginal_gain_evals``, the candidates priced.
    """
    instance = allocation.instance
    if active is None:
        active = set(range(instance.num_advertisers))
    assignments = 0
    releases = 0
    priced = 0

    while True:
        unsatisfied = [i for i in sorted(active) if not allocation.is_satisfied(i)]
        if not unsatisfied:
            break

        progress = False
        for advertiser_id in unsatisfied:
            if allocation.is_satisfied(advertiser_id):
                continue
            candidates = sorted_unassigned(allocation)
            priced += len(candidates)
            pick = best_marginal_billboard(allocation, advertiser_id, candidates)
            if pick is None:
                continue
            allocation.assign(pick, advertiser_id)
            assignments += 1
            progress = True

        if progress:
            continue

        # The pool is exhausted (or only useless billboards remain).  Release
        # the least budget-effective unsatisfied advertiser so the others can
        # be topped up, until fewer than two remain unsatisfied (lines
        # 2.9-2.13).
        unsatisfied = [i for i in sorted(active) if not allocation.is_satisfied(i)]
        if len(unsatisfied) >= 2:
            victim = min(
                unsatisfied,
                key=lambda i: (instance.advertisers[i].budget_effectiveness, i),
            )
            allocation.release_all(victim)
            active.discard(victim)
            releases += 1
        else:
            break

    if stats is not None:
        stats["assignments"] = stats.get("assignments", 0) + assignments
        stats["releases"] = stats.get("releases", 0) + releases
        stats["marginal_gain_evals"] = stats.get("marginal_gain_evals", 0) + priced


class SynchronousGreedy(Solver):
    """Algorithm 2 as a standalone solver (the paper's G-Global)."""

    name = "G-Global"

    def _solve(self, instance: MROAMInstance, stats: dict) -> Allocation:
        allocation = Allocation(instance)
        synchronous_greedy(allocation, stats=stats)
        return allocation
