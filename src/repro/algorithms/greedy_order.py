"""G-Order: the budget-effective greedy (paper Algorithm 1).

Advertisers are served one at a time in descending budget-effectiveness
``L_i/I_i``; each is fed the billboard with the best regret-effectiveness
ratio until satisfied or the inventory runs out.  The paper uses this as the
weaker baseline: early advertisers exhaust the ideal billboards, so in tight
markets the tail advertisers go badly unsatisfied.
"""

from __future__ import annotations

from repro.algorithms._marginal import best_marginal_billboard, sorted_unassigned
from repro.algorithms.base import Solver
from repro.core.allocation import Allocation
from repro.core.problem import MROAMInstance


class BudgetEffectiveGreedy(Solver):
    """Algorithm 1: serve advertisers in descending ``L_i/I_i`` order."""

    name = "G-Order"

    def _solve(self, instance: MROAMInstance, stats: dict) -> Allocation:
        allocation = Allocation(instance)
        order = sorted(
            range(instance.num_advertisers),
            key=lambda i: (-instance.advertisers[i].budget_effectiveness, i),
        )
        assignments = 0
        priced = 0
        for advertiser_id in order:
            demand = instance.advertisers[advertiser_id].demand
            while allocation.influence(advertiser_id) < demand:
                candidates = sorted_unassigned(allocation)
                priced += len(candidates)
                pick = best_marginal_billboard(allocation, advertiser_id, candidates)
                if pick is None:
                    # The pool is empty or holds only zero-influence
                    # billboards, which can never close the gap.
                    break
                allocation.assign(pick, advertiser_id)
                assignments += 1
        stats["assignments"] = assignments
        stats["marginal_gain_evals"] = priced
        return allocation
