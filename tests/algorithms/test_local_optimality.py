"""BLS and ALS terminate at genuine local optima, checked by brute force.

The equivalence suites compare the production sweeps against the rescan
oracles, which only shows that two implementations agree.  These tests check
the property Theorem 2 actually rests on, independently of both: once a
search returns, no move in its neighbourhood improves total regret by more
than ``min_improvement``.  Every candidate move is applied to plain Python
sets and priced with Eq. 1 recomputed from scratch — influence from
:meth:`CoverageIndex.influence_of_set`, regret from
:func:`repro.core.regret.regret` — so no allocation counter, cached
influence, screen or certificate is trusted.
"""

from __future__ import annotations

import pytest

from repro.algorithms.als import advertiser_driven_local_search
from repro.algorithms.bls import billboard_driven_local_search
from repro.algorithms.greedy_global import synchronous_greedy
from repro.algorithms.sweep import BillboardSweepState
from repro.core.allocation import Allocation
from repro.core.regret import regret
from repro.market.scenario import Scenario
from tests.conftest import random_allocation

MIN_IMPROVEMENT = 1e-9
#: Slack for float associativity: the sweep sums per-advertiser deltas, the
#: brute force differences two from-scratch totals.
FLOAT_SLACK = 1e-9

DATASETS = ("nyc", "sg")
GAMMAS = (0.0, 0.5, 1.0)


def tiny_instance(dataset: str, gamma: float):
    return Scenario(
        dataset=dataset, n_billboards=24, n_trajectories=2000, alpha=0.8,
        p_avg=0.1, gamma=gamma, seed=5,
    ).build_instance()


def plan_sets(allocation) -> list[set[int]]:
    return [
        set(allocation.billboards_of(advertiser_id))
        for advertiser_id in range(allocation.instance.num_advertisers)
    ]


def eq1(instance, advertiser_id: int, billboards: set[int]) -> float:
    """Eq. 1 for one advertiser, influence recomputed from the raw set."""
    advertiser = instance.advertisers[advertiser_id]
    achieved = instance.coverage.influence_of_set(sorted(billboards))
    return regret(advertiser.payment, advertiser.demand, achieved, instance.gamma)


def total_eq1(instance, sets: list[set[int]]) -> float:
    return sum(eq1(instance, i, s) for i, s in enumerate(sets))


def improvement(instance, sets, changed: dict[int, set[int]]) -> float:
    """Regret drop of replacing the sets in ``changed`` (others untouched)."""
    before = sum(eq1(instance, i, sets[i]) for i in changed)
    after = sum(eq1(instance, i, s) for i, s in changed.items())
    return before - after


def assert_bls_local_optimum(allocation) -> None:
    """No exchange, release, or top-up improves by more than the threshold."""
    instance = allocation.instance
    sets = plan_sets(allocation)
    owner = {b: i for i, s in enumerate(sets) for b in s}
    worst = []
    for billboard, own in owner.items():
        # Move family 3: release.
        worst.append(improvement(instance, sets, {own: sets[own] - {billboard}}))
        # Move families 1 & 2: exchange with any billboard ``own`` lacks.
        for other in range(instance.num_billboards):
            if other in sets[own]:
                continue
            changed = {own: sets[own] - {billboard} | {other}}
            partner = owner.get(other)
            if partner is not None:
                changed[partner] = sets[partner] - {other} | {billboard}
            worst.append(improvement(instance, sets, changed))
    assert max(worst, default=0.0) <= MIN_IMPROVEMENT + FLOAT_SLACK
    # Move family 4: the greedy top-up over the free pool is not adopted.
    if len(owner) < instance.num_billboards:
        candidate = allocation.clone()
        synchronous_greedy(candidate)
        gain = total_eq1(instance, sets) - total_eq1(instance, plan_sets(candidate))
        assert gain <= MIN_IMPROVEMENT + FLOAT_SLACK


def assert_als_local_optimum(allocation) -> None:
    """No whole-set exchange between two advertisers improves."""
    instance = allocation.instance
    sets = plan_sets(allocation)
    worst = [
        improvement(instance, sets, {a: sets[b], b: sets[a]})
        for a in range(instance.num_advertisers)
        for b in range(a + 1, instance.num_advertisers)
    ]
    assert max(worst, default=0.0) <= MIN_IMPROVEMENT + FLOAT_SLACK


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("dataset", DATASETS)
class TestBLS:
    def test_from_greedy_start(self, dataset, gamma):
        instance = tiny_instance(dataset, gamma)
        allocation = Allocation(instance)
        synchronous_greedy(allocation)
        result = billboard_driven_local_search(allocation, MIN_IMPROVEMENT)
        assert_bls_local_optimum(result)

    def test_from_random_start(self, dataset, gamma):
        instance = tiny_instance(dataset, gamma)
        result = billboard_driven_local_search(
            random_allocation(instance, seed=7), MIN_IMPROVEMENT
        )
        assert_bls_local_optimum(result)

    def test_carried_state_trusted_termination(self, dataset, gamma):
        """``final_verify=False`` stops at the first empty sweep on the
        strength of the certificates alone; the result must still be a local
        optimum — cold, and again after a perturbation recorded in the
        carried state."""
        instance = tiny_instance(dataset, gamma)
        state = BillboardSweepState(instance.num_advertisers, instance.num_billboards)
        allocation = billboard_driven_local_search(
            random_allocation(instance, seed=11),
            MIN_IMPROVEMENT,
            max_sweeps=None,
            state=state,
            final_verify=False,
        )
        assert_bls_local_optimum(allocation)

        # Free one billboard of the busiest advertiser, record the move in
        # the carried state, and let the warm certificates drive the rerun.
        sets = plan_sets(allocation)
        busiest = max(range(len(sets)), key=lambda i: (len(sets[i]), -i))
        freed = min(sets[busiest])
        allocation.release(freed)
        state.mark_move(advertisers=(busiest,), freed=(freed,))
        allocation = billboard_driven_local_search(
            allocation,
            MIN_IMPROVEMENT,
            max_sweeps=None,
            state=state,
            final_verify=False,
        )
        assert_bls_local_optimum(allocation)


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_als_local_optimum(dataset, gamma):
    instance = tiny_instance(dataset, gamma)
    greedy_start = Allocation(instance)
    synchronous_greedy(greedy_start)
    for start in (greedy_start, random_allocation(instance, seed=3)):
        result = advertiser_driven_local_search(start, MIN_IMPROVEMENT)
        assert_als_local_optimum(result)
