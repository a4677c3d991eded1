"""Tests for the billboard-driven local search (Algorithm 5)."""

import pytest

from repro.algorithms.bls import (
    _find_improving_exchange,
    billboard_driven_local_search,
)
from repro.algorithms.screen import _optimistic_regret, round_flags
from repro.billboard.influence import CoverageIndex
from repro.core.advertiser import Advertiser
from repro.core.allocation import UNASSIGNED, Allocation
from repro.core.moves import delta_exchange_billboards, delta_release
from repro.core.problem import MROAMInstance
from repro.core.validation import validate_allocation
from tests.conftest import make_random_instance, random_allocation
from tests.oracles import all_exchange_candidates, exchange_screen

import numpy as np


class TestOptimisticRegret:
    def test_zero_when_demand_reachable(self):
        values = _optimistic_regret(
            np.array([10.0]), np.array([5.0]), 0.5, np.array([3.0]), np.array([7.0])
        )
        assert values[0] == 0.0

    def test_unsatisfied_interval(self):
        values = _optimistic_regret(
            np.array([10.0]), np.array([5.0]), 0.5, np.array([1.0]), np.array([3.0])
        )
        # Best is at hi=3: 10(1 − 0.5·3/5) = 7.
        assert values[0] == pytest.approx(7.0)

    def test_excessive_interval(self):
        values = _optimistic_regret(
            np.array([10.0]), np.array([5.0]), 0.5, np.array([7.0]), np.array([9.0])
        )
        # Best is at lo=7: 10·(7−5)/5 = 4.
        assert values[0] == pytest.approx(4.0)

    def test_is_a_true_lower_bound_on_regret(self):
        from repro.core.regret import regret

        rng = np.random.default_rng(0)
        for _ in range(200):
            payment = float(rng.uniform(1, 50))
            demand = float(rng.integers(1, 30))
            gamma = float(rng.uniform(0, 1))
            lo = float(rng.uniform(0, 40))
            hi = lo + float(rng.uniform(0, 20))
            bound = _optimistic_regret(
                np.array([payment]), np.array([demand]), gamma, np.array([lo]), np.array([hi])
            )[0]
            for value in np.linspace(lo, hi, 7):
                assert bound <= regret(payment, demand, float(value), gamma) + 1e-9


class TestExampleFromPaper:
    def test_example3_billboard_swap(self):
        """Example 3 of the paper: whole-set exchange fails but swapping o1
        with o3 reaches zero regret."""
        x = 6
        coverage = CoverageIndex.from_coverage_lists(
            [
                list(range(x - 1)),  # o1: t1..t_{x-1}
                list(range(x - 2)) + [x - 1],  # o2: t1..t_{x-2}, t_x
                [x - 1, x],  # o3: t_x, t_{x+1}
            ],
            num_trajectories=x + 1,
        )
        instance = MROAMInstance(
            coverage,
            [Advertiser(0, x, float(x)), Advertiser(1, x - 1, float(x - 1))],
            gamma=0.5,
        )
        allocation = Allocation(instance)
        allocation.assign(0, 0)  # S1 = {o1, o2}
        allocation.assign(1, 0)
        allocation.assign(2, 1)  # S2 = {o3}
        assert allocation.influence(0) == x
        assert allocation.influence(1) == 2
        result = billboard_driven_local_search(allocation)
        assert result.total_regret() == pytest.approx(0.0)


def _scan(allocation, advertiser_id, billboard, min_improvement=1e-9):
    """The exact exchange scan over every legal partner of ``billboard``."""
    candidates = all_exchange_candidates(allocation.owners, advertiser_id, billboard)
    return _find_improving_exchange(
        allocation, advertiser_id, billboard, candidates, min_improvement
    )


class TestFindImprovingExchange:
    def test_returns_none_at_local_optimum(self, tiny_instance):
        allocation = Allocation(tiny_instance)
        allocation.assign(0, 0)  # influence 3 < demand 4
        allocation.assign(1, 0)  # now 4 == demand: zero regret for a0
        allocation.assign(2, 1)  # influence 3 == demand: zero regret for a1
        for advertiser_id in (0, 1):
            for billboard in allocation.billboards_of(advertiser_id):
                assert _scan(allocation, advertiser_id, billboard) is None

    def test_found_partner_really_improves(self):
        for seed in range(8):
            instance = make_random_instance(seed, num_billboards=10, num_advertisers=3)
            allocation = random_allocation(instance, seed + 100)
            for advertiser_id in range(instance.num_advertisers):
                for billboard in sorted(allocation.billboards_of(advertiser_id)):
                    partner = _scan(allocation, advertiser_id, billboard)
                    if partner is not None:
                        delta = delta_exchange_billboards(allocation, billboard, partner)
                        assert delta < 0

    def test_exhaustive_cross_check(self):
        # If the scan says "no improving partner", brute force must agree.
        for seed in range(8):
            instance = make_random_instance(seed + 50, num_billboards=8, num_advertisers=2)
            allocation = random_allocation(instance, seed + 200)
            for advertiser_id in range(instance.num_advertisers):
                for billboard in sorted(allocation.billboards_of(advertiser_id)):
                    partner = _scan(allocation, advertiser_id, billboard)
                    if partner is None:
                        for other in range(instance.num_billboards):
                            if other == billboard:
                                continue
                            if allocation.owner_of(other) == advertiser_id:
                                continue
                            assert (
                                delta_exchange_billboards(allocation, billboard, other)
                                >= -1e-9
                            )

    def test_state_unchanged_by_scan(self, tiny_instance):
        allocation = Allocation(tiny_instance)
        allocation.assign(0, 0)
        allocation.assign(2, 1)
        snapshot = allocation.assignment_map()
        _scan(allocation, 0, 0)
        assert allocation.assignment_map() == snapshot
        validate_allocation(allocation)


def _round_verdicts(allocation, advertiser_id, owned, candidate_sets):
    """One dense ``round_flags`` block over an advertiser's rows, each row's
    candidate set marked on a full-inventory pool."""
    pool = np.arange(allocation.instance.num_billboards)
    changed = np.zeros((len(owned), len(pool)), dtype=bool)
    for row, ids in enumerate(candidate_sets):
        changed[row, ids] = True
    flags, _ = round_flags(
        allocation,
        np.full(len(owned), advertiser_id, dtype=np.int64),
        np.asarray(owned, dtype=np.int64),
        pool,
        changed,
        1e-9,
    )
    return flags


class TestExchangeScreenBatch:
    def test_batch_verdicts_match_scalar_screen(self):
        """One block pass over an advertiser's billboards clears every row
        the scalar screen clears, and no row it clears has an improving
        exchange among its candidates (the sweep's skip proofs rest on
        this)."""
        for seed in range(6):
            instance = make_random_instance(seed, num_billboards=14, num_advertisers=4)
            allocation = random_allocation(instance, seed + 300)
            rng = np.random.default_rng(seed)
            for advertiser_id in range(instance.num_advertisers):
                owned = sorted(allocation.billboards_of(advertiser_id))
                if not owned:
                    continue
                candidate_sets = []
                for billboard in owned:
                    full = all_exchange_candidates(
                        allocation.owners, advertiser_id, billboard
                    )
                    # Mix of full, random-subset, and empty candidate sets.
                    choice = rng.integers(3)
                    if choice == 1 and len(full):
                        full = rng.choice(full, size=max(1, len(full) // 2), replace=False)
                        full = np.sort(full)
                    elif choice == 2:
                        full = full[:0]
                    candidate_sets.append(full)
                verdicts = _round_verdicts(
                    allocation, advertiser_id, owned, candidate_sets
                )
                for billboard, ids, verdict in zip(owned, candidate_sets, verdicts):
                    scalar = exchange_screen(allocation, advertiser_id, billboard, ids, 1e-9)
                    assert scalar or not verdict
                    if not verdict:
                        assert (
                            _find_improving_exchange(
                                allocation, advertiser_id, billboard, ids, 1e-9
                            )
                            is None
                        )

    def test_all_empty_candidate_sets(self, tiny_instance):
        allocation = Allocation(tiny_instance)
        allocation.assign(0, 0)
        empty = np.empty(0, dtype=np.int64)
        verdicts = _round_verdicts(allocation, 0, [0], [empty])
        assert not verdicts.any()


class TestSearch:
    def test_never_worsens(self, tiny_instance):
        for seed in range(5):
            allocation = random_allocation(tiny_instance, seed)
            before = allocation.total_regret()
            result = billboard_driven_local_search(allocation)
            assert result.total_regret() <= before + 1e-9
            validate_allocation(result)

    def test_local_optimality_no_release_improves(self):
        instance = make_random_instance(17, num_billboards=10, num_advertisers=3)
        allocation = random_allocation(instance, 18)
        result = billboard_driven_local_search(allocation)
        for advertiser_id in range(instance.num_advertisers):
            for billboard in result.billboards_of(advertiser_id):
                assert delta_release(result, billboard) >= -1e-9

    def test_local_optimality_no_exchange_improves(self):
        instance = make_random_instance(19, num_billboards=10, num_advertisers=3)
        allocation = random_allocation(instance, 20)
        result = billboard_driven_local_search(allocation)
        for billboard_a in range(instance.num_billboards):
            if result.owner_of(billboard_a) == UNASSIGNED:
                continue
            for billboard_b in range(instance.num_billboards):
                assert (
                    delta_exchange_billboards(result, billboard_a, billboard_b) >= -1e-9
                )

    def test_max_sweeps_caps_work(self, tiny_instance):
        allocation = random_allocation(tiny_instance, 3)
        stats: dict = {}
        billboard_driven_local_search(allocation, max_sweeps=1, stats=stats)
        assert stats["bls_sweeps"] == 1

    def test_stats_recorded(self, tiny_instance):
        allocation = random_allocation(tiny_instance, 4)
        stats: dict = {}
        billboard_driven_local_search(allocation, stats=stats)
        assert stats["bls_sweeps"] >= 1
