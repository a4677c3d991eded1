"""Lazy-bound greedy pricing against an eager oracle and a literal ratio.

``best_marginal_billboard`` prices only the candidates whose stale gain
bound can still win (DESIGN.md §16).  Its contract is that every pick equals
the pick of pricing *every* candidate, tie-breaks included.  The oracles:

* ``eager_best_marginal_billboard`` — the full-pass pricing the lazy path
  replaced, kept in ``tests/oracles.py`` as the reference;
* ``literal_pick`` — Eq. 1 recomputed per candidate from
  ``influence_delta_add`` with scalar floats, no batch kernel at all.

The pick-by-pick tests wrap the greedies' ``best_marginal_billboard`` with a
checker, so every pick of G-Order, G-Global (releases included), BLS top-up,
restart seeding and the quote repair fill is compared in place.  The plan
tests run the same solve twice, once lazily and once with the eager oracle
swapped in, and compare the plans.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest

from repro.algorithms import _marginal, greedy_global, greedy_order
from repro.algorithms._marginal import (
    StaleGains,
    _gain_ratios,
    _ratio_bounds,
    _regret_values_unchecked,
    best_marginal_billboard,
)
from repro.algorithms.bls import billboard_driven_local_search
from repro.algorithms.greedy_global import SynchronousGreedy, synchronous_greedy
from repro.algorithms.greedy_order import BudgetEffectiveGreedy
from repro.algorithms.local_search import RandomizedLocalSearch
from repro.billboard.influence import CoverageIndex
from repro.core.advertiser import Advertiser
from repro.core.allocation import Allocation
from repro.core.problem import MROAMInstance
from repro.market.online import OnlineHost
from repro.market.scenario import Scenario
from tests.oracles import eager_best_marginal_billboard, literal_pick

GREEDY_MODULES = (greedy_global, greedy_order)


@contextlib.contextmanager
def patched_pricing(monkeypatch, pricing):
    """Route both greedies' per-pick pricing through ``pricing``."""
    with monkeypatch.context() as patch:
        for module in GREEDY_MODULES:
            patch.setattr(module, "best_marginal_billboard", pricing)
        yield


class PickChecker:
    """Lazy pricing that asserts each pick against both oracles."""

    def __init__(self, literal: bool = True) -> None:
        self.literal = literal
        self.picks = 0
        self.offered = 0
        self.priced = 0

    def __call__(self, allocation, advertiser_id, candidate_ids, stale=None):
        before = stale.priced if stale is not None else 0
        pick = best_marginal_billboard(allocation, advertiser_id, candidate_ids, stale)
        assert pick == eager_best_marginal_billboard(
            allocation, advertiser_id, candidate_ids
        )
        if self.literal:
            assert pick == literal_pick(allocation, advertiser_id, candidate_ids)
        self.picks += pick is not None
        self.offered += len(candidate_ids)
        if stale is not None:
            self.priced += stale.priced - before
        return pick


def with_fractional_demands(instance: MROAMInstance, offset: float) -> MROAMInstance:
    advertisers = [
        Advertiser(a.advertiser_id, a.demand + offset, a.payment, a.name)
        for a in instance.advertisers
    ]
    return MROAMInstance(instance.coverage, advertisers, gamma=instance.gamma)


def scenario_instance(dataset, gamma, fractional, alpha=0.8, seed=3):
    instance = Scenario(
        dataset=dataset, n_billboards=60, n_trajectories=400, alpha=alpha,
        p_avg=0.1, gamma=gamma, seed=seed,
    ).build_instance()
    return with_fractional_demands(instance, 0.2) if fractional else instance


@pytest.fixture(params=[1, 8], ids=["batch1", "batch8"])
def first_batch(request, monkeypatch):
    """Price one candidate up front (every later pick rides on the bounds)
    or the production batch."""
    monkeypatch.setattr(_marginal, "_FIRST_BATCH", request.param)
    return request.param


# ------------------------------------------------------------- the bound


class TestRatioBound:
    @staticmethod
    def evaluate(fn, advertiser, gamma, influence, gain):
        """``fn`` (the exact ratio or its bound) for one size-1 candidate."""
        regret = float(
            _regret_values_unchecked(
                advertiser.payment, advertiser.demand, gamma, np.array([influence])
            )[0]
        )
        return float(
            fn(advertiser, gamma, influence, regret, np.array([gain]), np.array([1]))[0]
        )

    def ratio(self, advertiser, gamma, influence, gain):
        return self.evaluate(_gain_ratios, advertiser, gamma, influence, gain)

    def bound(self, advertiser, gamma, influence, stale_gain):
        return self.evaluate(_ratio_bounds, advertiser, gamma, influence, stale_gain)

    def test_peak_one_gain_below_the_gap(self):
        # γ = 1, D = 10.2, I = 0: the gap is 10.2, so c = 11, and the ratio
        # at 10 beats the ratio at 11 — capping the stale gain at c alone
        # would under-bound a candidate whose true gain is 10.
        advertiser = Advertiser(0, 10.2, 10.0)
        assert self.ratio(advertiser, 1.0, 0, 10) > self.ratio(advertiser, 1.0, 0, 11)
        assert self.bound(advertiser, 1.0, 0, 11) == self.ratio(advertiser, 1.0, 0, 10)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_bound_dominates_every_smaller_gain(self, gamma):
        rng = np.random.default_rng(17)
        for _ in range(300):
            influence = int(rng.integers(0, 40))
            demand = float(rng.integers(1, 60)) + float(rng.choice([0.0, 0.2, 0.5, 0.999]))
            advertiser = Advertiser(0, demand, float(rng.integers(1, 30)))
            stale_gain = int(rng.integers(0, 50))
            bound = self.bound(advertiser, gamma, influence, stale_gain)
            ratios = [
                self.ratio(advertiser, gamma, influence, gain)
                for gain in range(stale_gain + 1)
            ]
            # Exact float comparison: the bound is one of these values.
            assert bound == max(ratios)
            # ⌈D⌉ − I is the first integer gain that reaches the demand.
            reach = math.ceil(demand) - influence
            assert influence + reach >= demand > influence + reach - 1


# ------------------------------------------------------- pick by pick


class TestPicksMatchOracles:
    def test_single_call_without_state(self):
        coverage = CoverageIndex.from_coverage_lists(
            [[0, 1], [0, 1, 2, 3], [4, 5], [], [5], [6, 7, 8]], num_trajectories=9
        )
        instance = MROAMInstance(coverage, [Advertiser(0, 6, 6.0)], gamma=0.5)
        allocation = Allocation(instance)
        allocation.assign(1, 0)
        candidates = np.array([0, 2, 3, 4, 5])
        assert best_marginal_billboard(allocation, 0, candidates) == literal_pick(
            allocation, 0, candidates
        )

    def test_ties_resolve_to_the_smallest_id(self, monkeypatch):
        # Four disjoint billboards of equal size tie exactly; pricing one up
        # front must still re-price the rest and return the smallest id.
        monkeypatch.setattr(_marginal, "_FIRST_BATCH", 1)
        coverage = CoverageIndex.from_coverage_lists(
            [[0], [1, 2], [3, 4], [5, 6], [7, 8]], num_trajectories=9
        )
        instance = MROAMInstance(coverage, [Advertiser(0, 7, 6.0)], gamma=0.5)
        allocation = Allocation(instance)
        allocation.assign(0, 0)
        stale = StaleGains(coverage.individual_influences)
        pick = best_marginal_billboard(allocation, 0, np.array([1, 2, 3, 4]), stale)
        assert pick == 1
        assert stale.priced == 4

    @pytest.mark.parametrize("dataset", ["nyc", "sg"])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("fractional", [False, True], ids=["int", "frac"])
    @pytest.mark.parametrize("solver", [BudgetEffectiveGreedy, SynchronousGreedy])
    def test_greedy_solves(self, monkeypatch, first_batch, dataset, gamma, fractional, solver):
        instance = scenario_instance(dataset, gamma, fractional)
        checker = PickChecker()
        with patched_pricing(monkeypatch, checker):
            result = solver().solve(instance)
        # Every pick goes through the module attribute (the benchmark's
        # traced pass wraps the same one to count picks).
        assert checker.picks == result.stats["assignments"] > 0
        # The lazy path prices fewer rows than the candidates it is offered.
        assert result.stats["marginal_gain_evals"] == checker.priced < checker.offered

    @pytest.mark.parametrize("dataset", ["nyc", "sg"])
    def test_global_releases(self, monkeypatch, first_batch, dataset):
        instance = scenario_instance(dataset, 1.0, True, alpha=1.6, seed=5)
        checker = PickChecker()
        stats: dict = {}
        with patched_pricing(monkeypatch, checker):
            synchronous_greedy(Allocation(instance), stats=stats)
        assert stats["releases"] > 0
        assert checker.picks == stats["assignments"]


# ----------------------------------------------- plans equal the oracle's


def solve_both(monkeypatch, run):
    """``run()`` lazily (checked pick by pick), then with eager pricing."""
    checker = PickChecker(literal=False)
    with patched_pricing(monkeypatch, checker):
        lazy = run()
    with patched_pricing(monkeypatch, eager_best_marginal_billboard):
        eager = run()
    assert checker.picks > 0
    return lazy, eager


def assert_same_plan(lazy: Allocation, eager: Allocation) -> None:
    assert np.array_equal(lazy.owners, eager.owners)
    assert lazy.total_regret() == eager.total_regret()


class TestPlansMatchEagerOracle:
    @pytest.mark.parametrize("dataset", ["nyc", "sg"])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_bls_top_up(self, monkeypatch, first_batch, dataset, gamma):
        instance = scenario_instance(dataset, gamma, True, alpha=1.2)
        start = Allocation(instance)
        synchronous_greedy(start)
        # Release a third of the plan so the top-up has a pool to refill.
        for billboard_id in sorted(np.flatnonzero(start.owners >= 0))[::3]:
            start.release(int(billboard_id))

        def run():
            stats: dict = {}
            plan = billboard_driven_local_search(start.clone(), stats=stats)
            return plan, stats

        (lazy, lazy_stats), (eager, eager_stats) = solve_both(monkeypatch, run)
        assert lazy_stats["bls_topups"] == eager_stats["bls_topups"]
        assert_same_plan(lazy, eager)

    @pytest.mark.parametrize("dataset", ["nyc", "sg"])
    def test_restart_seeding(self, monkeypatch, first_batch, dataset):
        instance = scenario_instance(dataset, 0.5, True)

        def run():
            return RandomizedLocalSearch("bls", restarts=3, seed=11).solve(instance)

        lazy, eager = solve_both(monkeypatch, run)
        assert lazy.stats["best_restart"] == eager.stats["best_restart"]
        assert_same_plan(lazy.allocation, eager.allocation)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_repair_fill_under_rollback(self, monkeypatch, first_batch, seed):
        coverage = scenario_instance("nyc", 0.5, False, seed=seed).coverage
        lazy = OnlineHost(coverage, pricing="incremental", seed=seed)
        eager = OnlineHost(coverage, pricing="incremental", seed=seed)
        checker = PickChecker(literal=False)
        rng = np.random.default_rng(seed)
        for step in range(30):
            demand = int(rng.integers(20, 300)) + float(rng.choice([0.0, 0.2]))
            payment = round(float(rng.uniform(1.0, 20.0)), 3)
            act = "accept" if step % 5 == 4 else "quote"
            with patched_pricing(monkeypatch, checker):
                lazy_quote = getattr(lazy, act)(demand, payment)
            with patched_pricing(monkeypatch, eager_best_marginal_billboard):
                eager_quote = getattr(eager, act)(demand, payment)
            assert lazy_quote.regret_before == eager_quote.regret_before
            assert lazy_quote.regret_after == eager_quote.regret_after
            assert lazy_quote.would_satisfy == eager_quote.would_satisfy
        assert checker.picks > 0
        assert_same_plan(lazy.allocation, eager.allocation)
