"""Greedy pricing from the maintained gain vector against two oracles.

``best_marginal_billboard`` reads every candidate's exact gain from the
allocation's gain vector (DESIGN.md §16).  Its contract is that every pick
equals the pick of pricing every candidate through the coverage kernel,
tie-breaks included.  The oracles:

* ``eager_best_marginal_billboard`` — the counter-row-priced pass, kept in
  ``tests/oracles.py`` as the reference; the ``batch1``/``batch8`` cases
  price its candidates through gathers of only 1 or 8 candidates' CSR
  slices (``gathered_add_gains``, independent of the kernel's full pass);
* ``literal_pick`` — Eq. 1 recomputed per candidate with scalar floats from
  the counter row, no batch kernel at all.

The pick-by-pick tests wrap the greedies' ``best_marginal_billboard`` with a
checker, so every pick of G-Order, G-Global (releases included), BLS top-up,
restart seeding and the quote repair fill is compared in place.  The plan
tests run the same solve twice, once on the vectors and once with the eager
oracle swapped in, and compare the plans.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np
import pytest

from repro.algorithms import greedy_global, greedy_order
from repro.algorithms._marginal import best_marginal_billboard
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
    """Vector pricing that asserts each pick against both oracles."""

    def __init__(self, rows: int | None = None, literal: bool = True) -> None:
        self.rows = rows
        self.literal = literal
        self.picks = 0
        self.offered = 0

    def __call__(self, allocation, advertiser_id, candidate_ids):
        pick = best_marginal_billboard(allocation, advertiser_id, candidate_ids)
        assert pick == eager_best_marginal_billboard(
            allocation, advertiser_id, candidate_ids, rows=self.rows
        )
        if self.literal:
            assert pick == literal_pick(allocation, advertiser_id, candidate_ids)
        self.picks += pick is not None
        self.offered += len(candidate_ids)
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
def oracle_rows(request):
    """Candidates per CSR-slice gather of the eager oracle."""
    return request.param


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

    def test_ties_resolve_to_the_smallest_id(self):
        # Four disjoint billboards of equal size tie exactly: the first
        # maximum in candidate order is the smallest id.
        coverage = CoverageIndex.from_coverage_lists(
            [[0], [1, 2], [3, 4], [5, 6], [7, 8]], num_trajectories=9
        )
        instance = MROAMInstance(coverage, [Advertiser(0, 7, 6.0)], gamma=0.5)
        allocation = Allocation(instance)
        allocation.assign(0, 0)
        candidates = np.array([1, 2, 3, 4])
        assert best_marginal_billboard(allocation, 0, candidates) == 1
        assert eager_best_marginal_billboard(allocation, 0, candidates, rows=1) == 1

    @pytest.mark.parametrize("dataset", ["nyc", "sg"])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("fractional", [False, True], ids=["int", "frac"])
    @pytest.mark.parametrize("solver", [BudgetEffectiveGreedy, SynchronousGreedy])
    def test_greedy_solves(self, monkeypatch, oracle_rows, dataset, gamma, fractional, solver):
        instance = scenario_instance(dataset, gamma, fractional)
        checker = PickChecker(oracle_rows)
        with patched_pricing(monkeypatch, checker):
            result = solver().solve(instance)
        # Every pick goes through the module attribute (the benchmark's
        # traced pass wraps the same one to count picks).
        assert checker.picks == result.stats["assignments"] > 0
        # Every candidate offered is priced.
        assert result.stats["marginal_gain_evals"] == checker.offered

    @pytest.mark.parametrize("dataset", ["nyc", "sg"])
    def test_global_releases(self, monkeypatch, oracle_rows, dataset):
        instance = scenario_instance(dataset, 1.0, True, alpha=1.6, seed=5)
        checker = PickChecker(oracle_rows)
        stats: dict = {}
        with patched_pricing(monkeypatch, checker):
            synchronous_greedy(Allocation(instance), stats=stats)
        assert stats["releases"] > 0
        assert checker.picks == stats["assignments"]


# ----------------------------------------------- plans equal the oracle's


def eager_pricing(rows: int):
    return functools.partial(eager_best_marginal_billboard, rows=rows)


def solve_both(monkeypatch, run, rows):
    """``run()`` on the vectors (checked pick by pick), then with eager
    pricing."""
    checker = PickChecker(rows, literal=False)
    with patched_pricing(monkeypatch, checker):
        vector = run()
    with patched_pricing(monkeypatch, eager_pricing(rows)):
        eager = run()
    assert checker.picks > 0
    return vector, eager


def assert_same_plan(vector: Allocation, eager: Allocation) -> None:
    assert np.array_equal(vector.owners, eager.owners)
    assert vector.total_regret() == eager.total_regret()


class TestPlansMatchEagerOracle:
    @pytest.mark.parametrize("dataset", ["nyc", "sg"])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_bls_top_up(self, monkeypatch, oracle_rows, dataset, gamma):
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

        (vector, vector_stats), (eager, eager_stats) = solve_both(
            monkeypatch, run, oracle_rows
        )
        assert vector_stats["bls_topups"] == eager_stats["bls_topups"]
        assert_same_plan(vector, eager)

    @pytest.mark.parametrize("dataset", ["nyc", "sg"])
    def test_restart_seeding(self, monkeypatch, oracle_rows, dataset):
        instance = scenario_instance(dataset, 0.5, True)

        def run():
            return RandomizedLocalSearch("bls", restarts=3, seed=11).solve(instance)

        vector, eager = solve_both(monkeypatch, run, oracle_rows)
        assert vector.stats["best_restart"] == eager.stats["best_restart"]
        assert_same_plan(vector.allocation, eager.allocation)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_repair_fill_under_rollback(self, monkeypatch, oracle_rows, seed):
        coverage = scenario_instance("nyc", 0.5, False, seed=seed).coverage
        vector = OnlineHost(coverage, pricing="incremental", seed=seed)
        eager = OnlineHost(coverage, pricing="incremental", seed=seed)
        checker = PickChecker(oracle_rows, literal=False)
        rng = np.random.default_rng(seed)
        for step in range(30):
            demand = int(rng.integers(20, 300)) + float(rng.choice([0.0, 0.2]))
            payment = round(float(rng.uniform(1.0, 20.0)), 3)
            act = "accept" if step % 5 == 4 else "quote"
            with patched_pricing(monkeypatch, checker):
                vector_quote = getattr(vector, act)(demand, payment)
            with patched_pricing(monkeypatch, eager_pricing(oracle_rows)):
                eager_quote = getattr(eager, act)(demand, payment)
            assert vector_quote.regret_before == eager_quote.regret_before
            assert vector_quote.regret_after == eager_quote.regret_after
            assert vector_quote.would_satisfy == eager_quote.would_satisfy
        assert checker.picks > 0
        assert_same_plan(vector.allocation, eager.allocation)
