"""Tests for the randomized local search framework (Algorithm 3)."""

import pytest

from repro.algorithms.greedy_global import SynchronousGreedy
from repro.algorithms.local_search import RandomizedLocalSearch
from repro.core.validation import validate_allocation
from tests.conftest import make_random_instance


class TestConfiguration:
    def test_rejects_unknown_neighborhood(self):
        with pytest.raises(ValueError, match="neighborhood"):
            RandomizedLocalSearch(neighborhood="nope")

    def test_rejects_negative_restarts(self):
        with pytest.raises(ValueError, match="restarts"):
            RandomizedLocalSearch(restarts=-1)

    def test_names_match_paper(self):
        assert RandomizedLocalSearch(neighborhood="als").name == "ALS"
        assert RandomizedLocalSearch(neighborhood="bls").name == "BLS"


class TestQualityGuarantees:
    @pytest.mark.parametrize("neighborhood", ["als", "bls"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_never_worse_than_g_global(self, neighborhood, seed):
        # The framework refines the G-Global incumbent, so it can only do
        # at least as well.
        instance = make_random_instance(seed, num_billboards=14, num_advertisers=4)
        baseline = SynchronousGreedy().solve(instance).total_regret
        solver = RandomizedLocalSearch(neighborhood=neighborhood, restarts=2, seed=seed)
        result = solver.solve(instance)
        assert result.total_regret <= baseline + 1e-9
        validate_allocation(result.allocation)

    def test_zero_restarts_still_refines_greedy(self):
        instance = make_random_instance(5, num_billboards=12, num_advertisers=3)
        baseline = SynchronousGreedy().solve(instance).total_regret
        result = RandomizedLocalSearch(neighborhood="bls", restarts=0, seed=0).solve(instance)
        assert result.total_regret <= baseline + 1e-9

    def test_example1_reaches_zero(self, example1):
        result = RandomizedLocalSearch(neighborhood="bls", restarts=3, seed=0).solve(example1)
        assert result.total_regret == pytest.approx(0.0)


class TestReproducibility:
    def test_same_seed_same_plan(self):
        instance = make_random_instance(7, num_billboards=12, num_advertisers=3)
        first = RandomizedLocalSearch(neighborhood="als", restarts=3, seed=42).solve(instance)
        second = RandomizedLocalSearch(neighborhood="als", restarts=3, seed=42).solve(instance)
        assert first.total_regret == pytest.approx(second.total_regret)
        assert first.allocation.assignment_map() == second.allocation.assignment_map()

    def test_stats_report_restarts(self):
        instance = make_random_instance(8, num_billboards=10, num_advertisers=3)
        result = RandomizedLocalSearch(neighborhood="als", restarts=4, seed=1).solve(instance)
        assert result.stats["restarts"] == 4
        assert result.stats["best_restart"] >= -1


class TestRandomSeedPlan:
    def test_one_billboard_per_advertiser(self):
        import numpy as np

        instance = make_random_instance(9, num_billboards=10, num_advertisers=4)
        solver = RandomizedLocalSearch(seed=0)
        seed_ids = solver._random_seed_ids(instance, np.random.default_rng(0))
        assert len(seed_ids) == instance.num_advertisers
        assert len(set(seed_ids.tolist())) == len(seed_ids)
        assert all(0 <= b < instance.num_billboards for b in seed_ids)

    def test_more_advertisers_than_billboards(self):
        import numpy as np

        instance = make_random_instance(10, num_billboards=2, num_advertisers=4)
        solver = RandomizedLocalSearch(seed=0)
        seed_ids = solver._random_seed_ids(instance, np.random.default_rng(0))
        assert sorted(seed_ids.tolist()) == [0, 1]
