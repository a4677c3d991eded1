"""Parallel restarts over shared memory must equal the serial restarts.

Restart seed plans are pre-drawn in the parent from the same sequential RNG
stream the serial loop consumes, workers attach the parent's coverage index
read-only, and the parent reduces restart results in restart order with a
strict ``<`` — so the best allocation (and which restart produced it) is
identical by construction, not merely in distribution.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.algorithms.annealing import SimulatedAnnealingSolver, anneal_chain
from repro.algorithms.local_search import RandomizedLocalSearch
from tests.conftest import make_random_instance


@pytest.fixture(scope="module")
def instance():
    return make_random_instance(
        17, num_billboards=30, num_trajectories=80, num_advertisers=4
    )


class TestLocalSearchRestarts:
    @pytest.mark.parametrize("neighborhood", ["bls", "als"])
    def test_parallel_matches_serial(self, instance, neighborhood):
        serial = RandomizedLocalSearch(
            neighborhood, restarts=4, seed=42
        ).solve(instance)
        parallel = RandomizedLocalSearch(
            neighborhood, restarts=4, seed=42, restart_workers=2
        ).solve(instance)
        assert parallel.allocation.assignment_map() == serial.allocation.assignment_map()
        assert parallel.total_regret == serial.total_regret
        assert parallel.stats.get("best_restart") == serial.stats.get("best_restart")

    def test_parallel_merges_restart_stats(self, instance):
        serial = RandomizedLocalSearch("bls", restarts=3, seed=8).solve(instance)
        parallel = RandomizedLocalSearch(
            "bls", restarts=3, seed=8, restart_workers=2
        ).solve(instance)
        # Accepted-move tallies aggregate over the same restart executions.
        for key in ("bls_exchanges", "bls_releases", "bls_topups"):
            assert parallel.stats.get(key, 0) == serial.stats.get(key, 0), key

    def test_one_attach_per_worker(self, instance):
        """Workers attach the shared index exactly once (in the pool
        initializer), never per restart — the zero-copy claim.  Pools
        persist across calls, so close any live pool first: the attach is
        only observable on a pool spawned while obs is enabled."""
        from repro.parallel.pool import close_all_pools

        workers = 2  # the pool may cap this to the CPUs actually available
        restarts = 6
        close_all_pools()
        obs.enable()
        try:
            obs.reset()
            RandomizedLocalSearch(
                "bls", restarts=restarts, seed=42, restart_workers=workers
            ).solve(instance)
            attaches = obs.counter_value("shm.attach")
        finally:
            obs.disable()
            obs.reset()
            close_all_pools()
        # Snapshots ship with task results, so the merged total counts one
        # attach per worker that completed at least one restart — never one
        # per restart, which is what per-task pickling would look like.
        assert 1 <= attaches <= workers
        assert attaches < restarts

    def test_restart_workers_validated(self):
        with pytest.raises(ValueError, match="restart_workers"):
            RandomizedLocalSearch("bls", restart_workers=0)


class TestAnnealingRestarts:
    def test_restarts_parallel_matches_serial(self, instance):
        serial = SimulatedAnnealingSolver(
            steps=400, seed=5, restarts=3
        ).solve(instance)
        parallel = SimulatedAnnealingSolver(
            steps=400, seed=5, restarts=3, restart_workers=2
        ).solve(instance)
        assert parallel.allocation.assignment_map() == serial.allocation.assignment_map()
        assert parallel.total_regret == serial.total_regret
        assert parallel.stats["sa_best_restart"] == serial.stats["sa_best_restart"]
        assert parallel.stats["sa_accepted"] == serial.stats["sa_accepted"]

    def test_single_chain_is_the_classic_chain(self, instance):
        """``restarts=1`` runs one chain on the solver seed itself (not a
        spawned child), in-process or on a pool, bit for bit."""
        regret, best, outcome = anneal_chain(instance, 300, None, 0.9995, 2)
        for workers in (None, 2):
            result = SimulatedAnnealingSolver(
                steps=300, seed=2, restart_workers=workers
            ).solve(instance)
            assert result.allocation.assignment_map() == best.assignment_map()
            assert result.stats["sa_accepted"] == outcome["accepted"]
            assert result.stats["sa_final_temperature"] == outcome["final_temperature"]
            assert result.total_regret == best.total_regret()

    def test_single_restart_keeps_legacy_stats(self, instance):
        result = SimulatedAnnealingSolver(steps=300, seed=2).solve(instance)
        assert result.stats["sa_steps"] == 300
        assert "sa_restarts" not in result.stats

    def test_restart_count_scales_steps(self, instance):
        result = SimulatedAnnealingSolver(steps=300, seed=2, restarts=2).solve(instance)
        assert result.stats["sa_steps"] == 600
        assert result.stats["sa_restarts"] == 2

    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError, match="restarts"):
            SimulatedAnnealingSolver(restarts=0)
