"""Batched restart grains must be invisible to results (DESIGN.md §13).

The parallel drivers pack one wave — ``ceil(restarts / workers)`` restarts
— into each pool task.  The in-task reduction applies the same strict
``<`` in restart order the caller applies across tasks, so parallel and
serial runs must return bit-identical allocations, regrets, and move
counters for every restart count: fewer restarts than workers (batches of
one), even waves, and an uneven last batch.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.algorithms.annealing import SimulatedAnnealingSolver
from repro.algorithms.local_search import RandomizedLocalSearch
from repro.parallel.pool import close_all_pools
from tests.conftest import make_random_instance

MOVE_KEYS = ("bls_exchanges", "bls_releases", "bls_topups", "als_exchanges")
WORKERS = 2
#: 1 < workers, 2 = one per worker, 3 and 5 leave an uneven last batch.
RESTART_COUNTS = (1, 2, 3, 5)


@pytest.fixture(scope="module")
def instance():
    return make_random_instance(
        31, num_billboards=30, num_trajectories=80, num_advertisers=4
    )


class TestBatchedBitIdentity:
    @pytest.mark.parametrize("neighborhood", ["bls", "als"])
    def test_every_batch_size_matches_serial(self, instance, neighborhood):
        try:
            for restarts in RESTART_COUNTS:
                serial = RandomizedLocalSearch(
                    neighborhood, restarts=restarts, seed=42
                ).solve(instance)
                batched = RandomizedLocalSearch(
                    neighborhood,
                    restarts=restarts,
                    seed=42,
                    restart_workers=WORKERS,
                ).solve(instance)
                assert (
                    batched.allocation.assignment_map()
                    == serial.allocation.assignment_map()
                ), restarts
                assert batched.total_regret == serial.total_regret, restarts
                assert batched.stats.get("best_restart") == serial.stats.get(
                    "best_restart"
                ), restarts
                for key in MOVE_KEYS:
                    assert batched.stats.get(key, 0) == serial.stats.get(key, 0), (
                        restarts,
                        key,
                    )
                # Every merged counter and telemetry point, not only moves.
                assert batched.stats == serial.stats, restarts
        finally:
            close_all_pools()

    def test_annealing_batches_match_serial(self, instance):
        try:
            for restarts in RESTART_COUNTS:
                serial = SimulatedAnnealingSolver(
                    steps=300, seed=9, restarts=restarts
                ).solve(instance)
                batched = SimulatedAnnealingSolver(
                    steps=300,
                    seed=9,
                    restarts=restarts,
                    restart_workers=WORKERS,
                ).solve(instance)
                assert (
                    batched.allocation.assignment_map()
                    == serial.allocation.assignment_map()
                ), restarts
                assert batched.total_regret == serial.total_regret, restarts
                assert batched.stats.get("sa_best_restart") == serial.stats.get(
                    "sa_best_restart"
                ), restarts
                assert batched.stats.get("sa_accepted") == serial.stats.get(
                    "sa_accepted"
                ), restarts
                assert batched.stats == serial.stats, restarts
        finally:
            close_all_pools()


class TestBatchedPoolBehaviour:
    def test_batches_shrink_task_count_and_pool_persists(self, instance):
        """Two solver calls: the second reuses the warm pool, and each fans
        one task per worker rather than one per restart."""
        close_all_pools()
        obs.enable()
        try:
            obs.reset()
            solver = RandomizedLocalSearch(
                "bls", restarts=4, seed=7, restart_workers=WORKERS
            )
            solver.solve(instance)
            solver.solve(instance)
            batches = obs.get_registry().histogram("pool.task.batch")
            tasks = obs.get_registry().histogram("span.pool.task").count
            spawns = obs.counter_value("pool.spawn")
            reuses = obs.counter_value("pool.reuse")
        finally:
            obs.disable()
            obs.reset()
            close_all_pools()
        assert spawns == 1
        assert reuses >= 1
        assert batches.count == 4  # 2 tasks per call, 2 calls
        assert batches.mean == 2.0  # 2 restarts packed per task
        assert tasks == 4
        assert tasks < 2 * 4  # fewer tasks than restarts run

    def test_five_restarts_on_two_workers_pack_three_then_two(self, instance):
        """One wave per task: ``ceil(5 / 2) = 3`` restarts, then the rest."""
        close_all_pools()
        obs.enable()
        try:
            obs.reset()
            RandomizedLocalSearch(
                "bls", restarts=5, seed=7, restart_workers=WORKERS
            ).solve(instance)
            batches = obs.get_registry().histogram("pool.task.batch")
        finally:
            obs.disable()
            obs.reset()
            close_all_pools()
        assert batches.count == 2
        assert (batches.max, batches.min) == (3.0, 2.0)
