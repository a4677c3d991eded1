"""Persistent pool lifecycle: spawn once, reuse forever, same answers.

The pool cache (`repro.parallel.pool.pool_for`) is the core of the parallel
layer: the first call for an ``(owner, workers)`` pair pays the
fork+attach cost, every later call reuses the warm processes, and
``workers == 1`` never touches a pool at all.  These tests pin the reuse
behavior (counters), the determinism contract (two consecutive pool uses
equal the in-process run), the import hygiene of the solver modules, and
the small API edges (worker capping, closed-pool errors, explicit teardown).
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro import obs
from repro.algorithms.annealing import SimulatedAnnealingSolver
from repro.algorithms.local_search import RandomizedLocalSearch
from repro.core.problem import MROAMInstance
from repro.experiments.harness import sweep
from repro.market.scenario import Scenario
from repro.parallel.pool import (
    OVERSUBSCRIBE_ENV,
    PersistentPool,
    close_all_pools,
    effective_workers,
    pool_for,
)
from tests.conftest import make_random_instance
from tests.parallel.test_shared_memory import shm_entries

REPO_ROOT = Path(__file__).resolve().parents[2]


def instance_pool(instance, workers):
    """The restart pool of ``(instance, workers)``: workers rebuild the
    instance around the attached coverage, as restart runs do."""
    return pool_for(
        instance,
        workers,
        lambda: (
            instance.coverage,
            MROAMInstance,
            (list(instance.advertisers), instance.gamma),
        ),
    )


@pytest.fixture(scope="module")
def instance():
    return make_random_instance(
        31, num_billboards=24, num_trajectories=60, num_advertisers=3
    )


@pytest.fixture(autouse=True)
def fresh_pools():
    """Each test starts and ends with no live pools — reuse must come from
    uses *inside* the test, never from a neighbor's leftovers."""
    close_all_pools()
    yield
    close_all_pools()


class TestPoolCache:
    def test_second_call_reuses_the_pool(self, instance):
        obs.enable()
        try:
            obs.reset()
            first = instance_pool(instance, 2)
            second = instance_pool(instance, 2)
            assert second is first
            assert obs.counter_value("pool.spawn") == 1
            assert obs.counter_value("pool.reuse") == 1
        finally:
            obs.disable()
            obs.reset()

    def test_distinct_worker_counts_get_distinct_pools(self, instance):
        first = instance_pool(instance, 1)
        second = instance_pool(instance, 2)
        assert second is not first

    def test_closed_pool_is_respawned(self, instance):
        first = instance_pool(instance, 2)
        first.close()
        second = instance_pool(instance, 2)
        assert second is not first
        assert not second.closed

    def test_close_all_pools_closes(self, instance):
        pool = instance_pool(instance, 2)
        close_all_pools()
        assert pool.closed


def _die_on_request(instance, payload):
    if payload == "die":
        os._exit(1)
    return instance.num_billboards


class TestWorkerDeath:
    def test_broken_pool_closes_and_respawns(self, instance, monkeypatch):
        """A worker killed mid-map raises cleanly, the broken pool closes
        and unlinks its segments, and the cache hands out a fresh pool."""
        monkeypatch.setenv(OVERSUBSCRIBE_ENV, "1")  # two workers on any host
        pool = instance_pool(instance, 2)
        spec = pool._shared.spec
        assert shm_entries(spec)
        with pytest.raises(BrokenProcessPool):
            pool.run(_die_on_request, ["die", "x"])
        assert pool.closed
        assert shm_entries(spec) == []
        fresh = instance_pool(instance, 2)
        assert fresh is not pool
        assert fresh.run(_die_on_request, ["x", "y"]) == [instance.num_billboards] * 2


class TestPoolReuseDeterminism:
    def test_two_consecutive_uses_match_serial(self, instance):
        """Satellite #4: the same solver run through a *warm* (second-use)
        pool returns the same best allocation and restart winner as serial.
        The first parallel call spawns the pool; the second reuses it — both
        must agree with the serial loop exactly."""
        serial = RandomizedLocalSearch("bls", restarts=3, seed=11).solve(instance)
        warm = RandomizedLocalSearch(
            "bls", restarts=3, seed=11, restart_workers=2
        )
        first = warm.solve(instance)
        second = warm.solve(instance)  # reuses the pool spawned by `first`
        for parallel in (first, second):
            assert (
                parallel.allocation.assignment_map()
                == serial.allocation.assignment_map()
            )
            assert parallel.total_regret == serial.total_regret
            assert parallel.stats.get("best_restart") == serial.stats.get(
                "best_restart"
            )

    def test_reuse_spans_solver_configurations(self, instance):
        """Different restart batches against the same instance share one
        pool — the cache keys on (instance, workers), not on solver params."""
        obs.enable()
        try:
            obs.reset()
            RandomizedLocalSearch(
                "bls", restarts=2, seed=3, restart_workers=2
            ).solve(instance)
            RandomizedLocalSearch(
                "als", restarts=3, seed=4, restart_workers=2
            ).solve(instance)
            assert obs.counter_value("pool.spawn") == 1
            assert obs.counter_value("pool.reuse") >= 1
        finally:
            obs.disable()
            obs.reset()


def _echo(context, payload):
    return payload


def _bare_context(coverage):
    return coverage


class TestPersistentPoolEdges:
    def test_effective_workers_bounds(self):
        available = len(os.sched_getaffinity(0))
        assert effective_workers(1) == 1
        assert effective_workers(0) == 1
        assert effective_workers(10_000) == available
        assert 1 <= effective_workers(2) <= 2

    def test_map_on_closed_pool_raises(self, instance):
        pool = PersistentPool(1, instance.coverage, _bare_context)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(_echo, [1])

    def test_map_empty_tasks_is_noop(self, instance):
        pool = PersistentPool(1, instance.coverage, _bare_context)
        try:
            assert pool.run(_echo, []) == []
        finally:
            pool.close()

    def test_close_is_idempotent(self, instance):
        pool = PersistentPool(1, instance.coverage, _bare_context)
        spec = pool._shared.spec
        pool.close()
        pool.close()
        assert pool.closed
        assert shm_entries(spec) == []


class TestInProcess:
    def test_solver_imports_load_no_pool(self):
        """What perfbench imports must load neither the pool nor the
        executor, and a ``workers=1`` restart run must not load the
        executor either."""
        code = (
            "import sys\n"
            "import repro.algorithms, repro.market.online, "
            "repro.market.incremental, repro.datasets.stream\n"
            "print(sorted(m for m in ('repro.parallel.pool', 'concurrent.futures')"
            " if m in sys.modules))\n"
            "from repro.algorithms.local_search import RandomizedLocalSearch\n"
            "from tests.conftest import make_random_instance\n"
            "RandomizedLocalSearch('bls', restarts=2, seed=1, restart_workers=1)"
            ".solve(make_random_instance(3, num_billboards=12))\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        path = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
        env = dict(os.environ, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=120,
        ).stdout
        assert out.split() == ["[]", "False"]

    def test_one_worker_never_spawns(self, instance):
        """``workers == 1`` runs the same task runners in this process: no
        restart, chain or sweep cell spawns a pool."""
        scenario = Scenario(
            dataset="nyc", n_billboards=30, n_trajectories=120, alpha=0.8, seed=3
        )
        obs.enable()
        try:
            obs.reset()
            for workers in (None, 1):
                RandomizedLocalSearch(
                    "bls", restarts=3, seed=5, restart_workers=workers
                ).solve(instance)
                SimulatedAnnealingSolver(
                    steps=200, seed=5, restarts=3, restart_workers=workers
                ).solve(instance)
                sweep(
                    scenario,
                    "alpha",
                    (0.4, 0.8),
                    methods=["g-global", "bls"],
                    restarts=1,
                    workers=workers,
                )
            spawns = obs.counter_value("pool.spawn")
            attaches = obs.counter_value("shm.attach")
            tasks = obs.get_registry().histogram("span.pool.task").count
        finally:
            obs.disable()
            obs.reset()
        assert spawns == 0
        assert attaches == 0
        assert tasks == 0
