"""Parallel harness tests: ``workers=N`` must not change any regret metric.

Solvers are deterministic given ``(instance, solver_seed)`` and the pool
reassembles results in sweep order, so the parallel path must be
byte-identical to the serial path on everything except measured wall-clock.
Also wires the coverage benchmark's smoke mode into the tier-1 run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import obs
from repro.experiments.harness import run_cell, sweep
from repro.market.scenario import Scenario

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        dataset="nyc", n_billboards=40, n_trajectories=250, alpha=0.8, p_avg=0.1, seed=3
    )


def strip_runtimes(metrics):
    return {method: replace(cell, runtime_s=0.0) for method, cell in metrics.items()}


class TestParallelEqualsSerial:
    def test_sweep_workers_match_serial(self, scenario):
        kwargs = dict(
            parameter="alpha",
            values=(0.4, 0.8),
            methods=["g-global", "bls"],
            restarts=1,
        )
        serial = sweep(scenario, **kwargs)
        parallel = sweep(scenario, workers=2, **kwargs)
        assert parallel.parameter == serial.parameter
        assert parallel.values == serial.values
        for value in serial.values:
            assert strip_runtimes(parallel.cells[value]) == strip_runtimes(
                serial.cells[value]
            )

    def test_run_cell_workers_match_serial(self, scenario):
        kwargs = dict(methods=["g-order", "g-global"], restarts=1)
        serial = run_cell(scenario, **kwargs)
        parallel = run_cell(scenario, workers=2, **kwargs)
        assert strip_runtimes(parallel) == strip_runtimes(serial)
        assert list(parallel) == list(serial)  # method order preserved

    def test_single_method_stays_serial(self, scenario):
        # Nothing to fan out: one method on one cell takes the serial path.
        metrics = run_cell(scenario, methods=["g-order"], restarts=1, workers=4)
        assert set(metrics) == {"g-order"}


class TestSharedCoverageInWorkers:
    def test_workers_attach_instead_of_unpickling(self, scenario):
        """The pool ships the base-λ coverage index through shared memory:
        each worker attaches once in its initializer (``shm.attach``) rather
        than unpickling a private copy per task."""
        obs.enable()
        try:
            obs.reset()
            run_cell(scenario, methods=["g-order", "g-global"], restarts=1, workers=2)
            attaches = obs.counter_value("shm.attach")
            creates = obs.counter_value("shm.create")
        finally:
            obs.disable()
            obs.reset()
        # One attach per worker whose snapshot shipped back — bounded by the
        # pool size, never by the task count.
        assert 1 <= attaches <= 2
        assert creates >= 2  # flat + offsets exported by the parent


class TestWorkerValidation:
    def test_rejects_zero_workers(self, scenario):
        with pytest.raises(ValueError, match="workers"):
            run_cell(scenario, methods=["g-order"], restarts=1, workers=0)

    def test_rejects_negative_workers_in_sweep(self, scenario):
        with pytest.raises(ValueError, match="workers"):
            sweep(scenario, "alpha", (0.8,), methods=["g-order"], workers=-1)

    def test_workers_none_means_serial(self, scenario):
        metrics = run_cell(scenario, methods=["g-order"], restarts=1, workers=None)
        assert set(metrics) == {"g-order"}


class TestBenchSmoke:
    def test_bench_coverage_smoke(self, tmp_path):
        """The benchmark script's smoke mode runs end-to-end and reports
        internally-consistent old-vs-new timings."""
        output = tmp_path / "bench.json"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "bench_coverage.py"),
                "--smoke",
                "--output",
                str(output),
            ],
            check=True,
            env=env,
            cwd=REPO_ROOT,
            capture_output=True,
            timeout=600,
        )
        history = json.loads(output.read_text())
        assert history["schema"] == "bench-history-v1"
        report = history["runs"][-1]
        assert report["smoke"] is True
        for section in ("build", "influence_of_set"):
            assert report[section]["speedup"] > 0.0
        assert report["bls_cell"]["bls_s"] > 0.0
        assert report["influence_of_set"]["queries"] == 100

    def test_bench_solvers_smoke(self, tmp_path):
        """The solver benchmark's smoke mode runs end-to-end; it exits
        non-zero if BLS repeats diverge from each other or parallel restarts
        diverge from serial."""
        output = tmp_path / "bench_solvers.json"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "bench_solvers.py"),
                "--smoke",
                "--output",
                str(output),
            ],
            check=True,
            env=env,
            cwd=REPO_ROOT,
            capture_output=True,
            timeout=600,
        )
        history = json.loads(output.read_text())
        assert history["schema"] == "bench-history-v1"
        report = history["runs"][-1]
        assert report["smoke"] is True
        sweep = report["bls_local_search"]
        assert sweep["dirty"]["total_regret"] == sweep["total_regret"]
        assert sweep["dirty_engine_s"] > 0.0
        restarts = report["parallel_restarts"]
        assert restarts["shm_attach"] >= 1
        assert restarts["serial_s"] > 0.0 and restarts["parallel_s"] > 0.0
        # Auto grain batching packs several restarts per pool task (smoke
        # restarts finish well under the 0.5 s/task target).
        grain = restarts["grain"]
        assert 0 < grain["tasks"] < restarts["restarts"]
        assert grain["restarts_per_task"] > 1.0
        phases = report["bls_sweep_phases"]
        assert 0.0 <= phases["screen_share"] <= 1.0
        assert phases["screen_rounds"] > 0
