"""Cross-process tracing and snapshot merge under ``pool.reuse``.

The acceptance bar for the tracing tentpole: a parallel-restart run against
a *reused* warm pool must (a) merge worker metric snapshots so totals equal
the serial run, and (b) yield trace events attributed to at least two
distinct worker pids whose clock-aligned timestamps are monotone per
process and land inside the parent's ``pool.map`` window.

``REPRO_POOL_OVERSUBSCRIBE=1`` lifts the affinity cap so the two worker
processes exist even on 1-CPU CI runners.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.algorithms.local_search import RandomizedLocalSearch
from repro.market.scenario import Scenario
from repro.obs import trace
from repro.parallel.pool import OVERSUBSCRIBE_ENV, close_all_pools, effective_workers

COMPARED_PREFIXES = ("solver.", "influence.dispatch.")
RESTARTS = 4
WORKERS = 2


def compared_counters() -> dict:
    return {
        name: value
        for name, value in obs.get_registry().counters.items()
        if name.startswith(COMPARED_PREFIXES)
    }


@pytest.fixture(autouse=True)
def _oversubscribe(monkeypatch):
    monkeypatch.setenv(OVERSUBSCRIBE_ENV, "1")
    close_all_pools()
    yield
    close_all_pools()


@pytest.fixture(scope="module")
def instance():
    return Scenario(
        dataset="nyc", n_billboards=40, n_trajectories=250, alpha=0.8, p_avg=0.1, seed=3
    ).build_instance()


def solve(instance, workers):
    return RandomizedLocalSearch(
        "bls",
        restarts=RESTARTS,
        seed=11,
        restart_workers=workers,
    ).solve(instance)


class TestOversubscribe:
    def test_env_lifts_affinity_cap(self, monkeypatch):
        monkeypatch.delenv(OVERSUBSCRIBE_ENV, raising=False)
        capped = effective_workers(64)
        monkeypatch.setenv(OVERSUBSCRIBE_ENV, "1")
        assert effective_workers(64) == 64
        assert capped <= 64


class TestSnapshotMergeUnderReuse:
    def test_parallel_totals_equal_serial_across_reused_pool(self, instance):
        obs.enable()
        serial_result = solve(instance, None)
        serial = compared_counters()
        assert serial and serial["solver.solves"] >= 1
        obs.reset()

        first = solve(instance, WORKERS)  # spawns the pool
        obs.reset()  # drop the spawn-run totals; the pool stays warm
        second = solve(instance, WORKERS)  # must reuse it
        assert obs.counter_value("pool.reuse") >= 1
        assert obs.counter_value("pool.spawn") == 0
        parallel = compared_counters()

        assert parallel == serial
        for result in (first, second):
            assert result.total_regret == serial_result.total_regret
            assert (
                result.allocation.assignment_map()
                == serial_result.allocation.assignment_map()
            )


class TestTraceAcrossProcesses:
    def test_worker_events_are_pid_attributed_and_clock_aligned(
        self, instance, tmp_path
    ):
        out = tmp_path / "trace.json"
        obs.enable(out=str(out))
        solve(instance, WORKERS)  # spawn
        solve(instance, WORKERS)  # reuse — tasks on already-warm workers
        close_all_pools()  # ship teardown spills
        obs.collect_spills()
        events = trace.take_trace()
        complete = [e for e in events if e["ph"] == "X"]

        parent_pid = os.getpid()
        task_pids = {e["pid"] for e in complete if e["name"] == "pool.task"}
        assert len(task_pids) >= 2, "expected tasks from >=2 worker processes"
        assert parent_pid not in task_pids
        assert any(e["name"] == "pool.spawn" and e["pid"] == parent_pid
                   for e in complete)

        # Clock alignment: every worker task lands inside some parent
        # pool.map window (same epoch mapping in parent and children).
        windows = [
            (e["ts"], e["ts"] + e["dur"])
            for e in complete
            if e["name"] == "pool.map" and e["pid"] == parent_pid
        ]
        assert windows
        slack_us = 50_000
        for task in (e for e in complete if e["name"] == "pool.task"):
            assert any(
                start - slack_us <= task["ts"] <= end + slack_us
                for start, end in windows
            ), "worker task timestamp outside every parent map window"

        # Per-pid monotonicity — the property validate_chrome_trace pins.
        data = trace.to_chrome(events)
        assert obs.validate_chrome_trace(data) == []

    def test_idle_worker_spills_next_to_the_output(self, instance, tmp_path, monkeypatch):
        # One restart is one task, so one of the two workers never gets a
        # task to ship its pool.attach span with; it learns the spill
        # directory from the obs state its initializer carries (no
        # environment variable) and spills the span at teardown.
        monkeypatch.delenv("REPRO_OBS_SPILL_DIR", raising=False)
        out = tmp_path / "trace.json"
        obs.enable(out=str(out))
        RandomizedLocalSearch(
            "bls", restarts=1, seed=11, restart_workers=WORKERS
        ).solve(instance)
        assert "REPRO_OBS_SPILL_DIR" not in os.environ
        close_all_pools()
        assert obs.collect_spills() >= 1
        attach_pids = {
            e["pid"]
            for e in trace.take_trace()
            if e["ph"] == "X" and e["name"] == "pool.attach"
        }
        assert len(attach_pids) == WORKERS
        assert not (tmp_path / "trace.json.spill").exists()

    def test_write_trace_includes_worker_pids(self, instance, tmp_path):
        import json

        out = tmp_path / "trace.json"
        obs.enable(out=str(out))
        # One wave per task: RESTARTS >= WORKERS gives WORKERS tasks.  Which
        # worker takes each task is the scheduler's choice (one warm worker
        # may take them all), so the assertions cover only what tracing
        # controls: every task's span reaches the written file, under its
        # worker's pid and name.
        solve(instance, WORKERS)
        close_all_pools()
        written = obs.write_trace()
        data = json.loads(written.read_text())
        assert obs.validate_chrome_trace(data) == []
        tasks = [
            e
            for e in data["traceEvents"]
            if e.get("ph") == "X" and e.get("name") == "pool.task"
        ]
        assert len(tasks) == WORKERS
        names = {
            e["pid"]: e["args"]["name"]
            for e in data["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert names[os.getpid()] == "main"
        for task in tasks:
            assert task["pid"] != os.getpid()
            assert names[task["pid"]] == f"worker-{task['pid']}"


class TestTracedSweep:
    def test_workers_2_sweep_traces_worker_pids_without_spill_env(
        self, tmp_path, monkeypatch, capsys
    ):
        # The spill directory travels in the obs state each task carries,
        # not through the environment, and is gone once the trace is written.
        import json

        from repro.cli import main

        monkeypatch.delenv("REPRO_OBS_SPILL_DIR", raising=False)
        out = tmp_path / "trace.json"
        code = main(
            [
                "sweep",
                "--parameter", "gamma",
                "--billboards", "40",
                "--trajectories", "250",
                "--p-avg", "0.1",
                "--methods", "g-global,bls",
                "--restarts", "1",
                "--workers", "2",
                "--trace-out", str(out),
            ]
        )
        assert code == 0
        assert "REPRO_OBS_SPILL_DIR" not in os.environ
        data = json.loads(out.read_text())
        assert obs.validate_chrome_trace(data) == []
        worker_pids = {
            e["pid"]
            for e in data["traceEvents"]
            if e.get("ph") == "X" and e["name"] in ("pool.task", "pool.attach")
        }
        assert os.getpid() not in worker_pids
        assert len(worker_pids) >= 2
        assert list(tmp_path.glob("*.spill")) == []
