"""The append-only bench history and its regression gate.

``scripts/_bench_history.py`` turns the BENCH_*.json files into commit-keyed
time series; the gate compares a new run's timings against the median
recorded passing run of the same scenario on the same machine stamp, and
leaves one-shot timings too short to measure ungated.  These tests pin the
schema, the legacy-file migration, the scenario keying (smoke never gates
against full), the machine matching, and the pass/fail arithmetic.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import _bench_history  # noqa: E402


MACHINE = {"python": "3.11.7", "numpy": "2.4.6", "cpus": 2}


def report(
    benchmark="bench", smoke=False, scenario=None, commit=None, machine=MACHINE, **timings
):
    entry = {
        "benchmark": benchmark,
        "smoke": smoke,
        "scenario": scenario or {"n": 100, "seed": 7},
        "machine": machine,
        "results": dict(timings),
    }
    if commit is not None:
        entry["commit"] = commit
    return entry


class TestHistoryFile:
    def test_append_creates_schema(self, tmp_path):
        path = tmp_path / "bench.json"
        history = _bench_history.append_run(path, report(build_s=1.0))
        assert history["schema"] == _bench_history.SCHEMA
        assert len(history["runs"]) == 1
        assert "recorded_at" in history["runs"][0]

        history = _bench_history.append_run(path, report(build_s=0.9))
        assert len(history["runs"]) == 2
        assert json.loads(path.read_text())["schema"] == _bench_history.SCHEMA

    def test_migrates_legacy_single_report(self, tmp_path):
        path = tmp_path / "bench.json"
        legacy = report(build_s=2.0)
        path.write_text(json.dumps(legacy))
        history = _bench_history.load_history(path)
        assert len(history["runs"]) == 1
        assert history["runs"][0]["results"]["build_s"] == 2.0
        # Appending keeps the migrated run as the baseline.
        history = _bench_history.append_run(path, report(build_s=1.5))
        assert [run["results"]["build_s"] for run in history["runs"]] == [2.0, 1.5]

    def test_missing_and_corrupt_files_start_empty(self, tmp_path):
        assert _bench_history.load_history(tmp_path / "absent.json")["runs"] == []
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert _bench_history.load_history(bad)["runs"] == []


class TestScenarioKey:
    def test_smoke_and_full_differ(self):
        full = report(smoke=False)
        smoke = report(smoke=True)
        assert _bench_history.scenario_key(full) != _bench_history.scenario_key(smoke)

    def test_resized_scenario_differs(self):
        a = report(scenario={"n": 100})
        b = report(scenario={"n": 200})
        assert _bench_history.scenario_key(a) != _bench_history.scenario_key(b)

    def test_key_order_independent(self):
        a = report(scenario={"n": 100, "seed": 7})
        b = report(scenario={"seed": 7, "n": 100})
        assert _bench_history.scenario_key(a) == _bench_history.scenario_key(b)


class TestTimingMetrics:
    def test_flattens_nested_timings_only(self):
        run = {
            "benchmark": "bench",
            "build": {"join_s": 1.5, "speedup": 3.0, "note": "x"},
            "smoke": True,  # bool ending in nothing; also bools are excluded
            "deep": {"inner": {"solve_s": 0.25}},
        }
        assert _bench_history.timing_metrics(run) == {
            "build.join_s": 1.5,
            "deep.inner.solve_s": 0.25,
        }

    def test_rates_are_not_timings(self):
        run = {"paths": {"quote_s": 0.01, "quotes_per_s": 100.0}}
        assert _bench_history.timing_metrics(run) == {"paths.quote_s": 0.01}


class TestGate:
    def history_with(self, *values):
        history = {"schema": _bench_history.SCHEMA, "runs": []}
        for value in values:
            history["runs"].append(report(build_s=value))
        return history

    def test_no_baseline_passes_trivially(self):
        assert _bench_history.gate_regression({"runs": []}, report(build_s=9.9)) == []

    def test_within_threshold_passes(self):
        history = self.history_with(1.0, 1.4)
        assert _bench_history.gate_regression(history, report(build_s=1.1)) == []

    def test_gates_against_best_not_latest(self):
        history = self.history_with(1.0, 2.0)  # best is 1.0
        failures = _bench_history.gate_regression(history, report(build_s=1.5))
        assert len(failures) == 1
        assert "build_s" in failures[0]

    def test_failure_names_best_run_commit_and_percentage(self):
        history = {
            "schema": _bench_history.SCHEMA,
            "runs": [
                report(build_s=1.0, commit="abc1234"),
                report(build_s=2.0, commit="def5678"),
            ],
        }
        failures = _bench_history.gate_regression(history, report(build_s=1.5))
        assert len(failures) == 1
        # Names the commit of the *best* run, not the latest.
        assert "abc1234" in failures[0]
        assert "def5678" not in failures[0]
        assert "+50.0%" in failures[0]

    def test_failure_without_commit_says_unknown(self):
        history = self.history_with(1.0)  # report() stamps no commit
        failures = _bench_history.gate_regression(history, report(build_s=5.0))
        assert len(failures) == 1
        assert "commit unknown" in failures[0]

    def test_median_baselines_track_value_and_commit(self):
        history = {
            "runs": [
                report(build_s=2.0, commit="older"),
                report(build_s=1.0, commit="best"),
                report(build_s=3.0, commit="newer"),
                report(build_s=4.0, commit="newest"),
            ]
        }
        key = _bench_history.baseline_key(history["runs"][0])
        baselines = _bench_history.median_baselines(history, key)
        # The lower median: a recorded run, so its commit can be named.
        assert baselines["results.build_s"] == (2.0, "older")

    def test_spread_inside_the_recorded_range_passes(self):
        # Unchanged code on a shared host: the best row was a lucky draw.
        history = self.history_with(1.0, 1.3, 1.2)
        assert _bench_history.gate_regression(history, report(build_s=1.25)) == []
        assert _bench_history.gate_regression(history, report(build_s=1.3)) == []

    def test_regression_of_a_measurable_timing_fails(self):
        history = self.history_with(1.0, 1.3, 1.2)
        failures = _bench_history.gate_regression(history, report(build_s=1.8))
        assert len(failures) == 1
        assert "1.50x" in failures[0] and "median recorded 1.2000s" in failures[0]
        short = self.history_with(0.1, 0.12, 0.11)
        assert _bench_history.gate_regression(short, report(build_s=0.165))

    def test_timings_too_short_to_measure_never_gate(self):
        # influence_of_set.mark_s read 0.012-0.070 s on one commit.
        history = self.history_with(0.020, 0.016, 0.012)
        assert _bench_history.gate_regression(history, report(build_s=0.070)) == []

    def test_per_operation_timings_gate_without_the_floor(self):
        # A per-quote mean over many quotes is measurable however small.
        history = self.history_with(0.012, 0.011, 0.012)
        failures = _bench_history.gate_regression(
            history, report(build_s=0.018), min_gated_s=0.0
        )
        assert len(failures) == 1
        assert not _bench_history.gate_regression(
            history, report(build_s=0.013), min_gated_s=0.0
        )

    def test_failed_runs_never_become_baselines(self):
        history = self.history_with(1.0, 1.0, 1.0)
        for _ in range(4):
            history["runs"].append(dict(report(build_s=1.5), gate_failed=True))
        failures = _bench_history.gate_regression(history, report(build_s=1.5))
        assert len(failures) == 1 and "median recorded 1.0000s" in failures[0]

    def test_other_scenario_never_gates(self):
        history = {"runs": [report(smoke=True, build_s=0.001)]}
        assert (
            _bench_history.gate_regression(history, report(smoke=False, build_s=5.0))
            == []
        )

    def test_custom_threshold(self):
        history = self.history_with(1.0)
        assert (
            _bench_history.gate_regression(history, report(build_s=1.9), 2.0) == []
        )
        assert _bench_history.gate_regression(history, report(build_s=2.1), 2.0)


class TestAppendGatedRun:
    def test_failing_run_is_marked_and_passing_run_is_not(self, tmp_path):
        path = tmp_path / "bench.json"
        for value in (1.0, 1.1, 1.0):
            _bench_history.append_run(path, report(build_s=value))
        history, failures = _bench_history.append_gated_run(
            path, report(build_s=1.6), 1.15
        )
        assert len(failures) == 1 and history["runs"][-1]["gate_failed"] is True
        history, failures = _bench_history.append_gated_run(
            path, report(build_s=1.05), 1.15
        )
        assert failures == [] and "gate_failed" not in history["runs"][-1]
        assert len(_bench_history.load_history(path)["runs"]) == 5

    def test_ungated_run_is_appended_unmarked(self, tmp_path):
        path = tmp_path / "bench.json"
        _bench_history.append_run(path, report(build_s=1.0))
        history, failures = _bench_history.append_gated_run(
            path, report(build_s=9.0), None
        )
        assert failures == [] and "gate_failed" not in history["runs"][-1]


class TestMachineStamp:
    def test_stamp_records_python_numpy_and_cpus(self):
        stamp = _bench_history.machine_stamp()
        assert set(stamp) == {"python", "numpy", "cpus"}
        assert stamp["cpus"] >= 1

    def test_same_stamp_gates(self):
        history = {"runs": [report(build_s=1.0)]}
        assert _bench_history.gate_regression(history, report(build_s=1.5))

    def test_other_stamp_never_gates(self):
        for other in (
            dict(MACHINE, cpus=1),
            dict(MACHINE, numpy="1.26.4"),
            dict(MACHINE, python="3.12.1"),
        ):
            history = {"runs": [report(build_s=0.1, machine=other)]}
            assert _bench_history.gate_regression(history, report(build_s=5.0)) == []

    def test_rows_without_cpus_never_gate(self):
        legacy = {"python": "3.11.7", "numpy": "2.4.6"}
        history = {"runs": [report(build_s=0.1, machine=legacy)]}
        assert _bench_history.gate_regression(history, report(build_s=5.0)) == []
        # Nor is a run without the stamp gated by anything.
        history = {"runs": [report(build_s=0.1)]}
        assert (
            _bench_history.gate_regression(history, report(build_s=5.0, machine=legacy))
            == []
        )


class TestParallelSpeedupGate:
    """``bench_solvers.py --assert-parallel-speedup`` decides from the CPUs in
    this process's affinity mask — the count the pool caps its workers at —
    not from ``os.cpu_count()``."""

    @pytest.fixture
    def bench_solvers(self):
        import bench_solvers

        return bench_solvers

    def test_one_cpu_mask_on_a_big_box_skips(self, bench_solvers, monkeypatch, capsys):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
        assert bench_solvers.check_parallel_speedup(1.2, 0.95) is None
        assert "skipping --assert-parallel-speedup" in capsys.readouterr().err

    def test_two_cpu_mask_gates(self, bench_solvers, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
        failure = bench_solvers.check_parallel_speedup(1.2, 0.95)
        assert failure is not None and "0.950" in failure
        assert bench_solvers.check_parallel_speedup(1.2, 1.5) is None
