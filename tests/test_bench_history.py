"""The append-only bench history and its regression gate.

``scripts/_bench_history.py`` turns the BENCH_*.json files into commit-keyed
time series; the gate compares a new run's timings against the best recorded
run of the same scenario on the same machine stamp.  These tests pin the
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

    def test_best_baselines_track_value_and_commit(self):
        history = {
            "runs": [
                report(build_s=2.0, commit="older"),
                report(build_s=1.0, commit="best"),
                report(build_s=3.0, commit="newer"),
            ]
        }
        key = _bench_history.baseline_key(history["runs"][0])
        best = _bench_history.best_baselines(history, key)
        assert best["results.build_s"] == (1.0, "best")

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
