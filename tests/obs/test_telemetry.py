"""Solver telemetry tests: stats["telemetry"], convergence curves, deep copy."""

from __future__ import annotations

import pytest

from repro import obs
from repro.algorithms.base import SolverResult, SolverTelemetry
from repro.algorithms.registry import PAPER_METHODS, make_solver


class TestSolverTelemetryObject:
    def test_sums_numeric_fields(self):
        telemetry = SolverTelemetry()
        telemetry.record(10.0, {"moves_evaluated": 5, "moves_accepted": 1})
        telemetry.record(7.0, {"moves_evaluated": 3, "moves_accepted": 0})
        snapshot = telemetry.as_dict()
        assert snapshot["iterations"] == 2
        assert snapshot["convergence"] == [10.0, 7.0]
        assert snapshot["moves_evaluated"] == 8
        assert snapshot["moves_accepted"] == 1


class TestTelemetryInStats:
    @pytest.mark.parametrize("method", PAPER_METHODS)
    def test_every_method_reports_telemetry(self, method, tiny_instance):
        result = make_solver(method, seed=0, **({"restarts": 1} if method in ("als", "bls") else {})).solve(
            tiny_instance
        )
        telemetry = result.stats["telemetry"]
        assert telemetry["iterations"] == len(telemetry["convergence"]) >= 1
        assert all(isinstance(v, float) for v in telemetry["convergence"])

    @pytest.mark.parametrize("method", ("als", "bls"))
    def test_local_search_curve_non_increasing(self, method, tiny_instance):
        result = make_solver(method, seed=3, restarts=3).solve(tiny_instance)
        curve = result.stats["telemetry"]["convergence"]
        assert len(curve) >= 2  # greedy-start refinement + restarts
        assert all(a >= b for a, b in zip(curve, curve[1:]))
        assert curve[-1] == result.total_regret
        assert result.stats["telemetry"]["moves_evaluated"] >= 0

    @pytest.mark.parametrize("method", ("g-order", "g-global"))
    def test_greedies_report_marginal_gain_evals(self, method, tiny_instance):
        result = make_solver(method).solve(tiny_instance)
        assert result.stats["marginal_gain_evals"] > 0
        # One-shot solvers get the one-point fallback curve: final regret.
        assert result.stats["telemetry"]["convergence"] == [result.total_regret]

    def test_solver_counters_and_event_when_enabled(self, tiny_instance):
        obs.enable()
        make_solver("g-global").solve(tiny_instance)
        assert obs.counter_value("solver.solves") == 1
        assert obs.counter_value("solver.iterations") >= 1
        solver_events = [e for e in obs.take_trace() if e["name"] == "solver"]
        assert len(solver_events) == 1
        assert solver_events[0]["ph"] == "i"
        assert solver_events[0]["args"]["method"] == "G-Global"
        assert solver_events[0]["args"]["telemetry"]["convergence"]


class TestSolverResultStats:
    def test_stats_deep_copied_at_construction(self, tiny_instance):
        first = make_solver("g-global").solve(tiny_instance)
        shared = {"telemetry": {"convergence": [1.0]}, "note": "original"}
        result = SolverResult(
            allocation=first.allocation,
            total_regret=first.total_regret,
            breakdown=first.breakdown,
            runtime_s=0.0,
            stats=shared,
        )
        shared["note"] = "mutated"
        shared["telemetry"]["convergence"].append(99.0)
        assert result.stats["note"] == "original"
        assert result.stats["telemetry"]["convergence"] == [1.0]
