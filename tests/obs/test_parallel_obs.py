"""Parallel metric merge: ``workers=2`` totals equal the serial totals.

Worker processes record into their own registries and ship per-task
snapshots back to the parent.  For work that is deterministic per task —
the solver counters and the influence-kernel dispatches — merged totals
must equal a serial run exactly.  (Per-build counters like
``coverage.builds`` legitimately differ: each worker rebuilds coverage.)
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.experiments.harness import sweep
from repro.market.scenario import Scenario

COMPARED_PREFIXES = ("solver.", "influence.dispatch.")


def compared_counters() -> dict:
    return {
        name: value
        for name, value in obs.get_registry().counters.items()
        if name.startswith(COMPARED_PREFIXES)
    }


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        dataset="nyc", n_billboards=40, n_trajectories=250, alpha=0.8, p_avg=0.1, seed=3
    )


def assert_merged_totals_match_serial(scenario, parameter, values):
    kwargs = dict(
        parameter=parameter,
        values=values,
        methods=["g-global", "bls"],
        restarts=1,
    )
    obs.enable()
    serial_result = sweep(scenario, **kwargs)
    serial = compared_counters()
    serial_cells = len(
        [e for e in obs.get_registry().events if e["event"] == "solver"]
    )
    obs.reset()

    parallel_result = sweep(scenario, workers=2, **kwargs)
    parallel = compared_counters()
    parallel_cells = len(
        [e for e in obs.get_registry().events if e["event"] == "solver"]
    )

    assert serial  # the comparison is not vacuous
    assert serial["solver.solves"] == 4
    assert parallel == serial
    assert parallel_cells == serial_cells == 4
    for value in serial_result.values:
        assert list(parallel_result.cells[value]) == ["g-global", "bls"]
        for method in ("g-global", "bls"):
            assert (
                parallel_result.cells[value][method].total_regret
                == serial_result.cells[value][method].total_regret
            )


class TestParallelMergeEqualsSerial:
    def test_sweep_workers_2_matches_serial_counters(self, scenario):
        assert_merged_totals_match_serial(scenario, "gamma", (0.25, 0.75))

    def test_lambda_sweep_workers_2_matches_serial_counters(self, scenario):
        # Workers build the non-exported λ's coverage locally; the solver
        # and kernel-dispatch totals must still equal the serial run's.
        assert_merged_totals_match_serial(scenario, "lambda_m", (50.0, 150.0))

    def test_harness_cell_span_counts_match(self, scenario):
        kwargs = dict(parameter="gamma", values=(0.5,), methods=["g-global"], restarts=0)
        obs.enable()
        sweep(scenario, **kwargs)
        serial = obs.get_registry().histograms["span.harness.cell"].count
        obs.reset()
        sweep(scenario, workers=2, **kwargs)
        # A grid of one task runs in this process under any ``workers``
        # count; the span name keys the histogram either way.
        parallel = obs.get_registry().histograms["span.harness.cell"].count
        assert parallel == serial == 1
