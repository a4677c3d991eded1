"""The experiment runner.

``run_cell`` executes the paper's four methods on one scenario cell;
``sweep`` varies one parameter while holding the rest at the scenario's
values, reusing a single generated city across the sweep (so coverage is
recomputed only when λ changes, exactly as a real host's data would be).

Both run one task per ``(cell, method)`` through
:func:`repro.parallel.pool.run_tasks`, with one ``workers`` count: a grid of
several tasks fans out over the city's persistent worker pool (workers
attach the first cell's coverage through shared memory and build any other
λ locally); a lone task runs in this process and, for ALS/BLS, fans its
random restarts out instead.  With ``workers=1`` every task runs here
through the same runner.  Solvers are deterministic given ``(instance,
solver_seed)`` and results come back in task order, so every regret metric
is independent of ``workers``; only measured wall-clock times differ.

When observability is enabled (see :mod:`repro.obs`), every
``(cell, method)`` execution runs inside a ``harness.cell`` span that
carries the cell's outcome (``regret`` and the mean solver ``runtime_s``),
and each worker ships a snapshot of its metrics registry back with the
task result; the parent merges snapshots in task order, so counter totals
for deterministic per-task work (solver counters, influence dispatch) are
equal for every ``workers`` count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro import obs
from repro.algorithms.registry import PAPER_METHODS, make_solver
from repro.datasets.synthetic import CityDataset
from repro.experiments.configs import BENCH_RESTARTS
from repro.experiments.metrics import CellMetrics
from repro.market.scenario import Scenario


@dataclass
class ExperimentResult:
    """All metrics of one sweep: ``cells[param_value][method] -> CellMetrics``."""

    parameter: str
    values: list
    cells: dict = field(default_factory=dict)

    def metric(self, value, method: str) -> CellMetrics:
        return self.cells[value][method]

    def series(self, method: str, attribute: str = "total_regret") -> list[float]:
        """One method's metric across the sweep, in sweep order."""
        return [getattr(self.cells[value][method], attribute) for value in self.values]


def _solver_kwargs(method: str, restarts: int, restart_workers: int) -> dict:
    if method in ("als", "bls"):
        return {"restarts": restarts, "restart_workers": restart_workers}
    return {}


def _run_task(city: CityDataset, task: tuple) -> CellMetrics:
    """One ``(cell, method)`` execution against ``city`` — the unit of
    harness work, run here or in a pool worker."""
    (
        scenario,
        span_attrs,
        method,
        restarts,
        solver_seed,
        runtime_repeats,
        restart_workers,
    ) = task
    instance = scenario.build_instance(city)
    with obs.span("harness.cell", method=method, **span_attrs) as cell_span:
        if obs.enabled():
            # One union query per cell: reports the reachable-audience
            # ceiling in the run's metrics.
            obs.gauge_set(
                "coverage.total_reachable",
                float(instance.coverage.total_reachable()),
            )
        solver = make_solver(
            method,
            seed=solver_seed,
            **_solver_kwargs(method, restarts, restart_workers),
        )
        first = solver.solve(instance)
        metrics = CellMetrics.from_result(method, first)
        if runtime_repeats > 1:
            runtimes = [first.runtime_s]
            for _ in range(1, runtime_repeats):
                repeat_solver = make_solver(
                    method,
                    seed=solver_seed,
                    **_solver_kwargs(method, restarts, restart_workers),
                )
                runtimes.append(repeat_solver.solve(instance).runtime_s)
            metrics = replace(metrics, runtime_s=sum(runtimes) / len(runtimes))
        # The span's own duration also covers the runtime repeats.
        cell_span.set(
            regret=float(metrics.total_regret), runtime_s=float(metrics.runtime_s)
        )
    return metrics


def _attached_city(coverage, city: CityDataset) -> CityDataset:
    """A worker's copy of ``city`` whose coverage at ``coverage``'s λ is the
    attached index; other λ build locally on first use and stay cached.

    The copy starts without the parent's coverage cache: indices reach the
    workers through shared segments, never the pickle stream.
    """
    worker_city = CityDataset(
        name=city.name, billboards=city.billboards, trajectories=city.trajectories
    )
    worker_city._coverage_cache[(float(coverage.lambda_m), False)] = coverage
    return worker_city


def _run_grid(
    city: CityDataset,
    cells: list[tuple[Scenario, dict]],
    methods: Sequence[str],
    restarts: int,
    solver_seed: int,
    runtime_repeats: int,
    workers: int | None,
) -> list[dict[str, CellMetrics]]:
    """Every method on every ``(scenario, span_attrs)`` cell of ``city``;
    one ``{method: CellMetrics}`` per cell, in cell and method order.

    The pool is the city's persistent one (:func:`repro.parallel.pool.
    pool_for`): the city and the first cell's coverage ship to each worker
    once per pool, not once per ``sweep``/``run_cell`` call.
    """
    from repro.parallel.pool import run_tasks

    if runtime_repeats < 1:
        raise ValueError(f"runtime_repeats must be >= 1, got {runtime_repeats}")
    workers = 1 if workers is None else int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # One count: a grid fans out its tasks, a lone task fans out its restarts.
    grid_workers, restart_workers = (
        (workers, 1) if len(cells) * len(methods) > 1 else (1, workers)
    )
    settings = (restarts, solver_seed, runtime_repeats, restart_workers)
    tasks = [
        (scenario, span_attrs, method, *settings)
        for scenario, span_attrs in cells
        for method in methods
    ]
    export = lambda: (
        city.coverage(cells[0][0].lambda_m),
        _attached_city,
        (city,),
    )
    results = iter(run_tasks(city, _run_task, tasks, grid_workers, export))
    return [{method: next(results) for method in methods} for _ in cells]


def run_cell(
    scenario: Scenario,
    city: CityDataset | None = None,
    methods: Sequence[str] = PAPER_METHODS,
    restarts: int = BENCH_RESTARTS,
    solver_seed: int = 0,
    runtime_repeats: int = 1,
    workers: int | None = None,
) -> dict[str, CellMetrics]:
    """Run each method on one cell; returns ``{method: CellMetrics}``.

    ``runtime_repeats > 1`` re-runs each solver and reports the mean
    wall-clock time (the paper's efficiency study averages five runs); the
    regret metrics come from the first run.  ``workers > 1`` fans several
    methods out across processes, or a lone ALS/BLS method's random
    restarts; regret metrics are identical to ``workers=1``.
    """
    if city is None:
        city = scenario.build_city()
    return _run_grid(
        city, [(scenario, {})], methods, restarts, solver_seed, runtime_repeats, workers
    )[0]


def sweep(
    scenario: Scenario,
    parameter: str,
    values: Sequence,
    methods: Sequence[str] = PAPER_METHODS,
    restarts: int = BENCH_RESTARTS,
    solver_seed: int = 0,
    city: CityDataset | None = None,
    runtime_repeats: int = 1,
    workers: int | None = None,
) -> ExperimentResult:
    """Vary one scenario field across ``values``; other fields stay fixed.

    Parameters
    ----------
    scenario:
        The base cell (its ``parameter`` field is overridden per value).
    parameter:
        A :class:`Scenario` field name — ``"alpha"``, ``"p_avg"``,
        ``"gamma"``, or ``"lambda_m"``.
    values:
        The sweep values (e.g. ``ALPHA_VALUES``).
    city:
        Optional pre-generated city to reuse; generated once from the base
        scenario otherwise.
    workers:
        Fan the ``values × methods`` task grid out over this many worker
        processes (a lone ALS/BLS task fans out its restarts instead).
        Regret metrics are identical to ``workers=1``; results are
        assembled in sweep order either way.
    """
    if city is None:
        city = scenario.build_city()
    cells = [
        (
            scenario.with_params(**{parameter: value}),
            {"parameter": parameter, "value": value},
        )
        for value in values
    ]
    per_cell = _run_grid(
        city, cells, methods, restarts, solver_seed, runtime_repeats, workers
    )
    return ExperimentResult(
        parameter=parameter, values=list(values), cells=dict(zip(values, per_cell))
    )
