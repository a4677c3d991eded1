"""The experiment runner.

``run_cell`` executes the paper's four methods on one scenario cell;
``sweep`` varies one parameter while holding the rest at the scenario's
values, reusing a single generated city across the sweep (so coverage is
recomputed only when λ changes, exactly as a real host's data would be).

Both accept ``workers=N`` to fan the (sweep value × method) task grid out
across a :class:`~concurrent.futures.ProcessPoolExecutor`.  Each worker
process receives the city once (pool initializer), keeps its own per-λ
coverage cache across tasks, and — with ``REPRO_COVERAGE_CACHE`` set —
shares one on-disk coverage cache with every other worker.  Solvers are
deterministic given ``(instance, solver_seed)`` and tasks are reassembled in
sweep order, so the parallel path returns exactly the serial path's regret
metrics; only the measured wall-clock times differ.

When observability is enabled (see :mod:`repro.obs`), every
``(cell, method)`` execution runs inside a ``harness.cell`` span and each
worker ships a snapshot of its metrics registry back with the task result;
the parent merges snapshots in task-submission order, so counter totals for
deterministic per-task work (solver counters, influence dispatch) are equal
between ``workers=N`` and serial runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro import obs
from repro.algorithms.registry import PAPER_METHODS, make_solver
from repro.obs import ledger
from repro.core.problem import MROAMInstance
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


def _solver_kwargs(
    method: str,
    restarts: int,
    restart_workers: int | None = None,
) -> dict:
    if method in ("als", "bls"):
        kwargs: dict = {"restarts": restarts}
        if restart_workers is not None:
            kwargs["restart_workers"] = restart_workers
        return kwargs
    return {}


def _run_method(
    method: str,
    instance: MROAMInstance,
    restarts: int,
    solver_seed: int,
    runtime_repeats: int,
    span_attrs: dict | None = None,
    restart_workers: int | None = None,
) -> CellMetrics:
    """One (instance, method) execution — the unit of parallel work."""
    with obs.span("harness.cell", method=method, **(span_attrs or {})):
        if obs.enabled():
            # One union query per cell: reports the reachable-audience
            # ceiling on the run log.
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
    if ledger.enabled():
        ledger.record_run(
            "harness.cell",
            instance=instance,
            method=method,
            restarts=int(restarts),
            restart_workers=restart_workers,
            regret=float(metrics.total_regret),
            wall_s=float(metrics.runtime_s),
            **(span_attrs or {}),
        )
    return metrics


# Worker-process state, populated once per process by the pool initializer so
# the city (and its coverage caches) ship to each worker exactly once.
_WORKER_STATE: dict = {}


def _worker_init(
    city: CityDataset,
    base_lambda: float,
    obs_enabled: bool = False,
    coverage_spec=None,
    trace_enabled: bool = False,
) -> None:
    from repro.parallel.pool import _freeze_worker_heap, _sync_worker_obs

    _WORKER_STATE["city"] = city
    _sync_worker_obs(obs_enabled, trace_enabled)
    # With a fork start method the child inherits the parent's registry
    # contents; clear them so per-task snapshots hold only this worker's work.
    # The reset runs before the attach so the one shm.attach this worker ever
    # performs lands in its first task snapshot.  The inherited trace buffer
    # belongs to the parent and is dropped the same way.
    obs.reset()
    obs.trace_reset()
    obs.register_worker_flush()
    if coverage_spec is not None:
        # Zero-copy: attach the parent's coverage index at the pool-creating
        # scenario's base λ instead of re-running the radius join (or
        # unpickling a copy) here.  Tasks at a *different* λ still build
        # locally on first use and stay cached for the pool's lifetime.
        from repro.billboard.influence import CoverageIndex

        with obs.span("pool.attach"):
            attached = CoverageIndex.attach_shared(coverage_spec)
        key = (float(base_lambda), False)
        _WORKER_STATE["city"]._coverage_cache[key] = attached
    _freeze_worker_heap()


def _worker_run(task: tuple) -> tuple:
    from repro.parallel.pool import _sync_worker_obs

    (
        scenario,
        parameter,
        value,
        method,
        restarts,
        solver_seed,
        runtime_repeats,
        obs_enabled,
        trace_enabled,
    ) = task
    _sync_worker_obs(obs_enabled, trace_enabled)
    city: CityDataset = _WORKER_STATE["city"]
    span_attrs = {} if parameter is None else {"parameter": parameter, "value": value}
    if parameter is not None:
        scenario = scenario.with_params(**{parameter: value})
    instance = scenario.build_instance(city)
    with obs.span("pool.task"):
        metrics = _run_method(
            method, instance, restarts, solver_seed, runtime_repeats, span_attrs
        )
    if obs_enabled or trace_enabled:
        snapshot = obs.take_snapshot(reset_after=True)
    else:
        snapshot = None
    return (value, method, metrics), snapshot


def _harness_pool(city: CityDataset, scenario: Scenario, workers: int):
    """The persistent harness pool of ``(city, workers)``.

    The first call exports the city's base-λ coverage to shared memory and
    forks the workers; later calls — other sweeps, other scenarios on the
    same city — reuse the warm pool, and the scenario rides in each task
    instead of the initializer so reuse is keyed by the city alone.
    """
    from repro.parallel.pool import PersistentPool, pool_for

    def spawn() -> PersistentPool:
        shared = city.coverage(scenario.lambda_m).to_shared()
        # Workers receive a copy without the coverage cache: the index
        # travels through the shared segments, not the pickle stream.
        worker_city = CityDataset(
            name=city.name, billboards=city.billboards, trajectories=city.trajectories
        )
        return PersistentPool(
            workers,
            initializer=_worker_init,
            initargs=(
                worker_city,
                float(scenario.lambda_m),
                obs.enabled(),
                shared.spec,
                obs.trace_enabled(),
            ),
            shared=shared,
        )

    return pool_for(city, workers, spawn)


def _run_parallel(
    scenario: Scenario,
    city: CityDataset | None,
    tasks: list[tuple],
    workers: int,
) -> dict[tuple, CellMetrics]:
    """Fan tasks out across worker processes; results keyed ``(value, method)``.

    ``Executor.map`` preserves submission order, so assembly is deterministic
    regardless of completion order — including the order worker metric
    snapshots are merged into the parent registry.

    The pool persists across calls (see :func:`_harness_pool`): the city and
    its base-λ coverage ship to each worker exactly once per pool, not once
    per ``sweep``/``run_cell`` call.
    """
    if city is None:
        city = scenario.build_city()
    pool = _harness_pool(city, scenario, workers)
    obs_enabled = obs.enabled()
    trace_enabled = obs.trace_enabled()
    results = pool.map(
        _worker_run, [(scenario, *task, obs_enabled, trace_enabled) for task in tasks]
    )
    return {(value, method): metrics for value, method, metrics in results}


def _check_workers(workers: int | None) -> int:
    if workers is None:
        return 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return int(workers)


def run_cell(
    scenario: Scenario,
    city: CityDataset | None = None,
    methods: Sequence[str] = PAPER_METHODS,
    restarts: int = BENCH_RESTARTS,
    solver_seed: int = 0,
    instance: MROAMInstance | None = None,
    runtime_repeats: int = 1,
    workers: int | None = None,
    restart_workers: int | None = None,
    _span_attrs: dict | None = None,
) -> dict[str, CellMetrics]:
    """Run each method on one cell; returns ``{method: CellMetrics}``.

    ``runtime_repeats > 1`` re-runs each solver and reports the mean
    wall-clock time (the paper's efficiency study averages five runs); the
    regret metrics come from the first run.  ``workers > 1`` fans the methods
    out across processes (regret metrics identical to the serial path); a
    pre-built ``instance`` pins the cell to the serial path since workers
    rebuild the instance from the scenario.  ``restart_workers`` fans the
    ALS/BLS random restarts out inside each serial method run (ignored on
    the ``workers > 1`` path — no nested pools).
    """
    if runtime_repeats < 1:
        raise ValueError(f"runtime_repeats must be >= 1, got {runtime_repeats}")
    workers = _check_workers(workers)
    if workers > 1 and instance is None and len(methods) > 1:
        tasks = [
            (None, None, method, restarts, solver_seed, runtime_repeats)
            for method in methods
        ]
        by_key = _run_parallel(scenario, city, tasks, workers)
        return {method: by_key[(None, method)] for method in methods}
    if instance is None:
        instance = scenario.build_instance(city)
    return {
        method: _run_method(
            method,
            instance,
            restarts,
            solver_seed,
            runtime_repeats,
            _span_attrs,
            restart_workers=restart_workers,
        )
        for method in methods
    }


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
    restart_workers: int | None = None,
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
        processes.  Regret metrics are identical to the serial path on the
        same seed; results are assembled in sweep order either way.
    """
    workers = _check_workers(workers)
    if city is None:
        city = scenario.build_city()
    result = ExperimentResult(parameter=parameter, values=list(values))
    if workers > 1:
        tasks = [
            (parameter, value, method, restarts, solver_seed, runtime_repeats)
            for value in values
            for method in methods
        ]
        by_key = _run_parallel(scenario, city, tasks, workers)
        for value in values:
            result.cells[value] = {
                method: by_key[(value, method)] for method in methods
            }
        return result
    for value in values:
        cell_scenario = scenario.with_params(**{parameter: value})
        result.cells[value] = run_cell(
            cell_scenario,
            city=city,
            methods=methods,
            restarts=restarts,
            solver_seed=solver_seed,
            runtime_repeats=runtime_repeats,
            restart_workers=restart_workers,
            _span_attrs={"parameter": parameter, "value": value},
        )
    return result
