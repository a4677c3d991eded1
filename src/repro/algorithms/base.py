"""Solver interface shared by all MROAM methods."""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass, field

from repro import obs
from repro.core.allocation import Allocation
from repro.core.problem import MROAMInstance
from repro.core.regret import RegretBreakdown
from repro.utils.timing import Stopwatch


class SolverTelemetry:
    """Per-solve iteration telemetry accumulated via ``record_iteration``.

    Keeps the convergence curve (best regret seen after each iteration /
    restart / sample point) and sums every numeric field the solver reports
    alongside it (moves evaluated, moves accepted, marginal-gain
    evaluations, …).  Always collected — it is part of the solver's
    ``stats``, not gated on the obs layer — and cheap: solvers record once
    per restart or per sampling window, never per move.
    """

    __slots__ = ("convergence", "counters")

    def __init__(self) -> None:
        self.convergence: list[float] = []
        self.counters: dict[str, float] = {}

    def record(self, best_regret: float, fields: dict) -> None:
        self.convergence.append(float(best_regret))
        for name, value in fields.items():
            if isinstance(value, (int, float)):
                self.counters[name] = self.counters.get(name, 0) + value
            else:
                self.counters[name] = value

    def as_dict(self) -> dict:
        return {
            "iterations": len(self.convergence),
            "convergence": list(self.convergence),
            **self.counters,
        }


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solver run.

    Attributes
    ----------
    allocation:
        The deployment plan found (callers must not mutate it).
    total_regret:
        ``R(S)`` of the plan.
    breakdown:
        The regret split into unsatisfied-penalty and excessive-influence
        components (the stacked bars of the paper's figures).
    runtime_s:
        Wall-clock seconds spent inside :meth:`Solver.solve`.
    stats:
        Solver-specific counters (iterations, accepted moves, …) plus the
        iteration telemetry under ``stats["telemetry"]``.  Deep-copied at
        construction so the frozen result can never alias a dict the solver
        (or a caller) keeps mutating.
    """

    allocation: Allocation
    total_regret: float
    breakdown: RegretBreakdown
    runtime_s: float
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "stats", copy.deepcopy(self.stats))

    @property
    def satisfied_count(self) -> int:
        """Number of advertisers whose demand is met."""
        instance = self.allocation.instance
        return sum(
            self.allocation.is_satisfied(i) for i in range(instance.num_advertisers)
        )


class Solver(abc.ABC):
    """Base class for MROAM solvers.

    Subclasses implement :meth:`_solve` returning an :class:`Allocation`;
    :meth:`solve` wraps it with timing, telemetry, and result packaging.
    During :meth:`_solve`, subclasses may call :meth:`record_iteration`
    once per iteration / restart / sampling window to populate the
    convergence curve and move counters that land in
    ``stats["telemetry"]`` (and, when observability is enabled, in the
    run's ``solver`` trace event).
    """

    #: Paper name of the method (e.g. ``"G-Order"``); set by subclasses.
    name: str = "solver"

    _telemetry: SolverTelemetry | None = None

    def record_iteration(self, best_regret: float, **fields) -> None:
        """Record one telemetry point: best regret so far + numeric counters."""
        if self._telemetry is None:
            self._telemetry = SolverTelemetry()
        self._telemetry.record(best_regret, fields)

    def solve(self, instance: MROAMInstance) -> SolverResult:
        """Run the solver and package timing + regret + telemetry."""
        watch = Stopwatch()
        stats: dict = {}
        self._telemetry = SolverTelemetry()
        with obs.span(f"solver.{self.name}", method=self.name):
            with watch:
                allocation = self._solve(instance, stats)
        total_regret = allocation.total_regret()
        if not self._telemetry.convergence:
            # One-shot solvers (the greedies, exact baselines) still get a
            # one-point convergence curve: their final regret.
            self._telemetry.record(total_regret, {})
        stats["telemetry"] = self._telemetry.as_dict()
        obs.counter_add("solver.solves")
        obs.counter_add("solver.iterations", stats["telemetry"]["iterations"])
        obs.emit_instant(
            "solver",
            {
                "method": self.name,
                "total_regret": float(total_regret),
                "runtime_s": watch.elapsed,
                "telemetry": stats["telemetry"],
            },
        )
        return SolverResult(
            allocation=allocation,
            total_regret=total_regret,
            breakdown=allocation.breakdown(),
            runtime_s=watch.elapsed,
            stats=stats,
        )

    @abc.abstractmethod
    def _solve(self, instance: MROAMInstance, stats: dict) -> Allocation:
        """Produce a deployment plan for ``instance``.

        ``stats`` is an output parameter: solvers record counters into it.
        """
