"""Persistent shared-memory worker pools.

``ProcessPoolExecutor`` spawn cost (fork + interpreter warm-up + one
``shm.attach`` per worker) dwarfs a restart batch at benchmark scale, so a
pool created per call makes ``restart_workers > 1`` *slower* than serial.
This module keeps pools alive instead:

* :class:`PersistentPool` — a kept-alive executor plus the shared-memory
  segments its workers attached at spawn.  ``map`` preserves task order and
  folds each worker's observability snapshot into the parent registry.
* :class:`SharedInstancePool` — a :class:`PersistentPool` whose workers hold
  one attached :class:`~repro.core.problem.MROAMInstance`; the restart and
  annealing drivers (:mod:`repro.parallel.restarts`) run on these.
* :func:`pool_for` — the per-``(owner, workers)`` cache: the first call
  spawns (``pool.spawn``), later calls reuse the live pool (``pool.reuse``),
  and the pool is closed when its owner is garbage-collected or at exit.

Lifecycle rules (DESIGN.md §10):

* a pool belongs to its *owner* object (the instance or city whose coverage
  its workers attached) and never outlives it — a ``weakref.finalize`` on
  the owner closes the pool, and an ``atexit`` hook is the safety net;
* workers are forked once with observability matching the parent *at spawn*;
  every task carries the parent's current obs flag and the worker re-syncs
  (enable/disable + registry reset) on transition, so a pool spawned during
  a warm-up survives into timed obs-off runs without skewing either;
* effective worker count is capped at the CPUs this process may actually
  run on (``os.sched_getaffinity``) — extra workers only thrash the cache;
* workers freeze their post-attach heap (``gc.freeze``) so the attached
  coverage never pays collection passes during solver work.

Task *grain*: one ``map`` payload is one ``pool.task`` span.  Callers that
need fatter grains (the batched restart drivers, DESIGN.md §13) pack
several work items into a single payload and record the packing on the
``pool.task.batch`` histogram — the pool itself never merges payloads, so
the span count stays an exact task count for trace attribution.
"""

from __future__ import annotations

import atexit
import gc
import os
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro import env, obs
from repro.billboard.influence import CoverageIndex
from repro.core.problem import MROAMInstance


#: Environment variable lifting the CPU-affinity cap on worker counts.
#: Tracing runs set it so multi-pid traces exist even on 1-CPU containers;
#: performance runs should leave it unset.
OVERSUBSCRIBE_ENV = env.POOL_OVERSUBSCRIBE.name


def effective_workers(requested: int) -> int:
    """``requested`` capped to the CPUs this process can be scheduled on.

    Setting ``REPRO_POOL_OVERSUBSCRIBE`` (to anything non-empty) lifts the
    cap — useful when the point of the pool is attribution rather than
    speed, e.g. tracing worker behaviour on a single-CPU CI runner.
    """
    if env.POOL_OVERSUBSCRIBE.is_set():
        return max(1, int(requested))
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        available = os.cpu_count() or 1
    return max(1, min(int(requested), available))


def _sync_worker_obs(want_enabled: bool, want_trace: bool = False) -> None:
    """Match the worker's observability state to the parent's task flags.

    Runs inside the worker.  An enable/disable transition resets the
    registry so snapshots never mix work from before and after the toggle;
    the trace flag flips collection only — pending trace events still ship
    with the next snapshot (or the teardown spill).
    """
    if obs.enabled() != want_enabled:
        if want_enabled:
            obs.enable()
        else:
            obs.disable()
        obs.reset()
    if obs.trace_enabled() != want_trace:
        obs.set_trace_collection(want_trace)


def _freeze_worker_heap() -> None:
    """Collect then freeze the worker's heap (runs inside the worker).

    Everything allocated so far — the interpreter, numpy, the attached
    coverage views — is long-lived by construction; freezing it takes the
    whole block out of every future collection pass.
    """
    gc.collect()
    gc.freeze()


# Worker-process state for instance pools, populated by the initializer.
_WORKER_STATE: dict = {}


def _instance_worker_init(
    coverage_spec, advertisers, gamma, obs_enabled: bool, trace_enabled: bool = False
) -> None:
    _sync_worker_obs(obs_enabled, trace_enabled)
    # With a fork start method the child inherits the parent's registry
    # contents; clear them *before* attaching so the shm.attach count lands
    # in this worker's first task snapshot.  The inherited trace buffer is
    # dropped too — the parent already owns those events.
    obs.reset()
    obs.trace_reset()
    obs.register_worker_flush()
    with obs.span("pool.attach"):
        coverage = CoverageIndex.attach_shared(coverage_spec)
        _WORKER_STATE["instance"] = MROAMInstance(coverage, list(advertisers), gamma)
    _freeze_worker_heap()


def _instance_worker_call(task: tuple) -> tuple:
    runner, payload, obs_enabled, trace_enabled = task
    _sync_worker_obs(obs_enabled, trace_enabled)
    with obs.span("pool.task"):
        result = runner(_WORKER_STATE["instance"], payload)
    if obs_enabled or trace_enabled:
        snapshot = obs.take_snapshot(reset_after=True)
    else:
        snapshot = None
    return result, snapshot


class PersistentPool:
    """A kept-alive worker pool plus the shared segments its workers use.

    ``initializer``/``initargs`` run once per worker at spawn, exactly like
    ``ProcessPoolExecutor``'s; ``shared`` (optional) is a
    :class:`~repro.parallel.shared.SharedCoverage` whose lifetime this pool
    owns — it is closed (segments unlinked) when the pool closes.
    """

    def __init__(self, workers: int, initializer, initargs: tuple, shared=None) -> None:
        self.requested_workers = int(workers)
        self.workers = effective_workers(workers)
        self._shared = shared
        with obs.span("pool.spawn", workers=self.workers):
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=initializer,
                initargs=initargs,
            )
        self._closed = False
        self._maps = 0
        atexit.register(self.close)

    @property
    def closed(self) -> bool:
        return self._closed

    def map(self, func, tasks: list) -> list:
        """Run ``func(task)`` for every task; results in task order.

        ``func`` must return ``(result, snapshot)`` pairs (the worker-call
        convention); snapshots are merged into the parent registry in task
        order, so counter totals match a serial run of the same tasks.
        Tasks are dispatched in contiguous chunks — one slice per worker —
        to amortize the pickle/IPC round trips.

        A worker that dies mid-map breaks the executor for good: the pool
        then closes itself (unlinking its segments) before re-raising, so
        :func:`pool_for` spawns a fresh pool on the next call.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        tasks = list(tasks)
        if not tasks:
            return []
        self._maps += 1
        chunksize = -(-len(tasks) // self.workers)  # ceil division
        results = []
        with obs.span(
            "pool.map", tasks=len(tasks), workers=self.workers, first=self._maps == 1
        ):
            try:
                for result, snapshot in self._executor.map(
                    func, tasks, chunksize=chunksize
                ):
                    obs.merge_snapshot(snapshot)
                    results.append(result)
            except BrokenProcessPool:
                self.close()
                raise
        return results

    def close(self) -> None:
        """Shut the workers down and release the shared segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        if self._shared is not None:
            self._shared.close()
        atexit.unregister(self.close)


class SharedInstancePool(PersistentPool):
    """A :class:`PersistentPool` whose workers hold one attached instance.

    Workers attach the instance's coverage through shared memory once, build
    their :class:`MROAMInstance` around the attached views, and then serve
    ``runner(instance, payload)`` tasks until the pool closes — restart
    batches, annealing chains, and repeated solver calls all reuse the same
    warm processes.
    """

    def __init__(self, instance: MROAMInstance, workers: int) -> None:
        with obs.span("pool.export"):
            shared = instance.coverage.to_shared()
        super().__init__(
            workers,
            initializer=_instance_worker_init,
            initargs=(
                shared.spec,
                list(instance.advertisers),
                instance.gamma,
                obs.enabled(),
                obs.trace_enabled(),
            ),
            shared=shared,
        )

    def run(self, runner, payloads: list) -> list:
        """``[runner(instance, payload) for payload in payloads]``, fanned out."""
        obs_enabled = obs.enabled()
        trace_enabled = obs.trace_enabled()
        return self.map(
            _instance_worker_call,
            [(runner, payload, obs_enabled, trace_enabled) for payload in payloads],
        )


# ---------------------------------------------------------------- pool cache

#: Live pools keyed by ``(id(owner), requested_workers)``.  Entries are
#: evicted (and the pool closed) by a ``weakref.finalize`` when the owner is
#: collected, so a recycled ``id`` can never alias a dead owner's pool.
_POOLS: dict = {}


def _evict_pool(key: tuple) -> None:
    pool = _POOLS.pop(key, None)
    if pool is not None:
        pool.close()


def pool_for(owner, workers: int, factory) -> PersistentPool:
    """The persistent pool of ``(owner, workers)``, spawning via ``factory``.

    ``owner`` is the object whose shared state the pool's workers hold (an
    instance for restart pools, a city for harness pools); the pool lives
    until the owner is garbage-collected, the pool is explicitly closed, or
    the process exits.  Spawns and reuses are counted (``pool.spawn`` /
    ``pool.reuse``) so benchmarks can assert the pool actually persisted.
    """
    key = (id(owner), int(workers))
    pool = _POOLS.get(key)
    if pool is not None and not pool.closed:
        obs.counter_add("pool.reuse")
        return pool
    pool = factory()
    _POOLS[key] = pool
    obs.counter_add("pool.spawn")
    weakref.finalize(owner, _evict_pool, key)
    return pool


def close_all_pools() -> None:
    """Close every live pool now (explicit teardown; tests, long sessions).

    Safe anytime: the next driver call simply spawns a fresh pool.
    """
    for key in list(_POOLS):
        _evict_pool(key)


def instance_pool(instance: MROAMInstance, workers: int) -> SharedInstancePool:
    """The persistent :class:`SharedInstancePool` of ``(instance, workers)``."""
    return pool_for(instance, workers, lambda: SharedInstancePool(instance, workers))
