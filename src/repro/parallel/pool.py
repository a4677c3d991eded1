"""Persistent shared-memory worker pools: one task protocol for every fan-out.

Every parallel job in the package — ALS/BLS random restarts, annealing
chains, harness sweep cells — is a list of independent ``runner(context,
payload)`` tasks over one coverage index.  :func:`run_tasks` runs them:

* ``workers == 1``: in this process, against the caller's own context (the
  instance, the city) — no pool, no export, no executor import;
* ``workers > 1``: on the owner's :class:`PersistentPool`.  The pool exports
  one coverage index to shared memory; each worker attaches it once and
  builds its context from it with the setup function the caller passed in
  (``MROAMInstance`` for restarts, a city copy for sweep cells).

The same runners, in the same order, feed the same reductions either way,
so in-process and pooled runs are bit-identical by construction.

Lifecycle rules (DESIGN.md §10):

* a pool belongs to its *owner* object (the instance or city whose coverage
  its workers attached) and never outlives it — a ``weakref.finalize`` on
  the owner closes the pool, and an ``atexit`` hook is the safety net;
* the first call for an ``(owner, workers)`` pair spawns (``pool.spawn``),
  later calls reuse the live pool (``pool.reuse``);
* workers are forked once with observability matching the parent *at spawn*;
  every task carries the parent's current obs state (the collection flag and
  the trace output path, next to which a worker spills what it never
  shipped) and the worker re-syncs (registry reset on an enable/disable
  transition), so a pool spawned during a warm-up survives into timed
  obs-off runs without skewing either;
* effective worker count is capped at the CPUs this process may actually
  run on (``os.sched_getaffinity``) — extra workers only thrash the cache;
* workers freeze their post-attach heap (``gc.freeze``) so the attached
  coverage never pays collection passes during solver work.

Task *grain*: one payload is one ``pool.task`` span.  Callers that need
fatter grains (the restart runs, DESIGN.md §13) pack several work items
into a single payload — the pool itself never merges payloads, so the span
count stays an exact task count for trace attribution.
"""

from __future__ import annotations

import atexit
import gc
import os
import weakref

from repro import env, obs
from repro.billboard.influence import CoverageIndex


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


# The worker's task context, built once per process by the initializer.
_WORKER_STATE: dict = {}


def _worker_init(coverage_spec, setup, setup_args: tuple, obs_state: tuple) -> None:
    obs.sync_worker_state(obs_state)
    # With a fork start method the child inherits the parent's registry and
    # event buffer; drain both *before* attaching so the shm.attach count
    # lands in this worker's first task snapshot and the parent's own events
    # never ship back to it.
    obs.take_snapshot(reset_after=True)
    obs.register_worker_flush()
    with obs.span("pool.attach"):
        coverage = CoverageIndex.attach_shared(coverage_spec)
        _WORKER_STATE["context"] = setup(coverage, *setup_args)
    # Everything allocated so far — the interpreter, numpy, the attached
    # coverage views — is long-lived by construction; freezing it takes the
    # whole block out of every future collection pass.
    gc.collect()
    gc.freeze()


def _worker_call(task: tuple) -> tuple:
    runner, payload, obs_state = task
    obs.sync_worker_state(obs_state)
    with obs.span("pool.task"):
        result = runner(_WORKER_STATE["context"], payload)
    snapshot = obs.take_snapshot(reset_after=True) if obs.enabled() else None
    return result, snapshot


class PersistentPool:
    """A kept-alive worker pool attached to one exported coverage index.

    The pool exports ``coverage`` to shared memory (closed, segments
    unlinked, when the pool closes); each worker attaches it once and builds
    its task context as ``setup(attached_coverage, *setup_args)``, then
    serves ``runner(context, payload)`` tasks until the pool closes.
    """

    def __init__(
        self, workers: int, coverage: CoverageIndex, setup, setup_args: tuple = ()
    ) -> None:
        # The executor machinery loads on the first spawn only, so
        # in-process runs (``workers == 1``) never import it.
        from concurrent.futures import ProcessPoolExecutor

        self.workers = effective_workers(workers)
        with obs.span("pool.export"):
            self._shared = coverage.to_shared()
        with obs.span("pool.spawn", workers=self.workers):
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_init,
                initargs=(
                    self._shared.spec,
                    setup,
                    tuple(setup_args),
                    obs.worker_state(),
                ),
            )
        self._closed = False
        self._maps = 0
        atexit.register(self.close)

    @property
    def closed(self) -> bool:
        return self._closed

    def run(self, runner, payloads: list) -> list:
        """``[runner(context, payload) for payload in payloads]`` on the workers.

        Results come back in payload order, and each task's observability
        snapshot is merged into the parent registry in the same order, so
        counter totals match an in-process run of the same tasks.  Tasks
        are dispatched in contiguous chunks — one slice per worker — to
        amortize the pickle/IPC round trips.

        A worker that dies mid-run breaks the executor for good: the pool
        then closes itself (unlinking its segments) before re-raising, so
        :func:`pool_for` spawns a fresh pool on the next call.
        """
        from concurrent.futures.process import BrokenProcessPool

        if self._closed:
            raise RuntimeError("pool is closed")
        if not payloads:
            return []
        obs_state = obs.worker_state()
        tasks = [(runner, payload, obs_state) for payload in payloads]
        self._maps += 1
        chunksize = -(-len(tasks) // self.workers)  # ceil division
        results = []
        with obs.span(
            "pool.map", tasks=len(tasks), workers=self.workers, first=self._maps == 1
        ):
            try:
                for result, snapshot in self._executor.map(
                    _worker_call, tasks, chunksize=chunksize
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
        self._shared.close()
        atexit.unregister(self.close)


# ---------------------------------------------------------------- pool cache

#: Live pools keyed by ``(id(owner), workers requested)``.  Entries are
#: evicted (and the pool closed) by a ``weakref.finalize`` when the owner is
#: collected, so a recycled ``id`` can never alias a dead owner's pool.
_POOLS: dict = {}


def _evict_pool(key: tuple) -> None:
    pool = _POOLS.pop(key, None)
    if pool is not None:
        pool.close()


def pool_for(owner, workers: int, export) -> PersistentPool:
    """The persistent pool of ``(owner, workers)``, spawning on first use.

    ``export()`` returns the ``(coverage, setup, setup_args)`` of a new
    :class:`PersistentPool`; it is called only when a pool spawns.  The pool lives until the owner is garbage-collected, the pool
    is explicitly closed, or the process exits.  Spawns and reuses are
    counted (``pool.spawn`` / ``pool.reuse``) so benchmarks can assert the
    pool actually persisted.
    """
    key = (id(owner), int(workers))
    pool = _POOLS.get(key)
    if pool is not None and not pool.closed:
        obs.counter_add("pool.reuse")
        return pool
    pool = PersistentPool(workers, *export())
    _POOLS[key] = pool
    obs.counter_add("pool.spawn")
    weakref.finalize(owner, _evict_pool, key)
    return pool


def run_tasks(owner, runner, payloads: list, workers: int, export) -> list:
    """``[runner(owner, payload) for payload in payloads]``, results in order.

    ``workers == 1`` runs the tasks here, with ``owner`` itself as the
    context.  Otherwise they run on ``owner``'s persistent pool
    (:func:`pool_for` with ``export``), whose workers hold a context built
    from the attached coverage that must answer every task exactly as
    ``owner`` would.
    """
    if workers == 1 or not payloads:
        return [runner(owner, payload) for payload in payloads]
    return pool_for(owner, workers, export).run(runner, payloads)


def close_all_pools() -> None:
    """Close every live pool now (explicit teardown; tests, long sessions).

    Safe anytime: the next driver call simply spawns a fresh pool.
    """
    for key in list(_POOLS):
        _evict_pool(key)
