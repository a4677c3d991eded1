"""Zero-copy process parallelism: shared-memory coverage + one task protocol.

``repro.parallel.shared`` owns shared-memory segment lifecycle
(create/attach/unlink with atexit cleanup); ``repro.parallel.pool`` runs
``runner(context, payload)`` tasks in-process or on persistent worker pools
(spawn once per ``(owner, workers)`` pair, reuse until the owner dies),
whose workers attach the coverage index instead of unpickling a copy;
``repro.parallel.restarts`` packs restarts and annealing chains into
one-wave tasks with a strict-``<`` in-task reduction.
"""

from repro.parallel.pool import (
    PersistentPool,
    close_all_pools,
    effective_workers,
    pool_for,
    run_tasks,
)
from repro.parallel.restarts import allocation_from_owners, run_restarts
from repro.parallel.shared import (
    SharedArraySpec,
    SharedCoverage,
    SharedCoverageSpec,
    attach_array,
)

__all__ = [
    "PersistentPool",
    "SharedArraySpec",
    "SharedCoverage",
    "SharedCoverageSpec",
    "allocation_from_owners",
    "attach_array",
    "close_all_pools",
    "effective_workers",
    "pool_for",
    "run_restarts",
    "run_tasks",
]
