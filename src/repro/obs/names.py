"""The metric/span name taxonomy: every obs name used at a call site.

Counter, gauge, histogram, span, and trace-event names are **merge keys**:
worker snapshots fold into the parent registry by exact string match, so a
typo at one call site silently forks a metric series that then never
aggregates with its siblings across the snapshot merge.  The ``obs-naming``
lint rule closes that hole: a name literal used at an ``obs.*`` call site
anywhere outside :mod:`repro.obs` must appear here (or start with a
registered dynamic prefix).

Adding an instrumentation point therefore means adding its name here first
— which is also what keeps ``DESIGN.md`` §8's naming scheme honest.
"""

from __future__ import annotations

# ------------------------------------------------------------- counters

COVERAGE_CACHE_HIT = "coverage_cache.hit"
COVERAGE_CACHE_MISS = "coverage_cache.miss"
COVERAGE_CACHE_CORRUPT = "coverage_cache.corrupt"
COVERAGE_CACHE_WRITE_FAILURE = "coverage_cache.write_failure"
COVERAGE_BUILDS = "coverage.builds"
COVERAGE_CHUNKS = "coverage.chunks"
INFLUENCE_DISPATCH_IDARRAY = "influence.dispatch.idarray"
INFLUENCE_DISPATCH_TRANSPOSED = "influence.dispatch.transposed"
SHM_CREATE = "shm.create"
SHM_ATTACH = "shm.attach"
POOL_SPAWN = "pool.spawn"  # also the span name of the spawn phase
POOL_REUSE = "pool.reuse"
GRID_JOIN_CANDIDATE_PAIRS = "grid.join.candidate_pairs"
GRID_JOIN_MATCHED_PAIRS = "grid.join.matched_pairs"
SOLVER_SOLVES = "solver.solves"
SOLVER_ITERATIONS = "solver.iterations"
BLS_SCREEN_ROUNDS = "bls.screen.rounds"
BLS_SCREEN_ROWS = "bls.screen.rows"
BLS_SCREEN_SURVIVORS = "bls.screen.survivors"
BLS_DIRTY_SCANNED = "bls.dirty.scanned"
BLS_DIRTY_SKIPPED = "bls.dirty.skipped"
SWEEP_MOVES = "sweep.moves"
JOURNAL_ROLLBACK = "journal.rollback"
QUOTE_CACHE_HIT = "quote.cache.hit"
QUOTE_CACHE_MISS = "quote.cache.miss"

# --------------------------------------------------------------- gauges

COVERAGE_TOTAL_REACHABLE = "coverage.total_reachable"

# ----------------------------------------------------------- histograms

INFLUENCE_POPCOUNT_ROWS = "influence.popcount.rows"
POOL_TASK_BATCH = "pool.task.batch"
BLS_PHASE_SCREEN = "bls.phase.screen"
BLS_PHASE_EXCHANGE = "bls.phase.exchange"
BLS_PHASE_RELEASE = "bls.phase.release"
BLS_PHASE_TOPUP = "bls.phase.topup"

# ---------------------------------------------------------------- spans

SPAN_COVERAGE_BUILD = "coverage.build"
SPAN_COVERAGE_CACHE_GET_OR_BUILD = "coverage_cache.get_or_build"
SPAN_POOL_ATTACH = "pool.attach"
SPAN_POOL_TASK = "pool.task"
SPAN_POOL_EXPORT = "pool.export"
SPAN_POOL_MAP = "pool.map"
SPAN_RESTART_GREEDY = "restart.greedy"
SPAN_RESTART_LOCAL_SEARCH = "restart.local_search"
SPAN_RESTART_REDUCE = "restart.reduce"
SPAN_HARNESS_CELL = "harness.cell"
SPAN_ALS_SEARCH = "als.search"
SPAN_BLS_SEARCH = "bls.search"
SPAN_ANNEAL_CHAIN = "anneal.chain"
SPAN_QUOTE_PRICE = "quote.price"
SPAN_QUOTE_ACCEPT = "quote.accept"
SPAN_QUOTE_BATCH = "quote.batch"

# ------------------------------------------------------- trace events

EVENT_SOLVER = "solver"  # per-solve telemetry instant (convergence, moves)
TRACE_BLS_SWEEP = "bls.sweep"  # per-sweep phase-split complete event
TRACE_KERNEL_DISPATCH_INSTANT = "kernel.dispatch"  # per-pass counter deltas
TRACE_KERNEL_DISPATCH_TRACK = "kernel_dispatch"  # sampled counter track
TRACE_RSS_TRACK = "rss_mb"

#: Name families with a runtime-computed suffix (solver name).
#: A call site using an f-string must open with one of these prefixes.
DYNAMIC_PREFIXES = (
    "solver.",  # solver.<registry name>          (span per solve)
)

#: Every fixed name above, as the membership set the lint rule checks.
NAMES = frozenset(
    value
    for key, value in list(globals().items())
    if key.isupper() and isinstance(value, str) and not key.startswith("_")
)
