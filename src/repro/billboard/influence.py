"""The coverage influence model (paper Section 7.1.2).

A Bernoulli meet indicator ``p(o, t) = 1`` iff some point of trajectory ``t``
lies within ``λ`` metres of billboard ``o``.  The influence of a billboard set
``S`` on ``t`` is ``1 − Π_{o∈S}(1 − p(o, t))`` — i.e. 1 iff *any* member meets
``t`` — and the influence of ``S`` is the sum over all trajectories:

    I(S) = |{t : some o ∈ S meets t}|

so influence is a set-coverage count.  :class:`CoverageIndex` materializes the
per-billboard covered-trajectory id arrays once (a grid-accelerated bulk
radius join) and answers all influence queries from them.

Two kernels answer the queries:

* the **id-array kernel** — sorted ``int64`` covered-trajectory arrays, the
  always-available representation;
* the **packed-bitmap kernel** — a ``(num_billboards, ceil(T/64))`` ``uint64``
  matrix where bit ``t`` of row ``o`` says billboard ``o`` covers trajectory
  ``t``.  Union influence becomes bitwise-OR + popcount and the batch
  gain/loss and swap-delta passes become single masked popcounts.  The bitmap
  is built lazily and only when it fits the memory budget
  (``bitmap_budget_mb`` argument, ``REPRO_BITMAP_BUDGET_MB`` environment
  variable, default 512 MB); past the budget every query transparently falls
  back to the id-array kernel, so results are bit-identical either way.

The two kernels are *bit-identical*, so each query dispatches to whichever
is cheaper for its actual operand sizes: union influence always prefers the
bitmap (popcount beats sort-based dedup), while the batch and swap passes
compare the words they would touch (``rows × ceil(T/64)``) against the
number of covered ids the id-array pass would gather — on sparse coverage
the id arrays win, on dense coverage the bitmap does.

Every batch pass additionally accepts an optional ``candidate_ids`` row
restriction: the dirty-set sweep engines and the greedy marginal scans
usually need gains for a handful of candidate billboards, not the whole
inventory, and the restricted passes compute *only those rows* — the bitmap
path gathers the candidate rows into a reusable per-index scratch block and
popcounts ``len(candidates) × words`` words (no full-matrix ``bitmap &
mask`` temporary), the id-array path gathers only the candidates' CSR
slices.  Restricted results are bit-identical to slicing the full pass:
``batch_add_gains(row, candidate_ids=c) == batch_add_gains(row)[c]``.

Paper-scale corpora (10⁶⁺ trajectories) add two more layers, both
bit-identical to the in-RAM numpy path:

* **streaming ingestion** — ``chunk_size=`` (or ``REPRO_COVERAGE_CHUNK_SIZE``)
  feeds the grid radius join bounded chunks of trajectories, and
  :meth:`CoverageIndex.from_trajectory_chunks` builds coverage from a chunk
  *generator* so the full corpus never has to exist in memory at once;
* **tiered bitmap storage** — the packed bitmap lives in a
  :class:`~repro.billboard.bitmap_store.BitmapStore` (in-RAM, shared-memory,
  or ``numpy.memmap`` row shards, see that module) so the bitmap kernel
  keeps working past the RAM budget instead of degrading to id arrays.

Every bitmap dispatch records its storage tier (``influence.tier.ram`` /
``.shm`` / ``.memmap``; id-array dispatches count ``influence.tier.idarray``)
and its popcount kernel (``influence.kernel.numpy``).
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import env, obs
from repro.billboard import bitmap_store
from repro.billboard.bitmap_store import BitmapStore
from repro.billboard.model import BillboardDB
from repro.spatial.geometry import min_distance_to_polyline
from repro.spatial.grid import GridIndex
from repro.trajectory.model import TrajectoryDB
from repro.utils import bitset

#: Environment variable holding the bitmap memory budget in megabytes.
BITMAP_BUDGET_ENV = env.BITMAP_BUDGET_MB.name

#: Environment variable holding the default ingestion chunk size (in
#: trajectories) for coverage builds; unset = single-shot build.
CHUNK_SIZE_ENV = env.COVERAGE_CHUNK_SIZE.name

#: Default bitmap memory budget (megabytes) when neither the constructor
#: argument nor the environment variable is set.
DEFAULT_BITMAP_BUDGET_MB = 512.0

#: Rows of the dense boolean staging block used while packing the bitmap are
#: chunked so staging memory stays below this many bytes.
_PACK_CHUNK_BYTES = 64 * 1024 * 1024


def _resolve_bitmap_budget_mb(bitmap_budget_mb: float | None) -> float:
    if bitmap_budget_mb is not None:
        return float(bitmap_budget_mb)
    raw = env.BITMAP_BUDGET_MB.raw()
    if raw is not None:
        try:
            return float(raw)
        except ValueError:
            raise ValueError(
                f"{BITMAP_BUDGET_ENV} must be a number of megabytes, got {raw!r}"
            ) from None
    return DEFAULT_BITMAP_BUDGET_MB


def _resolve_chunk_size(chunk_size: int | None) -> int | None:
    """Effective ingestion chunk size: argument, else environment, else None."""
    if chunk_size is not None:
        chunk_size = int(chunk_size)
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        return chunk_size
    raw = env.COVERAGE_CHUNK_SIZE.raw()
    if raw is None or not raw.strip():
        return None
    try:
        from_env = int(raw)
    except ValueError:
        raise ValueError(
            f"{CHUNK_SIZE_ENV} must be a positive integer, got {raw!r}"
        ) from None
    if from_env <= 0:
        raise ValueError(f"{CHUNK_SIZE_ENV} must be a positive integer, got {raw!r}")
    return from_env


def _max_sample_gap(points: np.ndarray, point_counts: np.ndarray) -> float:
    """Largest distance between consecutive samples of any trajectory.

    One vectorized pass over the flat point store: consecutive-point
    distances are computed for the whole corpus at once and the diffs that
    straddle a trajectory boundary are masked out.
    """
    if len(points) < 2:
        return 0.0
    gaps = np.sqrt(np.sum(np.diff(points, axis=0) ** 2, axis=1))
    boundaries = np.cumsum(point_counts)[:-1] - 1
    within = np.ones(len(gaps), dtype=bool)
    within[boundaries] = False
    gaps = gaps[within]
    return float(gaps.max()) if gaps.size else 0.0


class _CorpusChunk:
    """Adapter giving any trajectory chunk the three members the join needs.

    Accepts a :class:`~repro.trajectory.model.TrajectoryDB` (or anything
    exposing ``all_points`` / ``point_counts`` / ``points_of``), or a plain
    ``(points, point_counts)`` pair.
    """

    __slots__ = ("points", "point_counts", "_offsets")

    def __init__(self, points: np.ndarray, point_counts: np.ndarray) -> None:
        self.points = np.asarray(points, dtype=np.float64)
        self.point_counts = np.asarray(point_counts, dtype=np.int64)
        self._offsets: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.point_counts)

    def points_of(self, local_id: int) -> np.ndarray:
        if self._offsets is None:
            self._offsets = np.concatenate([[0], np.cumsum(self.point_counts)])
        return self.points[self._offsets[local_id] : self._offsets[local_id + 1]]


def _as_corpus_chunk(chunk) -> _CorpusChunk:
    if isinstance(chunk, _CorpusChunk):
        return chunk
    if hasattr(chunk, "all_points") and hasattr(chunk, "point_counts"):
        return _CorpusChunk(chunk.all_points, chunk.point_counts)
    points, point_counts = chunk
    return _CorpusChunk(points, point_counts)


def _join_chunk(
    locations: np.ndarray,
    chunk: _CorpusChunk,
    num_billboards: int,
    lambda_m: float,
    exact_segments: bool,
) -> list[np.ndarray]:
    """Per-billboard sorted covered ids (chunk-local) for one chunk.

    This is the single radius-join step both the single-shot and the
    streaming builds run: identical distance predicates per (billboard,
    point) pair, so chunked builds are bit-identical to one-shot builds no
    matter where the chunk boundaries fall.
    """
    num_local = len(chunk)
    margin = (
        _max_sample_gap(chunk.points, chunk.point_counts) / 2.0
        if exact_segments
        else 0.0
    )
    grid = GridIndex(chunk.points, cell_size=lambda_m)
    point_owner = np.repeat(
        np.arange(num_local, dtype=np.int64), chunk.point_counts
    )
    billboard_ids, point_ids = grid.join_radius(locations, lambda_m + margin)
    # Deduplicate (billboard, trajectory) pairs in one pass: the sorted
    # unique composite keys split into per-billboard sorted id arrays.
    keys = np.unique(billboard_ids * num_local + point_owner[point_ids])
    owners = keys // num_local
    covered_ids = keys % num_local
    split_at = np.searchsorted(owners, np.arange(1, num_billboards))
    covered = [np.ascontiguousarray(ids) for ids in np.split(covered_ids, split_at)]
    if exact_segments:
        for billboard_id, candidates in enumerate(covered):
            if not len(candidates):
                continue
            location = locations[billboard_id]
            covered[billboard_id] = np.array(
                [
                    t
                    for t in candidates
                    if min_distance_to_polyline(location, chunk.points_of(int(t)))
                    <= lambda_m
                ],
                dtype=np.int64,
            )
    return covered


def _streamed_coverage(
    locations: np.ndarray,
    chunks: Iterable,
    num_billboards: int,
    lambda_m: float,
    exact_segments: bool,
) -> tuple[list[np.ndarray], int]:
    """Accumulate per-billboard covered ids over a chunk stream.

    Chunks carry consecutive trajectory-id ranges in order, so appending
    each chunk's (sorted, base-offset) ids keeps every billboard's array
    sorted without a final re-sort.  Returns the coverage lists and the
    total trajectory count.
    """
    parts: list[list[np.ndarray]] = [[] for _ in range(num_billboards)]
    base = 0
    for raw_chunk in chunks:
        chunk = _as_corpus_chunk(raw_chunk)
        if len(chunk) == 0:
            continue
        covered_local = _join_chunk(
            locations, chunk, num_billboards, lambda_m, exact_segments
        )
        for billboard_id, ids in enumerate(covered_local):
            if len(ids):
                parts[billboard_id].append(ids + base)
        base += len(chunk)
        obs.counter_add("coverage.chunks")
    covered = [
        np.concatenate(p) if p else np.empty(0, dtype=np.int64) for p in parts
    ]
    return covered, base


def _iter_db_chunks(
    trajectories: TrajectoryDB, chunk_size: int
) -> Iterator[_CorpusChunk]:
    """Slice an in-memory corpus into consecutive-id chunks (views, no copy)."""
    points = trajectories.all_points
    counts = trajectories.point_counts
    offsets = np.concatenate([[0], np.cumsum(counts)])
    for start in range(0, len(counts), chunk_size):
        stop = min(start + chunk_size, len(counts))
        yield _CorpusChunk(points[offsets[start] : offsets[stop]], counts[start:stop])


class CoverageIndex:
    """Precomputed billboard → covered-trajectory mapping for one ``λ``.

    Parameters
    ----------
    billboards, trajectories:
        The host's inventory and the audience corpus.
    lambda_m:
        Influence radius ``λ`` in metres (paper default 100 m).
    exact_segments:
        Upgrade the meet test from the paper's sampled ``p(o, t)`` to the
        trajectory polyline coming within ``λ``.
    bitmap_budget_mb:
        Memory budget for the packed-bitmap kernel; ``None`` reads
        ``REPRO_BITMAP_BUDGET_MB`` (default 512).  A non-positive budget
        disables the bitmap entirely.
    bitmap_storage:
        Storage mode for the packed bitmap (``auto`` / ``ram`` / ``memmap``
        / ``none``); ``None`` reads ``REPRO_BITMAP_STORAGE`` (default
        ``auto``).  See :mod:`repro.billboard.bitmap_store`.
    chunk_size:
        Stream the radius join in chunks of this many trajectories so peak
        build memory is O(chunk); ``None`` reads ``REPRO_COVERAGE_CHUNK_SIZE``
        (unset = single-shot).  Chunked builds are bit-identical to
        single-shot builds.

    Notes
    -----
    The index is immutable.  All id arrays are sorted ``int64``; the number of
    trajectories is exposed so allocation states can size their multiplicity
    counters.
    """

    def __init__(
        self,
        billboards: BillboardDB,
        trajectories: TrajectoryDB,
        lambda_m: float = 100.0,
        exact_segments: bool = False,
        bitmap_budget_mb: float | None = None,
        bitmap_storage: str | None = None,
        chunk_size: int | None = None,
    ) -> None:
        if lambda_m <= 0:
            raise ValueError(f"lambda_m must be positive, got {lambda_m}")
        self.lambda_m = float(lambda_m)
        self.num_billboards = len(billboards)
        self.num_trajectories = len(trajectories)
        self._init_caches(bitmap_budget_mb, bitmap_storage)

        # Billboard-centric radius join: index the trajectory points (all at
        # once, or chunk by chunk), then one batched cell-bucket join per
        # chunk for the whole inventory (no per-billboard Python loop — see
        # GridIndex.join_radius and _join_chunk).
        #
        # ``exact_segments`` upgrades the meet test from the paper's sampled
        # p(o, t) (some recorded point within λ) to the trajectory's actual
        # polyline coming within λ — the grid query is widened by half the
        # largest sample gap so no segment-only meet can be missed, then the
        # candidates are confirmed against the exact segment distance.
        chunk = _resolve_chunk_size(chunk_size)
        with obs.span(
            "coverage.build",
            billboards=self.num_billboards,
            trajectories=self.num_trajectories,
            lambda_m=self.lambda_m,
            exact_segments=exact_segments,
        ):
            if chunk is None:
                covered = _join_chunk(
                    billboards.locations,
                    _as_corpus_chunk(trajectories),
                    self.num_billboards,
                    self.lambda_m,
                    exact_segments,
                )
            else:
                covered, _ = _streamed_coverage(
                    billboards.locations,
                    _iter_db_chunks(trajectories, chunk),
                    self.num_billboards,
                    self.lambda_m,
                    exact_segments,
                )
            self._covered = covered
            self._individual = np.array([len(ids) for ids in covered], dtype=np.int64)
            obs.counter_add("coverage.builds")

    def _init_caches(
        self, bitmap_budget_mb: float | None, bitmap_storage: str | None = None
    ) -> None:
        self._bitmap_budget_mb = _resolve_bitmap_budget_mb(bitmap_budget_mb)
        self._bitmap_storage = bitmap_store.resolve_storage(bitmap_storage)
        self._store: BitmapStore | None = None
        self._bitmap_decided = False
        self._batch_prefers_bitmap: bool | None = None
        self._flat_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._individual_f64: np.ndarray | None = None
        # Reusable (rows, words) uint64 block for the restricted bitmap
        # passes, grown geometrically and never shrunk; one per index (the
        # kernels are single-threaded per index, attachers own their own).
        self._scratch: np.ndarray | None = None

    @classmethod
    def from_trajectory_chunks(
        cls,
        billboards: BillboardDB,
        chunks: Iterable,
        num_trajectories: int | None = None,
        lambda_m: float = 100.0,
        exact_segments: bool = False,
        bitmap_budget_mb: float | None = None,
        bitmap_storage: str | None = None,
    ) -> "CoverageIndex":
        """Build coverage from a *generator* of trajectory chunks.

        Each chunk may be a :class:`~repro.trajectory.model.TrajectoryDB`,
        anything exposing ``all_points`` / ``point_counts``, or a plain
        ``(points, point_counts)`` pair; chunks must carry consecutive
        trajectory-id ranges in corpus order.  The full corpus never needs to
        exist in memory — peak build memory is one chunk plus the coverage
        arrays themselves.  Bit-identical to the single-shot constructor.

        ``num_trajectories`` may be passed when the corpus size is known up
        front (e.g. to reserve id space past the streamed chunks); it
        defaults to the total chunk length.
        """
        index = cls.__new__(cls)
        index.lambda_m = float(lambda_m)
        if lambda_m <= 0:
            raise ValueError(f"lambda_m must be positive, got {lambda_m}")
        index.num_billboards = len(billboards)
        index._init_caches(bitmap_budget_mb, bitmap_storage)
        with obs.span(
            "coverage.build",
            billboards=index.num_billboards,
            lambda_m=index.lambda_m,
            exact_segments=exact_segments,
            streaming=True,
        ):
            covered, total = _streamed_coverage(
                billboards.locations,
                chunks,
                index.num_billboards,
                index.lambda_m,
                exact_segments,
            )
            if num_trajectories is None:
                num_trajectories = total
            elif int(num_trajectories) < total:
                raise ValueError(
                    f"chunks supplied {total} trajectories but num_trajectories="
                    f"{num_trajectories}"
                )
            index.num_trajectories = int(num_trajectories)
            index._covered = covered
            index._individual = np.array(
                [len(ids) for ids in covered], dtype=np.int64
            )
            obs.counter_add("coverage.builds")
        return index

    @classmethod
    def from_coverage_lists(
        cls,
        covered: Sequence[Sequence[int]],
        num_trajectories: int,
        lambda_m: float = 100.0,
        bitmap_budget_mb: float | None = None,
        bitmap_storage: str | None = None,
    ) -> "CoverageIndex":
        """Build an index directly from coverage lists (no geometry).

        This constructor powers the hardness reduction (Section 4), the worked
        example of Section 1, and tests, where coverage sets are specified
        explicitly rather than derived from locations.
        """
        index = cls.__new__(cls)
        index.lambda_m = float(lambda_m)
        index.num_billboards = len(covered)
        index.num_trajectories = int(num_trajectories)
        index._init_caches(bitmap_budget_mb, bitmap_storage)
        arrays = []
        for billboard_id, ids in enumerate(covered):
            array = np.unique(np.asarray(list(ids), dtype=np.int64))
            if len(array) and (array[0] < 0 or array[-1] >= num_trajectories):
                raise ValueError(
                    f"billboard {billboard_id} covers trajectory ids outside "
                    f"[0, {num_trajectories})"
                )
            arrays.append(array)
        index._covered = arrays
        index._individual = np.array([len(a) for a in arrays], dtype=np.int64)
        return index

    @classmethod
    def from_flat_arrays(
        cls,
        flat_ids: np.ndarray,
        offsets: np.ndarray,
        num_trajectories: int,
        lambda_m: float = 100.0,
        bitmap_budget_mb: float | None = None,
        bitmap_storage: str | None = None,
    ) -> "CoverageIndex":
        """Rebuild an index from its CSR serialization (see :meth:`to_arrays`).

        The arrays are trusted (sorted, deduplicated, in range) — this is the
        fast path the on-disk coverage cache uses.
        """
        flat_ids = np.ascontiguousarray(flat_ids, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        index = cls.__new__(cls)
        index.lambda_m = float(lambda_m)
        index.num_billboards = len(offsets) - 1
        index.num_trajectories = int(num_trajectories)
        index._init_caches(bitmap_budget_mb, bitmap_storage)
        index._covered = list(np.split(flat_ids, offsets[1:-1]))
        index._individual = np.diff(offsets)
        index._flat_cache = (flat_ids, offsets)
        return index

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(flat_ids, offsets)`` CSR serialization of the coverage."""
        return self._flat_coverage()

    def to_shared(self) -> "SharedCoverage":
        """Export the CSR arrays (and packed bitmap, if any) into shared memory.

        Returns a :class:`~repro.parallel.shared.SharedCoverage` handle owning
        the segments; worker processes rebuild a read-only view of this index
        with :meth:`attach_shared` instead of unpickling a copy.  The bitmap
        decision is forced here so every attacher inherits the creator's
        kernel dispatch verbatim.
        """
        from repro.parallel.shared import SharedCoverage

        return SharedCoverage.create(self)

    @classmethod
    def attach_shared(cls, spec: "SharedCoverageSpec") -> "CoverageIndex":
        """Attach a read-only index to segments exported by :meth:`to_shared`.

        The CSR arrays (and bitmap) are numpy views over the shared segments —
        no copy is made.  The bitmap decision is pinned to the creator's: an
        attached index never builds its own bitmap, so creator and attachers
        dispatch to identical kernels.
        """
        from repro.parallel.shared import attach_array

        flat, flat_shm = attach_array(spec.flat)
        offsets, offsets_shm = attach_array(spec.offsets)
        index = cls.from_flat_arrays(
            flat,
            offsets,
            spec.num_trajectories,
            lambda_m=spec.lambda_m,
            bitmap_budget_mb=spec.bitmap_budget_mb,
        )
        handles = [flat_shm, offsets_shm]
        index._bitmap_decided = True
        if spec.bitmap is not None:
            bm = spec.bitmap
            if bm.tier == "memmap":
                index._store = BitmapStore.memmap_attach(
                    bm.paths, bm.rows_per_shard, bm.num_rows, bm.words
                )
            else:
                shards = []
                for shard_spec in bm.shards:
                    shard, shard_shm = attach_array(shard_spec)
                    shards.append(shard)
                    handles.append(shard_shm)
                index._store = BitmapStore.from_shards(
                    shards, bm.rows_per_shard, bm.num_rows, bm.words, "shm"
                )
        # Keep the SharedMemory objects alive as long as the index: the numpy
        # views borrow their buffers.
        index._shm_handles = handles
        obs.counter_add("shm.attach")
        return index

    def covered_by(self, billboard_id: int) -> np.ndarray:
        """Sorted trajectory ids covered by one billboard (no copy)."""
        return self._covered[billboard_id]

    def _flat_coverage(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR layout of all coverage arrays, built lazily.

        Returns ``(flat_ids, offsets)`` where billboard ``b``'s covered ids
        are ``flat_ids[offsets[b]:offsets[b + 1]]``.  Powers the batch gain
        computation the greedy solvers use to price every candidate billboard
        in one vectorized pass.
        """
        cached = self._flat_cache
        if cached is None:
            counts = np.array([len(a) for a in self._covered], dtype=np.int64)
            offsets = np.concatenate([[0], np.cumsum(counts)])
            if offsets[-1]:
                flat = np.concatenate(self._covered)
            else:
                flat = np.empty(0, dtype=np.int64)
            cached = (flat, offsets)
            self._flat_cache = cached
        return cached

    # ------------------------------------------------------------ bitmap kernel

    @property
    def bitmap_words(self) -> int:
        """Words per bitmap row: ``ceil(num_trajectories / 64)``."""
        return bitset.num_words(self.num_trajectories)

    def bitmap_bytes(self) -> int:
        """Memory the packed bitmap needs (whether or not it is built)."""
        return self.num_billboards * self.bitmap_words * 8

    @property
    def has_bitmap(self) -> bool:
        """Whether the packed-bitmap kernel is available (builds it lazily)."""
        return self._ensure_bitmap() is not None

    @property
    def bitmap_tier(self) -> str | None:
        """Storage tier of the bitmap (``ram``/``shm``/``memmap``), or None.

        Forces the (lazy, once-per-index) bitmap decision.
        """
        store = self._ensure_bitmap()
        return store.tier if store is not None else None

    def _ensure_bitmap(self) -> BitmapStore | None:
        """The bitmap store, deciding tier and building it on first call.

        The decision is made exactly once per index:

        * ``none`` storage or a non-positive budget disables the bitmap
          silently (a deliberate configuration, not a surprise);
        * ``ram`` / ``auto`` within budget build the in-RAM store;
        * past the budget, ``auto`` spills to memmap shards when a spill
          directory is configured and ``memmap`` always does (under a private
          temp dir when none is configured); the spill warns once, naming the
          tier and the budget that triggered it;
        * ``auto`` past the budget with nowhere to spill — and ``ram`` past
          the budget — skip the bitmap with a warn-once naming the id-array
          fallback, exactly as before this tier existed.
        """
        if not self._bitmap_decided:
            self._bitmap_decided = True
            storage = self._bitmap_storage
            budget_bytes = self._bitmap_budget_mb * 1024 * 1024
            needed = self.bitmap_bytes()
            if storage == "none" or self._bitmap_budget_mb <= 0:
                pass  # deliberate disable: silent
            elif needed <= budget_bytes and storage != "memmap":
                self._store = self._build_store("ram", None)
            elif storage == "memmap" or (
                storage == "auto"
                and (spill_dir := bitmap_store.resolve_spill_dir()) is not None
            ):
                if storage == "memmap":
                    spill_dir = bitmap_store.resolve_spill_dir()
                if storage == "auto":
                    # Spilling past the budget is a behavior change worth one
                    # warning per index; an explicit memmap request is not.
                    obs.get_logger("repro.billboard.influence").warning(
                        "bitmap spilled to memmap tier: %.1f MB needed > "
                        "%s=%.1f MB budget (%d billboards x %d words); "
                        "shards under %s",
                        needed / (1024 * 1024),
                        BITMAP_BUDGET_ENV,
                        self._bitmap_budget_mb,
                        self.num_billboards,
                        self.bitmap_words,
                        spill_dir,
                    )
                self._store = self._build_store("memmap", spill_dir)
                obs.counter_add("influence.bitmap.spilled")
            else:
                # The decision is made exactly once per index, so this warning
                # fires exactly once per index that exceeds the budget.
                obs.get_logger("repro.billboard.influence").warning(
                    "bitmap kernel skipped: %.1f MB needed > %s=%.1f MB budget "
                    "(%d billboards x %d words); falling back to the id-array "
                    "tier (set %s or %s to spill to memmap shards instead)",
                    needed / (1024 * 1024),
                    BITMAP_BUDGET_ENV,
                    self._bitmap_budget_mb,
                    self.num_billboards,
                    self.bitmap_words,
                    bitmap_store.SPILL_DIR_ENV,
                    bitmap_store.STORAGE_ENV + "=memmap",
                )
                obs.counter_add("influence.bitmap.skipped")
        return self._store

    def _build_store(self, tier: str, spill_dir) -> BitmapStore:
        """Build the packed bitmap into the chosen storage tier."""
        with obs.span(
            "coverage.bitmap_build", bytes=self.bitmap_bytes(), tier=tier
        ):
            if tier == "ram":
                bitmap = np.zeros(
                    (self.num_billboards, self.bitmap_words),
                    dtype=bitset.WORD_DTYPE,
                )
                store = BitmapStore.ram(bitmap)
            else:
                store = BitmapStore.memmap_create(
                    self.num_billboards, self.bitmap_words, spill_dir
                )
            for start, block in self._packed_row_blocks():
                store.set_rows(start, block)
            store.seal()
        obs.counter_add("influence.bitmap.builds")
        obs.gauge_set("influence.bitmap.bytes", self.bitmap_bytes())
        obs.gauge_set(f"bitmap.shards.{store.tier}", store.num_shards)
        return store

    def _packed_row_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """``(row_start, packed_rows)`` blocks with bounded staging memory.

        Dense boolean rows are staged in chunks of at most ``_PACK_CHUNK_BYTES``
        and packed chunk by chunk, so packing memory stays bounded regardless
        of corpus size.
        """
        if self.num_trajectories == 0 or self.num_billboards == 0:
            return
        flat, offsets = self._flat_coverage()
        rows_per_chunk = max(1, _PACK_CHUNK_BYTES // max(self.num_trajectories, 1))
        for start in range(0, self.num_billboards, rows_per_chunk):
            stop = min(start + rows_per_chunk, self.num_billboards)
            counts = np.diff(offsets[start : stop + 1])
            dense = np.zeros((stop - start, self.num_trajectories), dtype=bool)
            row_ids = np.repeat(np.arange(stop - start), counts)
            dense[row_ids, flat[offsets[start] : offsets[stop]]] = True
            yield start, bitset.pack_bits(dense)

    def bits_of(self, billboard_id: int) -> np.ndarray | None:
        """Packed coverage row of one billboard, or ``None`` without bitmap."""
        store = self._ensure_bitmap()
        if store is None:
            return None
        return store.row(billboard_id)

    @property
    def batch_prefers_bitmap(self) -> bool:
        """Whether the bitmap beats the id arrays for whole-matrix passes.

        The bitmap pass popcounts ``num_billboards × bitmap_words`` words no
        matter how sparse the coverage is; the id-array pass touches one entry
        per covered id.  On sparse coverage (few covered trajectories per
        billboard) the id arrays are strictly less work, so the batch passes
        only take the bitmap when the flat id count exceeds the word count.
        Callers maintaining packed counter masks use this to skip packing
        masks the batch passes would never read.
        """
        if self._batch_prefers_bitmap is None:
            flat, _ = self._flat_coverage()
            self._batch_prefers_bitmap = (
                len(flat) > self.num_billboards * self.bitmap_words
            )
        return self._batch_prefers_bitmap

    def bitmap_profitable_for(self, *billboard_ids: int) -> bool:
        """Whether the bitmap wins a per-row (single/swap) delta query.

        The bitmap side costs a handful of full-row word ops (ANDs +
        popcounts); the id side gathers one entry per covered id of the rows
        involved.  ``4×`` words approximates the bitmap's constant factor.
        """
        ids = sum(int(self._individual[b]) for b in billboard_ids)
        return ids > 4 * self.bitmap_words

    # ------------------------------------------------------------ batch passes

    def _dispatch_bitmap(self) -> None:
        """Count one bitmap dispatch plus its storage tier and kernel."""
        obs.counter_add("influence.dispatch.bitmap")
        store = self._store
        obs.counter_add(f"influence.tier.{store.tier if store else 'ram'}")
        obs.counter_add("influence.kernel.numpy")

    @staticmethod
    def _dispatch_idarray() -> None:
        """Count one id-array dispatch (the tier that is always available)."""
        obs.counter_add("influence.dispatch.idarray")
        obs.counter_add("influence.tier.idarray")

    def _scratch_rows(self, rows: int, words: int) -> np.ndarray:
        """A ``(rows, words)`` view of the reusable restricted-pass block."""
        block = self._scratch
        if block is None or block.shape[0] < rows or block.shape[1] != words:
            capacity = max(rows, 16)
            if block is not None and block.shape[1] == words:
                capacity = max(capacity, 2 * block.shape[0])
            block = np.empty((capacity, words), dtype=bitset.WORD_DTYPE)
            self._scratch = block
        return block[:rows]

    def _masked_row_popcounts(
        self, candidate_ids: np.ndarray, mask_words: np.ndarray
    ) -> np.ndarray:
        """``popcount(bitmap[c] & mask)`` per candidate row, via the scratch
        block — no ``(num_billboards, words)`` temporary is ever built."""
        scratch = self._scratch_rows(len(candidate_ids), self.bitmap_words)
        self._store.gather(candidate_ids, scratch)
        return bitmap_store.block_masked_popcounts(scratch, mask_words)

    def _gather_restricted(
        self, candidate_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The candidates' covered ids concatenated, plus their boundaries.

        Returns ``(gathered, bounds)`` where candidate ``i``'s covered ids
        are ``gathered[bounds[i]:bounds[i + 1]]`` — the id-array kernel's
        restricted gather, touching only the candidates' CSR slices.
        """
        flat, offsets = self._flat_coverage()
        lengths = self._individual[candidate_ids]
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        total = int(bounds[-1])
        if total == 0:
            return np.empty(0, dtype=np.int64), bounds
        positions = (
            np.repeat(offsets[candidate_ids] - bounds[:-1], lengths)
            + np.arange(total)
        )
        return flat[positions], bounds

    @staticmethod
    def _segment_counts(mask: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Per-segment true-counts of ``mask`` split at ``bounds``."""
        cumulative = np.concatenate([[0], np.cumsum(mask.astype(np.int64))])
        return cumulative[bounds[1:]] - cumulative[bounds[:-1]]

    @staticmethod
    def _as_candidates(candidate_ids) -> np.ndarray:
        return np.ascontiguousarray(np.asarray(candidate_ids, dtype=np.int64))

    def batch_add_gains(
        self,
        counts_row: np.ndarray,
        free_bits: np.ndarray | None = None,
        candidate_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Marginal influence of adding *each* billboard to a set.

        Given an advertiser's multiplicity counter row, returns the vector
        ``g`` with ``g[b] = |{t ∈ cov(b) : counts_row[t] == 0}|`` for every
        billboard ``b``.  With the bitmap kernel this is one masked popcount
        over the whole matrix; ``free_bits`` (the packed ``counts_row == 0``
        mask) can be supplied by callers that maintain it incrementally.

        With ``candidate_ids`` only those rows are computed and the result is
        aligned to the candidate order (``g[i]`` belongs to
        ``candidate_ids[i]``) — bit-identical to slicing the full pass.
        """
        if self.batch_prefers_bitmap:
            store = self._ensure_bitmap()
            if store is not None:
                if free_bits is None:
                    free_bits = bitset.pack_bits(counts_row == 0)
                self._dispatch_bitmap()
                if candidate_ids is not None:
                    candidate_ids = self._as_candidates(candidate_ids)
                    obs.histogram_observe(
                        "influence.popcount.rows", len(candidate_ids)
                    )
                    return self._masked_row_popcounts(candidate_ids, free_bits)
                obs.histogram_observe("influence.popcount.rows", self.num_billboards)
                return store.masked_popcounts(free_bits)
        self._dispatch_idarray()
        if candidate_ids is not None:
            candidate_ids = self._as_candidates(candidate_ids)
            obs.histogram_observe("influence.popcount.rows", len(candidate_ids))
            gathered, bounds = self._gather_restricted(candidate_ids)
            return self._segment_counts(counts_row[gathered] == 0, bounds)
        flat, offsets = self._flat_coverage()
        if len(flat) == 0:
            return np.zeros(self.num_billboards, dtype=np.int64)
        return self._segment_counts(counts_row[flat] == 0, offsets)

    def batch_add_gains_without(
        self,
        counts_row: np.ndarray,
        removed_billboard: int,
        free_bits: np.ndarray | None = None,
        ones_bits: np.ndarray | None = None,
        candidate_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`batch_add_gains` as if ``removed_billboard`` had already been
        removed from the set behind ``counts_row`` — without mutating the row.

        A trajectory is free after the removal when its count is 0, or when it
        is 1 and covered by the removed billboard.  This is the BLS exchange
        scan's kernel: it prices ``S − o_m + o_n`` for every candidate ``o_n``
        while the allocation itself stays untouched.  ``free_bits`` /
        ``ones_bits`` are the packed ``counts_row == 0`` / ``== 1`` masks.
        ``candidate_ids`` restricts the pass to those rows (result aligned to
        the candidate order), bit-identical to slicing the full pass.
        """
        if self.batch_prefers_bitmap:
            store = self._ensure_bitmap()
            if store is not None:
                if free_bits is None:
                    free_bits = bitset.pack_bits(counts_row == 0)
                if ones_bits is None:
                    ones_bits = bitset.pack_bits(counts_row == 1)
                released_free = free_bits | (ones_bits & store.row(removed_billboard))
                self._dispatch_bitmap()
                if candidate_ids is not None:
                    candidate_ids = self._as_candidates(candidate_ids)
                    obs.histogram_observe(
                        "influence.popcount.rows", len(candidate_ids)
                    )
                    return self._masked_row_popcounts(candidate_ids, released_free)
                obs.histogram_observe("influence.popcount.rows", self.num_billboards)
                return store.masked_popcounts(released_free)
        self._dispatch_idarray()
        removed = np.zeros(self.num_trajectories, dtype=counts_row.dtype)
        removed[self._covered[removed_billboard]] = 1
        if candidate_ids is not None:
            candidate_ids = self._as_candidates(candidate_ids)
            obs.histogram_observe("influence.popcount.rows", len(candidate_ids))
            gathered, bounds = self._gather_restricted(candidate_ids)
            return self._segment_counts(
                (counts_row[gathered] - removed[gathered]) == 0, bounds
            )
        flat, offsets = self._flat_coverage()
        if len(flat) == 0:
            return np.zeros(self.num_billboards, dtype=np.int64)
        return self._segment_counts((counts_row[flat] - removed[flat]) == 0, offsets)

    def batch_remove_losses(
        self,
        counts_row: np.ndarray,
        ones_bits: np.ndarray | None = None,
        candidate_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Influence lost by removing *each* billboard from a set.

        ``l[b] = |{t ∈ cov(b) : counts_row[t] == 1}|``; only meaningful for
        billboards actually in the set, but computed for all.  ``ones_bits``
        is the packed ``counts_row == 1`` mask (optional, bitmap path only).
        ``candidate_ids`` restricts the pass to those rows (result aligned to
        the candidate order), bit-identical to slicing the full pass.
        """
        if self.batch_prefers_bitmap:
            store = self._ensure_bitmap()
            if store is not None:
                if ones_bits is None:
                    ones_bits = bitset.pack_bits(counts_row == 1)
                self._dispatch_bitmap()
                if candidate_ids is not None:
                    candidate_ids = self._as_candidates(candidate_ids)
                    obs.histogram_observe(
                        "influence.popcount.rows", len(candidate_ids)
                    )
                    return self._masked_row_popcounts(candidate_ids, ones_bits)
                obs.histogram_observe("influence.popcount.rows", self.num_billboards)
                return store.masked_popcounts(ones_bits)
        self._dispatch_idarray()
        if candidate_ids is not None:
            candidate_ids = self._as_candidates(candidate_ids)
            obs.histogram_observe("influence.popcount.rows", len(candidate_ids))
            gathered, bounds = self._gather_restricted(candidate_ids)
            return self._segment_counts(counts_row[gathered] == 1, bounds)
        flat, offsets = self._flat_coverage()
        if len(flat) == 0:
            return np.zeros(self.num_billboards, dtype=np.int64)
        return self._segment_counts(counts_row[flat] == 1, offsets)

    def batch_swap_deltas(
        self,
        removed_billboard: int,
        candidate_ids: np.ndarray,
        counts_row: np.ndarray,
        free_bits: np.ndarray | None = None,
        ones_bits: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`swap_delta` for one removed billboard against *many* added
        candidates in one vectorized pass.

        ``d[i]`` equals ``swap_delta(removed_billboard, candidate_ids[i],
        counts_row)`` bit-for-bit; the loss term is shared across candidates
        and each gain term is a restricted masked popcount (bitmap kernel) or
        a restricted CSR gather (id-array kernel).
        """
        candidate_ids = self._as_candidates(candidate_ids)
        if len(candidate_ids) == 0:
            return np.empty(0, dtype=np.int64)
        ids_cost = int(
            self._individual[candidate_ids].sum()
            + self._individual[removed_billboard]
        )
        store = (
            self._ensure_bitmap()
            if ids_cost > (len(candidate_ids) + 2) * self.bitmap_words
            else None
        )
        if store is not None:
            self._dispatch_bitmap()
            obs.histogram_observe(
                "influence.popcount.rows", 2 * len(candidate_ids)
            )
            row_removed = np.asarray(store.row(removed_billboard))
            if free_bits is None:
                free_bits = bitset.pack_bits(counts_row == 0)
            if ones_bits is None:
                ones_bits = bitset.pack_bits(counts_row == 1)
            loss = bitmap_store.masked_total(row_removed, ones_bits)
            freed_mask = free_bits & ~row_removed
            recovered_mask = row_removed & ones_bits
            gains = self._masked_row_popcounts(candidate_ids, freed_mask)
            gains += self._masked_row_popcounts(candidate_ids, recovered_mask)
            return gains - loss
        self._dispatch_idarray()
        obs.histogram_observe("influence.popcount.rows", len(candidate_ids))
        cov_removed = self._covered[removed_billboard]
        loss = int(np.count_nonzero(counts_row[cov_removed] == 1))
        gathered, bounds = self._gather_restricted(candidate_ids)
        if len(cov_removed):
            positions = np.searchsorted(cov_removed, gathered)
            positions[positions == len(cov_removed)] = len(cov_removed) - 1
            in_removed = (cov_removed[positions] == gathered).astype(counts_row.dtype)
        else:
            in_removed = np.zeros(len(gathered), dtype=counts_row.dtype)
        gains = self._segment_counts(
            (counts_row[gathered] - in_removed) == 0, bounds
        )
        return gains - loss

    def swap_delta(
        self,
        removed_billboard: int,
        added_billboard: int,
        counts_row: np.ndarray,
        free_bits: np.ndarray | None = None,
        ones_bits: np.ndarray | None = None,
    ) -> int:
        """Exact influence change of one advertiser that loses
        ``removed_billboard`` and gains ``added_billboard`` in the same move.

        With ``c`` the advertiser's counters, ``cov_r``/``cov_a`` the two
        coverage sets::

            loss = |{t ∈ cov_r : c[t] == 1}|
            gain = |{t ∈ cov_a : c[t] − [t ∈ cov_r] == 0}|

        A trajectory covered only by the removed billboard but re-covered by
        the added one contributes to both terms and cancels, which is correct.
        On the bitmap kernel both terms are masked popcounts; ``free_bits`` /
        ``ones_bits`` are the packed ``c == 0`` / ``c == 1`` masks (packed on
        demand when omitted).
        """
        store = (
            self._ensure_bitmap()
            if self.bitmap_profitable_for(removed_billboard, added_billboard)
            else None
        )
        if store is not None:
            self._dispatch_bitmap()
            obs.histogram_observe("influence.popcount.rows", 2)
            row_removed = np.asarray(store.row(removed_billboard))
            row_added = np.asarray(store.row(added_billboard))
            if free_bits is None:
                free_bits = bitset.pack_bits(counts_row == 0)
            if ones_bits is None:
                ones_bits = bitset.pack_bits(counts_row == 1)
            loss = bitmap_store.masked_total(row_removed, ones_bits)
            gain = bitmap_store.masked_total(
                row_added & ~row_removed, free_bits
            ) + bitmap_store.masked_total(row_added & row_removed, ones_bits)
            return gain - loss
        self._dispatch_idarray()
        cov_removed = self._covered[removed_billboard]
        cov_added = self._covered[added_billboard]
        loss = int(np.count_nonzero(counts_row[cov_removed] == 1))
        if len(cov_removed):
            positions = np.searchsorted(cov_removed, cov_added)
            positions[positions == len(cov_removed)] = len(cov_removed) - 1
            in_removed = (cov_removed[positions] == cov_added).astype(counts_row.dtype)
        else:
            in_removed = np.zeros(len(cov_added), dtype=counts_row.dtype)
        gain = int(np.count_nonzero(counts_row[cov_added] - in_removed == 0))
        return gain - loss

    # -------------------------------------------------------------- influence

    @property
    def individual_influences(self) -> np.ndarray:
        """``I({o})`` for every billboard, as an ``int64`` vector."""
        return self._individual

    @property
    def individual_influences_f64(self) -> np.ndarray:
        """:attr:`individual_influences` as a cached read-only ``float64`` vector.

        The per-billboard influences never change after construction, so hot
        callers (the exchange screen and partner selection run once per owned
        billboard per sweep) share one conversion instead of allocating a
        fresh ``astype`` copy per call.
        """
        if self._individual_f64 is None:
            converted = self._individual.astype(np.float64)
            converted.setflags(write=False)
            self._individual_f64 = converted
        return self._individual_f64

    def influence_of(self, billboard_id: int) -> int:
        """``I({o})`` of a single billboard."""
        return int(self._individual[billboard_id])

    def influence_of_set(self, billboard_ids: Iterable[int]) -> int:
        """``I(S)``: number of distinct trajectories covered by the set.

        Uses the packed-bitmap kernel (bitwise-OR + popcount) when it fits the
        memory budget, the id-array kernel otherwise — both bit-identical.
        """
        store = self._ensure_bitmap()
        if store is None:
            return self.influence_of_set_ids(billboard_ids)
        ids = np.fromiter((int(b) for b in billboard_ids), dtype=np.int64)
        self._dispatch_bitmap()
        obs.histogram_observe("influence.popcount.rows", len(ids))
        if len(ids) == 0:
            return 0
        return store.union_popcount(ids)

    def influence_of_set_ids(self, billboard_ids: Iterable[int]) -> int:
        """``I(S)`` via the sorted-id-array kernel (always available)."""
        self._dispatch_idarray()
        arrays = [self._covered[int(b)] for b in billboard_ids]
        arrays = [a for a in arrays if len(a)]
        if not arrays:
            return 0
        return int(len(np.unique(np.concatenate(arrays))))

    @property
    def supply(self) -> int:
        """The host's supply ``I* = Σ_o I({o})`` (paper Section 7.1.3).

        Note this intentionally double-counts overlapping coverage: it is the
        sum of *individual* influences, matching the paper's definition.
        """
        return int(self._individual.sum())

    def total_reachable(self) -> int:
        """Number of trajectories covered by the entire inventory.

        This is the impression-count ceiling of Figure 1b (selecting 100 % of
        billboards), and upper-bounds any single advertiser's achievable
        influence.
        """
        return self.influence_of_set(range(self.num_billboards))

    def influence_distribution(self) -> np.ndarray:
        """Per-billboard influences in descending order, normalized by the max.

        This is exactly the series plotted in Figure 1a.
        """
        influences = np.sort(self._individual)[::-1].astype(np.float64)
        peak = influences[0] if len(influences) and influences[0] > 0 else 1.0
        return influences / peak

    def impression_curve(self, fractions: Sequence[float]) -> np.ndarray:
        """Figure 1b's impression-count curve.

        For each fraction ``f``, select the top ``f·|U|`` billboards by
        individual influence and report the fraction of all trajectories their
        union covers.
        """
        order = np.argsort(self._individual)[::-1]
        results = []
        for fraction in fractions:
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"fractions must be in [0, 1], got {fraction}")
            k = int(round(fraction * self.num_billboards))
            covered = self.influence_of_set(order[:k]) if k else 0
            results.append(covered / self.num_trajectories)
        return np.array(results)


def build_coverage(
    billboards: BillboardDB,
    trajectories,
    lambda_m: float = 100.0,
    *,
    exact_segments: bool = False,
    bitmap_budget_mb: float | None = None,
    bitmap_storage: str | None = None,
    chunk_size: int | None = None,
    num_trajectories: int | None = None,
) -> CoverageIndex:
    """Build a :class:`CoverageIndex`, streaming the join when asked.

    ``trajectories`` is either an in-memory corpus (a
    :class:`~repro.trajectory.model.TrajectoryDB`), which ``chunk_size``
    optionally streams through the join in bounded pieces, or an *iterable of
    chunks* (see :meth:`CoverageIndex.from_trajectory_chunks`), in which case
    the corpus never has to exist in memory at once and ``chunk_size`` is
    ignored — the iterable's own chunking is used.  All paths are
    bit-identical.
    """
    if hasattr(trajectories, "all_points"):
        return CoverageIndex(
            billboards,
            trajectories,
            lambda_m=lambda_m,
            exact_segments=exact_segments,
            bitmap_budget_mb=bitmap_budget_mb,
            bitmap_storage=bitmap_storage,
            chunk_size=chunk_size,
        )
    return CoverageIndex.from_trajectory_chunks(
        billboards,
        trajectories,
        num_trajectories=num_trajectories,
        lambda_m=lambda_m,
        exact_segments=exact_segments,
        bitmap_budget_mb=bitmap_budget_mb,
        bitmap_storage=bitmap_storage,
    )
