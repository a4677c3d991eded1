"""The coverage influence model (paper Section 7.1.2).

A Bernoulli meet indicator ``p(o, t) = 1`` iff some point of trajectory ``t``
lies within ``λ`` metres of billboard ``o``.  The influence of a billboard set
``S`` on ``t`` is ``1 − Π_{o∈S}(1 − p(o, t))`` — i.e. 1 iff *any* member meets
``t`` — and the influence of ``S`` is the sum over all trajectories:

    I(S) = |{t : some o ∈ S meets t}|

so influence is a set-coverage count.  :class:`CoverageIndex` materializes the
per-billboard covered-trajectory id arrays once (a radius join that streams
the trajectory points through a billboard cell table, emitting one CSR per
build) and answers all influence queries from them.

One kernel answers the queries: the CSR id arrays.  Union influence
``I(S)`` scatters the members' covered ids into a fresh boolean mark over
the trajectory universe and counts the marks.  The batch gain/loss and
swap-delta passes gather each billboard's ids and test the advertiser's
multiplicity counter row at them, touching one entry per covered id.

Every batch pass accepts an optional ``candidate_ids`` row restriction: the
dirty-set sweep engines and the greedy marginal scans usually need gains for
a handful of candidate billboards, not the whole inventory, and the
restricted passes gather *only those rows'* CSR slices.  Restricted results
are bit-identical to slicing the full pass:
``batch_add_gains(row, candidate_ids=c) == batch_add_gains(row)[c]``.

Paper-scale corpora (10⁶⁺ trajectories) stream the ingestion:
``chunk_size=`` (or ``REPRO_COVERAGE_CHUNK_SIZE``) feeds the radius join
bounded chunks of trajectories, and :meth:`CoverageIndex.from_trajectory_chunks`
builds coverage from a chunk *generator* so the full corpus never has to
exist in memory at once; both are bit-identical to the single-shot build.

Every kernel call counts ``influence.dispatch.idarray``; the row-restricted
passes and the union also observe their row count in the
``influence.popcount.rows`` histogram.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import env, obs
from repro.billboard.model import BillboardDB
from repro.spatial.geometry import min_distance_to_polyline
from repro.spatial.grid import CellTable
from repro.trajectory.model import TrajectoryDB

#: Environment variable holding the default ingestion chunk size (in
#: trajectories) for coverage builds; unset = single-shot build.
CHUNK_SIZE_ENV = env.COVERAGE_CHUNK_SIZE.name

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


def _max_sample_gap(points: np.ndarray, owners: np.ndarray) -> float:
    """Largest distance between consecutive samples of any trajectory.

    One vectorized pass over the flat point store: consecutive-point
    distances are computed for the whole corpus at once and kept only where
    both points have the same owning trajectory (``owners``, one per point),
    so empty trajectories anywhere in the corpus cannot shift the mask.
    """
    if len(points) < 2:
        return 0.0
    gaps = np.sqrt(np.sum(np.diff(points, axis=0) ** 2, axis=1))
    gaps = gaps[owners[1:] == owners[:-1]]
    return float(gaps.max()) if gaps.size else 0.0


class _CorpusChunk:
    """Adapter giving any trajectory chunk the members the join needs.

    Accepts a :class:`~repro.trajectory.model.TrajectoryDB` (or anything
    exposing ``all_points`` / ``point_counts`` / ``points_of``), or a plain
    ``(points, point_counts)`` pair.
    """

    __slots__ = ("points", "point_counts", "_offsets")

    def __init__(self, points: np.ndarray, point_counts: np.ndarray) -> None:
        self.points = np.asarray(points, dtype=np.float64)
        self.point_counts = np.asarray(point_counts, dtype=np.int64)
        counts = self.point_counts
        if (counts < 0).any() or counts.sum() != len(self.points):
            raise ValueError(f"point_counts must be >= 0 and sum to {len(self.points)}")
        self._offsets: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.point_counts)

    def owners(self) -> np.ndarray:
        """Chunk-local trajectory id of every point."""
        return np.repeat(np.arange(len(self), dtype=np.int64), self.point_counts)

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
    table: CellTable, chunk: _CorpusChunk, lambda_m: float, exact_segments: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Covered ``(billboard, chunk-local trajectory)`` pairs of one chunk.

    Two arrays, deduplicated and sorted by billboard, then trajectory.  This
    is the single radius-join step every build runs against its billboard
    ``table``: identical distance predicates per (billboard, point) pair,
    so chunked builds are bit-identical to one-shot builds no matter where
    the chunk boundaries fall.
    """
    owners = chunk.owners()
    radius = lambda_m
    if exact_segments:
        radius += _max_sample_gap(chunk.points, owners) / 2.0
    point_ids, billboard_ids = table.join(chunk.points, radius)
    num_local = len(chunk)
    keys = np.sort(billboard_ids * num_local + owners[point_ids])
    keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are non-negative
    billboard_ids, local_ids = np.divmod(keys, num_local)
    if exact_segments:
        keep = np.fromiter(
            (
                min_distance_to_polyline(table.sites[b], chunk.points_of(t)) <= lambda_m
                for b, t in zip(billboard_ids.tolist(), local_ids.tolist())
            ),
            dtype=bool,
            count=len(keys),
        )
        billboard_ids, local_ids = billboard_ids[keep], local_ids[keep]
    return billboard_ids, local_ids


def _join_chunks(
    locations: np.ndarray,
    chunks: Iterable,
    lambda_m: float,
    exact_segments: bool,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Stream a chunk sequence through the join into one CSR coverage.

    Returns ``(flat_ids, offsets, num_trajectories)`` (see
    :meth:`CoverageIndex.to_arrays`).  Chunks carry consecutive
    trajectory-id ranges in order and each chunk's pairs come sorted by
    billboard, so one stable sort by billboard over all chunks' pairs (a
    merge of sorted runs) leaves every billboard's ids ascending: the CSR is
    assembled once per build.
    """
    table = CellTable(locations, lambda_m)
    billboard_parts = [np.empty(0, dtype=np.int64)]
    id_parts = [np.empty(0, dtype=np.int64)]
    base = 0
    for raw_chunk in chunks:
        chunk = _as_corpus_chunk(raw_chunk)
        if len(chunk) == 0:
            continue
        billboard_ids, local_ids = _join_chunk(table, chunk, lambda_m, exact_segments)
        billboard_parts.append(billboard_ids)
        id_parts.append(local_ids + base)
        base += len(chunk)
        obs.counter_add("coverage.chunks")
    billboard_ids = np.concatenate(billboard_parts)
    flat = np.concatenate(id_parts)[np.argsort(billboard_ids, kind="stable")]
    offsets = np.zeros(len(locations) + 1, dtype=np.int64)
    np.cumsum(np.bincount(billboard_ids, minlength=len(locations)), out=offsets[1:])
    return flat, offsets, base


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
        chunk_size: int | None = None,
    ) -> None:
        if lambda_m <= 0:
            raise ValueError(f"lambda_m must be positive, got {lambda_m}")
        self.lambda_m = float(lambda_m)
        self.num_billboards = len(billboards)
        self.num_trajectories = len(trajectories)

        # Point-streaming radius join: the billboards go into a cell table
        # once per build, then every trajectory point (all at once, or chunk
        # by chunk) is priced against it in fixed-size blocks — see
        # CellTable.join and _join_chunks.
        #
        # ``exact_segments`` upgrades the meet test from the paper's sampled
        # p(o, t) (some recorded point within λ) to the trajectory's actual
        # polyline coming within λ — the join radius is widened by half the
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
            flat, offsets, _ = _join_chunks(
                billboards.locations,
                [_as_corpus_chunk(trajectories)]
                if chunk is None
                else _iter_db_chunks(trajectories, chunk),
                self.lambda_m,
                exact_segments,
            )
            self._adopt_csr(flat, offsets)
            obs.counter_add("coverage.builds")

    @classmethod
    def from_trajectory_chunks(
        cls,
        billboards: BillboardDB,
        chunks: Iterable,
        num_trajectories: int | None = None,
        lambda_m: float = 100.0,
        exact_segments: bool = False,
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
        with obs.span(
            "coverage.build",
            billboards=index.num_billboards,
            lambda_m=index.lambda_m,
            exact_segments=exact_segments,
            streaming=True,
        ):
            flat, offsets, total = _join_chunks(
                billboards.locations, chunks, index.lambda_m, exact_segments
            )
            if num_trajectories is None:
                num_trajectories = total
            elif int(num_trajectories) < total:
                raise ValueError(
                    f"chunks supplied {total} trajectories but num_trajectories="
                    f"{num_trajectories}"
                )
            index.num_trajectories = int(num_trajectories)
            index._adopt_csr(flat, offsets)
            obs.counter_add("coverage.builds")
        return index

    @classmethod
    def from_coverage_lists(
        cls,
        covered: Sequence[Sequence[int]],
        num_trajectories: int,
        lambda_m: float = 100.0,
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
        arrays = []
        for billboard_id, ids in enumerate(covered):
            array = np.unique(np.asarray(list(ids), dtype=np.int64))
            if len(array) and (array[0] < 0 or array[-1] >= num_trajectories):
                raise ValueError(
                    f"billboard {billboard_id} covers trajectory ids outside "
                    f"[0, {num_trajectories})"
                )
            arrays.append(array)
        index._adopt_csr(
            np.concatenate([np.empty(0, dtype=np.int64), *arrays]),
            np.concatenate([[0], np.cumsum([len(a) for a in arrays], dtype=np.int64)]),
        )
        return index

    @classmethod
    def from_flat_arrays(
        cls,
        flat_ids: np.ndarray,
        offsets: np.ndarray,
        num_trajectories: int,
        lambda_m: float = 100.0,
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
        index._adopt_csr(flat_ids, offsets)
        return index

    def _adopt_csr(self, flat_ids: np.ndarray, offsets: np.ndarray) -> None:
        """Serve coverage from CSR arrays: per-billboard views, no copies."""
        bounds = offsets.tolist()
        self._covered = [flat_ids[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        self._individual = np.diff(offsets)
        self._flat_cache = (flat_ids, offsets)
        self._individual_f64: np.ndarray | None = None

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(flat_ids, offsets)`` CSR serialization of the coverage."""
        return self._flat_coverage()

    def to_shared(self) -> "SharedCoverage":
        """Export the CSR arrays into shared memory.

        Returns a :class:`~repro.parallel.shared.SharedCoverage` handle owning
        the segments; worker processes rebuild a read-only view of this index
        with :meth:`attach_shared` instead of unpickling a copy.
        """
        from repro.parallel.shared import SharedCoverage

        return SharedCoverage.create(self)

    @classmethod
    def attach_shared(cls, spec: "SharedCoverageSpec") -> "CoverageIndex":
        """Attach a read-only index to segments exported by :meth:`to_shared`.

        The CSR arrays are numpy views over the shared segments — no copy is
        made.
        """
        from repro.parallel.shared import attach_array

        flat, flat_shm = attach_array(spec.flat)
        offsets, offsets_shm = attach_array(spec.offsets)
        index = cls.from_flat_arrays(
            flat, offsets, spec.num_trajectories, lambda_m=spec.lambda_m
        )
        # Keep the SharedMemory objects alive as long as the index: the numpy
        # views borrow their buffers.
        index._shm_handles = [flat_shm, offsets_shm]
        obs.counter_add("shm.attach")
        return index

    def covered_by(self, billboard_id: int) -> np.ndarray:
        """Sorted trajectory ids covered by one billboard (no copy)."""
        return self._covered[billboard_id]

    def _flat_coverage(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR layout of all coverage arrays, set by every constructor.

        Returns ``(flat_ids, offsets)`` where billboard ``b``'s covered ids
        are ``flat_ids[offsets[b]:offsets[b + 1]]``.  Powers the batch gain
        computation the greedy solvers use to price every candidate billboard
        in one vectorized pass.
        """
        return self._flat_cache

    @property
    def bitmap_words(self) -> int:
        """``ceil(num_trajectories / 64)``, the 64-bit words one packed row of
        the trajectory universe would take.

        Kept only because the end-to-end benchmark (``perfbench/``) reads it
        to convert kernel rows into ``influence.kernel_bytes``.
        """
        return (self.num_trajectories + 63) // 64

    # ------------------------------------------------------------ batch passes

    @staticmethod
    def _count_call(rows: int | None = None) -> None:
        """Count one kernel call, plus the rows of a row-restricted pass."""
        obs.counter_add("influence.dispatch.idarray")
        if rows is not None:
            obs.histogram_observe("influence.popcount.rows", rows)

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
        self, counts_row: np.ndarray, candidate_ids: np.ndarray | None = None
    ) -> np.ndarray:
        """Marginal influence of adding *each* billboard to a set.

        Given an advertiser's multiplicity counter row, returns the vector
        ``g`` with ``g[b] = |{t ∈ cov(b) : counts_row[t] == 0}|`` for every
        billboard ``b``.

        With ``candidate_ids`` only those rows are computed and the result is
        aligned to the candidate order (``g[i]`` belongs to
        ``candidate_ids[i]``) — bit-identical to slicing the full pass.
        """
        if candidate_ids is not None:
            candidate_ids = self._as_candidates(candidate_ids)
            self._count_call(len(candidate_ids))
            gathered, bounds = self._gather_restricted(candidate_ids)
            return self._segment_counts(counts_row[gathered] == 0, bounds)
        self._count_call()
        flat, offsets = self._flat_coverage()
        if len(flat) == 0:
            return np.zeros(self.num_billboards, dtype=np.int64)
        return self._segment_counts(counts_row[flat] == 0, offsets)

    def batch_add_gains_without(
        self,
        counts_row: np.ndarray,
        removed_billboard: int,
        candidate_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`batch_add_gains` as if ``removed_billboard`` had already been
        removed from the set behind ``counts_row`` — without mutating the row.

        A trajectory is free after the removal when its count is 0, or when it
        is 1 and covered by the removed billboard.  This is the BLS exchange
        scan's kernel: it prices ``S − o_m + o_n`` for every candidate ``o_n``
        while the allocation itself stays untouched.  ``candidate_ids``
        restricts the pass to those rows (result aligned to the candidate
        order), bit-identical to slicing the full pass.
        """
        removed = np.zeros(self.num_trajectories, dtype=counts_row.dtype)
        removed[self._covered[removed_billboard]] = 1
        if candidate_ids is not None:
            candidate_ids = self._as_candidates(candidate_ids)
            self._count_call(len(candidate_ids))
            gathered, bounds = self._gather_restricted(candidate_ids)
            return self._segment_counts(
                (counts_row[gathered] - removed[gathered]) == 0, bounds
            )
        self._count_call()
        flat, offsets = self._flat_coverage()
        if len(flat) == 0:
            return np.zeros(self.num_billboards, dtype=np.int64)
        return self._segment_counts((counts_row[flat] - removed[flat]) == 0, offsets)

    def batch_remove_losses(
        self, counts_row: np.ndarray, candidate_ids: np.ndarray | None = None
    ) -> np.ndarray:
        """Influence lost by removing *each* billboard from a set.

        ``l[b] = |{t ∈ cov(b) : counts_row[t] == 1}|``; only meaningful for
        billboards actually in the set, but computed for all.
        ``candidate_ids`` restricts the pass to those rows (result aligned to
        the candidate order), bit-identical to slicing the full pass.
        """
        if candidate_ids is not None:
            candidate_ids = self._as_candidates(candidate_ids)
            self._count_call(len(candidate_ids))
            gathered, bounds = self._gather_restricted(candidate_ids)
            return self._segment_counts(counts_row[gathered] == 1, bounds)
        self._count_call()
        flat, offsets = self._flat_coverage()
        if len(flat) == 0:
            return np.zeros(self.num_billboards, dtype=np.int64)
        return self._segment_counts(counts_row[flat] == 1, offsets)

    @staticmethod
    def _in_removed(cov_removed: np.ndarray, ids: np.ndarray, dtype) -> np.ndarray:
        """``[t ∈ cov_removed]`` for every ``t`` in ``ids``, as ``dtype``."""
        if len(cov_removed) == 0:
            return np.zeros(len(ids), dtype=dtype)
        positions = np.searchsorted(cov_removed, ids)
        positions[positions == len(cov_removed)] = len(cov_removed) - 1
        return (cov_removed[positions] == ids).astype(dtype)

    def batch_swap_deltas(
        self, removed_billboard: int, candidate_ids: np.ndarray, counts_row: np.ndarray
    ) -> np.ndarray:
        """:meth:`swap_delta` for one removed billboard against *many* added
        candidates in one vectorized pass.

        ``d[i]`` equals ``swap_delta(removed_billboard, candidate_ids[i],
        counts_row)`` bit-for-bit; the loss term is shared across candidates
        and each gain term is a restricted CSR gather.
        """
        candidate_ids = self._as_candidates(candidate_ids)
        if len(candidate_ids) == 0:
            return np.empty(0, dtype=np.int64)
        self._count_call(len(candidate_ids))
        cov_removed = self._covered[removed_billboard]
        loss = int(np.count_nonzero(counts_row[cov_removed] == 1))
        gathered, bounds = self._gather_restricted(candidate_ids)
        in_removed = self._in_removed(cov_removed, gathered, counts_row.dtype)
        gains = self._segment_counts((counts_row[gathered] - in_removed) == 0, bounds)
        return gains - loss

    def swap_delta(
        self, removed_billboard: int, added_billboard: int, counts_row: np.ndarray
    ) -> int:
        """Exact influence change of one advertiser that loses
        ``removed_billboard`` and gains ``added_billboard`` in the same move.

        With ``c`` the advertiser's counters, ``cov_r``/``cov_a`` the two
        coverage sets::

            loss = |{t ∈ cov_r : c[t] == 1}|
            gain = |{t ∈ cov_a : c[t] − [t ∈ cov_r] == 0}|

        A trajectory covered only by the removed billboard but re-covered by
        the added one contributes to both terms and cancels, which is correct.
        """
        self._count_call()
        cov_removed = self._covered[removed_billboard]
        cov_added = self._covered[added_billboard]
        loss = int(np.count_nonzero(counts_row[cov_removed] == 1))
        in_removed = self._in_removed(cov_removed, cov_added, counts_row.dtype)
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

        One scatter of the members' covered ids into a fresh boolean mark over
        the trajectory universe, then a count of the marks.  Duplicate or
        unordered ids are harmless.
        """
        covered = [self._covered[int(b)] for b in billboard_ids]
        self._count_call(len(covered))
        if not covered:
            return 0
        marked = np.zeros(self.num_trajectories, dtype=bool)
        marked[np.concatenate(covered)] = True
        return int(np.count_nonzero(marked))

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
            chunk_size=chunk_size,
        )
    return CoverageIndex.from_trajectory_chunks(
        billboards,
        trajectories,
        num_trajectories=num_trajectories,
        lambda_m=lambda_m,
        exact_segments=exact_segments,
    )
