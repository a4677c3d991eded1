"""The coverage influence model (paper Section 7.1.2).

A Bernoulli meet indicator ``p(o, t) = 1`` iff some point of trajectory ``t``
lies within ``λ`` metres of billboard ``o``.  The influence of a billboard set
``S`` on ``t`` is ``1 − Π_{o∈S}(1 − p(o, t))`` — i.e. 1 iff *any* member meets
``t`` — and the influence of ``S`` is the sum over all trajectories:

    I(S) = |{t : some o ∈ S meets t}|

so influence is a set-coverage count.  :class:`CoverageIndex` materializes the
per-billboard covered-trajectory id arrays once (the streaming radius join of
:mod:`repro.billboard.coverage_build`, emitting one CSR per build) and
answers all influence queries from them.

One kernel answers the queries: the CSR id arrays.  Union influence
``I(S)`` scatters the members' covered ids into a fresh boolean mark over
the trajectory universe and counts the marks.  The batch gain/loss and
swap-delta passes gather each billboard's ids and test the advertiser's
multiplicity counter row at them, touching one entry per covered id.

Every batch pass covers the whole CSR; a caller that wants some rows slices
the result.

Every kernel call counts ``influence.dispatch.idarray``; the union also
observes its member count in the ``influence.popcount.rows`` histogram.

The index also carries the transposed CSR (trajectory → covering billboards,
:mod:`repro.billboard.coverage_transpose`).  BLS and the greedies price from
the allocation's maintained gain/loss vectors (:mod:`repro.core.allocation`)
instead of the batch passes, which stay as the reference the vectors are
tested against.  Every move updates the vectors with one
:meth:`CoverageIndex.covering_counts`, and an exact BLS scan corrects them
with :meth:`CoverageIndex.covering_counts` / :meth:`CoverageIndex.covering_pairs`;
each such gather counts ``influence.dispatch.transposed``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.billboard import coverage_build
from repro.billboard.coverage_transpose import transpose_csr
from repro.billboard.model import BillboardDB
from repro.trajectory.model import TrajectoryChunk, TrajectoryDB


class CoverageIndex:
    """Precomputed billboard → covered-trajectory mapping for one ``λ``.

    Parameters
    ----------
    billboards, trajectories:
        The host's inventory and the audience corpus; the corpus streams
        through the join in views of
        :data:`~repro.billboard.coverage_build.CHUNK_TRAJECTORIES`
        trajectories.
    lambda_m:
        Influence radius ``λ`` in metres (paper default 100 m).
    exact_segments:
        Upgrade the meet test from the paper's sampled ``p(o, t)`` to the
        trajectory polyline coming within ``λ``.

    Notes
    -----
    The index is immutable.  All id arrays are sorted ``int64`` (the
    transposed lists hold ``int32`` billboard ids); the number of
    trajectories is exposed so allocation states can size their multiplicity
    counters.
    """

    def __init__(
        self,
        billboards: BillboardDB,
        trajectories: TrajectoryDB,
        lambda_m: float = 100.0,
        exact_segments: bool = False,
    ) -> None:
        flat, offsets, num_trajectories, transposed = coverage_build.build_csr(
            billboards.locations,
            coverage_build.corpus_views(trajectories, coverage_build.CHUNK_TRAJECTORIES),
            lambda_m,
            exact_segments,
            len(trajectories),
        )
        self._adopt_csr(flat, offsets, num_trajectories, lambda_m, transposed)

    @classmethod
    def from_trajectory_chunks(
        cls,
        billboards: BillboardDB,
        chunks: Iterable[TrajectoryChunk],
        num_trajectories: int | None = None,
        lambda_m: float = 100.0,
        exact_segments: bool = False,
    ) -> "CoverageIndex":
        """Build coverage from a *generator* of trajectory chunks.

        Chunks must carry consecutive trajectory-id ranges in corpus order.
        The full corpus never needs to exist in memory — peak build memory
        is one chunk plus the coverage arrays themselves.

        ``num_trajectories`` may be passed when the corpus size is known up
        front (e.g. to reserve id space past the streamed chunks); it
        defaults to the total chunk length.
        """
        flat, offsets, num_trajectories, transposed = coverage_build.build_csr(
            billboards.locations, chunks, lambda_m, exact_segments, num_trajectories
        )
        return cls.from_flat_arrays(flat, offsets, num_trajectories, lambda_m, transposed)

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
        arrays = []
        for billboard_id, ids in enumerate(covered):
            array = np.unique(np.asarray(list(ids), dtype=np.int64))
            if len(array) and (array[0] < 0 or array[-1] >= num_trajectories):
                raise ValueError(
                    f"billboard {billboard_id} covers trajectory ids outside "
                    f"[0, {num_trajectories})"
                )
            arrays.append(array)
        return cls.from_flat_arrays(
            np.concatenate([np.empty(0, dtype=np.int64), *arrays]),
            np.concatenate([[0], np.cumsum([len(a) for a in arrays], dtype=np.int64)]),
            num_trajectories,
            lambda_m,
        )

    @classmethod
    def from_flat_arrays(
        cls,
        flat_ids: np.ndarray,
        offsets: np.ndarray,
        num_trajectories: int,
        lambda_m: float = 100.0,
        transposed: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "CoverageIndex":
        """Rebuild an index from its CSR serialization (see :meth:`to_arrays`).

        The arrays are trusted (sorted, deduplicated, in range) — this is the
        fast path the on-disk coverage cache uses.  ``transposed`` (see
        :meth:`to_transposed_arrays`) is adopted as given; without it the
        CSR is transposed here.
        """
        index = cls.__new__(cls)
        index._adopt_csr(
            np.ascontiguousarray(flat_ids, dtype=np.int64),
            np.ascontiguousarray(offsets, dtype=np.int64),
            num_trajectories,
            lambda_m,
            transposed,
        )
        return index

    def _adopt_csr(
        self,
        flat_ids: np.ndarray,
        offsets: np.ndarray,
        num_trajectories: int,
        lambda_m: float,
        transposed: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Serve coverage from CSR arrays: per-billboard views, no copies.

        Every constructor ends here."""
        self.lambda_m = float(lambda_m)
        self.num_billboards = len(offsets) - 1
        self.num_trajectories = int(num_trajectories)
        bounds = offsets.tolist()
        self._covered = [flat_ids[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        self._individual = np.diff(offsets)
        self._flat_cache = (flat_ids, offsets)
        self._individual_f64: np.ndarray | None = None
        if transposed is None:
            transposed = transpose_csr(flat_ids, offsets, self.num_trajectories)
        self._transposed = transposed
        self._degrees = np.diff(transposed[1])

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(flat_ids, offsets)`` CSR serialization of the coverage: billboard
        ``b``'s covered ids are ``flat_ids[offsets[b]:offsets[b + 1]]``."""
        return self._flat_cache

    def to_transposed_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(billboard_ids, trajectory_offsets)``: trajectory ``t``'s covering
        billboards, ascending, are ``billboard_ids[trajectory_offsets[t]:
        trajectory_offsets[t + 1]]``."""
        return self._transposed

    def to_shared(self) -> "SharedCoverage":
        """Export the CSR arrays and the transposed lists into shared memory.

        Returns a :class:`~repro.parallel.shared.SharedCoverage` handle owning
        the segments; worker processes rebuild a read-only view of this index
        with :meth:`attach_shared` instead of unpickling a copy.
        """
        from repro.parallel.shared import SharedCoverage

        return SharedCoverage.create(self)

    @classmethod
    def attach_shared(cls, spec: "SharedCoverageSpec") -> "CoverageIndex":
        """Attach a read-only index to segments exported by :meth:`to_shared`.

        The CSR arrays and the transposed lists are numpy views over the
        shared segments — no copy is made and nothing is re-sorted.
        """
        from repro.parallel.shared import attach_array

        flat, flat_shm = attach_array(spec.flat)
        offsets, offsets_shm = attach_array(spec.offsets)
        covering, covering_shm = attach_array(spec.covering)
        covering_offsets, covering_offsets_shm = attach_array(spec.covering_offsets)
        index = cls.from_flat_arrays(
            flat,
            offsets,
            spec.num_trajectories,
            lambda_m=spec.lambda_m,
            transposed=(covering, covering_offsets),
        )
        # Keep the SharedMemory objects alive as long as the index: the numpy
        # views borrow their buffers.
        index._shm_handles = [flat_shm, offsets_shm, covering_shm, covering_offsets_shm]
        obs.counter_add("shm.attach")
        return index

    def covered_by(self, billboard_id: int) -> np.ndarray:
        """Sorted trajectory ids covered by one billboard (no copy)."""
        return self._covered[billboard_id]

    # ------------------------------------------------------ transposed passes

    def _gather_covering(self, trajectory_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The covering billboards of every trajectory in ``trajectory_ids``,
        concatenated in that order, plus each trajectory's list length."""
        obs.counter_add("influence.dispatch.transposed")
        billboard_ids, offsets = self._transposed
        starts = offsets[trajectory_ids]
        lengths = self._degrees[trajectory_ids]
        ends = np.cumsum(lengths)
        if len(ends) == 0 or ends[-1] == 0:
            return billboard_ids[:0], lengths
        positions = np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])
        return billboard_ids[positions], lengths

    def covering_counts(
        self,
        trajectory_ids: np.ndarray,
        labels: np.ndarray | None = None,
        num_labels: int = 1,
    ) -> np.ndarray:
        """``n[b] = |cov(b) ∩ trajectory_ids|`` for every billboard, in one
        gather of the transposed lists and one ``bincount``.

        With ``labels`` (one integer in ``[0, num_labels)`` per trajectory)
        the counts are split by label: a ``(num_billboards, num_labels)``
        array.  ``trajectory_ids`` must not repeat.
        """
        billboard_ids, lengths = self._gather_covering(trajectory_ids)
        if labels is None:
            return np.bincount(billboard_ids, minlength=self.num_billboards)
        keys = billboard_ids * num_labels + np.repeat(labels, lengths)
        return np.bincount(
            keys, minlength=self.num_billboards * num_labels
        ).reshape(self.num_billboards, num_labels)

    def covering_pairs(self, trajectory_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every covered ``(billboard, trajectory)`` pair whose trajectory is
        in ``trajectory_ids``, as two aligned arrays."""
        billboard_ids, lengths = self._gather_covering(trajectory_ids)
        return billboard_ids, np.repeat(trajectory_ids, lengths)

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
        """Count one kernel call, plus the rows of a union."""
        obs.counter_add("influence.dispatch.idarray")
        if rows is not None:
            obs.histogram_observe("influence.popcount.rows", rows)

    @staticmethod
    def _segment_counts(mask: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Per-segment true-counts of ``mask`` split at ``bounds``."""
        cumulative = np.concatenate([[0], np.cumsum(mask.astype(np.int64))])
        return cumulative[bounds[1:]] - cumulative[bounds[:-1]]

    def batch_add_gains(self, counts_row: np.ndarray) -> np.ndarray:
        """Marginal influence of adding *each* billboard to a set.

        Given an advertiser's multiplicity counter row, returns the vector
        ``g`` with ``g[b] = |{t ∈ cov(b) : counts_row[t] == 0}|`` for every
        billboard ``b``.
        """
        self._count_call()
        ids, bounds = self._flat_cache
        return self._segment_counts(counts_row[ids] == 0, bounds)

    def batch_add_gains_without(
        self, counts_row: np.ndarray, removed_billboard: int
    ) -> np.ndarray:
        """:meth:`batch_add_gains` as if ``removed_billboard`` had already been
        removed from the set behind ``counts_row`` — without mutating the row.

        A trajectory is free after the removal when its count is 0, or when it
        is 1 and covered by the removed billboard.  This prices
        ``S − o_m + o_n`` for every candidate ``o_n`` while the allocation
        itself stays untouched (the reference for
        :meth:`~repro.core.allocation.Allocation.gains_without`).
        """
        self._count_call()
        removed = np.zeros(self.num_trajectories, dtype=counts_row.dtype)
        removed[self._covered[removed_billboard]] = 1
        ids, bounds = self._flat_cache
        return self._segment_counts((counts_row[ids] - removed[ids]) == 0, bounds)

    def batch_remove_losses(self, counts_row: np.ndarray) -> np.ndarray:
        """Influence lost by removing *each* billboard from a set.

        ``l[b] = |{t ∈ cov(b) : counts_row[t] == 1}|``; only meaningful for
        billboards actually in the set, but computed for all.
        """
        self._count_call()
        ids, bounds = self._flat_cache
        return self._segment_counts(counts_row[ids] == 1, bounds)

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
        candidates: the full :meth:`batch_add_gains_without` pass sliced at
        ``candidate_ids``, minus the shared loss of the removed billboard.

        ``d[i]`` equals ``swap_delta(removed_billboard, candidate_ids[i],
        counts_row)`` bit-for-bit.
        """
        loss = np.count_nonzero(counts_row[self._covered[removed_billboard]] == 1)
        gains = self.batch_add_gains_without(counts_row, removed_billboard)
        return gains[np.asarray(candidate_ids, dtype=np.int64)] - loss

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

