"""The coverage build: a streaming radius join emitting one CSR per build.

Paper-scale corpora (10⁶⁺ trajectories) never have to exist in memory at
once: every build — an in-memory corpus or a chunk generator — streams
bounded chunks (:class:`~repro.trajectory.model.TrajectoryChunk`) through
one billboard cell table (:func:`build_csr`).  An in-memory corpus is sliced
into consecutive views of :data:`CHUNK_TRAJECTORIES` trajectories
(:func:`corpus_views`); because the distance predicate is evaluated per
(billboard, point) pair, where the chunk boundaries fall never changes a
coverage decision.

Each build also transposes its CSR (:mod:`repro.billboard.coverage_transpose`)
inside the same timed span.  The queries over the result live in
:mod:`repro.billboard.influence`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro import obs
from repro.billboard.coverage_transpose import transpose_csr
from repro.spatial.geometry import min_distance_to_polyline
from repro.spatial.grid import CellTable
from repro.trajectory.model import TrajectoryChunk

#: Trajectories per view when an in-memory corpus streams through the join
#: (the size ``repro.datasets.stream`` synthesizes chunks at, too).
CHUNK_TRAJECTORIES = 100_000


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


def _join_chunk(
    table: CellTable, chunk: TrajectoryChunk, lambda_m: float, exact_segments: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Covered ``(billboard, chunk-local trajectory)`` pairs of one chunk.

    Two arrays, deduplicated and sorted by billboard, then trajectory.  This
    is the single radius-join step every build runs against its billboard
    ``table``: identical distance predicates per (billboard, point) pair,
    so chunked builds are bit-identical to one-shot builds no matter where
    the chunk boundaries fall.

    ``exact_segments`` upgrades the meet test from the paper's sampled
    ``p(o, t)`` (some recorded point within λ) to the trajectory's polyline
    coming within λ: the join radius is widened by half the chunk's largest
    sample gap so no segment-only meet can be missed, then the candidates
    are confirmed against the exact segment distance.
    """
    num_local = len(chunk)
    owners = np.repeat(np.arange(num_local, dtype=np.int64), chunk.point_counts)
    radius = lambda_m
    if exact_segments:
        radius += _max_sample_gap(chunk.all_points, owners) / 2.0
    point_ids, billboard_ids = table.join(chunk.all_points, radius)
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
    chunks: Iterable[TrajectoryChunk],
    lambda_m: float,
    exact_segments: bool,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Stream a chunk sequence through the join into one CSR coverage.

    Returns ``(flat_ids, offsets, num_trajectories)`` (see
    :meth:`~repro.billboard.influence.CoverageIndex.to_arrays`).  Chunks
    carry consecutive trajectory-id ranges in order and each chunk's pairs
    come sorted by billboard, so one stable sort by billboard over all
    chunks' pairs (a merge of sorted runs) leaves every billboard's ids
    ascending: the CSR is assembled once per build.
    """
    table = CellTable(locations, lambda_m)
    billboard_parts = [np.empty(0, dtype=np.int64)]
    id_parts = [np.empty(0, dtype=np.int64)]
    base = 0
    for chunk in chunks:
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


def corpus_views(corpus, size: int) -> Iterator[TrajectoryChunk]:
    """Consecutive chunks of ``size`` trajectories of an in-memory corpus (a
    :class:`~repro.trajectory.model.TrajectoryDB` or one chunk), as views.
    """
    points = corpus.all_points
    counts = corpus.point_counts
    offsets = np.concatenate([[0], np.cumsum(counts)])
    for start in range(0, len(counts), size):
        stop = min(start + size, len(counts))
        yield TrajectoryChunk(points[offsets[start] : offsets[stop]], counts[start:stop])


def build_csr(
    locations: np.ndarray,
    chunks: Iterable[TrajectoryChunk],
    lambda_m: float,
    exact_segments: bool,
    num_trajectories: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int, tuple[np.ndarray, np.ndarray]]:
    """``(flat_ids, offsets, num_trajectories, transposed)`` of one timed
    build, ``transposed`` being :func:`~repro.billboard.coverage_transpose.
    transpose_csr` of the CSR.

    ``num_trajectories`` may reserve id space past the streamed chunks; it
    defaults to the total chunk length and may not understate it.
    """
    if lambda_m <= 0:
        raise ValueError(f"lambda_m must be positive, got {lambda_m}")
    with obs.span(
        "coverage.build",
        billboards=len(locations),
        trajectories=num_trajectories,
        lambda_m=float(lambda_m),
        exact_segments=exact_segments,
    ):
        flat, offsets, total = _join_chunks(
            locations, chunks, float(lambda_m), exact_segments
        )
        if num_trajectories is None:
            num_trajectories = total
        elif int(num_trajectories) < total:
            raise ValueError(
                f"chunks supplied {total} trajectories but num_trajectories="
                f"{num_trajectories}"
            )
        transposed = transpose_csr(flat, offsets, num_trajectories)
        obs.counter_add("coverage.builds")
    return flat, offsets, int(num_trajectories), transposed
