"""Chunked, vectorized synthetic-NYC trajectory stream for paper-scale runs.

:func:`~repro.datasets.nyc.generate_nyc` builds each trajectory with a
per-trip Python loop (fine at bench scale, hopeless at the paper's 1.7 M
trips).  :class:`NycStream` produces the same *structure* — hotspot-mixture
origins, Laplace-offset destinations, L-shaped Manhattan routes sampled
every ~60 m — but synthesizes whole chunks of trips at once with
repeat/cumsum arclength parameterization: no Python loop over trips, and the
corpus never exists in memory beyond one chunk.

Determinism: chunk ``k`` draws from ``default_rng((seed, 2 + k))``, so the
stream is reproducible, restartable mid-corpus, and independent of how many
chunks a consumer actually reads.  The billboard inventory and hotspot
layout derive from the same ``seed``, so every corpus size of one seed
shares one fixed inventory — exactly what a scale sweep needs.

Chunks plug straight into
:meth:`~repro.billboard.influence.CoverageIndex.from_trajectory_chunks` /
:func:`~repro.billboard.influence.build_coverage`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.billboard.model import BillboardDB
from repro.datasets.nyc import (
    _CITY_SIZE_M,
    _HOTSPOT_BILLBOARD_FRACTION,
    _SAMPLE_SPACING_M,
    _TRIP_OFFSET_SCALE_M,
    _hotspots,
)
from repro.datasets.synthetic import sample_mixture
from repro.spatial.bbox import BoundingBox

DEFAULT_CHUNK_SIZE = 100_000


class TrajectoryChunk:
    """One bounded slice of a streamed corpus (what the coverage join needs).

    Exposes the ``all_points`` / ``point_counts`` / ``points_of`` trio the
    radius join consumes, nothing more — no per-trip objects, no travel
    times.
    """

    __slots__ = ("all_points", "point_counts", "_offsets")

    def __init__(self, all_points: np.ndarray, point_counts: np.ndarray) -> None:
        self.all_points = np.asarray(all_points, dtype=np.float64)
        self.point_counts = np.asarray(point_counts, dtype=np.int64)
        self._offsets: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.point_counts)

    def points_of(self, local_id: int) -> np.ndarray:
        if self._offsets is None:
            self._offsets = np.concatenate([[0], np.cumsum(self.point_counts)])
        return self.all_points[self._offsets[local_id] : self._offsets[local_id + 1]]


def concat_chunks(chunks) -> TrajectoryChunk:
    """Merge chunks into one (for single-shot vs chunked comparisons)."""
    chunks = list(chunks)
    return TrajectoryChunk(
        np.concatenate([c.all_points for c in chunks])
        if chunks
        else np.empty((0, 2)),
        np.concatenate([c.point_counts for c in chunks])
        if chunks
        else np.empty(0, dtype=np.int64),
    )


@dataclass
class NycStream:
    """A fixed billboard inventory plus an N-trajectory chunked trip stream."""

    billboards: BillboardDB
    num_trajectories: int
    chunk_size: int
    seed: int
    _centers: np.ndarray = field(repr=False, default=None)
    _weights: np.ndarray = field(repr=False, default=None)
    _sigmas: np.ndarray = field(repr=False, default=None)
    _bbox: BoundingBox = field(repr=False, default=None)

    def chunks(self) -> Iterator[TrajectoryChunk]:
        """Yield the corpus as consecutive-id chunks (restartable, lazy)."""
        for index, start in enumerate(
            range(0, self.num_trajectories, self.chunk_size)
        ):
            count = min(self.chunk_size, self.num_trajectories - start)
            yield self._synthesize(index, count)

    def num_chunks(self) -> int:
        return -(-self.num_trajectories // self.chunk_size)

    def _synthesize(self, chunk_index: int, count: int) -> TrajectoryChunk:
        rng = np.random.default_rng((self.seed, 2 + chunk_index))
        origins = sample_mixture(
            rng, self._centers, self._weights, self._sigmas, count, self._bbox
        )
        offsets = rng.laplace(0.0, _TRIP_OFFSET_SCALE_M, size=(count, 2))
        destinations = origins + offsets
        destinations[:, 0] = np.clip(
            destinations[:, 0], self._bbox.min_x, self._bbox.max_x
        )
        destinations[:, 1] = np.clip(
            destinations[:, 1], self._bbox.min_y, self._bbox.max_y
        )
        # L-shaped route per trip: x-first or y-first corner, two axis-aligned
        # legs.
        x_first = rng.random(count) < 0.5
        corners = np.where(
            x_first[:, None],
            np.column_stack([destinations[:, 0], origins[:, 1]]),
            np.column_stack([origins[:, 0], destinations[:, 1]]),
        )
        along, counts = _route_points(origins, corners, destinations)
        return TrajectoryChunk(along, counts)


def _route_points(
    origins: np.ndarray, corners: np.ndarray, destinations: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Points every <= ``_SAMPLE_SPACING_M`` along each origin → corner →
    destination route, endpoints included, plus the per-route point counts.

    One arclength parameterization over the whole chunk, no per-trip loop.
    Each point is evaluated on its own leg only: the leg-1 and leg-2
    expressions each run over the points that lie on that leg.
    """
    leg1 = np.abs(corners - origins).sum(axis=1)
    leg2 = np.abs(destinations - corners).sum(axis=1)
    total = leg1 + leg2
    counts = np.maximum(2, np.ceil(total / _SAMPLE_SPACING_M).astype(np.int64) + 1)
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
    position = np.arange(len(owner)) - starts[owner]
    distance = position / (counts[owner] - 1) * total[owner]
    # Unit directions per leg (safe 1.0 denominator on zero-length legs —
    # those legs are never stepped into because distance <= 0 there).
    u1 = (corners - origins) / np.maximum(leg1, 1e-12)[:, None]
    u2 = (destinations - corners) / np.maximum(leg2, 1e-12)[:, None]
    on_leg2 = distance > leg1[owner]
    first = np.flatnonzero(~on_leg2)
    second = np.flatnonzero(on_leg2)
    along = np.empty((len(owner), 2))
    trip = owner[first]
    along[first] = origins[trip] + u1[trip] * distance[first][:, None]
    trip = owner[second]
    along[second] = corners[trip] + u2[trip] * (distance[second] - leg1[trip])[:, None]
    return along, counts


def nyc_stream(
    n_billboards: int,
    n_trajectories: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    seed: int = 0,
) -> NycStream:
    """A streamed synthetic-NYC corpus with its (seed-fixed) inventory.

    The hotspot layout comes from ``default_rng((seed, 0))`` and the
    billboards from ``default_rng((seed, 1))``: corpora of every size under
    one seed share the same city, so scale sweeps vary exactly one thing.
    """
    if n_billboards <= 0 or n_trajectories <= 0:
        raise ValueError("corpus sizes must be positive")
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    bbox = BoundingBox(0.0, 0.0, _CITY_SIZE_M, _CITY_SIZE_M)
    centers, weights, sigmas = _hotspots(np.random.default_rng((seed, 0)), bbox)

    rng = np.random.default_rng((seed, 1))
    n_hot = int(round(_HOTSPOT_BILLBOARD_FRACTION * n_billboards))
    hot = sample_mixture(rng, centers, weights, sigmas, n_hot, bbox)
    uniform = np.column_stack(
        [
            rng.uniform(bbox.min_x, bbox.max_x, size=n_billboards - n_hot),
            rng.uniform(bbox.min_y, bbox.max_y, size=n_billboards - n_hot),
        ]
    )
    locations = np.vstack([hot, uniform])[rng.permutation(n_billboards)]
    billboards = BillboardDB.from_locations(locations)
    stream = NycStream(billboards, int(n_trajectories), int(chunk_size), int(seed))
    stream._centers = centers
    stream._weights = weights
    stream._sigmas = sigmas
    stream._bbox = bbox
    return stream
