"""Trajectory data model.

``TrajectoryDB`` stores all trajectory points in one flat ``(N, 2)`` array
plus an offsets table (CSR layout).  This keeps memory compact at the
millions-of-points scale and lets the coverage computation slice each
trajectory's points without per-trajectory Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.spatial.bbox import BoundingBox
from repro.spatial.geometry import path_length


@dataclass(frozen=True)
class Trajectory:
    """One audience movement: an ordered sequence of planar points.

    Attributes
    ----------
    trajectory_id:
        Dense integer id, the row index in the owning :class:`TrajectoryDB`.
    points:
        ``(n, 2)`` float array of sample points in metres.
    travel_time:
        Trip duration in seconds (used for dataset statistics, Table 5, and
        for the digital-billboard time-slot model).
    start_time:
        Trip departure time in seconds-of-day (0 ≤ t < 86400).  Only the
        digital-billboard extension reads it; the paper's static model
        ignores it.
    """

    trajectory_id: int
    points: np.ndarray
    travel_time: float = 0.0
    start_time: float = 0.0

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"trajectory points must be (n, 2), got {points.shape}")
        if len(points) == 0:
            raise ValueError("a trajectory needs at least one point")
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def length(self) -> float:
        """Travelled distance in metres."""
        return path_length(self.points)


class TrajectoryChunk:
    """A bounded slice of a corpus: the members the coverage join reads.

    ``all_points`` / ``point_counts`` / ``points_of``, the same trio
    :class:`TrajectoryDB` exposes, with no per-trip objects or travel times.
    Counts must be non-negative and sum to the number of points.
    """

    __slots__ = ("all_points", "point_counts", "_offsets")

    def __init__(self, all_points: np.ndarray, point_counts: np.ndarray) -> None:
        self.all_points = np.asarray(all_points, dtype=np.float64)
        self.point_counts = np.asarray(point_counts, dtype=np.int64)
        counts = self.point_counts
        if (counts < 0).any() or counts.sum() != len(self.all_points):
            raise ValueError(
                f"point_counts must be >= 0 and sum to {len(self.all_points)}"
            )
        self._offsets: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.point_counts)

    def points_of(self, local_id: int) -> np.ndarray:
        """``(n, 2)`` view of one chunk-local trajectory's points."""
        if self._offsets is None:
            self._offsets = np.concatenate([[0], np.cumsum(self.point_counts)])
        return self.all_points[self._offsets[local_id] : self._offsets[local_id + 1]]


class TrajectoryDB:
    """An immutable corpus of trajectories with CSR point storage."""

    def __init__(self, trajectories: Iterable[Trajectory]) -> None:
        trajectories = list(trajectories)
        if not trajectories:
            raise ValueError("TrajectoryDB needs at least one trajectory")
        for expected_id, trajectory in enumerate(trajectories):
            if trajectory.trajectory_id != expected_id:
                raise ValueError(
                    "trajectory ids must be dense 0..n-1 in order; "
                    f"found id {trajectory.trajectory_id} at position {expected_id}"
                )

        self._travel_times = np.array([t.travel_time for t in trajectories], dtype=np.float64)
        self._start_times = np.array([t.start_time for t in trajectories], dtype=np.float64)
        counts = np.array([len(t) for t in trajectories], dtype=np.int64)
        self._offsets = np.concatenate([[0], np.cumsum(counts)])
        self._points = np.concatenate([t.points for t in trajectories], axis=0)

    @classmethod
    def from_point_lists(
        cls,
        point_lists: Sequence[np.ndarray],
        travel_times: Sequence[float] | None = None,
    ) -> "TrajectoryDB":
        """Build a DB from raw point arrays, assigning dense ids in order."""
        if travel_times is None:
            travel_times = [0.0] * len(point_lists)
        if len(travel_times) != len(point_lists):
            raise ValueError(
                f"got {len(point_lists)} point lists but {len(travel_times)} travel times"
            )
        return cls(
            Trajectory(i, points, time)
            for i, (points, time) in enumerate(zip(point_lists, travel_times))
        )

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, trajectory_id: int) -> Trajectory:
        if not 0 <= trajectory_id < len(self):
            raise IndexError(f"trajectory id {trajectory_id} out of range [0, {len(self)})")
        start, stop = self._offsets[trajectory_id], self._offsets[trajectory_id + 1]
        return Trajectory(
            trajectory_id,
            self._points[start:stop],
            float(self._travel_times[trajectory_id]),
            float(self._start_times[trajectory_id]),
        )

    def __iter__(self) -> Iterator[Trajectory]:
        for trajectory_id in range(len(self)):
            yield self[trajectory_id]

    def points_of(self, trajectory_id: int) -> np.ndarray:
        """``(n, 2)`` view of one trajectory's points (no copy)."""
        start, stop = self._offsets[trajectory_id], self._offsets[trajectory_id + 1]
        return self._points[start:stop]

    @property
    def all_points(self) -> np.ndarray:
        """Flat ``(N, 2)`` view of every point in the corpus."""
        return self._points

    @property
    def point_counts(self) -> np.ndarray:
        """Number of sample points per trajectory."""
        return np.diff(self._offsets)

    @property
    def travel_times(self) -> np.ndarray:
        return self._travel_times

    @property
    def start_times(self) -> np.ndarray:
        """Departure times in seconds-of-day (zeros unless a generator set them)."""
        return self._start_times

    def bounding_box(self) -> BoundingBox:
        return BoundingBox.from_points(self._points)
