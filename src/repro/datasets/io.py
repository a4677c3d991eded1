"""Persistence of generated cities.

Cities are saved as a directory of two CSV files:

* ``billboards.csv`` — ``billboard_id,x,y,label``
* ``trajectories.csv`` — one row per point:
  ``trajectory_id,point_index,x,y,travel_time`` (travel time repeated per
  trajectory for simplicity of the flat format).

The format is deliberately plain so saved cities can be inspected or fed to
other tooling; full-scale corpora stay compact enough (tens of MB).

For corpora too large to materialize, :func:`iter_trajectory_chunks` streams
``trajectories.csv`` back as bounded chunks
(:class:`~repro.trajectory.model.TrajectoryChunk`) that feed straight into
:meth:`~repro.billboard.influence.CoverageIndex.from_trajectory_chunks`, so
coverage can be built from disk with O(chunk) peak memory.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.billboard.model import BillboardDB
from repro.datasets.synthetic import CityDataset
from repro.trajectory.model import Trajectory, TrajectoryChunk, TrajectoryDB

BILLBOARD_FILE = "billboards.csv"
TRAJECTORY_FILE = "trajectories.csv"


def save_city(city: CityDataset, directory: str | Path) -> Path:
    """Write a city to ``directory`` (created if needed); returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with open(directory / BILLBOARD_FILE, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["billboard_id", "x", "y", "label"])
        for billboard in city.billboards:
            writer.writerow(
                [
                    billboard.billboard_id,
                    f"{billboard.location.x:.3f}",
                    f"{billboard.location.y:.3f}",
                    billboard.label,
                ]
            )

    with open(directory / TRAJECTORY_FILE, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["trajectory_id", "point_index", "x", "y", "travel_time", "start_time"]
        )
        for trajectory in city.trajectories:
            for point_index, (x, y) in enumerate(trajectory.points):
                writer.writerow(
                    [
                        trajectory.trajectory_id,
                        point_index,
                        f"{x:.3f}",
                        f"{y:.3f}",
                        f"{trajectory.travel_time:.3f}",
                        f"{trajectory.start_time:.3f}",
                    ]
                )
    return directory


def iter_trajectory_chunks(directory: str | Path, chunk_size: int):
    """Stream a saved city's trajectories as :class:`TrajectoryChunk` chunks.

    Yields at most ``chunk_size`` trajectories per chunk, reading
    ``trajectories.csv`` row by row — the corpus is never materialized.
    Trajectory ids must be dense and ordered (the layout :func:`save_city`
    writes), so chunks carry consecutive id ranges and feed
    ``CoverageIndex.from_trajectory_chunks`` directly.
    """
    directory = Path(directory)
    chunk_size = int(chunk_size)
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    points: list[tuple[float, float]] = []
    counts: list[int] = []
    current_id: int | None = None
    expected_id = 0
    with open(directory / TRAJECTORY_FILE, newline="") as handle:
        for row in csv.DictReader(handle):
            trajectory_id = int(row["trajectory_id"])
            if trajectory_id != current_id:
                if trajectory_id != expected_id:
                    raise ValueError(
                        "trajectory ids must be dense and ordered; expected "
                        f"{expected_id}, got {trajectory_id}"
                    )
                if len(counts) == chunk_size:
                    yield TrajectoryChunk(points, counts)
                    points, counts = [], []
                current_id = trajectory_id
                expected_id += 1
                counts.append(0)
            counts[-1] += 1
            points.append((float(row["x"]), float(row["y"])))
    if counts:
        yield TrajectoryChunk(points, counts)


def load_city(directory: str | Path, name: str | None = None) -> CityDataset:
    """Load a city previously written by :func:`save_city`."""
    directory = Path(directory)

    locations: list[list[float]] = []
    labels: list[str] = []
    with open(directory / BILLBOARD_FILE, newline="") as handle:
        for row_index, row in enumerate(csv.DictReader(handle)):
            if int(row["billboard_id"]) != row_index:
                raise ValueError(
                    f"billboard ids must be dense and ordered; row {row_index} has "
                    f"id {row['billboard_id']}"
                )
            locations.append([float(row["x"]), float(row["y"])])
            labels.append(row["label"])
    billboards = BillboardDB.from_locations(np.array(locations), labels)

    points_by_trajectory: dict[int, list[list[float]]] = {}
    travel_times: dict[int, float] = {}
    start_times: dict[int, float] = {}
    with open(directory / TRAJECTORY_FILE, newline="") as handle:
        for row in csv.DictReader(handle):
            trajectory_id = int(row["trajectory_id"])
            points_by_trajectory.setdefault(trajectory_id, []).append(
                [float(row["x"]), float(row["y"])]
            )
            travel_times[trajectory_id] = float(row["travel_time"])
            # start_time was added for the digital-billboard extension; files
            # written by older versions simply lack the column.
            start_times[trajectory_id] = float(row.get("start_time") or 0.0)
    trajectories = TrajectoryDB(
        Trajectory(
            tid, np.array(points_by_trajectory[tid]), travel_times[tid], start_times[tid]
        )
        for tid in sorted(points_by_trajectory)
    )
    return CityDataset(name or directory.name, billboards, trajectories)
