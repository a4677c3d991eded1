"""Trajectory substrate: the user-movement data model and generators.

A *trajectory* records one audience member's movement as a sequence of planar
points (the paper's ``t = {p_1, …, p_|t|}``).  ``TrajectoryDB`` holds the
whole corpus in flat numpy arrays so the coverage join stays vectorized.
"""

from repro.trajectory.generators import random_walk_trajectories, waypoint_trajectories
from repro.trajectory.model import Trajectory, TrajectoryChunk, TrajectoryDB
from repro.trajectory.stats import TrajectoryStats, summarize

__all__ = [
    "Trajectory",
    "TrajectoryChunk",
    "TrajectoryDB",
    "TrajectoryStats",
    "random_walk_trajectories",
    "summarize",
    "waypoint_trajectories",
]
