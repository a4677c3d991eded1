"""Spatial substrate: geometry primitives, bounding boxes, and a cell table.

The paper's influence model is geometric: a billboard influences a trajectory
iff some trajectory point lies within ``λ`` metres of the billboard.  This
subpackage provides the planar geometry (we work in a local metric projection,
so Euclidean distance is in metres) and the fixed-radius neighbour queries the
coverage computation needs.
"""

from repro.spatial.bbox import BoundingBox
from repro.spatial.geometry import (
    Point,
    distance,
    interpolate_path,
    pairwise_distances,
    path_length,
)

__all__ = [
    "BoundingBox",
    "Point",
    "distance",
    "interpolate_path",
    "pairwise_distances",
    "path_length",
]
