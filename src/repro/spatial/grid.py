"""Uniform grids for fixed-radius neighbour queries.

The coverage computation joins millions of trajectory points against
thousands of billboard locations within a radius ``λ``.  A uniform grid with
cell size equal to the query radius gives the classic 3×3-cell candidate
neighbourhood.  :class:`CellTable` lists the few fixed sites (billboards)
under every cell near them, so each streamed point needs one cell
computation and one table slice; :class:`GridIndex` buckets a static point
set by cell for single radius queries.
"""

from __future__ import annotations

import numpy as np

from repro import obs

#: A :class:`CellTable` spans at most this many cells per axis; past it the
#: cells widen, which only adds candidates, so a tiny λ cannot blow it up.
MAX_AXIS_CELLS = 1024

#: Points per block in :meth:`CellTable.join`: candidate-pair temporaries
#: stay O(block) however many points a call prices.
POINT_BLOCK = 32_768

#: Relative widening of the table's internal cell edge: slack for the
#: rounding of the cell computation and of the distance predicate, so every
#: pair the predicate accepts lies in the searched neighbourhood.
_CELL_SLACK = 2.0**-20


def _expand_slices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` for all ``i``.

    The standard repeat/cumsum trick: one vectorized pass, no Python loop.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shifts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.repeat(starts - shifts, counts) + np.arange(total, dtype=np.int64)


class CellTable:
    """Fixed ``(n, 2)`` sites listed under every cell within reach of them.

    Cells are ``radius`` wide (wider past :data:`MAX_AXIS_CELLS` per axis).
    For each reach a join needs, one CSR layout lists every site under the
    ``(2·reach + 1)²`` cells around its own, sites ascending within a cell,
    plus an empty border that far-off points clamp onto.  It is built once,
    in O(sites · (2·reach + 1)²), however many points are then joined.
    """

    def __init__(self, sites: np.ndarray, radius: float) -> None:
        sites = np.asarray(sites, dtype=np.float64)
        if sites.ndim != 2 or sites.shape[1] != 2 or not np.isfinite(sites).all():
            raise ValueError(f"sites must be a finite (n, 2) array, got {sites.shape}")
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.sites = sites
        span = float(np.ptp(sites, axis=0).max()) if len(sites) else 0.0
        self.cell_size = max(float(radius), span / MAX_AXIS_CELLS)
        self._edge = self.cell_size * (1.0 + _CELL_SLACK)
        self._origin = sites.min(axis=0) if len(sites) else np.zeros(2)
        self._site_cells = np.floor((sites - self._origin) / self._edge).astype(np.int64)
        self._site_x, self._site_y = np.ascontiguousarray(sites.T)
        self._layouts: dict[int, tuple] = {}

    def _layout(self, reach: int) -> tuple:
        """``(nx, ny, offsets, site_ids)`` of the reach-``reach`` table."""
        if reach not in self._layouts:
            cells = self._site_cells + reach + 1  # past the empty border
            nx, ny = (cells.max(axis=0) + reach + 2).tolist() if len(cells) else (1, 1)
            shifts = np.arange(-reach, reach + 1)
            x, y = cells[:, 0, None] + shifts, cells[:, 1, None] + shifts
            # Site-major, so a stable sort keeps each cell's sites ascending.
            linear = (x[:, :, None] * ny + y[:, None, :]).ravel()
            offsets = np.zeros(nx * ny + 1, dtype=np.int64)
            np.cumsum(np.bincount(linear, minlength=nx * ny), out=offsets[1:])
            site_ids = np.argsort(linear, kind="stable") // len(shifts) ** 2
            self._layouts[reach] = (nx, ny, offsets, site_ids)
        return self._layouts[reach]

    def join(self, points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """All ``(point_index, site_index)`` pairs within ``radius``.

        A pair qualifies when ``dx*dx + dy*dy <= radius*radius`` for
        ``(dx, dy) = point − site``.  Each comes once, ordered by point and
        then by site.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"points must have shape (m, 2), got {points.shape}")
        reach = max(int(np.ceil(radius / self.cell_size)), 1)
        nx, ny, offsets, site_ids = self._layout(reach)
        point_hits = [np.empty(0, dtype=np.int64)]
        site_hits = [np.empty(0, dtype=np.int64)]
        candidate_pairs = 0
        for start in range(0, len(points), POINT_BLOCK):
            block = points[start : start + POINT_BLOCK]
            x, y = np.ascontiguousarray(block[:, 0]), np.ascontiguousarray(block[:, 1])
            axes = []
            for coord, origin, top in zip((x, y), self._origin, (nx - 1, ny - 1)):
                # The site cells' float operations, then a clamp onto the
                # border; fmax/fmin also send NaN there before the int cast.
                scaled = np.floor((coord - origin) / self._edge) + (reach + 1)
                axes.append(np.fmin(np.fmax(scaled, 0.0, out=scaled), top, out=scaled))
            linear = (axes[0] * ny + axes[1]).astype(np.int64)
            starts = offsets[linear]
            counts = offsets[linear + 1] - starts
            pair_sites = site_ids[_expand_slices(starts, counts)]
            pair_points = np.repeat(np.arange(len(block)), counts)
            candidate_pairs += len(pair_points)
            dx = x[pair_points] - self._site_x[pair_sites]
            dy = y[pair_points] - self._site_y[pair_sites]
            mask = dx * dx + dy * dy <= radius * radius
            point_hits.append(pair_points[mask] + start)
            site_hits.append(pair_sites[mask])
        obs.counter_add("grid.join.candidate_pairs", candidate_pairs)
        point_ids = np.concatenate(point_hits)
        obs.counter_add("grid.join.matched_pairs", len(point_ids))
        return point_ids, np.concatenate(site_hits)


class GridIndex:
    """A uniform grid over a static set of 2-D points.

    Parameters
    ----------
    points:
        ``(n, 2)`` float array of indexed points (e.g. billboard locations).
    cell_size:
        Grid cell edge length in metres.  For radius-``r`` queries a cell
        size of ``r`` limits candidates to the 3×3 neighbourhood of the query
        point's cell.
    """

    def __init__(self, points: np.ndarray, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {points.shape}")

        self.points = points
        self.cell_size = float(cell_size)
        if len(points) == 0:
            self._origin = np.zeros(2)
            self._dims = (0, 0)
            self._order = np.empty(0, dtype=np.int64)
            self._cell_ids = np.empty(0, dtype=np.int64)
            self._bucket_offsets = np.zeros(1, dtype=np.int64)
            return

        self._origin = points.min(axis=0)
        cols = np.floor((points - self._origin) / self.cell_size).astype(np.int64)
        self._dims = (int(cols[:, 0].max()) + 1, int(cols[:, 1].max()) + 1)
        linear = cols[:, 0] * self._dims[1] + cols[:, 1]
        order = np.argsort(linear, kind="stable")
        cell_ids, starts = np.unique(linear[order], return_index=True)
        self._order = order.astype(np.int64)
        self._cell_ids = cell_ids
        self._bucket_offsets = np.append(starts, len(points)).astype(np.int64)

    def __len__(self) -> int:
        return len(self.points)

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (
            int(np.floor((x - self._origin[0]) / self.cell_size)),
            int(np.floor((y - self._origin[1]) / self.cell_size)),
        )

    def _lookup_buckets(self, linear: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bucket slots of the given linear cell ids, and a found mask."""
        positions = np.searchsorted(self._cell_ids, linear)
        positions = np.minimum(positions, len(self._cell_ids) - 1)
        return positions, self._cell_ids[positions] == linear

    def query_radius(self, x: float, y: float, radius: float) -> np.ndarray:
        """Indices of indexed points within ``radius`` of ``(x, y)``.

        Returns a sorted ``int64`` array of point indices.
        """
        candidates = self._candidates(x, y, radius)
        if len(candidates) == 0:
            return candidates
        diff = self.points[candidates] - np.array([x, y])
        mask = np.sum(diff * diff, axis=1) <= radius * radius
        return np.sort(candidates[mask])

    def _candidates(self, x: float, y: float, radius: float) -> np.ndarray:
        """All indexed points in cells overlapping the query disc."""
        if len(self.points) == 0:
            return np.empty(0, dtype=np.int64)
        reach = max(int(np.ceil(radius / self.cell_size)), 1)
        nx, ny = self._dims
        cx, cy = self._cell_of(x, y)
        x_lo, x_hi = max(cx - reach, 0), min(cx + reach, nx - 1)
        y_lo, y_hi = max(cy - reach, 0), min(cy + reach, ny - 1)
        if x_lo > x_hi or y_lo > y_hi:
            return np.empty(0, dtype=np.int64)
        grid_x = np.arange(x_lo, x_hi + 1, dtype=np.int64)
        grid_y = np.arange(y_lo, y_hi + 1, dtype=np.int64)
        linear = (grid_x[:, None] * ny + grid_y[None, :]).ravel()
        slots, found = self._lookup_buckets(linear)
        slots = slots[found]
        if len(slots) == 0:
            return np.empty(0, dtype=np.int64)
        starts = self._bucket_offsets[slots]
        counts = self._bucket_offsets[slots + 1] - starts
        return self._order[_expand_slices(starts, counts)]
