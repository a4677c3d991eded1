"""Tests for the uniform grids: the billboard cell table behind the coverage
join, and the point grid (``tests/oracles.GridIndex``) it replaced.

Both are checked against brute force; the grid-over-points join lives on in
``tests/oracles.py`` as an oracle and keeps its tests here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.geometry import pairwise_distances
from repro.spatial.grid import MAX_AXIS_CELLS, POINT_BLOCK, CellTable
from repro.utils.rng import as_generator
from tests.oracles import (
    GridIndex,
    brute_force_join,
    grid_join_radius,
    grid_query_radius_bulk,
)


def brute_force_radius(points: np.ndarray, x: float, y: float, radius: float) -> np.ndarray:
    distances = pairwise_distances(points, np.array([[x, y]]))[:, 0]
    return np.nonzero(distances <= radius)[0]


class TestGridIndexBasics:
    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValueError, match="cell_size"):
            GridIndex(np.zeros((1, 2)), cell_size=0.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            GridIndex(np.zeros((3, 3)), cell_size=1.0)

    def test_empty_index(self):
        grid = GridIndex(np.zeros((0, 2)), cell_size=1.0)
        assert len(grid) == 0
        assert len(grid.query_radius(0.0, 0.0, 10.0)) == 0
        assert len(grid_query_radius_bulk(grid, np.array([[0.0, 0.0]]), 10.0)) == 0

    def test_single_point_hit_and_miss(self):
        grid = GridIndex(np.array([[5.0, 5.0]]), cell_size=2.0)
        assert grid.query_radius(5.0, 5.0, 1.0).tolist() == [0]
        assert grid.query_radius(9.0, 9.0, 1.0).tolist() == []

    def test_boundary_point_included(self):
        grid = GridIndex(np.array([[0.0, 0.0]]), cell_size=1.0)
        assert grid.query_radius(3.0, 4.0, 5.0).tolist() == [0]

    def test_query_reaches_beyond_one_cell(self):
        # Radius larger than the cell size must still find far points.
        grid = GridIndex(np.array([[0.0, 0.0], [9.0, 0.0]]), cell_size=1.0)
        assert grid.query_radius(0.0, 0.0, 10.0).tolist() == [0, 1]

    def test_bulk_deduplicates(self):
        grid = GridIndex(np.array([[0.0, 0.0]]), cell_size=1.0)
        queries = np.array([[0.1, 0.0], [0.0, 0.1], [-0.1, 0.0]])
        assert grid_query_radius_bulk(grid, queries, 1.0).tolist() == [0]


class TestAgainstBruteForce:
    def test_random_points_match_brute_force(self):
        rng = as_generator(42)
        points = rng.uniform(0.0, 1000.0, size=(300, 2))
        grid = GridIndex(points, cell_size=50.0)
        for _ in range(50):
            x, y = rng.uniform(0.0, 1000.0, size=2)
            radius = float(rng.uniform(1.0, 200.0))
            expected = brute_force_radius(points, x, y, radius)
            actual = grid.query_radius(x, y, radius)
            assert actual.tolist() == expected.tolist()

    def test_bulk_matches_union_of_single_queries(self):
        rng = as_generator(7)
        points = rng.uniform(0.0, 500.0, size=(100, 2))
        grid = GridIndex(points, cell_size=30.0)
        queries = rng.uniform(0.0, 500.0, size=(20, 2))
        singles = set()
        for x, y in queries:
            singles.update(grid.query_radius(float(x), float(y), 60.0).tolist())
        bulk = grid_query_radius_bulk(grid, queries, 60.0)
        assert set(bulk.tolist()) == singles
        assert np.all(np.diff(bulk) > 0)  # sorted, unique

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        cell=st.floats(min_value=5.0, max_value=200.0),
        radius=st.floats(min_value=0.5, max_value=300.0),
    )
    def test_property_grid_equals_brute_force(self, seed, cell, radius):
        rng = as_generator(seed)
        points = rng.uniform(-200.0, 200.0, size=(60, 2))
        grid = GridIndex(points, cell_size=cell)
        x, y = rng.uniform(-250.0, 250.0, size=2)
        expected = brute_force_radius(points, float(x), float(y), radius)
        actual = grid.query_radius(float(x), float(y), radius)
        assert actual.tolist() == expected.tolist()


class TestJoinRadius:
    """The grid-over-points join oracle (``tests/oracles.py``)."""

    def brute_force_pairs(self, points, queries, radius):
        distances = pairwise_distances(queries, points)
        return set(zip(*np.nonzero(distances <= radius)))

    def test_empty_inputs(self):
        grid = GridIndex(np.zeros((0, 2)), cell_size=1.0)
        query_ids, point_ids = grid_join_radius(grid, np.array([[0.0, 0.0]]), 5.0)
        assert len(query_ids) == len(point_ids) == 0
        grid = GridIndex(np.array([[0.0, 0.0]]), cell_size=1.0)
        query_ids, point_ids = grid_join_radius(grid, np.empty((0, 2)), 5.0)
        assert len(query_ids) == len(point_ids) == 0

    def test_rejects_bad_query_shape(self):
        grid = GridIndex(np.array([[0.0, 0.0]]), cell_size=1.0)
        with pytest.raises(ValueError, match="shape"):
            grid_join_radius(grid, np.zeros(3), 1.0)

    def test_pairs_unique(self):
        rng = as_generator(3)
        points = rng.uniform(0.0, 100.0, size=(80, 2))
        grid = GridIndex(points, cell_size=10.0)
        queries = rng.uniform(0.0, 100.0, size=(25, 2))
        query_ids, point_ids = grid_join_radius(grid, queries, 25.0)
        pairs = list(zip(query_ids.tolist(), point_ids.tolist()))
        assert len(pairs) == len(set(pairs))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        cell=st.floats(min_value=5.0, max_value=150.0),
        radius=st.floats(min_value=0.5, max_value=250.0),
    )
    def test_property_join_equals_brute_force(self, seed, cell, radius):
        rng = as_generator(seed)
        points = rng.uniform(-200.0, 200.0, size=(50, 2))
        queries = rng.uniform(-250.0, 250.0, size=(15, 2))
        grid = GridIndex(points, cell_size=cell)
        query_ids, point_ids = grid_join_radius(grid, queries, radius)
        actual = set(zip(query_ids.tolist(), point_ids.tolist()))
        assert actual == self.brute_force_pairs(points, queries, radius)

    def test_bulk_microbenchmark_matches_per_query_unions(self):
        """The vectorized bulk path returns exactly the per-query union —
        timed on a workload large enough to exercise the batched join."""
        import time

        rng = as_generator(17)
        points = rng.uniform(0.0, 2_000.0, size=(3_000, 2))
        queries = rng.uniform(0.0, 2_000.0, size=(400, 2))
        radius = 80.0
        grid = GridIndex(points, cell_size=radius)

        started = time.perf_counter()
        singles = set()
        for x, y in queries:
            singles.update(grid.query_radius(float(x), float(y), radius).tolist())
        loop_s = time.perf_counter() - started

        started = time.perf_counter()
        bulk = grid_query_radius_bulk(grid, queries, radius)
        bulk_s = time.perf_counter() - started

        assert set(bulk.tolist()) == singles
        assert np.all(np.diff(bulk) > 0)  # sorted, unique
        # Timing is informational (CI boxes vary); correctness is the assert.
        print(f"\nquery_radius loop: {loop_s * 1e3:.1f} ms, bulk: {bulk_s * 1e3:.1f} ms")


def _pairs(point_ids, site_ids) -> list:
    return list(zip(point_ids.tolist(), site_ids.tolist()))


class TestCellTable:
    """The billboard cell table that streams points through the coverage join."""

    def test_rejects_bad_arguments(self):
        sites = np.zeros((2, 2))
        with pytest.raises(ValueError, match="radius"):
            CellTable(sites, 0.0)
        with pytest.raises(ValueError, match="sites"):
            CellTable(np.zeros((3, 3)), 1.0)
        with pytest.raises(ValueError, match="finite"):
            CellTable(np.array([[0.0, np.nan]]), 1.0)
        with pytest.raises(ValueError, match="shape"):
            CellTable(sites, 1.0).join(np.zeros(3), 1.0)

    def test_empty_sites_and_points(self):
        empty = CellTable(np.empty((0, 2)), 5.0)
        assert _pairs(*empty.join(np.zeros((4, 2)), 5.0)) == []
        table = CellTable(np.zeros((3, 2)), 5.0)
        assert _pairs(*table.join(np.empty((0, 2)), 5.0)) == []

    def test_far_and_non_finite_points_find_nothing(self):
        from repro import obs

        table = CellTable(np.array([[0.0, 0.0], [50.0, 50.0]]), 10.0)
        points = np.array(
            [
                [1e300, 1e300],
                [-1e300, 1e300],
                [np.nan, 0.0],
                [np.inf, np.inf],
                [-np.inf, -np.inf],
                [0.0, 0.0],
            ]
        )
        obs.reset()
        obs.enable()
        try:
            assert _pairs(*table.join(points, 10.0)) == [(5, 0)]
            # Clamped onto the empty border: not even a candidate.
            assert obs.counter_value("grid.join.candidate_pairs") == 1
        finally:
            obs.disable()
            obs.reset()

    def test_rounding_at_the_rim(self):
        """``2.0 − 0.9999999999999999`` rounds to exactly 1.0, so the
        predicate accepts the pair at radius 1 although the two lie in cells
        0 and 2 of a unit grid.  The table's cell slack still finds it."""
        sites = np.array([[0.0, 0.0], [0.9999999999999999, 0.0]])
        points = np.array([[2.0, 0.0]])
        assert brute_force_join(points, sites, 1.0) == {(0, 1)}
        assert _pairs(*CellTable(sites, 1.0).join(points, 1.0)) == [(0, 1)]

    def test_pairs_ordered_by_point_then_site(self):
        rng = as_generator(5)
        sites = rng.uniform(0.0, 100.0, size=(40, 2))
        points = rng.uniform(0.0, 100.0, size=(200, 2))
        pairs = _pairs(*CellTable(sites, 15.0).join(points, 15.0))
        assert pairs == sorted(set(pairs))
        assert set(pairs) == brute_force_join(points, sites, 15.0)

    def test_blocks_do_not_change_pairs(self, monkeypatch):
        import repro.spatial.grid as grid_module

        rng = as_generator(9)
        sites = rng.uniform(0.0, 200.0, size=(30, 2))
        points = rng.uniform(-20.0, 220.0, size=(500, 2))
        table = CellTable(sites, 25.0)
        whole = _pairs(*table.join(points, 25.0))
        monkeypatch.setattr(grid_module, "POINT_BLOCK", 7)
        assert _pairs(*table.join(points, 25.0)) == whole
        assert POINT_BLOCK > 7

    def test_one_layout_per_reach(self):
        table = CellTable(np.array([[0.0, 0.0], [30.0, 5.0]]), 10.0)
        points = np.array([[12.0, 0.0], [29.0, 25.0]])
        for radius in (10.0, 4.0, 10.0, 25.0, 30.0):
            pairs = _pairs(*table.join(points, radius))
            assert set(pairs) == brute_force_join(points, table.sites, radius)
        assert sorted(table._layouts) == [1, 3]

    def test_wide_sites_cap_the_table(self):
        sites = np.array([[0.0, 0.0], [1e6, 3.0], [1e6 + 0.5, 3.0]])
        table = CellTable(sites, 1.0)
        assert table.cell_size == pytest.approx(1e6 / MAX_AXIS_CELLS)
        points = np.array([[1e6 + 0.25, 3.0], [1e6 - 0.5, 3.0], [0.5, 0.5], [1.0, 0.0]])
        assert set(_pairs(*table.join(points, 1.0))) == brute_force_join(points, sites, 1.0)
        nx, ny, _, _ = table._layout(1)
        assert max(nx, ny) <= MAX_AXIS_CELLS + 4

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        layout=st.sampled_from(["spread", "one_cell", "single"]),
        cell=st.sampled_from([1.0, 7.5, 100.0, 0.1 + 0.2]),
        reach=st.integers(1, 3),
        shift=st.sampled_from([0.0, -5_000.0, 12_345.678]),
    )
    def test_property_join_equals_brute_force(self, seed, layout, cell, reach, shift):
        """Hard geometry: points on cell edges, at exactly the radius along
        the axes, outside the sites' bounding box but within reach, at
        negative coordinates, and joins at the largest radius a reach covers."""
        rng = as_generator(seed)
        if layout == "single":
            sites = rng.uniform(-3.0, 3.0, size=(1, 2)) * cell
        elif layout == "one_cell":
            sites = rng.uniform(0.0, 0.999, size=(6, 2)) * cell
        else:
            sites = rng.uniform(-4.0, 4.0, size=(25, 2)) * cell
        sites += shift
        radius = cell * reach
        table = CellTable(sites, cell)
        origin = sites.min(axis=0)
        steps = np.arange(-reach - 2, reach + 3)[:, None]
        edges = [
            origin + steps * np.array([cell, cell]),
            origin + steps * np.array([cell, 0.0]),
            origin + steps * cell * (1.0 + 2.0**-20),
        ]
        rings = [
            sites + offset
            for offset in (
                [radius, 0.0], [-radius, 0.0], [0.0, radius], [0.0, -radius],
                [radius * 0.6, radius * 0.8], [-radius * 0.6, radius * 0.8],
            )
        ]
        outside = [
            origin - rng.uniform(0.0, radius, size=(8, 2)),
            sites.max(axis=0) + rng.uniform(0.0, radius, size=(8, 2)),
        ]
        scatter = origin + rng.uniform(-6.0, 6.0, size=(60, 2)) * cell
        points = np.concatenate(edges + rings + outside + [scatter])
        point_ids, site_ids = table.join(points, radius)
        pairs = _pairs(point_ids, site_ids)
        assert pairs == sorted(set(pairs))
        assert set(pairs) == brute_force_join(points, sites, radius)
