"""The coverage join checked against independent oracles.

Coverage builds stream every chunk's trajectory points through one
billboard cell table per build (``repro.spatial.grid.CellTable``).  These
tests hold the result to oracles that share none of that machinery: a
brute-force pass over every (billboard, point) pair with the same distance
predicate, the exact polyline distance for ``exact_segments``, and the
grid-over-points join that builds ran before (``tests/oracles.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billboard import influence
from repro.billboard.influence import (
    CoverageIndex,
    _as_corpus_chunk,
    _join_chunk,
    _max_sample_gap,
)
from repro.billboard.model import BillboardDB
from repro.datasets import stream
from repro.spatial.geometry import min_distance_to_polyline
from repro.spatial.grid import CellTable
from repro.utils.rng import as_generator
from tests.oracles import brute_force_join, grid_chunk_coverage


def brute_force_coverage(locations, points, counts, lambda_m, exact_segments):
    """Per-billboard covered trajectory ids, pricing every pair."""
    owners = np.repeat(np.arange(len(counts)), counts)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    covered = [set() for _ in locations]
    if exact_segments:
        for t in range(len(counts)):
            polyline = points[bounds[t] : bounds[t + 1]]
            for b, location in enumerate(locations):
                if len(polyline) and min_distance_to_polyline(location, polyline) <= lambda_m:
                    covered[b].add(t)
    else:
        for point_id, b in brute_force_join(points, locations, lambda_m):
            covered[b].add(int(owners[point_id]))
    return [sorted(ids) for ids in covered]


def split_chunks(points, counts, split):
    """Two plain ``(points, counts)`` chunks, cut after trajectory ``split``."""
    cut = int(np.sum(counts[:split]))
    return [(points[:cut], counts[:split]), (points[cut:], counts[split:])]


class TestAgainstGridOracle:
    def test_greedy_scale_chunk_is_bit_identical(self):
        """One greedy-scale-sized chunk (1,462 billboards, 5,000 trips)."""
        city = stream.nyc_stream(1462, 5000, chunk_size=5000, seed=7)
        (chunk,) = city.chunks()
        locations = city.billboards.locations
        expected = grid_chunk_coverage(
            locations, chunk.all_points, chunk.point_counts, 100.0
        )
        table = CellTable(locations, 100.0)
        actual = _join_chunk(table, _as_corpus_chunk(chunk), 100.0, False)
        assert len(actual[0]) > 10_000
        for got, want in zip(actual, expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_streamed_build_assembles_the_oracle_csr(self):
        """The same corpus streamed in four chunks: the CSR emitted once
        per build equals the oracle's pairs of the corpus as one chunk."""
        city = stream.nyc_stream(1462, 5000, chunk_size=1250, seed=7)
        merged = stream.concat_chunks(city.chunks())
        billboard_ids, trajectory_ids = grid_chunk_coverage(
            city.billboards.locations, merged.all_points, merged.point_counts, 100.0
        )
        index = CoverageIndex.from_trajectory_chunks(city.billboards, city.chunks())
        flat, offsets = index.to_arrays()
        assert np.array_equal(flat, trajectory_ids)
        assert np.array_equal(np.diff(offsets), np.bincount(billboard_ids, minlength=1462))


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        layout=st.sampled_from(["spread", "one_cell", "single"]),
        num_trajectories=st.integers(0, 7),
        sample_gap=st.sampled_from([0.3, 1.0, 4.5]),
        shift=st.sampled_from([0.0, -20_000.0]),
        exact_segments=st.booleans(),
        split=st.integers(0, 7),
    )
    def test_property_coverage_equals_brute_force(
        self, seed, layout, num_trajectories, sample_gap, shift, exact_segments, split
    ):
        """Hard geometry for the whole build: samples on cell edges and
        outside the billboards' bounding box, negative coordinates, empty
        trajectories and chunks, one-trajectory chunks, all billboards in one
        cell or a single billboard, and (``sample_gap`` 4.5) sample gaps wide
        enough that the exact-segments margin exceeds λ, so reach ≥ 2."""
        lambda_m = 100.0
        rng = as_generator(seed)
        if layout == "single":
            locations = rng.uniform(0.0, 300.0, size=(1, 2))
        elif layout == "one_cell":
            locations = 100.0 + rng.uniform(0.0, 99.0, size=(5, 2))
        else:
            locations = rng.uniform(0.0, 600.0, size=(20, 2))
        counts = rng.integers(0, 6, size=num_trajectories)
        pieces = []
        for count in counts:
            start = rng.uniform(-150.0, 750.0, size=2)
            if rng.random() < 0.5:  # start on a cell edge of the table
                start = np.round(start / lambda_m) * lambda_m
            steps = rng.uniform(-1.0, 1.0, size=(int(count), 2)) * sample_gap * lambda_m
            pieces.append(start + np.cumsum(steps, axis=0))
        points = np.concatenate(pieces) if pieces else np.empty((0, 2))
        locations, points = locations + shift, points + shift

        expected = brute_force_coverage(
            locations, points, counts, lambda_m, exact_segments
        )
        index = CoverageIndex.from_trajectory_chunks(
            BillboardDB.from_locations(locations),
            split_chunks(points, counts, min(split, num_trajectories)),
            lambda_m=lambda_m,
            exact_segments=exact_segments,
        )
        assert index.num_trajectories == num_trajectories
        actual = [index.covered_by(b).tolist() for b in range(len(locations))]
        assert actual == expected


class TestZeroPointTrajectories:
    """``_max_sample_gap`` keeps only gaps between points of one trajectory."""

    LOCATIONS = np.array([[60.0, 550.0]])
    POINTS = np.array([[0.0, 0.0], [0.0, 300.0], [0.0, 800.0]])

    def covered(self, counts):
        index = CoverageIndex.from_trajectory_chunks(
            BillboardDB.from_locations(self.LOCATIONS),
            [(self.POINTS, np.array(counts))],
            lambda_m=100.0,
            exact_segments=True,
        )
        return index.covered_by(0).tolist()

    def test_baseline_segment_passes_sixty_metres_away(self):
        assert self.covered([3]) == [0]

    def test_leading_empty_trajectory(self):
        assert self.covered([0, 3]) == [1]

    def test_trailing_empty_trajectory(self):
        assert self.covered([3, 0]) == [0]

    def test_gap_ignores_empty_trajectories_between(self):
        owners = np.repeat(np.arange(4), [1, 0, 2, 0])
        gap = _max_sample_gap(self.POINTS, owners)
        assert gap == 500.0


class TestChunkValidation:
    @pytest.mark.parametrize(
        "counts", [[-1, 4], [1, 1], [2, 2]], ids=["negative", "short", "long"]
    )
    def test_counts_must_cover_the_points(self, counts):
        with pytest.raises(ValueError, match="point_counts"):
            _as_corpus_chunk((np.zeros((3, 2)), np.array(counts)))


class TestCsrEmittedOnce:
    def test_flat_cache_seeded_and_views_shared(self):
        city = stream.nyc_stream(40, 300, chunk_size=70, seed=2)
        index = CoverageIndex.from_trajectory_chunks(city.billboards, city.chunks())
        flat, offsets = index._flat_cache
        assert index.to_arrays()[0] is flat
        for billboard_id in range(index.num_billboards):
            ids = index.covered_by(billboard_id)
            assert len(ids) == offsets[billboard_id + 1] - offsets[billboard_id]
            if len(ids):
                assert np.shares_memory(ids, flat)

    @pytest.mark.parametrize("exact_segments", [False, True])
    def test_one_table_per_build(self, monkeypatch, exact_segments):
        tables = []

        class Recording(CellTable):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        monkeypatch.setattr(influence, "CellTable", Recording)
        city = stream.nyc_stream(40, 300, chunk_size=60, seed=2)
        CoverageIndex.from_trajectory_chunks(
            city.billboards, city.chunks(), exact_segments=exact_segments
        )
        assert len(tables) == 1
        if not exact_segments:
            assert list(tables[0]._layouts) == [1]
