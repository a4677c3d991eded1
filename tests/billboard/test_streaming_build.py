"""Chunked/streamed coverage ingestion is bit-identical to single-shot.

The streaming path joins the corpus against the billboard grid one bounded
chunk at a time; because chunks carry consecutive trajectory-id ranges and
the distance predicate is evaluated per (billboard, point) pair, the
resulting CSR must match the in-memory build bit for bit — for every chunk
size, with and without exact segment geometry.
"""

import numpy as np
import pytest

from repro.billboard.influence import (
    CHUNK_SIZE_ENV,
    CoverageIndex,
    _CorpusChunk,
    _join_chunk,
    build_coverage,
)
from repro.datasets import generate_city
from repro.datasets.stream import concat_chunks, nyc_stream
from repro.spatial.grid import CellTable


@pytest.fixture(scope="module")
def city():
    return generate_city("nyc", n_billboards=25, n_trajectories=40, seed=3)


def assert_same_coverage(a: CoverageIndex, b: CoverageIndex) -> None:
    assert a.num_billboards == b.num_billboards
    assert a.num_trajectories == b.num_trajectories
    flat_a, offsets_a = a.to_arrays()
    flat_b, offsets_b = b.to_arrays()
    assert np.array_equal(offsets_a, offsets_b)
    assert np.array_equal(flat_a, flat_b)


def db_chunks(trajectories, chunk_size):
    """Slice a TrajectoryDB into plain ``(points, counts)`` pairs."""
    counts = trajectories.point_counts
    bounds = np.concatenate([[0], np.cumsum(counts)])
    for start in range(0, len(trajectories), chunk_size):
        end = min(start + chunk_size, len(trajectories))
        yield (
            trajectories.all_points[bounds[start] : bounds[end]],
            counts[start:end],
        )


class TestChunkedEqualsSingleShot:
    @pytest.mark.parametrize("chunk_size", [1, 7, 40, 45])
    def test_constructor_chunking(self, city, chunk_size):
        single = CoverageIndex(city.billboards, city.trajectories, lambda_m=100.0)
        chunked = CoverageIndex(
            city.billboards, city.trajectories, lambda_m=100.0, chunk_size=chunk_size
        )
        assert_same_coverage(single, chunked)

    @pytest.mark.parametrize("chunk_size", [1, 7, 45])
    def test_exact_segments_chunking(self, city, chunk_size):
        """The per-chunk margin join + exact confirm matches single-shot."""
        single = CoverageIndex(
            city.billboards, city.trajectories, lambda_m=100.0, exact_segments=True
        )
        chunked = CoverageIndex(
            city.billboards,
            city.trajectories,
            lambda_m=100.0,
            exact_segments=True,
            chunk_size=chunk_size,
        )
        assert_same_coverage(single, chunked)

    def test_from_trajectory_chunks_on_plain_pairs(self, city):
        single = CoverageIndex(city.billboards, city.trajectories, lambda_m=100.0)
        streamed = CoverageIndex.from_trajectory_chunks(
            city.billboards, db_chunks(city.trajectories, 7), lambda_m=100.0
        )
        assert_same_coverage(single, streamed)

    def test_env_default_chunk_size(self, city, monkeypatch):
        monkeypatch.setenv(CHUNK_SIZE_ENV, "5")
        chunked = CoverageIndex(city.billboards, city.trajectories, lambda_m=100.0)
        monkeypatch.delenv(CHUNK_SIZE_ENV)
        single = CoverageIndex(city.billboards, city.trajectories, lambda_m=100.0)
        assert_same_coverage(single, chunked)

    @pytest.mark.parametrize("bad", ["0", "-3", "many"])
    def test_env_chunk_size_rejects_garbage(self, city, monkeypatch, bad):
        monkeypatch.setenv(CHUNK_SIZE_ENV, bad)
        with pytest.raises(ValueError, match=CHUNK_SIZE_ENV):
            CoverageIndex(city.billboards, city.trajectories, lambda_m=100.0)

    def test_chunk_size_argument_rejects_nonpositive(self, city):
        with pytest.raises(ValueError, match="chunk_size"):
            CoverageIndex(
                city.billboards, city.trajectories, lambda_m=100.0, chunk_size=0
            )


class TestBuildCoverage:
    def test_dispatches_in_memory_corpus(self, city):
        index = build_coverage(city.billboards, city.trajectories, chunk_size=7)
        single = CoverageIndex(city.billboards, city.trajectories)
        assert_same_coverage(single, index)

    def test_dispatches_chunk_iterable(self, city):
        index = build_coverage(city.billboards, db_chunks(city.trajectories, 7))
        single = CoverageIndex(city.billboards, city.trajectories)
        assert_same_coverage(single, index)

    def test_reserves_declared_id_space(self, city):
        total = len(city.trajectories)
        index = build_coverage(
            city.billboards,
            db_chunks(city.trajectories, 7),
            num_trajectories=total + 5,
        )
        assert index.num_trajectories == total + 5

    def test_rejects_understated_corpus_size(self, city):
        with pytest.raises(ValueError, match="num_trajectories"):
            build_coverage(
                city.billboards,
                db_chunks(city.trajectories, 7),
                num_trajectories=len(city.trajectories) - 1,
            )


class TestNycStream:
    def test_stream_build_matches_single_shot(self):
        stream = nyc_stream(20, 50, chunk_size=12, seed=11)
        streamed = CoverageIndex.from_trajectory_chunks(
            stream.billboards, stream.chunks(), lambda_m=100.0
        )
        merged = concat_chunks(stream.chunks())
        single = CoverageIndex(stream.billboards, merged, lambda_m=100.0)
        assert streamed.num_trajectories == 50
        assert_same_coverage(single, streamed)

    def test_stream_is_restart_deterministic(self):
        first = nyc_stream(20, 50, chunk_size=12, seed=11)
        second = nyc_stream(20, 50, chunk_size=12, seed=11)
        for a, b in zip(first.chunks(), second.chunks()):
            assert np.array_equal(a.all_points, b.all_points)
            assert np.array_equal(a.point_counts, b.point_counts)
        assert np.array_equal(
            first.billboards.locations, second.billboards.locations
        )


class TestJoinChunkBitIdentity:
    """Direct contract test for the shared radius-join step.

    ``_join_chunk`` is the single primitive every build calls; its docstring
    claims chunk boundaries cannot change any (billboard, trajectory)
    coverage decision.  Joining the corpus as one chunk must therefore equal
    the per-chunk joins with local ids shifted back to global ids, merged by
    billboard — for every split point.
    """

    @pytest.mark.parametrize("exact_segments", [False, True])
    @pytest.mark.parametrize("split", [1, 13, 39])
    def test_split_join_matches_single_join(self, city, split, exact_segments):
        locations = city.billboards.locations
        trajectories = city.trajectories
        whole = _CorpusChunk(trajectories.all_points, trajectories.point_counts)
        single = _join_chunk(
            CellTable(locations, 100.0), whole, 100.0, exact_segments
        )

        counts = trajectories.point_counts
        bounds = np.concatenate([[0], np.cumsum(counts)])
        billboard_parts, id_parts = [], []
        for start, stop in ((0, split), (split, len(trajectories))):
            chunk = _CorpusChunk(
                trajectories.all_points[bounds[start] : bounds[stop]],
                counts[start:stop],
            )
            billboard_ids, local_ids = _join_chunk(
                CellTable(locations, 100.0), chunk, 100.0, exact_segments
            )
            billboard_parts.append(billboard_ids)
            id_parts.append(local_ids + start)

        billboard_ids = np.concatenate(billboard_parts)
        order = np.lexsort((np.concatenate(id_parts), billboard_ids))
        assert np.array_equal(single[0], billboard_ids[order])
        assert np.array_equal(single[1], np.concatenate(id_parts)[order])
