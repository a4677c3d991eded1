"""Streamed trip synthesis evaluates each route leg only where it applies.

``repro.datasets.stream._route_points`` fills the leg-1 and leg-2 points
separately; ``tests.oracles.where_route_points`` evaluates both legs over
every point and picks with ``np.where``.  The points must be byte-identical,
so every corpus the streamed benchmarks build is unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import stream
from repro.datasets.stream import _route_points, nyc_stream
from tests.oracles import where_route_points


def assert_same_bytes(got, expected) -> None:
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", (0, 3, 7))
@pytest.mark.parametrize("chunk_size", (1, 97, 1000))
def test_chunks_match_the_where_form(monkeypatch, seed, chunk_size):
    city = nyc_stream(50, 1000, chunk_size=chunk_size, seed=seed)
    chunks = list(city.chunks())
    monkeypatch.setattr(stream, "_route_points", where_route_points)
    oracle = list(city.chunks())
    assert len(chunks) == len(oracle) == city.num_chunks()
    for chunk, expected in zip(chunks, oracle):
        assert_same_bytes(
            (chunk.all_points, chunk.point_counts),
            (expected.all_points, expected.point_counts),
        )


def test_zero_length_legs():
    """Routes with an empty first leg, an empty second leg, both empty
    (origin = destination), and one crossing a leg boundary exactly."""
    origins = np.array([[0.0, 0.0], [10.0, 5.0], [3.0, 3.0], [0.0, 0.0], [1.0, 2.0]])
    corners = np.array([[0.0, 0.0], [400.0, 5.0], [3.0, 3.0], [120.0, 0.0], [1.0, 2.0]])
    destinations = np.array(
        [[0.0, 250.0], [400.0, 5.0], [3.0, 3.0], [120.0, 60.0], [1.0, 2.0 + 1e-9]]
    )
    got = _route_points(origins, corners, destinations)
    assert_same_bytes(got, where_route_points(origins, corners, destinations))
    along, counts = got
    assert (counts >= 2).all() and len(along) == counts.sum()
    ends = np.cumsum(counts) - 1
    np.testing.assert_allclose(along[ends], destinations, atol=1e-9)
    np.testing.assert_array_equal(along[ends - counts + 1], origins)
