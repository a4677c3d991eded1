"""Observability test fixtures.

Every test starts and ends with a fresh process's obs state — collection
off, no output configured, an empty registry and event buffer — so tests
can enable/instrument freely without leaking state into each other (or
into the rest of the suite, which runs with obs off — the default).
"""

from __future__ import annotations

import pytest

from repro.obs.registry import _STATE


@pytest.fixture(autouse=True)
def _obs_clean():
    _STATE.__init__()
    yield
    _STATE.__init__()
