"""Shared-memory coverage export/attach: zero-copy, read-only, leak-free.

An attached ``CoverageIndex`` must answer every kernel query bit-identically
to the index it was exported from, and closing the ``SharedCoverage`` (or
exiting the creating process) must leave nothing behind in ``/dev/shm``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.billboard.influence import CoverageIndex
from repro.core.allocation import Allocation
from repro.parallel import SharedCoverage, attach_array
from tests.conftest import make_random_instance, random_allocation

REPO_ROOT = Path(__file__).resolve().parents[2]


def shm_entries(spec) -> list[str]:
    """The ``/dev/shm`` file names belonging to a spec's segments."""
    names = [spec.flat.name, spec.offsets.name]
    shm_dir = Path("/dev/shm")
    return [name for name in names if (shm_dir / name.lstrip("/")).exists()]


@pytest.fixture
def instance():
    return make_random_instance(
        11, num_billboards=24, num_trajectories=60, num_advertisers=4
    )


class TestRoundTrip:
    def test_attached_index_answers_identically(self, instance):
        index = instance.coverage
        allocation = random_allocation(instance, seed=3)
        counts = allocation.counts_row(0)
        some_set = sorted(allocation.billboards_of(0))
        with index.to_shared() as shared:
            attached = CoverageIndex.attach_shared(shared.spec)
            assert attached.num_billboards == index.num_billboards
            assert attached.num_trajectories == index.num_trajectories
            assert attached.influence_of_set(some_set) == index.influence_of_set(
                some_set
            )
            assert np.array_equal(
                attached.batch_add_gains(counts),
                index.batch_add_gains(counts),
            )
            if some_set:
                removed = some_set[0]
                assert np.array_equal(
                    attached.batch_add_gains_without(counts, removed),
                    index.batch_add_gains_without(counts, removed),
                )

    def test_attached_swap_delta_matches(self, instance):
        with instance.coverage.to_shared() as shared:
            attached = CoverageIndex.attach_shared(shared.spec)
            attached_instance = type(instance)(
                attached, instance.advertisers, instance.gamma
            )
            original = random_allocation(instance, seed=9)
            mirrored = Allocation(attached_instance)
            mirrored.assign_many(
                (billboard, owner)
                for billboard, owner in enumerate(original.owners)
                if owner >= 0
            )
            free = sorted(original.unassigned)
            owned = sorted(original.billboards_of(1))
            if free and owned:
                assert mirrored.influence_delta_add(
                    0, free[0]
                ) == original.influence_delta_add(0, free[0])
                assert mirrored.influence_delta_remove(
                    1, owned[0]
                ) == original.influence_delta_remove(1, owned[0])

    def test_attached_arrays_are_read_only_views(self, instance):
        with instance.coverage.to_shared() as shared:
            attached = CoverageIndex.attach_shared(shared.spec)
            flat, offsets = attached.to_arrays()
            with pytest.raises(ValueError, match="read-only"):
                offsets[0] = 99
            # Zero-copy: the view's buffer is the shared segment, not a copy.
            array, segment = attach_array(shared.spec.flat)
            assert np.array_equal(array, flat)
            segment.close()


class TestLifecycle:
    def test_close_unlinks_segments(self, instance):
        shared = instance.coverage.to_shared()
        spec = shared.spec
        assert shm_entries(spec)  # segments exist while open
        shared.close()
        assert shm_entries(spec) == []
        shared.close()  # idempotent

    def test_counters(self, instance):
        obs.enable()
        try:
            with instance.coverage.to_shared() as shared:
                before = obs.counter_value("shm.attach")
                CoverageIndex.attach_shared(shared.spec)
                assert obs.counter_value("shm.attach") == before + 1
                assert obs.counter_value("shm.create") >= 2
        finally:
            obs.disable()
            obs.reset()

    def test_process_exit_leaves_no_segments(self, tmp_path):
        """The atexit safety net: a creator that never calls ``close()``
        still unlinks its segments on interpreter exit."""
        script = tmp_path / "leaky.py"
        script.write_text(
            "from tests.conftest import make_random_instance\n"
            "instance = make_random_instance(5)\n"
            "shared = instance.coverage.to_shared()\n"
            "spec = shared.spec\n"
            "names = [spec.flat.name, spec.offsets.name]\n"
            "print('\\n'.join(names))\n"
            # no shared.close(): atexit must clean up
        )
        result = subprocess.run(
            [sys.executable, str(script)],
            check=True,
            capture_output=True,
            text=True,
            env={
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": f"{REPO_ROOT / 'src'}:{REPO_ROOT}",
            },
            timeout=120,
        )
        names = result.stdout.split()
        assert names
        leftovers = [
            name for name in names if (Path("/dev/shm") / name.lstrip("/")).exists()
        ]
        assert leftovers == []
