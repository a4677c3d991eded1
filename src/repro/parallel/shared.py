"""Shared-memory segment lifecycle for zero-copy parallel work.

A :class:`SharedCoverage` exports one :class:`~repro.billboard.influence.
CoverageIndex`'s CSR arrays and its transposed lists into
``multiprocessing.shared_memory`` segments.  Worker processes attach numpy
views over the same physical pages instead of unpickling a private copy, so
fanning a solve out over N workers costs one coverage index, not N.

Lifecycle rules:

* the **creator** owns the segments: it unlinks them in :meth:`SharedCoverage.
  close` (called by the drivers in a ``finally`` and, as a safety net, from an
  ``atexit`` hook);
* an **attacher** only closes its mapping — it must never unlink, and it
  unregisters the segment from its ``resource_tracker`` (which would
  otherwise unlink everyone's segment when the first worker exits);
* attached arrays are marked read-only: the kernels only ever read coverage.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro import obs


@dataclass(frozen=True)
class SharedArraySpec:
    """Address of one numpy array living in a shared-memory segment."""

    name: str
    shape: tuple
    dtype: str


@dataclass(frozen=True)
class SharedCoverageSpec:
    """Everything a worker needs to rebuild a read-only ``CoverageIndex``.

    Cheap to pickle (segment names + scalars) — this is what crosses the
    process boundary instead of the index itself.
    """

    flat: SharedArraySpec
    offsets: SharedArraySpec
    covering: SharedArraySpec
    covering_offsets: SharedArraySpec
    num_trajectories: int
    lambda_m: float


def _export_array(array: np.ndarray) -> tuple[shared_memory.SharedMemory, SharedArraySpec]:
    array = np.ascontiguousarray(array)
    segment = shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
    staged = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
    staged[...] = array
    return segment, SharedArraySpec(segment.name, tuple(array.shape), array.dtype.str)


def attach_array(spec: SharedArraySpec) -> tuple[np.ndarray, shared_memory.SharedMemory]:
    """Read-only numpy view over an exported segment, plus the open handle.

    The caller must keep the returned ``SharedMemory`` handle alive as long
    as the array — the view borrows its buffer.
    """
    # Python < 3.13 registers every attach with the resource tracker as if it
    # were a creation, which (a) makes the first exiting attacher's tracker
    # unlink the segment under the creator's feet and (b) — since forked
    # attachers share one tracker whose cache is a set — makes paired
    # unregisters trip KeyErrors inside the tracker.  Suppress the
    # registration for the attach itself; only the creator tracks.
    original_register = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        segment = shared_memory.SharedMemory(name=spec.name)
    finally:
        resource_tracker.register = original_register
    array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
    array.flags.writeable = False
    return array, segment


class SharedCoverage:
    """Owns the shared-memory segments of one exported coverage index."""

    def __init__(self, spec: SharedCoverageSpec, segments: list) -> None:
        self.spec = spec
        self._segments = list(segments)
        self._closed = False
        atexit.register(self.close)

    @classmethod
    def create(cls, index) -> "SharedCoverage":
        """Export ``index``'s CSR arrays and transposed lists into segments."""
        exported = [
            _export_array(array)
            for array in (*index.to_arrays(), *index.to_transposed_arrays())
        ]
        segments = [segment for segment, _ in exported]
        flat_spec, offsets_spec, covering_spec, covering_offsets_spec = (
            spec for _, spec in exported
        )
        spec = SharedCoverageSpec(
            flat=flat_spec,
            offsets=offsets_spec,
            covering=covering_spec,
            covering_offsets=covering_offsets_spec,
            num_trajectories=index.num_trajectories,
            lambda_m=index.lambda_m,
        )
        obs.counter_add("shm.create", len(segments))
        return cls(spec, segments)

    def close(self) -> None:
        """Close and unlink every segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        atexit.unregister(self.close)

    def __enter__(self) -> "SharedCoverage":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
