"""The transposed coverage index: trajectory → covering billboards.

The coverage CSR (:mod:`repro.billboard.coverage_build`) lists, per
billboard, the trajectories it covers.  Maintaining per-advertiser gain and
loss vectors (:class:`~repro.core.allocation.Allocation`) needs the other
direction: when a move changes a trajectory's multiplicity counter, every
billboard covering that trajectory changes its gain or loss by one.  This
module builds that direction once per index as a second CSR over the same
pairs, with ``int32`` billboard ids (the inventory never nears 2³¹).
"""

from __future__ import annotations

import numpy as np


def transpose_csr(
    flat_ids: np.ndarray, offsets: np.ndarray, num_trajectories: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(billboard_ids, trajectory_offsets)``: trajectory ``t``'s covering
    billboards are ``billboard_ids[trajectory_offsets[t]:trajectory_offsets[t + 1]]``,
    ascending.

    One stable argsort of ``flat_ids``: the pairs come ordered by billboard,
    so the stable order keeps each trajectory's billboards ascending.
    """
    num_billboards = len(offsets) - 1
    owners = np.repeat(
        np.arange(num_billboards, dtype=np.int32), np.diff(offsets)
    )
    billboard_ids = owners[np.argsort(flat_ids, kind="stable")]
    trajectory_offsets = np.zeros(int(num_trajectories) + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(flat_ids, minlength=int(num_trajectories)),
        out=trajectory_offsets[1:],
    )
    return billboard_ids, trajectory_offsets
