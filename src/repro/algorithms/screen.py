"""Round-fused exchange screens for the BLS sweep loop (DESIGN.md §13).

The sweep's optimistic exchange screen is a pure function of the current
allocation: given an outgoing billboard and its candidate set, the interval
arithmetic proves (or fails to prove) that no improving exchange exists
among the candidates.  Per billboard, the screen dominated sweep wall
(~60% in the trace attribution) — mostly numpy call overhead and candidate
set construction, not arithmetic volume.

This module collapses the screen to *round* granularity:

* :func:`~repro.algorithms.sweep.round_candidates` builds every remaining
  billboard's candidate set in one broadcasted pass over the version
  counters (bit-identical per row to the scalar changed-candidate /
  full-scan masks the tests keep as oracles);
* :func:`round_flags` prices every (billboard, candidate) pair of the round
  in one fused vectorized pass — elementwise identical arithmetic to the
  scalar per-billboard screen, so the verdict vectors are bit-identical;
* :class:`ScreenRoundPlanner` caches one round's verdicts for the sweep and
  drops them after every accepted move, so each verdict is consumed at
  exactly the allocation state the per-billboard screen would have computed
  it at — the accepted move sequence cannot drift.  Rows are screened in
  geometrically growing chunks (1, 2, 4, …) from the visit frontier, capped
  at :data:`SERIAL_CHUNK_CELLS`: move-heavy stretches, where the next
  accepted move would throw eager work away, cost one row per miss exactly
  like the per-billboard screen, while quiescent stretches — the
  verification sweep and the late sweeps where the screen wall actually
  concentrates — fuse the whole remaining round within a logarithmic
  number of dispatches.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.algorithms._marginal import _regret_values_unchecked
from repro.algorithms.sweep import round_candidates
from repro.core.allocation import UNASSIGNED

#: Chunk growth stops at this many cells (rows × candidates per row).  The
#: fused pass materializes several float64 temporaries proportional to the
#: chunk's candidate volume; past this size they fall out of cache and the
#: screen turns memory-bound (measured at bench scale: unbounded chunks
#: cost ~25% more wall than capped ones), while chunks this size still
#: amortize the numpy call overhead dozens of rows at a time.
SERIAL_CHUNK_CELLS = 1 << 16


def _optimistic_regret(
    payments: np.ndarray,
    demands: np.ndarray,
    gamma: float,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Minimum Eq. 1 regret reachable with achieved influence in ``[lo, hi]``.

    Regret decreases in the unsatisfied branch, drops to 0 exactly at the
    demand, and increases in the excessive branch, so the minimum is at the
    point of the interval closest to the demand.

    All operands broadcast (scalars welcome).  Demand positivity is enforced
    once at :class:`~repro.core.problem.MROAMInstance` construction, not per
    call — this runs inside the exchange screen's hot path.
    """
    lo = np.maximum(lo, 0.0)
    hi = np.maximum(hi, lo)
    at_hi = payments * (1.0 - gamma * hi / demands)  # still unsatisfied at hi
    at_lo = payments * (lo - demands) / demands  # already excessive at lo
    result = np.where(hi < demands, at_hi, 0.0)
    return np.where(lo > demands, at_lo, result)


def round_flags(
    instance,
    owners: np.ndarray,
    influences: np.ndarray,
    advertiser_ids: np.ndarray,
    billboard_ids: np.ndarray,
    flat_candidates: np.ndarray,
    lengths: np.ndarray,
    min_improvement: float,
) -> np.ndarray:
    """Screen verdicts for every row of a round in one fused pass.

    ``flags[k] is False`` proves that exchanging ``billboard_ids[k]`` with
    any of its candidates improves total regret by at most
    ``min_improvement``: the own side lands in ``[v_i − I(o_m), v_i +
    I(o_n)]`` and an assigned partner in ``[v_j − I(o_n), v_j + I(o_m)]``,
    so the summed best-case regret drop upper-bounds the true improvement.
    The arithmetic is elementwise with per-row scalars broadcast via
    ``repeat``, so each row's verdict is bit-identical to the scalar
    per-billboard screen on the same candidate set.
    """
    verdicts = np.zeros(len(billboard_ids), dtype=bool)
    keep = np.nonzero(lengths > 0)[0]
    if len(keep) == 0:
        return verdicts
    individual = instance.coverage.individual_influences_f64
    influences_f64 = np.asarray(influences).astype(np.float64)
    seg_lengths = lengths[keep]
    starts = np.zeros(len(keep), dtype=np.int64)
    np.cumsum(seg_lengths[:-1], out=starts[1:])

    row_advertisers = np.asarray(advertiser_ids, dtype=np.int64)[keep]
    outgoing = np.repeat(np.asarray(billboard_ids, dtype=np.int64)[keep], seg_lengths)
    row_payments = instance.payments[row_advertisers]
    row_demands = instance.demands[row_advertisers]
    row_influence = influences_f64[row_advertisers]
    row_regret = _regret_values_unchecked(
        row_payments, row_demands, instance.gamma, row_influence
    )
    own_influence = np.repeat(row_influence, seg_lengths)

    own_best = _optimistic_regret(
        np.repeat(row_payments, seg_lengths),
        np.repeat(row_demands, seg_lengths),
        instance.gamma,
        own_influence - individual[outgoing],
        own_influence + individual[flat_candidates],
    )
    potential = np.repeat(row_regret, seg_lengths) - own_best

    candidate_owners = owners[flat_candidates]
    assigned = candidate_owners != UNASSIGNED
    if assigned.any():
        partner_ids = candidate_owners[assigned]
        partner_influence = influences_f64[partner_ids]
        partner_payments = instance.payments[partner_ids]
        partner_demands = instance.demands[partner_ids]
        partner_regret = _regret_values_unchecked(
            partner_payments,
            partner_demands,
            instance.gamma,
            partner_influence,
        )
        partner_best = _optimistic_regret(
            partner_payments,
            partner_demands,
            instance.gamma,
            partner_influence - individual[flat_candidates[assigned]],
            partner_influence + individual[outgoing[assigned]],
        )
        potential[assigned] += partner_regret - partner_best
    verdicts[keep] = np.logical_or.reduceat(potential > min_improvement, starts)
    return verdicts


class ScreenRoundPlanner:
    """Round-level verdict cache for the BLS sweep's exchange phase.

    One *round* covers every billboard the phase has yet to visit: the
    current advertiser's remaining list plus all later advertisers' sets.
    Verdicts stay valid while the allocation is unchanged; every accepted
    move calls :meth:`invalidate`, so a verdict is always consumed at the
    allocation state the per-billboard screen would have computed it
    at.  A ``certify_scan`` between misses never invalidates: it stamps only
    the screened billboard's own certificate, which no other row's candidate
    set reads.

    The round is screened lazily in chunks that double per miss (1, 2, 4,
    …), resetting after every invalidation.  This keeps the planner no worse
    than the per-billboard screen when moves land constantly (each chunk is
    then a single frontier row) and lets it fuse the whole remaining
    inventory once moves dry up, which is where the screen wall
    concentrates.

    Moves themselves are never computed here — the sweep replays surviving
    exchanges through the exact restricted scan, which is what keeps the
    move sequence (and the final verification sweep's guarantee) identical
    to the per-billboard screen's.
    """

    def __init__(
        self,
        allocation,
        state,
        min_improvement: float,
        verifying: bool,
        track: bool,
        eager_rounds: bool = False,
    ) -> None:
        self.allocation = allocation
        self.state = state
        self.min_improvement = min_improvement
        self.verifying = verifying
        self.track = track
        self.screen_seconds = 0.0
        self._valid = False
        self._chunk_rows = 1
        # Eager rounds: the first screen of the round covers the whole
        # remaining frontier (still bounded by the chunk cell cap) instead
        # of doubling up from one row.  Callers that expect few or no moves —
        # warm quote repairs on a settled state, the read-only settle pass —
        # opt in: nine doubling dispatches collapse into one or two, and the
        # post-move reset below still drops back to single-row chunks when a
        # move does land.  Verdicts are row-wise and chunking-invariant, so
        # this changes wall-clock only.
        self._next_chunk = (1 << 30) if eager_rounds else 1
        self._verdicts: dict[int, bool] = {}
        self._survivor_sets: dict[int, np.ndarray] = {}

    def invalidate(self) -> None:
        """Drop the cached verdicts (call after every accepted move)."""
        self._valid = False
        self._next_chunk = 1  # a move landed: assume more follow nearby

    def lookup(
        self, advertiser_id: int, position: int, billboard_list: list[int]
    ) -> tuple[bool, np.ndarray | None]:
        """Verdict (and, for survivors, the screened candidate ids) of
        ``billboard_list[position]`` owned by ``advertiser_id``.

        A miss — the cache was invalidated by a move, or the visit frontier
        passed the covered prefix — screens the next chunk of the remaining
        round, starting at this row.  Chunks double per consecutive miss and
        reset to one row after an invalidation.
        """
        billboard_id = billboard_list[position]
        if not self._valid:
            self._verdicts = {}
            self._survivor_sets = {}
            self._chunk_rows = self._next_chunk
            self._valid = True
        if billboard_id not in self._verdicts:
            self._compute(advertiser_id, position, billboard_list)
        if not self._verdicts.get(billboard_id, False):
            return False, None
        return True, self._survivor_sets[billboard_id]

    def clear_run(
        self, advertiser_id: int, position: int, billboard_list: list[int]
    ) -> tuple[int, list[int]]:
        """The advertiser's screened-clear run starting at ``position``.

        Returns ``(rows_consumed, billboards_to_certify)``: the longest
        prefix of ``billboard_list[position:]`` the sweep loop would walk
        without scanning — rows no longer owned (skipped without a
        certificate) and rows whose cached verdict is ``False`` (skipped
        *with* one).  Stops at the first row whose verdict is missing or
        ``True``.  No move can have landed inside the run (a move empties
        the cache), so the caller may certify the whole run in one
        vectorized stamp — each row lands on exactly the version the
        per-row loop would have written.
        """
        if not self._valid:
            return 0, []
        verdicts = self._verdicts
        owner_of = self.allocation.owner_of
        consumed = 0
        cleared: list[int] = []
        for billboard_id in billboard_list[position:]:
            if owner_of(billboard_id) != advertiser_id:
                consumed += 1  # moved earlier in this sweep: skip, no stamp
                continue
            if not (billboard_id in verdicts and not verdicts[billboard_id]):
                break
            consumed += 1
            cleared.append(billboard_id)
        return consumed, cleared

    # ------------------------------------------------------------ internals

    def _round_rows(
        self, advertiser_id: int, position: int, billboard_list: list[int], limit: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The next ``limit`` unscreened rows from the visit frontier, in the
        exact order the sweep visits them: the current advertiser's
        remaining (still-owned) list, then each later advertiser's sorted
        set."""
        allocation = self.allocation
        advertisers: list[int] = []
        billboards: list[int] = []
        for candidate in billboard_list[position:]:
            if len(billboards) >= limit:
                break
            if allocation.owner_of(candidate) == advertiser_id:
                advertisers.append(advertiser_id)
                billboards.append(candidate)
        later = advertiser_id + 1
        while len(billboards) < limit and later < allocation.instance.num_advertisers:
            for candidate in sorted(allocation.billboards_of(later)):
                if len(billboards) >= limit:
                    break
                advertisers.append(later)
                billboards.append(candidate)
            later += 1
        return (
            np.asarray(advertisers, dtype=np.int64),
            np.asarray(billboards, dtype=np.int64),
        )

    def _row_width(self) -> int:
        """Estimated candidates per row, for the cache-bound chunk cap.

        A cold (or verifying) state screens full-inventory rows, so the cap
        divides by the inventory as before.  A settled warm state screens
        only the billboards stamped since the oldest owned certificate — a
        handful per row — so the cap can admit proportionally more rows per
        fused round, collapsing a whole warm sweep into one or two screen
        calls.  Purely a chunking heuristic: verdicts are computed row-wise
        and are chunking-invariant, so this changes wall-clock only.
        """
        allocation = self.allocation
        inventory = allocation.instance.num_billboards
        if self.verifying:
            return inventory
        state = self.state
        owners = allocation.owners
        assigned = owners != UNASSIGNED
        if not assigned.any():
            return inventory
        # The certificate floor is taken over rows that will actually screen
        # restricted; own-side-stale rows (owner moved since certification,
        # or never certified) take the full mask whatever the floor says,
        # and their billboards count into the width below via their fresh
        # stamps instead.
        owned = np.nonzero(assigned)[0]
        cert = state.scan_version[owned]
        current = (cert > 0) & (state.advertiser_version[owners[owned]] <= cert)
        if not current.any():
            return inventory
        floor = int(cert[current].min())
        stamp = np.where(
            assigned,
            state.advertiser_version[np.where(assigned, owners, 0)],
            state.freed_version,
        )
        return max(int((stamp > floor).sum()), 1)

    def _compute(
        self, advertiser_id: int, position: int, billboard_list: list[int]
    ) -> None:
        started = time.perf_counter() if self.track else 0.0  # repro-lint: ignore[determinism] telemetry-only clock
        limit = min(
            self._chunk_rows,
            max(1, SERIAL_CHUNK_CELLS // max(self._row_width(), 1)),
        )
        advertiser_ids, billboard_ids = self._round_rows(
            advertiser_id, position, billboard_list, limit
        )
        self._chunk_rows = limit * 2
        obs.counter_add("bls.screen.rounds")
        if len(billboard_ids) == 0:
            if self.track:
                self.screen_seconds += time.perf_counter() - started  # repro-lint: ignore[determinism] telemetry-only clock
            return
        allocation = self.allocation
        state = self.state
        owners = allocation.owners
        certified = state.round_certificates(
            advertiser_ids, billboard_ids, self.verifying
        )
        flags, survivors = self._screen_round(
            owners, advertiser_ids, billboard_ids, certified
        )
        self._verdicts.update(
            zip((int(b) for b in billboard_ids), flags.tolist())
        )
        self._survivor_sets.update(survivors)
        if self.track:
            self.screen_seconds += time.perf_counter() - started  # repro-lint: ignore[determinism] telemetry-only clock

    def _screen_round(
        self,
        owners: np.ndarray,
        advertiser_ids: np.ndarray,
        billboard_ids: np.ndarray,
        certified: np.ndarray,
    ) -> tuple[np.ndarray, dict]:
        allocation = self.allocation
        state = self.state
        flat, lengths = round_candidates(
            owners,
            advertiser_ids,
            billboard_ids,
            certified,
            state.advertiser_version,
            state.freed_version,
        )
        flags = round_flags(
            allocation.instance,
            owners,
            allocation.influences,
            advertiser_ids,
            billboard_ids,
            flat,
            lengths,
            self.min_improvement,
        )
        offsets = np.zeros(len(billboard_ids), dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        survivors = {
            int(billboard_ids[k]): flat[offsets[k] : offsets[k] + lengths[k]]
            for k in np.nonzero(flags)[0]
        }
        return flags, survivors
