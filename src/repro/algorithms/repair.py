"""Bounded repair: the shared greedy + BLS pass behind quote pricing.

The online host prices a proposal by *repairing* the standing plan around
one newcomer: greedy fills the newcomer from the free pool, then a bounded
number of billboard-driven local-search sweeps smooths the neighbourhood.
Both the from-scratch path (``pricing="full"``) and the incremental path
(``pricing="incremental"``) funnel through :func:`bounded_repair`, so the
two can only differ in *what they skip* — never in the moves they accept —
which is the bit-identity contract of DESIGN.md §15.
"""

from __future__ import annotations

from repro.algorithms.bls import (
    _find_improving_exchange,
    _release_pass_improves,
    billboard_driven_local_search,
)
from repro.algorithms.greedy_global import synchronous_greedy
from repro.algorithms.screen import ScreenRoundPlanner
from repro.algorithms.sweep import BillboardSweepState
from repro.core.allocation import Allocation


def bounded_repair(
    allocation: Allocation,
    newcomer_id: int,
    sweeps: int,
    state: BillboardSweepState | None = None,
    min_improvement: float = 1e-9,
    stats: dict | None = None,
) -> Allocation:
    """Greedy-fill one newcomer, then run ``sweeps`` bounded BLS sweeps.

    With ``state`` (a live :class:`BillboardSweepState`), the BLS pass runs
    warm: certificates earned by earlier repairs against the identical
    allocation state restrict the scans to the free pool plus the dirty set
    around the newcomer.  The greedy fill is stamped as one move touching the
    newcomer *before* the sweeps — it changed the newcomer's set and the
    newcomer's contract differs from whatever the slot previously held, so
    every certificate involving newcomer-owned billboards must be treated as
    stale (this also invalidates the top-up certificate, since the greedy
    drained the free pool it was earned against).

    Repairs ``allocation`` in place and returns it (BLS runs its top-up in
    place too, so a recording caller's journal slice holds every move).
    """
    synchronous_greedy(allocation, active={newcomer_id}, stats=stats)
    if state is not None:
        state.mark_move(advertisers=(newcomer_id,))
    if sweeps:
        # A carried (settled) state skips every scan its certificates cover,
        # so the warm quote pays O(delta) where the cold quote pays O(book).
        # The accepted moves are identical either way (every certificate
        # skip is backed by a proof the scan returns ``None``).
        allocation = billboard_driven_local_search(
            allocation,
            min_improvement=min_improvement,
            max_sweeps=sweeps,
            stats=stats,
            state=state,
        )
    return allocation


def settle_certificates(
    allocation: Allocation,
    state: BillboardSweepState,
    min_improvement: float = 1e-9,
) -> None:
    """Re-certify a standing plan's sweep state without moving anything.

    Bounded repairs stop at ``max_sweeps`` before their last accepted moves
    are re-certified, so a freshly committed book leaves most scan
    certificates behind the current version — and every subsequent quote
    then screens against a changed-candidate pool of half the inventory.
    This pass runs the exchange screen (and, for rows the screen cannot
    clear, the exact restricted scan) plus the batched release screen over
    the standing plan **read-only**: rows priced non-improving are certified
    at the current version — exactly the proof the BLS sweep records
    after a failed screen or a ``None`` scan.  A row whose scan *does* find
    an improving exchange is left uncertified: the move is not applied (the
    plan must stay byte-identical to what the accept sequence produced), so
    its certificate would be a lie.

    Soundness is the BLS sweep's own invariant (DESIGN.md §10): a
    certificate only ever claims "the full scan at this version returns
    ``None``", which the screen/scan pair proves.  Settling therefore
    changes what later warm sweeps *skip*, never the moves they accept.
    """
    planner = ScreenRoundPlanner(
        allocation,
        state,
        min_improvement,
        track=False,
        # Read-only: no move is ever applied, so nothing invalidates the
        # round — one eager screen covers the whole book.
        eager_rounds=True,
    )
    for advertiser_id in range(allocation.instance.num_advertisers):
        billboard_list = sorted(allocation.billboards_of(advertiser_id))
        for position, billboard_id in enumerate(billboard_list):
            survived, screen_ids = planner.lookup(
                advertiser_id, position, billboard_list
            )
            if survived:
                # The screen's survivors carry the certificate proof that
                # every excluded partner is non-improving, so the exact scan
                # runs restricted — same soundness as the BLS sweep's.
                partner = _find_improving_exchange(
                    allocation, advertiser_id, billboard_id, screen_ids, min_improvement
                )
                if partner is not None:
                    continue  # a real improving move: cannot certify
            state.certify_scan(billboard_id)
        if state.release_pass_clean(advertiser_id):
            continue
        if billboard_list and not _release_pass_improves(
            allocation, advertiser_id, billboard_list, min_improvement
        ):
            state.certify_release_pass(advertiser_id)
