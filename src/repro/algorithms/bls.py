"""Billboard-driven local search (paper Algorithm 5).

The fine-grained neighbourhood: starting from the current plan, apply any of
four move families that reduces total regret, until none does:

1. exchange a billboard of one advertiser with a billboard of another;
2. exchange an assigned billboard with an unassigned one;
3. release an assigned billboard back to the pool;
4. top up with the synchronous greedy over the unassigned pool.

Theorem 2 shows this search reaches a ``(1+r)``-approximate local maximum of
the dual objective ``R'`` (see :mod:`repro.theory.duality`).

Scanning every billboard pair exactly would cost ``O(|U|²)`` exact delta
evaluations per sweep.  We keep the search exact but prune with
*optimistic improvement bounds*: for a candidate exchange, each affected
advertiser's post-move influence provably lands in an interval, so the best
regret reachable over that interval upper-bounds the move's improvement.
Termination at a genuine local minimum is therefore preserved.

The sweep loop is the dirty-set engine: version counters
(:mod:`repro.algorithms.sweep`) certify which scans provably cannot find a
move since nothing near them changed, and an interval screen
(:mod:`repro.algorithms.screen`) clears the rows none of whose candidates
can beat the acceptance threshold.  The screen reads both sides' intervals
from the allocation's maintained gain/loss vectors: the exact influence is
the interval's low end plus an overlap count that neither side's loss can
exceed (DESIGN.md §13).  Inside a surviving scan, owner↔owner partners are
ordered by a looser individual-influence bound and confirmed exactly in
that order while it exceeds the threshold.  Skipped work is
*proof-backed*, so the loop accepts the identical move sequence as the
literal rescan-everything loop of Algorithm 5 (kept as the test oracle in
``tests/oracles.py``) and, like it, stops at the first sweep that accepts
nothing (DESIGN.md §9).  Scans that survive the screen run *restricted* to
the screened candidates (DESIGN.md §10).  ``tests/oracles.CertificateAudit``
reruns the unrestricted oracle at every skip to check those proofs.

Exact prices come from the allocation's maintained gain/loss vectors
(DESIGN.md §16), never from per-candidate CSR gathers: the own side of a
scan is ``gain + covering_counts(sole(o_m))``, the release pass reads
``loss``, and the owner↔owner partners whose bound clears the threshold
are confirmed in one vectorized pass (``bls_partner_exact_evals`` counts
the candidates those passes price).
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.algorithms._marginal import _regret_values_unchecked
from repro.algorithms.greedy_global import synchronous_greedy
from repro.algorithms.screen import ScreenRoundPlanner, _optimistic_regret
from repro.algorithms.sweep import BillboardSweepState
from repro.core.allocation import UNASSIGNED, Allocation
from repro.core.moves import delta_release


def _select_partner(
    allocation: Allocation,
    advertiser_id: int,
    billboard_id: int,
    own_regret: float,
    released_influence: float,
    candidates: np.ndarray,
    gains: np.ndarray,
    min_improvement: float,
    counters: dict | None,
) -> int | None:
    """Pick the best exchange partner given the own-side batch gains.

    ``gains[i]`` must price ``S_i − o_m + o_{candidates[i]}`` (both scan
    variants produce exactly this, full or candidate-restricted); everything
    downstream — the free-side argmin, the bound-ordered partner
    confirmation — is shared so the variants cannot drift apart.
    ``candidates`` must be ascending and exclude ``billboard_id`` and
    ``advertiser_id``'s own billboards; tie-breaks resolve by position, so a
    restricted scan whose candidate set provably contains every improving
    partner returns the identical choice as the full scan.
    """
    instance = allocation.instance
    individual = instance.coverage.individual_influences_f64
    advertiser = instance.advertisers[advertiser_id]

    owners = allocation.owners
    candidate_owners = owners[candidates].copy()
    if counters is not None:
        counters["exchange_evaluated"] = counters.get("exchange_evaluated", 0) + len(
            candidates
        )

    own_new = released_influence + gains.astype(np.float64)
    own_delta = (
        _regret_values_unchecked(
            advertiser.payment, float(advertiser.demand), instance.gamma, own_new
        )
        - own_regret
    )

    assigned = candidate_owners != UNASSIGNED
    free = ~assigned

    # Free candidates: the own-side delta is the whole story.
    best_free: int | None = None
    best_free_delta = -min_improvement
    if free.any():
        free_deltas = own_delta[free]
        position = int(np.argmin(free_deltas))
        if free_deltas[position] < best_free_delta:
            best_free = int(candidates[free][position])
            best_free_delta = float(free_deltas[position])

    # Assigned candidates: add an optimistic partner-side bound, then
    # confirm the bound-eligible ones exactly.
    best_assigned: int | None = None
    best_assigned_delta = 0.0
    if assigned.any():
        all_influences = allocation.influences.astype(np.float64)
        regret_by_advertiser = _regret_values_unchecked(
            instance.payments, instance.demands, instance.gamma, all_influences
        )
        assigned_candidates = candidates[assigned]
        partner_ids = candidate_owners[assigned]
        partner_influence = all_influences[partner_ids]
        partner_regret = regret_by_advertiser[partner_ids]
        # Partner j loses o_n and gains o_m: influence lands in
        # [v_j - I(o_n), v_j + I(o_m)].
        lo = partner_influence - individual[assigned_candidates]
        hi = partner_influence + float(individual[billboard_id])
        partner_best = _optimistic_regret(
            instance.payments[partner_ids],
            instance.demands[partner_ids],
            instance.gamma,
            lo,
            hi,
        )
        improvement_bound = -(own_delta[assigned] + (partner_best - partner_regret))

        confirmed = _confirm_partner(
            allocation,
            billboard_id,
            assigned_candidates,
            partner_ids,
            partner_influence,
            partner_regret,
            own_delta[assigned],
            improvement_bound,
            min_improvement,
            counters,
        )
        if confirmed is not None:
            best_assigned, best_assigned_delta = confirmed

    if best_free is None and best_assigned is None:
        return None
    if best_assigned is None:
        return best_free
    if best_free is None:
        return best_assigned
    return best_free if best_free_delta <= best_assigned_delta else best_assigned


def _confirm_partner(
    allocation: Allocation,
    billboard_id: int,
    candidates: np.ndarray,
    partner_ids: np.ndarray,
    partner_influence: np.ndarray,
    partner_regret: np.ndarray,
    own_delta: np.ndarray,
    improvement_bound: np.ndarray,
    min_improvement: float,
    counters: dict | None,
) -> tuple[int, float] | None:
    """The first assigned candidate, in descending-bound order, whose bound
    exceeds ``min_improvement`` and whose exact total regret change is below
    ``−min_improvement``, with that total; ``None`` if there is none.

    Arrays align with ``candidates`` (assigned exchange partners of
    ``billboard_id``, ascending), ``partner_ids`` their owners.  Every
    bound-eligible candidate is priced exactly in one vectorized pass
    (:meth:`~repro.core.allocation.Allocation.partner_swap_deltas`); the
    stable sort keeps equal bounds in ascending-candidate order, so full
    and restricted scans confirm tied candidates in the same order.
    """
    eligible = np.flatnonzero(improvement_bound > min_improvement)
    if len(eligible) == 0:
        return None
    eligible = eligible[np.argsort(-improvement_bound[eligible], kind="stable")]
    if counters is not None:
        counters["partner_exact"] = counters.get("partner_exact", 0) + len(eligible)
    instance = allocation.instance
    partners = partner_ids[eligible]
    partner_new = partner_influence[eligible] + allocation.partner_swap_deltas(
        billboard_id, candidates[eligible]
    )
    partner_delta = (
        _regret_values_unchecked(
            instance.payments[partners],
            instance.demands[partners],
            instance.gamma,
            partner_new,
        )
        - partner_regret[eligible]
    )
    totals = own_delta[eligible] + partner_delta
    improving = np.flatnonzero(totals < -min_improvement)
    if len(improving) == 0:
        return None
    first = improving[0]
    return int(candidates[eligible[first]]), float(totals[first])


def _find_improving_exchange(
    allocation: Allocation,
    advertiser_id: int,
    billboard_id: int,
    candidate_ids: np.ndarray,
    min_improvement: float,
    counters: dict | None = None,
) -> int | None:
    """Best-bound-first search for an improving exchange partner of
    ``billboard_id`` (owned by ``advertiser_id``) among ``candidate_ids``,
    or ``None``.

    The maintained gain vector yields the *exact* own-side regret delta for
    every candidate: the released state ``S_i − o_m`` is priced as
    ``gain + covering_counts(sole(o_m))``
    (:meth:`~repro.core.allocation.Allocation.gains_without`) against the
    *unmodified* allocation.  Free-candidate exchanges are then fully priced
    with no per-candidate work, and the partner advertiser's side of
    owner↔owner exchanges keeps an optimistic interval bound whose eligible
    candidates one vectorized exact pass confirms (:func:`_select_partner`).

    ``candidate_ids`` (ascending, excluding ``billboard_id`` and the
    advertiser's own billboards) restricts the scan and its kernel pass.
    The sweep passes the screened changed-candidate set, whose certificates
    prove every excluded partner non-improving, so the answer equals that of
    a scan over every legal partner (DESIGN.md §10).
    """
    instance = allocation.instance
    own_influence = float(allocation.influence(advertiser_id))
    own_regret = instance.regret_of(advertiser_id, own_influence)
    released_influence = own_influence - float(
        allocation.influence_delta_remove(advertiser_id, billboard_id)
    )
    gains = allocation.gains_without(advertiser_id, billboard_id)[candidate_ids]
    return _select_partner(
        allocation,
        advertiser_id,
        billboard_id,
        own_regret,
        released_influence,
        candidate_ids,
        gains,
        min_improvement,
        counters,
    )


def _release_pass_improves(
    allocation: Allocation,
    advertiser_id: int,
    owned: list[int],
    min_improvement: float,
) -> bool:
    """Whether releasing any one billboard in ``owned`` improves total regret
    by more than ``min_improvement``, priced from the maintained losses.

    Equivalent to looping :func:`~repro.core.moves.delta_release` over
    ``owned`` against the unchanged allocation: the losses are the
    allocation's loss vector at the owned billboards, and the regret
    arithmetic repeats Eq. 1 with the same operation order as the scalar
    path, so ``False`` proves the sequential release loop would accept
    nothing.
    """
    instance = allocation.instance
    losses = allocation.losses[advertiser_id, owned]
    advertiser = instance.advertisers[advertiser_id]
    before = float(allocation.influence(advertiser_id))
    deltas = _regret_values_unchecked(
        advertiser.payment,
        float(advertiser.demand),
        instance.gamma,
        before - losses.astype(np.float64),
    ) - instance.regret_of(advertiser_id, before)
    return bool(np.any(deltas < -min_improvement))


def _emit_sweep_phases(
    started: float,
    screen_s: float,
    exchange_s: float,
    release_s: float,
    topup_s: float,
) -> None:
    """Record one sweep's phase split (histograms + a ``bls.sweep`` trace event).

    Only called when collection is on — the loop samples the clock per phase
    boundary, not per move, so the instrumented sweep costs a handful of
    ``perf_counter`` reads.
    """
    duration_s = time.perf_counter() - started  # repro-lint: ignore[determinism] telemetry-only clock
    obs.histogram_observe("bls.phase.screen", screen_s)
    obs.histogram_observe("bls.phase.exchange", exchange_s)
    obs.histogram_observe("bls.phase.release", release_s)
    obs.histogram_observe("bls.phase.topup", topup_s)
    obs.emit_complete(
        "bls.sweep",
        started,
        duration_s,
        cat="bls",
        args={
            "screen_s": screen_s,
            "exchange_s": exchange_s,
            "release_s": release_s,
            "topup_s": topup_s,
        },
    )


def _emit_stats(stats: dict, sweeps, exchanges, releases, topups, counters) -> None:
    stats["bls_sweeps"] = stats.get("bls_sweeps", 0) + sweeps
    stats["bls_exchanges"] = stats.get("bls_exchanges", 0) + exchanges
    stats["bls_releases"] = stats.get("bls_releases", 0) + releases
    stats["bls_topups"] = stats.get("bls_topups", 0) + topups
    stats["bls_exchange_evaluated"] = stats.get(
        "bls_exchange_evaluated", 0
    ) + counters.get("exchange_evaluated", 0)
    stats["bls_release_evaluated"] = stats.get(
        "bls_release_evaluated", 0
    ) + counters.get("release_evaluated", 0)
    stats["bls_partner_exact_evals"] = stats.get(
        "bls_partner_exact_evals", 0
    ) + counters.get("partner_exact", 0)


def billboard_driven_local_search(
    allocation: Allocation,
    min_improvement: float = 1e-9,
    max_sweeps: int | None = None,
    stats: dict | None = None,
    state: BillboardSweepState | None = None,
) -> Allocation:
    """Run Algorithm 5; returns the improved allocation (may be a new object).

    Accepts exactly the moves the literal rescan loop accepts: every skipped
    scan is backed by a version certificate or an interval-screen proof that
    the unrestricted scan would have returned ``None`` there, so the first
    sweep that accepts nothing ends the search at a local optimum (see the
    module docstring and DESIGN.md §9–10).

    Parameters
    ----------
    allocation:
        Starting plan; mutated in place for move families 1–3.
    min_improvement:
        Minimum absolute regret reduction for a move to be accepted.  This is
        the ``r``-style improvement threshold of Definition 6.1 (expressed
        absolutely rather than relatively) and also guards against
        float-noise cycling.
    max_sweeps:
        Optional hard cap on full sweeps (None = run to local optimality).
    stats:
        Optional output dict receiving move counters.
    state:
        Optional :class:`BillboardSweepState` carried across invocations
        (warm certificates for the incremental quoting engine, DESIGN.md
        §15).  Sound only when the allocation is byte-identical to where the
        certificates were earned — which the journal's rollback guarantees;
        a cold run on the same allocation takes the identical move sequence
        because every warm skip is backed by a proof that the cold scan
        would return ``None`` there.  A carried state also switches the
        exchange screen to eager rounds (see :func:`_search`).
    """
    with obs.span("bls.search"):
        return _search(allocation, min_improvement, max_sweeps, stats, state)


def _search(
    allocation: Allocation,
    min_improvement: float,
    max_sweeps: int | None,
    stats: dict | None,
    state: BillboardSweepState | None,
) -> Allocation:
    """The dirty-set sweep loop behind :func:`billboard_driven_local_search`."""
    instance = allocation.instance
    # A carried state (warm quote repairs) expects few or no moves per
    # sweep: screen the whole frontier in one eager round instead of
    # doubling up from one row.  Cold solves keep the adaptive doubling —
    # their early sweeps are move-heavy and eager rounds would screen rows a
    # move is about to invalidate.
    eager_rounds = state is not None
    if state is None:
        state = BillboardSweepState(instance.num_advertisers, instance.num_billboards)
    journaled = bool(getattr(allocation, "journaling", False))
    sweeps = 0
    exchanges = 0
    releases = 0
    topups = 0
    scanned = 0
    skipped = 0
    counters: dict = {}

    while True:
        sweeps += 1
        improved = False
        track = obs.enabled()
        sweep_start = time.perf_counter() if track else 0.0  # repro-lint: ignore[determinism] telemetry-only clock

        # Move families 1 & 2: pairwise and assigned↔free exchanges.  Screens
        # run at *round* granularity — one fused bound computation over the
        # billboards the phase has yet to visit (ScreenRoundPlanner),
        # recomputed after every accepted move.
        planner = ScreenRoundPlanner(
            allocation, state, min_improvement, track, eager_rounds=eager_rounds
        )
        for advertiser_id in range(instance.num_advertisers):
            billboard_list = sorted(allocation.billboards_of(advertiser_id))
            position = 0
            while position < len(billboard_list):
                billboard_id = billboard_list[position]
                if allocation.owner_of(billboard_id) != advertiser_id:
                    position += 1
                    continue  # already moved earlier in this sweep
                survived, screen_ids = planner.lookup(
                    advertiser_id, position, billboard_list
                )
                if not survived:
                    # The cached round covers the advertiser's remaining
                    # screened-clear run (eager rounds cover whole warm
                    # sweeps): certify it with one vectorized stamp instead
                    # of one loop iteration per row.
                    consumed, cleared = planner.clear_run(
                        advertiser_id, position, billboard_list
                    )
                    if consumed:
                        if cleared:
                            state.certify_scans(cleared)
                            skipped += len(cleared)
                        position += consumed
                        continue
                    skipped += 1
                    state.certify_scan(billboard_id)
                    position += 1
                    continue
                scanned += 1
                # The screened set already carries the certificate proof that
                # every other candidate is non-improving, so the exact scan
                # (and its coverage pass) runs restricted to it.
                partner = _find_improving_exchange(
                    allocation,
                    advertiser_id,
                    billboard_id,
                    screen_ids,
                    min_improvement,
                    counters,
                )
                if partner is None:
                    state.certify_scan(billboard_id)
                    position += 1
                    continue
                partner_owner = allocation.owner_of(partner)
                allocation.exchange_billboards(billboard_id, partner)
                if partner_owner == UNASSIGNED:
                    # Family 2: billboard_id itself returns to the free pool.
                    state.mark_move(
                        advertisers=(advertiser_id,), freed=(billboard_id,)
                    )
                else:
                    state.mark_move(advertisers=(advertiser_id, partner_owner))
                exchanges += 1
                improved = True
                planner.invalidate()  # the move invalidates the round
                position += 1
        screen_s = planner.screen_seconds
        exchange_end = time.perf_counter() if track else 0.0  # repro-lint: ignore[determinism] telemetry-only clock

        # Move family 3: releases.  An advertiser's pass depends only on its
        # own set, so it is skipped while its certificate holds.
        for advertiser_id in range(instance.num_advertisers):
            if state.release_pass_clean(advertiser_id):
                continue
            owned = sorted(allocation.billboards_of(advertiser_id))
            # One restricted batch pass prices every owned billboard's
            # release against the current state; when none improves, the
            # whole per-billboard loop is provably a no-op and the pass
            # certifies immediately.
            if not owned or not _release_pass_improves(
                allocation, advertiser_id, owned, min_improvement
            ):
                counters["release_evaluated"] = counters.get(
                    "release_evaluated", 0
                ) + len(owned)
                state.certify_release_pass(advertiser_id)
                continue
            accepted_any = False
            for billboard_id in owned:
                counters["release_evaluated"] = (
                    counters.get("release_evaluated", 0) + 1
                )
                if delta_release(allocation, billboard_id) < -min_improvement:
                    allocation.release(billboard_id)
                    state.mark_move(
                        advertisers=(advertiser_id,), freed=(billboard_id,)
                    )
                    releases += 1
                    accepted_any = True
                    improved = True
            if not accepted_any:
                state.certify_release_pass(advertiser_id)
        release_end = time.perf_counter() if track else 0.0  # repro-lint: ignore[determinism] telemetry-only clock

        # Move family 4: greedy top-up (line 5.11), adopted only if it
        # strictly improves (lines 5.12-5.13).  Its adoptions mark every
        # advertiser whose set it extended.
        if allocation.unassigned and not state.topup_clean():
            # The certificate skip above is provably a rejection replay:
            # greedy is deterministic in the allocation, so an unchanged
            # state (version <= topup_version) reproduces the rejected
            # candidate.
            before_regret = allocation.total_regret()
            old_owners = allocation.owners.copy()
            if journaled:
                # In place under the journal so object identity survives (the
                # quoting engine rolls the whole quote back through it);
                # bit-identical to the clone path because greedy is
                # deterministic and rollback is an exact inverse.
                topup_mark = allocation.journal_mark()
                synchronous_greedy(allocation)
                adopted = (
                    allocation.total_regret() < before_regret - min_improvement
                )
                if not adopted:
                    allocation.rollback_to(topup_mark)
            else:
                candidate = allocation.clone()
                synchronous_greedy(candidate)
                adopted = candidate.total_regret() < before_regret - min_improvement
                if adopted:
                    allocation = candidate
            if adopted:
                changed = np.nonzero(old_owners != allocation.owners)[0]
                affected = {
                    int(owner)
                    for billboard in changed
                    for owner in (old_owners[billboard], allocation.owners[billboard])
                    if owner != UNASSIGNED
                }
                state.mark_move(advertisers=sorted(affected))
                topups += 1
                improved = True
            else:
                state.certify_topup()

        if track:
            _emit_sweep_phases(
                sweep_start,
                screen_s,
                exchange_end - sweep_start - screen_s,
                release_end - exchange_end,
                time.perf_counter() - release_end,  # repro-lint: ignore[determinism] telemetry-only clock
            )
        if not improved or (max_sweeps is not None and sweeps >= max_sweeps):
            break

    obs.counter_add("bls.dirty.scanned", scanned)
    obs.counter_add("bls.dirty.skipped", skipped)
    if stats is not None:
        _emit_stats(stats, sweeps, exchanges, releases, topups, counters)
        stats["bls_dirty_scanned"] = stats.get("bls_dirty_scanned", 0) + scanned
        stats["bls_dirty_skipped"] = stats.get("bls_dirty_skipped", 0) + skipped
    return allocation
