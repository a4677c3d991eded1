"""Online host operations: proposals arriving one at a time.

The paper's introduction motivates MROAM with hosts that "deal with multiple
advertisers coming every day".  The batch solvers answer "given today's full
proposal book, what is the best partition?"; this module layers the daily
workflow on top:

* :meth:`OnlineHost.quote` — price an incoming proposal without committing:
  how much would total regret change if we accepted it and locally repaired
  the plan?
* :meth:`OnlineHost.accept` — commit the proposal and adopt the repaired
  plan (equivalent to ``commit(quote(...))``).
* :meth:`OnlineHost.commit` — commit a previously returned quote's token:
  the repair computed while pricing is adopted, not recomputed.
* :meth:`OnlineHost.reoptimize` — run the full randomized local search over
  the current book (e.g. nightly).

Repair = serve the newcomer with the synchronous greedy over the free pool,
then a bounded billboard-driven local search (the shared
:func:`~repro.algorithms.repair.bounded_repair` pass).  Two pricing engines
produce bit-identical quotes (DESIGN.md §15):

* ``pricing="incremental"`` (default) — one journaled allocation lives
  across quotes; a quote repairs it in place, records the deltas, and rolls
  back in O(moves touched); sweep certificates and regret caches stay warm.
* ``pricing="full"`` — rebuild the extended instance and copy the plan per
  quote; the from-scratch baseline the equivalence tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.algorithms.local_search import RandomizedLocalSearch
from repro.algorithms.repair import bounded_repair
from repro.billboard.influence import CoverageIndex
from repro.core.advertiser import Advertiser
from repro.core.allocation import Allocation
from repro.core.problem import MROAMInstance
from repro.market.incremental import QuoteWorkspace

#: The available quote-pricing engines (see module docstring).
PRICING_MODES = ("incremental", "full")


@dataclass(frozen=True)
class QuoteToken:
    """Commit material for one priced proposal.

    Valid only on the host that priced it (``issuer``) and against the book
    version it was priced at: any accepted proposal or adopted
    reoptimization in between invalidates it (the recorded repair was
    computed against a plan that no longer exists).
    """

    newcomer: Advertiser
    #: Identity of the pricing host (its private sentinel object).
    issuer: object = field(repr=False, compare=False)
    book_version: int
    #: Incremental path: the journal slice + sweep snapshot to replay.
    entries: tuple = ()
    post_state: tuple | None = None
    #: Full path: the already-repaired extended allocation to adopt.
    repaired: Allocation | None = field(default=None, repr=False)


@dataclass(frozen=True)
class Quote:
    """The host's answer to "what would accepting this proposal cost me?"."""

    advertiser_name: str
    demand: int
    payment: float
    regret_before: float
    regret_after: float
    would_satisfy: bool
    #: Commit material (``None`` only for quotes built by hand, which
    #: ``commit`` refuses).  Excluded from equality so quotes from different
    #: pricing engines compare on their numbers alone.
    token: QuoteToken | None = field(default=None, repr=False, compare=False)

    @property
    def regret_delta(self) -> float:
        """Regret change from accepting (negative = the book improves)."""
        return self.regret_after - self.regret_before

    @property
    def attractive(self) -> bool:
        """A proposal worth taking: the repaired plan's regret does not grow.

        Accepting an unsatisfiable proposal adds (part of) its payment as
        fresh unsatisfied penalty; accepting a serviceable one typically
        leaves regret unchanged or lower.
        """
        return self.regret_delta <= 1e-9


class OnlineHost:
    """A host managing a growing proposal book over a fixed inventory."""

    def __init__(
        self,
        coverage: CoverageIndex,
        gamma: float = 0.5,
        repair_sweeps: int = 2,
        seed: int = 0,
        pricing: str = "incremental",
    ) -> None:
        if repair_sweeps < 0:
            raise ValueError(f"repair_sweeps must be non-negative, got {repair_sweeps}")
        if pricing not in PRICING_MODES:
            raise ValueError(
                f"unknown pricing {pricing!r}; expected one of {PRICING_MODES}"
            )
        self.coverage = coverage
        self.gamma = gamma
        self.repair_sweeps = repair_sweeps
        self.seed = seed
        self.pricing = pricing
        self._advertisers: list[Advertiser] = []
        self._allocation: Allocation | None = None
        self._book_version = 0
        self._issuer = object()
        self._workspace: QuoteWorkspace | None = (
            QuoteWorkspace(coverage, gamma=gamma, repair_sweeps=repair_sweeps)
            if pricing == "incremental"
            else None
        )

    # ------------------------------------------------------------------ state

    @property
    def advertisers(self) -> tuple[Advertiser, ...]:
        return tuple(self._advertisers)

    @property
    def allocation(self) -> Allocation | None:
        """The current plan (``None`` until the first acceptance).

        On the incremental path this is the live journaled allocation over
        the extended instance (book + one empty ghost slot); the ghost owns
        nothing and contributes ``0.0`` regret, so it reads exactly like the
        book plan.
        """
        if self.pricing == "incremental":
            return self._workspace.allocation if self._advertisers else None
        return self._allocation

    def total_regret(self) -> float:
        if self.pricing == "incremental":
            return self._workspace.book_regret() if self._advertisers else 0.0
        return self._allocation.total_regret() if self._allocation else 0.0

    def instance(self) -> MROAMInstance:
        """The MROAM instance of the current book."""
        if not self._advertisers:
            raise ValueError("the proposal book is empty")
        return MROAMInstance(self.coverage, self._advertisers, gamma=self.gamma)

    # ------------------------------------------------------------- operations

    def _extended(self, demand: int, payment: float, name: str):
        """Instance + carried-over allocation with the new proposal appended."""
        newcomer = Advertiser(len(self._advertisers), demand, payment, name=name)
        instance = MROAMInstance(
            self.coverage, [*self._advertisers, newcomer], gamma=self.gamma
        )
        allocation = Allocation(instance)
        if self._allocation is not None:
            allocation.copy_assignments_from(self._allocation)
        return newcomer, instance, allocation

    def _price(self, demand: int, payment: float, name: str) -> Quote:
        """Price one proposal on the configured engine; state is unchanged."""
        if self.pricing == "incremental":
            workspace = self._workspace
            newcomer = Advertiser(
                workspace.newcomer_slot, demand, payment, name=name
            )
            priced = workspace.price(newcomer)
            regret_before = priced.regret_before
            regret_after = priced.regret_after
            would_satisfy = priced.would_satisfy
            token = QuoteToken(
                newcomer=newcomer,
                issuer=self._issuer,
                book_version=self._book_version,
                entries=priced.entries,
                post_state=priced.post_state,
            )
        else:
            newcomer, _, allocation = self._extended(demand, payment, name)
            regret_before = self.total_regret()
            repaired = bounded_repair(
                allocation, newcomer.advertiser_id, self.repair_sweeps
            )
            regret_after = repaired.total_regret()
            would_satisfy = repaired.is_satisfied(newcomer.advertiser_id)
            token = QuoteToken(
                newcomer=newcomer,
                issuer=self._issuer,
                book_version=self._book_version,
                repaired=repaired,
            )
        return Quote(
            advertiser_name=name,
            demand=demand,
            payment=payment,
            regret_before=regret_before,
            regret_after=regret_after,
            would_satisfy=would_satisfy,
            token=token,
        )

    def quote(self, demand: int, payment: float, name: str = "") -> Quote:
        """Price a proposal without changing the host's state.

        Timed under the ``quote.price`` span: its histogram's p50/p95/p99
        are the quoting-latency numbers the online-service work needs.
        """
        with obs.span("quote.price", demand=int(demand)):
            return self._price(demand, payment, name)

    def commit(self, quote: "Quote | QuoteToken") -> None:
        """Adopt a priced proposal's repair: the token's plan becomes live.

        Raises ``ValueError`` when the quote carries no token (pool-priced
        batch quotes), was priced by another host, or the book changed since
        it was priced.
        """
        token = quote.token if isinstance(quote, Quote) else quote
        if token is None:
            raise ValueError("quote carries no commit token; re-price it")
        if token.issuer is not self._issuer:
            raise ValueError(
                "foreign quote token: it was priced by another host; re-quote it"
            )
        if token.book_version != self._book_version:
            raise ValueError(
                "stale quote token: the book changed since this proposal was "
                "priced; re-quote it"
            )
        if self.pricing == "incremental":
            self._workspace.accept(token.newcomer, token.entries, token.post_state)
        else:
            self._allocation = token.repaired
        self._advertisers.append(token.newcomer)
        self._book_version += 1

    def accept(self, demand: int, payment: float, name: str = "") -> Quote:
        """Commit a proposal: extend the book and adopt the repaired plan."""
        with obs.span("quote.accept", demand=int(demand)):
            quote = self._price(demand, payment, name)
            self.commit(quote)
        return quote

    def reoptimize(self, restarts: int = 3) -> float:
        """Full randomized local search over the whole book (e.g. nightly).

        Returns the new total regret.  Keeps the better of the incumbent and
        the freshly searched plan; adopting invalidates outstanding quote
        tokens (the book version advances).
        """
        if not self._advertisers:
            return 0.0
        result = RandomizedLocalSearch(
            neighborhood="bls", restarts=restarts, seed=self.seed
        ).solve(self.instance())
        if result.total_regret < self.total_regret():
            if self.pricing == "incremental":
                self._workspace.adopt_book_plan(result.allocation)
            else:
                self._allocation = result.allocation
            self._book_version += 1
        return self.total_regret()
