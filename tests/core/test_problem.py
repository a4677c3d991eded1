"""Tests for the MROAM problem instance."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.billboard.influence import CoverageIndex
from repro.core.advertiser import Advertiser
from repro.core.problem import MROAMInstance


def simple_coverage() -> CoverageIndex:
    return CoverageIndex.from_coverage_lists([[0, 1], [1, 2], [3]], num_trajectories=4)


class TestConstruction:
    def test_rejects_zero_demand_advertiser_like(self):
        """Eq. 1 divides by demand, so a zero must fail loudly at the
        boundary — even from advertiser-like objects that bypass
        ``Advertiser``'s own validation."""
        stub = SimpleNamespace(advertiser_id=0, demand=0.0, payment=5.0)
        with pytest.raises(ValueError, match="demands must be positive"):
            MROAMInstance(simple_coverage(), [stub])

    def test_rejects_negative_demand_and_names_the_id(self):
        good = Advertiser(0, 2, 4.0)
        bad = SimpleNamespace(advertiser_id=1, demand=-3.0, payment=5.0)
        with pytest.raises(ValueError, match=r"ids \[1\]"):
            MROAMInstance(simple_coverage(), [good, bad])

    def test_regret_values_guard(self):
        from repro.algorithms._marginal import regret_values

        with pytest.raises(ValueError, match="demand must be positive"):
            regret_values(5.0, 0.0, 0.5, np.array([1.0, 2.0]))

    def test_hot_path_variants_skip_the_guard(self):
        """The per-move internals (`_regret_values_unchecked`,
        `_optimistic_regret`) intentionally carry no demand validation — it
        lives at instance construction and in the public ``regret_values``
        only.  Both must agree with the checked entry point on valid input."""
        from repro.algorithms._marginal import _regret_values_unchecked, regret_values
        from repro.algorithms.screen import _optimistic_regret

        achieved = np.array([0.0, 1.0, 2.0, 5.0])
        assert np.array_equal(
            _regret_values_unchecked(5.0, 2.0, 0.5, achieved),
            regret_values(5.0, 2.0, 0.5, achieved),
        )
        # No raise on a degenerate demand: the guard is the caller's job.
        with np.errstate(divide="ignore", invalid="ignore"):
            _optimistic_regret(
                np.array([5.0]), np.array([0.0]), 0.5, np.array([1.0]), np.array([2.0])
            )

    def test_requires_advertisers(self):
        with pytest.raises(ValueError, match="advertiser"):
            MROAMInstance(simple_coverage(), [])

    def test_requires_dense_ids(self):
        with pytest.raises(ValueError, match="dense"):
            MROAMInstance(simple_coverage(), [Advertiser(1, 2, 1.0)])

    def test_requires_valid_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            MROAMInstance(simple_coverage(), [Advertiser(0, 2, 1.0)], gamma=1.5)

    def test_from_contracts(self):
        instance = MROAMInstance.from_contracts(simple_coverage(), [(2, 4.0), (3, 6.0)])
        assert instance.num_advertisers == 2
        assert instance.advertisers[1].demand == 3
        assert instance.payments.tolist() == [4.0, 6.0]


class TestDerivedQuantities:
    def make(self) -> MROAMInstance:
        return MROAMInstance.from_contracts(
            simple_coverage(), [(2, 4.0), (3, 6.0)], gamma=0.5
        )

    def test_counts(self):
        instance = self.make()
        assert instance.num_billboards == 3
        assert instance.num_advertisers == 2

    def test_global_demand_and_alpha(self):
        instance = self.make()
        assert instance.global_demand == 5.0
        # supply = 2 + 2 + 1 = 5
        assert instance.demand_supply_ratio == pytest.approx(1.0)

    def test_total_payment(self):
        assert self.make().total_payment() == 10.0

    def test_regret_of_delegates_to_eq1(self):
        instance = self.make()
        assert instance.regret_of(0, 2) == 0.0
        assert instance.regret_of(0, 1) == pytest.approx(4.0 * (1 - 0.5 * 0.5))
        assert instance.regret_of(0, 4) == pytest.approx(4.0)

    def test_breakdown_of(self):
        instance = self.make()
        breakdown = instance.breakdown_of(1, 2)
        assert breakdown.unsatisfied_penalty > 0
        assert breakdown.excessive_influence == 0.0

    def test_dual_of(self):
        instance = self.make()
        assert instance.dual_of(0, 2) == pytest.approx(4.0)

    def test_describe_mentions_sizes(self):
        text = self.make().describe()
        assert "|U|=3" in text
        assert "|A|=2" in text
