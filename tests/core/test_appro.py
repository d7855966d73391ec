"""Tests for Algorithm 1 (Appro)."""

import importlib

import pytest

from repro.core.appro import appro
from repro.core.lcf import lcf
from repro.core.optimal import optimal_caching
from repro.exceptions import ConfigurationError, InfeasibleError, SolverTimeout
from repro.market.market import ServiceMarket
from repro.market.pricing import Pricing

from tests.conftest import build_line_network, build_provider


def make_market(n_providers=4, compute=10.0, bandwidth=500.0):
    net = build_line_network(compute=compute, bandwidth=bandwidth)
    providers = [build_provider(i) for i in range(n_providers)]
    return ServiceMarket(net, providers, pricing=Pricing())


class TestFeasibility:
    def test_places_every_provider(self, small_market):
        result = appro(small_market)
        assert len(result.placement) + len(result.rejected) == small_market.num_providers

    def test_lemma1_capacities_respected(self, small_market):
        result = appro(small_market)
        result.check_capacities()

    def test_line_market_feasible(self):
        result = appro(make_market())
        assert not result.rejected
        result.check_capacities()

    def test_deterministic(self, small_market):
        a = appro(small_market)
        b = appro(small_market)
        assert a.placement == b.placement

    def test_oversubscribed_without_remote_raises(self):
        # 2 cloudlets x 2 slots = 4 slots < 5 providers
        market = make_market(n_providers=5, compute=2.0, bandwidth=25.0)
        with pytest.raises(InfeasibleError):
            appro(market, allow_remote=False)

    def test_oversubscribed_with_remote_rejects_overflow(self):
        market = make_market(n_providers=5, compute=2.0, bandwidth=25.0)
        result = appro(market, allow_remote=True)
        assert len(result.placement) + len(result.rejected) == 5
        assert result.rejected  # at least the overflow went remote
        result.check_capacities()


class TestQuality:
    def test_info_carries_bounds(self, small_market):
        result = appro(small_market)
        info = result.info
        assert info["ratio_bound"] == pytest.approx(2 * info["delta"] * info["kappa"])
        assert info["virtual_cloudlets"] > 0
        assert info["gap_lower_bound"] is not None

    def test_lemma2_ratio_holds_empirically(self, tiny_market):
        """Appro (flat Eq. 9 pricing, as analysed) within 2*delta*kappa of
        the exact optimum."""
        result = appro(tiny_market, slot_pricing="flat")
        optimum = optimal_caching(tiny_market)
        ratio = result.social_cost / optimum.social_cost
        assert ratio <= result.info["ratio_bound"] + 1e-9
        assert ratio >= 1.0 - 1e-9

    def test_marginal_pricing_not_worse_than_flat(self, tiny_market):
        flat = appro(tiny_market, slot_pricing="flat")
        marginal = appro(tiny_market, slot_pricing="marginal")
        assert marginal.social_cost <= flat.social_cost + 1e-6

    def test_marginal_pricing_near_optimal_on_tiny(self, tiny_market):
        marginal = appro(tiny_market, slot_pricing="marginal")
        optimum = optimal_caching(tiny_market)
        # the GAP with marginal prices minimises the true social cost; the
        # only slack is the ST rounding, so stay within a few percent.
        assert marginal.social_cost <= 1.25 * optimum.social_cost

    def test_gap_solver_variants_run(self, small_market):
        for solver in ("assignment", "shmoys_tardos", "greedy"):
            result = appro(small_market, gap_solver=solver)
            result.check_capacities()

    def test_unknown_solver_rejected(self, small_market):
        with pytest.raises(ValueError):
            appro(small_market, gap_solver="nope")

    def test_runtime_recorded(self, small_market):
        assert appro(small_market).runtime_s > 0.0

    def test_algorithm_label(self, small_market):
        assert appro(small_market).algorithm == "Appro[assignment]"

    def test_exact_solver_matches_the_lp_bound(self, small_market):
        result = appro(small_market, gap_solver="assignment")
        reference = appro(small_market, gap_solver="shmoys_tardos")
        assert result.info["gap_cost"] == result.info["gap_lower_bound"]
        assert result.info["gap_lower_bound"] == pytest.approx(
            reference.info["gap_lower_bound"], rel=1e-9
        )
        assert result.social_cost == pytest.approx(reference.social_cost, rel=1e-9)


class TestLPTimeLimit:
    @pytest.mark.parametrize("gap_solver", ["assignment", "greedy", "exact"])
    def test_budget_without_an_lp_is_rejected(self, small_market, gap_solver):
        with pytest.raises(ConfigurationError, match="lp_time_limit_s"):
            appro(small_market, gap_solver=gap_solver, lp_time_limit_s=5.0)

    def test_default_solver_rejects_a_budget(self, small_market):
        with pytest.raises(ConfigurationError):
            appro(small_market, lp_time_limit_s=5.0)
        with pytest.raises(ConfigurationError):
            lcf(small_market, lp_time_limit_s=5.0)

    def test_budget_runs_through_the_ladder(self, small_market):
        result = appro(small_market, gap_solver="shmoys_tardos", lp_time_limit_s=60.0)
        assert result.info["degradation"] is None
        assert result.algorithm == "Appro[shmoys_tardos]"

    def test_timeout_degrades_to_the_exact_solver(self, small_market, monkeypatch):
        def timeout(instance, time_limit_s=None):
            raise SolverTimeout("forced")

        st_module = importlib.import_module("repro.gap.shmoys_tardos")
        monkeypatch.setattr(st_module, "solve_lp_relaxation", timeout)
        result = appro(small_market, gap_solver="shmoys_tardos", lp_time_limit_s=1.0)
        assert result.info["degradation"].used == "assignment"
        assert result.placement == appro(small_market).placement
