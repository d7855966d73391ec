"""Differential properties of the vectorised Nash check.

:func:`~repro.game.equilibrium.best_deviation`,
:func:`~repro.game.equilibrium.is_nash_equilibrium` and
:func:`~repro.game.equilibrium.certify_equilibrium` price every mover x
resource in one pass over the compiled tables. The oracle is the scalar
per-player scan (``tests/oracles/equilibrium.py``); verdicts and
``(resource, gain)`` pairs must be identical — gains compared with ``==`` —
on capacitated and uncapacitated games, with movable subsets, ``inf``-
forbidden pairs, and gains that straddle ``eps``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bridge import market_game
from repro.core.lcf import lcf
from repro.game.congestion import SingletonCongestionGame
from repro.game.equilibrium import best_deviation, certify_equilibrium, is_nash_equilibrium
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.utils.rng import as_rng

from tests.oracles.equilibrium import scalar_best_deviation, scalar_certify, scalar_is_nash

COMMON = dict(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The default ``eps`` of :func:`is_nash_equilibrium`; the ``tiny`` cost
#: scale puts whole gains within a few multiples of it.
EPS = 1e-7


@st.composite
def games(draw):
    """``(game, profile, movable, eps)`` with an arbitrary (possibly
    capacity-violating) profile."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 5))
    rng = as_rng(draw(st.integers(0, 2**31 - 1)))
    scale = draw(st.sampled_from(("unit", "tiny")))
    if scale == "tiny":
        # Costs on an EPS/2 grid: ties and gains of exactly EPS, EPS/2,
        # 3 * EPS/2 ... are common.
        fixed = rng.integers(0, 6, size=(n, m)) * (EPS / 2)
        slope = rng.integers(0, 3, size=m) * (EPS / 2)
    else:
        fixed = rng.uniform(0.0, 4.0, size=(n, m))
        slope = rng.uniform(0.0, 2.0, size=m)
    fixed[rng.random((n, m)) < draw(st.sampled_from((0.0, 0.3)))] = math.inf
    kwargs = {}
    if draw(st.booleans()):
        demand = rng.uniform(0.5, 2.0, size=(n, 2))
        cap = rng.uniform(0.5, 1.5, size=(m, 2)) * demand.sum(axis=0) / max(1, m - 1)
        kwargs = dict(
            demand=lambda p, r: demand[p],
            capacity=lambda r: cap[r],
        )
    game = SingletonCongestionGame(
        list(range(n)),
        list(range(m)),
        lambda r, k: float(slope[r] * k),
        lambda p, r: float(fixed[p, r]),
        **kwargs,
    )
    profile = {p: int(rng.integers(0, m)) for p in range(n)}
    movable = draw(
        st.one_of(st.none(), st.lists(st.sampled_from(range(n)), unique=True))
    )
    eps = draw(st.sampled_from((EPS, EPS / 2, 0.0, 1e-9)))
    return game, profile, movable, eps


class TestAgainstScalarScan:
    @given(case=games())
    @settings(**COMMON)
    def test_best_deviation_is_bit_identical(self, case):
        game, profile, _movable, _eps = case
        for p in game.players:
            got_r, got_gain = best_deviation(game, p, profile)
            want_r, want_gain = scalar_best_deviation(game, p, profile)
            assert got_r == want_r
            assert got_gain == want_gain

    @given(case=games())
    @settings(**COMMON)
    def test_verdict_is_identical(self, case):
        game, profile, movable, eps = case
        assert is_nash_equilibrium(game, profile, movable=movable, eps=eps) == (
            scalar_is_nash(game, profile, movable=movable, eps=eps)
        )

    @given(case=games())
    @settings(**COMMON)
    def test_certificate_is_identical(self, case):
        game, profile, movable, _eps = case
        assert certify_equilibrium(game, profile, movable=movable) == (
            scalar_certify(game, profile, movable=movable)
        )

    @given(case=games())
    @settings(**COMMON)
    def test_gains_straddle_eps(self, case):
        """Shifting ``eps`` across a player's exact best gain flips the
        verdict exactly where the scalar scan flips it."""
        game, profile, _movable, _eps = case
        for p in game.players:
            _r, gain = scalar_best_deviation(game, p, profile)
            if not 0.0 < gain < math.inf:
                continue
            for eps in (np.nextafter(gain, 0.0), gain):
                assert is_nash_equilibrium(game, profile, movable=[p], eps=eps) == (
                    scalar_is_nash(game, profile, movable=[p], eps=eps)
                )
            assert not is_nash_equilibrium(game, profile, movable=[p], eps=np.nextafter(gain, 0.0))
            assert is_nash_equilibrium(game, profile, movable=[p], eps=gain)


class TestMarketGames:
    """The market-bridged game prices through sliced compiled tables while
    the oracle calls the per-pair cost model (per-pair routing queries):
    LCF's own output and a perturbed profile get identical verdicts."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("budget", [None, 4.0])
    def test_lcf_output_and_perturbation(self, seed, budget):
        network = random_mec_network(30, rng=seed)
        market = generate_market(network, n_providers=24, rng=seed, latency_budget_ms=budget)
        result = lcf(market, xi=0.5, information="full", engine="batch", allow_remote=True)
        profile = dict(result.assignment.placement)
        game = market_game(market, players=sorted(profile))
        rng = as_rng(seed)
        perturbed = {
            p: (int(rng.choice(game.resources)) if rng.random() < 0.3 else r)
            for p, r in profile.items()
        }
        for prof in (profile, perturbed):
            assert is_nash_equilibrium(game, prof) == scalar_is_nash(game, prof)
            assert certify_equilibrium(game, prof) == scalar_certify(game, prof)
            for p in game.players:
                assert best_deviation(game, p, prof) == scalar_best_deviation(game, p, prof)
