"""Differential tests: compiled-representation paths against the object graph.

The :class:`~repro.market.compiled.CompiledMarket` layer is only allowed to
change *how fast* algorithms evaluate the instance, never *what* they
decide. For Appro (GAP build + capacity repair), LCF, both baselines, the
PoA social-cost path and the sweep harness's precompiled dispatch, these
tests pin ``representation="compiled"`` to ``representation="object"`` on
randomized markets: identical placements, identical rejection sets, and
bit-equal social costs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.appro import appro
from repro.core.baselines import jo_offload_cache, offload_cache
from repro.core.bridge import market_game
from repro.core.lcf import lcf
from repro.core.optimal import optimal_caching
from repro.experiments.harness import default_algorithms, sweep
from repro.game.engine import CompiledGame
from repro.game.poa import worst_equilibrium_cost
from repro.market.costs import LinearCongestion, MM1Congestion, QuadraticCongestion
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network

METRIC_FIELDS = ("social_cost", "coordinated_cost", "selfish_cost", "rejected", "samples")

CONGESTIONS = {
    "linear": LinearCongestion(),
    "quadratic": QuadraticCongestion(scale=2.0),
    "mm1": MM1Congestion(capacity=64),
}


def make_market(seed, congestion=None, n_providers=16, n_nodes=35):
    network = random_mec_network(n_nodes, rng=seed)
    return generate_market(
        network, n_providers=n_providers, rng=seed + 1, congestion=congestion
    )


def object_social_cost(market, placement, rejected):
    """The object-graph oracle for an assignment's total cost."""
    model = market.cost_model
    providers = market.providers_by_id()
    total = model.social_cost(providers, placement)
    total += sum(model.remote_cost(providers[pid]) for pid in rejected)
    return total


def assert_same_assignment(market, compiled_a, object_a):
    assert compiled_a.placement == object_a.placement
    assert compiled_a.rejected == object_a.rejected
    oracle = object_social_cost(market, object_a.placement, object_a.rejected)
    assert compiled_a.social_cost == oracle
    assert object_a.social_cost == oracle


class TestApproEquivalence:
    @pytest.mark.parametrize("gap_solver", ["assignment", "shmoys_tardos", "greedy"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_placements_and_costs_match(self, gap_solver, seed):
        market = make_market(40 + seed)
        c = appro(market, gap_solver=gap_solver, representation="compiled")
        o = appro(market, gap_solver=gap_solver, representation="object")
        assert_same_assignment(market, c, o)
        assert c.info["gap_cost"] == o.info["gap_cost"]
        assert c.info["repair_moves"] == o.info["repair_moves"]

    @pytest.mark.parametrize("slot_pricing", ["marginal", "flat"])
    def test_pricing_modes_match(self, slot_pricing):
        market = make_market(50)
        c = appro(market, slot_pricing=slot_pricing, representation="compiled")
        o = appro(market, slot_pricing=slot_pricing, representation="object")
        assert_same_assignment(market, c, o)

    @pytest.mark.parametrize("name", sorted(CONGESTIONS))
    def test_remote_bin_and_congestion_functions(self, name):
        # A tight market (many providers per cloudlet slot) exercises the
        # remote bin and the repair's eviction loop.
        market = make_market(60, congestion=CONGESTIONS[name], n_providers=20, n_nodes=25)
        c = appro(market, allow_remote=True, representation="compiled")
        o = appro(market, allow_remote=True, representation="object")
        assert_same_assignment(market, c, o)

    def test_gap_instances_are_identical(self):
        from repro.core.virtual_cloudlets import VirtualCloudletSplit

        for slot_pricing in ("marginal", "flat"):
            for allow_remote in (False, True):
                market = make_market(70)
                split = VirtualCloudletSplit(
                    market, allow_remote=allow_remote, slot_pricing=slot_pricing
                )
                obj = split.build_gap_instance()
                cmp_ = split.build_gap_instance(compiled=market.compile())
                assert np.array_equal(obj.costs, cmp_.costs)
                assert np.array_equal(obj.weights, cmp_.weights)
                assert np.array_equal(obj.capacities, cmp_.capacities)


class TestLCFEquivalence:
    @pytest.mark.parametrize("information", ["posted_price", "full"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_placements_and_costs_match(self, information, seed):
        market = make_market(80 + seed)
        c = lcf(market, xi=0.6, information=information, representation="compiled")
        o = lcf(market, xi=0.6, information=information, representation="object")
        assert c.coordinated_ids == o.coordinated_ids
        assert c.br_rounds == o.br_rounds
        assert c.br_moves == o.br_moves
        assert c.is_equilibrium == o.is_equilibrium
        assert_same_assignment(market, c.assignment, o.assignment)

    def test_allow_remote_matches(self):
        market = make_market(90, n_providers=20, n_nodes=25)
        c = lcf(market, xi=0.5, allow_remote=True, representation="compiled")
        o = lcf(market, xi=0.5, allow_remote=True, representation="object")
        assert_same_assignment(market, c.assignment, o.assignment)


SOLVER_CASES = [
    pytest.param(seed, allow_remote, slot_pricing, name,
                 id=f"{name}-{slot_pricing}-remote{int(allow_remote)}-s{seed}")
    for seed in (0, 1)
    for allow_remote in (False, True)
    for slot_pricing in ("marginal", "flat")
    for name in sorted(CONGESTIONS)
]


def solver_market(seed, allow_remote, name):
    # With the remote bin open, a tight market (more providers than slots)
    # also exercises the dummy remote columns and the repair.
    if allow_remote:
        return make_market(200 + seed, CONGESTIONS[name], n_providers=20, n_nodes=25)
    return make_market(200 + seed, CONGESTIONS[name])


class TestAssignmentSolverEquivalence:
    """The exact assignment solver against the paper's Shmoys–Tardos
    reference: the reduction's GAP LP is integral, so both reach the same
    optimum — same social cost, and a lower bound equal to the LP value."""

    @pytest.mark.parametrize("seed,allow_remote,slot_pricing,name", SOLVER_CASES)
    def test_appro_matches_shmoys_tardos(self, seed, allow_remote, slot_pricing, name):
        market = solver_market(seed, allow_remote, name)
        runs = {
            (solver, rep): appro(
                market, gap_solver=solver, allow_remote=allow_remote,
                slot_pricing=slot_pricing, representation=rep,
            )
            for solver in ("assignment", "shmoys_tardos")
            for rep in ("compiled", "object")
        }
        exact = runs["assignment", "compiled"]
        reference = runs["shmoys_tardos", "compiled"]
        for solver in ("assignment", "shmoys_tardos"):
            assert_same_assignment(market, runs[solver, "compiled"], runs[solver, "object"])
        assert exact.social_cost == pytest.approx(reference.social_cost, rel=1e-9)
        assert exact.info["gap_cost"] == exact.info["gap_lower_bound"]
        assert exact.info["gap_lower_bound"] == pytest.approx(
            reference.info["gap_lower_bound"], rel=1e-9
        )

    @pytest.mark.parametrize("seed,allow_remote,slot_pricing,name", SOLVER_CASES)
    def test_lcf_matches_shmoys_tardos(self, seed, allow_remote, slot_pricing, name):
        market = solver_market(seed, allow_remote, name)
        runs = {
            (solver, rep): lcf(
                market, xi=0.5, gap_solver=solver, allow_remote=allow_remote,
                slot_pricing=slot_pricing, information="full", representation=rep,
            )
            for solver in ("assignment", "shmoys_tardos")
            for rep in ("compiled", "object")
        }
        for solver in ("assignment", "shmoys_tardos"):
            c, o = runs[solver, "compiled"], runs[solver, "object"]
            assert c.coordinated_ids == o.coordinated_ids
            assert_same_assignment(market, c.assignment, o.assignment)
        assert runs["assignment", "compiled"].social_cost == pytest.approx(
            runs["shmoys_tardos", "compiled"].social_cost, rel=1e-9
        )


class TestBaselineEquivalence:
    @pytest.mark.parametrize("baseline", [jo_offload_cache, offload_cache])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_placements_and_costs_match(self, baseline, seed):
        market = make_market(100 + seed)
        c = baseline(market, representation="compiled")
        o = baseline(market, representation="object")
        assert_same_assignment(market, c, o)

    @pytest.mark.parametrize("baseline", [jo_offload_cache, offload_cache])
    def test_rejections_match_on_tight_market(self, baseline):
        market = make_market(110, n_providers=24, n_nodes=25)
        c = baseline(market, representation="compiled")
        o = baseline(market, representation="object")
        assert_same_assignment(market, c, o)


class TestCompiledGameView:
    """CompiledGame.from_market slices must equal the generic per-pair build."""

    def test_full_population_tables_match(self):
        market = make_market(120)
        game = market_game(market)
        generic = CompiledGame(game)
        view = game.compile()  # factory-installed slice of the CompiledMarket
        assert view is game.compile()  # cached
        assert np.array_equal(generic.fixed, view.fixed)
        assert np.array_equal(generic.shared, view.shared)
        assert np.array_equal(generic.capacity, view.capacity)
        assert np.array_equal(generic.demand, view.demand)
        assert generic.players == view.players
        assert generic.resources == view.resources

    def test_subset_game_tables_match(self):
        market = make_market(130)
        subset = [p.provider_id for p in market.providers][::2]
        game = market_game(market, players=subset)
        generic = CompiledGame(game)
        view = game.compile()
        assert view.players == subset
        assert np.array_equal(generic.fixed, view.fixed)
        assert np.array_equal(generic.shared, view.shared)
        assert np.array_equal(generic.capacity, view.capacity)
        assert np.array_equal(generic.demand, view.demand)

    def test_compiled_social_cost_matches_game(self):
        market = make_market(140)
        game = market_game(market)
        compiled = game.compile()
        nodes = list(game.resources)
        rng = np.random.default_rng(7)  # reprolint: ok[R1] test-local stream, seeded
        for _ in range(5):
            profile = {
                p: nodes[int(rng.integers(len(nodes)))] for p in game.players
            }
            assert compiled.social_cost(profile) == game.social_cost(profile)


class TestLPAssemblyEquivalence:
    """The vectorized LP assembly must reproduce the scalar reference
    bit-for-bit: same allowed-pair enumeration, same matrices, same
    relaxation."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("allow_remote", [False, True])
    def test_relaxations_bit_identical(self, seed, allow_remote):
        from repro.core.virtual_cloudlets import VirtualCloudletSplit
        from repro.gap.lp import solve_lp_relaxation

        market = make_market(180 + seed)
        split = VirtualCloudletSplit(market, allow_remote=allow_remote)
        instance = split.build_gap_instance()
        scalar = solve_lp_relaxation(instance, assemble="scalar")
        vector = solve_lp_relaxation(instance, assemble="vectorized")
        assert vector.value == scalar.value
        assert np.array_equal(vector.fractions, scalar.fractions)

    def test_allowed_mask_matches_scalar_allowed(self):
        from repro.core.virtual_cloudlets import VirtualCloudletSplit

        market = make_market(190)
        instance = VirtualCloudletSplit(market).build_gap_instance()
        mask = instance.allowed_mask()
        for j in range(instance.n_items):
            for i in range(instance.n_bins):
                assert bool(mask[j, i]) == instance.allowed(j, i)

    def test_unknown_assembly_rejected(self):
        from repro.core.virtual_cloudlets import VirtualCloudletSplit
        from repro.exceptions import ConfigurationError
        from repro.gap.lp import ASSEMBLIES, solve_lp_relaxation

        assert ASSEMBLIES == ("vectorized", "scalar")
        market = make_market(195)
        instance = VirtualCloudletSplit(market).build_gap_instance()
        with pytest.raises(ConfigurationError):
            solve_lp_relaxation(instance, assemble="sparse")


class TestGreedyModeEquivalence:
    """The vectorized greedy rounds must reproduce the scalar reference's
    assignment item for item (same regret order, same tie-breaks)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("allow_remote", [False, True])
    def test_assignments_identical(self, seed, allow_remote):
        from repro.core.virtual_cloudlets import VirtualCloudletSplit
        from repro.gap.greedy import greedy_gap

        # Tight markets exercise rounds where feasibility shrinks.
        market = make_market(210 + seed, n_providers=20, n_nodes=25)
        split = VirtualCloudletSplit(market, allow_remote=allow_remote)
        instance = split.build_gap_instance()
        scalar = greedy_gap(instance, mode="scalar")
        vector = greedy_gap(instance, mode="vectorized")
        assert vector.assignment == scalar.assignment
        assert vector.cost == scalar.cost

    def test_unknown_mode_rejected(self):
        from repro.core.virtual_cloudlets import VirtualCloudletSplit
        from repro.exceptions import ConfigurationError
        from repro.gap.greedy import MODES, greedy_gap

        assert MODES == ("vectorized", "scalar")
        market = make_market(220)
        instance = VirtualCloudletSplit(market).build_gap_instance()
        with pytest.raises(ConfigurationError):
            greedy_gap(instance, mode="fast")


class TestUncompiledGameBridge:
    """market_game(use_compiled=False) rebuilds its tables from the cost
    callables — the pre-compiled path — and must stay bit-equal."""

    def test_tables_match_factory_view(self):
        market = make_market(200)
        fast = market_game(market).compile()
        plain_game = market_game(market, use_compiled=False)
        assert plain_game.compiled_factory is None
        slow = plain_game.compile()
        assert np.array_equal(fast.fixed, slow.fixed)
        assert np.array_equal(fast.shared, slow.shared)
        assert np.array_equal(fast.capacity, slow.capacity)
        assert np.array_equal(fast.demand, slow.demand)


class TestPoAEquivalence:
    def test_worst_equilibrium_cost_is_object_graph_cost(self):
        market = make_market(150, n_providers=8, n_nodes=25)
        game = market_game(market)
        cost, profile = worst_equilibrium_cost(game, trials=5, rng=3)
        # The compiled evaluation the PoA path reports must equal the
        # object-graph social cost of the witnessing profile.
        assert cost == game.social_cost(profile)

    def test_exact_enumeration_matches_object_graph(self):
        market = make_market(160, n_providers=4, n_nodes=12)
        game = market_game(market)
        cost, profile = worst_equilibrium_cost(game, exact=True)
        assert cost == game.social_cost(profile)


class TestOptimalOnCompiledTables:
    def test_optimal_cost_equals_object_social_cost(self):
        market = make_market(170, n_providers=7, n_nodes=20)
        a = optimal_caching(market)
        oracle = object_social_cost(market, a.placement, a.rejected)
        assert a.info["optimal_cost"] == pytest.approx(oracle, rel=1e-12)
        assert a.social_cost == oracle


def _eq_market(_x, seed):
    network = random_mec_network(30, rng=seed)
    return generate_market(network, 10, rng=seed + 1)


def _eq_algorithms(_x):
    return default_algorithms(0.3, True)


class TestPrecompiledSweep:
    def test_precompiled_metrics_bit_identical(self):
        kwargs = dict(
            name="precompile-ident",
            x_label="x",
            x_values=[0, 1],
            make_market=_eq_market,
            make_algorithms=_eq_algorithms,
            repetitions=2,
        )
        plain = sweep(workers=1, **kwargs)
        pre_serial = sweep(workers=1, precompile=True, **kwargs)
        pre_parallel = sweep(workers=2, precompile=True, **kwargs)
        for other in (pre_serial, pre_parallel):
            for point_a, point_b in zip(plain.points, other.points):
                assert set(point_a) == set(point_b)
                for alg in point_a:
                    for f in METRIC_FIELDS:
                        assert getattr(point_a[alg], f) == getattr(point_b[alg], f)
