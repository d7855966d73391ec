"""The transportation solver behind Appro's exact GAP: unit and property tests.

The oracle is :func:`~repro.gap.assignment.assignment_gap` on the dense
expansion of the same problem — one unit bin per slot, costing the item's
destination cost plus the slot's charge. Both are exact, so they must agree
on the optimum (within rounding), on infeasibility, and the transport
solver's destination prices must certify its cost through LP duality.
At the Appro level, the compiled path (transport) must place exactly like
the object path (dense assignment), also when M/M/1 charges saturate.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.appro import appro
from repro.core.virtual_cloudlets import VirtualCloudletSplit
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.gap.assignment import assignment_gap
from repro.gap.instance import GAPInstance
from repro.gap.transport import solve_transport
from repro.market.costs import MM1Congestion
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.utils.rng import as_rng

from tests.oracles.appro import object_appro, object_slot_charge

RTOL = 1e-9

COMMON = dict(
    deadline=None,
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def transport_problems(draw):
    """Random small problems: ``inf`` pairs, sorted, unsorted or flat
    (all-equal) charge lists, and sometimes a remote destination with one
    zero-charge slot per item and no forbidden pairs."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 4))
    rng = as_rng(draw(st.integers(0, 2**31 - 1)))
    costs = rng.uniform(0.5, 10.0, size=(n, d))
    costs[rng.random(costs.shape) < draw(st.sampled_from([0.0, 0.3]))] = math.inf
    order = draw(st.sampled_from(["sorted", "unsorted", "flat"]))
    charges = []
    for _ in range(d):
        c = rng.uniform(0.0, 5.0, size=int(rng.integers(0, 4)))
        if order == "sorted":
            c = np.sort(c)
        elif order == "flat":
            c = np.full(c.shape, c[0] if c.size else 0.0)
        charges.append(c)
    if draw(st.booleans()):
        costs = np.column_stack([costs, rng.uniform(5.0, 15.0, size=n)])
        charges.append(np.zeros(n))
    return costs, charges


def dense_oracle(costs, charges):
    """The same problem as a rectangular assignment: one unit bin per slot."""
    dest_of_bin = np.repeat(np.arange(len(charges)), [c.shape[0] for c in charges])
    slot_charge = np.concatenate(charges)
    if dest_of_bin.size == 0:
        raise InfeasibleError("no slots at all")
    bins = costs[:, dest_of_bin] + slot_charge[None, :]
    inst = GAPInstance(bins, np.ones(bins.shape), np.ones(bins.shape[1]))
    return assignment_gap(inst).cost


def primal_cost(costs, charges, destination):
    """Items' destination costs plus each destination's cheapest charges."""
    terms = costs[np.arange(costs.shape[0]), destination].tolist()
    counts = np.bincount(destination, minlength=len(charges))
    for c, k in zip(charges, counts):
        terms += np.sort(c)[:k].tolist()
    return math.fsum(terms)


def dual_objective(costs, charges, prices):
    """The LP dual at destination prices ``pi``: every item pays its cheapest
    ``costs[j, b] + pi_b``; destination ``b`` refunds ``max(0, pi_b - s)``
    per slot charge ``s``. Any ``pi`` gives a lower bound on the optimum."""
    paid = np.min(costs + prices[None, :], axis=1)
    refunds = [np.maximum(0.0, p - c) for p, c in zip(prices, charges)]
    return math.fsum(paid.tolist()) - math.fsum(np.concatenate(refunds).tolist())


def solve_or_none(solver, *args):
    try:
        return solver(*args)
    except InfeasibleError:
        return None


class TestTransportProperties:
    @given(problem=transport_problems())
    @settings(**COMMON)
    def test_matches_the_dense_assignment(self, problem):
        costs, charges = problem
        sol = solve_or_none(solve_transport, costs, charges)
        oracle = solve_or_none(dense_oracle, costs, charges)
        assert (sol is None) == (oracle is None)
        if sol is None:
            return
        destination = sol.destination
        assert np.all(np.isfinite(costs[np.arange(costs.shape[0]), destination]))
        counts = np.bincount(destination, minlength=len(charges))
        assert all(k <= c.shape[0] for k, c in zip(counts, charges))
        assert primal_cost(costs, charges, destination) == pytest.approx(oracle, rel=RTOL)

    @given(problem=transport_problems())
    @settings(**COMMON)
    def test_prices_certify_the_cost(self, problem):
        costs, charges = problem
        sol = solve_or_none(solve_transport, costs, charges)
        if sol is None:
            return
        primal = primal_cost(costs, charges, sol.destination)
        assert dual_objective(costs, charges, sol.prices) == pytest.approx(primal, rel=RTOL)


class TestTransportCases:
    def test_stranded_seed_is_placed_by_an_augmenting_path(self):
        # Item 0 may use A or B and prefers A; item 1 may use only A. The
        # seed gives A to item 0 and strands item 1; the insertion moves
        # item 0 over to B.
        costs = np.array([[1.0, 2.0], [1.0, math.inf]])
        sol = solve_transport(costs, [np.zeros(1), np.zeros(1)])
        assert sol.destination.tolist() == [1, 0]

    def test_no_complete_assignment_is_infeasible(self):
        costs = np.array([[1.0, math.inf], [2.0, math.inf]])
        with pytest.raises(InfeasibleError):
            solve_transport(costs, [np.zeros(1), np.zeros(5)])

    def test_too_few_slots_is_infeasible(self):
        with pytest.raises(InfeasibleError):
            solve_transport(np.ones((3, 2)), [np.zeros(1), np.zeros(1)])

    def test_infinite_charges_are_no_slots(self):
        costs = np.array([[1.0, 5.0], [1.0, 5.0]])
        sol = solve_transport(costs, [np.array([math.inf, 0.0]), np.zeros(2)])
        assert sorted(sol.destination.tolist()) == [0, 1]

    def test_charges_are_taken_cheapest_first(self):
        # An M/M/1-like list: the middle slot saturates. Two items fill the
        # two cheap slots wherever they sit in the list.
        costs = np.array([[1.0, 9.0], [1.0, 9.0]])
        sol = solve_transport(costs, [np.array([0.5, 1e6, 0.7]), np.zeros(2)])
        assert sol.destination.tolist() == [0, 0]

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_transport(np.ones((2, 3)), [np.zeros(2)])

    def test_nan_is_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_transport(np.array([[math.nan]]), [np.zeros(1)])


class TestApproTransport:
    @pytest.mark.parametrize("allow_remote", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_saturated_mm1_matches_the_dense_path(self, seed, allow_remote):
        # M/M/1 with capacity 2: every cloudlet's slot charges jump at the
        # second slot and fall after it, so sorting them is what matters.
        network = random_mec_network(25, rng=300 + seed)
        market = generate_market(
            network, n_providers=20, rng=301 + seed, congestion=MM1Congestion(capacity=2)
        )
        split = VirtualCloudletSplit(market, allow_remote=allow_remote)
        charges = split._slot_charges(market.compile())
        assert np.any(np.diff(charges) < 0.0)  # unsorted: saturation is in play
        c = appro(market, allow_remote=allow_remote)
        o = object_appro(market, allow_remote=allow_remote)
        assert c.placement == o.placement
        assert c.rejected == o.rejected
        assert c.info["gap_cost"] == o.info["gap_cost"]
        if not allow_remote:  # some cloudlet is filled past saturation
            assert max(np.bincount(list(c.placement.values()))) > 2

    @pytest.mark.parametrize("slot_pricing", ["marginal", "flat"])
    def test_transport_charges_are_the_cheapest_slots(self, slot_pricing):
        # Three providers, more slots per cloudlet than that, and M/M/1
        # charges that jump at slot 2 and fall after it: each cloudlet
        # offers its 3 cheapest charges of all n_i, not its first 3.
        market = generate_market(
            random_mec_network(25, rng=7), n_providers=3, rng=8,
            congestion=MM1Congestion(capacity=2),
        )
        cm = market.compile()
        split = VirtualCloudletSplit(market, allow_remote=True, slot_pricing=slot_pricing)
        costs, charges = split.build_transport(cm)
        assert costs.shape == (3, cm.n_cloudlets + 1)
        assert np.array_equal(charges[-1], np.zeros(3))
        assert max(split.n_i.values()) > 3
        for node, got in zip(cm.cloudlet_nodes, charges):
            cloudlet = market.network.cloudlet_at(node)
            every = [object_slot_charge(split, cloudlet, k) for k in range(1, split.n_i[node] + 1)]
            assert got.tolist() == sorted(every)[:3]

    def test_default_path_builds_no_slot_list(self, small_market, monkeypatch):
        n_virtual = VirtualCloudletSplit(small_market).n_virtual
        assert len(VirtualCloudletSplit(small_market).virtual_cloudlets) == n_virtual

        def refuse(self):
            raise AssertionError("the per-slot list was built")

        monkeypatch.setattr(VirtualCloudletSplit, "virtual_cloudlets", property(refuse))
        result = appro(small_market)
        assert result.info["virtual_cloudlets"] == n_virtual
        with pytest.raises(AssertionError, match="per-slot list"):
            object_appro(small_market)
