"""The exact assignment solver for uniform-weight GAP: unit and property tests.

Uniform weights with capacities that are whole multiples of the weight are
exactly Appro's virtual-cloudlet instances (one-item slots plus an n-item
remote bin). On them the GAP LP is integral, so the solver must match the
exact branch-and-bound, equal the HiGHS LP value, never lose to the
Shmoys–Tardos rounding, and stay strictly feasible.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, InfeasibleError
from repro.gap.assignment import assignment_gap, uniform_weight
from repro.gap.exact import exact_gap
from repro.gap.instance import GAPInstance
from repro.gap.lp import solve_lp_relaxation
from repro.gap.shmoys_tardos import shmoys_tardos
from repro.utils.rng import as_rng

#: Relative agreement demanded between the solved cost and the LP value.
LP_RTOL = 1e-9


@st.composite
def uniform_instances(draw, max_items=8, max_bins=4, forbid=False):
    """Uniform weight ``w``; bin ``i`` holds ``k_i`` items (``cap = k_i * w``).

    With ``forbid`` a random share of (item, bin) pairs is ``inf``, which
    can make the instance infeasible; without it an extra ``n``-item bin
    (Appro's remote bin) is sometimes appended.
    """
    n_items = draw(st.integers(1, max_items))
    n_bins = draw(st.integers(1, max_bins))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = as_rng(seed)
    w = float(draw(st.floats(0.25, 4.0)))
    slots = rng.integers(1, 4, size=n_bins)
    if not forbid and draw(st.booleans()):
        slots = np.append(slots, n_items)
    costs = rng.uniform(0.5, 10.0, size=(n_items, slots.shape[0]))
    if forbid:
        costs[rng.random(costs.shape) < 0.3] = math.inf
    return GAPInstance(costs, np.full(costs.shape, w), slots * w)


def with_and_without_forbidden(**kwargs):
    return st.one_of(uniform_instances(**kwargs), uniform_instances(forbid=True, **kwargs))


COMMON = dict(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)


def _solve_or_none(solver, inst):
    try:
        return solver(inst)
    except InfeasibleError:
        return None


class TestAssignmentProperties:
    @given(inst=with_and_without_forbidden())
    @settings(**COMMON)
    def test_cost_equals_exact_optimum(self, inst):
        sol = _solve_or_none(assignment_gap, inst)
        opt = _solve_or_none(exact_gap, inst)
        assert (sol is None) == (opt is None)
        if sol is not None:
            assert all(np.isfinite(inst.costs[j, i]) for j, i in enumerate(sol.assignment))
            assert sol.cost == pytest.approx(opt.cost, rel=1e-12)

    @given(inst=with_and_without_forbidden(max_items=12, max_bins=6))
    @settings(**COMMON)
    def test_lower_bound_equals_lp_value(self, inst):
        sol = _solve_or_none(assignment_gap, inst)
        if sol is None:
            with pytest.raises(InfeasibleError):
                solve_lp_relaxation(inst)
            return
        lp = solve_lp_relaxation(inst)
        assert sol.lower_bound == sol.cost
        assert sol.lower_bound == pytest.approx(lp.value, rel=LP_RTOL)

    @given(inst=with_and_without_forbidden(max_items=12, max_bins=6))
    @settings(**COMMON)
    def test_never_costs_more_than_shmoys_tardos(self, inst):
        sol = _solve_or_none(assignment_gap, inst)
        st_sol = _solve_or_none(shmoys_tardos, inst)
        assert (sol is None) == (st_sol is None)
        if sol is not None:
            assert sol.cost <= st_sol.cost * (1.0 + LP_RTOL)

    @given(inst=with_and_without_forbidden(max_items=12, max_bins=6))
    @settings(**COMMON)
    def test_solution_is_strictly_feasible(self, inst):
        sol = _solve_or_none(assignment_gap, inst)
        if sol is None:
            return
        assert sol.is_feasible()
        assert sol.method == "assignment"
        assert len(sol.assignment) == inst.n_items


class TestAssignmentErrors:
    def test_too_few_slots_is_infeasible(self):
        inst = GAPInstance(np.ones((3, 2)), np.ones((3, 2)), np.array([1.0, 1.0]))
        with pytest.raises(InfeasibleError):
            assignment_gap(inst)

    def test_item_without_admissible_bin_is_infeasible(self):
        costs = np.array([[1.0, 2.0], [math.inf, math.inf]])
        inst = GAPInstance(costs, np.ones((2, 2)), np.array([1.0, 1.0]))
        with pytest.raises(InfeasibleError):
            assignment_gap(inst)

    def test_forbidden_pairs_block_a_full_matching(self):
        # Both items may only use bin 0, which holds one item.
        costs = np.array([[1.0, math.inf], [2.0, math.inf]])
        inst = GAPInstance(costs, np.ones((2, 2)), np.array([1.0, 5.0]))
        with pytest.raises(InfeasibleError):
            assignment_gap(inst)

    def test_bin_smaller_than_the_weight_gets_no_items(self):
        costs = np.array([[0.0, 5.0], [0.0, 5.0]])
        inst = GAPInstance(costs, np.full((2, 2), 2.0), np.array([1.0, 4.0]))
        assert assignment_gap(inst).assignment == [1, 1]

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(**COMMON)
    def test_any_non_uniform_instance_is_rejected(self, seed):
        rng = as_rng(seed)
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        weights = np.ones((n, m))
        weights[int(rng.integers(n)), int(rng.integers(m))] = rng.uniform(0.1, 0.9)
        inst = GAPInstance(rng.uniform(1.0, 5.0, (n, m)), weights, np.full(m, float(n)))
        assert uniform_weight(inst) is None
        with pytest.raises(ConfigurationError):
            assignment_gap(inst)


class TestAssignmentBasics:
    def test_weightless_items_share_one_bin(self):
        costs = np.array([[1.0, 3.0], [1.0, 3.0], [1.0, 3.0]])
        inst = GAPInstance(costs, np.zeros((3, 2)), np.array([1.0, 1.0]))
        assert assignment_gap(inst).assignment == [0, 0, 0]

    def test_multi_slot_bin_takes_its_capacity(self):
        # Bin 0 is cheapest for everyone but holds two items.
        costs = np.array([[1.0, 4.0], [1.0, 9.0], [1.0, 2.0]])
        inst = GAPInstance(costs, np.full((3, 2), 0.5), np.array([1.0, 1.5]))
        sol = assignment_gap(inst)
        assert sol.assignment == [0, 0, 1]
        assert sol.cost == sol.lower_bound == 4.0
