"""The degradation ladder: Shmoys–Tardos under a time budget, and its fallbacks.

HiGHS timeouts are not reproducible on demand, so the timeout is forced by
replacing the LP solve the rounding calls with one that raises
:class:`SolverTimeout`.
"""

import importlib
import math

import numpy as np
import pytest

import repro.gap
import repro.runtime
from repro.exceptions import InfeasibleError, SolverTimeout
from repro.gap.assignment import assignment_gap
from repro.gap.greedy import greedy_gap
from repro.gap.instance import GAPInstance
from repro.gap.ladder import DegradationEvent, solve_with_degradation
from repro.utils.rng import as_rng

from tests.oracles.gap import greedy_scalar

#: The module, not the same-named function ``repro.gap`` re-exports.
st_module = importlib.import_module("repro.gap.shmoys_tardos")


def uniform_instance(seed, n_items=6, n_bins=4):
    """One-item slots plus an n-item remote bin, like Appro's reduction."""
    rng = as_rng(seed)
    costs = rng.uniform(1.0, 10.0, size=(n_items, n_bins + 1))
    capacities = np.append(np.full(n_bins, 2.0), 2.0 * n_items)
    return GAPInstance(costs, np.full(costs.shape, 2.0), capacities)


def general_instance(seed, n_items=6, n_bins=3):
    rng = as_rng(seed)
    return GAPInstance(
        rng.uniform(1.0, 10.0, size=(n_items, n_bins)),
        rng.uniform(0.2, 1.0, size=(n_items, n_bins)),
        np.full(n_bins, 3.0),
    )


@pytest.fixture
def lp_times_out(monkeypatch):
    def timeout(instance, time_limit_s=None):
        raise SolverTimeout(f"GAP LP relaxation exceeded its {time_limit_s}s budget")

    monkeypatch.setattr(st_module, "solve_lp_relaxation", timeout)


class TestTimeoutFallback:
    def test_uniform_weights_fall_back_to_assignment(self, lp_times_out):
        inst = uniform_instance(1)
        sol = solve_with_degradation(inst, time_limit_s=0.5)
        event = sol.degradation
        assert isinstance(event, DegradationEvent)
        # One event type for the GAP ladder and the remote transport.
        assert repro.gap.DegradationEvent is repro.runtime.DegradationEvent
        assert event.requested == "shmoys_tardos"
        assert event.used == "assignment"
        assert event.reason == "timeout"
        assert "0.5s budget" in event.detail
        assert sol.method == "assignment"
        expected = assignment_gap(inst)
        assert sol.assignment == expected.assignment
        assert sol.lower_bound == expected.lower_bound
        assert sol.is_feasible()

    def test_general_weights_fall_back_to_greedy(self, lp_times_out):
        inst = general_instance(2)
        sol = solve_with_degradation(inst, time_limit_s=0.5)
        assert sol.degradation.used == "greedy"
        assert sol.degradation.requested == "shmoys_tardos"
        assert sol.degradation.reason == "timeout"
        assert sol.method == "greedy"
        assert sol.lower_bound is None
        assert sol.assignment == greedy_gap(inst).assignment == greedy_scalar(inst)

    def test_infeasible_fallback_still_raises(self, lp_times_out):
        # Three items, two one-item bins: no rung can place everyone.
        inst = GAPInstance(np.ones((3, 2)), np.ones((3, 2)), np.ones(2))
        with pytest.raises(InfeasibleError):
            solve_with_degradation(inst, time_limit_s=0.5)


class TestNoDegradation:
    @pytest.mark.parametrize("time_limit_s", [None, 60.0])
    def test_solve_within_budget_is_not_degraded(self, time_limit_s):
        inst = uniform_instance(4)
        sol = solve_with_degradation(inst, time_limit_s=time_limit_s)
        assert sol.degradation is None
        assert sol.method == "shmoys_tardos"
        assert sol.cost == pytest.approx(assignment_gap(inst).cost, rel=1e-9)

    def test_infeasible_instance_raises_and_is_not_degraded(self):
        costs = np.array([[1.0, math.inf], [2.0, math.inf]])
        inst = GAPInstance(costs, np.ones((2, 2)), np.array([1.0, 5.0]))
        with pytest.raises(InfeasibleError):
            solve_with_degradation(inst, time_limit_s=60.0)
