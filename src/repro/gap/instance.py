"""GAP instance and solution types.

A min-cost GAP instance (Section III.A of the paper, after [34]): ``n`` items
and ``m`` knapsacks; assigning item ``j`` to knapsack ``i`` costs ``c[j, i]``
and consumes weight ``w[j, i]`` of the knapsack's capacity ``cap[i]``; every
item must be assigned; total cost is minimised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import CAPACITY_EPS


class GAPInstance:
    """A minimisation GAP instance backed by numpy arrays.

    Parameters
    ----------
    costs:
        ``(n_items, n_bins)`` array; ``costs[j, i]`` is the assignment cost.
        ``numpy.inf`` marks a forbidden (item, bin) pair.
    weights:
        ``(n_items, n_bins)`` array of non-negative weights.
    capacities:
        ``(n_bins,)`` array of positive knapsack capacities.
    """

    def __init__(
        self,
        costs: np.ndarray,
        weights: np.ndarray,
        capacities: np.ndarray,
    ) -> None:
        costs = np.asarray(costs, dtype=float)
        weights = np.asarray(weights, dtype=float)
        capacities = np.asarray(capacities, dtype=float)

        if costs.ndim != 2:
            raise ConfigurationError(f"costs must be 2-D, got shape {costs.shape}")
        if weights.shape != costs.shape:
            raise ConfigurationError(
                f"weights shape {weights.shape} != costs shape {costs.shape}"
            )
        if capacities.ndim != 1 or capacities.shape[0] != costs.shape[1]:
            raise ConfigurationError(
                f"capacities must have one entry per bin ({costs.shape[1]}), "
                f"got shape {capacities.shape}"
            )
        if costs.shape[0] == 0 or costs.shape[1] == 0:  # reprolint: ok[R2] array shapes are exact ints
            raise ConfigurationError("instance needs at least one item and one bin")
        if np.any(weights < 0) or np.any(np.isnan(weights)):
            raise ConfigurationError("weights must be non-negative numbers")
        if np.any(capacities <= 0):  # reprolint: ok[R2] sign guard, not a feasibility test
            raise ConfigurationError("capacities must be positive")
        if np.any(np.isnan(costs)):
            raise ConfigurationError("costs must not contain NaN")

        self.costs = costs
        self.weights = weights
        self.capacities = capacities

    @property
    def n_items(self) -> int:
        return self.costs.shape[0]

    @property
    def n_bins(self) -> int:
        return self.costs.shape[1]

    def allowed(self, item: int, bin_: int) -> bool:
        """Whether (item, bin) is assignable: finite cost and weight fits."""
        return bool(
            np.isfinite(self.costs[item, bin_])
            and self.weights[item, bin_] <= self.capacities[bin_] + CAPACITY_EPS
        )

    def allowed_mask(self) -> np.ndarray:
        """The full ``(n_items, n_bins)`` boolean table of :meth:`allowed` —
        the same finite-cost and weight-fits test, evaluated in bulk."""
        return np.isfinite(self.costs) & (
            self.weights <= self.capacities[None, :] + CAPACITY_EPS
        )

    def allowed_bins(self, item: int) -> List[int]:
        return [i for i in range(self.n_bins) if self.allowed(item, i)]

    def trivially_infeasible(self) -> bool:
        """True when some item has no admissible bin at all (a cheap
        necessary check; full feasibility is decided by the LP)."""
        return any(not self.allowed_bins(j) for j in range(self.n_items))

    def __repr__(self) -> str:
        return f"GAPInstance(items={self.n_items}, bins={self.n_bins})"


@dataclass
class GAPSolution:
    """An integral assignment: ``assignment[j]`` is item ``j``'s bin."""

    instance: GAPInstance
    assignment: List[int]
    #: Informational: name of the algorithm that produced the solution.
    method: str = ""
    #: Optimal LP value when the method solved a relaxation (lower bound).
    lower_bound: Optional[float] = None
    #: Set when the degradation ladder substituted a cheaper method for
    #: the requested one (a :class:`repro.events.DegradationEvent`);
    #: ``None`` for a solution produced as requested.
    degradation: Optional[object] = None

    def __post_init__(self) -> None:
        if len(self.assignment) != self.instance.n_items:
            raise ConfigurationError(
                f"assignment covers {len(self.assignment)} items, "
                f"instance has {self.instance.n_items}"
            )
        for j, i in enumerate(self.assignment):
            if not 0 <= i < self.instance.n_bins:
                raise ConfigurationError(f"item {j} assigned to unknown bin {i}")

    @property
    def cost(self) -> float:
        """Total assignment cost."""
        return float(
            sum(self.instance.costs[j, i] for j, i in enumerate(self.assignment))
        )

    def bin_loads(self) -> np.ndarray:
        """Per-bin accumulated weight."""
        loads = np.zeros(self.instance.n_bins)
        for j, i in enumerate(self.assignment):
            loads[i] += self.instance.weights[j, i]
        return loads

    def max_load_ratio(self) -> float:
        """Max over bins of load/capacity — <= 1 means strictly feasible,
        <= 2 is the Shmoys–Tardos guarantee when all weights fit alone."""
        return float(np.max(self.bin_loads() / self.instance.capacities))

    def is_feasible(self, slack: float = CAPACITY_EPS) -> bool:
        """Strict feasibility: every bin within its capacity."""
        return bool(np.all(self.bin_loads() <= self.instance.capacities + slack))

    def items_in_bin(self, bin_: int) -> List[int]:
        return [j for j, i in enumerate(self.assignment) if i == bin_]


__all__ = ["GAPInstance", "GAPSolution"]
