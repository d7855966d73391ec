"""A regret-based greedy heuristic for min-cost GAP.

Used as a fast fallback inside the experiment harness and as a comparator in
ablation A4. Items are assigned in order of largest *regret* (difference
between their two cheapest feasible bins): items that are most penalised by
losing their best bin commit first.

Each round evaluates every unassigned item's feasibility mask, cheapest and
second-cheapest bins and regret as whole-array numpy operations. Regret ties
resolve towards the lowest item and cost ties towards the lowest bin, the
order of a per-item scan (the scalar reference in ``tests/oracles/gap.py``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.exceptions import InfeasibleError
from repro.gap.instance import GAPInstance, GAPSolution
from repro.utils.validation import CAPACITY_EPS


def _greedy(instance: GAPInstance) -> List[int]:
    """Each round computes the feasibility mask, the cheapest and
    second-cheapest feasible bins and the regrets of *all* unassigned items
    at once. ``np.argmin``/``np.argmax`` return the first extremum: the
    lowest bin for equal costs, the lowest item for equal regrets."""
    costs = instance.costs
    weights = instance.weights
    n = instance.n_items
    remaining = instance.capacities.astype(float).copy()
    finite = np.isfinite(costs)
    assignment = np.full(n, -1, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    rows = np.arange(n)

    for _ in range(n):
        feasible = finite & (weights <= remaining[None, :] + CAPACITY_EPS)
        feasible &= active[:, None]
        n_feasible = feasible.sum(axis=1)
        stuck = active & (n_feasible == 0)
        if stuck.any():
            j = int(np.flatnonzero(stuck)[0])
            raise InfeasibleError(f"greedy could not place item {j}")
        masked = np.where(feasible, costs, np.inf)
        cheapest = np.argmin(masked, axis=1)
        cheapest_cost = masked[rows, cheapest]
        masked[rows, cheapest] = np.inf
        second_cost = masked.min(axis=1)
        # Items with a single feasible bin get infinite regret (place them
        # now, they have no fallback).
        regret = np.full(n, np.inf)
        multi = n_feasible > 1
        regret[multi] = second_cost[multi] - cheapest_cost[multi]
        regret[~active] = -np.inf
        item = int(np.argmax(regret))
        chosen = int(cheapest[item])
        assignment[item] = chosen
        remaining[chosen] -= weights[item, chosen]
        active[item] = False

    return [int(a) for a in assignment]


def greedy_gap(instance: GAPInstance) -> GAPSolution:
    """Greedy regret assignment; raises :class:`InfeasibleError` when it
    cannot place every item (greedy incompleteness counts as infeasible —
    callers that need certainty should use the LP-based solvers).
    """
    return GAPSolution(
        instance=instance,
        assignment=_greedy(instance),
        method="greedy",
    )


__all__ = ["greedy_gap"]
