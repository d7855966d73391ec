"""Exact min-cost GAP for uniform item weights, as a rectangular assignment.

When every (item, bin) weight equals one value ``w`` — the Section III.B
reduction, where each virtual cloudlet caches exactly one service and every
item weighs the slot capacity — a bin of capacity ``cap`` holds at most
``floor(cap / w)`` items whoever they are. Replacing bin ``i`` by that many
identical columns turns the GAP into a rectangular assignment problem
(items × columns); the remote "do not cache" bin of capacity ``n * w``
becomes ``n`` dummy columns. Forbidden pairs are ``inf`` entries.

The assignment problem is a transportation problem whose constraint matrix
is totally unimodular, so its LP relaxation — the same LP the
Shmoys–Tardos pipeline hands to HiGHS when every ``cap_i / w`` is an
integer, as in Appro's reduction — has an integral optimum. The
Hungarian-style solver in :func:`scipy.optimize.linear_sum_assignment`
therefore returns the exact GAP optimum, and that optimum *is* the LP
value: ``lower_bound`` is the solved cost, with no rounding and no
capacity overshoot.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.exceptions import ConfigurationError, InfeasibleError
from repro.gap.instance import GAPInstance, GAPSolution
from repro.utils.validation import CAPACITY_EPS


def uniform_weight(instance: GAPInstance) -> Optional[float]:
    """The common item weight, or ``None`` when the weights differ."""
    w = float(instance.weights.flat[0])
    return w if bool(np.all(instance.weights == w)) else None


def _columns_per_bin(instance: GAPInstance, w: float) -> np.ndarray:
    """``min(floor(cap_i / w + CAPACITY_EPS), n)`` identical columns per
    bin — no bin can take more than every item. A bin too small for one
    item gets none, by the same ``w <= cap + CAPACITY_EPS`` test as
    :meth:`GAPInstance.allowed`."""
    n = instance.n_items
    caps = instance.capacities
    if w == 0.0:  # reprolint: ok[R2] weightless items never bind a bin
        return np.full(instance.n_bins, n, dtype=np.int64)
    counts = np.minimum(np.floor(caps / w + CAPACITY_EPS), n).astype(np.int64)
    counts[w > caps + CAPACITY_EPS] = 0
    return counts


def assignment_gap(instance: GAPInstance) -> GAPSolution:
    """Optimal assignment of a uniform-weight GAP instance (see module doc).

    Raises :class:`ConfigurationError` when the weights are not all equal
    (the column expansion would then be wrong, not merely loose) and
    :class:`InfeasibleError` when no complete assignment exists.
    """
    w = uniform_weight(instance)
    if w is None:
        raise ConfigurationError(
            "assignment_gap needs uniform item weights; use shmoys_tardos "
            "or greedy for a general GAP instance"
        )
    n = instance.n_items
    bin_of_column = np.repeat(
        np.arange(instance.n_bins, dtype=np.int64), _columns_per_bin(instance, w)
    )
    if bin_of_column.shape[0] < n:
        raise InfeasibleError(
            f"{n} items but room for only {bin_of_column.shape[0]} in total"
        )
    costs = instance.costs[:, bin_of_column]
    costs[~np.isfinite(costs)] = math.inf
    try:
        # With no more rows than columns every row is matched, and the
        # row indices come back as 0..n-1 in order.
        _, columns = linear_sum_assignment(costs)
    except ValueError as exc:
        raise InfeasibleError(f"no complete assignment exists: {exc}") from exc

    solution = GAPSolution(
        instance=instance,
        assignment=bin_of_column[columns].tolist(),
        method="assignment",
    )
    solution.lower_bound = solution.cost
    return solution


__all__ = ["assignment_gap", "uniform_weight"]
