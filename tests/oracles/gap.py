"""Per-pair GAP references — the LP-assembly and greedy oracles.

:func:`assemble_scalar` builds the LP relaxation's matrices one allowed
(item, bin) pair at a time; :mod:`repro.gap.lp` assembles them from the
instance arrays in bulk and must hand HiGHS the same matrices, so the two
relaxations are bit-identical. :func:`greedy_scalar` is the per-item regret
loop :mod:`repro.gap.greedy` vectorises; the two must place every item in
the same bin.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.exceptions import InfeasibleError
from repro.gap.instance import GAPInstance, GAPSolution
from repro.gap.lp import LPRelaxationResult, _solve_assembled
from repro.gap.shmoys_tardos import _round
from repro.utils.validation import CAPACITY_EPS


def assemble_scalar(
    instance: GAPInstance,
) -> Tuple[np.ndarray, np.ndarray, csr_matrix, csr_matrix, np.ndarray, np.ndarray]:
    """Reference per-pair assembly: ``(rows, cols, A_eq, A_ub, c, b_eq)``."""
    if instance.trivially_infeasible():
        raise InfeasibleError("some item has no admissible bin")

    pairs: List[Tuple[int, int]] = [
        (j, i)
        for j in range(instance.n_items)
        for i in range(instance.n_bins)
        if instance.allowed(j, i)
    ]
    col_of: Dict[Tuple[int, int], int] = {p: k for k, p in enumerate(pairs)}
    n_cols = len(pairs)

    c = np.array([instance.costs[j, i] for j, i in pairs])

    # Equality: one row per item.
    eq_rows, eq_cols, eq_data = [], [], []
    for (j, i), k in col_of.items():
        eq_rows.append(j)
        eq_cols.append(k)
        eq_data.append(1.0)
    a_eq = csr_matrix((eq_data, (eq_rows, eq_cols)), shape=(instance.n_items, n_cols))

    # Inequality: one row per bin.
    ub_rows, ub_cols, ub_data = [], [], []
    for (j, i), k in col_of.items():
        ub_rows.append(i)
        ub_cols.append(k)
        ub_data.append(instance.weights[j, i])
    a_ub = csr_matrix((ub_data, (ub_rows, ub_cols)), shape=(instance.n_bins, n_cols))

    rows = np.fromiter((j for j, _ in pairs), dtype=np.int64, count=n_cols)
    cols = np.fromiter((i for _, i in pairs), dtype=np.int64, count=n_cols)
    return rows, cols, a_eq, a_ub, c, np.ones(instance.n_items)


def scalar_lp_relaxation(instance: GAPInstance) -> LPRelaxationResult:
    """The GAP LP relaxation from the per-pair assembly."""
    return _solve_assembled(instance, assemble_scalar(instance))


def scalar_shmoys_tardos(instance: GAPInstance) -> GAPSolution:
    """Shmoys–Tardos rounding of :func:`scalar_lp_relaxation`."""
    return _round(scalar_lp_relaxation(instance))


def greedy_scalar(instance: GAPInstance) -> List[int]:
    """Reference implementation: per-item Python loops over the instance.
    Returns the assignment list."""
    remaining_cap = instance.capacities.astype(float).copy()
    assignment: List[Optional[int]] = [None] * instance.n_items
    unassigned = set(range(instance.n_items))

    while unassigned:
        best_item = -1
        best_bin = -1
        best_regret = -np.inf
        for j in unassigned:
            feasible = [
                i
                for i in range(instance.n_bins)
                if np.isfinite(instance.costs[j, i])
                and instance.weights[j, i] <= remaining_cap[i] + CAPACITY_EPS
            ]
            if not feasible:
                raise InfeasibleError(f"greedy could not place item {j}")
            ordered = sorted(feasible, key=lambda i: instance.costs[j, i])
            cheapest = ordered[0]
            if len(ordered) > 1:
                regret = instance.costs[j, ordered[1]] - instance.costs[j, cheapest]
            else:
                regret = np.inf  # only one option left: place it now
            if regret > best_regret:
                best_regret = regret
                best_item = j
                best_bin = cheapest

        assignment[best_item] = best_bin
        remaining_cap[best_bin] -= instance.weights[best_item, best_bin]
        unassigned.remove(best_item)

    return [int(a) for a in assignment]


def scalar_greedy_gap(instance: GAPInstance) -> GAPSolution:
    """:func:`greedy_scalar` as a solution object."""
    return GAPSolution(instance=instance, assignment=greedy_scalar(instance), method="greedy")
