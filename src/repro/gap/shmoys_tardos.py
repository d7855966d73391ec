"""The Shmoys–Tardos rounding for min-cost GAP [34].

Pipeline:

1. solve the LP relaxation (:mod:`repro.gap.lp`);
2. for each bin ``i``, create ``ceil(sum_j x[j, i])`` *slots*; sort the items
   fractionally assigned to ``i`` by non-increasing weight ``w[j, i]`` and
   pour their fractions into the slots in order, splitting an item across
   two consecutive slots when a slot fills up;
3. the fractions now form a fractional perfect matching between items and
   slots; extract a minimum-weight integral matching (networkx bipartite
   matching on the positive-fraction edges);
4. each item is assigned to the bin owning its matched slot.

Guarantees (Shmoys & Tardos 1993): the rounded cost is at most the LP
optimum (hence at most the integral optimum), and each bin's load is at most
its capacity plus the largest single item weight placed there. When every
item fits in a bin on its own — exactly the situation in the paper's
virtual-cloudlet reduction, where slot capacity is ``max(a_max, b_max)`` —
the load is below twice the capacity: the "2-approximation" the paper cites.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.exceptions import SolverError
from repro.gap.instance import GAPInstance, GAPSolution
from repro.gap.lp import LPRelaxationResult, solve_lp_relaxation

_EPS = 1e-9


def _build_slots(
    relaxation: LPRelaxationResult,
) -> List[Tuple[int, List[Tuple[int, float]]]]:
    """Split each bin's fractional load into unit slots.

    Returns a list of slots; each slot is ``(bin_index, [(item, fraction)])``
    with the slot's fractions summing to at most 1.
    """
    inst = relaxation.instance
    x = relaxation.fractions
    slots: List[Tuple[int, List[Tuple[int, float]]]] = []

    for i in range(inst.n_bins):
        items = [(j, x[j, i]) for j in range(inst.n_items) if x[j, i] > _EPS]
        if not items:
            continue
        # Non-increasing weight order is what bounds the per-slot weight.
        items.sort(key=lambda t: (-inst.weights[t[0], i], t[0]))
        total = sum(f for _, f in items)
        n_slots = max(1, math.ceil(total - _EPS))

        current: List[Tuple[int, float]] = []
        current_fill = 0.0
        made = 0
        for j, frac in items:
            remaining = frac
            while remaining > _EPS:
                room = 1.0 - current_fill
                take = min(remaining, room)
                current.append((j, take))
                current_fill += take
                remaining -= take
                if current_fill >= 1.0 - _EPS and made < n_slots - 1:
                    slots.append((i, current))
                    made += 1
                    current = []
                    current_fill = 0.0
        if current:
            slots.append((i, current))
            made += 1
    return slots


def shmoys_tardos(
    instance: GAPInstance,
    time_limit_s: Optional[float] = None,
) -> GAPSolution:
    """Round the GAP LP optimum to an integral assignment (see module doc).

    ``time_limit_s`` bounds the LP solve; exceeding it raises
    :class:`~repro.exceptions.SolverTimeout` (callers wanting a fallback
    instead use :func:`repro.gap.ladder.solve_with_degradation`).

    Raises :class:`repro.exceptions.InfeasibleError` when the LP relaxation
    is infeasible and :class:`SolverError` if the matching step fails (which
    would indicate a bug — the fractional matching guarantees existence).
    """
    return _round(solve_lp_relaxation(instance, time_limit_s=time_limit_s))


def _round(relaxation: LPRelaxationResult) -> GAPSolution:
    """The rounding proper: slot the LP optimum's fractions and match items
    to slots at minimum cost."""
    instance = relaxation.instance
    slots = _build_slots(relaxation)

    graph = nx.Graph()
    item_nodes = [("item", j) for j in range(instance.n_items)]
    graph.add_nodes_from(item_nodes, bipartite=0)
    for s, (bin_i, members) in enumerate(slots):
        slot_node = ("slot", s)
        graph.add_node(slot_node, bipartite=1)
        for j, frac in members:
            if frac > _EPS:
                graph.add_edge(
                    ("item", j), slot_node, weight=float(instance.costs[j, bin_i])
                )

    try:
        matching = nx.bipartite.minimum_weight_full_matching(
            graph, top_nodes=item_nodes, weight="weight"
        )
    except ValueError as exc:  # no full matching — should be impossible
        raise SolverError(f"Shmoys–Tardos matching failed: {exc}") from exc

    assignment: List[int] = []
    for j in range(instance.n_items):
        node = matching.get(("item", j))
        if node is None:
            raise SolverError(f"item {j} left unmatched by the rounding")
        _, slot_idx = node
        assignment.append(slots[slot_idx][0])

    return GAPSolution(
        instance=instance,
        assignment=assignment,
        method="shmoys_tardos",
        lower_bound=relaxation.value,
    )


__all__ = ["shmoys_tardos"]
