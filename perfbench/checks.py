"""Per-op correctness checks, run outside the timed interval.

Each check returns a list of failure messages; an op with any message
counts as failed.  The checks recompute from the program's objects rather
than trusting the values the op reported: capacities are summed from the
providers' own demands against the cloudlets' current capacities, and
costs are re-summed over the object graph (``market.cost_model``), not
read from the compiled tables the program bills from.
"""

from __future__ import annotations

import math
from typing import Collection, Iterable, List, Mapping

from repro.market import ServiceMarket
from repro.network import MECNetwork
from repro.utils.validation import CAPACITY_EPS

#: Relative tolerance for cost recomputes.  The same Eq. (6) terms summed
#: in a different order differ in the last few bits only.
COST_RTOL = 1e-9


def check_placement(
    network: MECNetwork,
    providers: Mapping[int, object],
    placement: Mapping[int, int],
    rejected: Collection[int],
    failed: Iterable[int] = (),
) -> List[str]:
    """Capacity feasibility against current capacities, failed cloudlets
    at zero and empty, and placed ∪ rejected == present, disjoint."""
    problems: List[str] = []
    failed = set(failed)
    present = set(providers)
    placed = set(placement)
    rejected = set(rejected)
    if placed & rejected:
        problems.append(f"{len(placed & rejected)} providers both placed and rejected")
    if placed | rejected != present:
        missing = len(present - placed - rejected)
        extra = len((placed | rejected) - present)
        problems.append(f"placed ∪ rejected != present ({missing} missing, {extra} extra)")
    loads = {cl.node_id: [0.0, 0.0] for cl in network.cloudlets}
    for pid, node in placement.items():
        if node not in loads:
            problems.append(f"provider {pid} placed on non-cloudlet node {node}")
            continue
        provider = providers.get(pid)
        if provider is None:
            continue
        loads[node][0] += provider.compute_demand
        loads[node][1] += provider.bandwidth_demand
    for cl in network.cloudlets:
        cpu, bw = loads[cl.node_id]
        if cl.node_id in failed:
            if cl.compute_capacity != 0.0 or cl.bandwidth_capacity != 0.0:
                problems.append(f"failed cloudlet {cl.node_id} has nonzero capacity")
            if cpu > 0.0 or bw > 0.0:
                problems.append(f"failed cloudlet {cl.node_id} hosts providers")
        if cpu > cl.compute_capacity + CAPACITY_EPS or bw > cl.bandwidth_capacity + CAPACITY_EPS:
            problems.append(
                f"cloudlet {cl.node_id} over capacity: load ({cpu:.6g}, {bw:.6g}) > "
                f"({cl.compute_capacity:.6g}, {cl.bandwidth_capacity:.6g})"
            )
    return problems


def recompute_cost(
    market: ServiceMarket, placement: Mapping[int, int], rejected: Collection[int]
) -> float:
    """Eq. (6) over the placed providers plus remote-serving cost of the
    rejected ones, from the market's object graph: the per-provider cost
    model, not the compiled (and delta-patched) tables."""
    model = market.cost_model
    total = model.social_cost(market.providers_by_id(), placement)
    for pid in sorted(rejected):
        total += model.remote_cost(market.provider(pid))
    return total


def compiled_cost(
    market: ServiceMarket, placement: Mapping[int, int], rejected: Collection[int]
) -> float:
    """The same bill from the market's compiled tables; used on a freshly
    built market, whose tables have never been delta-patched."""
    cm = market.compile()
    total = cm.social_cost(placement)
    for pid in sorted(rejected):
        total += cm.remote_cost(pid)
    return total


def check_cost(billed: float, recomputed: float, what: str) -> List[str]:
    if math.isfinite(billed) and math.isclose(billed, recomputed, rel_tol=COST_RTOL):
        return []
    return [f"billed social cost {billed!r} != {what} {recomputed!r}"]


def check_flag(value: object, what: str) -> List[str]:
    """A stability flag (equilibrium, certification) must be exactly True."""
    return [] if value is True else [f"{what} is {value!r}"]
