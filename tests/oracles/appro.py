"""Algorithm 1 on the market object graph — the Appro oracle.

Every cost comes from the cost model (``fixed_cost``, ``remote_cost``,
``gap_cost``, the congestion function), every load from the provider and
cloudlet objects: the dense virtual-cloudlet GAP instance built pair by
pair, solved with :func:`~repro.gap.assignment.assignment_gap`, the
per-pair-assembly Shmoys–Tardos, the per-item greedy or the exact solver,
then merged and repaired with per-cloudlet load lists. :func:`repro.core.
appro.appro` runs on the compiled tables and the collapsed transport form
and must return the same placement, rejections and GAP cost.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.assignment import CachingAssignment, Stopwatch
from repro.core.virtual_cloudlets import VirtualCloudletSplit
from repro.gap.assignment import assignment_gap
from repro.gap.exact import exact_gap
from repro.gap.instance import GAPInstance, GAPSolution
from repro.market.market import ServiceMarket
from repro.network.elements import Cloudlet
from repro.utils.contracts import invariant_capacity_feasible
from repro.utils.validation import CAPACITY_EPS

from tests.oracles.gap import scalar_greedy_gap, scalar_shmoys_tardos

OBJECT_GAP_SOLVERS: Dict[str, Callable[[GAPInstance], GAPSolution]] = {
    "assignment": assignment_gap,
    "shmoys_tardos": scalar_shmoys_tardos,
    "greedy": scalar_greedy_gap,
    "exact": exact_gap,
}


# --------------------------------------------------------------------- #
# The GAP reduction, from the cost model
# --------------------------------------------------------------------- #
def object_slot_charge(split: VirtualCloudletSplit, cloudlet: Cloudlet, k: int) -> float:
    """The charge of slot ``k >= 1`` of ``cloudlet``, from the cost model:
    ``alpha_i + beta_i`` under ``"flat"``, the marginal social congestion
    charge ``(alpha_i + beta_i) * (k*g(k) - (k-1)*g(k-1))`` under
    ``"marginal"``."""
    coeff = cloudlet.alpha + cloudlet.beta
    if split.slot_pricing == "flat":
        return coeff
    g = split.market.cost_model.congestion
    return coeff * (k * g(k) - (k - 1) * g(k - 1))


def object_gap_instance(split: VirtualCloudletSplit) -> GAPInstance:
    """Items = providers (in id order), bins = virtual cloudlets, plus the
    remote bin when ``allow_remote`` is set; one cost-model query per
    (provider, slot) pair."""
    market = split.market
    providers = market.providers
    n = len(providers)
    n_virtual = split.n_virtual
    m = n_virtual + (1 if split.allow_remote else 0)
    costs = np.zeros((n, m))
    weights = np.full((n, m), split.slot_capacity)
    model = market.cost_model
    net = market.network
    for j, provider in enumerate(providers):
        for vc in split.virtual_cloudlets:
            cloudlet = net.cloudlet_at(vc.cloudlet_node)
            costs[j, vc.index] = object_slot_charge(
                split, cloudlet, vc.slot + 1
            ) + model.fixed_cost(provider, cloudlet)
        if split.allow_remote:
            costs[j, n_virtual] = model.remote_cost(provider)
    caps = np.full(m, split.slot_capacity)
    if split.allow_remote:
        caps[-1] = n * split.slot_capacity
    return GAPInstance(costs=costs, weights=weights, capacities=caps)


def object_merged_cost(
    split: VirtualCloudletSplit, placement: Dict[int, int], rejected: Set[int]
) -> float:
    """The GAP objective behind a merged placement, as one exactly rounded
    sum of its cost-model terms (each cloudlet's cheapest slot charges)."""
    market = split.market
    model = market.cost_model
    net = market.network
    counts = Counter(placement.values())
    terms: List[float] = []
    for pid, node in placement.items():
        terms.append(model.fixed_cost(market.provider(pid), net.cloudlet_at(node)))
    terms += [model.remote_cost(market.provider(pid)) for pid in rejected]
    for node, c in counts.items():
        cloudlet = net.cloudlet_at(node)
        slots = range(1, split.n_i[node] + 1)
        terms += sorted(object_slot_charge(split, cloudlet, k) for k in slots)[:c]
    return math.fsum(terms)


# --------------------------------------------------------------------- #
# Capacity repair on per-cloudlet load lists
# --------------------------------------------------------------------- #
def object_loads(market: ServiceMarket, placement: Dict[int, int]) -> Dict[int, List[float]]:
    loads: Dict[int, List[float]] = {
        cl.node_id: [0.0, 0.0] for cl in market.network.cloudlets
    }
    for pid, node in placement.items():
        p = market.provider(pid)
        loads[node][0] += p.compute_demand
        loads[node][1] += p.bandwidth_demand
    return loads


def object_fits(market: ServiceMarket, node: int, load: List[float], pid: int) -> bool:
    cl = market.network.cloudlet_at(node)
    p = market.provider(pid)
    return (
        load[0] + p.compute_demand <= cl.compute_capacity + CAPACITY_EPS
        and load[1] + p.bandwidth_demand <= cl.bandwidth_capacity + CAPACITY_EPS
    )


@invariant_capacity_feasible()
def object_repair_capacities(
    market: ServiceMarket, placement: Dict[int, int]
) -> Tuple[Dict[int, int], Set[int], int]:
    """Evict overflow services (largest first) and re-place each at its
    cheapest feasible ``gap_cost``, or reject it. Returns (placement,
    rejected, moves)."""
    loads = object_loads(market, placement)
    evicted: List[int] = []
    for cl in market.network.cloudlets:
        node = cl.node_id
        members = sorted(
            (pid for pid, n in placement.items() if n == node),
            key=lambda pid: -max(
                market.provider(pid).compute_demand,
                market.provider(pid).bandwidth_demand,
            ),
        )
        k = 0
        while (
            loads[node][0] > cl.compute_capacity + CAPACITY_EPS
            or loads[node][1] > cl.bandwidth_capacity + CAPACITY_EPS
        ) and k < len(members):
            pid = members[k]
            k += 1
            p = market.provider(pid)
            loads[node][0] -= p.compute_demand
            loads[node][1] -= p.bandwidth_demand
            del placement[pid]
            evicted.append(pid)

    rejected: Set[int] = set()
    moves = 0
    model = market.cost_model
    for pid in evicted:
        provider = market.provider(pid)
        candidates = [
            cl.node_id
            for cl in market.network.cloudlets
            if object_fits(market, cl.node_id, loads[cl.node_id], pid)
        ]
        if not candidates:
            rejected.add(pid)
            continue
        best = min(
            candidates,
            key=lambda n: model.gap_cost(provider, market.network.cloudlet_at(n)),
        )
        placement[pid] = best
        loads[best][0] += provider.compute_demand
        loads[best][1] += provider.bandwidth_demand
        moves += 1
    return placement, rejected, moves


# --------------------------------------------------------------------- #
# Algorithm 1, cold and warm
# --------------------------------------------------------------------- #
def _object_warm_appro(
    market: ServiceMarket,
    seed_placement: Dict[int, int],
    seed_rejected: Set[int],
    allow_remote: bool,
) -> CachingAssignment:
    """Warm start: survivors keep their seeded strategy, the repair restores
    feasibility, newcomers enter greedily at their cheapest feasible
    ``gap_cost`` (or stay remote when that is cheaper)."""
    with Stopwatch() as watch:
        present = set(p.provider_id for p in market.providers)
        valid_nodes = {cl.node_id for cl in market.network.cloudlets}
        placement = {
            pid: node
            for pid, node in seed_placement.items()
            if pid in present and node in valid_nodes
        }
        rejected: Set[int] = (
            {pid for pid in seed_rejected if pid in present}
            if allow_remote
            else set()
        )
        newcomers = sorted(
            pid for pid in present if pid not in placement and pid not in rejected
        )
        placement, repair_rejected, moves = object_repair_capacities(market, placement)
        rejected |= repair_rejected

        entered = 0
        model = market.cost_model
        obj_loads = object_loads(market, placement)
        for pid in newcomers:
            provider = market.provider(pid)
            candidates_o = [
                cl.node_id
                for cl in market.network.cloudlets
                if object_fits(market, cl.node_id, obj_loads[cl.node_id], pid)
            ]
            if not candidates_o:
                rejected.add(pid)
                continue
            best_node = min(
                candidates_o,
                key=lambda n: model.gap_cost(
                    provider, market.network.cloudlet_at(n)
                ),
            )
            best_cost = model.gap_cost(
                provider, market.network.cloudlet_at(best_node)
            )
            if allow_remote and model.remote_cost(provider) < best_cost:
                rejected.add(pid)
                continue
            placement[pid] = best_node
            obj_loads[best_node][0] += provider.compute_demand
            obj_loads[best_node][1] += provider.bandwidth_demand
            entered += 1

    return CachingAssignment(
        market=market,
        placement=placement,
        rejected=frozenset(rejected),
        algorithm="Appro[warm]",
        runtime_s=watch.elapsed,
        info={
            "warm_start": True,
            "repair_moves": moves,
            "warm_entries": entered,
            "warm_survivors": len(placement) - entered,
        },
    )


def object_appro(
    market: ServiceMarket,
    gap_solver: str = "assignment",
    allow_remote: bool = False,
    slot_pricing: str = "marginal",
    warm_start: Optional[CachingAssignment] = None,
) -> CachingAssignment:
    """Algorithm 1 on the object graph; the arguments mean what they mean
    for :func:`repro.core.appro.appro`."""
    solve = OBJECT_GAP_SOLVERS[gap_solver]
    if warm_start is not None:
        return _object_warm_appro(
            market,
            seed_placement=dict(warm_start.placement),
            seed_rejected=set(warm_start.rejected),
            allow_remote=allow_remote,
        )

    with Stopwatch() as watch:
        split = VirtualCloudletSplit(
            market, allow_remote=allow_remote, slot_pricing=slot_pricing
        )
        solution = solve(object_gap_instance(split))
        placement, gap_rejected = split.merge_assignment(solution.assignment)
        if gap_solver == "assignment":
            # Exact: the merged placement's terms, and — the GAP LP being
            # integral — its own lower bound.
            gap_cost = object_merged_cost(split, placement, gap_rejected)
            gap_lower_bound: Optional[float] = gap_cost
        else:
            gap_cost, gap_lower_bound = solution.cost, solution.lower_bound
        placement, repair_rejected, moves = object_repair_capacities(market, placement)

    return CachingAssignment(
        market=market,
        placement=placement,
        rejected=frozenset(gap_rejected | repair_rejected),
        algorithm=f"Appro[{gap_solver}]",
        runtime_s=watch.elapsed,
        info={
            "gap_cost": gap_cost,
            "gap_lower_bound": gap_lower_bound,
            "delta": split.delta,
            "kappa": split.kappa,
            "n_prime_max": split.n_prime_max,
            "virtual_cloudlets": split.n_virtual,
            "repair_moves": moves,
            "ratio_bound": 2.0 * split.delta * split.kappa,
            "degradation": solution.degradation,
        },
    )
