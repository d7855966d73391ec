"""The comparison baselines on the market object graph — their oracles.

Sequential admission with per-cloudlet load lists, each provider scoring
every cloudlet through the cost model (``JoOffloadCache``) or the
network's path delays (``OffloadCache``). :mod:`repro.core.baselines`
tabulates the same preferences from the compiled market and must admit,
place and reject identically.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.assignment import CachingAssignment, Stopwatch
from repro.market.market import ServiceMarket
from repro.market.service import ServiceProvider
from repro.network.elements import Cloudlet
from repro.utils.validation import CAPACITY_EPS


def _sequential_admission(
    market: ServiceMarket,
    preference_cost: Callable[[ServiceProvider, Cloudlet, int], float],
) -> Tuple[Dict[int, int], Set[int]]:
    """Admit providers in id order; each takes its cheapest feasible cloudlet
    under ``preference_cost(provider, cloudlet, occupancy_if_joining)``."""
    loads: Dict[int, List[float]] = {
        cl.node_id: [0.0, 0.0] for cl in market.network.cloudlets
    }
    occupancy: Dict[int, int] = {cl.node_id: 0 for cl in market.network.cloudlets}
    placement: Dict[int, int] = {}
    rejected: Set[int] = set()

    for provider in market.providers:
        best_node: Optional[int] = None
        best_cost = float("inf")
        for cl in market.network.cloudlets:
            node = cl.node_id
            if (
                loads[node][0] + provider.compute_demand > cl.compute_capacity + CAPACITY_EPS
                or loads[node][1] + provider.bandwidth_demand
                > cl.bandwidth_capacity + CAPACITY_EPS
            ):
                continue
            # Forbidden (infinite fixed cost) pairs are rejected.
            if not math.isfinite(market.cost_model.fixed_cost(provider, cl)):
                continue
            cost = preference_cost(provider, cl, occupancy[node] + 1)
            if cost < best_cost:
                best_cost = cost
                best_node = node
        if best_node is None:
            rejected.add(provider.provider_id)
            continue
        placement[provider.provider_id] = best_node
        loads[best_node][0] += provider.compute_demand
        loads[best_node][1] += provider.bandwidth_demand
        occupancy[best_node] += 1
    return placement, rejected


def object_jo_offload_cache(market: ServiceMarket) -> CachingAssignment:
    """``JoOffloadCache``: published congestion price (occupancy 1) plus
    instantiation plus access cost."""
    model = market.cost_model

    def myopic_cost(provider: ServiceProvider, cloudlet: Cloudlet, occupancy: int) -> float:
        return (
            model.congestion_cost(cloudlet, 1)
            + model.instantiation_cost(provider)
            + model.access_cost(provider, cloudlet)
        )

    with Stopwatch() as watch:
        placement, rejected = _sequential_admission(market, myopic_cost)
    return CachingAssignment(
        market=market,
        placement=placement,
        rejected=frozenset(rejected),
        algorithm="JoOffloadCache",
        runtime_s=watch.elapsed,
    )


def object_offload_cache(market: ServiceMarket) -> CachingAssignment:
    """``OffloadCache``: minimum end-to-end delay from the users."""
    network = market.network

    def offload_only_cost(provider: ServiceProvider, cloudlet: Cloudlet, occupancy: int) -> float:
        return network.path_delay(provider.service.user_node, cloudlet.node_id)

    with Stopwatch() as watch:
        placement, rejected = _sequential_admission(market, offload_only_cost)
    return CachingAssignment(
        market=market,
        placement=placement,
        rejected=frozenset(rejected),
        algorithm="OffloadCache",
        runtime_s=watch.elapsed,
    )
