"""The dynamic market rebuilt every epoch — the dynamics oracle.

:class:`ObjectRebuildSimulation` runs the same epoch loop as
:class:`~repro.dynamics.simulation.DynamicMarketSimulation` but keeps no
persistent market: each epoch builds a fresh market object graph (with one
cumulative outage delta for everything currently down), replans through
:func:`tests.oracles.lcf.object_lcf`, places arrivals with per-cloudlet
load lists and bills through the cost model. For the same policy and
``warm_start`` setting the production simulation, which delta-patches one
compiled market, must bill bit-identical epochs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.dynamics.simulation import DynamicMarketSimulation, EpochRecord
from repro.market.delta import MarketDelta
from repro.market.market import ServiceMarket
from repro.market.service import ServiceProvider
from repro.utils.validation import CAPACITY_EPS

from tests.oracles.lcf import object_lcf


class ObjectRebuildSimulation(DynamicMarketSimulation):
    """A fresh object-graph market every epoch; no compiled tables."""

    _epoch_market: Optional[ServiceMarket] = None

    def _advance_market(
        self, delta: MarketDelta, providers: List[ServiceProvider]
    ) -> ServiceMarket:
        market = self._market(providers)
        down = self.outages.failed if self.outages is not None else ()
        if down:
            market.apply(MarketDelta(outages=down))
        self._epoch_market = market
        return market

    def step(self) -> EpochRecord:
        self._epoch_market = None
        record = super().step()
        market = self._epoch_market
        if market is not None and market.failed_cloudlets:
            # The rebuilt markets share one network: hand the borrowed
            # cloudlets back at nominal capacity before the next rebuild
            # saves 0.0 as "nominal".
            market.apply(MarketDelta(recoveries=market.failed_cloudlets))
        return record

    def _replan(self, market: ServiceMarket) -> Tuple[Dict[int, int], Set[int]]:
        warm = self._last_result if self.warm_start else None
        result = object_lcf(
            market,
            xi=self.xi,
            allow_remote=True,
            gap_solver=self.gap_solver,
            warm_start=warm,
            engine=self.engine,
        )
        self._last_result = result
        return dict(result.assignment.placement), set(result.assignment.rejected)

    def _incremental(
        self, market: ServiceMarket, arrivals: Set[int]
    ) -> Tuple[Dict[int, int], Set[int]]:
        present = {p.provider_id for p in market.providers}
        placement = {
            pid: node for pid, node in self.placement.items() if pid in present
        }
        rejected = {pid for pid in self.rejected if pid in present}

        model = market.cost_model
        obj_loads: Dict[int, List[float]] = {
            cl.node_id: [0.0, 0.0] for cl in self.network.cloudlets
        }
        for pid, node in placement.items():
            provider = market.provider(pid)
            obj_loads[node][0] += provider.compute_demand
            obj_loads[node][1] += provider.bandwidth_demand

        for pid in sorted(arrivals):
            provider = market.provider(pid)
            best_node = None
            best_cost = model.remote_cost(provider)
            for cl in self.network.cloudlets:
                node = cl.node_id
                if (
                    obj_loads[node][0] + provider.compute_demand
                    > cl.compute_capacity + CAPACITY_EPS
                    or obj_loads[node][1] + provider.bandwidth_demand
                    > cl.bandwidth_capacity + CAPACITY_EPS
                ):
                    continue
                cost = model.cost(provider, cl, 1)  # posted price sheet
                if cost < best_cost:
                    best_cost = cost
                    best_node = node
            if best_node is None:
                rejected.add(pid)
                continue
            placement[pid] = best_node
            obj_loads[best_node][0] += provider.compute_demand
            obj_loads[best_node][1] += provider.bandwidth_demand
        return placement, rejected

    def _social(
        self, market: ServiceMarket, placement: Dict[int, int], rejected: Set[int]
    ) -> float:
        model = market.cost_model
        total = model.social_cost(market.providers_by_id(), placement)
        for pid in sorted(rejected):
            total += model.remote_cost(market.provider(pid))
        return total
