"""The hierarchical service market (Section II.B–II.D).

A :class:`~repro.market.market.ServiceMarket` ties together a two-tiered MEC
network, a set of network service providers (each with one service to cache),
a resource pricing policy, and the congestion-dependent cost model of
Eq. (1)–(5).
"""

from repro.market.service import Service, ServiceProvider
from repro.market.pricing import Pricing
from repro.market.costs import (
    CongestionFunction,
    CostModel,
    LinearCongestion,
    MM1Congestion,
    QuadraticCongestion,
)
from repro.market.market import ServiceMarket
from repro.market.delta import MarketDelta
from repro.market.compiled import CompiledMarket
from repro.market.shard import (
    MarketPartition,
    ShardClassification,
    ShardDelta,
    ShardLog,
    classify_providers,
    partition_market,
    route_delta,
    shard_view,
)
from repro.market.workload import WorkloadParams, generate_providers, generate_market

__all__ = [
    "Service",
    "ServiceProvider",
    "Pricing",
    "CongestionFunction",
    "CostModel",
    "LinearCongestion",
    "QuadraticCongestion",
    "MM1Congestion",
    "ServiceMarket",
    "MarketDelta",
    "CompiledMarket",
    "MarketPartition",
    "ShardClassification",
    "ShardDelta",
    "ShardLog",
    "classify_providers",
    "partition_market",
    "route_delta",
    "shard_view",
    "WorkloadParams",
    "generate_providers",
    "generate_market",
]
