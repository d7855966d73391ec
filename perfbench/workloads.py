"""The three benchmark workloads.

Every workload follows the same protocol, driven by ``run.py``:

* ``setup(seed)`` builds the inputs from the seed and is timed as
  ``setup_s`` (for the dynamic workloads it includes the first, cold
  epoch); a run sets up ``n_setups`` times and reports the median;
* ``prepare(state)`` readies one op's input, untimed;
* ``op(state, arg)`` is the timed operation;
* ``check(state, out)`` runs the correctness checks, untimed, and returns
  the op's billed social cost, its migrations and any failure messages;
* ``finish(state)`` runs the end-of-run checks; ``close(state)`` releases
  worker processes.

The program is driven only through its public API, and calls go through
module attributes (``rcore.lcf``) so the span recorders in ``spans.py``
see them when installed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, List, Tuple

import numpy as np

import repro.core as rcore
import repro.dynamics as rdyn
import repro.market as rmarket
import repro.network as rnet

from checks import check_cost, check_flag, check_placement, compiled_cost, recompute_cost

#: Section IV.A dressing with cloudlets scaled up so the market can absorb
#: hundreds to ten thousand providers (as in the scale/shard benchmarks).
VMS_PER_CLOUDLET = (90, 180)


def fixed_topology(nodes: int) -> "rnet.MECNetwork":
    """One GT-ITM transit-stub topology per size, seeded by its node count
    as in the scale and shard benchmarks.  The run's seed drives the demand
    on it (providers and their churn): with a topology per seed, the
    per-run figures were mostly a draw of the network."""
    return rnet.random_mec_network(nodes, rng=nodes, vms_per_cloudlet=VMS_PER_CLOUDLET)


def _seeds(seed: int, stream: int, count: int) -> List[int]:
    """``count`` independent integer seeds for one input stream."""
    state = np.random.SeedSequence([seed, stream]).generate_state(count)
    return [int(s) for s in state]


@dataclass
class Outcome:
    social_cost: float
    migrations: int
    problems: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------- #
# cold_placement: Algorithm 1 -> 2 from cold on fresh markets
# ---------------------------------------------------------------------- #
class ColdPlacement:
    """compile -> LCF (full information, remote bin open) -> bill, on a
    freshly built market per op.  The GAP layer dominates.

    Each setup draws ``pool`` provider sets on the fixed topology; op ``i``
    solves a pristine copy of instance ``i mod pool``.  A run stops only
    after a whole pass over the pool (``period``), so every instance is
    timed equally often whatever the program's speed."""

    name = "cold_placement"
    #: Input generation alone takes ~0.1 s, so it is repeated more often
    #: for a steady median.
    n_setups = 9

    def __init__(self, nodes: int = 100, providers: int = 200, pool: int = 16) -> None:
        self.nodes = nodes
        self.providers = providers
        self.pool = pool
        self.period = pool
        #: Ops always run at least one pass over the instance pool, so the
        #: mean social cost covers the same instances on every run.
        self.min_ops = pool

    def setup(self, seed: int) -> Any:
        network = fixed_topology(self.nodes)
        pool = [
            (network, rmarket.generate_providers(network, self.providers, rng=s), rmarket.Pricing())
            for s in _seeds(seed, 1, self.pool)
        ]
        return {"pool": pool, "next": 0}

    def prepare(self, state: Any) -> Tuple[Any, ...]:
        # A pristine copy per op: routing caches and provider flags written
        # by one op must not warm the next op on the same instance.
        k = state["next"] % self.pool
        state["next"] += 1
        return copy.deepcopy(state["pool"][k])

    def op(self, state: Any, instance: Tuple[Any, ...]) -> Any:
        network, providers, pricing = instance
        market = rmarket.ServiceMarket(network, providers, pricing=pricing)
        market.compile()
        result = rcore.lcf(
            market, xi=0.5, information="full", engine="batch", allow_remote=True
        )
        return market, result, result.assignment.social_cost

    def check(self, state: Any, out: Any) -> Outcome:
        market, result, billed = out
        assignment = result.assignment
        problems = check_placement(
            market.network,
            market.providers_by_id(),
            assignment.placement,
            assignment.rejected,
        )
        problems += check_flag(result.is_equilibrium, "LCF is_equilibrium")
        problems += check_cost(
            billed,
            recompute_cost(market, assignment.placement, assignment.rejected),
            "object-graph recompute",
        )
        return Outcome(billed, 0, problems)

    def finish(self, state: Any) -> List[str]:
        return []

    def close(self, state: Any) -> None:
        pass


# ---------------------------------------------------------------------- #
# Dynamic workloads: one persistent delta-patched market, one op per epoch
# ---------------------------------------------------------------------- #
class _Dynamic:
    min_ops = 1
    #: A setup takes several seconds (it includes the cold first epoch);
    #: two keep a run under a minute.
    n_setups = 2
    #: Every epoch is its own input: any op count is a whole pass.
    period = 1

    def build(self, seed: int) -> Any:
        raise NotImplementedError

    def setup(self, seed: int) -> Any:
        state = {"sim": self.build(seed)}
        try:
            state["setup_outcome"] = self.check(state, self.op(state, None))
        except BaseException:
            state["sim"].close()
            raise
        return state

    def prepare(self, state: Any) -> None:
        return None

    def op(self, state: Any, _arg: None) -> Any:
        return state["sim"].step()

    def check(self, state: Any, record: Any) -> Outcome:
        sim = state["sim"]
        state["last"] = record
        present = {p.provider_id: p for p in sim.population.present}
        failed = sim.outages.failed if sim.outages is not None else ()
        problems = check_placement(
            sim.network, present, sim.placement, sim.rejected, failed
        )
        problems += check_cost(
            record.social_cost,
            recompute_cost(sim.market, sim.placement, sim.rejected),
            "object-graph recompute",
        )
        return Outcome(record.social_cost, record.migrations, problems)

    def finish(self, state: Any) -> List[str]:
        """Rebuild the market from scratch and re-bill the last epoch: a
        delta-patch drift in the persistent tables shows up here."""
        sim = state["sim"]
        providers = sim.population.present
        if not providers:
            return []
        fresh = rmarket.ServiceMarket(
            sim.network,
            providers,
            pricing=sim.pricing,
            congestion=sim.congestion,
            latency_budget_ms=sim.latency_budget_ms,
        )
        return check_cost(
            state["last"].social_cost,
            compiled_cost(fresh, sim.placement, sim.rejected),
            "freshly compiled market recompute",
        )

    def close(self, state: Any) -> None:
        state["sim"].close()


class WarmChurn(_Dynamic):
    """Warm-started LCF replans every epoch with churn and outages: the
    delta-patch + warm-replan path.  The GAP layer runs only in setup."""

    name = "warm_churn"

    def __init__(self, nodes: int = 200, population: int = 600) -> None:
        self.nodes = nodes
        self.population = population
        #: The mean social cost is taken over the first ``min_ops`` epochs,
        #: so it is the same quantity on every run of a seed.
        self.min_ops = 200

    def build(self, seed: int) -> Any:
        (s_pop,) = _seeds(seed, 2, 1)
        network = fixed_topology(self.nodes)
        # Arrival rate x lifetime = the initial population: a steady state.
        population = rdyn.PopulationProcess(
            network,
            arrival_rate=self.population / 10,
            mean_lifetime=10,
            rng=s_pop,
            initial_population=self.population,
        )
        # One outage trace per size, like the topology.  An outage epoch
        # takes the cheap failover path instead of a replan, so with a trace
        # per seed the share of outage epochs (28-38 % over ten seeds) set
        # op_p50_s and ops_per_s more than the program did.
        outages = rdyn.IndependentOutageTrace(network, mttf=40, mttr=4, rng=self.nodes)
        return rdyn.DynamicMarketSimulation(
            network,
            population,
            policy="replan",
            warm_start=True,
            outages=outages,
            recovery="failover",
        )


class ShardedRegion(_Dynamic):
    """Incremental policy plus region-sharded settles dispatched to a
    worker pool, at ~10^4 providers.  Never touches Appro or the GAP."""

    name = "sharded_region"

    def __init__(self, nodes: int = 1000, population: int = 10_000) -> None:
        self.nodes = nodes
        self.population = population
        #: Epoch times vary by ~15 % within a run; 32 of them keep the
        #: run's median and 90th percentile steady across runs.
        self.min_ops = 32

    def build(self, seed: int) -> Any:
        (s_pop,) = _seeds(seed, 3, 1)
        network = fixed_topology(self.nodes)
        population = rdyn.PopulationProcess(
            network,
            arrival_rate=self.population / 20,
            mean_lifetime=20,
            rng=s_pop,
            initial_population=self.population,
        )
        return rdyn.DynamicMarketSimulation(
            network,
            population,
            policy="incremental",
            sharding="region",
            latency_budget_ms=3.0,
            shard_workers=2,
        )

    def check(self, state: Any, record: Any) -> Outcome:
        outcome = super().check(state, record)
        outcome.problems += check_flag(
            record.equilibrium_certified, f"epoch {record.epoch} equilibrium_certified"
        )
        return outcome


WORKLOADS = {
    ColdPlacement.name: ColdPlacement,
    WarmChurn.name: WarmChurn,
    ShardedRegion.name: ShardedRegion,
}
