"""Dynamic service markets (extension).

The paper's services are cached *temporarily* — "the original instances are
still kept in remote data centers for later use when the cached service is
destroyed" (Section II.B) — which implies a market that evolves over time:
providers arrive, leave, and cached instances migrate. This package adds
that temporal dimension on top of the static mechanism:

* :class:`~repro.dynamics.population.PopulationProcess` — provider
  arrivals (geometric per epoch) and departures (geometric lifetimes);
* :class:`~repro.dynamics.simulation.DynamicMarketSimulation` — runs a
  caching mechanism over many epochs under the ``replan`` policy
  (recompute every epoch, paying migration costs for instances that move),
  the ``incremental`` policy (surviving placements are sticky; only
  arrivals choose, via the same posted-price entry as LCF's selfish step),
  or the ``hysteresis`` policy (sticky until the social cost drifts past a
  threshold, then replan once — stability with bounded regret);
* migration accounting: moving a cached instance re-ships its data volume
  between cloudlets and re-instantiates the VM.

Epochs mutate one persistent market through
:class:`~repro.market.delta.MarketDelta` (delta-patched compiled tables,
warm-started replans).
"""

from repro.dynamics.population import PopulationEvent, PopulationProcess
from repro.dynamics.simulation import (
    DynamicMarketSimulation,
    EpochRecord,
    SimulationSummary,
)
from repro.dynamics.failures import FailureInjector, FailureReport
from repro.dynamics.outages import (
    CorrelatedOutageTrace,
    IndependentOutageTrace,
    OutageEvent,
    OutageTrace,
    ScheduledOutageTrace,
)
from repro.dynamics.traces import DiurnalTrace

__all__ = [
    "PopulationEvent",
    "PopulationProcess",
    "DynamicMarketSimulation",
    "EpochRecord",
    "SimulationSummary",
    "FailureInjector",
    "FailureReport",
    "DiurnalTrace",
    "OutageEvent",
    "OutageTrace",
    "IndependentOutageTrace",
    "CorrelatedOutageTrace",
    "ScheduledOutageTrace",
]
