"""The paper's comparison baselines (Section IV.A).

``JoOffloadCache`` — modelled on the joint service caching + task offloading
algorithm of Xu, Chen & Zhou, INFOCOM'18 [23], run *independently* by each
provider "without communicating with each other" (the paper's adaptation to
the multi-provider market). Each provider picks the cloudlet minimising its
joint offloading + caching cost under the *static* price sheet — published
congestion coefficients ``alpha_i + beta_i``, instantiation, processing and
request-traffic offloading — but it can observe neither the other providers'
choices (no congestion anticipation: the herding LCF's coordination fixes)
nor the consistency-update cost, which [23] does not model.

``OffloadCache`` — the greedy separation of offloading from caching [20]:
each provider first routes its requests to the offloading-optimal cloudlet
(minimum end-to-end delay from its users, the natural offloading objective),
then instantiates the service "with its requests". It ignores prices,
congestion and updates alike, making it the worst of the three, as in
Figs. 2–3.

Both run sequential admission: when the preferred cloudlet lacks capacity
the provider takes its next-best feasible choice, and is rejected (service
stays remote) only when no cloudlet fits it.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.core.assignment import CachingAssignment, Stopwatch
from repro.market.compiled import CompiledMarket
from repro.market.market import ServiceMarket


def _sequential_admission(
    cm: CompiledMarket, preference: np.ndarray
) -> Tuple[Dict[int, int], Set[int]]:
    """Admit providers in id order; each takes its cheapest feasible
    cloudlet under ``preference``, a precomputed ``(n, m)`` cost table —
    both baselines' preferences are occupancy-independent, which is what
    makes them tabulable up front. Forbidden (infinite fixed cost) pairs,
    e.g. latency-budget violations, are rejected for the baselines too.
    """
    loads = np.zeros((cm.n_cloudlets, 2))
    placement: Dict[int, int] = {}
    rejected: Set[int] = set()

    # `preference` is indexed by *physical* row: admission walks providers
    # in id order but gathers each one's row through the active-row map,
    # so delta-patched (non-dense) tables admit identically.
    for i, pid in zip(cm.active_rows, cm.provider_ids):
        mask = cm.fits_mask(i, loads) & np.isfinite(cm.fixed[i])
        candidates = np.flatnonzero(mask)
        if candidates.size == 0:
            rejected.add(pid)
            continue
        # np.argmin returns the first minimum, the cloudlet a strict
        # `cost < best_cost` scan in cloudlet order settles on.
        best = int(candidates[np.argmin(preference[i, candidates])])
        if not preference[i, best] < np.inf:
            rejected.add(pid)
            continue
        placement[pid] = cm.cloudlet_nodes[best]
        loads[best] += cm.demand[i]
    return placement, rejected


def jo_offload_cache(
    market: ServiceMarket,
    compiled: Optional[CompiledMarket] = None,
) -> CachingAssignment:
    """The ``JoOffloadCache`` baseline (see module docstring)."""
    cm = compiled if compiled is not None else market.compile()
    with Stopwatch() as watch:
        # Joint offloading + caching under static prices: the provider sees
        # the published per-unit congestion prices (occupancy 1, i.e.
        # itself) but not the other providers' simultaneous choices, and
        # the update/synchronisation cost is invisible to [23]. Published
        # congestion price + instantiation + access, tabulated.
        preference = (
            (cm.coeff * cm.g[1])[None, :] + cm.instantiation[:, None]
        ) + cm.access
        placement, rejected = _sequential_admission(cm, preference)
    return CachingAssignment(
        market=market,
        placement=placement,
        rejected=frozenset(rejected),
        algorithm="JoOffloadCache",
        runtime_s=watch.elapsed,
    )


def offload_cache(
    market: ServiceMarket,
    compiled: Optional[CompiledMarket] = None,
) -> CachingAssignment:
    """The ``OffloadCache`` baseline (see module docstring)."""
    cm = compiled if compiled is not None else market.compile()
    with Stopwatch() as watch:
        # Pure offloading optimum: minimum end-to-end delay from the users
        # to the cloudlet; caching (prices, congestion, updates) is decided
        # "later" by simply instantiating where the requests went.
        placement, rejected = _sequential_admission(cm, cm.user_delay)
    return CachingAssignment(
        market=market,
        placement=placement,
        rejected=frozenset(rejected),
        algorithm="OffloadCache",
        runtime_s=watch.elapsed,
    )


__all__ = ["jo_offload_cache", "offload_cache"]
