"""Appro's exact GAP core at scale (writes ``BENCH_appro.json``).

One cold Appro run (``allow_remote=True``) on a 300-node / 2,000-provider
compiled market — about 1,900 virtual cloudlets on 30 physical ones —
timed two ways on the same market:

* **transport** — the default ``appro``: the reduction collapsed onto the
  physical cloudlets (:meth:`VirtualCloudletSplit.build_transport`) and
  solved by :func:`repro.gap.transport.solve_transport`;
* **dense** — the oracle: the full ``n × (V + n)`` virtual-cloudlet GAP
  instance from the same compiled tables, solved by
  :func:`repro.gap.assignment.assignment_gap` (``linear_sum_assignment``),
  merged and repaired exactly as Appro does.

Both are exact, so placements and rejection sets must be identical before
any timing is trusted; the transport path must then be at least 10x faster.
"""

import time

from repro.core.appro import _repair_capacities, appro
from repro.core.virtual_cloudlets import VirtualCloudletSplit
from repro.gap.assignment import assignment_gap
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network

from benchmarks.conftest import record_bench

N_NODES = 300
N_PROVIDERS = 2000
MIN_SPEEDUP = 10.0


def _dense_appro(market):
    cm = market.compile()
    split = VirtualCloudletSplit(market, allow_remote=True)
    solution = assignment_gap(split.build_gap_instance(compiled=cm))
    placement, rejected = split.merge_assignment(solution.assignment)
    placement, repair_rejected, _ = _repair_capacities(market, placement, compiled=cm)
    return placement, rejected | repair_rejected


def test_bench_appro_transport_vs_dense(emit):
    network = random_mec_network(N_NODES, rng=N_NODES, vms_per_cloudlet=(90, 180))
    market = generate_market(network, N_PROVIDERS, rng=N_NODES + 1)
    market.compile()

    t0 = time.perf_counter()
    placement, rejected = _dense_appro(market)
    t_dense = time.perf_counter() - t0

    t_transport = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        result = appro(market, allow_remote=True)
        t_transport = min(t_transport, time.perf_counter() - t0)
    assert result.placement == placement
    assert result.rejected == rejected

    speedup = t_dense / t_transport
    record_bench(
        "BENCH_appro.json",
        "appro_cold",
        {
            "n_nodes": N_NODES,
            "n_providers": N_PROVIDERS,
            "virtual_cloudlets": result.info["virtual_cloudlets"],
            "rejected": len(result.rejected),
            "social_cost": result.social_cost,
            "dense_s": t_dense,
            "transport_s": t_transport,
            "speedup": speedup,
        },
    )
    emit(
        f"[appro] {N_NODES} nodes x {N_PROVIDERS} providers "
        f"({result.info['virtual_cloudlets']} virtual cloudlets): dense "
        f"{t_dense:.2f} s, transport {t_transport:.3f} s -> {speedup:.0f}x"
    )
    assert speedup >= MIN_SPEEDUP
