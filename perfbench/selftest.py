"""Fast self-test of the benchmark itself (``run.py --self-test``).

Runs every workload's op path at a tiny size, untraced and traced, and
requires clean results, complete metric sets and whole passes over each
workload's inputs.  Then it feeds the checks a deliberately infeasible
placement, a cost that does not match its recompute, an uncertified epoch,
an epoch with a wrong bill and an op that raises, and requires each to be
counted as a failure.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from types import SimpleNamespace
from typing import Callable, List

import run
from checks import check_cost, check_placement
from spans import build_tracer
from workloads import ColdPlacement, ShardedRegion, WarmChurn

TINY = {
    "cold_placement": lambda: ColdPlacement(nodes=40, providers=30, pool=2),
    "warm_churn": lambda: WarmChurn(nodes=40, population=40),
    "sharded_region": lambda: ShardedRegion(nodes=100, population=400),
}


class _Raising:
    """Wraps a workload so that every op raises."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.min_ops = 2
        self.n_setups = 1

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def op(self, state, arg):
        raise RuntimeError("injected op failure")


def _tiny(name: str):
    workload = TINY[name]()
    workload.min_ops = 2
    workload.n_setups = 1
    return workload


def _expect(ok: bool, what: str, failures: List[str]) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _workload_paths(failures: List[str]) -> None:
    tracer = build_tracer()
    for name in TINY:
        workload = _tiny(name)
        raw = run.measure(workload, seed=7, seconds=0.01)
        e2e = run.end_to_end(raw)
        _expect(raw["failed"] == 0 and not raw["problems"],
                f"{name}: untraced ops pass their checks {raw['problems'][:2]}", failures)
        _expect(len(raw["times"]) % workload.period == 0,
                f"{name}: ops stop on a whole pass ({len(raw['times'])} ops, "
                f"period {workload.period})", failures)
        _expect(set(e2e) == set(run.END_TO_END)
                and all(math.isfinite(v) and v > 0 for v in e2e.values()),
                f"{name}: every end-to-end metric is positive", failures)
        raw = run.measure(_tiny(name), seed=7, seconds=0.01, tracer=tracer)
        layers = run.per_layer(raw)
        _expect(raw["failed"] == 0, f"{name}: traced ops pass their checks", failures)
        _expect(set(layers) == set(run.per_layer_units()),
                f"{name}: every per-layer metric is reported", failures)
        _expect(not tracer.installed, f"{name}: span recorders removed after the run",
                failures)
        spans = {
            "cold_placement": ("gap.lp_s", "core.lcf_s", "game.nash_check_s"),
            "warm_churn": ("core.select_s", "market.apply_s", "dynamics.step_s"),
            "sharded_region": ("game.partitioned_s", "runtime.map_s", "market.classify_s"),
        }[name]
        _expect(all(layers[s] > 0 for s in spans),
                f"{name}: traced run records {', '.join(spans)}", failures)


def _checks_fire(failures: List[str]) -> None:
    # Placements that break each clause of the placement check: one
    # provider's demand inflated past its cloudlet, an overlap between
    # placed and rejected, unaccounted providers, a provider on a failed
    # cloudlet.
    cold = _tiny("cold_placement")
    state = cold.setup(3)
    market, result, billed = cold.op(state, cold.prepare(state))
    providers = dict(market.providers_by_id())
    node = market.network.cloudlets[0].node_id
    crammed = {pid: node for pid in providers}
    heavy = dict(providers)
    some = next(iter(providers))
    heavy[some] = SimpleNamespace(
        compute_demand=market.network.cloudlets[0].compute_capacity * 2,
        bandwidth_demand=0.0,
    )
    problems = check_placement(market.network, heavy, crammed, ())
    _expect(any("over capacity" in p for p in problems),
            "infeasible placement is reported", failures)
    problems = check_placement(market.network, providers, crammed, {some})
    _expect(any("both placed and rejected" in p for p in problems),
            "placed/rejected overlap is reported", failures)
    problems = check_placement(market.network, providers, {}, ())
    _expect(any("missing" in p for p in problems),
            "unaccounted providers are reported", failures)
    problems = check_placement(market.network, providers, {some: node}, (), failed=[node])
    _expect(any("failed cloudlet" in p for p in problems),
            "a provider on a failed cloudlet is reported", failures)
    _expect(bool(check_cost(billed * (1 + 1e-6), billed, "recompute")),
            "a billed cost off its recompute is reported", failures)
    _expect(bool(cold.check(state, (market, result, billed + 1.0)).problems),
            "cold op with a wrong bill fails its check", failures)

    # An uncertified sharded epoch.
    sharded = _tiny("sharded_region")
    state = sharded.setup(5)
    try:
        record = sharded.op(state, None)
        _expect(not sharded.check(state, record).problems,
                "certified epoch passes", failures)
        forged = dataclasses.replace(record, equilibrium_certified=False)
        _expect(bool(sharded.check(state, forged).problems),
                "uncertified epoch is reported", failures)
        forged = dataclasses.replace(record, social_cost=record.social_cost + 1.0)
        _expect(bool(sharded.check(state, forged).problems),
                "epoch with a wrong bill is reported", failures)
    finally:
        sharded.close(state)

    # Failing ops are counted against attempted ones.
    # Attempts are the ops plus the checked setup epoch and end-of-run check.
    raw = run.measure(_Raising(_tiny("warm_churn")), seed=2, seconds=0.01)
    ops = len(raw["times"])
    layers = run.per_layer(raw)
    _expect(ops >= 2 and raw["failed"] == ops and raw["attempted"] == ops + 2
            and layers["error_rate"] == ops / (ops + 2),
            f"raising ops count in error_rate ({raw['failed']} of {raw['attempted']})",
            failures)


def self_test() -> int:
    failures: List[str] = []
    steps: List[Callable[[List[str]], None]] = [_workload_paths, _checks_fire]
    for step in steps:
        print(step.__name__.strip("_").replace("_", " ") + ":")
        step(failures)
    if failures:
        print(f"self-test: {len(failures)} failed", file=sys.stderr)
        return 1
    print("self-test: ok")
    return 0
