"""End-to-end benchmark of the repro pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload cold_placement --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

One run sets the workload up ``n_setups`` times (``setup_s`` is their
median), then runs ops for ``--seconds`` seconds — and at least the
workload's ``min_ops``, stopping only after a whole pass over its
``period`` of inputs — checking every op's output outside the timed
interval.  Setup and op times are scaled to a reference host speed
(``hostspeed.py``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` installs the span recorders of ``spans.py`` on every other
op and reports the per-layer metrics, plus the tracing overhead.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out FILE`` also writes the
full stamped record (see ``compare.py``).  See ``README.md`` for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from hostspeed import HostSpeed
from record import stamp
from spans import LAYERS, build_tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

#: A run stops starting ops after this many seconds even when the
#: workload's ``min_ops`` has not been reached, so a badly regressed
#: program still finishes in bounded time.
OP_BUDGET_S = 100.0

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "social_cost": "USD",
    "peak_rss_mb": "MB",
}

#: Per-op self times of the traced spans.
OP_TIMES = (
    "market.compile", "market.apply", "market.classify", "market.shard_view",
    "market.provider_cost", "gap.build", "gap.lp", "gap.round",
    "core.appro_cold", "core.appro_warm", "core.select", "core.lcf",
    "game.br", "game.nash_check", "game.partitioned", "game.certify",
    "runtime.publish", "runtime.map", "dynamics.step",
)
#: Per-op counts.
OP_COUNTS = (
    "market.compile_calls", "market.apply_calls", "market.delta_providers",
    "market.shard_view_calls", "market.provider_cost_calls", "gap.lp_pairs",
    "gap.degradations", "core.repair_moves", "game.br_rounds", "game.br_moves",
    "game.settle_moves", "runtime.publish_calls", "runtime.map_calls",
    "runtime.map_tasks",
)
#: Layers whose self time is also reported per setup.
SETUP_LAYERS = ("market", "gap", "core", "game", "runtime", "dynamics")


def per_layer_units() -> Dict[str, str]:
    units = {f"{name}_s": "s" for name in OP_TIMES}
    units.update({name: "count" for name in OP_COUNTS})
    units["network.generate_s"] = "s"
    units.update({f"setup.{layer}_s": "s" for layer in SETUP_LAYERS})
    units.update({
        "gap.cost_over_bound": "ratio",
        "game.interior_share": "ratio",
        "dynamics.migrations_per_op": "count",
        "error_rate": "ratio",
        "trace.overhead": "ratio",
        "host.kernel_s": "s",
        "host.raw_op_p50_s": "s",
    })
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    return units


def import_program() -> None:
    """Put the checkout's ``src`` on the path, or exit 2 without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC} (run from a full checkout)",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


@contextlib.contextmanager
def local_tempdir() -> Iterator[None]:
    """Keep temporary files inside the checkout, in a per-process directory
    removed afterwards.

    The benchmark reads and writes only inside its checkout.  The worker
    pool of ``sharded_region`` spills large published blobs to a
    ``tempfile.mkdtemp`` directory, which would otherwise land in the
    system temporary directory; the runtime removes its own spill
    directory on close, and this removes anything else left behind."""
    path = TMP / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    previous = tempfile.tempdir
    tempfile.tempdir = str(path)
    try:
        yield
    finally:
        tempfile.tempdir = previous
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()


def _quantile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def _stop_children() -> None:
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join(timeout=10)


def measure(
    workload: Any, seed: int, seconds: float, tracer: Optional[Any] = None
) -> Dict[str, Any]:
    """Set up ``workload.n_setups`` times, then run ops in whole passes of
    ``workload.period`` ops; returns raw measurements.

    Every setup and op is bracketed by two untimed runs of the host-speed
    kernel; its raw time and its time at the reference speed are kept."""
    speed = HostSpeed()
    setups: List[float] = []
    raw_setups: List[float] = []
    setup_traces: List[Dict[str, float]] = []
    problems: List[str] = []
    attempted = failed = 0
    state = None
    try:
        for _ in range(workload.n_setups):
            if state is not None:
                workload.close(state)
                state = None
                gc.collect()
            before = speed.sample()
            if tracer is not None:
                tracer.reset()
                tracer.install()
            start = time.perf_counter()
            try:
                state = workload.setup(seed)
            finally:
                dt = time.perf_counter() - start
                if tracer is not None:
                    tracer.remove()
                    setup_traces.append(tracer.snapshot())
            raw_setups.append(dt)
            setups.append(speed.scale(dt, before, speed.sample()))
            outcome = state.get("setup_outcome")
            if outcome is not None:
                attempted += 1
                if outcome.problems:
                    failed += 1
                    problems += [f"setup: {p}" for p in outcome.problems]

        if tracer is not None:
            tracer.reset()
        times: List[float] = []
        raw_times: List[float] = []
        traced: List[bool] = []
        outcomes: List[Any] = []
        before = speed.sample()
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            whole = len(times) % workload.period == 0
            if elapsed >= seconds and len(times) >= workload.min_ops and whole:
                break
            if elapsed >= OP_BUDGET_S and times:
                break
            arg = workload.prepare(state)
            on = tracer is not None and len(times) % 2 == 0
            if on:
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = workload.op(state, arg)
                error = None
            except Exception:  # a failed op is counted, not fatal
                out, error = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            if on:
                tracer.remove()
            after = speed.sample()
            raw_times.append(dt)
            times.append(speed.scale(dt, before, after))
            before = after
            traced.append(on)
            attempted += 1
            if error is not None:
                failed += 1
                problems.append(f"op {len(times)} raised: {error}")
                continue
            outcome = workload.check(state, out)
            outcomes.append(outcome)
            if outcome.problems:
                failed += 1
                problems += [f"op {len(times)}: {p}" for p in outcome.problems]
        attempted += 1
        end_problems = workload.finish(state)
        if end_problems:
            failed += 1
            problems += [f"end of run: {p}" for p in end_problems]
    finally:
        if state is not None:
            workload.close(state)
        _stop_children()
    return {
        "setups": setups,
        "raw_setups": raw_setups,
        "setup_traces": setup_traces,
        "times": times,
        "raw_times": raw_times,
        "kernel_s": speed.median(),
        "traced": traced,
        "outcomes": outcomes,
        "op_trace": tracer.snapshot() if tracer is not None else {},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "min_ops": workload.min_ops,
    }


def end_to_end(raw: Dict[str, Any]) -> Dict[str, float]:
    times = raw["times"]
    window = raw["outcomes"][: raw["min_ops"]]
    return {
        "setup_s": statistics.median(raw["setups"]),
        "op_p50_s": statistics.median(times),
        "op_p90_s": _quantile(times, 9),
        "ops_per_s": len(times) / sum(times),
        "social_cost": statistics.fmean(o.social_cost for o in window) if window else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(raw: Dict[str, Any]) -> Dict[str, float]:
    on = [t for t, flag in zip(raw["times"], raw["traced"]) if flag]
    off = [t for t, flag in zip(raw["times"], raw["traced"]) if not flag]
    ops = max(len(on), 1)
    op_trace = raw["op_trace"]
    setups = raw["setup_traces"]
    n_setups = max(len(setups), 1)

    def setup_sum(pred) -> float:
        return sum(v for tr in setups for k, v in tr.items() if pred(k)) / n_setups

    def everywhere(key: str) -> float:
        return op_trace.get(key, 0.0) + sum(tr.get(key, 0.0) for tr in setups)

    out = {f"{name}_s": op_trace.get(f"{name}_s", 0.0) / ops for name in OP_TIMES}
    out.update({name: op_trace.get(name, 0.0) / ops for name in OP_COUNTS})
    out["network.generate_s"] = setup_sum(lambda k: k == "network.generate_s")
    for layer in SETUP_LAYERS:
        out[f"setup.{layer}_s"] = setup_sum(
            lambda k, layer=layer: k.startswith(layer + ".") and k.endswith("_s")
        )
    solves = everywhere("gap.solves")
    out["gap.cost_over_bound"] = everywhere("gap.cost_over_bound_sum") / solves if solves else 0.0
    classified = op_trace.get("game.classified_providers", 0.0)
    out["game.interior_share"] = (
        op_trace.get("game.interior_providers", 0.0) / classified if classified else 0.0
    )
    outcomes = raw["outcomes"]
    out["dynamics.migrations_per_op"] = (
        statistics.fmean(o.migrations for o in outcomes) if outcomes else 0.0
    )
    out["error_rate"] = raw["failed"] / raw["attempted"]
    out["trace.overhead"] = (
        statistics.median(on) / statistics.median(off) if on and off else float("nan")
    )
    for layer in LAYERS:
        out[f"{layer}.errors"] = everywhere(f"{layer}.errors")
    out["host.kernel_s"] = raw["kernel_s"]
    out["host.raw_op_p50_s"] = statistics.median(raw["raw_times"]) if raw["raw_times"] else 0.0
    return out


def run(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS  # imports the program

    workload = WORKLOADS[args.workload]()
    tracer = build_tracer() if args.trace else None
    raw = measure(workload, args.seed, args.seconds, tracer)
    if args.trace:
        values, units = per_layer(raw), per_layer_units()
    else:
        values, units = end_to_end(raw), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for problem in raw["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp(ROOT),
        "ops": len(raw["times"]),
        "setups_s": raw["setups"],
        "op_times_s": raw["times"],
        "raw_setups_s": raw["raw_setups"],
        "raw_op_times_s": raw["raw_times"],
        "host_kernel_s": raw["kernel_s"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "problems": raw["problems"][:20],
        "metrics": metrics,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"# {args.workload} seed={args.seed} ops={record['ops']} "
          f"stamp={json.dumps(record['stamp'], sort_keys=True)}")
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("cold_placement", "warm_churn", "sharded_region"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the stamped record to this file")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at a tiny size and prove the checks fire")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    import_program()
    # A terminated run still closes its worker pool and temporary files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with local_tempdir():
        if args.self_test:
            from selftest import self_test

            return self_test()
        return run(args)


if __name__ == "__main__":
    sys.exit(main())
