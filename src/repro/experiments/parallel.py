"""Parallel execution of sweep grids, dispatched through the runtime.

A figure sweep is an embarrassingly parallel grid: every ``(x-value,
repetition)`` cell builds its own seeded environment and runs every
algorithm on it. :class:`ParallelSweepRunner` fans that grid through a
:class:`repro.runtime.Runtime` while keeping the results bit-identical
to a serial run:

* **Per-task seeding.** Each cell's seed is a pure function of
  ``(x_index, repetition)`` — never of execution order — either the legacy
  affine scheme (:func:`repro.experiments.harness.legacy_point_seed`) or
  the collision-resistant :func:`sweep_task_seed`, which derives the seed
  from ``numpy.random.SeedSequence(base_seed, spawn_key=(x_index, rep))``
  (the same mixing ``SeedSequence.spawn`` uses for child streams).
* **Shared task body.** Serial mode runs the exact same task function in a
  plain loop, so the only difference between modes is *where* the work
  happens.
* **Deterministic aggregation.** Results are reduced in ``(x_index, rep)``
  order regardless of completion order, and workers return slim
  :class:`~repro.experiments.harness.AssignmentRecord` summaries whose
  floats are extracted identically in both modes.
* **Publish-once payloads.** With ``precompile=True`` each cell's
  compiled market is *published* on the runtime's blob store — pickled
  once per cell, fetched and memoized inside the persistent workers —
  instead of being re-pickled into every task payload (and again on
  every retry).  Task payloads stay a few id-sized fields; this is what
  retired the old ``parallel_sweep.speedup = 0.70`` entry.

Builders crossing the pool boundary must be picklable — module-level
functions or ``functools.partial`` over them (closures and lambdas are
not). The runner checks this up front and raises a
:class:`~repro.exceptions.ConfigurationError` naming the offending object
instead of dying inside the pool.

Execution is *supervised* (see :mod:`repro.runtime.supervisor`): each
cell gets a bounded retry budget with deterministic backoff, a worker
crash fails only the cells it was running (the workers are recycled and
the rest of the grid continues), and an optional JSONL checkpoint
journal lets an interrupted sweep ``resume=`` bit-identically,
re-running only the missing cells. Cells that exhaust their budget
surface as structured :class:`~repro.runtime.TaskFailure` entries on
``SweepResult.failures`` instead of aborting the sweep.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

import numpy as np

from repro.exceptions import ConfigurationError
from repro.experiments.harness import (
    AlgorithmMetrics,
    AlgorithmTable,
    AssignmentRecord,
    SweepResult,
    legacy_point_seed,
)
from repro.market.market import ServiceMarket
from repro.runtime import (
    BlobRef,
    CheckpointJournal,
    RetryPolicy,
    Runtime,
    TaskFailure,
    check_picklable,
    fetch_blob,
    resolve_workers,
)

T = TypeVar("T")
R = TypeVar("R")

def sweep_task_seed(base_seed: int, x_index: int, rep: int, paired: bool = True) -> int:
    """A deterministic, order-independent seed for one sweep task.

    Mixes ``(base_seed, x_index, rep)`` through
    ``numpy.random.SeedSequence`` (the entropy-hashing backbone of
    ``SeedSequence.spawn``), so distinct tasks get statistically
    independent streams no matter which worker runs them first.

    ``paired=True`` (the default) drops ``x_index`` from the key: every
    sweep point then replays repetition ``rep`` on the same environment —
    the common-random-numbers pairing the figure drivers rely on for
    smooth curves.
    """
    spawn_key = (rep,) if paired else (x_index, rep)
    ss = np.random.SeedSequence(base_seed, spawn_key=spawn_key)
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def map_tasks(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    workers: Optional[int] = None,
) -> List[R]:
    """Apply ``fn`` to every task, serially or over a process pool.

    Results come back in task order in both modes. Workers are only spun
    up when they can help (more than one worker *and* more than one
    task).

    This is the ``pool.map``-compatible face of the runtime: single
    attempt per cell, first failure re-raised. Callers that want
    retries, crash isolation and checkpointing use
    :meth:`repro.runtime.Runtime.run` directly (as
    :class:`ParallelSweepRunner` does).
    """
    n_workers = resolve_workers(workers)
    if n_workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    check_picklable(fn, "task function")
    if tasks:
        check_picklable(tasks[0], "task")
    with Runtime(workers=n_workers) as runtime:
        return runtime.run(
            fn,
            tasks,
            retry=RetryPolicy(max_attempts=1),
            fail_fast=True,
        )  # type: ignore[return-value]


@dataclass(frozen=True)
class PointTask:
    """One cell of the sweep grid (picklable).

    The cell's environment can arrive three ways: built in the worker
    from the seeded builder (the default), prebuilt and carried inline on
    ``market`` (serial ``precompile``), or — on a parallel runtime —
    *published* once to the blob store and referenced by ``market_ref``
    (the worker fetches and memoizes the compiled blob, the task payload
    stays a few id-sized fields).
    """

    x_index: int
    rep: int
    x: object
    seed: int
    make_market: Callable[[object, int], ServiceMarket]
    make_algorithms: Callable[[object], AlgorithmTable]
    market: Optional[ServiceMarket] = None
    market_ref: Optional[BlobRef] = None


def run_point_task(task: PointTask) -> Dict[str, AssignmentRecord]:
    """Build the task's seeded market and run every algorithm on it.

    This is the single task body both serial and parallel sweeps execute;
    algorithms run in table order (LCF first — its coordinated/selfish
    marking must be in place before the baselines' cost splits are read).
    """
    if task.market_ref is not None:
        market = fetch_blob(task.market_ref)
    elif task.market is not None:
        market = task.market
    else:
        market = task.make_market(task.x, task.seed)
    algorithms = task.make_algorithms(task.x)
    records: Dict[str, AssignmentRecord] = {}
    for name, run in algorithms.items():
        records[name] = AssignmentRecord.from_assignment(run(market))
    return records


def encode_point_records(records: Dict[str, AssignmentRecord]) -> object:
    """One cell's result as its JSONL checkpoint payload."""
    return {alg: asdict(record) for alg, record in records.items()}


def decode_point_records(payload: object) -> Dict[str, AssignmentRecord]:
    """Inverse of :func:`encode_point_records`; bit-exact for floats
    because JSON serialises them at shortest round-trip precision."""
    return {
        alg: AssignmentRecord(**fields)
        for alg, fields in payload.items()  # type: ignore[union-attr]
    }


@dataclass
class ParallelSweepRunner:
    """Runs sweep grids serially or on a supervised runtime pool.

    ``workers=None``/``1`` → serial in-process execution; ``workers=0`` →
    one process per CPU; ``workers=N`` → ``N`` processes. ``spool=``
    instead dispatches cells to the ``repro host`` agents serving that
    shared spool directory (a
    :class:`~repro.runtime.remote.RemoteTransport`). Identical metrics
    every way.
    """

    workers: Optional[int] = None
    #: Shared spool directory for multi-host dispatch (mutually
    #: exclusive with ``workers``).
    spool: Optional[str] = None

    def run(
        self,
        name: str,
        x_label: str,
        x_values: Sequence[object],
        make_market: Callable[[object, int], ServiceMarket],
        make_algorithms: Callable[[object], AlgorithmTable],
        repetitions: int,
        seed_fn: Optional[Callable[[int, int], int]] = None,
        precompile: bool = False,
        retry: Optional[RetryPolicy] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        runtime: Optional[Runtime] = None,
    ) -> SweepResult:
        """Run the grid; see :func:`repro.experiments.harness.sweep`.

        ``precompile=True`` builds every task's market in the parent and
        compiles it before dispatch; on a parallel runtime the compiled
        blob is *published* once per cell (workers fetch by ref) instead
        of riding inside the task payload. Results are identical either
        way (same seed, same market, same tables).

        ``checkpoint`` names a JSONL journal; each completed ``(x_index,
        rep)`` cell is durably appended as it finishes. With
        ``resume=True`` an existing journal's cells are replayed from
        disk and only the missing ones run — metrics are bit-identical
        to the uninterrupted sweep because each cell's floats round-trip
        JSON exactly. ``resume=False`` truncates any stale journal first.

        ``runtime`` lets the caller supply (and keep) a live
        :class:`~repro.runtime.Runtime` — repeated sweeps then reuse its
        persistent workers and blob store; otherwise one is built from
        ``self.workers`` for the call.

        Cells that exhaust ``retry`` (default: three attempts) are
        reported on ``SweepResult.failures`` and excluded from the
        aggregates; the rest of the grid still completes.
        """
        if repetitions < 1:
            raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
        seed_of = seed_fn if seed_fn is not None else legacy_point_seed
        tasks = [
            PointTask(
                x_index=xi,
                rep=rep,
                x=x,
                seed=seed_of(xi, rep),
                make_market=make_market,
                make_algorithms=make_algorithms,
            )
            for xi, x in enumerate(x_values)
            for rep in range(repetitions)
        ]

        owned = runtime is None
        if runtime is None:
            if self.spool is not None and self.workers is not None:
                raise ConfigurationError(
                    "pass either workers= or spool=, not both"
                )
            if self.spool is not None:
                runtime = Runtime(spool=self.spool)
            else:
                runtime = Runtime(workers=self.workers)
        try:
            parallel = (
                runtime.workers > 1 or not runtime.transport.colocated
            ) and len(tasks) > 1
            if precompile:
                prebuilt = []
                for task in tasks:
                    market = make_market(task.x, task.seed)
                    market.compile()
                    if parallel:
                        ref = runtime.publish(
                            ("sweep-cell", name, task.x_index, task.rep), market
                        )
                        prebuilt.append(replace(task, market_ref=ref))
                    else:
                        prebuilt.append(replace(task, market=market))
                tasks = prebuilt

            if parallel:
                check_picklable(run_point_task, "task function")
                check_picklable(tasks[0], "task")
            journal = None
            if checkpoint is not None:
                journal = CheckpointJournal(checkpoint)
            results = runtime.run(
                run_point_task,
                tasks,
                keys=[(task.x_index, task.rep) for task in tasks],
                retry=retry,
                journal=journal,
                resume=resume,
                encode=encode_point_records,
                decode=decode_point_records,
            )
        finally:
            if owned:
                runtime.close()

        failures: List[TaskFailure] = [
            r for r in results if isinstance(r, TaskFailure)
        ]
        points: List[Dict[str, AlgorithmMetrics]] = []
        for xi in range(len(x_values)):
            collected: Dict[str, List[AssignmentRecord]] = {}
            for task, records in zip(tasks, results):
                if task.x_index != xi or isinstance(records, TaskFailure):
                    continue
                for alg, record in records.items():
                    collected.setdefault(alg, []).append(record)
            points.append(
                {
                    alg: AlgorithmMetrics.from_records(records)
                    for alg, records in collected.items()
                }
            )
        return SweepResult(
            name=name,
            x_label=x_label,
            x_values=list(x_values),
            points=points,
            failures=failures,
        )


__all__ = [
    "ParallelSweepRunner",
    "PointTask",
    "decode_point_records",
    "encode_point_records",
    "map_tasks",
    "resolve_workers",
    "run_point_task",
    "sweep_task_seed",
]
