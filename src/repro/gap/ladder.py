"""The GAP solver degradation ladder: LP timeout → exact assignment or greedy.

A production sweep cannot afford one pathological LP hanging a whole grid
cell, but silently swapping solvers would corrupt the experiment — a
figure averaging Shmoys–Tardos points with greedy points is measuring
neither. :func:`solve_with_degradation` makes the trade explicit: it runs
the requested rung with a time budget, steps down one rung on
:class:`~repro.exceptions.SolverTimeout`, and stamps the substitution on
the returned :class:`~repro.gap.instance.GAPSolution` as a
:class:`~repro.events.DegradationEvent` so callers (and their reports)
can count and surface degraded cells instead of discovering them in the
curves.

Under ``shmoys_tardos`` (LP + rounding, the paper's choice) the ladder
has two fallback rungs, picked by the instance's shape. A uniform-weight
instance — every instance Appro's virtual-cloudlet reduction builds —
falls back to ``assignment`` (:func:`~repro.gap.assignment.assignment_gap`):
exact on that shape and far faster than the LP it replaces, so the
fallback never costs more time or quality than the rung above it. Any
other instance falls back to ``greedy`` (regret-ordered, no LP,
effectively bounded running time).
"""

from __future__ import annotations

from typing import Optional

from repro.events import DegradationEvent
from repro.exceptions import SolverTimeout
from repro.gap.assignment import assignment_gap, uniform_weight
from repro.gap.greedy import greedy_gap
from repro.gap.instance import GAPInstance, GAPSolution
from repro.gap.shmoys_tardos import shmoys_tardos


def solve_with_degradation(
    instance: GAPInstance,
    time_limit_s: Optional[float] = None,
) -> GAPSolution:
    """Solve with Shmoys–Tardos under a time budget, degrading on timeout.

    Without ``time_limit_s`` this is plain :func:`~repro.gap.
    shmoys_tardos.shmoys_tardos`. With one, a :class:`~repro.exceptions.
    SolverTimeout` from the LP falls through to :func:`~repro.gap.
    assignment.assignment_gap` when the instance has uniform weights and
    to :func:`~repro.gap.greedy.greedy_gap` otherwise; the returned
    solution carries a :class:`DegradationEvent` (``solution.degradation``)
    naming the rung used. An untimed solve always returns
    ``degradation=None``. Infeasibility is *not* degraded — an infeasible
    relaxation means the GAP itself has no solution, and a fallback would
    only dress that up.
    """
    try:
        return shmoys_tardos(instance, time_limit_s=time_limit_s)
    except SolverTimeout as exc:
        if uniform_weight(instance) is not None:
            solution = assignment_gap(instance)
        else:
            solution = greedy_gap(instance)
        return GAPSolution(
            instance=solution.instance,
            assignment=solution.assignment,
            method=solution.method,
            lower_bound=solution.lower_bound,
            degradation=DegradationEvent(
                requested="shmoys_tardos",
                used=solution.method,
                reason="timeout",
                detail=str(exc),
            ),
        )


__all__ = ["DegradationEvent", "solve_with_degradation"]
