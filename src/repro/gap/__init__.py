"""Generalized Assignment Problem (GAP) solvers.

Algorithm ``Appro`` (Algorithm 1) reduces service caching to GAP and invokes
the Shmoys–Tardos approximation [34]. This package implements that pipeline
from scratch: the instance model, the LP relaxation (scipy ``linprog``), the
Shmoys–Tardos rounding (cost <= LP optimum, per-bin load <= capacity + max
item weight, i.e. a 2-approximation in the regime used by the paper), plus a
greedy heuristic and an exact branch-and-bound for small instances used to
measure empirical ratios.

Appro's reduction gives every item the same weight, which makes its GAP a
rectangular assignment problem with an integral LP; :func:`assignment_gap`
solves exactly that case for any uniform-weight instance. In Appro's
instances the slots of one cloudlet differ only by a slot charge, so the
assignment is a transportation problem over the physical cloudlets whose
sorted slot charges are the ones an optimum fills (no convexity
precondition); :func:`solve_transport` solves that collapsed form and is
Appro's default on the compiled representation.
"""

from repro.gap.instance import GAPInstance, GAPSolution
from repro.gap.lp import ASSEMBLIES, solve_lp_relaxation, LPRelaxationResult
from repro.gap.shmoys_tardos import shmoys_tardos
from repro.gap.greedy import MODES as GREEDY_MODES, greedy_gap
from repro.gap.exact import exact_gap
from repro.gap.assignment import assignment_gap, uniform_weight
from repro.gap.transport import TransportSolution, solve_transport
from repro.gap.ladder import DegradationEvent, solve_with_degradation

__all__ = [
    "ASSEMBLIES",
    "assignment_gap",
    "DegradationEvent",
    "GAPInstance",
    "GAPSolution",
    "solve_lp_relaxation",
    "LPRelaxationResult",
    "shmoys_tardos",
    "TransportSolution",
    "solve_transport",
    "solve_with_degradation",
    "greedy_gap",
    "GREEDY_MODES",
    "exact_gap",
    "uniform_weight",
]
