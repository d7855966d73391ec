"""Best-response dynamics for capacitated singleton congestion games.

Movable players take turns (round-robin, deterministic order) switching to
their cheapest feasible resource; the dynamics stop when a full round passes
without an improving move. Because the game admits Rosenthal's exact
potential, every improving move strictly decreases the potential, so the
dynamics terminate at a (constrained) Nash equilibrium of the movable
players (Lemma 3).

Three engines implement the same dynamics:

* ``"incremental"`` (default) — the compiled-table engine of
  :mod:`repro.game.engine`: costs are precomputed into numpy arrays,
  loads/occupancy/potential are maintained by per-move deltas, and each
  scan is a vectorised argmin. Fast, and move-for-move equivalent.
* ``"batch"`` — the batch-vectorized kernel of :mod:`repro.game.batch`:
  every round prices **all** players' candidate moves as one
  (players x resources) delta-cost matrix with masked infeasibility, and
  commits proposals in deterministic priority order (Jacobi propose,
  Gauss-Seidel commit). Replays the serial move sequence bit for bit;
  the fastest path at 1000-node / 10^4-provider scale.
* ``"naive"`` — the reference implementation below: per-resource Python
  scans and a full Rosenthal-potential recomputation every round, the
  differential-testing oracle of the other two. It is the last reference
  arm still selectable from ``src/``; the others live in ``tests/oracles/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ConvergenceError, InfeasibleError
from repro.game.batch import batch_best_response
from repro.game.congestion import Profile, SingletonCongestionGame
from repro.game.engine import CompiledGame, incremental_best_response, move_order_of
from repro.utils.contracts import (
    invariant_capacity_feasible,
    invariant_potential_descends,
)

_IMPROVEMENT_EPS = 1e-9

ENGINES = ("incremental", "naive", "batch")

#: The engines backed by compiled tables (accept a prebuilt ``compiled=``).
_COMPILED_ENGINES = {
    "incremental": incremental_best_response,
    "batch": batch_best_response,
}


@dataclass
class BestResponseResult:
    """Outcome of a best-response run."""

    profile: Profile
    converged: bool
    rounds: int
    moves: int
    #: Rosenthal potential sampled after each round (index 0 = initial).
    potential_trace: List[float] = field(default_factory=list)
    #: Per-move records ``(player, old, new, cost_delta)``; filled only
    #: when the dynamics ran with ``record_moves=True``.
    move_log: List[Tuple[Hashable, Hashable, Hashable, float]] = field(
        default_factory=list
    )

    @property
    def final_potential(self) -> float:
        return self.potential_trace[-1] if self.potential_trace else float("nan")


def greedy_feasible_profile(
    game: SingletonCongestionGame,
    players: Optional[Sequence[Hashable]] = None,
    base_profile: Optional[Mapping[Hashable, Hashable]] = None,
    order: Optional[Sequence[Hashable]] = None,
) -> Profile:
    """Build a feasible profile by sequential cheapest-feasible placement.

    ``base_profile`` holds already-placed players (e.g. the coordinated set);
    the remaining ``players`` (default: all unplaced) are inserted one at a
    time onto the resource minimising their cost at the occupancy they would
    create. Raises :class:`InfeasibleError` when someone cannot be placed.
    """
    profile: Profile = dict(base_profile) if base_profile else {}
    todo = list(players) if players is not None else [
        p for p in game.players if p not in profile
    ]
    if order is not None:
        order_index = {p: k for k, p in enumerate(order)}
        todo.sort(key=lambda p: order_index.get(p, len(order_index)))

    loads = game.loads(profile)
    occ = game.occupancy(profile)
    for p in todo:
        best_r = None
        best_cost = np.inf
        for r in game.resources:
            if not game.move_is_feasible(p, r, profile, loads):
                continue
            c = game.cost(p, r, occ.get(r, 0) + 1)
            if c < best_cost:
                best_cost = c
                best_r = r
        if best_r is None:
            raise InfeasibleError(f"no feasible resource for player {p!r}")
        profile[p] = best_r
        occ[best_r] = occ.get(best_r, 0) + 1
        if game.capacitated:
            d = game.demand_of(p, best_r)
            loads[best_r] = loads.get(best_r, np.zeros_like(d)) + d
    return profile


def _best_feasible_response(
    game: SingletonCongestionGame,
    player: Hashable,
    profile: Profile,
    loads: Dict[Hashable, np.ndarray],
    occ: Dict[Hashable, int],
) -> Optional[Hashable]:
    """The player's cheapest feasible resource, or ``None`` when staying put
    is (weakly) best. Deviating to ``r`` faces occupancy ``occ[r] + 1``."""
    current = profile[player]
    current_cost = game.cost(player, current, occ[current])
    best_r = None
    best_cost = current_cost - _IMPROVEMENT_EPS
    for r in game.resources:
        if r == current:
            continue
        if not game.move_is_feasible(player, r, profile, loads):
            continue
        c = game.cost(player, r, occ.get(r, 0) + 1)
        if c < best_cost:
            best_cost = c
            best_r = r
    return best_r


@invariant_capacity_feasible()
@invariant_potential_descends()
def best_response_dynamics(
    game: SingletonCongestionGame,
    initial_profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]] = None,
    max_rounds: int = 1000,
    raise_on_nonconvergence: bool = False,
    engine: str = "incremental",
    compiled: Optional[CompiledGame] = None,
    record_moves: bool = False,
) -> BestResponseResult:
    """Run round-robin best-response dynamics from ``initial_profile``.

    Parameters
    ----------
    movable:
        The players allowed to deviate; defaults to all. Coordinated
        (Stackelberg-pinned) players are simply excluded from this set.
    max_rounds:
        Safety bound; the potential argument guarantees termination, the
        bound only protects against ill-formed cost functions.
    raise_on_nonconvergence:
        When ``True``, raises :class:`ConvergenceError` instead of returning
        ``converged=False``.
    engine:
        ``"incremental"`` (compiled tables, per-move deltas — the
        default), ``"batch"`` (one vectorised delta-cost matrix per round
        with Jacobi-propose/Gauss-Seidel-commit conflict resolution; see
        :mod:`repro.game.batch`) or ``"naive"`` (the reference
        full-recompute implementation). All three produce the same
        profiles, move counts and convergence flags; the potentials agree
        to floating-point accumulation accuracy — and the two compiled
        engines agree with each other bit for bit.
    compiled:
        An optional pre-built :class:`CompiledGame` for the incremental
        engine (lets callers amortise table construction across runs).
    record_moves:
        Fill :attr:`BestResponseResult.move_log` with one record per
        improving move.
    """
    if engine not in ENGINES:
        raise ConfigurationError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if engine in _COMPILED_ENGINES:
        profile, converged, rounds, moves, trace, move_log = _COMPILED_ENGINES[engine](
            game,
            initial_profile,
            movable=movable,
            max_rounds=max_rounds,
            compiled=compiled,
            record_moves=record_moves,
        )
        if not converged and raise_on_nonconvergence:
            raise ConvergenceError(
                f"best-response dynamics did not converge in {max_rounds} rounds"
            )
        return BestResponseResult(
            profile=profile,
            converged=converged,
            rounds=rounds,
            moves=moves,
            potential_trace=trace,
            move_log=move_log,
        )

    game.validate_profile(initial_profile)
    profile: Profile = dict(initial_profile)
    move_order = move_order_of(game, movable)
    loads = game.loads(profile)
    occ = game.occupancy(profile)
    trace = [game.potential(profile)]
    moves = 0
    rounds = 0
    converged = not move_order  # nothing to move: trivially converged
    move_log: List[Tuple[Hashable, Hashable, Hashable, float]] = []

    for rounds in range(1, max_rounds + 1):
        improved = False
        for p in move_order:
            r_new = _best_feasible_response(game, p, profile, loads, occ)
            if r_new is None:
                continue
            r_old = profile[p]
            if record_moves:
                old_cost = game.cost(p, r_old, occ[r_old])
            profile[p] = r_new
            occ[r_old] -= 1
            if occ[r_old] == 0:
                del occ[r_old]
            occ[r_new] = occ.get(r_new, 0) + 1
            if game.capacitated:
                loads[r_old] = loads[r_old] - game.demand_of(p, r_old)
                d = game.demand_of(p, r_new)
                loads[r_new] = loads.get(r_new, np.zeros_like(d)) + d
            if record_moves:
                new_cost = game.cost(p, r_new, occ[r_new])
                move_log.append((p, r_old, r_new, new_cost - old_cost))
            moves += 1
            improved = True
        trace.append(game.potential(profile))
        if not improved:
            converged = True
            break

    if not converged and raise_on_nonconvergence:
        raise ConvergenceError(
            f"best-response dynamics did not converge in {max_rounds} rounds"
        )
    return BestResponseResult(
        profile=profile,
        converged=converged,
        rounds=rounds,
        moves=moves,
        potential_trace=trace,
        move_log=move_log,
    )


__all__ = [
    "ENGINES",
    "BestResponseResult",
    "best_response_dynamics",
    "greedy_feasible_profile",
]
