"""The scalar per-player deviation scan — the Nash-check oracle.

One player at a time, resource by resource through the game's cost
callables: rebuild occupancy and loads, skip infeasible moves, keep the
first resource with the largest positive gain ``current_cost - entry``.
:mod:`repro.game.equilibrium` must agree with it bit for bit;
:func:`scalar_certify` scans the shard certificate's threshold test the
same way.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional, Tuple

from repro.game.congestion import SingletonCongestionGame
from repro.game.engine import IMPROVEMENT_EPS


def scalar_best_deviation(
    game: SingletonCongestionGame,
    player: Hashable,
    profile: Mapping[Hashable, Hashable],
) -> Tuple[Optional[Hashable], float]:
    """The player's best feasible deviation and its gain; ``(None, 0.0)``
    when staying put is weakly optimal."""
    occ = game.occupancy(profile)
    loads = game.loads(profile)
    current = profile[player]
    current_cost = game.cost(player, current, occ[current])
    best_r: Optional[Hashable] = None
    best_gain = 0.0
    for r in game.resources:
        if r == current:
            continue
        if not game.move_is_feasible(player, r, profile, loads):
            continue
        gain = current_cost - game.cost(player, r, occ.get(r, 0) + 1)
        if gain > best_gain:
            best_gain = gain
            best_r = r
    return best_r, best_gain


def scalar_is_nash(
    game: SingletonCongestionGame,
    profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]] = None,
    eps: float = 1e-7,
) -> bool:
    """Whether no movable player can feasibly improve by more than ``eps``."""
    players = list(movable) if movable is not None else list(game.players)
    return all(scalar_best_deviation(game, p, profile)[1] <= eps for p in players)


def scalar_certify(
    game: SingletonCongestionGame,
    profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]] = None,
) -> bool:
    """The shard certificate's test, scanned: no movable player has a
    feasible entry cost below ``current_cost - IMPROVEMENT_EPS``."""
    occ = game.occupancy(profile)
    loads = game.loads(profile)
    for p in movable if movable is not None else game.players:
        current = profile[p]
        threshold = game.cost(p, current, occ[current]) - IMPROVEMENT_EPS
        for r in game.resources:
            if r == current or not game.move_is_feasible(p, r, profile, loads):
                continue
            if game.cost(p, r, occ.get(r, 0) + 1) < threshold:
                return False
    return True
