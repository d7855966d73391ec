"""Nash-equilibrium verification for capacitated singleton games.

A profile is a (constrained, pure) Nash equilibrium of the movable players
when no movable player has a *feasible* unilateral deviation that lowers its
cost by more than ``eps``. Coordinated players are treated as part of the
environment (their strategies are pinned by the Stackelberg leader), which is
exactly the equilibrium notion of Theorem 1.

Every check here — :func:`best_deviation`, :func:`is_nash_equilibrium` (the
Lemma 3 / Theorem 1 check on LCF's output) and :func:`certify_equilibrium`
(the shard certificate) — is one vectorised pass of the batch kernel's
Jacobi pricing over the compiled tables: all movers x resources at once,
infeasible cells masked. Each gain is ``current_cost - entry`` on the same
table floats the scalar per-player scan compares, taken first-max over the
resource order, so verdicts and ``(resource, gain)`` pairs are the scan's
bit for bit (``tests/oracles/equilibrium.py`` keeps the scan as the
differential oracle).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.game.batch import _BatchState
from repro.game.congestion import SingletonCongestionGame
from repro.game.engine import IMPROVEMENT_EPS, CompiledGame, move_order_of


def _mover_state(
    game: SingletonCongestionGame,
    profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]],
    compiled: Optional[CompiledGame] = None,
) -> Optional[_BatchState]:
    """Array state of the movable players (in player order) at ``profile``;
    ``None`` when nobody may move."""
    move_order = move_order_of(game, movable)
    if not move_order:
        return None
    c = compiled if compiled is not None else game.compile()
    return _BatchState(c, dict(profile), move_order)


def _best_gains(state: _BatchState) -> Tuple[np.ndarray, np.ndarray]:
    """Each mover's best feasible deviation: ``(targets, gains)``.

    A gain is ``current_cost - entry`` over the finite (feasible, not
    forbidden) cells; the target is the first resource with the largest
    positive gain, or ``-1`` with gain ``0.0`` when staying put is weakly
    optimal.
    """
    entry, cur_cost = state.entry_block(0)
    with np.errstate(invalid="ignore"):  # inf - inf on a forbidden current pair
        gains = cur_cost[:, None] - entry
    gains[~np.isfinite(entry)] = -np.inf
    targets = np.argmax(gains, axis=1)
    best = gains[np.arange(gains.shape[0]), targets]
    improves = best > 0.0
    return np.where(improves, targets, -1), np.where(improves, best, 0.0)


def best_deviation(
    game: SingletonCongestionGame,
    player: Hashable,
    profile: Mapping[Hashable, Hashable],
) -> Tuple[Optional[Hashable], float]:
    """The player's best feasible deviation and its gain (> 0 = improves).

    Returns ``(None, 0.0)`` when staying put is weakly optimal.
    """
    state = _mover_state(game, profile, [player])
    assert state is not None
    targets, gains = _best_gains(state)
    j = int(targets[0])
    return (state.c.resources[j] if j >= 0 else None), float(gains[0])


def is_nash_equilibrium(
    game: SingletonCongestionGame,
    profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]] = None,
    eps: float = 1e-7,
) -> bool:
    """Whether no movable player can feasibly improve by more than ``eps``.

    ``movable`` ids that are not players raise
    :class:`~repro.exceptions.InfeasibleError`, as in the dynamics engines.
    """
    state = _mover_state(game, profile, movable)
    if state is None:
        return True
    _targets, gains = _best_gains(state)
    return not bool(np.any(gains > eps))


def certify_equilibrium(
    game: SingletonCongestionGame,
    profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]] = None,
    compiled: Optional[CompiledGame] = None,
) -> bool:
    """One vectorised Jacobi propose: can any movable player strictly
    improve under the dynamics' own ``IMPROVEMENT_EPS`` threshold?
    ``False`` means the profile is not a Nash equilibrium of ``game``
    (restricted to the movable population). Unknown ``movable`` ids raise
    :class:`~repro.exceptions.InfeasibleError`."""
    state = _mover_state(game, profile, movable, compiled)
    if state is None:
        return True
    _targets, best, cur_cost = state.propose(0)
    return not bool(np.any(best < cur_cost - IMPROVEMENT_EPS))


__all__ = ["best_deviation", "certify_equilibrium", "is_nash_equilibrium"]
