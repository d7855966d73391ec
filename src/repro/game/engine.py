"""The incremental best-response engine.

The naive dynamics in :mod:`repro.game.best_response` re-evaluate the
player-facing cost function resource by resource on every scan and recompute
the Rosenthal potential from scratch once per round.  Both are Python-level
loops over callables, which dominates the wall clock of every
equilibrium-seeking path (LCF's ``information="full"`` mode, the PoA study,
the convergence experiments).

:class:`CompiledGame` evaluates the game's cost structure exactly once —
fixed costs, shared congestion costs at every occupancy, demands and
capacities all become numpy tables — and :func:`incremental_best_response`
runs the same round-robin dynamics on top of array state:

* per-resource occupancy and load vectors are maintained by applying the
  mover's delta (instead of re-aggregating the profile),
* the Rosenthal potential is maintained by a per-move accumulator
  (``Phi`` changes by exactly the mover's cost improvement — the exact
  potential property),
* each best-response scan is one vectorised ``argmin`` over the compiled
  cost row, with the same first-minimum tie-breaking as the naive scan.

The engine is move-for-move equivalent to the naive implementation: same
visiting order, same strict-improvement threshold, same tie-breaking, same
capacity tolerance.  ``tests/game/test_engine_equivalence.py`` pins this
down differentially on randomized markets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, InfeasibleError
from repro.game.congestion import Profile, SingletonCongestionGame

if TYPE_CHECKING:  # pragma: no cover - cycle guard (market.compiled is upstream)
    from repro.market.compiled import CompiledMarket
from repro.utils.contracts import (
    check_potential_accumulator,
    invariant_capacity_feasible,
    invariant_potential_descends,
    invariants_active,
)
from repro.utils.validation import CAPACITY_EPS

#: Minimum strict cost improvement for a move (mirrors best_response.py).
IMPROVEMENT_EPS = 1e-9


class CompiledGame:
    """Dense-array view of a :class:`SingletonCongestionGame`.

    Tables
    ------
    ``fixed``
        ``(n_players, n_resources)`` — ``fixed_cost(p, r)``.
    ``shared``
        ``(n_resources, n_players + 1)`` — ``shared_cost(r, k)`` in column
        ``k`` (column 0 is unused and zero; occupancy never exceeds the
        player count in a singleton game).
    ``demand``
        ``(n_players, n_resources, dims)`` for capacitated games, else
        ``None``.
    ``capacity``
        ``(n_resources, dims)`` for capacitated games, else ``None``.

    All entries are produced by the exact same ``float(...)`` evaluations
    the naive engine performs, so compiled cost comparisons are bit-equal
    to the naive ones.
    """

    def __init__(self, game: SingletonCongestionGame) -> None:
        self.game = game
        self.players: List[Hashable] = list(game.players)
        self.resources: List[Hashable] = list(game.resources)
        self.player_index: Dict[Hashable, int] = {
            p: i for i, p in enumerate(self.players)
        }
        self.resource_index: Dict[Hashable, int] = {
            r: j for j, r in enumerate(self.resources)
        }
        n, m = len(self.players), len(self.resources)

        self.fixed = np.empty((n, m), dtype=float)
        for i, p in enumerate(self.players):
            for j, r in enumerate(self.resources):
                self.fixed[i, j] = game.fixed_cost(p, r)

        self.shared = np.zeros((m, n + 1), dtype=float)
        for j, r in enumerate(self.resources):
            for k in range(1, n + 1):
                self.shared[j, k] = game.shared_cost(r, k)

        if game.capacitated:
            self.capacity = np.stack(
                [game.capacity_of(r) for r in self.resources]
            ).astype(float)
            dims = self.capacity.shape[1]
            self.demand = np.empty((n, m, dims), dtype=float)
            for i, p in enumerate(self.players):
                for j, r in enumerate(self.resources):
                    self.demand[i, j] = game.demand_of(p, r)
        else:
            self.capacity = None
            self.demand = None

    @classmethod
    def from_market(
        cls, cm: "CompiledMarket", game: SingletonCongestionGame
    ) -> "CompiledGame":
        """Build the game's tables as slices of a :class:`CompiledMarket`.

        The market-bridged game (see :func:`repro.core.bridge.market_game`)
        uses provider ids as players and cloudlet node ids as resources, so
        its tables are row/column selections of the market-wide ones — no
        cost-model re-evaluation at all. Entries are bit-equal to what
        ``CompiledGame(game)`` would compute: the fixed table is the same
        memoised ``fixed_cost`` value, and the shared table is the same
        IEEE product ``(alpha_i + beta_i) * g(k)`` of the same two doubles.
        """
        try:
            rows = [cm.provider_index[p] for p in game.players]
            cols = [cm.cloudlet_index[r] for r in game.resources]
        except KeyError as exc:
            raise ConfigurationError(
                f"game player/resource {exc.args[0]!r} is not part of the compiled market"
            ) from None

        self = cls.__new__(cls)
        self.game = game
        self.players = list(game.players)
        self.resources = list(game.resources)
        self.player_index = {p: i for i, p in enumerate(self.players)}
        self.resource_index = {r: j for j, r in enumerate(self.resources)}
        n, m = len(rows), len(cols)

        self.fixed = cm.fixed[np.ix_(rows, cols)]
        self.shared = np.zeros((m, n + 1), dtype=float)
        self.shared[:, 1:] = cm.coeff[cols, None] * cm.g[None, 1 : n + 1]
        self.capacity = cm.capacity[cols].copy()
        self.demand = np.broadcast_to(
            cm.demand[rows][:, None, :], (n, m, cm.demand.shape[1])
        )
        return self

    # ------------------------------------------------------------------ #
    # State construction
    # ------------------------------------------------------------------ #
    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def n_resources(self) -> int:
        return len(self.resources)

    def occupancy_vector(self, profile: Mapping[Hashable, Hashable]) -> np.ndarray:
        """Integer occupancy per resource index."""
        occ = np.zeros(self.n_resources, dtype=np.int64)
        for r in profile.values():
            occ[self.resource_index[r]] += 1
        return occ

    def load_matrix(self, profile: Mapping[Hashable, Hashable]) -> Optional[np.ndarray]:
        """Per-resource load vectors, accumulated in profile order (the
        same addition order as ``game.loads``, so values are bit-equal)."""
        if self.demand is None:
            return None
        loads = np.zeros_like(self.capacity)
        for p, r in profile.items():
            loads[self.resource_index[r]] += self.demand[
                self.player_index[p], self.resource_index[r]
            ]
        return loads

    # ------------------------------------------------------------------ #
    # Vectorised queries
    # ------------------------------------------------------------------ #
    def feasible_mask(self, player_idx: int, loads: Optional[np.ndarray]) -> np.ndarray:
        """Which resources admit the player's demand on top of ``loads``.

        Matches ``game.move_is_feasible`` for resources the player does not
        currently occupy (the best-response scan never queries the current
        one). Uncapacitated games admit everything.
        """
        if self.demand is None:
            return np.ones(self.n_resources, dtype=bool)
        new_load = loads + self.demand[player_idx]
        return np.all(new_load <= self.capacity + CAPACITY_EPS, axis=1)

    def entry_costs(
        self,
        player_idx: int,
        occ: np.ndarray,
        loads: Optional[np.ndarray],
        posted: bool = False,
    ) -> np.ndarray:
        """Cost of joining each resource (infeasible ones are ``+inf``).

        ``posted=True`` evaluates the congestion term at its face value of
        one occupant (the posted-price information model); otherwise the
        player faces the live occupancy plus itself.
        """
        if posted:
            shared = self.shared[:, 1]
        else:
            kcol = np.minimum(occ + 1, self.n_players)
            shared = self.shared[np.arange(self.n_resources), kcol]
        costs = shared + self.fixed[player_idx]
        costs[~self.feasible_mask(player_idx, loads)] = np.inf
        return costs

    def social_cost(self, profile: Mapping[Hashable, Hashable]) -> float:
        """Eq. (6) evaluated from the tables.

        One vectorised gather of the per-player terms, folded left-to-right
        in profile order — bit-equal to ``game.social_cost(profile)``.
        """
        if not profile:
            return 0.0
        rows = np.fromiter(
            (self.player_index[p] for p in profile), dtype=np.int64, count=len(profile)
        )
        cols = np.fromiter(
            (self.resource_index[r] for r in profile.values()),
            dtype=np.int64, count=len(profile),
        )
        occ = np.zeros(self.n_resources, dtype=np.int64)
        np.add.at(occ, cols, 1)
        terms = self.shared[cols, occ[cols]] + self.fixed[rows, cols]
        total = 0.0
        for t in terms.tolist():
            total += t
        return total


def move_order_of(
    game: SingletonCongestionGame, movable: Optional[Iterable[Hashable]]
) -> List[Hashable]:
    """The movable players in player order (everyone when ``movable`` is
    ``None``); ids that are not players raise :class:`InfeasibleError`."""
    if movable is None:
        return list(game.players)
    movable_set = set(movable)
    unknown = movable_set - set(game.players)
    if unknown:
        raise InfeasibleError(f"movable contains unknown players {sorted(unknown, key=str)}")
    return [p for p in game.players if p in movable_set]


@invariant_capacity_feasible()
@invariant_potential_descends()
def incremental_best_response(
    game: SingletonCongestionGame,
    initial_profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]] = None,
    max_rounds: int = 1000,
    compiled: Optional[CompiledGame] = None,
    record_moves: bool = False,
) -> Tuple[Profile, bool, int, int, List[float], List[Tuple[Hashable, Hashable, Hashable, float]]]:
    """Round-robin best-response dynamics on compiled tables.

    Returns ``(profile, converged, rounds, moves, potential_trace,
    move_log)`` with the same semantics as the naive engine; the potential
    trace is maintained by the per-move accumulator. ``move_log`` holds
    ``(player, old_resource, new_resource, cost_delta)`` tuples when
    ``record_moves`` is set (each ``cost_delta`` is the mover's strict
    improvement, i.e. the exact potential decrease of that move).
    """
    game.validate_profile(initial_profile)
    profile: Profile = dict(initial_profile)
    move_order = move_order_of(game, movable)

    phi = game.potential(profile)
    trace = [phi]
    moves = 0
    rounds = 0
    converged = not move_order
    move_log: List[Tuple[Hashable, Hashable, Hashable, float]] = []

    if move_order:
        c = compiled if compiled is not None else game.compile()
        occ = c.occupancy_vector(profile)
        loads = c.load_matrix(profile)
        strat = {p: c.resource_index[profile[p]] for p in move_order}
        mover_idx = [c.player_index[p] for p in move_order]
    else:
        c = None

    for rounds in range(1, max_rounds + 1):
        improved = False
        for p, pi in zip(move_order, mover_idx) if move_order else ():
            cur = strat[p]
            current_cost = c.shared[cur, occ[cur]] + c.fixed[pi, cur]
            costs = c.entry_costs(pi, occ, loads)
            costs[cur] = np.inf
            j = int(np.argmin(costs))
            best = costs[j]
            if not best < current_cost - IMPROVEMENT_EPS:
                continue
            # Apply the move delta. The mover's new cost is exactly the
            # selected entry cost, so the exact-potential property gives
            # the accumulator update for free.
            occ[cur] -= 1
            occ[j] += 1
            if loads is not None:
                loads[cur] -= c.demand[pi, cur]
                loads[j] += c.demand[pi, j]
            strat[p] = j
            profile[p] = c.resources[j]
            delta = float(best - current_cost)
            phi += delta
            if record_moves:
                move_log.append((p, c.resources[cur], c.resources[j], delta))
            moves += 1
            improved = True
        trace.append(phi)
        if not improved:
            converged = True
            break

    if invariants_active():
        # The delta updates are exact by the potential property; verify the
        # accumulator against a from-scratch Rosenthal recomputation.
        check_potential_accumulator(game, profile, phi)
    return profile, converged, rounds, moves, trace, move_log


def warm_started_best_response(
    game: SingletonCongestionGame,
    prior_profile: Mapping[Hashable, Hashable],
    scope: str = "queue",
    max_rounds: int = 1000,
    compiled: Optional[CompiledGame] = None,
    record_moves: bool = False,
    engine: str = "incremental",
) -> Tuple[Profile, bool, int, int, List[float], List[Tuple[Hashable, Hashable, Hashable, float]]]:
    """Carry an equilibrium across a market delta instead of restarting cold.

    ``prior_profile`` is the previous (pre-delta) equilibrium; ``game`` is
    the game on the *current* player population. Three phases:

    1. **Survivors keep their strategies** — the prior profile restricted
       to players and resources that still exist, in player order.
    2. **Evictions** — resources whose capacity no longer covers the
       surviving load shed members (largest demand first, the same rule as
       Appro's repair) until feasible; evictees join the entry queue
       behind the arrivals.
    3. **Queue entry + best response** — queued players enter greedily at
       the live occupancies, then round-robin best response runs with
       ``movable`` limited to the queue (``scope="queue"``, the default)
       or open to everyone (``scope="all"``). With ``scope="queue"`` the
       survivors are *pinned*: the dynamics only settle the players the
       delta actually disturbed, which is what makes warm epochs cheap.

    ``engine`` selects the dynamics kernel settling the queue:
    ``"incremental"`` (the per-turn serial engine above, the default) or
    ``"batch"`` (the batch-vectorized kernel of :mod:`repro.game.batch`
    — the same moves bit for bit, priced in bulk; the right choice when
    an epoch replan disturbs many players at once).

    Returns the same ``(profile, converged, rounds, moves, trace,
    move_log)`` tuple as :func:`incremental_best_response`.
    """
    if scope not in ("queue", "all"):
        raise InfeasibleError(
            f"scope must be 'queue' or 'all', got {scope!r}"
        )
    if engine not in ("incremental", "batch"):
        raise ConfigurationError(
            f"engine must be 'incremental' or 'batch', got {engine!r}"
        )
    c = compiled if compiled is not None else game.compile()
    resources = set(game.resources)
    profile: Profile = {
        p: prior_profile[p]
        for p in game.players
        if p in prior_profile and prior_profile[p] in resources
    }
    queue = [p for p in game.players if p not in profile]

    if c.capacity is not None:
        loads = c.load_matrix(profile)
        for j in range(c.n_resources):
            if np.all(loads[j] <= c.capacity[j] + CAPACITY_EPS):
                continue
            members = sorted(
                (p for p, r in profile.items() if c.resource_index[r] == j),
                key=lambda p: -float(np.max(c.demand[c.player_index[p], j])),
            )
            k = 0
            while (
                np.any(loads[j] > c.capacity[j] + CAPACITY_EPS)
                and k < len(members)
            ):
                p = members[k]
                k += 1
                loads[j] -= c.demand[c.player_index[p], j]
                del profile[p]
                queue.append(p)

    occ = c.occupancy_vector(profile)
    live_loads = c.load_matrix(profile)
    for p in queue:
        pi = c.player_index[p]
        costs = c.entry_costs(pi, occ, live_loads)
        j = int(np.argmin(costs))
        if not np.isfinite(costs[j]):
            raise InfeasibleError(
                f"warm start cannot place player {p!r}: no feasible resource"
            )
        profile[p] = c.resources[j]
        occ[j] += 1
        if live_loads is not None:
            live_loads[j] += c.demand[pi, j]

    movable = queue if scope == "queue" else None
    if engine == "batch":
        from repro.game.batch import batch_best_response  # cycle guard

        return batch_best_response(
            game,
            profile,
            movable=movable,
            max_rounds=max_rounds,
            compiled=c,
            record_moves=record_moves,
        )
    return incremental_best_response(
        game,
        profile,
        movable=movable,
        max_rounds=max_rounds,
        compiled=c,
        record_moves=record_moves,
    )


__all__ = [
    "CompiledGame",
    "IMPROVEMENT_EPS",
    "incremental_best_response",
    "move_order_of",
    "warm_started_best_response",
]
