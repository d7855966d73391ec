"""Algorithm 2 on the market object graph — the LCF oracle.

The leader phase is :func:`tests.oracles.appro.object_appro`; coordinated
providers are then chosen by the production
:func:`~repro.core.lcf.select_coordinated_lcf`, and the follower phase
plays on a :class:`~repro.game.congestion.SingletonCongestionGame` whose
tables are built from the cost callables (:func:`callable_game`) instead of
sliced from the market's compiled tables. :func:`repro.core.lcf.lcf` must
decide identically: same coordinated set, placements, rejections,
best-response rounds and moves, and bit-equal social cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.core.assignment import CachingAssignment, Stopwatch
from repro.core.bridge import market_game
from repro.core.lcf import LCFResult, select_coordinated_lcf
from repro.game.best_response import best_response_dynamics
from repro.game.congestion import SingletonCongestionGame
from repro.game.equilibrium import is_nash_equilibrium
from repro.market.market import ServiceMarket
from repro.utils.rng import RandomSource

from tests.oracles.appro import object_appro


def callable_game(
    market: ServiceMarket, players: Optional[Sequence[int]] = None
) -> SingletonCongestionGame:
    """The market's congestion game with no compiled-table factory:
    ``game.compile()`` evaluates the cost callables pair by pair."""
    game = market_game(market, players=players)
    game.compiled_factory = None
    return game


def object_lcf(
    market: ServiceMarket,
    xi: float = 0.7,
    gap_solver: str = "assignment",
    selection: str = "largest_cost",
    rng: RandomSource = None,
    max_rounds: int = 1000,
    allow_remote: bool = False,
    slot_pricing: str = "marginal",
    information: str = "posted_price",
    engine: str = "incremental",
    warm_start: Optional[object] = None,
) -> LCFResult:
    """Algorithm 2 on the object graph; the arguments mean what they mean
    for :func:`repro.core.lcf.lcf`."""
    seed = (
        warm_start.appro_assignment
        if isinstance(warm_start, LCFResult)
        else warm_start
    )

    with Stopwatch() as watch:
        zeta = object_appro(
            market,
            gap_solver=gap_solver,
            allow_remote=allow_remote,
            slot_pricing=slot_pricing,
            warm_start=seed,
        )
        budget = market.coordination_budget(xi)
        coordinated_ids = select_coordinated_lcf(
            market, zeta, budget, strategy=selection, rng=rng
        )
        market.set_coordinated(coordinated_ids)

        coordinated_set = set(coordinated_ids)
        pinned_remote = coordinated_set & set(zeta.rejected)
        profile: Dict[int, int] = {
            pid: zeta.placement[pid]
            for pid in coordinated_ids
            if pid not in pinned_remote
        }
        selfish_ids = [
            p.provider_id
            for p in market.providers
            if p.provider_id not in coordinated_set
        ]

        rejected: Set[int] = set(pinned_remote)
        game_all = callable_game(market)
        placed_selfish: List[int] = []
        posted = information == "posted_price"
        entry_threshold = (
            (lambda pid: market.cost_model.remote_cost(market.provider(pid)))
            if allow_remote
            else (lambda pid: float("inf"))
        )

        if engine in ("incremental", "batch"):
            compiled = game_all.compile()
            occ_vec = compiled.occupancy_vector(profile)
            load_mat = compiled.load_matrix(profile)
            for pid in selfish_ids:
                pi = compiled.player_index[pid]
                costs = compiled.entry_costs(pi, occ_vec, load_mat, posted=posted)
                j = int(np.argmin(costs))
                if not costs[j] < entry_threshold(pid):
                    rejected.add(pid)
                    continue
                node = compiled.resources[j]
                profile[pid] = node
                occ_vec[j] += 1
                if load_mat is not None:
                    load_mat[j] += compiled.demand[pi, j]
                placed_selfish.append(pid)
        else:
            occ: Dict[int, int] = game_all.occupancy(profile)
            loads = game_all.loads(profile)
            for pid in selfish_ids:
                best_node = None
                best_cost = entry_threshold(pid)
                for node in game_all.resources:
                    if not game_all.move_is_feasible(pid, node, profile, loads):
                        continue
                    evaluated_occ = 1 if posted else occ.get(node, 0) + 1
                    c = game_all.cost(pid, node, evaluated_occ)
                    if c < best_cost:
                        best_cost = c
                        best_node = node
                if best_node is None:
                    rejected.add(pid)
                    continue
                profile[pid] = best_node
                occ[best_node] = occ.get(best_node, 0) + 1
                d = game_all.demand_of(pid, best_node)
                loads[best_node] = loads.get(best_node, d * 0.0) + d
                placed_selfish.append(pid)

        game = callable_game(market, players=list(profile))
        if posted:
            result = best_response_dynamics(
                game, profile, movable=[], max_rounds=1, engine=engine
            )
            equilibrium = True
        else:
            result = best_response_dynamics(
                game, profile, movable=placed_selfish, max_rounds=max_rounds,
                engine=engine,
            )
            equilibrium = is_nash_equilibrium(
                game, result.profile, movable=placed_selfish
            )

    assignment = CachingAssignment(
        market=market,
        placement=dict(result.profile),
        rejected=frozenset(rejected),
        algorithm=f"LCF[xi={xi:.2f}]",
        runtime_s=watch.elapsed,
        info={
            "xi": xi,
            "selection": selection,
            "coordinated": len(coordinated_ids),
            "br_rounds": result.rounds,
            "br_moves": result.moves,
            "appro_social_cost": zeta.social_cost,
            "is_equilibrium": equilibrium,
            "warm_start": warm_start is not None,
            "degradation": zeta.info.get("degradation"),
        },
    )
    return LCFResult(
        assignment=assignment,
        appro_assignment=zeta,
        coordinated_ids=coordinated_ids,
        br_rounds=result.rounds,
        br_moves=result.moves,
        is_equilibrium=equilibrium,
    )
