"""Partitioned best-response equilibria over region shards.

The driver consumes the sharding layer of :mod:`repro.market.shard` and
runs the paper's best-response dynamics as a two-level fixed point:

1. **Interior phase** — each shard settles its interior providers on its
   own :class:`~repro.market.compiled.CompiledMarket` sub-view with the
   batch kernel, boundary providers currently cached on the shard pinned
   in place. Congestion is per-cloudlet, so a shard's occupancies are
   *exact* — the only coupling across shards is boundary providers
   wanting to move between them. Shards are independent and run either
   serially (deterministic reference) or concurrently on a
   :class:`~repro.runtime.Runtime` — blob-published sub-views,
   persistent workers, bit-identical merge.
2. **Boundary phase** — one batch best-response pass over the *global*
   tables with only the boundary providers movable, re-pricing their
   cross-shard options against the frozen interiors.

The loop repeats until a full iteration commits no move (or the
``boundary_rounds`` cap is hit), then the result is *certified*: one
vectorised Jacobi propose over the movable population confirms that no
player can strictly improve — a certified profile is a global Nash
equilibrium of the market game, not merely a fixed point of the loop.

Tolerance semantics
-------------------
With one shard the loop degenerates to the global batch engine — same
tables (bit-equal sub-view), same player order, same column order, same
tie-breaking — so the result is **bit-identical**; the differential
lockdown in ``tests/game/test_partitioned.py`` pins this. With several
shards, the interleaving of commits differs from the global round-robin
schedule, so the dynamics may settle in a *different* Nash equilibrium
of the same potential game. Both endpoints are certified equilibria;
their social costs agree within :data:`BOUNDARY_TOLERANCE` on the test
topologies (documented in ``docs/sharding.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Final,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

import numpy as np

from repro.exceptions import ConfigurationError
from repro.game.batch import batch_best_response
from repro.game.congestion import Profile, SingletonCongestionGame
from repro.game.engine import CompiledGame
from repro.game.equilibrium import certify_equilibrium
from repro.market.compiled import CompiledMarket
from repro.market.shard import (
    MarketPartition,
    ShardClassification,
    classify_providers,
    partition_market,
    shard_view,
)
from repro.runtime.transport import BlobRef, fetch_blob
from repro.utils.contracts import (
    _second_arg,
    _third_arg,
    invariant_capacity_feasible,
    invariant_shard_ownership,
)

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.market.market import ServiceMarket
    from repro.runtime import Runtime

#: Documented relative tolerance between the sharded and the global
#: equilibrium's social cost on multi-shard topologies. Both are
#: *certified* Nash equilibria of the same exact-potential game; they may
#: sit in different basins, and on the test topologies their social costs
#: agree within this bound (single-shard runs are bit-identical instead).
BOUNDARY_TOLERANCE: Final[float] = 0.10


class _TableGame(SingletonCongestionGame):
    """A market game whose aggregate queries read compiled tables.

    The per-pair cost closures are the usual single-entry gathers of the
    :class:`CompiledMarket` tables (bit-equal to the market-bridged
    game's cost-model values — ``CompiledMarket.verify_against`` pins the
    tables). On top of that, the O(n) aggregate queries the batch kernel
    issues once per call — ``loads``, ``validate_profile``,
    ``potential`` — are overridden with vectorised table reads: the
    closure loops are what dominated the sharded wall clock (a
    partitioned run makes 10-20 kernel calls where the global engine
    makes one). ``loads`` accumulates with ``np.add.at``, which applies
    repeated indices in order of appearance — the same addition order,
    and hence the same floats, as the inherited profile-order loop.
    """

    def __init__(self, cm: CompiledMarket, players: Sequence[int]) -> None:
        g_top = len(cm.g) - 1

        def shared(node: int, occupancy: int) -> float:
            return float(
                cm.shared[cm.cloudlet_index[node], min(occupancy, g_top)]
            )

        def fixed(provider_id: int, node: int) -> float:
            return float(
                cm.fixed[cm.provider_index[provider_id], cm.cloudlet_index[node]]
            )

        def demand(provider_id: int, node: int) -> np.ndarray:
            return cm.demand[cm.provider_index[provider_id]].copy()

        def capacity(node: int) -> np.ndarray:
            return cm.capacity[cm.cloudlet_index[node]].copy()

        super().__init__(
            players=list(players),
            resources=list(cm.cloudlet_nodes),
            shared_cost=shared,
            fixed_cost=fixed,
            demand=demand,
            capacity=capacity,
        )
        self._cm = cm
        self.compiled_factory = lambda g: CompiledGame.from_market(cm, g)

    def _gather(self, profile: Mapping[int, int]) -> Tuple[np.ndarray, np.ndarray]:
        cm = self._cm
        rows = np.fromiter(
            (cm.provider_index[p] for p in profile),
            dtype=np.int64,
            count=len(profile),
        )
        cols = np.fromiter(
            (cm.cloudlet_index[r] for r in profile.values()),
            dtype=np.int64,
            count=len(profile),
        )
        return rows, cols

    def loads(self, profile: Mapping[int, int]) -> Dict[int, np.ndarray]:
        if not profile:
            return {}
        cm = self._cm
        rows, cols = self._gather(profile)
        acc = np.zeros_like(cm.capacity)
        np.add.at(acc, cols, cm.demand[rows])
        occupied = np.unique(cols)
        return {cm.cloudlet_nodes[j]: acc[j].copy() for j in occupied.tolist()}

    def potential(self, profile: Mapping[int, int]) -> float:
        cm = self._cm
        if not profile:
            return 0.0
        rows, cols = self._gather(profile)
        occ = np.bincount(cols, minlength=cm.n_cloudlets)
        phi = 0.0
        for j in np.flatnonzero(occ).tolist():
            phi += float(np.sum(cm.shared[j, 1 : occ[j] + 1]))
        phi += float(np.sum(cm.fixed[rows, cols]))
        return phi


def game_from_compiled(
    cm: CompiledMarket, players: Optional[Sequence[int]] = None
) -> SingletonCongestionGame:
    """The market congestion game read directly off compiled tables.

    Cost values are bit-equal to :func:`repro.core.bridge.market_game`'s
    (same memoised table floats), the installed ``compiled_factory``
    slices the tables wholesale, and the O(n) aggregate queries are
    vectorised (see :class:`_TableGame`). It is how a worker process
    turns a shipped shard sub-view back into a playable game without
    holding the :class:`ServiceMarket` (whose cost-model closures do not
    pickle).
    """
    if players is None:
        # ``provider_ids`` is the live id list (tombstoned rows removed).
        players = list(cm.provider_ids)
    return _TableGame(cm, players)


def _settle_shard(
    sub_cm: CompiledMarket,
    sub_profile: Profile,
    movable: Sequence[int],
    max_rounds: int,
) -> Tuple[Profile, int]:
    """Settle one shard's interior providers on its sub-view tables."""
    game = game_from_compiled(sub_cm, players=sorted(sub_profile))
    profile, _converged, _rounds, moves, _trace, _log = batch_best_response(
        game,
        sub_profile,
        movable=movable,
        max_rounds=max_rounds,
        compiled=game.compile(),
    )
    return profile, moves


def _shard_task(
    task: Tuple[BlobRef, int, Tuple[Tuple[int, int], ...], Tuple[int, ...], int],
) -> Tuple[int, Tuple[Tuple[int, int], ...], int]:
    """Worker body for one shard's interior settle.

    ``task`` is ``(blob ref, shard id, profile items, movable ids,
    max_rounds)`` — the heavy sub-view travels by reference (fetched and
    memoized per worker by :func:`repro.runtime.fetch_blob`), the task
    payload is a few tuples. Pure: reads the blob, returns the settled
    items; no module state is written besides the fetch memo.
    """
    ref, shard_id, items, movable, max_rounds = task
    sub_cm = fetch_blob(ref)
    profile, moves = _settle_shard(sub_cm, dict(items), list(movable), max_rounds)
    return shard_id, tuple(sorted(profile.items())), moves


@dataclass(frozen=True)
class PartitionedResult:
    """Outcome of one partitioned equilibrium computation."""

    #: The settled placement, provider id -> cloudlet node.
    profile: Dict[int, int]
    #: Did a full interior+boundary iteration commit zero moves before
    #: the ``boundary_rounds`` cap?
    converged: bool
    #: Boundary-loop iterations executed.
    rounds: int
    #: Moves committed inside shard interiors / by boundary providers.
    interior_moves: int
    boundary_moves: int
    #: Did the final Jacobi propose confirm a global Nash equilibrium?
    certified: bool
    #: Eq. (6) social cost of the settled placement (global tables).
    social_cost: float
    partition: MarketPartition
    classification: ShardClassification = field(repr=False)

    @property
    def moves(self) -> int:
        return self.interior_moves + self.boundary_moves


@invariant_capacity_feasible()
@invariant_shard_ownership(
    get_partition=_second_arg, get_classification=_third_arg
)
def _reconcile(
    market: "ServiceMarket",
    partition: MarketPartition,
    classification: ShardClassification,
    cm: CompiledMarket,
    profile: Profile,
    movable_set: set,
    max_rounds: int,
    boundary_rounds: int,
    runtime: Optional["Runtime"],
    blob_seq: int,
    cache: Optional[Dict[object, object]],
) -> PartitionedResult:
    """The bounded interior/boundary fixed-point loop (see module doc).

    Decorated with the capacity contract (market-form, against the first
    argument) and the shard-ownership contract (partition/classification
    from the second/third arguments) — both armed by
    ``REPRO_DEBUG_INVARIANTS=1``.
    """
    if not profile:
        return PartitionedResult(
            profile={},
            converged=True,
            rounds=0,
            interior_moves=0,
            boundary_moves=0,
            certified=True,
            social_cost=0.0,
            partition=partition,
            classification=classification,
        )

    if cache is None:
        cache = {}

    def view_of(s: int) -> CompiledMarket:
        key = ("view", s, blob_seq)
        if key not in cache:
            cache[key] = shard_view(cm, partition, s, classification)
        return cache[key]

    boundary_movable = sorted(set(classification.boundary) & movable_set)
    # The global boundary game is built once per (table state, placed
    # population): the population never changes inside the loop, only
    # positions do — and across calls at the same delta sequence number
    # (e.g. repeated settles of an undisturbed epoch window) the cached
    # game is the identical object.
    gkey = ("global", blob_seq, tuple(sorted(profile)))
    if gkey not in cache:
        game = game_from_compiled(cm, players=sorted(profile))
        cache[gkey] = (game, game.compile())
    global_game, global_compiled = cache[gkey]

    interior_moves = 0
    boundary_moves = 0
    converged = False
    rounds = 0
    shard_of_cl = partition.shard_of_cloudlet
    # Shards whose occupancies may have changed since their last interior
    # settle. Congestion is per-cloudlet, so only a boundary move into or
    # out of a shard can disturb an already-settled interior — iteration 1
    # settles everything, later iterations only the shards the boundary
    # phase's move log actually touched.
    dirty = set(partition.shard_ids)
    for rounds in range(1, boundary_rounds + 1):
        it_moves = 0

        # Interior phase: shards are disjoint, merge order is irrelevant;
        # shard-id order keeps the serial path deterministic anyway.
        tasks = []
        for s in sorted(dirty):
            in_view = set(classification.interior.get(s, ())) | set(
                classification.boundary
            )
            sub_profile = {
                pid: node
                for pid, node in profile.items()
                if pid in in_view and shard_of_cl.get(node) == s
            }
            mv = sorted(
                set(classification.interior.get(s, ()))
                & movable_set
                & set(sub_profile)
            )
            if not mv:
                continue
            tasks.append((s, sub_profile, mv))

        dispatch = runtime is not None and (
            runtime.workers > 1 or not runtime.transport.colocated
        )
        if dispatch and runtime is not None and len(tasks) > 1:
            payloads = [
                (
                    runtime.publish(("shard", s, blob_seq), view_of(s)),
                    s,
                    tuple(sorted(sub_profile.items())),
                    tuple(mv),
                    max_rounds,
                )
                for s, sub_profile, mv in tasks
            ]
            for _s, items, moves in runtime.map(_shard_task, payloads):
                profile.update(dict(items))
                interior_moves += moves
                it_moves += moves
        else:
            for s, sub_profile, mv in tasks:
                settled, moves = _settle_shard(
                    view_of(s), sub_profile, mv, max_rounds
                )
                profile.update(settled)
                interior_moves += moves
                it_moves += moves

        # Boundary phase: re-price cross-shard options on global tables
        # against the frozen interiors; its move log marks the shards to
        # re-settle next iteration.
        dirty = set()
        if boundary_movable:
            profile_b, _conv, _r, moves, _trace, blog = batch_best_response(
                global_game,
                profile,
                movable=boundary_movable,
                max_rounds=max_rounds,
                compiled=global_compiled,
                record_moves=True,
            )
            profile = profile_b
            boundary_moves += moves
            it_moves += moves
            for _p, old, new, _d in blog:
                dirty.add(shard_of_cl[old])
                dirty.add(shard_of_cl[new])

        if it_moves == 0:
            converged = True
            break

    certified = certify_equilibrium(
        global_game,
        profile,
        movable=sorted(movable_set & set(profile)),
        compiled=global_compiled,
    )
    return PartitionedResult(
        profile=dict(profile),
        converged=converged,
        rounds=rounds,
        interior_moves=interior_moves,
        boundary_moves=boundary_moves,
        certified=certified,
        social_cost=cm.social_cost(profile),
        partition=partition,
        classification=classification,
    )


def partitioned_best_response(
    market: "ServiceMarket",
    initial_profile: Mapping[int, int],
    *,
    partition: Optional[MarketPartition] = None,
    n_shards: Optional[int] = None,
    classification: Optional[ShardClassification] = None,
    movable: Optional[Iterable[int]] = None,
    max_rounds: int = 1000,
    boundary_rounds: int = 8,
    runtime: Optional["Runtime"] = None,
    compiled: Optional[CompiledMarket] = None,
    blob_seq: int = 0,
    cache: Optional[Dict[object, object]] = None,
) -> PartitionedResult:
    """Settle a placement to equilibrium shard by shard.

    Parameters
    ----------
    partition / n_shards:
        An existing :class:`MarketPartition`, or the target shard count
        for :func:`repro.market.shard.partition_market` (default: one
        shard per cloudlet-bearing region).
    movable:
        Providers allowed to move (default: every placed provider);
        intersected with the placed population.
    boundary_rounds:
        Cap on interior/boundary iterations. The loop usually exits
        earlier — at the first iteration committing zero moves.
    runtime:
        Optional :class:`~repro.runtime.Runtime` for concurrent
        interiors (sub-views published once per ``blob_seq``, shards
        settled via :meth:`~repro.runtime.Runtime.map`); ``None`` (or
        one worker) settles serially with bit-identical results.
    classification:
        A precomputed :class:`ShardClassification` for ``compiled`` at
        its current table state (recompute after every applied delta).
    compiled / blob_seq:
        The market's :class:`CompiledMarket` if the caller already holds
        it, and the delta-log sequence number identifying its table
        state — the blob-publication cache key, so an unchanged shard is
        pickled to the workers once per delta, not once per call.
    cache:
        Optional caller-owned dict reused across calls: shard sub-views
        are cached under ``("view", shard_id, blob_seq)`` and the global
        boundary game under ``("global", blob_seq, placed population)``,
        so repeated settles against unchanged tables skip the rebuild
        entirely. The caller is responsible for dropping entries when
        ``blob_seq`` advances (the keys make stale entries inert, but
        they hold memory).
    """
    if boundary_rounds < 1:
        raise ConfigurationError(
            f"boundary_rounds must be >= 1, got {boundary_rounds}"
        )
    cm = compiled if compiled is not None else market.compile()
    if partition is None:
        partition = partition_market(market, n_shards)
    if classification is None:
        classification = classify_providers(cm, partition)
    profile: Profile = dict(initial_profile)
    movable_set = set(movable) if movable is not None else set(profile)
    movable_set &= set(profile)
    return _reconcile(
        market,
        partition,
        classification,
        cm,
        profile,
        movable_set,
        max_rounds,
        boundary_rounds,
        runtime,
        blob_seq,
        cache,
    )


__all__ = [
    "BOUNDARY_TOLERANCE",
    "PartitionedResult",
    "certify_equilibrium",
    "game_from_compiled",
    "partitioned_best_response",
]
