"""Exact min-cost assignment of items to destinations that sell priced slots.

Appro's reduction (Section III.B, Eq. 7–9) gives every virtual cloudlet room
for exactly one service, so slot ``k`` of cloudlet ``CL_i`` costs provider
``j`` the congestion-free ``fixed[j, i]`` plus a slot charge that depends
only on ``(i, k)``. The slots of one cloudlet therefore differ only by that
charge, and collapsing them back onto their cloudlet turns the rectangular
``n × V`` assignment into a *transportation problem*: ``n`` items, ``d``
destinations (the physical cloudlets, plus the remote bin with ``n``
zero-charge slots), item ``j`` at destination ``b`` paying ``costs[j, b]``,
and destination ``b`` holding ``c`` items paying its ``c`` cheapest charges.
Whoever fills ``b``, an optimal solution uses its cheapest slots — any
provider could swap onto a cheaper idle slot of the same cloudlet for the
same ``costs[j, b]`` — so each charge list is sorted once and the filling
cost is convex in ``c`` by construction. No convexity precondition on the
congestion function is needed: M/M/1's charges, which jump at saturation
and then fall, are simply taken in sorted order, exactly as the dense
assignment would pick them.

:func:`solve_transport` finds the exact optimum in three phases:

1. a greedy seed in item order — each item takes its cheapest
   ``costs[j, b] + next_charge[b]``;
2. an augmenting-path insertion (breadth-first over the destinations) for
   each item the seed stranded, raising :class:`InfeasibleError` when none
   exists, i.e. when no complete assignment does;
3. negative-cycle cancelling on the ``(d + 1)``-node residual graph —
   arc ``a → b`` moves the item at ``a`` with the cheapest
   ``costs[p, b] − costs[p, a]``, arc ``b → sink`` opens ``b``'s next slot,
   arc ``sink → a`` releases ``a``'s last one. Bellman–Ford runs
   warm-started from the previous round's distances and looks for a cycle
   in its predecessor graph after every pass; the cheapest move out of each
   destination is maintained incrementally as items come and go.

With no negative cycle left the assignment is optimal, and the final
distances ``dist`` give destination prices ``pi_b = dist[sink] − dist[b]``
that certify it: by LP duality every price vector bounds the optimum from
below by

``sum_j min_b (costs[j, b] + pi_b) − sum_b sum_k max(0, pi_b − charge[b, k])``

and at the returned prices this bound meets the solution's cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, InfeasibleError

#: A Bellman–Ford relaxation must improve a distance by more than this
#: share of the largest finite item cost; smaller "improvements" are float
#: noise (e.g. a zero-cost swap rounded below zero).
RELAX_RTOL = 1e-12


@dataclass(frozen=True)
class TransportSolution:
    """``destination[j]`` is item ``j``'s destination; ``prices`` are the
    destination prices of the optimality certificate (see module doc)."""

    destination: np.ndarray
    prices: np.ndarray


class _Residual:
    """An assignment plus the arc costs of its residual graph.

    ``arcs`` is ``(d + 1) × (d + 1)`` with the sink as the last node.
    ``arcs[a, b]`` (``a, b < d``) is the cheapest ``costs[p, b] − costs[p, a]``
    over the items ``p`` at ``a``, and ``via[a, b]`` that item; ``arcs[b,
    sink]`` is ``b``'s next charge and ``arcs[sink, a]`` minus ``a``'s last
    used one. Missing arcs are ``inf``. The items at ``b`` are
    ``members[b][: count[b]]`` (unordered; ``position`` indexes into it), so
    neither a move nor a recompute scans the other destinations' items.
    """

    def __init__(self, costs: np.ndarray, charges: List[np.ndarray]) -> None:
        n, d = costs.shape
        self.costs = costs
        #: Column-major copy: a destination's column gathers contiguously.
        self.costs_by_dest = np.ascontiguousarray(costs.T)
        self.charges = charges
        self.cap = [c.shape[0] for c in charges]
        self.count = [0] * d
        self.destination = np.full(n, -1, dtype=np.int64)
        self.members = [np.empty(c, dtype=np.int64) for c in self.cap]
        self.position = np.empty(n, dtype=np.int64)
        self.arcs = np.full((d + 1, d + 1), math.inf)
        self.via = np.full((d, d), -1, dtype=np.int64)
        self.sink = d
        for b in range(d):
            self._price_slots(b)

    def _price_slots(self, b: int) -> None:
        k = self.count[b]
        s = self.sink
        self.arcs[b, s] = self.charges[b][k] if k < self.cap[b] else math.inf
        self.arcs[s, b] = -self.charges[b][k - 1] if k > 0 else math.inf

    def add(self, j: int, b: int) -> None:
        k = self.count[b]
        self.members[b][k] = j
        self.position[j] = k
        self.destination[j] = b
        self.count[b] = k + 1
        self._price_slots(b)
        gains = self.costs[j] - self.costs[j, b]
        gains[b] = math.inf
        row = self.arcs[b, : self.sink]
        better = gains < row
        row[better] = gains[better]
        self.via[b, better] = j

    def remove(self, j: int) -> None:
        b = int(self.destination[j])
        k = self.count[b] - 1
        last = int(self.members[b][k])
        self.members[b][self.position[j]] = last
        self.position[last] = self.position[j]
        self.count[b] = k
        self._price_slots(b)
        stale = np.flatnonzero(self.via[b] == j)
        if stale.size == 0:
            return
        if k == 0:
            self.arcs[b, stale] = math.inf
            self.via[b, stale] = -1
            return
        items = self.members[b][:k]
        by_dest = self.costs_by_dest
        gains = np.take(by_dest[stale], items, axis=1) - by_dest[b, items]
        first = np.argmin(gains, axis=1)
        self.arcs[b, stale] = gains[np.arange(stale.size), first]
        self.via[b, stale] = items[first]

    # ------------------------------------------------------------------ #
    # Phase 1–2: a complete assignment
    # ------------------------------------------------------------------ #
    def seed(self) -> None:
        opening = self.arcs[: self.sink, self.sink]
        stranded: List[int] = []
        for j in range(self.costs.shape[0]):
            total = self.costs[j] + opening
            b = int(np.argmin(total))
            if math.isfinite(total[b]):
                self.add(j, b)
            else:
                stranded.append(j)
        for j in stranded:
            self.insert(j)

    def insert(self, j: int) -> None:
        """Place ``j`` along a shortest (in arcs) chain of moves that ends
        at a destination with a free slot."""
        d = self.sink
        parent = np.full(d, -2, dtype=np.int64)
        queue = [int(b) for b in np.flatnonzero(np.isfinite(self.costs[j]))]
        parent[queue] = -1
        end = -1
        for a in queue:  # the list grows while it is scanned: a BFS
            if self.count[a] < self.cap[a]:
                end = a
                break
            for b in np.flatnonzero(np.isfinite(self.arcs[a, :d]) & (parent == -2)):
                parent[b] = a
                queue.append(int(b))
        if end < 0:
            raise InfeasibleError(
                f"no complete assignment exists: item {j} cannot be placed "
                f"even by moving others"
            )
        b = end
        while parent[b] >= 0:
            a = int(parent[b])
            moved = int(self.via[a, b])
            self.remove(moved)
            self.add(moved, b)
            b = a
        self.add(j, b)

    # ------------------------------------------------------------------ #
    # Phase 3: cancel negative cycles
    # ------------------------------------------------------------------ #
    def negative_cycle(self, dist: np.ndarray, tol: float) -> Optional[List[int]]:
        """Bellman–Ford from ``dist`` (updated in place). Returns a cycle of
        the predecessor graph as nodes in arc order, or ``None`` once no
        distance improves by more than ``tol``."""
        nodes = self.sink + 1
        # Predecessors; the extra index ``nodes`` is a root that every
        # chain without a cycle ends in.
        pred = np.full(nodes + 1, nodes, dtype=np.int64)
        cols = np.arange(nodes)
        hops = max(1, int(nodes).bit_length())
        while True:
            through = dist[:, None] + self.arcs
            best = np.argmin(through, axis=0)
            reach = through[best, cols]
            improved = reach < dist - tol
            if not improved.any():
                return None
            dist[improved] = reach[improved]
            pred[: nodes][improved] = best[improved]
            # 2**hops > nodes steps up the predecessor graph leave every
            # node that hangs off a cycle on that cycle.
            up = pred
            for _ in range(hops):
                up = up[up]
            on_cycle = np.flatnonzero(up[:nodes] != nodes)
            if on_cycle.size:
                start = int(up[on_cycle[0]])
                cycle = [start]
                v = int(pred[start])
                while v != start:
                    cycle.append(v)
                    v = int(pred[v])
                cycle.reverse()
                return cycle

    def cancel(self, cycle: List[int]) -> bool:
        """Apply the moves of ``cycle`` if they lower the exact cost."""
        s = self.sink
        terms: List[float] = []
        moves: List[Tuple[int, int]] = []
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            if u == s:
                terms.append(-self.charges[v][self.count[v] - 1])
            elif v == s:
                terms.append(self.charges[u][self.count[u]])
            else:
                p = int(self.via[u, v])
                terms += [self.costs[p, v], -self.costs[p, u]]
                moves.append((p, v))
        if math.fsum(terms) >= 0.0:  # reprolint: ok[R2] exact sign of an exactly rounded sum
            return False
        for p, _ in moves:
            self.remove(p)
        for p, v in moves:
            self.add(p, v)
        return True


def solve_transport(
    costs: np.ndarray, charges: Sequence[np.ndarray]
) -> TransportSolution:
    """Optimal assignment of ``costs.shape[0]`` items to destinations.

    ``costs`` is ``(n, d)`` with ``inf`` for forbidden pairs; destination
    ``b`` offers ``len(charges[b])`` slots at the given charges (any order;
    an ``inf`` charge is no slot). Raises :class:`InfeasibleError` when no
    complete assignment exists.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2 or costs.shape[1] != len(charges):
        raise ConfigurationError(
            f"costs must be (items, {len(charges)} destinations), got {costs.shape}"
        )
    slots = [np.sort(np.asarray(c, dtype=float)) for c in charges]
    if any(np.any(np.isnan(a) | np.isneginf(a)) for a in [costs, *slots]):
        raise ConfigurationError("costs and charges must not contain NaN or -inf")
    slots = [c[: int(np.searchsorted(c, math.inf))] for c in slots]
    n, d = costs.shape
    room = sum(c.shape[0] for c in slots)
    if room < n:
        raise InfeasibleError(f"{n} items but room for only {room} in total")

    state = _Residual(costs, slots)
    state.seed()
    finite = costs[np.isfinite(costs)]
    tol = RELAX_RTOL * max(1.0, float(np.abs(finite).max()) if finite.size else 1.0)
    dist = np.zeros(d + 1)
    while True:
        cycle = state.negative_cycle(dist, tol)
        # A cycle whose exact cost is not negative is rounding noise: the
        # assignment is optimal to within ``tol`` per arc.
        if cycle is None or not state.cancel(cycle):
            break
    return TransportSolution(
        destination=state.destination, prices=dist[d] - dist[:d]
    )


__all__ = ["TransportSolution", "solve_transport"]
