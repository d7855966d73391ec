"""Shortest-path routing with batched, cached per-source distance rows.

The cost model turns network distance into bandwidth cost (a cached instance
must synchronise updates back to its home data center, Section II.C), so
distance queries are on the hot path of every algorithm. The queried sources
are user, cluster, cloudlet and data-center nodes, so rows are computed on
demand and cached, never all pairs eagerly.

Every row is one dense float64 array indexed by node position (graph node
order); unreachable nodes hold ``inf``. The rows a batch of sources still
lacks come from a single :func:`scipy.sparse.csgraph.dijkstra` call over a
CSR adjacency of the graph — ``unweighted=True`` for hop counts — so a
market compile fetches all its endpoint rows in one call per kind.

The rows are bit-equal to networkx's single-source Dijkstra/BFS rows. Both
relax ``dist[u] + w(u, v)`` in IEEE double precision over non-negative
weights and keep the minimum. Rounding is monotone, so every settled
distance is the least ``dist[u] + w(u, v)`` over all in-neighbours ``u``,
whatever order the heap settles ties in; that fixed point is unique, and
any Dijkstra that relaxes the same sums reaches the same floats. Hop counts
are small exact integers.

Undirected graphs also answer ``(u, v)`` from a cached row of either
endpoint, which keeps the row set small when many sources query few
destinations. A delay read off ``v``'s row sums the path in the other
direction and may differ from ``u``'s in the last ulp, so the endpoint rule
is fixed: ``u``'s row when cached, else ``v``'s (computed on demand).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import dijkstra

from repro.exceptions import TopologyError

#: Cached rows of one kind (delays or hops), keyed by source node.
_Rows = Dict[int, np.ndarray]


class RoutingTable:
    """Shortest-path oracle over a delay-weighted graph.

    Per-source delay rows (sum of ``weight`` = link delay) and hop-count
    rows (fewest edges) are computed lazily, a batch of sources per
    csgraph call, and memoised as read-only arrays; explicit paths are
    memoised per pair. Query results are identical to an eager all-pairs
    computation — laziness only changes when the Dijkstra runs happen.
    """

    def __init__(self, graph: nx.Graph) -> None:
        if graph.number_of_nodes() == 0:
            raise TopologyError("cannot build a routing table for an empty graph")
        self._graph = graph
        self._symmetric = not graph.is_directed()
        self._nodes: List[int] = list(graph.nodes)
        self._position: Dict[int, int] = {u: k for k, u in enumerate(self._nodes)}
        self._adjacency: Optional[csr_array] = None
        self._delay_rows: _Rows = {}
        self._hop_rows: _Rows = {}
        self._path_cache: Dict[Tuple[int, int], List[int]] = {}

    # ------------------------------------------------------------------ #
    # Row computation
    # ------------------------------------------------------------------ #
    def _pos(self, u: int) -> int:
        try:
            return self._position[u]
        except KeyError:
            raise TopologyError(f"unknown node {u}") from None

    def _csr(self) -> csr_array:
        """The weighted adjacency in node-position order (a missing
        ``weight`` counts 1, as in networkx's Dijkstra)."""
        if self._adjacency is None:
            self._adjacency = nx.to_scipy_sparse_array(
                self._graph, nodelist=self._nodes, weight="weight", format="csr"
            )
        return self._adjacency

    def _fetch(self, rows: _Rows, sources: Sequence[int], unweighted: bool) -> List[np.ndarray]:
        """The rows of ``sources``; the missing ones in one csgraph call."""
        missing = [u for u in dict.fromkeys(sources) if u not in rows]
        if missing:
            dist = dijkstra(
                self._csr(), indices=[self._pos(u) for u in missing], unweighted=unweighted
            )
            dist.flags.writeable = False
            rows.update(zip(missing, dist))
        return [rows[u] for u in sources]

    def _gather(
        self, rows: _Rows, sources: Sequence[int], targets: Sequence[int], unweighted: bool
    ) -> np.ndarray:
        cols = [self._pos(v) for v in targets]
        fetched = self._fetch(rows, sources, unweighted)
        return np.array([row[cols] for row in fetched]).reshape(len(fetched), len(cols))

    def _lookup(self, rows: _Rows, unweighted: bool, u: int, v: int) -> float:
        """Answer ``(u, v)`` from a cached row of ``u`` or — on undirected
        graphs — of ``v``; otherwise compute the row for ``v`` (the
        destination side is the small node set under the cost model's
        query pattern: cloudlets and data centers)."""
        src, dst = u, v
        if src not in rows and self._symmetric:
            src, dst = v, u
        row = rows.get(src)
        if row is None:
            row = self._fetch(rows, [src], unweighted)[0]
        d = float(row[self._pos(dst)])
        if np.isinf(d):
            raise TopologyError(f"no path between {u} and {v}")
        return d

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def delay_rows(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        """``(len(sources), len(targets))`` path delays, each row read off
        ``sources[k]``'s own row. Bulk consumers (the market compiler)
        gather whole endpoint sets this way: one csgraph call covers every
        row not cached yet."""
        return self._gather(self._delay_rows, sources, targets, False)

    def hop_rows(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        """Hop counts (as floats) in the layout of :meth:`delay_rows`."""
        return self._gather(self._hop_rows, sources, targets, True)

    def path_delay(self, u: int, v: int) -> float:
        """Total delay (ms) along the min-delay path; 0 when ``u == v``."""
        return self._lookup(self._delay_rows, False, u, v)

    def hop_count(self, u: int, v: int) -> int:
        """Hop count of the unweighted shortest path; 0 when ``u == v``."""
        return int(self._lookup(self._hop_rows, True, u, v))

    def shortest_path(self, u: int, v: int) -> List[int]:
        """Node sequence of the min-delay path ``u → v`` (inclusive)."""
        key = (u, v)
        if key not in self._path_cache:
            try:
                path = nx.dijkstra_path(self._graph, u, v, weight="weight")
            except nx.NetworkXNoPath:
                raise TopologyError(f"no path between {u} and {v}") from None
            except nx.NodeNotFound as exc:
                raise TopologyError(str(exc)) from None
            self._path_cache[key] = path
        return list(self._path_cache[key])

    def eccentricity(self, u: int) -> float:
        """Max delay from ``u`` to any reachable node."""
        row = self._fetch(self._delay_rows, [u], False)[0]
        return float(row[np.isfinite(row)].max())

    def diameter(self) -> float:
        """Max delay between any node pair (delay-weighted diameter); the
        rows not cached yet come from one all-sources csgraph call."""
        rows = np.stack(self._fetch(self._delay_rows, self._nodes, False))
        return float(rows[np.isfinite(rows)].max())


__all__ = ["RoutingTable"]
