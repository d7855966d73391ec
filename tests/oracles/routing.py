"""networkx single-source rows — the routing oracle.

One Dijkstra (delays) or BFS (hops) per source, as plain ``{node: value}``
dicts. :class:`repro.network.routing.RoutingTable` must return the same
floats, compared with ``==``.
"""

from __future__ import annotations

from typing import Dict

import networkx as nx


def delay_row(graph: nx.Graph, source: int) -> Dict[int, float]:
    """Min-delay (sum of ``weight``) distance to every reachable node."""
    return dict(nx.single_source_dijkstra_path_length(graph, source, weight="weight"))


def hop_row(graph: nx.Graph, source: int) -> Dict[int, int]:
    """Fewest-edges distance to every reachable node."""
    return dict(nx.single_source_shortest_path_length(graph, source))
