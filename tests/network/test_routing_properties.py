"""Differential properties of the batched routing rows.

:class:`~repro.network.routing.RoutingTable` computes rows with one
``scipy.sparse.csgraph`` call per batch of sources; the oracle is networkx's
single-source Dijkstra/BFS (``tests/oracles/routing.py``). Rows must be
``==`` to the oracle — exact equality, not approximate — on every topology
family the generators produce, whatever batches the rows are fetched in,
and per-pair queries must follow the fixed endpoint rule (``u``'s row when
cached, else ``v``'s).
"""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import TopologyError
from repro.network.generators import random_mec_network
from repro.network.routing import RoutingTable
from repro.network.zoo import as1755_mec_network
from repro.utils.rng import as_rng

from tests.oracles.routing import delay_row, hop_row

COMMON = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)

MODELS = ("transit_stub", "waxman", "scale_free", "as1755")


@st.composite
def topologies(draw):
    """A dressed MEC topology of one of the four families."""
    model = draw(st.sampled_from(MODELS))
    seed = draw(st.integers(0, 2**31 - 1))
    if model == "as1755":
        return as1755_mec_network(rng=seed).graph
    return random_mec_network(draw(st.integers(12, 60)), rng=seed, model=model).graph


@st.composite
def odd_graphs(draw):
    """Small random graphs with zero, integer, float and missing weights."""
    directed = draw(st.booleans())
    n = draw(st.integers(2, 12))
    rng = as_rng(draw(st.integers(0, 2**31 - 1)))
    g = nx.DiGraph() if directed else nx.Graph()
    g.add_nodes_from(range(n))
    for _ in range(draw(st.integers(0, 3 * n))):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        kind = draw(st.sampled_from(("zero", "int", "float", "missing")))
        if kind == "missing":
            g.add_edge(u, v)
        else:
            w = {"zero": 0.0, "int": int(rng.integers(1, 5))}.get(kind)
            g.add_edge(u, v, weight=w if w is not None else float(rng.uniform(0.1, 3.0)))
    return g


def assert_rows_match(rt: RoutingTable, graph: nx.Graph, sources, targets) -> None:
    delays = rt.delay_rows(sources, targets)
    hops = rt.hop_rows(sources, targets)
    for k, u in enumerate(sources):
        want_d, want_h = delay_row(graph, u), hop_row(graph, u)
        for j, v in enumerate(targets):
            assert delays[k, j] == want_d.get(v, math.inf), (u, v)
            assert hops[k, j] == want_h.get(v, math.inf), (u, v)


class TestRowsEqualNetworkx:
    @given(graph=topologies(), data=st.data())
    @settings(**COMMON)
    def test_batched_rows_equal_oracle(self, graph, data):
        nodes = list(graph.nodes)
        rt = RoutingTable(graph)
        # Rows arrive in two batches of arbitrary composition: a batch's
        # rows must not depend on what else was computed with them.
        first = data.draw(st.lists(st.sampled_from(nodes), max_size=len(nodes)))
        assert_rows_match(rt, graph, first, nodes)
        assert_rows_match(rt, graph, nodes, nodes)

    @given(graph=odd_graphs())
    @settings(**COMMON)
    def test_odd_weights_and_directed_graphs(self, graph):
        nodes = list(graph.nodes)
        assert_rows_match(RoutingTable(graph), graph, nodes, nodes)

    @given(graph=topologies(), data=st.data())
    @settings(**COMMON)
    def test_pair_queries_follow_the_endpoint_rule(self, graph, data):
        nodes = list(graph.nodes)
        rt = RoutingTable(graph)
        cached = data.draw(st.lists(st.sampled_from(nodes), max_size=6, unique=True))
        rt.delay_rows(cached, nodes)
        rt.hop_rows(cached, nodes)
        for _ in range(10):
            u, v = data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))
            src, dst = (u, v) if u in cached else (v, u)
            assert rt.path_delay(u, v) == delay_row(graph, src)[dst]
            assert rt.hop_count(u, v) == hop_row(graph, src)[dst]
            if src == v and v not in cached:
                cached.append(v)

    @given(graph=topologies())
    @settings(**COMMON)
    def test_diameter_and_eccentricity(self, graph):
        rt = RoutingTable(graph)
        ecc = {u: max(delay_row(graph, u).values()) for u in graph.nodes}
        assert rt.diameter() == max(ecc.values())
        for u in list(graph.nodes)[:5]:
            assert rt.eccentricity(u) == ecc[u]


class TestReachability:
    def test_disconnected_graph_raises_topology_error(self):
        g = nx.Graph()
        g.add_edge(0, 1, weight=1.0)
        g.add_edge(2, 3, weight=2.0)
        rt = RoutingTable(g)
        assert math.isinf(rt.delay_rows([0], [3])[0, 0])
        with pytest.raises(TopologyError):
            rt.path_delay(0, 3)
        with pytest.raises(TopologyError):
            rt.hop_count(3, 0)
        assert rt.diameter() == 2.0

    def test_digraph_stays_directed(self):
        g = nx.DiGraph()
        g.add_edge(0, 1, weight=1.5)
        g.add_edge(1, 2, weight=2.5)
        rt = RoutingTable(g)
        assert rt.path_delay(0, 2) == 4.0
        assert rt.hop_count(0, 2) == 2
        with pytest.raises(TopologyError):
            rt.path_delay(2, 0)
        with pytest.raises(TopologyError):
            rt.hop_count(1, 0)

    def test_unknown_node_raises_topology_error(self):
        rt = RoutingTable(nx.path_graph(3))
        with pytest.raises(TopologyError):
            rt.path_delay(0, 99)
        with pytest.raises(TopologyError):
            rt.delay_rows([99], [0])
