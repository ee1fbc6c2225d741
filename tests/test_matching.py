"""``uwansim.matching`` against networkx's ``max_weight_matching``, whose
unit-weight case it reproduces.

Placement takes its links from the matching, so it must return the
very matching networkx returns, not just one of the same size: otherwise the
routes, and every golden metric, would change.
"""

import sys

import numpy as np
import pytest

nx = pytest.importorskip("networkx")

from uwansim import matching, scenario
from uwansim.matching import max_cardinality_matching


def networkx_pairs(graph):
    return sorted(tuple(sorted(p)) for p in nx.max_weight_matching(graph, maxcardinality=True))


def graph_of(adjacency):
    """The graph placement built with networkx: nodes in index order, then
    each edge (i, j), i < j, in increasing order."""
    graph = nx.Graph()
    graph.add_nodes_from(range(len(adjacency)))
    graph.add_edges_from((i, j) for i, row in enumerate(adjacency) for j in row if i < j)
    return graph


def test_within_range_graphs_match_networkx():
    rng = np.random.default_rng(2024)
    for case in range(2000):
        n = int(rng.integers(4, 41))
        hop_range = float(rng.uniform(300.0, 2000.0))
        nodes = [tuple(p) for p in rng.uniform((0.0, 0.0, 0.0), (50.0, 4000.0, 4000.0), (n, 3)).tolist()]
        adjacency = scenario._within_range(nodes, hop_range)
        assert max_cardinality_matching(adjacency) == networkx_pairs(graph_of(adjacency)), case


def test_random_graphs_match_networkx():
    rng = np.random.default_rng(7)
    for case in range(2000):
        graph = nx.gnp_random_graph(int(rng.integers(0, 31)), float(rng.uniform()), seed=case)
        adjacency = [list(graph.adj[v]) for v in graph]
        assert max_cardinality_matching(adjacency) == networkx_pairs(graph), case


# blossom-rich graphs, each relabelled at random: the search forms blossoms
# in many orders, and each graph has a perfect matching
NAMED_GRAPHS = {"petersen": nx.petersen_graph, "tutte": nx.tutte_graph,
                "dodecahedral": nx.dodecahedral_graph}


@pytest.mark.parametrize("name", NAMED_GRAPHS)
def test_relabelled_named_graphs_match_networkx(name):
    rng = np.random.default_rng(5)
    named = NAMED_GRAPHS[name]()
    for case in range(100):
        label = dict(zip(named, rng.permutation(len(named)).tolist()))
        adjacency = [[] for _ in named]
        for u, v in named.edges:
            adjacency[label[u]].append(label[v])
            adjacency[label[v]].append(label[u])
        adjacency = [sorted(row) for row in adjacency]
        assert max_cardinality_matching(adjacency) == networkx_pairs(graph_of(adjacency)), case


@pytest.mark.parametrize("adjacency, pairs, blossoms", [
    ([], [], 0),  # no nodes
    ([[], [], []], [], 0),  # no edges
    # triangle 1-2-3 with node 0 hanging off 1: 1-3 is matched first, then
    # the search from 2 closes the triangle into a blossom before it reaches 0
    ([[1], [0, 2, 3], [1, 3], [1, 2]], [(0, 1), (2, 3)], 1),
    ([[1, 4], [0, 2], [1, 3], [2, 4], [0, 3]], [(0, 4), (2, 3)], 1),  # 5-cycle
    # with 0-5 and 2-4 matched, triangle 2-3-4 closes into a blossom, which
    # the cycle through 0 and 5 takes into a second one; the augmenting path
    # from 1 to 3 then crosses both through their bridges, 5-4 and 4-3
    ([[1, 2, 5], [0], [0, 3, 4], [2, 4], [2, 3, 5], [0, 4]], [(0, 1), (2, 3), (4, 5)], 2),
], ids=["no-nodes", "no-edges", "triangle-with-pendant", "odd-cycle", "nested-blossom"])
def test_small_graphs(monkeypatch, adjacency, pairs, blossoms):
    made = []

    class Stage(matching._Stage):
        def blossom(self, base, v, w):
            made.append(base)
            super().blossom(base, v, w)

    monkeypatch.setattr(matching, "_Stage", Stage)
    assert max_cardinality_matching(adjacency) == pairs
    assert len(made) == blossoms
    assert networkx_pairs(graph_of(adjacency)) == pairs


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("node_count, region", [(200, 4000.0), (400, 5657.0), (1000, 8944.0)])
def test_large_placements_match_networkx(node_count, region, seed):
    # each at ten times the node density of the default 20 nodes in 4000 m
    rng = np.random.default_rng(seed)
    nodes = [tuple(p) for p in rng.uniform((0.0, 0.0, 0.0), (50.0, region, region), (node_count, 3)).tolist()]
    adjacency = scenario._within_range(nodes, 1000.0)
    assert max_cardinality_matching(adjacency) == networkx_pairs(graph_of(adjacency))


# a G(n, p) graph found by search: an augmenting path crosses a blossom
# nested three levels deep
DEEP = [[2, 5, 8, 11, 12], [11, 13, 14], [0, 3], [2, 4, 6], [3, 8, 9, 12], [0, 6, 7, 10],
        [3, 5, 7, 8, 9, 12], [5, 6], [0, 4, 6, 12, 14], [4, 6], [5, 12, 14], [0, 1, 13],
        [0, 4, 6, 8, 10], [1, 11], [1, 8, 10]]


def test_nested_blossoms_are_walked_on_a_flat_stack(monkeypatch):
    live, nesting, frames = [], [], set()

    class Stage(matching._Stage):
        def _walk(self, x, stop, out):
            live.append(x)
            nesting.append(len(live) - 1)
            frame, depth = sys._getframe(), 0
            while frame is not None:
                frame, depth = frame.f_back, depth + 1
            frames.add(depth)
            yield from super()._walk(x, stop, out)
            live.pop()

    monkeypatch.setattr(matching, "_Stage", Stage)
    pairs = [(0, 11), (1, 13), (3, 6), (4, 9), (5, 7), (8, 12), (10, 14)]
    assert max_cardinality_matching(DEEP) == pairs
    assert max(nesting) == 3
    assert len(frames) == 1  # every walk, however deeply nested, starts at the same stack depth
    assert networkx_pairs(graph_of(DEEP)) == pairs


def test_a_placement_too_sparse_for_the_links_is_drawn_again(monkeypatch):
    attempts = []
    pair_nodes = scenario._pair_nodes

    def recording(nodes, *args):
        attempts.append((nodes, pair_nodes(nodes, *args)))
        return attempts[-1][1]

    monkeypatch.setattr(scenario, "_pair_nodes", recording)
    placed = scenario.scenario_from_dict({}).network
    # the default seed draws three placements that cannot host 10 links
    assert [routes for _, routes in attempts] == [None, None, None, placed.routes]
    assert attempts[-1][0] == placed.nodes
    for nodes, routes in attempts:
        adjacency = scenario._within_range(nodes, placed.one_hop_range)
        assert len(networkx_pairs(graph_of(adjacency))) == len(max_cardinality_matching(adjacency))
        assert (len(max_cardinality_matching(adjacency)) >= placed.link_count) == (routes is not None)
