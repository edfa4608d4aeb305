"""Maximum matching: blossom implementation against exhaustive search."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamma2 import (
    brute_force_maximum_matching,
    from_edges,
    maximum_matching,
)
from gamma2.constructions import complete, cycle, path, petersen, random_graph
from gamma2.matching import BRUTE_FORCE_EDGE_LIMIT


def assert_valid_matching(g, m):
    for u, v in m.edges():
        assert g.has_edge(u, v)
    for u, partner in enumerate(m.mate):
        if partner is not None:
            assert m.mate[partner] == u


@pytest.mark.parametrize(
    "g,mu",
    [
        (cycle(4), 2),
        (cycle(5), 2),
        (path(4), 2),
        (complete(4), 2),
        (petersen(), 5),
        (from_edges(1, []), 0),
        (from_edges(3, []), 0),
    ],
)
def test_known_matching_numbers(g, mu):
    m = maximum_matching(g)
    assert m.size == mu
    assert_valid_matching(g, m)


def test_perfect_matching_detection():
    # a perfect matching leaves no None in the mate table
    assert None not in maximum_matching(cycle(4)).mate
    assert None not in maximum_matching(petersen()).mate
    assert maximum_matching(cycle(5)).mate.count(None) == 1


def test_odd_cycle_chain():
    # two triangles joined by an edge force a blossom contraction
    g = from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    m = maximum_matching(g)
    assert m.size == 3
    assert_valid_matching(g, m)


def test_matching_covers_and_edges():
    m = maximum_matching(cycle(4))
    assert m.mate[0] is not None and m.mate[3] is not None
    assert m.edges() == [(0, 1), (2, 3)]
    # exposed vertices are None; edges() lists each matched edge once, sorted
    m = maximum_matching(from_edges(5, [(3, 4), (0, 2)]))
    assert m.mate == (2, None, 0, 4, 3)
    assert m.size == 2 and m.edges() == [(0, 2), (3, 4)]


def test_brute_force_rejects_large_graphs():
    g = complete(8)  # 28 edges
    assert g.m > BRUTE_FORCE_EDGE_LIMIT
    with pytest.raises(ValueError):
        brute_force_maximum_matching(g)


@given(
    st.integers(1, 9),
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=22),
)
def test_blossom_agrees_with_exhaustive_search(n, raw_edges):
    edges = [(u % n, v % n) for u, v in raw_edges if u % n != v % n]
    g = from_edges(n, edges)
    if g.m > BRUTE_FORCE_EDGE_LIMIT:
        return
    fast = maximum_matching(g)
    slow = brute_force_maximum_matching(g)
    assert fast.size == slow.size
    assert_valid_matching(g, fast)
    assert_valid_matching(g, slow)


def test_blossom_size_matches_networkx():
    # beyond the exhaustive oracle's 25 edges
    nx = pytest.importorskip("networkx")
    rng = random.Random("matching-size")
    for _ in range(40):
        g = random_graph(rng, rng.randint(30, 60), rng.choice([0.06, 0.1, 0.15]))
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        m = maximum_matching(g)
        assert_valid_matching(g, m)
        assert m.size == len(nx.max_weight_matching(h, maxcardinality=True))


def test_disconnected_graph():
    g = from_edges(7, [(0, 1), (2, 3), (3, 4), (2, 4)])
    m = maximum_matching(g)
    assert m.size == 2
    assert m.mate[5] is None and m.mate[6] is None
