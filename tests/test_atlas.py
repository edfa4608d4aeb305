"""Every graph on at most 7 vertices: networkx's graph atlas, 1,253 graphs
up to isomorphism, run through the exact solver, the γ = γ₂ decision
and the three hereditary routes against their brute-force oracles."""

import pytest

from gamma2.graph import from_edges, is_connected
from gamma2.recognition import (
    forbidden_subgraph_check,
    perfect_oracle,
    recognize_perfect,
)
from gamma2.solvers import gamma_k, gamma_k_bruteforce, is_gamma_gamma2_graph

# Graphs with γ = γ₂ on n = 0..7 vertices, all and connected only (the
# graph on 0 vertices counts as not connected), and the number of graphs
# with n >= 1 and minimum degree >= 2.
EQUALITY_GRAPHS = (1, 1, 1, 1, 2, 4, 11, 37)
CONNECTED_EQUALITY_GRAPHS = (0, 1, 0, 0, 1, 2, 7, 26)
MIN_DEGREE_2_GRAPHS = 587


def test_atlas_census():
    nx = pytest.importorskip("networkx")
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    equal = [0] * 8
    connected_equal = [0] * 8
    hereditary = 0
    for h in atlas:
        g = from_edges(h.number_of_nodes(), list(h.edges()))
        one, two = gamma_k_bruteforce(g, 1).number, gamma_k_bruteforce(g, 2).number
        assert gamma_k(g, 1).number == one, list(h.edges())
        assert gamma_k(g, 2).number == two, list(h.edges())
        assert is_gamma_gamma2_graph(g) == (one == two), list(h.edges())
        if one == two:
            equal[g.n] += 1
            connected_equal[g.n] += is_connected(g)
        if g.n >= 1 and g.min_degree() >= 2:
            hereditary += 1
            perfect = recognize_perfect(g).perfect
            assert perfect == perfect_oracle(g), list(h.edges())
            assert perfect == forbidden_subgraph_check(g), list(h.edges())
    assert tuple(equal) == EQUALITY_GRAPHS
    assert tuple(connected_equal) == CONNECTED_EQUALITY_GRAPHS
    assert hereditary == MIN_DEGREE_2_GRAPHS
