"""The forbidden-subgraph route's lemma on the whole small range: every
graph on at most 8 vertices with no cycle of length 3, 5, 6 or 7 and no
path on eight vertices, grown one vertex at a time and kept up to
isomorphism.  Those of minimum degree >= 2 are exactly the hereditarily
equal graphs there, and none of them holds a double-pendant edge (T6),
so the route needs no T6 test of its own."""

import pytest

from gamma2.graph import from_edges
from gamma2.recognition import (
    _has_long_path_or_cycle,
    forbidden_subgraph_check,
    perfect_oracle,
    recognize_perfect,
)

# Graphs the route's search passes on n = 2..8 vertices, up to isomorphism.
PASSING_GRAPHS = (2, 3, 7, 13, 31, 71, 177)
# Of those, the ones of minimum degree >= 2.
PASSING_MIN_DEGREE_2 = (0, 0, 1, 1, 1, 2, 3)


def _has_double_pendant_edge(g):
    # An edge (a, b) plus two private attachments on each side; the four
    # attachments must be distinct, but extra edges among them are fine.
    for a, b in g.edges():
        side_a = set(g.neighbors(a)) - {b}
        side_b = set(g.neighbors(b)) - {a}
        if len(side_a) >= 2 and len(side_b) >= 2 and len(side_a | side_b) >= 4:
            return True
    return False


def test_search_passes_only_doubled_subdivided_stars():
    nx = pytest.importorskip("networkx")
    # Deleting a vertex keeps a graph passing, so every passing graph on
    # n + 1 vertices is a passing graph on n plus one vertex joined to
    # some subset of it.
    level = [nx.empty_graph(1)]
    passing, min_degree_2 = [], []
    for n in range(2, 9):
        kept: dict[tuple[int, ...], list] = {}
        for h in level:
            for joined in range(1 << (n - 1)):
                grown = h.copy()
                grown.add_node(n - 1)
                grown.add_edges_from(
                    (v, n - 1) for v in range(n - 1) if joined >> v & 1
                )
                g = from_edges(n, list(grown.edges()))
                if _has_long_path_or_cycle(g):
                    continue
                degrees = tuple(sorted(d for _, d in grown.degree()))
                bucket = kept.setdefault(degrees, [])
                if not any(nx.is_isomorphic(grown, o) for o in bucket):
                    bucket.append(grown)
        level = [h for bucket in kept.values() for h in bucket]
        passing.append(len(level))
        members = [from_edges(n, list(h.edges())) for h in level]
        members = [g for g in members if g.min_degree() >= 2]
        min_degree_2.append(len(members))
        for g in members:
            assert forbidden_subgraph_check(g), g.edge_list()
            assert recognize_perfect(g).perfect, g.edge_list()
            assert perfect_oracle(g), g.edge_list()
            assert not _has_double_pendant_edge(g), g.edge_list()
    assert tuple(passing) == PASSING_GRAPHS
    assert tuple(min_degree_2) == PASSING_MIN_DEGREE_2
