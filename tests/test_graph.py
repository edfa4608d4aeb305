"""Core graph container and operations."""

import random
import tracemalloc
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamma2 import (
    CnfFormula,
    brute_force_maximum_matching,
    cnf_satisfiable,
    components,
    enumerate_min_k_dominating,
    forbidden_subgraph_check,
    from_edges,
    gamma_k_bruteforce,
    induced_subgraph,
    is_connected,
    is_gamma_gamma2_graph,
    is_independent,
    is_k_dominating,
    perfect_oracle,
    power,
)
from gamma2.constructions import (
    complete,
    cycle,
    gadget_a,
    gadget_s,
    path,
    petersen,
    random_graph,
    random_h_instance,
    star,
)
from gamma2.graph import masks_connected, short_cycle
from gamma2.solvers import gamma_k
from gamma2.verify import run_verify


def edge_lists(max_n: int = 10):
    """Strategy for (n, edges) with valid, possibly duplicated edges."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda e: e[0] != e[1]),
                max_size=3 * n,
            ),
        )
    )


def test_from_edges_deduplicates():
    g = from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError, match="edge #1"):
        from_edges(3, [(0, 1), (2, 2)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError, match="edge #0"):
        from_edges(2, [(0, 5)])
    with pytest.raises(ValueError):
        from_edges(0, [(0, 0)])


def test_has_edge_follows_the_vertex_rule():
    g = from_edges(3, [(1, 2)])
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    # True is not vertex 1, 1.0 is no vertex, and 3 and -1 are out of range
    for u, v in ((True, 2), (2, True), (1.0, 2), (1, 3), (-1, 2)):
        assert not g.has_edge(u, v)


def test_neighbors_and_degree():
    g = path(4)
    assert g.neighbors(0) == (1,)
    assert g.neighbors(1) == (0, 2)
    assert g.degree(1) == 2
    assert g.min_degree() == 1
    assert g.max_degree() == 2


def test_edge_list_is_sorted_pairs():
    g = from_edges(4, [(3, 2), (1, 0)])
    assert g.edge_list() == [(0, 1), (2, 3)]


@given(edge_lists())
def test_adjacency_is_symmetric(ne):
    n, edges = ne
    g = from_edges(n, edges)
    for u in range(n):
        for v in g.neighbors(u):
            assert u in g.neighbors(v)
    assert sum(g.degree(u) for u in range(n)) == 2 * g.m


@given(edge_lists())
def test_graph_equality_and_hash(ne):
    n, edges = ne
    g = from_edges(n, edges)
    h = from_edges(n, list(reversed(edges)))
    assert g == h
    assert hash(g) == hash(h)


def test_induced_subgraph_mapping():
    g = cycle(5)
    sub, mapping = induced_subgraph(g, frozenset({0, 1, 3}))
    assert mapping == [0, 1, 3]
    assert sub.n == 3
    assert sub.edge_list() == [(0, 1)]


@given(edge_lists())
def test_induced_on_everything_is_identity(ne):
    n, edges = ne
    g = from_edges(n, edges)
    sub, mapping = induced_subgraph(g, frozenset(range(n)))
    assert sub == g
    assert mapping == list(range(n))


def test_power_of_path():
    g = power(path(4), 2)
    assert set(g.edge_list()) == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}


def test_power_saturates():
    assert power(cycle(6), 3) == complete(6)


@given(edge_lists(8), st.integers(1, 4))
def test_power_is_monotone_in_k(ne, k):
    n, edges = ne
    g = from_edges(n, edges)
    smaller = set(power(g, k).edge_list())
    bigger = set(power(g, k + 1).edge_list())
    assert smaller <= bigger


def test_power_requires_positive_k():
    # 1.5 used to give K6 on P6 and True the first power.
    for k in (0, -1, 1.5, 2.0, True):
        with pytest.raises(ValueError, match="k must be an int >= 1"):
            power(path(6), k)


def test_components_partition():
    g = from_edges(6, [(0, 1), (1, 2), (4, 5)])
    assert components(g) == [[0, 1, 2], [3], [4, 5]]
    assert not is_connected(g)
    assert is_connected(cycle(4))


def test_is_connected_agrees_with_components():
    rng = random.Random("is_connected")
    graphs = [from_edges(n, []) for n in (0, 1, 2)] + [path(2)]
    graphs += [
        random_graph(rng, rng.randint(1, 14), rng.choice([0.05, 0.15, 0.3]))
        for _ in range(300)
    ]
    connected = [is_connected(g) for g in graphs]
    assert connected == [len(components(g)) == 1 for g in graphs]
    assert connected == [masks_connected(g.adjacency_masks()) for g in graphs]
    assert connected[:4] == [False, True, False, True]
    assert 50 < connected.count(True) < 250  # both answers are exercised


def test_is_connected_builds_no_masks():
    # 60,001 vertices: adjacency bitmasks would take ~160 MB
    g = gadget_s([2] * 20_000).g
    tracemalloc.start()
    try:
        assert is_connected(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@given(edge_lists())
def test_components_cover_all_vertices(ne):
    n, edges = ne
    g = from_edges(n, edges)
    comps = components(g)
    seen = sorted(v for comp in comps for v in comp)
    assert seen == list(range(n))


def test_is_independent():
    g = cycle(4)
    assert is_independent(g, frozenset({0, 2}))
    assert not is_independent(g, frozenset({0, 1}))
    assert is_independent(g, frozenset())


@pytest.mark.parametrize(
    "bad, member", [([True, 3], "True"), ([1, 2.0], "2.0"), ([3, 6], "6")]
)
def test_vertex_sets_hold_only_ints_in_range(bad, member):
    # True used to be read as vertex 1 and 2.0 to escape as a TypeError.
    message = f"vertex {member} outside 0..5"
    g = path(6)
    with pytest.raises(ValueError, match=message):
        is_independent(g, bad)
    with pytest.raises(ValueError, match=message):
        induced_subgraph(g, bad)
    with pytest.raises(ValueError, match=message):
        is_k_dominating(g, bad, 1)


def test_adjacency_masks():
    g = cycle(4)
    masks = g.adjacency_masks()
    assert masks[0] == (1 << 1) | (1 << 3)
    assert masks[2] == (1 << 1) | (1 << 3)


@given(edge_lists())
def test_without_edge_equals_building_without_it(ne):
    n, edges = ne
    g = from_edges(n, edges)
    before = g.adjacency_masks()
    for u, v in g.edge_list():
        h = g.without_edge(v, u)
        rest = [e for e in g.edge_list() if e != (u, v)]
        assert h == from_edges(n, rest) and h.m == g.m - 1
        assert h.adjacency_masks() == tuple(
            sum(1 << w for w in h.neighbors(x)) for x in range(n)
        )
    # the original graph and its cached masks are untouched
    assert g == from_edges(n, edges) and g.adjacency_masks() is before


@pytest.mark.parametrize(
    "u, v, message",
    [(0, 2, r"\(0, 2\) is not an edge"), (0, 4, "vertex 4 outside 0..3"),
     (True, 0, "vertex True outside 0..3")],
)
def test_without_edge_rejects_non_edges(u, v, message):
    with pytest.raises(ValueError, match=message):
        path(4).without_edge(u, v)


def _short_cycle_brute_force(g):
    for a, b, c in combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            return 3
    for quad in combinations(range(g.n), 4):
        for a, b, c, d in permutations(quad):
            if all(g.has_edge(u, v) for u, v in ((a, b), (b, c), (c, d), (d, a))):
                return 4
    return None


@given(edge_lists(8))
def test_short_cycle_matches_brute_force(ne):
    n, edges = ne
    g = from_edges(n, edges)
    assert short_cycle(g) == _short_cycle_brute_force(g)


def test_short_cycle_matches_networkx_girth():
    nx = pytest.importorskip("networkx")
    rng = random.Random("short-cycle")
    corpus = [cycle(n) for n in range(3, 8)] + [complete(4), petersen(), path(5)]
    corpus += [
        random_graph(rng, rng.randint(1, 30), rng.choice([0.05, 0.1, 0.2, 0.4]))
        for _ in range(300)
    ]
    for g in corpus:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        girth = nx.girth(h)
        assert short_cycle(g) == (girth if girth in (3, 4) else None)


def _all_false_satisfies(num_vars: int) -> CnfFormula:
    return CnfFormula(num_vars, ((-1, -2, -3),))


# (route, input at its limit, input one over, the full refusal)
SIZE_GUARDS = {
    "gamma_k_bruteforce": (
        lambda g: gamma_k_bruteforce(g, 1), complete(22), cycle(23),
        "gamma_k_bruteforce accepts at most 22 vertices, got 23",
    ),
    "enumerate_min_k_dominating": (
        lambda g: enumerate_min_k_dominating(g, 1), complete(22), cycle(23),
        "enumerate_min_k_dominating accepts at most 22 vertices, got 23",
    ),
    "is_gamma_gamma2_graph": (
        is_gamma_gamma2_graph, complete(22), cycle(23),
        "is_gamma_gamma2_graph accepts at most 22 vertices, got 23",
    ),
    "cnf_satisfiable": (
        cnf_satisfiable, _all_false_satisfies(20), _all_false_satisfies(21),
        "cnf_satisfiable accepts at most 20 variables, got 21",
    ),
    "brute_force_maximum_matching": (
        brute_force_maximum_matching, star(25), star(26),
        "brute-force matching accepts at most 25 edges, got 26",
    ),
    "forbidden_subgraph_check": (
        forbidden_subgraph_check, cycle(14), cycle(15),
        "forbidden_subgraph_check accepts at most 14 vertices, got 15",
    ),
    "perfect_oracle": (
        perfect_oracle, cycle(13), cycle(14),
        "perfect_oracle accepts at most 13 vertices, got 14",
    ),
}


@pytest.mark.parametrize("name", sorted(SIZE_GUARDS))
def test_exhaustive_routes_share_one_size_rule(name):
    route, at_limit, over, message = SIZE_GUARDS[name]
    route(at_limit)  # the limit itself is accepted
    with pytest.raises(ValueError) as info:
        route(over)
    assert str(info.value) == message


# (call, the full refusal): one bad count or order per call site, each a
# float, a bool or a value below the minimum
INT_RULE = {
    "is_k_dominating": (
        lambda: is_k_dominating(path(3), [1], 2.0), "k must be an int >= 1, got 2.0",
    ),
    "gamma_k": (lambda: gamma_k(path(3), True), "k must be an int >= 1, got True"),
    "gamma_k_bruteforce": (
        lambda: gamma_k_bruteforce(path(3), 0), "k must be an int >= 1, got 0",
    ),
    "power": (lambda: power(path(3), 1.5), "k must be an int >= 1, got 1.5"),
    "from_edges": (
        lambda: from_edges(2.5, []), "vertex count must be an int >= 0, got 2.5",
    ),
    "from_edges bool": (
        lambda: from_edges(True, []), "vertex count must be an int >= 0, got True",
    ),
    "complete": (
        lambda: complete(3.0), "vertex count must be an int >= 0, got 3.0",
    ),
    "random_graph": (
        lambda: random_graph(random.Random(0), -1, 0.5),
        "vertex count must be an int >= 0, got -1",
    ),
    "random_h_instance": (
        lambda: random_h_instance(3.0, 0.3, 0.3, seed=0),
        "vertex count must be an int >= 0, got 3.0",
    ),
    "cycle": (lambda: cycle(5.0), "cycle length must be an int >= 3, got 5.0"),
    "path": (lambda: path(True), "path length must be an int >= 1, got True"),
    "star": (lambda: star(True), "leaf count must be an int >= 0, got True"),
    "gadget_a": (lambda: gadget_a(3.0), "ring gadget k must be an int >= 2, got 3.0"),
    "gadget_s leaves": (
        lambda: gadget_s([]), "leaf count must be an int >= 1, got 0",
    ),
    "gadget_s multiplicity": (
        lambda: gadget_s([3, 2.0]), "multiplicity must be an int >= 2, got 2.0",
    ),
    "CnfFormula": (
        lambda: CnfFormula(-1, ()), "variable count must be an int >= 0, got -1",
    ),
    "run_verify": (
        lambda: run_verify(budget=True), "budget must be an int >= 0, got True",
    ),
    # endpoints follow the vertex rule: True is not vertex 1
    "from_edges endpoint True": (
        lambda: from_edges(3, [(True, 2)]),
        "edge #0 (True, 2) has an endpoint outside 0..2",
    ),
    "from_edges endpoint 1.0": (
        lambda: from_edges(3, [(0, 1), (1.0, 2)]),
        "edge #1 (1.0, 2) has an endpoint outside 0..2",
    ),
}


@pytest.mark.parametrize("name", sorted(INT_RULE))
def test_counts_and_orders_share_one_integer_rule(name):
    call, message = INT_RULE[name]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
