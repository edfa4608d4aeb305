"""Builders: partitioned instances, gadgets, and the 3-SAT reduction."""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamma2 import (
    CnfFormula,
    ConstructionError,
    ConstructionSpec,
    all_four_vertex_graphs,
    build,
    cnf_satisfiable,
    double_subdivision,
    from_edges,
    gadget_a,
    gadget_b,
    gadget_s,
    gadget_t6,
    gamma_k,
    gamma_k_bruteforce,
    is_connected,
    is_independent,
    join_c4,
    random_h_instance,
    reduce_3sat,
)
from gamma2.constructions import (
    complete,
    cycle,
    path,
    petersen,
    random_graph,
    random_masks,
    star,
)
from gamma2.formats import instance_to_json
from gamma2.graph import from_masks
from gamma2.recognition import validate_h


def assert_looks_like_cycle(g, n):
    assert g.n == n and g.m == n
    assert is_connected(g)
    assert all(g.degree(v) == 2 for v in range(n))


# --- standard graphs -------------------------------------------------------


def test_standard_graphs():
    assert cycle(5).m == 5
    assert path(5).m == 4
    assert complete(5).m == 10
    assert star(4).n == 5 and star(4).m == 4
    p = petersen()
    assert p.n == 10 and p.m == 15
    assert all(p.degree(v) == 3 for v in range(10))


def test_standard_graph_input_validation():
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        star(-1)


def test_all_four_vertex_graphs_are_distinct():
    corpus = all_four_vertex_graphs()
    assert len(corpus) == 11
    signatures = {
        (g.m, tuple(sorted(g.degree(v) for v in range(4)))) for g in corpus
    }
    assert len(signatures) == 11
    assert all(g.n == 4 for g in corpus)


# --- build -----------------------------------------------------------------


def test_build_canonical_numbering():
    f = path(3)  # edges (0,1), (1,2)
    inst = build(ConstructionSpec(f))
    assert inst.g.n == 3 + 4
    assert inst.d == frozenset({0, 1, 2})
    assert inst.pair_map == {(0, 1): (3, 4), (1, 2): (5, 6)}
    assert inst.labels[3] == "x_{1,2}^1"
    assert inst.labels[4] == "x_{1,2}^2"
    assert inst.labels[0] == "v1"


def test_build_d_is_independent_and_pairs_see_their_edge():
    f = cycle(5)
    inst = build(ConstructionSpec(f))
    assert is_independent(inst.g, inst.d)
    for (u, v), (x1, x2) in inst.pair_map.items():
        for x in (x1, x2):
            d_neighbors = {w for w in inst.g.neighbors(x) if w in inst.d}
            assert d_neighbors == {u, v}


def test_build_supplementary_vertex_rules():
    f = complete(3)
    inst = build(ConstructionSpec(f, y_specs=(frozenset({0, 1, 2}),)))
    y = inst.g.n - 1
    assert {w for w in inst.g.neighbors(y) if w in inst.d} == {0, 1, 2}

    with pytest.raises(ConstructionError) as err:
        build(ConstructionSpec(path(3), y_specs=(frozenset({0, 2}),)))
    assert err.value.rule == "y-neighbourhood-clique"

    with pytest.raises(ConstructionError) as err:
        build(ConstructionSpec(path(3), y_specs=(frozenset({0}),)))
    assert err.value.rule == "y-neighbourhood-size"

    with pytest.raises(ConstructionError) as err:
        build(ConstructionSpec(path(3), y_specs=(frozenset({0, 5}),)))
    assert err.value.rule == "y-neighbourhood-domain"

    # True is not vertex 1: the domain rule fires before the clique rule
    with pytest.raises(ConstructionError) as err:
        build(ConstructionSpec(path(3), y_specs=(frozenset({True, 0}),)))
    assert err.value.rule == "y-neighbourhood-domain"
    with pytest.raises(ConstructionError) as err:
        build(ConstructionSpec(path(3), y_specs=(frozenset({"a", 0}),)))
    assert err.value.rule == "y-neighbourhood-domain"


def test_build_supplementary_edge_rules():
    f = path(3)
    # pair-internal edge: both ends inside the same pair
    with pytest.raises(ConstructionError) as err:
        build(ConstructionSpec(f, supp_edges=((3, 4),)))
    assert err.value.rule == "supp-edge-pair-internal"
    # D endpoint
    with pytest.raises(ConstructionError) as err:
        build(ConstructionSpec(f, supp_edges=((0, 3),)))
    assert err.value.rule == "supp-edge-touches-d"
    # out of range
    with pytest.raises(ConstructionError) as err:
        build(ConstructionSpec(f, supp_edges=((3, 99),)))
    assert err.value.rule == "supp-edge-range"
    # a float endpoint is not a vertex, whatever its value
    with pytest.raises(ConstructionError) as err:
        build(ConstructionSpec(f, supp_edges=((3.0, 5),)))
    assert err.value.rule == "supp-edge-range"
    with pytest.raises(ConstructionError) as err:
        build(ConstructionSpec(f, supp_edges=((3, True),)))
    assert err.value.rule == "supp-edge-range"
    # loop
    with pytest.raises(ConstructionError) as err:
        build(ConstructionSpec(f, supp_edges=((3, 3),)))
    assert err.value.rule == "supp-edge-loop"
    # legal cross-pair edge
    inst = build(ConstructionSpec(f, supp_edges=((3, 5),)))
    assert inst.g.has_edge(3, 5)


# --- double subdivision ----------------------------------------------------


@given(
    st.integers(1, 7),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=15),
)
def test_double_subdivision_counts(n, raw_edges):
    edges = [(u % n, v % n) for u, v in raw_edges if u % n != v % n]
    f = from_edges(n, edges)
    inst = double_subdivision(f)
    assert inst.g.n == f.n + 2 * f.m
    assert inst.g.m == 4 * f.m
    assert validate_h(inst).valid or not _c3c4_free(f)


def _c3c4_free(f):
    from itertools import combinations

    for u, v in combinations(range(f.n), 2):
        common = set(f.neighbors(u)) & set(f.neighbors(v))
        if len(common) >= 2:
            return False  # two shared neighbours close a 4-cycle
        if f.has_edge(u, v) and common:
            return False  # shared neighbour of an edge closes a triangle
    return True


def test_double_subdivision_of_k2_is_a_4_cycle():
    assert_looks_like_cycle(double_subdivision(path(2)).g, 4)


def test_double_subdivision_of_p3():
    inst = double_subdivision(path(3))
    assert inst.g.n == 7
    assert gamma_k(inst.g, 1).number == 3
    assert gamma_k(inst.g, 2).number == 3


# --- gadgets ---------------------------------------------------------------


def test_gadget_a_shape():
    inst = gadget_a(4)
    g = inst.g
    assert g.n == 13
    assert inst.labels[0] == "v"
    assert sorted(inst.labels[w] for w in range(1, 5)) == ["w1", "w2", "w3", "w4"]
    # ring: supplementary edges close a single cycle through all pairs
    supp = [
        (u, v)
        for u, v in g.edges()
        if u not in inst.d and v not in inst.d
    ]
    assert len(supp) == 4


def test_gadget_a_rejects_small_k():
    with pytest.raises(ValueError):
        gadget_a(1)


@pytest.mark.parametrize("k,expected_gamma", [(2, 2), (3, 3), (4, 4)])
def test_gadget_a_domination_gap(k, expected_gamma):
    g = gadget_a(k).g
    assert gamma_k(g, 2).number == k + 1
    assert gamma_k(g, 1).number == expected_gamma


def test_gadget_b_values():
    inst = gadget_b()
    g = inst.g
    assert g.n == 8
    assert inst.labels == {
        0: "v1", 1: "u1", 2: "v2", 3: "u2",
        4: "x_1^1", 5: "x_1^2", 6: "x_2^1", 7: "x_2^2",
    }
    assert {w for w in g.neighbors(4) if w in inst.d} == {0, 1}
    assert g.has_edge(4, 6)
    assert gamma_k(g, 2).number == 4
    assert gamma_k(g, 1).number == 3


def gadget_a4_star():
    """The 4-spoke ring gadget with one extra subdivided leaf-leaf edge.

    The underlying graph is a 4-leaf star plus the edge w1 w2, so it has a
    triangle; the gadget is a fixture for behaviour when the underlying
    graph has girth below five (brute force puts gamma = gamma_2 = 5 here).
    """
    f = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
    # The star's edges come first in edge order, so its four pairs are
    # numbered as in gadget_a(4) and take the same ring: x_t^1 joins
    # x_{t+1}^2.
    ring = ((5, 8), (7, 10), (9, 12), (11, 6))
    return build(ConstructionSpec(f, supp_edges=ring))


def test_gadget_a4_star_open_case():
    inst = gadget_a4_star()
    g = inst.g
    assert g.n == 15
    assert gamma_k(g, 1).number == 5
    assert gamma_k(g, 2).number == 5


def test_gadget_t6():
    g = gadget_t6()
    assert g.n == 6 and g.m == 5
    assert sorted(g.degree(v) for v in range(6)) == [1, 1, 1, 1, 3, 3]
    assert is_connected(g)


def test_gadget_s_shapes():
    assert_looks_like_cycle(gadget_s((2,)).g, 4)
    assert gadget_s((2, 2)).g.n == 7
    assert gadget_s((3, 2)).g.n == 8
    for mults in ((2, 2), (3, 2), (4, 3, 2)):
        g = gadget_s(mults).g
        assert gamma_k(g, 1).number == gamma_k(g, 2).number == 1 + len(mults)


def test_gadget_s_rejects_multiplicity_below_two():
    with pytest.raises(ValueError):
        gadget_s((2, 1))
    with pytest.raises(ValueError):
        gadget_s(())


def test_gadget_json_is_pinned():
    # Vertex numbering, edges, pairs and labels of every named gadget;
    # recompute the digest only for a deliberate change of a gadget.
    insts = [gadget_a(k) for k in range(2, 7)] + [gadget_a4_star(), gadget_b()]
    insts += [
        gadget_s(mults)
        for mults in ([2], [3], [2, 2], [2, 3, 4], [5, 2, 3], [4] * 3, [2] * 6)
    ]
    digest = hashlib.sha256()
    for inst in insts:
        digest.update(instance_to_json(inst).encode())
    assert digest.hexdigest() == (
        "2fc6e23a9d69a94d85d9a16226a1f37b381d4af0de0fe863df3c5fabc3b8002a"
    )


def test_join_c4():
    f = complete(3)
    g = join_c4(f)
    assert g.n == 7
    hub_a, hub_c = f.n, f.n + 2
    for v in range(f.n):
        assert g.has_edge(v, hub_a) and g.has_edge(v, hub_c)
    for f2 in (from_edges(1, []), complete(3), path(4)):
        joined = join_c4(f2)
        assert gamma_k(joined, 1).number == 2
        assert gamma_k(joined, 2).number == 2


# --- 3-SAT reduction -------------------------------------------------------


def test_reduce_3sat_vertex_count():
    f = CnfFormula(4, ((1, 2, 3), (2, 3, 4), (-1, -2, -4), (1, -3, 4), (-2, 3, -4)))
    red = reduce_3sat(f)
    assert red.instance.g.n == 3 * 4 + 5 + 3


def test_reduce_3sat_gamma2_is_k_plus_2():
    f = CnfFormula(3, ((1, 2, 3), (-1, -2, -3)))
    red = reduce_3sat(f)
    assert gamma_k(red.instance.g, 2).number == 5


def test_reduce_3sat_satisfiable_formula_gives_small_dominating_set():
    f = CnfFormula(3, ((1, 2, 3),))
    assert cnf_satisfiable(f) is not None
    red = reduce_3sat(f)
    assert gamma_k(red.instance.g, 1).number <= 4


def test_reduce_3sat_matches_bruteforce_on_smallest_instances():
    f = CnfFormula(3, ((1, -2, 3), (-1, 2, -3)))
    g = reduce_3sat(f).instance.g
    assert g.n == 14
    for k in (1, 2):
        assert gamma_k(g, k).number == gamma_k_bruteforce(g, k).number


def test_reduce_3sat_labels_and_underlying_star():
    f = CnfFormula(3, ((1, 2, 3),))
    red = reduce_3sat(f)
    labels = set(red.instance.labels.values())
    assert {"v0", "v1", "v4", "c*", "c1"} <= labels
    # D is the star's vertex set: v0..v_{k+1}
    assert red.instance.d == frozenset(range(5))


def test_reduce_3sat_requires_a_clause():
    with pytest.raises(ValueError):
        reduce_3sat(CnfFormula(3, ()))


# --- random instances ------------------------------------------------------


@pytest.mark.parametrize("p", [0, 0.3, 1])
def test_random_graph_draws_like_an_edge_list(p):
    # One random() per pair in combinations order, as the edge-list build
    # draws them: the same graph, and the rngs left in the same state.
    rng, twin = random.Random(f"twin {p}"), random.Random(f"twin {p}")
    for n in range(31):
        pairs = combinations(range(n), 2)
        expected = from_edges(n, [e for e in pairs if twin.random() < p])
        assert random_graph(rng, n, p) == expected
        assert rng.random() == twin.random()


@pytest.mark.parametrize("p", [0, 0.3, 1])
def test_random_masks_draw_the_masks_of_random_graph(p):
    # One draw loop: the mask draw takes the same random() calls as the
    # graph, and the graph keeps the drawn tuple rather than rebuilding it.
    rng, twin = random.Random(f"masks {p}"), random.Random(f"masks {p}")
    for n in range(31):
        masks = random_masks(rng, n, p)
        assert masks == random_graph(twin, n, p).adjacency_masks()
        assert rng.random() == twin.random()
        g = from_masks(masks)
        assert g.adjacency_masks() is masks
        h = from_edges(n, [
            (u, v) for u, v in combinations(range(n), 2) if masks[u] >> v & 1
        ])
        assert (g, g.m) == (h, h.m)


def test_random_h_instance_is_deterministic_and_valid():
    a = random_h_instance(4, 0.5, 0.3, seed=11)
    b = random_h_instance(4, 0.5, 0.3, seed=11)
    assert a is not None and b is not None
    assert a.g == b.g and a.d == b.d and a.pair_map == b.pair_map
    assert validate_h(a).valid


@pytest.mark.parametrize(
    "ep, sp", [(2.0, 0.25), (-0.1, 0.25), (0.35, -1.0), (0.35, float("nan"))]
)
def test_random_h_instance_rejects_probabilities_outside_unit_interval(ep, sp):
    with pytest.raises(ValueError, match="probability"):
        random_h_instance(3, ep, sp, seed=0)


def test_random_h_instance_degenerate_size():
    inst = random_h_instance(1, 0.5, 0.5, seed=3)
    assert inst is not None
    assert inst.g.n == 1 and inst.g.m == 0
