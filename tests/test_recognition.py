"""Recognition: equality decision on subdivision instances, and the three
routes to hereditary equality."""

import hashlib
import random
import time
from dataclasses import replace
from itertools import combinations, islice

import pytest

from gamma2 import (
    AWitness,
    BWitness,
    InvalidHInstanceError,
    PartitionedInstance,
    check_witness,
    double_subdivision,
    extract_underlying,
    forbidden_subgraph_check,
    from_edges,
    gadget_a,
    gadget_b,
    gadget_s,
    is_gamma_gamma2_graph,
    maximum_matching,
    perfect_oracle,
    random_h_instance,
    recognize_h,
    recognize_perfect,
    validate_h,
)
from gamma2 import recognition, solvers
from gamma2.constructions import (
    ConstructionSpec,
    _random_supp_edges,
    build,
    complete,
    cycle,
    path,
    petersen,
    random_graph,
    star,
)
from gamma2.graph import components, induced_subgraph, short_cycle
from gamma2.recognition import (
    FORBIDDEN_CHECK_VERTEX_LIMIT,
    PERFECT_ORACLE_VERTEX_LIMIT,
)
from gamma2.solvers import gamma_and_gamma2, gamma_k_bruteforce
from gamma2.verify import (
    h_instance_stream,
    perfect_fixtures,
    random_spec,
    t6_augmented_fixtures,
)


def shift(g, offset, n):
    return [(u + offset, v + offset) for u, v in g.edge_list()]


# --- validation ------------------------------------------------------------


def test_validate_accepts_built_instances():
    for inst in (double_subdivision(path(3)), gadget_b(), gadget_a(3)):
        assert validate_h(inst) == ()


def test_validate_rejects_dependent_specified_set():
    base = double_subdivision(path(2))
    tampered = PartitionedInstance(
        g=from_edges(4, base.g.edge_list() + [(0, 1)]),
        d=base.d,
        pair_map=base.pair_map,
        labels=base.labels,
    )
    failures = validate_h(tampered)
    assert any("independent" in msg for msg in failures)


def test_validate_rejects_wrong_pair_neighbourhood():
    base = double_subdivision(path(3))
    # give pair vertex 3 an extra D-neighbour
    tampered = PartitionedInstance(
        g=from_edges(7, base.g.edge_list() + [(2, 3)]),
        d=base.d,
        pair_map=base.pair_map,
        labels=base.labels,
    )
    failures = validate_h(tampered)
    assert any("D-neighbourhood [0, 1, 2]" in msg for msg in failures)


def test_validate_rejects_uncovered_outside_vertex():
    base = double_subdivision(path(2))
    tampered = PartitionedInstance(
        g=from_edges(5, base.g.edge_list() + [(2, 4), (3, 4)]),
        d=base.d,
        pair_map=base.pair_map,
        labels=base.labels,
    )
    failures = validate_h(tampered)
    assert any("vertex 4 is outside D" in msg for msg in failures)


def test_validate_rejects_adjacent_pair():
    base = double_subdivision(path(2))
    tampered = PartitionedInstance(
        g=from_edges(4, base.g.edge_list() + [(2, 3)]),
        d=base.d,
        pair_map=base.pair_map,
        labels=base.labels,
    )
    failures = validate_h(tampered)
    assert any("inside pair (0, 1): (2, 3)" in msg for msg in failures)


# double_subdivision(path(3)): D = {0, 1, 2}, pairs (0, 1): (3, 4) and
# (1, 2): (5, 6)
@pytest.mark.parametrize(
    "d,pair_map,rule",
    [
        ({0, 1, 2, 9}, None, "D-vertex 9 outside 0..6"),
        (None, {(1, 0): (3, 4), (1, 2): (5, 6)}, "not an ordered pair of D-vertices"),
        (None, {(0, 1): (3, 3), (1, 2): (5, 6)}, "lists the same vertex twice"),
        (None, {(0, 1): (3, 9), (1, 2): (5, 6)}, "names 9, which is not a non-D"),
        (None, {(0, 1): (0, 4), (1, 2): (5, 6)}, "names 0, which is not a non-D"),
        (None, {(0, 1): (3, 4), (1, 2): (4, 6)}, "vertex 4 belongs to two pairs"),
        ({0, True, 2}, None, "D-vertex True outside 0..6"),
        # pair keys and pair vertices are ints: False is not vertex 0
        (None, {(False, True): (3, 4), (1, 2): (5, 6)},
         "pair key (False, True) is not an ordered pair of D-vertices"),
        (None, {(0, 1): (3.0, 4), (1, 2): (5, 6)}, "names 3.0, which is not a non-D"),
        # an entry of the wrong shape is reported, not unpacked
        (None, {(0, 1, 2): (3, 4), (1, 2): (5, 6)},
         "pair key (0, 1, 2) is not an ordered pair of D-vertices"),
        (None, {0: (3, 4), (1, 2): (5, 6)},
         "pair key 0 is not an ordered pair of D-vertices"),
        (None, {(0, 1): (3, 4, 5), (1, 2): (5, 6)},
         "pair (0, 1) maps to (3, 4, 5), which is not two vertices"),
        (None, {(0, 1): 3, (1, 2): (5, 6)},
         "pair (0, 1) maps to 3, which is not two vertices"),
    ],
)
def test_validate_names_each_pair_rule(d, pair_map, rule):
    base = double_subdivision(path(3))
    tampered = replace(
        base,
        d=base.d if d is None else frozenset(d),
        pair_map=base.pair_map if pair_map is None else pair_map,
    )
    failures = validate_h(tampered)
    assert any(rule in msg for msg in failures), failures
    # P3 has no cycle, so the girth rule has nothing to report
    assert not any("underlying graph" in msg for msg in failures)
    # only pairs of two valid non-D vertices are tested for an edge inside:
    # (0, 4) is an edge of D-vertex 0, not a supplementary edge
    assert not any("inside pair" in msg for msg in failures)


def test_validate_reports_the_girth_rule_beside_a_broken_pair():
    # a pair that lists one vertex twice does not hide the underlying
    # triangle: every violated rule is reported
    base = double_subdivision(complete(3))
    pair_map = {**base.pair_map, (0, 1): (3, 3)}
    failures = validate_h(replace(base, pair_map=pair_map))
    assert failures == (
        "pair (0, 1) lists the same vertex twice",
        "vertex 3 is outside D but not a subdivision vertex of any pair",
        "vertex 4 is outside D but not a subdivision vertex of any pair",
        "underlying graph contains a triangle",
    )


def test_validate_rejects_short_cycles_in_underlying():
    for f in (complete(3), complete(4)):  # K4 also has 4-cycles
        failures = validate_h(double_subdivision(f))
        assert any("triangle" in msg for msg in failures)
        assert not any("4-cycle" in msg for msg in failures)
    square = double_subdivision(cycle(4))
    failures = validate_h(square)
    assert any("4-cycle" in msg for msg in failures)


def test_extract_underlying_roundtrip():
    for f in (path(4), star(3), petersen()):
        inst = double_subdivision(f)
        assert extract_underlying(inst.g, inst.d) == f
    b = gadget_b()
    assert extract_underlying(b.g, b.d) == from_edges(4, [(0, 1), (2, 3)])


def test_extract_underlying_is_the_square_induced_on_d():
    # built instances, and random graphs whose D is any subset (edges
    # inside D included), against networkx's square
    nx = pytest.importorskip("networkx")
    rng = random.Random("extract-underlying")
    cases = []
    for _ in range(40):
        inst = build(random_spec(rng, (0.4, 0.6, 0.8), (2, 3), 0.1))
        cases.append((inst.g, inst.d))
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 9), rng.choice((0.2, 0.4, 0.7)))
        cases.append((g, frozenset(v for v in range(g.n) if rng.random() < 0.6)))
    for g, d in cases:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        square = nx.power(h, 2).subgraph(d)
        label = {v: i for i, v in enumerate(sorted(d))}
        expected = from_edges(
            len(d), [(label[u], label[v]) for u, v in square.edges()]
        )
        assert extract_underlying(g, d) == expected


def test_extract_underlying_checks_d():
    g = double_subdivision(path(3)).g
    for d in ({0, 1, 9}, {0, True}):
        with pytest.raises(ValueError, match="outside 0..6"):
            extract_underlying(g, frozenset(d))


# --- equality decision -----------------------------------------------------


def test_recognize_equal_on_subdivided_stars():
    for f in (path(2), path(3), star(3), star(4)):
        verdict = recognize_h(double_subdivision(f))
        assert verdict.equal
        assert verdict.witness is None


def test_recognize_bridge_obstruction():
    inst = gadget_b()
    verdict = recognize_h(inst)
    assert not verdict.equal
    assert isinstance(verdict.witness, BWitness)
    assert check_witness(inst.g, inst.d, verdict.witness)
    assert not is_gamma_gamma2_graph(inst.g)


def test_recognize_ring_obstruction():
    for k in (2, 3, 4):
        inst = gadget_a(k)
        verdict = recognize_h(inst)
        assert not verdict.equal
        assert isinstance(verdict.witness, AWitness)
        assert len(verdict.witness.spokes) == k
        assert check_witness(inst.g, inst.d, verdict.witness)
        assert not is_gamma_gamma2_graph(inst.g)


def test_matching_call_budget():
    inst = gadget_a(4)
    verdict = recognize_h(inst)
    f = extract_underlying(inst.g, inst.d)
    assert verdict.matching_calls <= 2 * f.m


def test_tampered_witness_fails_replay():
    # one tampered witness per rule of check_witness
    bridge_inst, ring_inst = gadget_b(), gadget_a(3)
    b = recognize_h(bridge_inst).witness
    a = recognize_h(ring_inst).witness
    assert isinstance(b, BWitness) and isinstance(a, AWitness)
    assert check_witness(bridge_inst.g, bridge_inst.d, b)
    assert check_witness(ring_inst.g, ring_inst.d, a)
    first, second, third = a.spokes
    tampered = {
        "repeated vertex": (bridge_inst, replace(b, u1=b.v1)),
        "bridge vertex out of range": (bridge_inst, replace(b, u2=99)),
        "bridge vertex a bool": (bridge_inst, replace(b, u1=True)),
        "bridge vertex a float": (bridge_inst, replace(b, u1=float(b.u1))),
        "bridge endpoint outside D": (
            replace(bridge_inst, d=bridge_inst.d - {b.u1}), b,
        ),
        "bridge pair vertex in D": (
            replace(bridge_inst, d=bridge_inst.d | {b.x1[1]}), b,
        ),
        "missing pair edge": (
            bridge_inst, BWitness(b.v2, b.u2, b.x1, b.v1, b.u1, b.x2),
        ),
        # reversing the second pair breaks the bridge edge x1[0] -- x2[0]
        "missing bridge edge": (bridge_inst, replace(b, x2=b.x2[::-1])),
        "ring vertex out of range": (
            ring_inst, replace(a, spokes=((99, *first[1:]), second, third)),
        ),
        "fewer than two spokes": (ring_inst, replace(a, spokes=(first,))),
        "centre a bool": (ring_inst, replace(a, center=bool(a.center))),
        "centre outside D": (
            ring_inst, replace(a, center=third[1], spokes=(first, second)),
        ),
        "spoke end outside D": (
            ring_inst,
            replace(a, spokes=((first[1], first[0], first[2]), second, third)),
        ),
        "missing spoke edge": (
            ring_inst, replace(a, spokes=((third[0], *first[1:]), second)),
        ),
        "missing ring edge": (ring_inst, replace(a, spokes=(first, second))),
        # malformed vertices fail before the distinctness test hashes them
        "bridge vertex a list": (bridge_inst, replace(b, u1=[b.u1])),
        "spoke end a list": (
            ring_inst,
            replace(a, spokes=(([first[0]], *first[1:]), second, third)),
        ),
        # malformed fields fail before the pattern can be read off them
        "bridge pair of no vertices": (
            bridge_inst, BWitness(0, 1, (), 2, 3, (6, 7)),
        ),
        "spoke of two vertices": (
            ring_inst, AWitness(0, ((1, 4), (2, 6, 7))),
        ),
        "spoke of four vertices": (
            ring_inst, replace(a, spokes=((*first, 0), second, third)),
        ),
        "spokes None": (ring_inst, replace(a, spokes=None)),
        # the third vertex sees both ends of its D-edge, so every stated
        # edge is present; only the arity of the pair is wrong
        "bridge pair of three vertices": (
            replace(bridge_inst, g=from_edges(
                bridge_inst.g.n + 1,
                bridge_inst.g.edge_list()
                + [(b.v1, bridge_inst.g.n), (b.u1, bridge_inst.g.n)],
            )),
            replace(b, x1=(*b.x1, bridge_inst.g.n)),
        ),
    }
    for rule, (inst, witness) in tampered.items():
        assert not check_witness(inst.g, inst.d, witness), rule


def test_recognize_rejects_invalid_instance():
    triangle = double_subdivision(complete(3))
    with pytest.raises(InvalidHInstanceError) as info:
        recognize_h(triangle)
    assert info.value.failures == validate_h(triangle)
    assert info.value.failures == ("underlying graph contains a triangle",)


def _dense_star(seed):
    # every supplementary edge joins two pairs at the star's centre, so
    # each obstruction is a ring; order 3k + 1 <= 19
    rng = random.Random(f"dense-star:{seed}")
    f = star(3 + seed % 4)
    return build(
        ConstructionSpec(f, supp_edges=_random_supp_edges(rng, f, 0, 0.3))
    )


def test_recognize_agrees_with_oracle_on_random_instances():
    instances = []
    seed = 0
    while len(instances) < 40:
        seed += 1
        inst = random_h_instance(3 + seed % 3, 0.4, 0.3, seed=seed)
        if inst is not None and inst.g.n <= 22:
            instances.append(inst)
    instances += [_dense_star(seed) for seed in range(100)]
    for inst in instances:
        verdict = recognize_h(inst)
        assert verdict.equal == is_gamma_gamma2_graph(inst.g)
        if not verdict.equal:
            assert check_witness(inst.g, inst.d, verdict.witness)


def _shuffled(inst, rng):
    # the same instance under a random vertex numbering, so that pair
    # vertices are no longer numbered next to each other
    perm = list(range(inst.g.n))
    rng.shuffle(perm)
    return PartitionedInstance(
        g=from_edges(inst.g.n, [(perm[u], perm[v]) for u, v in inst.g.edges()]),
        d=frozenset(perm[v] for v in inst.d),
        pair_map={
            (min(perm[a], perm[b]), max(perm[a], perm[b])): (perm[x], perm[y])
            for (a, b), (x, y) in inst.pair_map.items()
        },
    )


def test_ring_scan_matches_local_graphs_missing_one_pair_edge(monkeypatch):
    # local vertices 2s and 2s + 1 form a pair; with all pair edges but
    # one present, the greedy start leaves at most two vertices exposed
    graphs = []

    def spy(g):
        graphs.append(g)
        return maximum_matching(g)

    monkeypatch.setattr(recognition, "maximum_matching", spy)
    rng = random.Random("shuffled")
    fixtures = [gadget_a(4), double_subdivision(petersen())]
    fixtures += [_dense_star(seed) for seed in range(20)]
    for inst in fixtures:
        shuffled = _shuffled(inst, rng)
        assert recognize_h(shuffled).equal == recognize_h(inst).equal
    assert len(graphs) > 60
    for g in graphs:
        pairs = range(g.n // 2)
        missing = [s for s in pairs if not g.has_edge(2 * s, 2 * s + 1)]
        assert g.n % 2 == 0 and len(missing) == 1


@pytest.mark.parametrize(
    "mate, message",
    [
        # the walk's first exit vertex is exposed
        ((None,) * 6, "leaves vertex 4 unmatched"),
        # exit 0 -> entry 2, exit 3 -> entry 0: back at the broken pair,
        # but at the vertex the walk left from, not at its partner
        ((2, None, 0, 0, None, None), "closes at 4, not at the broken pair's 5"),
    ],
)
def test_trace_ring_rejects_tables_that_are_no_ring(mate, message):
    keys = [(0, 1), (0, 2), (0, 3)]
    with pytest.raises(RuntimeError, match=message):
        recognition._trace_ring(0, keys, 0, [4, 5, 6, 7, 8, 9], mate)


def test_recognize_h_outputs_are_pinned():
    # Verdicts, witnesses and matching-call counts on a seeded corpus of
    # both verdicts: a change to the scans must keep all three, or update
    # this digest and say so.
    instances = [gadget_a(k) for k in range(2, 9)] + [gadget_b()]
    instances += [_dense_star(seed) for seed in range(40)]
    instances += list(islice(h_instance_stream(7), 300))
    digest = hashlib.sha256()
    for inst in instances:
        v = recognize_h(inst)
        digest.update(f"{v.equal}:{v.witness!r}:{v.matching_calls};".encode())
    assert digest.hexdigest() == (
        "1040ba5b6ee1487c85465ec87d9576c9e335a9b1976a64824e513a66dc5f3207"
    )


def test_recognize_h_ignores_the_insertion_order_of_pair_map():
    # the scans index each D-vertex's pairs; that index must come out in
    # sorted key order whatever order pair_map lists the pairs in
    instances = [gadget_a(4), gadget_b()]
    instances += [_dense_star(seed) for seed in range(20)]
    instances += list(islice(h_instance_stream(7), 50))
    for inst in instances:
        flipped = dict(reversed(inst.pair_map.items()))
        assert len(flipped) < 2 or list(flipped) != list(inst.pair_map)
        assert recognize_h(replace(inst, pair_map=flipped)) == recognize_h(inst)


def test_recognize_scales_to_large_trees():
    # supplementary edges join the first subdivision vertices of pairs
    # sharing a D-vertex: plenty of matching work, and never an obstruction
    rng = random.Random("large-tree")
    n = 10_000
    f = from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)])
    incident: list[list[int]] = [[] for _ in range(n)]
    for t, (u, v) in enumerate(f.edge_list()):
        incident[u].append(n + 2 * t)
        incident[v].append(n + 2 * t)
    supp = tuple(
        (x, y)
        for firsts in incident
        for x, y in combinations(firsts, 2)
        if rng.random() < 0.5
    )
    inst = build(ConstructionSpec(f, supp_edges=supp))
    start = time.perf_counter()
    verdict = recognize_h(inst)
    elapsed = time.perf_counter() - start
    assert verdict.equal
    assert verdict.matching_calls == 2 * f.m - sum(
        1 for v in range(n) if f.degree(v) == 1
    )
    assert elapsed < 10.0


# --- hereditary equality ---------------------------------------------------


def test_recognize_perfect_accepts_subdivided_stars():
    for mults in ((2,), (2, 2), (3, 2), (4, 2, 2)):
        assert recognize_perfect(gadget_s(mults).g).perfect


def test_recognize_perfect_accepts_disjoint_unions():
    a = gadget_s((2, 2)).g
    b = gadget_s((3,)).g
    union = from_edges(
        a.n + b.n, a.edge_list() + shift(b, a.n, b.n)
    )
    assert recognize_perfect(union).perfect


@pytest.mark.parametrize(
    "g",
    [cycle(5), cycle(6), complete(4), petersen()]
    + t6_augmented_fixtures(),
)
def test_recognize_perfect_rejects(g):
    verdict = recognize_perfect(g)
    assert not verdict.perfect
    assert verdict.failing_component is not None
    assert verdict.reason


def test_recognize_perfect_is_linear_in_the_leaves():
    # 20,000 leaves (60,001 vertices): a rescan of every spoke per leaf
    # would take minutes
    g = gadget_s([2] * 20_000).g
    assert g.n == 60_001
    start = time.perf_counter()
    assert recognize_perfect(g).perfect
    assert time.perf_counter() - start < 2.0


def test_recognize_perfect_requires_min_degree_two():
    with pytest.raises(ValueError, match="vertex 0"):
        recognize_perfect(path(4))


@pytest.mark.parametrize(
    "g, vertex",
    [
        (path(3), 0),
        (path(1), 0),
        (star(3), 1),
        (from_edges(5, cycle(4).edge_list() + [(0, 4)]), 4),
    ],
)
def test_structural_routes_share_one_domain(g, vertex):
    # a vertex of degree < 2 is outside both structural routes' domain;
    # the definitional oracle answers on any graph
    for route in (recognize_perfect, forbidden_subgraph_check):
        with pytest.raises(ValueError) as info:
            route(g)
        assert str(info.value) == (
            f"{route.__name__} needs minimum degree >= 2; "
            f"vertex {vertex} has degree {g.degree(vertex)}"
        )
    assert perfect_oracle(g)


def test_forbidden_subgraph_route():
    assert forbidden_subgraph_check(cycle(4))
    assert forbidden_subgraph_check(gadget_s((2, 2)).g)
    assert not forbidden_subgraph_check(cycle(5))
    assert not forbidden_subgraph_check(complete(4))
    for g in t6_augmented_fixtures():
        assert not forbidden_subgraph_check(g)
    # long path: two subdivided stars chained together stay perfect only
    # when disconnected; the chain below contains a path on 8 vertices
    chain = from_edges(
        9,
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
         (7, 8), (8, 6), (5, 3)],
    )
    assert not forbidden_subgraph_check(chain)
    # the T6 lemma's 6-cycle case: the edge (0, 1) with private pairs
    # {2, 3} and {4, 5}, closed by 2-4 and 3-5; it is bipartite with no
    # triangle, too small for a P8, so only the cycle 0-2-4-1-5-3 can
    # reject it
    closed_t6 = from_edges(
        6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (3, 5)]
    )
    assert closed_t6.min_degree() == 2
    assert short_cycle(closed_t6) == 4
    assert not forbidden_subgraph_check(closed_t6)
    assert not recognize_perfect(closed_t6).perfect
    assert not perfect_oracle(closed_t6)


@pytest.mark.parametrize(
    "g,perfect",
    [
        (from_edges(8, cycle(4).edge_list() + shift(cycle(4), 4, 4)), True),
        (from_edges(9, cycle(4).edge_list() + shift(cycle(5), 4, 5)), False),
        (from_edges(0, []), True),
    ],
)
def test_three_routes_agree_on_disjoint_unions_and_empty_graph(g, perfect):
    assert recognize_perfect(g).perfect == perfect
    assert forbidden_subgraph_check(g) == perfect
    assert perfect_oracle(g) == perfect


def test_perfect_oracle_small_cases():
    assert perfect_oracle(cycle(4))
    assert perfect_oracle(gadget_s((2, 2)).g)
    assert not perfect_oracle(cycle(5))
    assert not perfect_oracle(complete(4))


def _reference_perfect_oracle(g):
    """The definition ``perfect_oracle`` must reproduce: an induced
    ``Graph`` per vertex subset, and both optima of each one of minimum
    degree >= 2 (two ``gamma_k`` optima, each lowered from a greedy set,
    not the rising caps of the decision route that ``perfect_oracle``
    itself takes)."""
    for size in range(3, g.n + 1):
        for subset in combinations(range(g.n), size):
            sub, _ = induced_subgraph(g, subset)
            if sub.min_degree() >= 2:
                gamma, gamma2 = gamma_and_gamma2(sub)
                if gamma != gamma2:
                    return False
    return True


def test_perfect_oracle_matches_the_induced_subgraph_definition():
    # Unions of two random parts (one sometimes a 4-cycle) on <= 11
    # vertices: mostly disconnected, often of minimum degree < 2.
    rng = random.Random(11)
    graphs = [from_edges(0, [])]
    while len(graphs) < 300:
        a = rng.randint(1, 11)
        b = rng.randint(0, 11 - a)
        if a >= 4 and rng.random() < 0.3:
            left = cycle(4)
        else:
            left = random_graph(rng, a, rng.choice([0.25, 0.45, 0.7]))
        right = random_graph(rng, b, rng.choice([0.25, 0.45, 0.7]))
        edges = left.edge_list() + shift(right, left.n, b)
        graphs.append(from_edges(left.n + b, edges))
    verdicts = [perfect_oracle(g) for g in graphs]
    assert verdicts == [_reference_perfect_oracle(g) for g in graphs]
    cyclic = [g.m > g.n - len(components(g)) for g in graphs]
    assert sum(c and v for c, v in zip(cyclic, verdicts)) >= 50  # not vacuous
    assert verdicts.count(False) >= 100
    assert sum(len(components(g)) > 1 for g in graphs) >= 200
    assert sum(g.n > 0 and g.min_degree() < 2 for g in graphs) >= 200


def _k2(m):
    """K_{2,m}: vertices 0 and 1 against 2..m + 1."""
    return from_edges(m + 2, [(u, v) for u in (0, 1) for v in range(2, m + 2)])


def _bruteforce_perfect_oracle(g):
    """The definition with subset enumeration for both numbers: an
    induced ``Graph`` per vertex subset, and gamma and gamma_2 of each one
    of minimum degree >= 2 from ``gamma_k_bruteforce``."""
    for size in range(3, g.n + 1):
        for subset in combinations(range(g.n), size):
            sub, _ = induced_subgraph(g, subset)
            if sub.min_degree() >= 2 and (
                gamma_k_bruteforce(sub, 1).number
                != gamma_k_bruteforce(sub, 2).number
            ):
                return False
    return True


def test_perfect_oracle_matches_bruteforce():
    # Seeded G(n, p) on at most 8 vertices, plus named fixtures.  The
    # oracle shares one verdict table across all subsets of a call, so a
    # verdict handed to the wrong component shows up here: in K_{2,3} + C5
    # the first 5-vertex component decided is K_{2,3} (EQUAL), and the
    # C5 after it (NOT-EQUAL) is the only failing subset.
    rng = random.Random("perfect oracle brute force")
    graphs = [
        random_graph(rng, rng.randint(3, 8), rng.choice([0.3, 0.5, 0.7]))
        for _ in range(120)
    ]
    named = [(_k2(m), True) for m in range(2, 8)]
    named += [(g, False) for g in t6_augmented_fixtures()]
    for left in (cycle(4), _k2(3)):
        union = from_edges(left.n + 5, left.edge_list() + shift(cycle(5), left.n, 5))
        named.append((union, False))
    graphs += [g for g, _ in named]
    verdicts = [perfect_oracle(g) for g in graphs]
    assert verdicts == [_bruteforce_perfect_oracle(g) for g in graphs]
    assert verdicts[-len(named):] == [perfect for _, perfect in named]
    assert 20 <= verdicts.count(False) <= len(graphs) - 20  # both verdicts


def test_perfect_oracle_solves_each_distinct_component_once(monkeypatch):
    # K_{2,11}, at the oracle's cap: thousands of subsets of minimum degree
    # >= 2, but only a few distinct relabelled components among them, and
    # each costs at most two solves (gamma, then the capped search).
    g = _k2(11)
    assert g.n == PERFECT_ORACLE_VERTEX_LIMIT
    adj = g.adjacency_masks()
    distinct = set()
    for subset in range(1 << g.n):
        members = [v for v in range(g.n) if subset >> v & 1]
        if len(members) >= 3 and all(
            (adj[v] & subset).bit_count() >= 2 for v in members
        ):
            distinct.update(tuple(rows) for _, rows in solvers._components(adj, subset))
    calls = []
    solve = solvers._solve_component
    monkeypatch.setattr(
        solvers, "_solve_component", lambda *args: calls.append(args) or solve(*args)
    )
    assert perfect_oracle(g)
    assert 0 < len(calls) <= 2 * len(distinct)


def test_no_verdict_outlives_its_call(monkeypatch):
    # The verdict table lives for one call: a second call decides every
    # component again, so it makes as many solves as the first.
    calls = []
    solve = solvers._solve_component
    monkeypatch.setattr(
        solvers, "_solve_component", lambda *args: calls.append(args) or solve(*args)
    )
    for decide, g in ((perfect_oracle, _k2(11)), (is_gamma_gamma2_graph, cycle(5))):
        calls.clear()
        decide(g)
        once = len(calls)
        decide(g)
        assert once > 0 and len(calls) == 2 * once


def _reference_recognize_perfect(g):
    """The rule ``recognize_perfect`` must reproduce: an induced ``Graph``
    per component, accepted when any vertex of maximum degree is a
    centre."""
    for comp in components(g):
        sub, mapping = induced_subgraph(g, comp)
        top = sub.max_degree()
        candidates = [v for v in range(sub.n) if sub.degree(v) == top]
        if not any(_reference_is_center(sub, v) for v in candidates):
            return (False, tuple(mapping))
    return (True, None)


def _reference_is_center(g, center):
    spokes = set(g.neighbors(center))
    leaf_of = {}
    for x in spokes:
        if g.degree(x) != 2:
            return False
        leaf = [u for u in g.neighbors(x) if u != center][0]
        if leaf in spokes:
            return False
        leaf_of[x] = leaf
    leaves = set(leaf_of.values())
    if g.n != 1 + len(spokes) + len(leaves):
        return False
    for leaf in leaves:
        group = [x for x in spokes if leaf_of[x] == leaf]
        if len(group) < 2 or set(g.neighbors(leaf)) != set(group):
            return False
    return True


def _relabelled_union(rng, parts):
    n = sum(part.n for part in parts)
    perm = list(range(n))
    rng.shuffle(perm)
    edges, offset = [], 0
    for part in parts:
        edges += [(perm[u + offset], perm[v + offset]) for u, v in part.edges()]
        offset += part.n
    return from_edges(n, edges)


def test_recognize_perfect_matches_the_any_candidate_rule():
    rng = random.Random(12)

    def random_star():
        # one leaf gives K_{2,m}, with C4 at m = 2
        return gadget_s([rng.randint(2, 4) for _ in range(rng.randint(1, 4))]).g

    def near_star():
        # one extra edge: still minimum degree >= 2, no longer a star
        g = random_star()
        non_edges = [e for e in combinations(range(g.n), 2) if not g.has_edge(*e)]
        u, v = rng.choice(non_edges)
        return from_edges(g.n, g.edge_list() + [(u, v)])

    def random_part():
        while True:
            g = random_graph(rng, rng.randint(3, 10), rng.choice([0.3, 0.45, 0.6]))
            if g.min_degree() >= 2:
                return g

    graphs = list(perfect_fixtures())
    graphs += [_relabelled_union(rng, [random_star()]) for _ in range(400)]
    while len(graphs) < 2600:
        parts = [
            rng.choice([random_star, random_star, near_star, random_part])()
            for _ in range(rng.choice([1, 1, 2, 3]))
        ]
        graphs.append(_relabelled_union(rng, parts))
    verdicts = []
    for g in graphs:
        v = recognize_perfect(g)
        verdicts.append(v.perfect)
        assert (v.perfect, v.failing_component) == _reference_recognize_perfect(g)
    assert verdicts.count(True) >= 600 and verdicts.count(False) >= 1000
    assert sum(len(components(g)) > 1 for g in graphs) >= 1000
    # perfect graphs with several candidates: a K_{2,m} part or a union
    ties = [
        sum(g.degree(v) == g.max_degree() for v in range(g.n)) > 1
        for g, perfect in zip(graphs, verdicts)
        if perfect
    ]
    assert sum(ties) >= 200


def test_size_guards():
    big_ring = cycle(FORBIDDEN_CHECK_VERTEX_LIMIT + 1)
    with pytest.raises(ValueError):
        forbidden_subgraph_check(big_ring)
    with pytest.raises(ValueError):
        perfect_oracle(cycle(PERFECT_ORACLE_VERTEX_LIMIT + 1))


def test_three_routes_agree_on_connected_fixtures():
    fixtures = [cycle(n) for n in range(4, 10)]
    fixtures += [gadget_s(m).g for m in ((2,), (2, 2), (3, 2), (2, 2, 2))]
    fixtures += [complete(4), petersen()]
    fixtures += t6_augmented_fixtures()
    for g in fixtures:
        structural = recognize_perfect(g).perfect
        assert structural == forbidden_subgraph_check(g)
        if g.n <= PERFECT_ORACLE_VERTEX_LIMIT:
            assert structural == perfect_oracle(g)
