"""Exact k-domination solvers and the 3-CNF helpers."""

import hashlib
import random
import sys
import time
import traceback
import tracemalloc
from itertools import combinations, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma2 import (
    CnfFormula,
    cnf_satisfiable,
    enumerate_min_k_dominating,
    from_edges,
    gamma_k,
    gamma_k_bruteforce,
    is_gamma_gamma2_graph,
    is_k_dominating,
    triple_cover_holds,
)
from gamma2 import solvers
from gamma2.constructions import (
    complete,
    cycle,
    path,
    random_graph,
    reduce_3sat,
    star,
)
from gamma2.graph import components, induced_subgraph
from gamma2.recognition import perfect_oracle
from gamma2.solvers import (
    _LOOKAHEAD,
    BRUTE_FORCE_VERTEX_LIMIT,
    SAT_VARIABLE_LIMIT,
    _bit_is_k_dominating,
    _components,
    _drop_redundant,
    _greedy_cover_mask,
    _picks_finish,
    _solve_component,
    gamma_eq_gamma2_masks,
)
from gamma2.verify import (
    UNSAT_COVERED_6,
    UNSAT_COVERED_7,
    covered_formula,
    h_instance_stream,
    random_formula,
)

#: The eight clauses over variables 1, 2, 3, one per sign pattern: every
#: assignment falsifies exactly one of them.
ALL_SIGN_PATTERNS_3 = CnfFormula(
    3,
    tuple(
        tuple(v if s else -v for v, s in zip((1, 2, 3), signs))
        for signs in product((True, False), repeat=3)
    ),
)


def test_is_k_dominating_basics():
    g = cycle(4)
    assert is_k_dominating(g, frozenset({0, 2}), 1)
    assert is_k_dominating(g, frozenset({0, 2}), 2)
    assert not is_k_dominating(g, frozenset({0, 1}), 2)
    assert is_k_dominating(g, frozenset(range(4)), 3)  # vacuous
    assert not is_k_dominating(g, frozenset(), 1)


def test_domination_result_fields():
    result = gamma_k(cycle(5), 2)
    assert result.k == 2
    assert result.number == 3
    assert len(result.witness) == 3
    assert is_k_dominating(cycle(5), result.witness, 2)


@pytest.mark.parametrize("n", range(3, 16))
def test_cycle_formulas(n):
    g = cycle(n)
    assert gamma_k(g, 1).number == -(-n // 3)
    assert gamma_k(g, 2).number == -(-n // 2)


def test_small_fixed_values():
    assert gamma_k(complete(5), 1).number == 1
    assert gamma_k(complete(5), 2).number == 2
    assert gamma_k(star(6), 1).number == 1
    assert gamma_k(star(6), 2).number == 6
    assert gamma_k(path(4), 1).number == 2
    # P5 numbered centre first: the greedy takes the centre and needs three,
    # and the centre is redundant beside the other two.
    assert gamma_k(from_edges(5, [(0, 1), (0, 2), (1, 4), (2, 3)]), 1).number == 2
    assert gamma_k(from_edges(0, []), 1).number == 0
    assert gamma_k(from_edges(1, []), 2).number == 1


def test_solver_is_deterministic():
    g = from_edges(9, [(i, (i + 2) % 9) for i in range(9)] + [(0, 4)])
    first = gamma_k(g, 2)
    second = gamma_k(g, 2)
    assert first == second


@given(
    st.integers(1, 10),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=25),
    st.integers(1, 3),
)
def test_branch_and_bound_agrees_with_bruteforce(n, raw_edges, k):
    edges = [(u % n, v % n) for u, v in raw_edges if u % n != v % n]
    g = from_edges(n, edges)
    fast = gamma_k(g, k)
    slow = gamma_k_bruteforce(g, k)
    assert fast.number == slow.number
    assert is_k_dominating(g, fast.witness, k)
    assert len(fast.witness) == fast.number


def _seeded_graph(n, p, seed):
    """G(n, p) from a seed: denser than shrunk hypothesis edge lists."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return from_edges(n, [e for e in pairs if rng.random() < p])


densities = st.sampled_from([0.15, 0.25, 0.4])
seeds = st.integers(0, 2**32)


@settings(max_examples=40)
@given(st.integers(11, 16), densities, seeds, st.integers(1, 3))
def test_branch_and_bound_agrees_with_bruteforce_on_larger_graphs(
    n, p, seed, k
):
    # Sizes and densities where the greedy start is often above the
    # optimum, so the counting bound sum(need) / (max degree + k) prunes
    # real subtrees.
    g = _seeded_graph(n, p, seed)
    fast = gamma_k(g, k)
    assert fast.number == gamma_k_bruteforce(g, k).number
    assert is_k_dominating(g, fast.witness, k)
    assert len(fast.witness) == fast.number


def _reference_greedy_cover_mask(adj: list[int], k: int) -> int:
    """The rescanning greedy that ``_greedy_cover_mask`` must reproduce."""
    n = len(adj)
    chosen = 0
    for v in range(n):
        if adj[v].bit_count() < k:
            chosen |= 1 << v  # can never be k-dominated from outside
    while True:
        needs = {}
        for v in range(n):
            if chosen >> v & 1:
                continue
            need = k - (adj[v] & chosen).bit_count()
            if need > 0:
                needs[v] = need
        if not needs:
            return chosen
        best_v, best_score = -1, -1
        for u in range(n):
            if chosen >> u & 1:
                continue
            score = sum(1 for v in needs if adj[v] >> u & 1)
            score += needs.get(u, 0)
            if score > best_score:
                best_v, best_score = u, score
        chosen |= 1 << best_v


@given(st.integers(1, 14), densities, seeds, st.integers(1, 3))
def test_incremental_greedy_matches_rescanning_reference(n, p, seed, k):
    adj = _seeded_graph(n, p, seed).adjacency_masks()
    assert _greedy_cover_mask(adj, k) == _reference_greedy_cover_mask(adj, k)


@given(st.integers(1, 16), densities, seeds, st.integers(1, 3))
def test_dropping_redundant_vertices_leaves_an_irredundant_subset(n, p, seed, k):
    adj = _seeded_graph(n, p, seed).adjacency_masks()
    greedy = _greedy_cover_mask(adj, k)
    pruned = _drop_redundant(adj, k, greedy)
    assert pruned & ~greedy == 0
    assert _bit_is_k_dominating(adj, pruned, k)
    for v in range(n):
        if pruned >> v & 1:
            assert not _bit_is_k_dominating(adj, pruned & ~(1 << v), k), v


@pytest.mark.parametrize("n, k", [(1500, 1), (400, 2)])
def test_gamma_k_scales_on_long_cycles(n, k):
    # Greedy and counting bound both reach kn / (2 + k): no search needed.
    start = time.perf_counter()
    assert gamma_k(cycle(n), k).number == k * n // (2 + k)
    assert time.perf_counter() - start < 5.0


def _fewest_finishing_picks(adj, chosen, excluded, k, most):
    """Fewest undecided vertices (at most ``most``) whose addition to
    ``chosen`` k-dominates, by enumeration; None if more are needed."""
    n = len(adj)
    undecided = [1 << v for v in range(n) if not (chosen | excluded) >> v & 1]
    for size in range(most + 1):
        for picks in combinations(undecided, size):
            if _bit_is_k_dominating(adj, chosen | sum(picks), k):
                return size
    return None


def test_picks_finish_matches_enumeration():
    # The completion lookahead's test, on random partial search states:
    # the rows are built the way _solve_component builds them, and any
    # needy vertex's option pool may serve as the first pool.  A set it
    # returns must be undecided picks, within budget, that finish the node.
    rng = random.Random("picks finish")
    answers = set()
    for _ in range(300):
        n = rng.randint(2, 10)
        p = rng.choice([0.2, 0.35, 0.5])
        adj = _seeded_graph(n, p, rng.randrange(2**32)).adjacency_masks()
        chosen = excluded = 0
        for v in range(n):
            roll = rng.random()
            if roll < 0.2:
                chosen |= 1 << v
            elif roll < 0.45:
                excluded |= 1 << v
        undecided = (1 << n) - 1 & ~chosen & ~excluded
        for k in (1, 2, 3):
            rows = []
            for v in range(n):
                bit = 1 << v
                need = k - (adj[v] & chosen).bit_count()
                if chosen & bit or need <= 0:
                    continue
                options = adj[v] & undecided | (0 if excluded & bit else bit)
                rows.append((options.bit_count(), bit, need, options))
            if not rows:
                continue
            fewest = _fewest_finishing_picks(adj, chosen, excluded, k, _LOOKAHEAD)
            pools = (min(rows)[3], rng.choice(rows)[3])
            for picks in range(2, _LOOKAHEAD + 1):
                expected = fewest is not None and fewest <= picks
                for pool in pools:
                    answer = _picks_finish(adj, rows, pool, excluded, picks)
                    state = (adj, chosen, excluded, k, picks, pool, answer)
                    assert bool(answer) == expected, state
                    if answer:
                        assert answer.bit_count() <= picks, state
                        assert not answer & (chosen | excluded), state
                        assert _bit_is_k_dominating(adj, chosen | answer, k), state
                answers.add((picks, expected))
    assert answers == {(t, e) for t in range(2, _LOOKAHEAD + 1) for e in (False, True)}


def _pinned_digests(cases):
    """(numbers digest, numbers-and-witnesses digest) of gamma_k over
    ``cases``, checking on the way that each witness is a k-dominating set
    of gamma_k vertices.  The numbers are pinned apart from the witnesses:
    a change of search order may move a witness to another minimum set,
    but never a number."""
    numbers = hashlib.sha256()
    witnesses = hashlib.sha256()
    for g, k in cases:
        result = gamma_k(g, k)
        assert is_k_dominating(g, result.witness, k), (g.edge_list(), k)
        assert len(result.witness) == result.number, (g.edge_list(), k)
        numbers.update(f"{result.number};".encode())
        witnesses.update(f"{result.number}:{sorted(result.witness)};".encode())
    return numbers.hexdigest(), witnesses.hexdigest()


def test_witnesses_are_pinned():
    # gamma_k's numbers and witnesses on a seeded corpus: a change that
    # alters any of them must update its digest and say so.
    rng = random.Random(2019)
    graphs = [
        random_graph(rng, rng.randint(1, 20), rng.choice([0.1, 0.2, 0.3, 0.5]))
        for _ in range(300)
    ]
    cases = [(g, k) for g in graphs for k in (1, 2, 3)]
    cases += [(cycle(n), k) for n in range(3, 31) for k in (1, 2)]
    assert _pinned_digests(cases) == (
        "8c8284fc22bb0d8be4101d91631524b492ebaabe430d2cc3bac0f82e7dec4615",
        "25fae1bb24fd52b2334b8f10199f055d8b8920f384030c1560f5d33015833675",
    )


def _pinned_3sat_reductions():
    """Reduction graphs of 36-64 vertices from 16 seeded formulas over 6
    and 7 variables, 6 of them unsatisfiable."""
    rng = random.Random(2019)
    formulas = [UNSAT_COVERED_6, UNSAT_COVERED_7]
    formulas += [covered_formula(rng, v) for v in (6, 7)]
    formulas += [
        random_formula(rng, v, m)
        for v in (6, 7) for m in (20, 30, 40) for _ in range(2)
    ]
    assert [cnf_satisfiable(f) is not None for f in formulas].count(False) == 6
    graphs = [reduce_3sat(f).instance.g for f in formulas]
    assert min(g.n for g in graphs) == 36 and max(g.n for g in graphs) == 64
    return graphs


def test_witnesses_are_pinned_on_3sat_reductions():
    # The corpus above stops at 20 vertices; these reduction graphs have
    # 36-64, where the search is longest.  Same rule: a change that alters
    # a number or witness must update its digest and say so.
    graphs = _pinned_3sat_reductions()
    assert _pinned_digests([(g, k) for g in graphs for k in (1, 2)]) == (
        "b111e51236df2b46b46e666eb2d4fe0e111b042846e64406dece4834d07d3a2a",
        "07d0708ddafda10e50468e58713bd68d8c4460ee6aa3093d98a793283853bda3",
    )


def test_gamma_2_of_a_3sat_reduction_is_one_failing_decision(monkeypatch):
    # The greedy 2-dominating set of these graphs is one vertex above
    # gamma_2 = v + 2, and dropping its redundant vertices reaches the
    # optimum, so the chain is only the proof: one decision, which fails.
    calls = []
    solve = _solve_component

    def recording(adj, k, cap):
        calls.append(solve(adj, k, cap))
        return calls[-1]

    graphs = _pinned_3sat_reductions()
    monkeypatch.setattr(solvers, "_solve_component", recording)
    for g in graphs:
        calls.clear()
        gamma_k(g, 2)
        assert calls == [0], g.n


def _small_3sat_reductions():
    """(variables, graph) of every reduction graph of at most 22 vertices
    from 3- and 4-variable formulas (3v + l + 3 vertices for l clauses)."""
    rng = random.Random("small 3-SAT reductions")
    formulas = [ALL_SIGN_PATTERNS_3]
    formulas += [
        random_formula(rng, v, m)
        for v in (3, 4) for m in range(1, BRUTE_FORCE_VERTEX_LIMIT - 3 * v - 2)
        for _ in range(2)
    ]
    cases = [(f.num_vars, reduce_3sat(f).instance.g) for f in formulas]
    assert cases[0][1].n == 20
    assert max(g.n for _, g in cases) == BRUTE_FORCE_VERTEX_LIMIT
    return cases


def test_branch_and_bound_agrees_with_bruteforce_on_small_3sat_reductions():
    # The budgets are tight there, so the last few picks of a node decide
    # the outcome and the completion lookahead prunes most of the search.
    for _, g in _small_3sat_reductions():
        for k in (1, 2):
            fast = gamma_k(g, k)
            assert fast.number == gamma_k_bruteforce(g, k).number
            assert is_k_dominating(g, fast.witness, k)
            assert len(fast.witness) == fast.number


def _many_part_graph(rng, parts, isolated):
    """Random trees and small G(n, p) parts plus isolated vertices, as one
    disjoint union under a random labelling (like the bench ``forest``)."""
    edges = []
    n = 0
    for _ in range(parts):
        if rng.random() < 0.5:
            size = rng.randint(5, 25)
            part = [(v, rng.randrange(v)) for v in range(1, size)]
        else:
            size = rng.randint(4, 10)
            part = random_graph(rng, size, 0.35).edge_list()
        edges += [(u + n, v + n) for u, v in part]
        n += size
    n += isolated
    label = list(range(n))
    rng.shuffle(label)
    return from_edges(n, [(label[u], label[v]) for u, v in edges])


def test_flood_and_component_walk_agree_with_components_on_partial_masks():
    # gamma_k walks the whole vertex set and perfect_oracle its subsets;
    # both must see the components of the induced subgraph, relabelled as
    # induced_subgraph numbers them, and the whole host only as
    # (range(n), adj).
    rng = random.Random("flood")
    cases = [
        (from_edges(0, []), 0),
        (path(5), 0),
        (from_edges(1, []), 1),
        (from_edges(4, []), 0b1111),
        (from_edges(6, [(0, 1), (1, 2), (4, 5)]), 0b111111),
        (from_edges(6, [(0, 1), (1, 2), (4, 5)]), 0b101101),
        (cycle(5), 0b11111),
    ]
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 16), rng.choice([0.1, 0.2, 0.4]))
        cases.append((g, rng.getrandbits(g.n)))
        cases.append((g, (1 << g.n) - 1))
    hosts = 0
    for g, within in cases:
        adj = g.adjacency_masks()
        sub, mapping = induced_subgraph(g, [v for v in range(g.n) if within >> v & 1])
        expected = [[mapping[i] for i in comp] for comp in components(sub)]
        walked = list(_components(adj, within))
        if len(expected) == 1 and len(expected[0]) == g.n:
            hosts += 1
            assert len(walked) == 1 and walked[0][0] == range(g.n)
            assert walked[0][1] is adj
            continue
        assert [vertices for vertices, _ in walked] == expected
        for vertices, rows in walked:
            assert tuple(rows) == induced_subgraph(g, vertices)[0].adjacency_masks()
    assert hosts > 50  # the whole-host fork is exercised, not only relabelling


def test_witnesses_are_pinned_on_many_components():
    # Each component is relabelled and solved on its own; witnesses must
    # map back to the same host vertices.  Same rule as above for the digests.
    rng = random.Random(2020)
    graphs = [
        _many_part_graph(rng, rng.randint(10, 20), rng.randint(0, 5))
        for _ in range(40)
    ]
    assert min(len(components(g)) for g in graphs) >= 10
    graphs += [from_edges(n, []) for n in (0, 1, 7)]
    assert _pinned_digests([(g, k) for g in graphs for k in (1, 2)]) == (
        "ac8bef0f7ea461e2c0a69b222d102204441c079afda2caa63170c2a49b200ef8",
        "6fafb3c261290a238123ebefc976364eeee169e0aefb47c26b981ef893fda520",
    )


def test_search_state_does_not_grow_with_k_beyond_the_max_degree():
    # No vertex has more than max-degree chosen neighbours, so neither the
    # time nor the memory of the search may grow with k beyond that.
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert gamma_k(cycle(40), 10**6).number == 40
        assert time.perf_counter() - start < 1.0
        assert tracemalloc.get_traced_memory()[1] < 100_000  # bytes
    finally:
        tracemalloc.stop()


def test_search_depth_does_not_depend_on_the_recursion_limit():
    rng = random.Random(8)
    tree = from_edges(200, [(v, rng.randrange(v)) for v in range(1, 200)])
    expected = gamma_k(tree, 1)
    # The search needs a handful of frames here; a recursive one needs
    # one per level, about 80 on this tree.
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 40)
    try:
        assert gamma_k(tree, 1) == expected
    finally:
        sys.setrecursionlimit(old_limit)


def test_bruteforce_rejects_large_graphs():
    g = cycle(BRUTE_FORCE_VERTEX_LIMIT + 1)
    with pytest.raises(ValueError):
        gamma_k_bruteforce(g, 1)
    with pytest.raises(ValueError):
        is_gamma_gamma2_graph(g)


def test_enumerate_min_dominating_sets_of_c4():
    g = cycle(4)
    ones = enumerate_min_k_dominating(g, 1)
    assert sorted(tuple(sorted(s)) for s in ones) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]
    twos = enumerate_min_k_dominating(g, 2)
    assert sorted(tuple(sorted(s)) for s in twos) == [(0, 2), (1, 3)]


def test_gamma_gamma2_graph_examples():
    assert is_gamma_gamma2_graph(cycle(4))
    assert not is_gamma_gamma2_graph(cycle(5))
    assert not is_gamma_gamma2_graph(complete(4))


def _all_labelled_graphs(max_n):
    """Every graph on 0..n-1 for each n <= ``max_n``."""
    for n in range(max_n + 1):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def _decision_graphs():
    """Every labelled graph with n <= 5, then seeded G(n, p), n = 6..12."""
    yield from _all_labelled_graphs(5)
    for n in range(6, 13):
        for p in (0.15, 0.3, 0.5):
            for seed in range(3):
                yield _seeded_graph(n, p, 1000 * n + seed)


def _cycles(*lengths):
    edges = []
    start = 0
    for n in lengths:
        edges += [(start + i, start + (i + 1) % n) for i in range(n)]
        start += n
    return from_edges(start, edges)


def test_gamma_eq_gamma2_decision_matches_bruteforce():
    disconnected = 0
    for g in _decision_graphs():
        expected = gamma_k_bruteforce(g, 1).number == gamma_k_bruteforce(g, 2).number
        assert is_gamma_gamma2_graph(g) == expected, g.edge_list()
        disconnected += g.n > 5 and len(components(g)) > 1
    assert disconnected >= 10  # the seeded draws reach the per-component path
    assert is_gamma_gamma2_graph(from_edges(0, []))
    assert is_gamma_gamma2_graph(from_edges(1, []))
    assert not is_gamma_gamma2_graph(path(2))
    assert is_gamma_gamma2_graph(_cycles(4, 4))
    assert not is_gamma_gamma2_graph(_cycles(4, 5))


def test_gamma_eq_gamma2_table_is_keyed_on_the_whole_adjacency():
    # K_{2,3} on 0..4 and the house (C5 plus one chord) on 5..9 both have 5
    # vertices and 6 edges, so a table keyed on less than the rows would
    # hand the house the verdict of K_{2,3}, decided first.
    k23 = [(u, v) for u in (0, 1) for v in (2, 3, 4)]
    house = cycle(5).edge_list() + [(1, 4)]
    for edges, equal in ((k23, True), (house, False)):
        g = from_edges(5, edges)
        assert (gamma_k_bruteforce(g, 1).number == gamma_k_bruteforce(g, 2).number) == equal
    host = from_edges(10, k23 + [(u + 5, v + 5) for u, v in house])
    masks = host.adjacency_masks()
    k23_mask, house_mask = 0b11111, 0b11111 << 5
    assert gamma_eq_gamma2_masks(masks, [k23_mask])
    assert not gamma_eq_gamma2_masks(masks, [house_mask])
    assert not gamma_eq_gamma2_masks(masks, [k23_mask, house_mask])


def _deepening_graphs():
    """Sparse G(14..22, p) and subdivision instances with gamma >= 5 and
    gamma at least two above the counting bound n / (max degree + 1): the
    k = 1 search that finds gamma has a cap whose root the completion
    lookahead cannot decide."""
    rng = random.Random("deepening")
    drawn = [
        random_graph(rng, rng.randint(14, 22), rng.choice([0.1, 0.15, 0.2]))
        for _ in range(60)
    ]
    drawn += [inst.g for inst in islice(h_instance_stream(5), 60)]
    for g in drawn:
        gamma = gamma_k(g, 1).number
        if gamma >= max(5, -(-g.n // (g.max_degree() + 1)) + 2):
            yield g


def test_gamma_eq_gamma2_decision_deepens_to_gamma(monkeypatch):
    graphs = list(_deepening_graphs())
    raises = []
    solve = _solve_component

    def recording(adj, k, cap):
        mask = solve(adj, k, cap)
        if k == 1 and not mask:
            raises[-1] += 1
        return mask

    monkeypatch.setattr(solvers, "_solve_component", recording)
    verdicts = []
    for g in graphs:
        raises.append(0)
        verdicts.append(is_gamma_gamma2_graph(g))
    monkeypatch.undo()
    assert verdicts == [
        gamma_k(g, 1).number == gamma_k(g, 2).number for g in graphs
    ]
    assert len(graphs) >= 40 and 0 < sum(verdicts) < len(graphs)
    # A connected graph's first cap is its counting bound, so a gamma two
    # above it is reached after at least two raises.
    connected = [r for g, r in zip(graphs, raises) if len(components(g)) == 1]
    assert len(connected) >= 10 and min(connected) >= 2


def test_gamma_eq_gamma2_decision_never_builds_the_greedy(monkeypatch):
    def greedy(adj, k):
        raise AssertionError("the decision built a greedy bound")

    graphs = list(islice(_deepening_graphs(), 10)) + [cycle(4), cycle(5)]
    verdicts = [gamma_k(g, 1).number == gamma_k(g, 2).number for g in graphs]
    k2_11 = from_edges(13, [(u, v) for u in (0, 1) for v in range(2, 13)])
    monkeypatch.setattr(solvers, "_greedy_cover_mask", greedy)
    assert [is_gamma_gamma2_graph(g) for g in graphs] == verdicts
    assert perfect_oracle(k2_11)
    with pytest.raises(AssertionError, match="greedy"):
        gamma_k(cycle(5), 1)


def _check_capped_search(g, k, caps):
    adj = g.adjacency_masks()
    optimum = gamma_k_bruteforce(g, k).number
    for cap in caps:
        mask = _solve_component(adj, k, cap)
        if optimum <= cap:
            assert _bit_is_k_dominating(adj, mask, k)
            assert 0 < mask.bit_count() <= cap
        else:
            assert mask == 0


def test_capped_search_answers_whether_gamma_k_is_at_most_the_cap():
    for g in _decision_graphs():
        if g.n == 0:
            continue
        for k in (1, 2, 3):
            _check_capped_search(g, k, range(g.n + 1))
    # These reduction graphs have gamma = v + 1 and gamma_2 = v + 2 for v
    # variables, so caps v..v + 2 fall below, at and above each optimum.
    # A cap that close starts the search from an incumbent a few picks
    # away, so the completion lookahead runs from the first node.
    for v, g in _small_3sat_reductions():
        for k in (1, 2):
            _check_capped_search(g, k, range(v, v + 3))


def _falling_chain_cases():
    """(connected graph, k, size of the chain's first set, gamma_k, caps
    gamma_k decides)."""
    p5 = from_edges(5, [(0, 1), (0, 2), (1, 4), (2, 3)])  # centre first
    sat = reduce_3sat(covered_formula(random.Random(1), 7)).instance.g
    yield p5, 1, 2, 2, [1]
    yield sat, 1, 9, 8, [8, 7]
    yield sat, 2, 9, 9, [8]
    # The first set is optimal on cycles: one decision, which fails.
    for n in range(3, 31):
        for k in (1, 2):
            gamma = -(-k * n // (2 + k))
            yield cycle(n), k, gamma, gamma, [gamma - 1]


def test_gamma_k_is_a_falling_chain_of_decisions(monkeypatch):
    # From the pruned greedy set, each decision is capped one below the
    # last set found; the first that fails proves the last set (or the
    # first) minimum, and that set is the witness.
    calls = []
    solve = _solve_component

    def recording(adj, k, cap):
        calls.append((cap, solve(adj, k, cap)))
        return calls[-1][1]

    monkeypatch.setattr(solvers, "_solve_component", recording)
    for g, k, first_size, gamma, caps in _falling_chain_cases():
        assert len(components(g)) == 1
        calls.clear()
        result = gamma_k(g, k)
        adj = g.adjacency_masks()
        best = _drop_redundant(adj, k, _greedy_cover_mask(adj, k))
        assert (best.bit_count(), result.number) == (first_size, gamma)
        assert [cap for cap, _ in calls] == caps
        for cap, mask in calls:
            assert cap == best.bit_count() - 1
            if mask:
                assert _bit_is_k_dominating(adj, mask, k)
                assert mask.bit_count() <= cap
                best = mask
        assert calls[-1][1] == 0
        assert result.witness == {v for v in range(g.n) if best >> v & 1}


def test_gamma_k_requires_positive_k():
    with pytest.raises(ValueError):
        gamma_k(cycle(3), 0)


@pytest.mark.parametrize("k", [0, -1, 2.0, 1.5, True])
def test_every_route_rejects_a_k_that_is_not_a_positive_int(k):
    g = cycle(5)
    with pytest.raises(ValueError, match="k must be an int >= 1"):
        is_k_dominating(g, {0, 2}, k)
    with pytest.raises(ValueError, match="k must be an int >= 1"):
        gamma_k(g, k)
    with pytest.raises(ValueError, match="k must be an int >= 1"):
        gamma_k_bruteforce(g, k)
    with pytest.raises(ValueError, match="k must be an int >= 1"):
        enumerate_min_k_dominating(g, k)


# --- 3-CNF helpers ---------------------------------------------------------


def test_cnf_formula_validation():
    CnfFormula(3, ((1, -2, 3),))
    with pytest.raises(ValueError):
        CnfFormula(3, ((1, 1, 2),))  # repeated variable
    with pytest.raises(ValueError):
        CnfFormula(3, ((1, -1, 2),))  # repeated variable, flipped sign
    with pytest.raises(ValueError):
        CnfFormula(3, ((1, 2),))  # too short
    with pytest.raises(ValueError):
        CnfFormula(2, ((1, 2, 3),))  # variable out of range
    with pytest.raises(ValueError):
        CnfFormula(3, ((0, 1, 2),))  # zero literal


def test_cnf_satisfiable_finds_assignment():
    f = CnfFormula(3, ((1, 2, 3), (-1, -2, -3)))
    assignment = cnf_satisfiable(f)
    assert assignment is not None
    for clause in f.clauses:
        assert any(
            assignment[abs(lit) - 1] == (lit > 0) for lit in clause
        )


def test_cnf_unsatisfiable_all_sign_patterns():
    assert cnf_satisfiable(ALL_SIGN_PATTERNS_3) is None


def test_cnf_variable_limit():
    f = CnfFormula(SAT_VARIABLE_LIMIT + 1, ((1, 2, 3),))
    with pytest.raises(ValueError):
        cnf_satisfiable(f)


@pytest.mark.parametrize(
    "num_vars, clauses",
    [
        (True, ((1, -1, 1),)),
        (3.0, ((1, 2, 3),)),
        (-1, ()),
        (3, ((True, 2, 3),)),
        (3, ((1, 2.0, 3),)),
    ],
)
def test_formula_holds_only_int_counts_and_literals(num_vars, clauses):
    with pytest.raises(ValueError):
        CnfFormula(num_vars, clauses)


def test_triple_cover_needs_disjoint_clause():
    # with only 3 variables no clause can avoid the single variable triple
    assert not triple_cover_holds(CnfFormula(3, ((1, 2, 3),)))
    full = covered_formula(random.Random(5), 6)
    assert triple_cover_holds(full)
    # drop one clause: its complement triple is no longer avoided
    short = CnfFormula(6, full.clauses[1:])
    assert not triple_cover_holds(short)


def test_covered_formula_supports_six_and_seven_variables_only():
    with pytest.raises(ValueError) as info:
        covered_formula(random.Random(0), 5)
    assert str(info.value) == "covered_formula supports k in {6, 7}, got 5"


def test_frozen_unsat_fixtures():
    for f in (UNSAT_COVERED_6, UNSAT_COVERED_7):
        assert triple_cover_holds(f)
        assert cnf_satisfiable(f) is None
