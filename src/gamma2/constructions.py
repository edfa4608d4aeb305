"""Builders for the graph families this package studies.

The central construction starts from an "underlying" graph F whose
vertex set becomes an independent specified set D, replaces every F-edge
v_i v_j by a pair of subdivision vertices (each adjacent to exactly v_i
and v_j), optionally adds supplementary Y-vertices whose D-neighbourhood
is a clique of F of size >= 2, and finally adds supplementary edges among
the non-D vertices, keeping each subdivision pair independent.

Built instances use a canonical numbering: D first (F order), then the
pairs in lexicographic F-edge order (first subdivision vertex before the
second), then the Y-vertices.  Human-readable names for the vertices are
kept in a labels side table, never in the graph itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from .graph import Graph, check_int, from_edges, from_masks, short_cycle
from .solvers import CnfFormula, triple_cover_holds

RANDOM_INSTANCE_ATTEMPTS = 1000


# ---------------------------------------------------------------------------
# Standard graphs
# ---------------------------------------------------------------------------


def cycle(n: int) -> Graph:
    check_int("cycle length", n, 3)
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    check_int("path length", n, 1)
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    check_int("vertex count", n, 0)
    return from_edges(n, list(combinations(range(n), 2)))


def star(k: int) -> Graph:
    """Star with k leaves: centre 0, leaves 1..k (order k + 1)."""
    check_int("leaf count", k, 0)
    return from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return from_edges(10, outer + inner + spokes)


def all_four_vertex_graphs() -> list[Graph]:
    """The 11 isomorphism classes of simple graphs on four vertices."""
    edge_sets: list[list[tuple[int, int]]] = [
        [],
        [(0, 1)],
        [(0, 1), (2, 3)],
        [(0, 1), (1, 2)],
        [(0, 1), (1, 2), (2, 3)],
        [(0, 1), (0, 2), (0, 3)],
        [(0, 1), (1, 2), (0, 2)],
        [(0, 1), (1, 2), (0, 2), (0, 3)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    ]
    return [from_edges(4, es) for es in edge_sets]


# ---------------------------------------------------------------------------
# Specified-set constructions
# ---------------------------------------------------------------------------


class ConstructionError(ValueError):
    """A construction request violating one of the three building rules."""

    def __init__(self, rule: str, message: str):
        self.rule = rule
        super().__init__(f"rule {rule}: {message}")


@dataclass(frozen=True)
class ConstructionSpec:
    """Recipe for building a graph around an underlying graph ``f``.

    ``y_specs`` lists the D-neighbourhood of each supplementary vertex
    (a subset of V(f) of size >= 2 inducing a complete subgraph of f).
    ``supp_edges`` are extra edges among the subdivision/supplementary
    vertices, referenced in the canonical numbering of :func:`build`.
    """

    f: Graph
    y_specs: tuple[frozenset[int], ...] = ()
    supp_edges: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class PartitionedInstance:
    """A built graph together with its specified set and pair labelling.

    ``pair_map`` sends each underlying edge (u, v), u < v, both in ``d``,
    to its subdivision pair (x1, x2).  ``labels`` is a side table of
    display names; vertices themselves are plain ints.
    """

    g: Graph
    d: frozenset[int]
    pair_map: dict[tuple[int, int], tuple[int, int]]
    labels: dict[int, str] = field(default_factory=dict)


def build(spec: ConstructionSpec) -> PartitionedInstance:
    """Materialise a :class:`ConstructionSpec` in canonical numbering."""
    f = spec.f
    d = f.n
    f_edges = f.edge_list()
    n_pairs_end = d + 2 * len(f_edges)
    n_total = n_pairs_end + len(spec.y_specs)

    for ys in spec.y_specs:
        if len(ys) < 2:
            raise ConstructionError(
                "y-neighbourhood-size",
                f"supplementary neighbourhood {sorted(ys)} has size < 2",
            )
        for v in ys:
            if type(v) is not int or not 0 <= v < d:
                # No sorted(ys) here: members that are not ints may not
                # compare with each other.
                raise ConstructionError(
                    "y-neighbourhood-domain",
                    f"supplementary neighbourhood member {v!r} is not a "
                    f"D-vertex (0..{d - 1})",
                )
        for u, v in combinations(sorted(ys), 2):
            if not f.has_edge(u, v):
                raise ConstructionError(
                    "y-neighbourhood-clique",
                    f"supplementary neighbourhood {sorted(ys)} is not a "
                    f"complete subgraph of the underlying graph "
                    f"({u} and {v} are non-adjacent)",
                )

    for u, v in spec.supp_edges:
        for w in (u, v):
            # The vertex rule of from_edges: an int, never 3.0 or True.
            if type(w) is not int or not 0 <= w < n_total:
                raise ConstructionError(
                    "supp-edge-range",
                    f"supplementary edge ({u!r}, {v!r}) references vertex "
                    f"{w!r} outside the construction (n = {n_total})",
                )
        if u == v:
            raise ConstructionError(
                "supp-edge-loop", f"supplementary edge ({u}, {v}) is a loop"
            )
        for w in (u, v):
            if w < d:
                raise ConstructionError(
                    "supp-edge-touches-d",
                    f"supplementary edge ({u}, {v}) touches D-vertex {w}; "
                    f"edges must stay inside the subdivision/supplementary "
                    f"vertices",
                )
        if u < n_pairs_end and v < n_pairs_end and (u - d) // 2 == (v - d) // 2:
            raise ConstructionError(
                "supp-edge-pair-internal",
                f"supplementary edge ({u}, {v}) lies inside one subdivision "
                f"pair, which must stay independent",
            )

    edges: list[tuple[int, int]] = []
    labels = {i: f"v{i + 1}" for i in range(d)}
    pair_map: dict[tuple[int, int], tuple[int, int]] = {}
    nxt = d
    for i, j in f_edges:
        x1, x2 = nxt, nxt + 1
        nxt += 2
        edges += [(x1, i), (x1, j), (x2, i), (x2, j)]
        pair_map[(i, j)] = (x1, x2)
        labels[x1] = f"x_{{{i + 1},{j + 1}}}^1"
        labels[x2] = f"x_{{{i + 1},{j + 1}}}^2"
    for t, ys in enumerate(spec.y_specs):
        y = nxt
        nxt += 1
        edges += [(y, v) for v in sorted(ys)]
        labels[y] = f"y{t + 1}"
    edges += list(spec.supp_edges)

    return PartitionedInstance(
        g=from_edges(n_total, edges),
        d=frozenset(range(d)),
        pair_map=pair_map,
        labels=labels,
    )


def double_subdivision(f: Graph) -> PartitionedInstance:
    """Replace every edge of ``f`` by a pair of subdivision vertices."""
    return build(ConstructionSpec(f))


# ---------------------------------------------------------------------------
# Named gadgets
# ---------------------------------------------------------------------------


def _ring(first: int, k: int) -> tuple[tuple[int, int], ...]:
    """Supplementary edges chaining the k subdivision pairs numbered from
    ``first`` into a cycle: x_t^1 joins x_{t+1}^2, t + 1 taken mod k."""
    return tuple((first + 2 * t, first + 2 * ((t + 1) % k) + 1) for t in range(k))


def gadget_a(k: int) -> PartitionedInstance:
    """Ring gadget on a k-leaf star: the subdivision pairs of the star's
    edges are chained into a cycle by supplementary edges.

    Its specified set (centre plus leaves) is the instance's ``d``.
    """
    check_int("ring gadget k", k, 2)
    f = star(k)
    inst = build(ConstructionSpec(f, supp_edges=_ring(f.n, k)))
    labels = {0: "v"}
    labels.update({i: f"w{i}" for i in range(1, k + 1)})
    for t in range(k):
        labels[f.n + 2 * t] = f"x_{t + 1}^1"
        labels[f.n + 2 * t + 1] = f"x_{t + 1}^2"
    return PartitionedInstance(inst.g, inst.d, inst.pair_map, labels)


def gadget_b() -> PartitionedInstance:
    """Two subdivided independent edges whose pairs are bridged once."""
    f = from_edges(4, [(0, 1), (2, 3)])
    inst = build(ConstructionSpec(f, supp_edges=((4, 6),)))
    labels = {
        0: "v1", 1: "u1", 2: "v2", 3: "u2",
        4: "x_1^1", 5: "x_1^2", 6: "x_2^1", 7: "x_2^2",
    }
    return PartitionedInstance(inst.g, inst.d, inst.pair_map, labels)


def gadget_s(multiplicities: Sequence[int]) -> PartitionedInstance:
    """Doubled-subdivided star: leaf j is tied to the centre through
    ``multiplicities[j]`` parallel subdivision vertices (each >= 2).
    """
    mults = list(multiplicities)
    k = len(mults)
    check_int("leaf count", k, 1)
    for m in mults:
        check_int("multiplicity", m, 2)
    f = star(k)
    y_specs = []
    for j, m in enumerate(mults):
        y_specs += [frozenset({0, j + 1})] * (m - 2)
    inst = build(ConstructionSpec(f, y_specs=tuple(y_specs)))
    labels = {0: "v"}
    labels.update({j: f"v{j}" for j in range(1, k + 1)})
    for (i, j), (x1, x2) in inst.pair_map.items():
        labels[x1] = f"x_{j}^1"
        labels[x2] = f"x_{j}^2"
    y = f.n + 2 * f.m
    for j, m in enumerate(mults, start=1):
        for c in range(3, m + 1):
            labels[y] = f"x_{j}^{c}"
            y += 1
    return PartitionedInstance(inst.g, inst.d, inst.pair_map, labels)


def gadget_t6() -> Graph:
    """One edge with two pendant leaves at each end (six vertices)."""
    return from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


def join_c4(f: Graph) -> Graph:
    """Disjoint union of ``f`` with a 4-cycle, plus edges from every
    f-vertex to one antipodal pair of the cycle.

    The antipodal pair 2-dominates everything, so the result always has
    gamma = gamma_2 = 2 (for any f, connected or not).
    """
    n = f.n
    edges = f.edge_list()
    a, b, c, d = n, n + 1, n + 2, n + 3
    edges += [(a, b), (b, c), (c, d), (d, a)]
    edges += [(w, a) for w in range(n)]
    edges += [(w, c) for w in range(n)]
    return from_edges(n + 4, edges)


# ---------------------------------------------------------------------------
# 3-SAT reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SatReduction:
    """Reduction output plus whether the triple-cover precondition holds.

    Satisfiability of the source formula always implies
    gamma(g) <= num_vars + 1 < gamma_2(g) = num_vars + 2; the converse is
    guaranteed only when ``triple_cover`` is True.
    """

    instance: PartitionedInstance
    triple_cover: bool


def reduce_3sat(f: CnfFormula) -> SatReduction:
    """Encode a 3-CNF formula as a domination-equality question.

    The graph has 3k + l + 3 vertices for k variables and l clauses:
    a hub v0, variable guards v1..vk, a clause guard v_{k+1}, a
    true/false vertex per variable, one vertex per clause and one
    all-literals vertex.  Needs at least one clause.
    """
    k = f.num_vars
    n_clauses = len(f.clauses)
    if n_clauses == 0:
        raise ValueError("the reduction needs at least one clause")

    # Canonical numbering: D = {v0..v_{k+1}} = 0..k+1, then the pairs of
    # the (k+1)-leaf star in edge order, then the remaining clause
    # vertices as supplementary Y-vertices.
    def x_true(i: int) -> int:   # variable i, 1-based
        return k + 2 + 2 * (i - 1)

    def x_false(i: int) -> int:
        return x_true(i) + 1

    all_lits = 3 * k + 2          # paired with the first clause vertex

    def clause_vertex(j: int) -> int:  # clause j, 1-based
        return 3 * k + 2 + j

    supp: list[tuple[int, int]] = []
    supp += [(all_lits, x_true(i)) for i in range(1, k + 1)]
    supp += [(all_lits, x_false(i)) for i in range(1, k + 1)]
    for j, clause in enumerate(f.clauses, start=1):
        for lit in clause:
            supp.append(
                (clause_vertex(j), x_true(lit) if lit > 0 else x_false(-lit))
            )

    spec = ConstructionSpec(
        star(k + 1),
        y_specs=(frozenset({0, k + 1}),) * (n_clauses - 1),
        supp_edges=tuple(supp),
    )
    inst = build(spec)

    labels = {0: "v0"}
    labels.update({i: f"v{i}" for i in range(1, k + 2)})
    for i in range(1, k + 1):
        labels[x_true(i)] = f"x{i}^t"
        labels[x_false(i)] = f"x{i}^f"
    labels[all_lits] = "c*"
    for j in range(1, n_clauses + 1):
        labels[clause_vertex(j)] = f"c{j}"

    return SatReduction(
        instance=PartitionedInstance(inst.g, inst.d, inst.pair_map, labels),
        triple_cover=triple_cover_holds(f),
    )


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def random_masks(rng: random.Random, n: int, p: float) -> tuple[int, ...]:
    """The adjacency bitmasks of G(n, p): each of the n(n-1)/2 pairs is an
    edge with probability p, drawn in ``combinations`` order, one
    ``rng.random()`` each, straight into the masks."""
    check_int("vertex count", n, 0)
    masks = [0] * n
    bits = [1 << v for v in range(n)]
    for u, v in combinations(range(n), 2):
        if rng.random() < p:
            masks[u] |= bits[v]
            masks[v] |= bits[u]
    return tuple(masks)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p): the ``random_masks`` draw built into a ``Graph`` that keeps
    those masks.  The pairs are valid by construction, so no edge list
    goes through ``from_edges``' checks."""
    return from_masks(random_masks(rng, n, p))


def _random_supp_edges(
    rng: random.Random, f: Graph, n_y: int, p: float
) -> tuple[tuple[int, int], ...]:
    """Supplementary edges for a build of ``f`` with ``n_y`` Y-vertices:
    each pair of non-D vertices with probability ``p``, except the two
    vertices of one subdivision pair, which must stay independent."""
    d = f.n
    x_end = d + 2 * f.m
    total = x_end + n_y
    supp = []
    for u in range(d, total):
        for v in range(u + 1, total):
            if v < x_end and (u - d) // 2 == (v - d) // 2:
                continue
            if rng.random() < p:
                supp.append((u, v))
    return tuple(supp)


def random_h_instance(
    f_size: int,
    f_edge_prob: float,
    supp_edge_prob: float,
    seed: int,
) -> Optional[PartitionedInstance]:
    """Seeded random instance whose underlying graph has girth >= 5.

    Rejection-samples the underlying graph (up to 1000 attempts; returns
    None when the budget runs out), doubly subdivides it and sprinkles
    supplementary edges among the subdivision vertices, never inside one
    pair.  Both probabilities must lie in [0, 1].
    """
    for name, p in (
        ("edge", f_edge_prob), ("supplementary edge", supp_edge_prob)
    ):
        if not 0.0 <= p <= 1.0:  # also rejects NaN
            raise ValueError(f"{name} probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    for _ in range(RANDOM_INSTANCE_ATTEMPTS):
        f = random_graph(rng, f_size, f_edge_prob)
        if short_cycle(f) is None:
            break
    else:
        return None
    supp = _random_supp_edges(rng, f, 0, supp_edge_prob)
    return build(ConstructionSpec(f, supp_edges=supp))
