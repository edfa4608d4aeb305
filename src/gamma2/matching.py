"""Maximum matching in general (non-bipartite) graphs.

``maximum_matching`` is the augmenting-path algorithm with blossom
contraction, O(n^3) overall: repeatedly grow an alternating BFS forest
from a free vertex, shrinking any odd cycle met along the way down to its
base.  ``brute_force_maximum_matching`` is the exhaustive oracle used to
validate it on small inputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import Graph, bit_list, check_size

BRUTE_FORCE_EDGE_LIMIT = 25


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint edges, stored as a mate table.

    ``mate[v]`` is the matched partner of ``v``, or None if ``v`` is
    exposed.  The table length equals the host graph's vertex count.
    """

    mate: tuple[int | None, ...]

    @property
    def size(self) -> int:
        return (len(self.mate) - self.mate.count(None)) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Each matched edge once as (v, u) with v < u, in sorted order."""
        return [(v, u) for v, u in enumerate(self.mate) if u is not None and v < u]


def maximum_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching of ``g``.

    Deterministic: scans vertices and neighbours in index order.  Starts
    from the greedy matching that pairs each vertex, in index order, with
    its lowest free neighbour, then runs one augmenting search per exposed
    root while at least two exposed vertices are unsearched: a greedy
    start that leaves two vertices exposed costs at most one search.
    """
    n = g.n
    mate: list[int | None] = [None] * n

    # Greedy initial matching saves most of the augmenting phases.
    for v in range(n):
        if mate[v] is None:
            for u in g.neighbors(v):
                if mate[u] is None:
                    mate[v] = u
                    mate[u] = v
                    break

    # Each search builds its own forest state.
    parent: list[int]  # BFS tree parent (over even vertices)
    base: list[int]  # base vertex of the blossom containing v
    outer: list[bool]  # v is an even (outer) vertex of the forest

    def lca(a: int, b: int) -> int:
        marked = [False] * n
        v = a
        while True:
            v = base[v]
            marked[v] = True
            if mate[v] is None:
                break
            v = parent[mate[v]]
        v = b
        while True:
            v = base[v]
            if marked[v]:
                return v
            v = parent[mate[v]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        # Walk from v up to the blossom base b, absorbing every blossom on
        # the way and rewiring parents so later augmentation can lift paths
        # out of the contracted cycle.
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def find_augmenting_path(root: int) -> int:
        nonlocal parent, base, outer
        parent, base, outer = [-1] * n, list(range(n)), [False] * n
        outer[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if base[u] == base[v] or mate[v] == u:
                    continue
                if u == root or (mate[u] is not None and parent[mate[u]] != -1):
                    # u is outer too: the edge closes an odd cycle.
                    cur_base = lca(v, u)
                    in_blossom = [False] * n
                    mark_path(v, cur_base, u, in_blossom)
                    mark_path(u, cur_base, v, in_blossom)
                    for w in range(n):
                        if in_blossom[base[w]]:
                            base[w] = cur_base
                            if not outer[w]:
                                outer[w] = True
                                queue.append(w)
                elif parent[u] == -1:
                    # u is unreached: it becomes an inner vertex.
                    parent[u] = v
                    if mate[u] is None:
                        return u  # exposed: augmenting path found
                    outer[mate[u]] = True
                    queue.append(mate[u])
        return -1

    # A vertex with no augmenting path never gets one after later
    # augmentations (Edmonds), so every path still to be found joins two
    # exposed roots not yet searched: stop when fewer than two remain.
    unsearched = mate.count(None)
    for root in range(n):
        if mate[root] is not None:
            continue
        if unsearched < 2:
            break
        unsearched -= 1
        end = find_augmenting_path(root)
        if end == -1:
            continue
        unsearched -= 1
        # Flip matched/unmatched edges along the path back to the root.
        while end is not None:
            prev = parent[end]
            next_end = mate[prev]
            mate[end] = prev
            mate[prev] = end
            end = next_end

    return Matching(tuple(mate))


def brute_force_maximum_matching(g: Graph) -> Matching:
    """Exhaustive maximum matching; oracle for :func:`maximum_matching`.

    Branches on the lowest free vertex that still has a free neighbour:
    either it stays exposed or it is matched to one of them.  Only graphs
    with at most ``BRUTE_FORCE_EDGE_LIMIT`` edges are accepted.
    """
    check_size("brute-force matching", g.m, BRUTE_FORCE_EDGE_LIMIT, "edges")
    n = g.n
    masks = g.adjacency_masks()
    best_edges: list[tuple[int, int]] = []
    chosen: list[tuple[int, int]] = []

    def search(free: int) -> None:
        nonlocal best_edges
        # Even pairing up every remaining free vertex cannot beat the best.
        if len(chosen) + free.bit_count() // 2 <= len(best_edges):
            return
        pivot = next((v for v in bit_list(free) if masks[v] & free), -1)
        if pivot == -1:
            if len(chosen) > len(best_edges):
                best_edges = chosen.copy()
            return
        for u in bit_list(masks[pivot] & free):
            chosen.append((pivot, u))
            search(free & ~(1 << pivot) & ~(1 << u))
            chosen.pop()
        search(free & ~(1 << pivot))

    search((1 << n) - 1)
    mate: list[int | None] = [None] * n
    for u, v in best_edges:
        mate[u] = v
        mate[v] = u
    return Matching(tuple(mate))
