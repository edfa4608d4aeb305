"""Simple undirected graphs on contiguous integer vertices.

Vertices are always 0..n-1.  Adjacency is stored as one sorted tuple of
neighbours per vertex; ``Graph`` objects are immutable after construction
and safe to share between threads.  All other modules build on this one.
The exact routes read a graph as neighbourhood bitmasks, one int per
vertex (``Graph.adjacency_masks``); ``component_mask`` is the one flood
fill on them.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional, Sequence

class Graph:
    """Immutable simple graph.

    Do not call the constructor with untrusted data; it assumes the
    adjacency is already symmetric and loop-free.  Use :func:`from_edges`
    to build a graph from an edge list with full validation.
    """

    __slots__ = ("n", "_adj", "_m", "_masks")

    def __init__(self, n: int, adjacency: Iterable[Iterable[int]]):
        adj = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows, expected {n}")
        self.n = n
        self._adj = adj
        self._m = sum(len(row) for row in adj) // 2
        self._masks: Optional[tuple[int, ...]] = None

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """False unless u and v are both vertices (ints in 0..n-1, never a
        bool or float) and adjacent."""
        if not (type(u) is type(v) is int and 0 <= u < self.n and 0 <= v < self.n):
            return False
        # adjacency rows are short; linear scan beats bisect in practice
        return v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def edge_list(self) -> list[tuple[int, int]]:
        return list(self.edges())

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("minimum degree of the empty graph is undefined")
        return min(len(row) for row in self._adj)

    def max_degree(self) -> int:
        if self.n == 0:
            raise ValueError("maximum degree of the empty graph is undefined")
        return max(len(row) for row in self._adj)

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbourhoods as bitmasks, one int per vertex, built once."""
        if self._masks is None:
            # a list comprehension builds faster than tuple(genexpr)
            self._masks = tuple([sum(1 << u for u in row) for row in self._adj])
        return self._masks

    def without_edge(self, u: int, v: int) -> Graph:
        """This graph minus the edge (u, v).  Every other row is shared
        with this graph and only rows u and v are rebuilt, so the cost is
        O(n + deg u + deg v); the masks are built afresh when asked for."""
        checked_vertices(self, (u, v))
        if v not in self._adj[u]:
            raise ValueError(f"({u}, {v}) is not an edge")
        adj = list(self._adj)
        i, j = adj[u].index(v), adj[v].index(u)
        adj[u] = adj[u][:i] + adj[u][i + 1:]
        adj[v] = adj[v][:j] + adj[v][j + 1:]
        g = Graph.__new__(Graph)
        g.n, g._adj, g._m, g._masks = self.n, tuple(adj), self._m - 1, None
        return g

    # -- dunder plumbing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def check_int(what: str, value: int, minimum: int) -> None:
    """The one rule of every count and order (a vertex count, the k of
    k-domination): an int >= ``minimum``, so never 2.0, 1.5 or True."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{what} must be an int >= {minimum}, got {value!r}")


def check_size(what: str, count: int, limit: int, unit: str = "vertices") -> None:
    """The one size rule of the exhaustive routes: ``what`` takes at most
    ``limit`` of ``unit`` and was given ``count``."""
    if count > limit:
        raise ValueError(f"{what} accepts at most {limit} {unit}, got {count}")


def checked_vertices(g: Graph, s: Iterable[int]) -> set[int]:
    """``s`` as a set, each member an int in 0..n-1 of ``g`` (never a
    bool: True is not vertex 1)."""
    ss = set(s)
    for v in ss:
        if type(v) is not int or not 0 <= v < g.n:
            raise ValueError(f"vertex {v!r} outside 0..{g.n - 1}")
    return ss


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list.

    Duplicate edges (in either orientation) are collapsed.  Self-loops and
    non-vertex endpoints (not an int in 0..n-1: True is not vertex 1) are
    rejected; the error message reports the position of the offending pair.
    """
    check_int("vertex count", n, 0)
    adj: list[set[int]] = [set() for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):
            raise ValueError(
                f"edge #{idx} ({u!r}, {v!r}) has an endpoint outside 0..{n - 1}"
            )
        if u == v:
            raise ValueError(f"edge #{idx} ({u}, {v}) is a self-loop")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, adj)


def from_masks(masks: tuple[int, ...]) -> Graph:
    """The graph whose neighbourhood bitmasks are ``masks``; it keeps that
    very tuple as its ``adjacency_masks()``, so they are never rebuilt.
    Trusted like the constructor: bit v of ``masks[u]`` must equal bit u
    of ``masks[v]``, and no mask may hold its own vertex."""
    rows = []
    for mask in masks:
        row = []
        while mask:
            low = mask & -mask
            row.append(low.bit_length() - 1)
            mask ^= low
        rows.append(tuple(row))
    g = Graph.__new__(Graph)
    g.n, g._adj, g._masks = len(masks), tuple(rows), masks
    g._m = sum(map(len, rows)) // 2
    return g


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph on ``s``, relabelled to 0..|s|-1.

    Returns the subgraph together with the mapping from new labels back to
    the original vertices (``mapping[new] == old``), in sorted order.
    """
    mapping = sorted(checked_vertices(g, s))
    position = {old: new for new, old in enumerate(mapping)}
    adj = [
        [position[u] for u in g.neighbors(old) if u in position]
        for old in mapping
    ]
    return Graph(len(mapping), adj), mapping


def power(g: Graph, k: int) -> Graph:
    """k-th graph power: join vertices at distance 1..k (BFS per vertex)."""
    check_int("k", k, 1)
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for source in range(g.n):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            if dist[v] == k:
                continue
            for u in g.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        adj[source] = set(dist) - {source}
    return Graph(g.n, adj)


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by minimum."""
    seen = [False] * g.n
    out: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    queue.append(u)
        out.append(sorted(comp))
    return out


def is_connected(g: Graph) -> bool:
    """True iff ``g`` has exactly one component, so the empty graph is not
    connected."""
    return len(components(g)) == 1


def component_mask(adj: Sequence[int], within: int) -> int:
    """The component of the lowest vertex of the mask ``within`` in the
    subgraph that ``within`` induces, as a mask (0 when ``within`` is).
    ``adj`` holds neighbourhood bitmasks; the component is flooded one
    layer of neighbours at a time."""
    comp = frontier = within & -within
    while frontier:
        reach = 0  # neighbours of the last layer, one bit at a time
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & within & ~comp
        comp |= frontier
    return comp


def masks_connected(adj: Sequence[int]) -> bool:
    """``is_connected`` on neighbourhood bitmasks: one flood from vertex
    0 reaches every vertex, and the empty graph is not connected."""
    full = (1 << len(adj)) - 1
    return bool(adj) and component_mask(adj, full) == full


def short_cycle(g: Graph) -> Optional[int]:
    """3 if ``g`` has a triangle, else 4 if it has a 4-cycle, else None.

    A triangle is an edge whose ends share a neighbour.  Failing that,
    the wedges u-w-x around every middle vertex w are marked, and an end
    pair u, x seen from two middles closes a 4-cycle.  O(sum of squared
    degrees).
    """
    nbrs = [set(row) for row in g._adj]
    if any(nbrs[u] & nbrs[v] for u, v in g.edges()):
        return 3
    seen: set[int] = set()
    for row in g._adj:
        for i, u in enumerate(row):
            for x in row[i + 1:]:
                wedge = u * g.n + x
                if wedge in seen:
                    return 4
                seen.add(wedge)
    return None


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    """True iff no edge of ``g`` joins two vertices of ``s``."""
    ss = checked_vertices(g, s)
    return all(u not in ss for v in ss for u in g.neighbors(v))
