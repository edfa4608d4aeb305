"""Recognition algorithms.

Two independent questions are answered here.

First, for an annotated instance (a double subdivision with supplementary
edges whose underlying graph has girth >= 5), ``recognize_h`` decides in
polynomial time whether the domination number equals the 2-domination
number.  The test is purely local: a bridging supplementary edge whose
endpoints share no D-neighbour is one obstruction; the other is a ring of
subdivision pairs around a single D-vertex, found through a perfect
matching in a small auxiliary graph per D-vertex.  Every negative verdict
carries a replayable witness.

Second, ``recognize_perfect`` decides structurally whether every induced
subgraph of minimum degree two keeps the two numbers equal; the positive
graphs are exactly the disjoint unions of doubled-subdivided stars.
``forbidden_subgraph_check`` and ``perfect_oracle`` are the two
independent routes used to cross-validate it.  The first runs one search
bounded at eight vertices for a cycle of length 3, 5, 6 or 7 or a path
on eight vertices; on minimum degree two these are all the obstructions,
since a double-pendant edge then implies one of them.  The oracle hands
every subset of minimum degree two, as a vertex mask, to one call of the
solver's decision ``gamma_eq_gamma2_masks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .constructions import PartitionedInstance
from .graph import (
    Graph,
    check_size,
    checked_vertices,
    components,
    from_edges,
    induced_subgraph,
    power,
    short_cycle,
)
from .matching import maximum_matching
from .solvers import gamma_eq_gamma2_masks

FORBIDDEN_CHECK_VERTEX_LIMIT = 14
PERFECT_ORACLE_VERTEX_LIMIT = 13


# ---------------------------------------------------------------------------
# Instance validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HValidationReport:
    """Outcome of :func:`validate_h`: ``failures`` lists every violated
    rule, and ``valid`` is True iff there is none."""

    failures: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.failures


class InvalidHInstanceError(ValueError):
    """Raised when recognition is asked about a malformed instance."""

    def __init__(self, report: HValidationReport):
        self.report = report
        super().__init__(
            "not a valid subdivision instance with underlying girth >= 5: "
            + "; ".join(report.failures)
        )


def validate_h(inst: PartitionedInstance) -> HValidationReport:
    """Check every structural rule of the recognizable instance family.

    The specified set must be independent, every non-D vertex must be the
    subdivision vertex of exactly one pair, each pair vertex must see
    exactly its two F-endpoints inside D, pairs must stay independent and
    the underlying graph must contain no triangle and no 4-cycle.
    """
    g, d = inst.g, inst.d
    failures: list[str] = []

    try:
        checked_vertices(g, d)
    except ValueError as exc:  # "vertex v outside 0..n-1"
        return HValidationReport((f"D-{exc}",))

    for u in sorted(d):
        for w in g.neighbors(u):
            if w in d and u < w:
                failures.append(f"D is not independent: edge ({u}, {w})")

    seen: set[int] = set()
    d_pairs: list[tuple[int, int]] = []
    for key, pair in inst.pair_map.items():
        a, b = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
        if not (type(a) is type(b) is int and a in d and b in d and a < b):
            failures.append(
                f"pair key {key} is not an ordered pair of D-vertices"
            )
            continue
        d_pairs.append(key)
        if not (isinstance(pair, tuple) and len(pair) == 2):
            failures.append(f"pair {key} maps to {pair}, which is not two vertices")
            continue
        x1, x2 = pair
        if x1 == x2:
            failures.append(f"pair {key} lists the same vertex twice")
            continue
        pair_ok = True
        for x in (x1, x2):
            if type(x) is not int or not 0 <= x < g.n or x in d:
                failures.append(
                    f"pair {key} names {x}, which is not a non-D vertex"
                )
                pair_ok = False
                continue
            if x in seen:
                failures.append(f"vertex {x} belongs to two pairs")
            seen.add(x)
            d_nbrs = set(g.neighbors(x)) & d
            if d_nbrs != set(key):
                failures.append(
                    f"pair vertex {x} of {key} has D-neighbourhood "
                    f"{sorted(d_nbrs)}, expected {sorted(key)}"
                )
        if pair_ok and g.has_edge(x1, x2):
            failures.append(
                f"supplementary edge inside pair {key}: ({x1}, {x2})"
            )

    uncovered = sorted(set(range(g.n)) - d - seen)
    for v in uncovered:
        failures.append(
            f"vertex {v} is outside D but not a subdivision vertex of any pair"
        )

    # the girth rule reads only the keys that are ordered pairs of
    # D-vertices, so no other broken rule hides it
    order = sorted(d)
    position = {v: i for i, v in enumerate(order)}
    underlying = from_edges(
        len(order), [(position[a], position[b]) for a, b in d_pairs]
    )
    girth = short_cycle(underlying)
    if girth == 3:
        failures.append("underlying graph contains a triangle")
    elif girth == 4:
        failures.append("underlying graph contains a 4-cycle")

    return HValidationReport(tuple(failures))


def extract_underlying(g: Graph, d: frozenset[int]) -> Graph:
    """Underlying graph recovered as the square of ``g`` induced on ``d``.

    Vertices are relabelled 0..|d|-1 in sorted order of ``d``.
    """
    sub, _ = induced_subgraph(power(g, 2), d)
    return sub


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

#: An obstruction as data: its D-vertices, its non-D vertices, and the
#: edges it needs in the host graph.
Pattern = tuple[list[int], list[int], list[tuple[int, int]]]


@dataclass(frozen=True)
class BWitness:
    """Bridge obstruction: two subdivision pairs over disjoint D-edges,
    joined by the supplementary edge ``x1[0] -- x2[0]``."""

    v1: int
    u1: int
    x1: tuple[int, int]
    v2: int
    u2: int
    x2: tuple[int, int]

    def pattern(self) -> Pattern:
        """D: the ends of both D-edges.  Not D: both pairs.  Edges: each
        pair vertex to both ends of its D-edge, and the bridge
        x1[0] -- x2[0].  A pair of other than two vertices raises."""
        (bridge1, _), (bridge2, _) = self.x1, self.x2
        sides = ((self.v1, self.u1, self.x1), (self.v2, self.u2, self.x2))
        edges = [(a, x) for v, u, pair in sides for x in pair for a in (v, u)]
        edges.append((bridge1, bridge2))
        return [self.v1, self.u1, self.v2, self.u2], [*self.x1, *self.x2], edges

    def certificate(self) -> str:
        """The ``certificate:`` line that ``gamma2 recognize h`` prints."""
        return (
            "certificate: bridge "
            f"v1={self.v1} u1={self.u1} x1=({self.x1[0]},{self.x1[1]}) "
            f"v2={self.v2} u2={self.u2} x2=({self.x2[0]},{self.x2[1]})"
        )


@dataclass(frozen=True)
class AWitness:
    """Ring obstruction around ``center``: spoke r is (w_r, x_r1, x_r2)
    and the supplementary edges x_r1 -- x_{r+1}2 close a cycle."""

    center: int
    spokes: tuple[tuple[int, int, int], ...]

    def pattern(self) -> Pattern:
        """D: the centre and the spoke ends.  Not D: the spoke pairs.
        Edges: each pair vertex to the centre and to its spoke end, and
        the ring x_{r-1}1 -- x_r2 (spoke -1 is the last)."""
        c = self.center
        ends, pairs, edges = [c], [], []
        for r, (w, x1, x2) in enumerate(self.spokes):
            ends.append(w)
            pairs += [x1, x2]
            edges += [(c, x1), (w, x1), (c, x2), (w, x2),
                      (self.spokes[r - 1][1], x2)]
        return ends, pairs, edges

    def certificate(self) -> str:
        """The ``certificate:`` line that ``gamma2 recognize h`` prints."""
        spokes = " ".join(f"({w},{x1},{x2})" for w, x1, x2 in self.spokes)
        return f"certificate: ring center={self.center} spokes={spokes}"


Witness = Union[AWitness, BWitness]


def check_witness(g: Graph, d: frozenset[int], witness: Witness) -> bool:
    """Replay the pattern a witness states: distinct int vertices of
    ``g``, at least three of them in D (a bridge has four, a ring its
    centre and two or more spoke ends), every vertex on its stated side of
    D, and every required edge in ``g``.  A malformed witness is False,
    a field of the wrong arity or type included."""
    try:
        in_d, out_d, edges = witness.pattern()
    except (IndexError, TypeError, ValueError):
        return False
    vs = in_d + out_d
    return (
        all(type(v) is int and 0 <= v < g.n for v in vs)
        and len(set(vs)) == len(vs)
        and len(in_d) >= 3
        and all(v in d for v in in_d)
        and not any(v in d for v in out_d)
        and all(g.has_edge(a, b) for a, b in edges)
    )


# ---------------------------------------------------------------------------
# Equality recognition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecognitionVerdict:
    """``equal`` is the gamma == gamma_2 verdict; a False verdict always
    carries a witness.  ``matching_calls`` counts the auxiliary maximum
    matching invocations (at most two per underlying edge)."""

    equal: bool
    witness: Optional[Witness] = None
    matching_calls: int = 0


def recognize_h(inst: PartitionedInstance) -> RecognitionVerdict:
    """Decide gamma == gamma_2 for a subdivision instance whose
    underlying graph has girth >= 5.

    Cost: quadratic at high-degree centres, not near-linear.  The bridge
    scan is one pass over the edges.  Each D-vertex's local
    ``Graph``, with every pair edge in it, is built once from the rows
    of its own neighbours; per incident pair, ``Graph.without_edge``
    drops that pair's edge, sharing the other rows, and one maximum
    matching runs over the whole local graph (one greedy pass and at
    most one augmenting search).  A centre with s incident pairs thus
    costs s matchings on 2s vertices, and validation's girth test visits
    all ~s^2 / 2 wedges at it (ROADMAP.md times this on hub instances).
    Raises :class:`InvalidHInstanceError` on malformed input.
    """
    report = validate_h(inst)
    if not report.valid:
        raise InvalidHInstanceError(report)
    g, d = inst.g, inst.d

    pair_of: dict[int, tuple[int, int]] = {}
    partner: dict[int, int] = {}
    for key, (x1, x2) in inst.pair_map.items():
        pair_of[x1] = key
        pair_of[x2] = key
        partner[x1] = x2
        partner[x2] = x1

    # Bridge scan: a supplementary edge whose endpoints have disjoint
    # D-neighbourhoods spans two independent underlying edges.  After
    # validation a pair vertex's D-neighbourhood is its pair key.
    for u, v in g.edges():
        if u in d or v in d:
            continue
        a1, b1 = pair_of[u]
        a2, b2 = pair_of[v]
        if a1 in (a2, b2) or b1 in (a2, b2):
            continue
        witness = BWitness(
            v1=a1, u1=b1, x1=(u, partner[u]),
            v2=a2, u2=b2, x2=(v, partner[v]),
        )
        return RecognitionVerdict(False, witness)

    # Ring scan: around each D-vertex the pair edges form a perfect
    # matching M0 of its neighbourhood.  A ring through one pair is an
    # M0-alternating cycle through that pair's edge, so drop the edge from
    # the local graph: it keeps a perfect matching iff the ring exists,
    # and the matching traces it.
    matching_calls = 0
    for center in sorted(d):
        # after validation the centre's neighbours are exactly the
        # vertices of its incident pairs
        keys = sorted({pair_of[x] for x in g.neighbors(center)})
        if len(keys) < 2:
            continue
        # Local vertices 2s and 2s + 1 are the pair keys[s], so i ^ 1 is
        # the partner of i; the local graph holds every pair edge, and each
        # removed pair shares all rows but its own two.
        local = [x for key in keys for x in inst.pair_map[key]]
        index = {v: i for i, v in enumerate(local)}
        whole = Graph(len(local), [
            [index[u] for u in g.neighbors(v) if u in index] + [i ^ 1]
            for i, v in enumerate(local)
        ])
        for t in range(len(keys)):
            # Without pair t's edge, the greedy start in maximum_matching
            # reaches each intact pair (both vertices free) at its lower
            # vertex and matches it to its partner, its lowest free
            # neighbour; so every pair before t matches itself.  A
            # "broken" vertex (in pair t, or with its partner matched
            # elsewhere) is either left exposed or matched into another
            # pair, which breaks at most that pair's other vertex.  Only
            # pair t starts broken, so at most two vertices stay exposed:
            # one greedy pass plus at most one augmenting search.
            matching_calls += 1
            m = maximum_matching(whole.without_edge(2 * t, 2 * t + 1))
            if m.size == len(keys):
                witness = _trace_ring(center, keys, t, local, m.mate)
                return RecognitionVerdict(False, witness, matching_calls)

    return RecognitionVerdict(True, None, matching_calls)


def _trace_ring(
    center: int,
    keys: list[tuple[int, int]],
    t: int,
    local: list[int],
    mate: tuple[int | None, ...],
) -> AWitness:
    """Turn a perfect matching of the local graph of ``center`` without
    the edge of pair ``keys[t]`` into a ring.

    Local vertex i lies in pair ``keys[i // 2]`` with partner ``i ^ 1``.
    Both vertices of the broken pair are matched across supplementary
    edges; following exit -> matched entry -> pair partner hops from pair
    to pair until the walk closes back at the broken pair.  Spoke r holds
    (w_r, x_r1, x_r2) with the matching edges realising x_r1 -- x_{r+1}2.
    """

    def spoke(exit_: int) -> tuple[int, int, int]:
        a, b = keys[exit_ // 2]
        return (b if a == center else a, local[exit_], local[exit_ ^ 1])

    exit_ = 2 * t
    spokes = [spoke(exit_)]
    while True:
        entry = mate[exit_]
        if entry is None:
            raise RuntimeError(
                f"perfect matching leaves vertex {local[exit_]} unmatched"
            )
        if entry // 2 == t:
            if entry != 2 * t + 1:
                raise RuntimeError(
                    f"ring around {center} closes at {local[entry]}, "
                    f"not at the broken pair's {local[2 * t + 1]}"
                )
            break
        exit_ = entry ^ 1
        spokes.append(spoke(exit_))
    return AWitness(center=center, spokes=tuple(spokes))


# ---------------------------------------------------------------------------
# Hereditary recognition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerfectVerdict:
    """A False verdict always names a failing component and the reason."""

    perfect: bool
    failing_component: Optional[tuple[int, ...]] = None
    reason: Optional[str] = None


def recognize_perfect(g: Graph) -> PerfectVerdict:
    """Structural recognizer for hereditary domination equality.

    Accepts exactly the disjoint unions of doubled-subdivided stars.  Each
    component is decided in place from its lowest-numbered vertex of
    maximum degree: every other vertex must be a degree-2 subdivision
    vertex of it or a leaf seeing >= 2 of them.  With two or more leaves
    the centre is the only vertex of maximum degree; with one the star is
    the symmetric K_{2,m}.  Requires minimum degree >= 2.  Linear in the
    graph's size, up to sorting each component's vertex list.
    """
    _check_min_degree_two("recognize_perfect", g)
    for comp in components(g):
        if not _is_center(g, max(comp, key=g.degree)):
            return PerfectVerdict(
                False,
                failing_component=tuple(comp),
                reason="component is not a doubled-subdivided star",
            )
    return PerfectVerdict(True)


def _check_min_degree_two(what: str, g: Graph) -> None:
    """The one domain of the two structural routes: minimum degree >= 2."""
    for v in range(g.n):
        if g.degree(v) < 2:
            raise ValueError(
                f"{what} needs minimum degree >= 2; "
                f"vertex {v} has degree {g.degree(v)}"
            )


def _is_center(g: Graph, center: int) -> bool:
    """True iff ``center``'s component is a doubled-subdivided star
    centred there."""
    spokes = set(g.neighbors(center))
    leaf_of: dict[int, int] = {}
    for x in spokes:
        if g.degree(x) != 2:
            return False
        others = [u for u in g.neighbors(x) if u != center]
        leaf = others[0]
        if leaf in spokes:
            return False  # edge inside the neighbourhood
        leaf_of[x] = leaf
    leaves = set(leaf_of.values())
    # Every spoke already sees its leaf, so a leaf passes iff each of its
    # neighbours (>= 2 of them by the minimum degree) is a spoke leading
    # to it: linear in the component.  Centre, spokes and leaves are
    # disjoint, and once every leaf passes no vertex of them has a
    # neighbour outside them, so they are the whole component.
    return all(
        leaf_of.get(x) == leaf for leaf in leaves for x in g.neighbors(leaf)
    )


def forbidden_subgraph_check(g: Graph) -> bool:
    """Second route to hereditary equality, via forbidden subgraphs.

    True iff ``g`` contains no cycle of length other than four and no
    path on eight vertices, both as not necessarily induced subgraphs.
    Every forbidden pattern is connected, so the whole graph contains one
    iff some component does: a disjoint union passes iff each component
    does, and the empty graph passes vacuously.  Needs minimum degree
    >= 2, like ``recognize_perfect``, and at most
    ``FORBIDDEN_CHECK_VERTEX_LIMIT`` vertices.

    The double-pendant edge T6 (an edge ab with two private neighbours at
    each end) needs no test of its own on this domain.  With no cycle of
    length 3, 5, 6 or 7 and no P8, every cycle is a 4-cycle (a longer
    one contains a P8), so every block is an edge or a K_{2,m}.  Given a
    T6 on ab, each side holds a path of at least four vertices that ends
    at a (or at b) and avoids the other side: if ab is a bridge, the
    minimum degree puts a cycle on each side; if ab lies in a K_{2,m},
    the path runs through the block's other vertices or a cut vertex's
    outside branch.  The two paths and ab form a P8.
    """
    check_size("forbidden_subgraph_check", g.n, FORBIDDEN_CHECK_VERTEX_LIMIT)
    _check_min_degree_two("forbidden_subgraph_check", g)
    return not _has_long_path_or_cycle(g)


def _has_long_path_or_cycle(g: Graph) -> bool:
    # A path on eight vertices or a cycle of length 3, 5, 6 or 7.  A
    # longer cycle contains a path on eight vertices, so this finds every
    # cycle other than a 4-cycle while no search goes deeper than eight
    # vertices.
    on_path: set[int] = set()

    def dfs(v: int, start: int) -> bool:
        if len(on_path) == 8:
            return True
        for u in g.neighbors(v):
            if u == start and len(on_path) in (3, 5, 6, 7):
                return True
            if u not in on_path:
                on_path.add(u)
                if dfs(u, start):
                    return True
                on_path.remove(u)
        return False

    for start in range(g.n):
        on_path = {start}
        if dfs(start, start):
            return True
    return False


def perfect_oracle(g: Graph) -> bool:
    """Definitional oracle: every induced subgraph of minimum degree >= 2
    has equal domination and 2-domination numbers.  At most
    ``PERFECT_ORACLE_VERTEX_LIMIT`` vertices.

    A lazy generator yields the subsets of minimum degree >= 2 as vertex
    masks on the host, with no induced ``Graph`` per subset, and one
    ``gamma_eq_gamma2_masks`` call decides them all, so the walk stops at
    the first failing subset.  Each subset is probed once, vertex by
    vertex; a subset of one or two vertices fails at its lowest vertex,
    which has at most one neighbour inside it.
    """
    check_size("perfect_oracle", g.n, PERFECT_ORACLE_VERTEX_LIMIT)
    masks = g.adjacency_masks()

    def min_degree_two() -> Iterator[int]:
        for subset in range(1, 1 << g.n):
            probe = subset
            while probe:
                v = (probe & -probe).bit_length() - 1
                probe &= probe - 1
                if (masks[v] & subset).bit_count() < 2:
                    break
            else:
                yield subset

    return gamma_eq_gamma2_masks(masks, min_degree_two())
