"""Exact k-domination solvers and a tiny 3-CNF satisfiability checker.

A set D is k-dominating when every vertex outside D has at least k
neighbours inside D; gamma_k is the minimum size of such a set.

``gamma_k`` works on the graph's adjacency bitmasks from start to
finish: ``_components`` floods the components on the masks, and no
``Graph`` is built per component.  Every exact search is one decision,
``_solve_component(adj, k, cap)``: is there a k-dominating set of at most
``cap`` vertices?  It returns the first such set it reaches, as a mask,
or 0.  It propagates forced choices at each node, and prunes against the
fixed cap with three lower bounds.  First come needy vertices with
pairwise disjoint option pools, and the counting bound: one more vertex
meets at most (max degree + k) units of outstanding need, which gives
gamma_k >= kn / (max degree + k) at the root (Fink and Jacobson 1985).
Then the completion lookahead, which runs only where at most
t <= ``_LOOKAHEAD`` more picks fit under the cap: it prunes when no set
of at most t undecided vertices finishes every needy vertex
(``_picks_finish``), and when one does, the search returns the node's
set plus those picks.
Each node carries coverage levels, bit masks of the vertices with more
than j chosen neighbours for j below min(k, max degree + 1), so a node
visits only its still-needy vertices, not all n, and adding a vertex
costs one mask operation per level.
Deciding gamma_2 = gamma is NP-hard, so the search stays exponential in
the worst case and has no size guard; cycles of hundreds to thousands of
vertices, where both bounds meet the optimum, solve at the root within
tens of milliseconds.  The search is one loop over an explicit stack, so
its depth does not depend on the interpreter's recursion limit.
``gamma_k_bruteforce`` enumerates subsets by increasing size and is the
independent oracle used to validate it on small graphs.

The optima come from chains of decisions.  ``gamma_k`` lowers the cap:
the chain's first link is the greedy set less its redundant vertices
(``_drop_redundant``), and it asks for a set one smaller than the best so
far until the decision fails, so the last set found (or that first set)
is the witness and the failed decision proves it minimum.  Where
only the verdict gamma = gamma_2 is read (``is_gamma_gamma2_graph``, and
``perfect_oracle`` on each vertex subset), ``gamma_eq_gamma2_masks``
decides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .graph import Graph, bit_list, check_int, check_size, checked_vertices, component_mask

BRUTE_FORCE_VERTEX_LIMIT = 22
SAT_VARIABLE_LIMIT = 20
#: Picks left up to which a search node meets the completion lookahead.
#: At depth 5 the 3-SAT reductions searched fewer nodes but were no faster:
#: the test's own cost grows by a factor of the pool size per level.
_LOOKAHEAD = 4


@dataclass(frozen=True)
class DominationResult:
    """Optimum value plus one witness set attaining it."""

    k: int
    number: int
    witness: frozenset[int]


def is_k_dominating(g: Graph, s: Iterable[int], k: int) -> bool:
    """True iff every vertex outside ``s`` has >= k neighbours in ``s``."""
    check_int("k", k, 1)
    subset = sum(1 << v for v in checked_vertices(g, s))
    return _bit_is_k_dominating(g.adjacency_masks(), subset, k)


def _bit_is_k_dominating(masks: Sequence[int], subset: int, k: int) -> bool:
    for v in range(len(masks)):
        if subset >> v & 1:
            continue
        if (masks[v] & subset).bit_count() < k:
            return False
    return True


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------


def _greedy_cover_mask(adj: Sequence[int], k: int) -> int:
    """Greedy k-dominating set of a component, as a bitmask (upper bound).

    Each step takes the vertex that meets the most outstanding need (its
    needy neighbours plus its own need), ties to the lowest index.  The
    scores are updated around the chosen vertex only, so a step costs at
    most its second neighbourhood plus one ``max`` over the score list.
    Neighbourhoods are read off the masks only where a score changes.
    """
    n = len(adj)
    chosen = 0
    for v in range(n):
        if adj[v].bit_count() < k:
            chosen |= 1 << v  # can never be k-dominated from outside
    need = [
        0 if chosen >> v & 1 else max(0, k - (adj[v] & chosen).bit_count())
        for v in range(n)
    ]
    needy_mask = sum(1 << v for v in range(n) if need[v])
    # Chosen vertices score below every candidate and are only decremented.
    score = [
        -1 if chosen >> u & 1 else need[u] + (adj[u] & needy_mask).bit_count()
        for u in range(n)
    ]
    needy = needy_mask.bit_count()
    while needy:
        u = score.index(max(score))
        chosen |= 1 << u
        score[u] = -1
        nbrs = bit_list(adj[u])
        if need[u]:
            need[u] = 0
            needy -= 1
            for w in nbrs:
                score[w] -= 1
        for v in nbrs:
            if need[v]:
                need[v] -= 1
                score[v] -= 1
                if not need[v]:
                    needy -= 1
                    for w in bit_list(adj[v]):
                        score[w] -= 1
    return chosen


def _drop_redundant(adj: Sequence[int], k: int, chosen: int) -> int:
    """``chosen`` less its redundant vertices: a subset of it that still
    k-dominates and from which no single vertex can be removed.

    One pass over the chosen vertices in ascending order drops u when u
    keeps at least k neighbours in the rest of the set and so does every
    neighbour of u outside the set.  A drop only lowers counts and grows
    the outside, so it never makes an earlier vertex removable again.
    """
    for u in bit_list(chosen):
        rest = chosen & ~(1 << u)
        if (adj[u] & rest).bit_count() >= k and all(
            (adj[w] & rest).bit_count() >= k for w in bit_list(adj[u] & ~chosen)
        ):
            chosen = rest
    return chosen


def _raised(adj: Sequence[int], levels: list[int], added: int) -> list[int]:
    """A copy of the coverage ``levels`` with each vertex of ``added``
    counted as one more chosen neighbour of its neighbours."""
    levels = levels[:]
    top = len(levels)
    for u in bit_list(added):
        nbrs = adj[u]
        for j in range(top - 1, 0, -1):
            levels[j] |= levels[j - 1] & nbrs
        levels[0] |= nbrs
    return levels


def _solve_component(adj: Sequence[int], k: int, cap: int) -> int:
    """A k-dominating set of at most ``cap`` vertices of one component
    given bitmask adjacency, as a bitmask, or 0 when there is none.

    The search is a decision against the fixed ``cap``: every prune asks
    whether a node can still finish within it, and the first set it
    reaches is returned, at a leaf or at the first node where the
    completion lookahead finds picks that finish it (chosen plus those
    picks).  A component has at least one vertex, so a set is never 0.
    The search is deterministic: branch
    vertices and propagation order depend only on vertex indices.  Search
    nodes sit on one explicit stack as (chosen, excluded, levels), each
    whole when it is pushed: it has at most ``cap`` vertices, and
    ``levels`` is a bit-sliced count of chosen neighbours, ``levels[j]``
    holding the vertices with more than j of them, which ``_raised``
    brings up to date for the vertices a child adds at one mask operation
    per level.  No vertex has more chosen neighbours than the maximum
    degree, so there are min(k, max degree + 1) levels, and ``levels[-1]``
    holds the vertices that need nothing more.  Each node then visits only
    the still-needy vertices outside ``chosen | levels[-1]``, in ascending
    order, and gathers one row (pool size, bit, need, options) for each,
    and the branch vertex, in that one pass.

    A node that propagation leaves unfinished meets three lower bounds in
    turn: the disjoint option pools, packed from the sorted rows and
    counted one pick each, the counting bound, and the completion
    lookahead.  The last runs only where t = cap - size picks left is at
    most ``_LOOKAHEAD``: the pass ANDs the one-pick sets of the needy
    vertices, and when no single vertex finishes the node,
    ``_picks_finish`` looks for at most t that do, on the same rows.
    """
    n = len(adj)
    full = (1 << n) - 1
    degree = max(mask.bit_count() for mask in adj)
    # One more vertex u in D meets at most deg(u) + k units of need.
    reach = degree + k
    stack = [(0, 0, [0] * min(k, degree + 1))]
    while stack:
        chosen, excluded, levels = stack.pop()
        size = chosen.bit_count()
        # Unit propagation: a vertex short of options is forced, a vertex
        # with exactly as many undecided neighbours as it still needs
        # forces all of them.  A pass that forces something pushes the
        # grown node, if it fits under the cap, to be propagated next; the
        # pass that forces nothing leaves the rows of the needy vertices.
        undecided = full & ~chosen & ~excluded
        needy = full & ~chosen & ~levels[-1]
        forced = 0
        outstanding = 0
        slack = n  # exceeds every pool size minus need
        branch_options = 0
        # (pool size, bit, need, options): the options are v's undecided
        # neighbours, plus v itself unless excluded
        rows: list[tuple[int, int, int, int]] = []
        # The one-pick set of a needy v: its undecided neighbours if it
        # needs one more, plus v itself unless excluded.  Only near the
        # cap, where at most ``_LOOKAHEAD`` more picks fit under it, does
        # the pass AND these sets.
        picks = cap - size
        near = picks <= _LOOKAHEAD
        one = full
        rest = needy
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            nbrs = adj[v]
            need = k - (nbrs & chosen).bit_count()
            options = nbrs & undecided
            avail = options.bit_count()
            if excluded & bit:
                # Invariant: avail >= need.  A pass that forces nothing leaves
                # each excluded needy vertex avail >= need + 1, excluding the
                # pivot takes at most 1 off avail, and choosing a neighbour lowers both.
                if avail < need:
                    raise RuntimeError(f"excluded vertex {v} cannot be dominated")
                if avail == need:
                    forced |= options
            else:
                if avail < need:
                    forced |= bit  # cannot stay outside
                options |= bit
                avail += 1
            outstanding += need
            if avail - need < slack:
                slack, branch_options = avail - need, options
            rows.append((avail, bit, need, options))
            if near:
                one &= options if need == 1 else bit & ~excluded
        if forced:
            grown = chosen | forced
            if grown.bit_count() <= cap:
                stack.append((grown, excluded, _raised(adj, levels, forced)))
            continue
        if not needy:
            return chosen

        # Lower bound: needy vertices with pairwise disjoint option
        # pools, smallest pools first, require that many separate
        # picks.  An excluded vertex's pool may need more than one pick,
        # but counting it once is still sound, and a weaker bound only
        # lets the search into subtrees that the stronger one proved to
        # hold no set within the cap: it reaches the same first set.
        bound = 0
        used = 0
        for _, _, _, options in sorted(rows):
            if options & used:
                continue
            used |= options
            bound += 1
        if size + bound > cap:
            continue
        # Counting bound: kn / (max degree + k) at the root.
        if size - (-outstanding // reach) > cap:
            continue

        # Completion lookahead: the node is cut unless some set of at most
        # ``picks`` undecided vertices finishes it.  The bounds above have
        # cut every node with no picks left, so here picks >= 1 and
        # chosen | found has at most ``cap`` vertices.
        if near:
            found = one & -one or picks > 1 and _picks_finish(
                adj, rows, min(rows)[3], excluded, picks
            )
            if not found:
                continue
            return chosen | found

        # Branch on the most constrained vertex's most useful option.
        pivot, pivot_score = -1, -1
        for u in bit_list(branch_options):
            score = (adj[u] & needy).bit_count() + (needy >> u & 1)
            if score > pivot_score:
                pivot, pivot_score = u, score
        bit = 1 << pivot
        # Pushed last, the include child is searched first.  It fits under
        # the cap: a node branches only with more than ``_LOOKAHEAD`` picks
        # left.
        stack.append((chosen, excluded | bit, levels))
        stack.append((chosen | bit, excluded, _raised(adj, levels, bit)))
    return 0


def _picks_finish(
    adj: Sequence[int],
    rows: list[tuple[int, int, int, int]],
    pool: int,
    excluded: int,
    picks: int,
) -> int:
    """A set of at most ``picks`` (>= 2) undecided vertices that finishes
    every needy vertex, as a bitmask, or 0 when there is none.

    ``rows`` holds (pool size, bit, need, options) of each needy vertex,
    with the vertex itself among its options unless it is excluded.  Any
    finishing set has a member in ``pool``, the options of one needy
    vertex, so each member a is tried in turn, with the members tried
    before it excluded.  After a, a vertex w still needing one more is
    finished by any other option of w, one needing more only by picking w
    itself; with one pick left these one-pick sets must meet, otherwise
    the test recurses on the smallest pool that a leaves.  The set
    returned is the first a that works plus the lowest vertex of the meet,
    or plus the recursion's set.
    """
    last = picks == 2
    tried = 0
    for a in bit_list(pool):
        abit = 1 << a
        nbrs = adj[a]
        banned = excluded | tried
        keep = ~(tried | abit)
        one = -1  # the single picks that finish every vertex a leaves needy
        left = []
        for _, bit, need, options in rows:
            if bit == abit:
                continue
            if nbrs & bit:
                need -= 1
                if not need:
                    continue
            options &= keep
            one &= options if need == 1 else bit & ~banned
            if last:
                if not one:
                    break
            else:
                left.append((options.bit_count(), bit, need, options))
        else:
            if one:
                # -1: a left no vertex needy and finishes the node alone
                return abit if one < 0 else abit | one & -one
            if not last:
                rest = _picks_finish(adj, left, min(left)[3], banned, picks - 1)
                if rest:
                    return abit | rest
        tried |= abit
    return 0


def _components(
    adj: Sequence[int], within: int
) -> Iterator[tuple[Sequence[int], Sequence[int]]]:
    """Each component of the subgraph induced on the vertex mask ``within``.

    Yields (vertices, rows): the component's host vertices in ascending
    order and its bitmask adjacency relabelled to 0..|C|-1 in that order,
    the numbering ``induced_subgraph`` gives.  ``component_mask`` floods
    each component from the lowest vertex left.  A
    component that is the whole host comes as (range(n), adj): ``adj``
    itself, neither copied nor relabelled.
    """
    n = len(adj)
    full = (1 << n) - 1
    rest = within
    while rest:
        comp = component_mask(adj, rest)
        rest ^= comp
        if comp == full:
            yield range(n), adj
            return
        vertices = bit_list(comp)
        label = {1 << v: 1 << i for i, v in enumerate(vertices)}  # host bit
        sub = []
        for v in vertices:
            nbrs = adj[v] & comp
            row = 0
            while nbrs:
                low = nbrs & -nbrs
                row |= label[low]
                nbrs ^= low
            sub.append(row)
        yield vertices, sub


def gamma_eq_gamma2_masks(adj: Sequence[int], subsets: Iterable[int]) -> bool:
    """Whether gamma = gamma_2 on the subgraph induced on every vertex mask
    of ``subsets``; stops at the first one where they differ.

    Decided per component from ``_components`` by rising caps, with no
    greedy set: the k = 1 search capped at c, for c from the counting
    bound ceil(|C| / (max degree + 1)) up until one finds a dominating
    set, which makes c = gamma(C); then a search at k = 2 capped at
    gamma(C) asks only whether some 2-dominating set of gamma(C) vertices
    exists, and stops at the first it reaches.  gamma_2(C) >= gamma(C) on
    every component, so the numbers are equal iff every component has
    one.  ``subsets`` may be lazy: it is read only up to the first mask
    that fails.  One table of component verdicts, keyed by
    ``tuple(rows)`` and dropped on return, serves the whole call: a
    component whose rows recur, the same graph, is not decided again; a
    verdict is reused only for identical rows, never for a graph that is
    merely isomorphic.
    """
    decided: dict[tuple[int, ...], bool] = {}
    for within in subsets:
        for _, sub in _components(adj, within):
            key = tuple(sub)
            equal = decided.get(key)
            if equal is None:
                # From the counting bound up: the first cap that fits is gamma.
                gamma = -(-len(sub) // (max(map(int.bit_count, sub)) + 1))
                while not _solve_component(sub, 1, gamma):
                    gamma += 1
                equal = decided[key] = bool(_solve_component(sub, 2, gamma))
            if not equal:
                return False
    return True


def gamma_k(g: Graph, k: int) -> DominationResult:
    """Exact k-domination number with a deterministic witness.

    Each component from ``_components`` is solved on its own by a falling
    chain of decisions: from the greedy set less its redundant vertices,
    the search capped one below the best set so far runs until it finds
    none.  The last set found, or that first set when the first decision
    fails, is the witness, mapped back to ``g``'s labels through the
    component's vertices, and the failed decision is the proof that it is
    minimum.  The empty graph has gamma_k = 0.
    """
    check_int("k", k, 1)
    number = 0
    witness: list[int] = []
    for vertices, sub in _components(g.adjacency_masks(), (1 << g.n) - 1):
        best = _drop_redundant(sub, k, _greedy_cover_mask(sub, k))
        while found := _solve_component(sub, k, best.bit_count() - 1):
            best = found
        number += best.bit_count()
        witness += [vertices[i] for i in bit_list(best)]
    return DominationResult(k, number, frozenset(witness))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _min_k_dominating(g: Graph, k: int, what: str) -> Iterator[frozenset[int]]:
    """The minimum k-dominating sets of ``g`` in lexicographic order.

    Scans subset sizes from zero and stops after the first size that has
    one, so the stream is never empty: the full vertex set k-dominates.
    ``what`` names the caller in the size-guard error.
    """
    check_int("k", k, 1)
    check_size(what, g.n, BRUTE_FORCE_VERTEX_LIMIT)
    masks = g.adjacency_masks()
    bits = [1 << v for v in range(g.n)]
    for size in range(g.n + 1):
        found = False
        for subset in map(sum, combinations(bits, size)):
            if _bit_is_k_dominating(masks, subset, k):
                found = True
                yield frozenset(bit_list(subset))
        if found:
            return


def gamma_k_bruteforce(g: Graph, k: int) -> DominationResult:
    """Subset enumeration by increasing size; the validation oracle."""
    witness = next(_min_k_dominating(g, k, "gamma_k_bruteforce"))
    return DominationResult(k, len(witness), witness)


def enumerate_min_k_dominating(g: Graph, k: int) -> list[frozenset[int]]:
    """All minimum k-dominating sets, in lexicographic order.

    Self-contained: rescans subset sizes from zero rather than trusting
    the branch-and-bound optimum.
    """
    return list(_min_k_dominating(g, k, "enumerate_min_k_dominating"))


def gamma_and_gamma2(g: Graph) -> tuple[int, int]:
    """(gamma(g), gamma_2(g)), size-guarded before either is solved."""
    check_size("is_gamma_gamma2_graph", g.n, BRUTE_FORCE_VERTEX_LIMIT)
    return gamma_k(g, 1).number, gamma_k(g, 2).number


def is_gamma_gamma2_graph(g: Graph) -> bool:
    """Whether gamma(g) == gamma_2(g) (small graphs only).

    Guarded like ``gamma_and_gamma2``, then decided by
    ``gamma_eq_gamma2_masks``.  It rests on the same search as
    ``gamma_k``, so it is no referee for it; the independent routes are
    ``gamma_k_bruteforce`` and ``enumerate_min_k_dominating``.
    """
    check_size("is_gamma_gamma2_graph", g.n, BRUTE_FORCE_VERTEX_LIMIT)
    return gamma_eq_gamma2_masks(g.adjacency_masks(), [(1 << g.n) - 1])


# ---------------------------------------------------------------------------
# 3-CNF formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CnfFormula:
    """A 3-CNF formula in DIMACS literal convention.

    Literals are non-zero ints: +i / -i for variable i (1-based).  Every
    clause must have exactly three literals over three distinct variables.
    ``num_vars`` and each literal must be an int (never a bool or float).
    """

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        check_int("variable count", self.num_vars, 0)
        for idx, clause in enumerate(self.clauses):
            if len(clause) != 3:
                raise ValueError(f"clause #{idx} has {len(clause)} literals")
            for lit in clause:
                if type(lit) is not int:
                    raise ValueError(
                        f"clause #{idx} has literal {lit!r}, not an int"
                    )
            variables = {abs(lit) for lit in clause}
            if 0 in variables:
                raise ValueError(f"clause #{idx} contains literal 0")
            if len(variables) != 3:
                raise ValueError(
                    f"clause #{idx} repeats a variable: {clause}"
                )
            for lit in clause:
                if abs(lit) > self.num_vars:
                    raise ValueError(
                        f"clause #{idx} uses variable {abs(lit)} "
                        f"but only {self.num_vars} are declared"
                    )


def cnf_satisfiable(f: CnfFormula) -> Optional[tuple[bool, ...]]:
    """Exhaustive SAT check; returns a satisfying assignment or None.

    The assignment is indexed by variable - 1.  Guarded to at most
    ``SAT_VARIABLE_LIMIT`` variables.
    """
    check_size("cnf_satisfiable", f.num_vars, SAT_VARIABLE_LIMIT, "variables")
    pos = []
    neg = []
    for clause in f.clauses:
        p = q = 0
        for lit in clause:
            if lit > 0:
                p |= 1 << (lit - 1)
            else:
                q |= 1 << (-lit - 1)
        pos.append(p)
        neg.append(q)
    full = (1 << f.num_vars) - 1
    for assignment in range(1 << f.num_vars):
        flipped = full ^ assignment
        if all(
            assignment & p or flipped & q for p, q in zip(pos, neg)
        ):
            return tuple(bool(assignment >> i & 1) for i in range(f.num_vars))
    return None


def triple_cover_holds(f: CnfFormula) -> bool:
    """True iff every three variables are all avoided by some clause."""
    clause_vars = [frozenset(abs(lit) for lit in clause) for clause in f.clauses]
    return all(
        any(not (triple & cv) for cv in clause_vars)
        for triple in (
            frozenset(t) for t in combinations(range(1, f.num_vars + 1), 3)
        )
    )
