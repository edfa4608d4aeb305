"""Self-check driver: every cross-validation suite behind one entry point.

Each check pits an implementation against an independent route (exact
solver vs subset enumeration, structural recognizer vs definitional
oracle, and so on) over seeded random instances plus fixed fixtures.
``run_verify`` is deterministic for a fixed seed: every check draws from
its own RNG keyed by (seed, check name), so filtering by scope never
shifts the streams.  A body yields ``(ok, instance)`` for each instance it
checked; only the first failing instance of a check is rendered as text.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Callable, Iterator, Optional, Sequence, TypeVar, Union

from . import constructions, formats
from .constructions import (
    ConstructionSpec,
    PartitionedInstance,
    _random_supp_edges,
    all_four_vertex_graphs,
    build,
    cycle,
    double_subdivision,
    gadget_a,
    gadget_b,
    gadget_s,
    join_c4,
    path,
    petersen,
    random_graph,
    random_h_instance,
    random_masks,
    reduce_3sat,
    star,
)
from .graph import (
    Graph,
    check_int,
    from_edges,
    from_masks,
    is_independent,
    masks_connected,
)
from .matching import (
    BRUTE_FORCE_EDGE_LIMIT,
    brute_force_maximum_matching,
    maximum_matching,
)
from .recognition import (
    check_witness,
    extract_underlying,
    forbidden_subgraph_check,
    perfect_oracle,
    recognize_h,
    recognize_perfect,
)
from .solvers import (
    BRUTE_FORCE_VERTEX_LIMIT,
    CnfFormula,
    cnf_satisfiable,
    enumerate_min_k_dominating,
    gamma_eq_gamma2_masks,
    gamma_k,
    is_gamma_gamma2_graph,
    is_k_dominating,
)

T = TypeVar("T")
#: What a check body yields beside each verdict: the object it checked.
Instance = Union[Graph, PartitionedInstance, CnfFormula]


@dataclass(frozen=True)
class CheckResult:
    name: str
    instances: int
    passed: int
    counterexample: Optional[str]
    seconds: float

    @property
    def ok(self) -> bool:
        return self.passed == self.instances


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.ok else "FAIL"
            lines.append(
                f"{c.name:40s} {c.passed}/{c.instances} {status}"
                f"  ({c.seconds:.2f}s)"
            )
            if c.counterexample:
                lines.append(f"  counterexample:\n{c.counterexample}")
        if not any(c.instances for c in self.checks):
            lines.append("verify: no instance was checked")
        else:
            lines.append("verify: " + ("all checks passed" if self.ok else "FAILED"))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "ok": self.ok,
                "checks": [
                    {**asdict(c), "seconds": round(c.seconds, 3)}
                    for c in self.checks
                ],
            },
            indent=2,
        ) + "\n"


# ---------------------------------------------------------------------------
# Samplers (shared with the test suite)
# ---------------------------------------------------------------------------


def _draw(
    rng: random.Random,
    sizes: tuple[int, int],
    densities: Sequence[float],
    accept: Callable[[tuple[int, ...]], bool],
) -> Graph:
    """G(n, p) with n drawn from the closed range ``sizes``, then p from
    ``densities``, drawn again until ``accept`` holds: the one rejection
    loop that keeps a sample inside its oracle's domain.  ``accept`` reads
    the draw's adjacency masks (``random_masks``), and only the draw it
    keeps becomes a ``Graph``, one that keeps those masks."""
    while True:
        masks = random_masks(rng, rng.randint(*sizes), rng.choice(densities))
        if accept(masks):
            return from_masks(masks)


def random_spec(
    rng: random.Random,
    densities: Sequence[float],
    clique_sizes: Sequence[int],
    supp_p: float,
) -> ConstructionSpec:
    """Random construction on F = G(1..6, p in ``densities``): up to three
    supplementary vertices each see a random clique of F of a size in
    ``clique_sizes``; supplementary edges have probability ``supp_p``."""
    f = random_graph(rng, rng.randint(1, 6), rng.choice(densities))
    cliques = [
        c
        for size in clique_sizes
        for c in combinations(range(f.n), size)
        if all(f.has_edge(u, v) for u, v in combinations(c, 2))
    ]
    y_specs = []
    if cliques:
        for _ in range(rng.randint(0, 3)):
            y_specs.append(frozenset(rng.choice(cliques)))
    supp = _random_supp_edges(rng, f, len(y_specs), supp_p)
    return ConstructionSpec(f, tuple(y_specs), supp)


def random_formula(rng: random.Random, k: int, n_clauses: int) -> CnfFormula:
    clauses = []
    for _ in range(n_clauses):
        variables = rng.sample(range(1, k + 1), 3)
        clauses.append(
            tuple(v if rng.random() < 0.5 else -v for v in variables)
        )
    return CnfFormula(k, tuple(clauses))


# Variable triples whose complements cover every triple of a 7-variable
# formula: polarising them arbitrarily always yields the avoided-triple
# property.  12 is the minimum possible clause count for 7 variables.
COVER_7 = (
    (2, 3, 5), (5, 6, 7), (2, 3, 6), (3, 5, 7), (4, 5, 6), (1, 2, 7),
    (4, 6, 7), (1, 2, 6), (1, 3, 6), (2, 4, 7), (1, 4, 5), (1, 3, 4),
)


def covered_formula(rng: random.Random, k: int) -> CnfFormula:
    """A random formula satisfying the avoided-triple property.

    For 6 variables every variable triple must itself occur as a clause
    (20 clauses); for 7 a fixed minimum covering family of 12 is used.
    Only k in {6, 7} is supported.
    """
    if k == 6:
        var_sets = list(combinations(range(1, 7), 3))
    elif k == 7:
        var_sets = list(COVER_7)
    else:
        raise ValueError(f"covered_formula supports k in {{6, 7}}, got {k}")
    clauses = tuple(
        tuple(v if rng.random() < 0.5 else -v for v in vs) for vs in var_sets
    )
    return CnfFormula(k, clauses)


#: Hand-built unsatisfiable formulas that still satisfy the
#: avoided-triple property (found by exhaustive polarity search).
UNSAT_COVERED_7 = CnfFormula(7, (
    (2, 3, -5), (5, 6, 7), (2, -3, -6), (-3, -5, 7), (-4, -5, 6),
    (-1, -2, 7), (4, 6, -7), (1, -2, -6), (-1, 3, -6), (-2, 4, -7),
    (1, -4, 5), (1, 3, 4), (-1, -4, -7),
))

UNSAT_COVERED_6 = CnfFormula(6, (
    (-1, 2, 3), (1, 2, 4), (-1, -2, -5), (-1, 2, -6), (1, -3, 4),
    (1, 3, -5), (1, -3, -6), (1, 4, -5), (1, -4, -6), (-1, -5, 6),
    (-2, -3, -4), (2, -3, -5), (-2, 3, -6), (2, 4, 5), (2, -4, 6),
    (2, 5, -6), (-3, 4, 5), (-3, -4, 6), (3, 5, 6), (4, -5, 6),
))


def t6_augmented_fixtures() -> list[Graph]:
    """Minimum-degree-2 graphs containing the double-pendant edge (T6).
    Each also holds a triangle or a path on eight vertices, as every such
    graph must: on minimum degree 2, a T6 implies a cycle other than C4
    or a P8 (see ``forbidden_subgraph_check``)."""
    return [
        # leaf pairs tied off into triangles
        from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 3), (4, 5)]),
        # each leaf pair closed through a fresh vertex (all cycles are C4)
        from_edges(
            8,
            [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (3, 6), (4, 7), (5, 7)],
        ),
    ]


def h_instance_stream(seed: int) -> Iterator[PartitionedInstance]:
    """Endless stream of valid random subdivision instances (underlying
    graph of girth >= 5) small enough for ``is_gamma_gamma2_graph``."""
    sub_seed = seed
    while True:
        sub_seed += 1
        f_size = 3 + sub_seed % 4
        inst = random_h_instance(f_size, 0.35, 0.25, seed=sub_seed * 7919 + seed)
        if inst is not None and inst.g.n <= BRUTE_FORCE_VERTEX_LIMIT:
            yield inst


# ---------------------------------------------------------------------------
# Check bodies
# ---------------------------------------------------------------------------


def _fixtures_then_samples(
    fixtures: Sequence[T], sample: Callable[[int], T], budget: int
) -> Iterator[T]:
    """``budget`` items: the fixtures first, then ``sample(i)`` for the
    1-based positions i after them, drawn only when needed."""
    for i in range(1, budget + 1):
        yield fixtures[i - 1] if i <= len(fixtures) else sample(i)


def _check_matching_oracle(rng: random.Random, budget: int) -> Iterator[tuple[bool, Instance]]:
    def sample(_: int) -> Graph:
        # inside the exhaustive oracle's edge cap
        return _draw(rng, (1, 12), (0.2, 0.35, 0.5),
                     lambda adj: sum(map(int.bit_count, adj)) // 2
                     <= BRUTE_FORCE_EDGE_LIMIT)

    fixtures = [cycle(4), cycle(5), petersen()]
    for g in _fixtures_then_samples(fixtures, sample, budget):
        blossom = maximum_matching(g)
        ok = blossom.size == brute_force_maximum_matching(g).size
        # the matching itself must be valid
        seen: set[int] = set()
        for u, v in blossom.edges():
            if not g.has_edge(u, v) or u in seen or v in seen:
                ok = False
            seen.update((u, v))
        yield ok, g


def _check_gamma_lower_bound(rng: random.Random, budget: int) -> Iterator[tuple[bool, Instance]]:
    # For max degree >= k >= 2: gamma_k >= gamma + k - 2.  Graphs of
    # maximum degree below 2 test nothing, so they are drawn again.
    for _ in range(budget):
        g = _draw(rng, (2, 12), (0.2, 0.4, 0.6),
                  lambda adj: max(map(int.bit_count, adj)) >= 2)
        base = gamma_k(g, 1).number
        ok = True
        for k in (2, 3):
            if g.max_degree() >= k:
                if gamma_k(g, k).number < base + k - 2:
                    ok = False
        yield ok, g


def _equality_graphs(rng: random.Random, budget: int) -> Iterator[Graph]:
    # Connected graphs with gamma == gamma_2, selected by the exact
    # decision, which assumes none of the lemmas the checks test.
    for _ in range(budget):
        yield _draw(rng, (2, 10), (0.3, 0.5, 0.7),
                    lambda adj: masks_connected(adj)
                    and gamma_eq_gamma2_masks(adj, [(1 << len(adj)) - 1]))


def _check_min_degree_necessity(rng: random.Random, budget: int) -> Iterator[tuple[bool, Instance]]:
    # Connected non-trivial graphs with gamma == gamma_2 have min degree >= 2.
    for g in _equality_graphs(rng, budget):
        yield g.min_degree() >= 2, g


def _check_min_2domset_independence(rng: random.Random, budget: int) -> Iterator[tuple[bool, Instance]]:
    for g in _equality_graphs(rng, budget):
        ok = all(
            is_independent(g, dd) for dd in enumerate_min_k_dominating(g, 2)
        )
        yield ok, g


def _check_private_pair_structure(rng: random.Random, budget: int) -> Iterator[tuple[bool, Instance]]:
    # In an equality graph, for any two members of a minimum 2-dominating
    # set with a common neighbour there are two non-adjacent outside
    # vertices seeing exactly those two in D; together they induce a C4.
    for g in _equality_graphs(rng, budget):
        ok = True
        for dd in enumerate_min_k_dominating(g, 2):
            for u, v in combinations(sorted(dd), 2):
                common = set(g.neighbors(u)) & set(g.neighbors(v))
                if not common:
                    continue
                mates = [
                    w
                    for w in range(g.n)
                    if w not in dd
                    and set(g.neighbors(w)) & dd == {u, v}
                ]
                if all(g.has_edge(a, b) for a, b in combinations(mates, 2)):
                    ok = False
                    break
                # Some two mates a, b are non-adjacent, so u, a, v, b
                # induce a 4-cycle exactly when u, v is a non-edge too.
                if g.has_edge(u, v):
                    ok = False
                    break
            if not ok:
                break
        yield ok, g


def _check_specified_set_2domination(rng: random.Random, budget: int) -> Iterator[tuple[bool, Instance]]:
    # Built instances whose supplementary vertices see exactly two
    # D-vertices have gamma_2 == |V(F)|, witnessed by D itself.
    for _ in range(budget):
        spec = random_spec(rng, (0.3, 0.5, 0.7), (2,), 0.15)
        inst = build(spec)
        ok = (
            is_k_dominating(inst.g, inst.d, 2)
            and gamma_k(inst.g, 2).number == spec.f.n
        )
        yield ok, inst


def _check_join_c4_collapse(rng: random.Random, budget: int) -> Iterator[tuple[bool, Instance]]:
    def sample(_: int) -> Graph:
        return random_graph(rng, rng.randint(1, 6), 0.4)

    for f in _fixtures_then_samples(all_four_vertex_graphs(), sample, budget):
        g = join_c4(f)
        yield gamma_k(g, 1).number == 2 and gamma_k(g, 2).number == 2, g


def _check_underlying_roundtrip(rng: random.Random, budget: int) -> Iterator[tuple[bool, Instance]]:
    # The square of the built graph induced on D recovers the underlying
    # graph exactly (canonical numbering makes this graph equality).
    for _ in range(budget):
        spec = random_spec(rng, (0.4, 0.6, 0.8), (2, 3), 0.1)
        inst = build(spec)
        yield extract_underlying(inst.g, inst.d) == spec.f, inst


def _check_recognition_cross_validation(rng: random.Random, budget: int) -> Iterator[tuple[bool, Instance]]:
    # Both verdicts among the fixtures: double subdivisions are equality
    # graphs, the bridge and ring gadgets are not.
    fixtures = [double_subdivision(f) for f in (path(3), star(4), cycle(5))]
    fixtures += [gadget_b()] + [gadget_a(k) for k in (2, 3, 4)]
    stream = h_instance_stream(seed=rng.randrange(1 << 30))
    for inst in _fixtures_then_samples(fixtures, lambda _: next(stream), budget):
        verdict = recognize_h(inst)
        ok = verdict.equal == is_gamma_gamma2_graph(inst.g)
        # at most two matchings per subdivision pair (one per endpoint)
        ok = ok and verdict.matching_calls <= 2 * len(inst.pair_map)
        if not verdict.equal:
            ok = ok and verdict.witness is not None
            ok = ok and check_witness(inst.g, inst.d, verdict.witness)
        yield ok, inst


def _check_sat_reduction(rng: random.Random, budget: int) -> Iterator[tuple[bool, Instance]]:
    # (formula, whether the triple-cover equivalence must hold)
    def sample(i: int) -> tuple[CnfFormula, bool]:
        if i % 3 == 0:
            return random_formula(rng, rng.randint(3, 7), rng.randint(1, 8)), False
        return covered_formula(rng, rng.choice([6, 7])), True

    fixtures = [(UNSAT_COVERED_6, True), (UNSAT_COVERED_7, True)]
    for f, require_equivalence in _fixtures_then_samples(fixtures, sample, budget):
        red = reduce_3sat(f)
        g = red.instance.g
        k = f.num_vars
        ok = g.n == 3 * k + len(f.clauses) + 3
        ok = ok and gamma_k(g, 2).number == k + 2
        sat = cnf_satisfiable(f) is not None
        gamma = gamma_k(g, 1).number
        if sat:
            ok = ok and gamma <= k + 1
        if require_equivalence:
            ok = ok and red.triple_cover and (sat == (gamma < k + 2))
        yield ok, f


def perfect_fixtures() -> list[Graph]:
    """The fixed graphs ``perfect-triple-agreement`` checks before it
    samples: every doubled-subdivided star on 4..12 vertices, short
    cycles, K4, the Petersen graph, the augmented double-pendant edges
    and two disjoint unions of cycles."""
    fixtures: list[Graph] = []
    for total in range(4, 13):
        for k in range(1, total):
            for mults in _multiplicity_lists(total - 1 - k, k):
                fixtures.append(gadget_s(mults).g)
    fixtures += [cycle(n) for n in range(4, 10)]
    fixtures.append(constructions.complete(4))
    fixtures.append(petersen())
    fixtures += t6_augmented_fixtures()
    # C4 + C4 and C4 + C5: on disjoint unions the routes agree per component
    fixtures += [
        from_edges(
            4 + n,
            cycle(4).edge_list() + [(u + 4, v + 4) for u, v in cycle(n).edge_list()],
        )
        for n in (4, 5)
    ]
    return fixtures


def _check_perfect_triple_agreement(rng: random.Random, budget: int) -> Iterator[tuple[bool, Instance]]:
    def sample(_: int) -> Graph:
        return _draw(rng, (4, 10), (0.3, 0.4, 0.5),
                     lambda adj: min(map(int.bit_count, adj)) >= 2
                     and masks_connected(adj))

    for g in _fixtures_then_samples(perfect_fixtures(), sample, budget):
        structural = recognize_perfect(g).perfect
        forbidden = forbidden_subgraph_check(g)
        oracle = perfect_oracle(g)
        yield structural == forbidden == oracle, g


def _multiplicity_lists(total: int, k: int) -> Iterator[list[int]]:
    # non-increasing lists of k values >= 2 summing to total
    if k == 0:
        if total == 0:
            yield []
        return
    for first in range(2, total - 2 * (k - 1) + 1):
        for rest in _multiplicity_lists(total - first, k - 1):
            if not rest or first >= rest[0]:
                yield [first] + rest


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


_CHECKS: dict[str, tuple[Callable[[random.Random, int], Iterator[tuple[bool, Instance]]], int]] = {
    "gamma-k-lower-bound": (_check_gamma_lower_bound, 150),
    "join-c4-collapse": (_check_join_c4_collapse, 30),
    "matching-oracle": (_check_matching_oracle, 150),
    "min-2domset-independence": (_check_min_2domset_independence, 40),
    "min-degree-necessity": (_check_min_degree_necessity, 40),
    "perfect-triple-agreement": (_check_perfect_triple_agreement, 120),
    "private-pair-structure": (_check_private_pair_structure, 30),
    "recognition-cross-validation": (_check_recognition_cross_validation, 120),
    "sat-reduction-equivalence": (_check_sat_reduction, 20),
    "specified-set-2domination": (_check_specified_set_2domination, 60),
    "underlying-roundtrip": (_check_underlying_roundtrip, 60),
}


def run_verify(
    scope: Optional[str] = None,
    seed: int = 0,
    budget: Optional[int] = None,
) -> VerifyReport:
    """Run the cross-validation suites.

    ``scope`` filters checks by name prefix.  ``budget`` overrides the
    per-check instance count; 0 produces an empty report.  A budget that
    is not an int >= 0 (True and 1.5 are not budgets) or a scope that
    matches no check raises ``ValueError``, so a mistyped request cannot
    pass by running nothing.  So does a seed that is not an int: True,
    1.0 and "1" would each key other streams than seed 1's.
    """
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    if budget is not None:
        check_int("budget", budget, 0)
    names = [name for name in sorted(_CHECKS) if not scope or name.startswith(scope)]
    if not names:
        raise ValueError(
            f"scope {scope!r} matches no check; checks: {', '.join(sorted(_CHECKS))}"
        )
    if budget == 0:
        return VerifyReport(seed=seed, checks=())
    results = []
    for name in names:
        body, default_budget = _CHECKS[name]
        count = budget if budget is not None else default_budget
        rng = random.Random(f"{seed}:{name}")
        start = time.perf_counter()
        instances = 0
        passed = 0
        counterexample = None
        for ok, item in body(rng, count):
            instances += 1
            if ok:
                passed += 1
            elif counterexample is None:
                counterexample = formats.to_text(item)
        results.append(
            CheckResult(
                name=name,
                instances=instances,
                passed=passed,
                counterexample=counterexample,
                seconds=time.perf_counter() - start,
            )
        )
    return VerifyReport(seed=seed, checks=tuple(results))
