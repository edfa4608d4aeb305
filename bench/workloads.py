"""Seeded inputs, expected answers and operations of the three workloads.

Every operation starts from serialized text, the same text that
``gamma2 recognize h`` and ``gamma2 solve`` read, so parsing and graph
building are inside the timed operation, and every operation checks its
own output against an answer known from how the input was built.

All calls into the package go through its layer modules (``api.formats``,
``api.recognition``, ...) at call time, never through names bound at import,
so that the traced run can wrap them at the module attributes.

Why each workload and family exists
-----------------------------------

``recognize`` (polynomial recognizer; ``solvers`` does no work here)

- ``tree``: random tree as the underlying graph, supplementary edges only
  x1--x1 between pairs that share a centre.  No bridge or ring can form, so
  the verdict is EQUAL after every centre is scanned: the O(|D|*|E|)
  per-centre scans and the O(|D|^2) 4-cycle test dominate.
- ``dag-star``: star with edges x_a1--x_b2 only for a < b in a random spoke
  order.  No ring can close, so the verdict is EQUAL after one dense
  auxiliary matching per spoke: the per-pair ``from_edges`` rebuild and
  blossom matching dominate.
- ``ring``: a ``tree`` instance plus one ring planted around its
  highest-degree centre, which sits at a random position in the scan
  order.  NOT-EQUAL partway through the ring scan, with an ``AWitness``.
- ``bridge``: a ``tree`` instance plus one supplementary edge between the
  pairs of two disjoint underlying edges.  NOT-EQUAL from the bridge scan,
  so matching is bypassed and parsing has its largest share.

``solve`` (exact branch-and-bound; ``recognition`` and ``matching`` idle)

- ``cycle-k1``: C_n, n in 150..300, k = 1.  The O(n^2 * gamma) greedy upper
  bound dominates; the answer must be ceil(n / 3).
- ``cycle-k2``: C_n, n in 30..44, k = 2.  Search under a weak packing bound
  dominates; the answer must be ceil(n / 2).
- ``gap``: ``reduce_3sat`` of over-constrained random 7-variable formulas
  (half satisfiable, half not) and of covered 6/7-variable formulas
  (satisfiable 7-variable, satisfiable and unsatisfiable 6-variable),
  solving gamma_2 and gamma.  gamma_2 must be v + 2; gamma <= v + 1 when
  the formula is satisfiable, and under triple cover gamma is v + 1
  exactly when it is satisfiable, else v + 2.
- ``forest``: 10..20 disjoint small components (random trees on 20..40
  vertices and G(6..12, 0.35)) under one random labelling, k = 1, so
  component splitting and subgraph building run many times per call.  The
  answer is the sum of a tree dynamic program and brute force per part.

Why ``cycle-k2`` and ``forest`` stop where they do: on a 2-CPU x86-64
container with Python 3.11, ``gamma_k(C_n, 2)`` took 0.49 s at n = 45 and
5.6 s at n = 60 and did not finish in minutes at n = 100, and a ~100-vertex
component of G(200, 1.5/n), which has cycles, did not finish at k = 1
within 90 s.  Random recursive trees have a rare but steep tail: at
k = 1, 13 of 13,306 trees on 41..60 vertices took over 0.2 s, one 8.2 s,
while none of 67,354 trees on 20..40 vertices took over 0.2 s.  (Uniform
random trees on 20..60 vertices are worse: 69 of 1,500 over 0.05 s, one
6.8 s.)  Both families stop at the largest sizes that finish well under a
second; a solver that flattens that growth should raise them in a change
of its own.

``verify`` (same ``solvers`` layer in the opposite regime: thousands of
tiny ``gamma_k`` calls plus the brute-force oracles)

- each operation is one check, ``run_verify(scope=<check>, seed=s)`` at
  default budgets, cycling through all eleven checks and then through
  consecutive seeds from the workload seed.  This is what ``gamma2
  verify`` users run, and it shows per-call overhead that large-instance
  workloads hide.
"""

from __future__ import annotations

import importlib
import math
import random
from dataclasses import dataclass
from typing import Any

LAYERS = (
    "graph",
    "matching",
    "solvers",
    "constructions",
    "recognition",
    "formats",
    "verify",
)

VERIFY_CHECKS = (
    "gamma-k-lower-bound",
    "join-c4-collapse",
    "matching-oracle",
    "min-2domset-independence",
    "min-degree-necessity",
    "perfect-triple-agreement",
    "private-pair-structure",
    "recognition-cross-validation",
    "sat-reduction-equivalence",
    "specified-set-2domination",
    "underlying-roundtrip",
)


_GOLDEN = (math.sqrt(5) - 1) / 2


class Api:
    """The package's layer modules, imported by name."""

    def __init__(self) -> None:
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module(f"gamma2.{layer}"))


class Mismatch(Exception):
    """An operation's output disagrees with the expected answer."""


@dataclass(frozen=True)
class Case:
    """One operation's input text and the answer its construction implies."""

    family: str
    text: str
    expect: Any


def spread_sizes(seed: int, lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes in ``lo..hi``: a golden-ratio sequence, rotated.

    Every contiguous run of the sequence covers the range evenly, and the
    seed only rotates it, so every seed draws the same multiset of sizes
    and any prefix of a run still sees a balanced mix.
    """
    base = [lo + int((i * _GOLDEN % 1.0) * (hi - lo + 1)) for i in range(count)]
    shift = random.Random(f"{seed}:sizes").randrange(count)
    return base[shift:] + base[:shift]


# ---------------------------------------------------------------------------
# recognize
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecognizeExpect:
    equal: bool
    witness: str | None  # "ring", "bridge" or None


def random_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random recursive tree on ``n`` vertices under a random labelling."""
    label = list(range(n))
    rng.shuffle(label)
    return [(label[i], label[rng.randrange(i)]) for i in range(1, n)]


class _PairIndex:
    """Canonical subdivision-vertex ids of a built underlying graph."""

    def __init__(self, f: Any) -> None:
        self.n = f.n
        self.edge_index = {e: t for t, e in enumerate(f.edge_list())}
        self.incident: list[list[tuple[int, int]]] = [[] for _ in range(f.n)]
        for u, v in f.edge_list():
            self.incident[u].append((u, v))
            self.incident[v].append((u, v))

    def x(self, edge: tuple[int, int], which: int) -> int:
        return self.n + 2 * self.edge_index[edge] + which


def _tree_spec(
    api: Api, rng: random.Random, d_size: int,
    ring_at: float | None = None, bridge: bool = False,
) -> Any:
    """Tree instance; ``ring_at`` plants a ring around a highest-degree
    centre placed at that fraction of the scan order."""
    while True:
        edges = random_tree(rng, d_size)
        f = api.graph.from_edges(d_size, edges)
        # a bridge needs two disjoint underlying edges, which a star lacks
        if not bridge or f.max_degree() < d_size - 1:
            break
    if ring_at is not None:
        top = f.max_degree()
        centre = rng.choice([v for v in range(f.n) if f.degree(v) == top])
        target = int(ring_at * d_size)
        swap = {centre: target, target: centre}
        edges = [(swap.get(u, u), swap.get(v, v)) for u, v in edges]
        f = api.graph.from_edges(d_size, edges)
    idx = _PairIndex(f)
    supp: list[tuple[int, int]] = []
    for incident in idx.incident:
        for a in range(len(incident)):
            for b in range(a + 1, len(incident)):
                if rng.random() < 0.5:
                    supp.append((idx.x(incident[a], 0), idx.x(incident[b], 0)))
    if ring_at is not None:
        spokes = rng.sample(idx.incident[target], rng.randint(2, top))
        for r, edge in enumerate(spokes):
            nxt = spokes[(r + 1) % len(spokes)]
            supp.append((idx.x(edge, 0), idx.x(nxt, 1)))
    if bridge:
        edges = f.edge_list()
        e1 = rng.choice(
            [(u, v) for u, v in edges if f.degree(u) + f.degree(v) - 1 < len(edges)]
        )
        e2 = rng.choice([e for e in edges if not set(e) & set(e1)])
        supp.append((idx.x(e1, rng.randrange(2)), idx.x(e2, rng.randrange(2))))
    return api.constructions.ConstructionSpec(f, supp_edges=tuple(supp))


def _dag_star_spec(api: Api, rng: random.Random, spokes: int) -> Any:
    f = api.constructions.star(spokes)
    idx = _PairIndex(f)
    order = [(0, leaf) for leaf in range(1, spokes + 1)]
    rng.shuffle(order)
    supp = [
        (idx.x(order[a], 0), idx.x(order[b], 1))
        for a in range(spokes)
        for b in range(a + 1, spokes)
        if rng.random() < 0.5
    ]
    return api.constructions.ConstructionSpec(f, supp_edges=tuple(supp))


#: family -> (size range, expected verdict)
RECOGNIZE_FAMILIES: dict[str, tuple[tuple[int, int], RecognizeExpect]] = {
    "tree": ((150, 300), RecognizeExpect(True, None)),
    "dag-star": ((60, 110), RecognizeExpect(True, None)),
    "ring": ((150, 300), RecognizeExpect(False, "ring")),
    "bridge": ((150, 300), RecognizeExpect(False, "bridge")),
}


def recognize_case(api: Api, seed: int, family: str, i: int, size: int) -> Case:
    rng = random.Random(f"{seed}:{family}:{i}")
    if family == "dag-star":
        spec = _dag_star_spec(api, rng, size)
    else:
        # ring centres sit at evenly spread points of the scan order
        ring_at = (0.5 + i * _GOLDEN) % 1.0 if family == "ring" else None
        spec = _tree_spec(api, rng, size, ring_at, bridge=family == "bridge")
    inst = api.constructions.build(spec)
    return Case(family, api.formats.instance_to_json(inst), RECOGNIZE_FAMILIES[family][1])


def run_recognize(api: Api, case: Case) -> tuple[int, int]:
    inst = api.formats.parse_instance(case.text)
    verdict = api.recognition.recognize_h(inst)
    expect: RecognizeExpect = case.expect
    if verdict.equal != expect.equal:
        raise Mismatch(f"verdict equal={verdict.equal}, expected {expect.equal}")
    if not verdict.equal:
        kind = {
            api.recognition.AWitness: "ring",
            api.recognition.BWitness: "bridge",
        }.get(type(verdict.witness))
        if kind != expect.witness:
            raise Mismatch(f"witness kind {kind}, expected {expect.witness}")
        if not api.recognition.check_witness(inst.g, inst.d, verdict.witness):
            raise Mismatch("witness does not replay")
    return 1, 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def tree_domination_number(n: int, edges: list[tuple[int, int]]) -> int:
    """gamma of a forest by the classic three-state dynamic program."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    inf = n + 1
    chosen = [0] * n      # v in the set
    covered = [0] * n     # v outside, dominated by a child
    waiting = [0] * n     # v outside, not dominated by any child
    seen = [False] * n
    total = 0
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order, parent, stack = [], {root: -1}, [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    stack.append(u)
        for v in reversed(order):
            kids = [u for u in adj[v] if parent.get(u) == v]
            chosen[v] = 1 + sum(min(chosen[c], covered[c], waiting[c]) for c in kids)
            waiting[v] = sum(covered[c] for c in kids)
            free = sum(min(chosen[c], covered[c]) for c in kids)
            extra = min(
                (chosen[c] - min(chosen[c], covered[c]) for c in kids), default=inf
            )
            covered[v] = min(inf, free + extra)
        total += min(chosen[root], covered[root])
    return total


def _relabel(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    label = list(range(n))
    rng.shuffle(label)
    return [(label[u], label[v]) for u, v in edges]


def cycle_case(api: Api, family: str, n: int) -> Case:
    k = 1 if family == "cycle-k1" else 2
    value = -(-n // (3 if k == 1 else 2))
    g = api.constructions.cycle(n)
    return Case(family, api.formats.graph_to_text(g), {k: (value, value)})


def forest_parts(rng: random.Random, parts: int) -> list[tuple[int, list[tuple[int, int]], bool]]:
    """``parts`` components as (n, edges, is_tree), each on 0..n-1."""
    out = []
    for _ in range(parts):
        if rng.random() < 0.5:
            n = rng.randint(20, 40)
            out.append((n, random_tree(rng, n), True))
        else:
            n = rng.randint(6, 12)
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n)
                if rng.random() < 0.35
            ]
            out.append((n, edges, False))
    return out


def forest_case(api: Api, rng: random.Random, parts: int) -> Case:
    edges: list[tuple[int, int]] = []
    expected = 0
    offset = 0
    for n, part_edges, is_tree in forest_parts(rng, parts):
        if is_tree:
            expected += tree_domination_number(n, part_edges)
        else:
            part = api.graph.from_edges(n, part_edges)
            expected += api.solvers.gamma_k_bruteforce(part, 1).number
        edges += [(u + offset, v + offset) for u, v in part_edges]
        offset += n
    g = api.graph.from_edges(offset, _relabel(rng, offset, edges))
    return Case("forest", api.formats.graph_to_text(g), {1: (expected, expected)})


def random_formula(api: Api, rng: random.Random, num_vars: int, clauses: int) -> Any:
    out = []
    for _ in range(clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        out.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return api.solvers.CnfFormula(num_vars, tuple(out))


def gap_expect(num_vars: int, satisfiable: bool, triple_cover: bool) -> dict[int, tuple[int, int]]:
    """Allowed (low, high) of gamma_2 and gamma on a 3-SAT gap instance."""
    if triple_cover:
        gamma = num_vars + 1 if satisfiable else num_vars + 2
        return {2: (num_vars + 2, num_vars + 2), 1: (gamma, gamma)}
    return {
        2: (num_vars + 2, num_vars + 2),
        1: (0, num_vars + 1 if satisfiable else num_vars + 2),
    }


#: (variables, satisfiable) of the covered formulas, in turn.  Random
#: polarities of the 7-variable cover are almost never unsatisfiable.
COVERED_KINDS = ((7, True), (6, False), (6, True))


def gap_case(api: Api, rng: random.Random, i: int) -> Case:
    """Entry i: a random over-constrained 7-variable formula for even i,
    alternately satisfiable and not; a covered formula of the next
    ``COVERED_KINDS`` kind for odd i.  Every 12 consecutive entries so hold
    each kind in equal share."""
    if i % 2 == 0:
        num_vars, want_sat = 7, (i // 2) % 2 == 0
    else:
        num_vars, want_sat = COVERED_KINDS[(i // 2) % len(COVERED_KINDS)]
    for _ in range(10_000):
        if i % 2 == 0:
            f = random_formula(api, rng, num_vars, 40)
        else:
            f = api.verify.covered_formula(rng, num_vars)
        satisfiable = api.solvers.cnf_satisfiable(f) is not None
        if satisfiable == want_sat:
            break
    else:
        raise RuntimeError(f"no gap formula of kind {num_vars, want_sat} in 10000 draws")
    red = api.constructions.reduce_3sat(f)
    return Case(
        "gap",
        api.formats.graph_to_text(red.instance.g),
        gap_expect(num_vars, satisfiable, red.triple_cover),
    )


SOLVE_FAMILIES = ("cycle-k1", "cycle-k2", "gap", "forest")


def solve_case(api: Api, seed: int, family: str, i: int, size: int) -> Case:
    rng = random.Random(f"{seed}:{family}:{i}")
    if family in ("cycle-k1", "cycle-k2"):
        return cycle_case(api, family, size)
    if family == "gap":
        return gap_case(api, rng, i)
    return forest_case(api, rng, size)


#: size ranges: cycle length, number of forest parts; ``gap`` ignores its size
SOLVE_SIZES = {"cycle-k1": (150, 300), "cycle-k2": (30, 44), "gap": (0, 0), "forest": (10, 20)}


def run_solve(api: Api, case: Case) -> tuple[int, int]:
    g = api.formats.parse_graph(case.text)
    for k, (low, high) in sorted(case.expect.items(), reverse=True):
        result = api.solvers.gamma_k(g, k)
        if not low <= result.number <= high:
            raise Mismatch(f"gamma_{k} = {result.number}, expected {low}..{high}")
        if len(result.witness) != result.number:
            raise Mismatch(f"gamma_{k} witness has {len(result.witness)} vertices")
        if not api.solvers.is_k_dominating(g, result.witness, k):
            raise Mismatch(f"gamma_{k} witness is not {k}-dominating")
    return 1, 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def run_verify_check(api: Api, case: Case) -> tuple[int, int]:
    check, seed = case.expect
    report = api.verify.run_verify(scope=check, seed=seed)
    if [c.name for c in report.checks] != [check]:
        raise Mismatch(f"scope {check!r} ran {[c.name for c in report.checks]}")
    result = report.checks[0]
    if result.instances < 1:
        raise Mismatch(f"{check} checked no instance")
    return result.instances, result.instances - result.passed


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A closed loop over interleaved families, one operation in flight.

    Cycle c runs one operation of every family, in ``families`` order.  A
    run stops only at the end of a round of ``round_cycles`` cycles, so
    that it holds every kind of input in its planned share.
    """

    name: str
    families: tuple[str, ...]
    round_cycles = 1

    def __init__(self, api: Api, seed: int) -> None:
        self.api = api
        self.seed = seed

    def case(self, cycle: int, family: str) -> Case:
        raise NotImplementedError

    def run(self, case: Case) -> tuple[int, int]:
        """Run one operation; return (units checked, units failed).

        Raises :class:`Mismatch` when the output is wrong."""
        raise NotImplementedError


class _PooledWorkload(Workload):
    """Families drawn from pools of ``pool_cycles`` seeded inputs each,
    used in turn and from the start again when a run outlasts the pool."""

    sizes: dict[str, tuple[int, int]]
    pool_cycles: int

    def __init__(self, api: Api, seed: int) -> None:
        super().__init__(api, seed)
        self.pool = {
            family: [
                self.make(family, i, size)
                for i, size in enumerate(
                    spread_sizes(seed, *self.sizes[family], self.pool_cycles)
                )
            ]
            for family in self.families
        }

    def make(self, family: str, i: int, size: int) -> Case:
        raise NotImplementedError

    def case(self, cycle: int, family: str) -> Case:
        pool = self.pool[family]
        return pool[cycle % len(pool)]


class Recognize(_PooledWorkload):
    name = "recognize"
    pool_cycles = round_cycles = 24
    families = tuple(RECOGNIZE_FAMILIES)
    sizes = {family: spec[0] for family, spec in RECOGNIZE_FAMILIES.items()}

    def make(self, family: str, i: int, size: int) -> Case:
        return recognize_case(self.api, self.seed, family, i, size)

    def run(self, case: Case) -> tuple[int, int]:
        return run_recognize(self.api, case)


class Solve(_PooledWorkload):
    name = "solve"
    #: A 30-second run takes 70..110 cycles, so it sees each input at most
    #: once.  With pools of 24 reused, the per-op median moved by ~30%
    #: between seeds: a quarter of the ``gap`` inputs (the satisfiable
    #: over-constrained ones) take anywhere from 12 to 150 ms and straddle
    #: it, and 6 of them per pool were too few to pin it down.
    pool_cycles = 144
    #: the period of the ``gap`` kinds (see :func:`gap_case`)
    round_cycles = 12
    families = SOLVE_FAMILIES
    sizes = SOLVE_SIZES

    def make(self, family: str, i: int, size: int) -> Case:
        return solve_case(self.api, self.seed, family, i, size)

    def run(self, case: Case) -> tuple[int, int]:
        return run_solve(self.api, case)


class Verify(Workload):
    name = "verify"
    families = VERIFY_CHECKS

    def case(self, cycle: int, family: str) -> Case:
        seed = self.seed + cycle
        return Case(family, f"gamma2 verify --scope {family} --seed {seed}\n", (family, seed))

    def run(self, case: Case) -> tuple[int, int]:
        return run_verify_check(self.api, case)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Recognize, Solve, Verify)
}
