"""The verify driver itself: determinism, scope, budget, reporting."""

import dataclasses
import hashlib
import json
import random
from itertools import combinations

import pytest

from gamma2 import verify
from gamma2.constructions import cycle
from gamma2.formats import to_text as _render
from gamma2.graph import Graph, from_edges
from gamma2.matching import Matching
from gamma2.verify import _CHECKS, run_verify


def test_all_checks_pass_at_small_budget():
    report = run_verify(seed=7, budget=6)
    assert report.ok
    assert len(report.checks) == len(_CHECKS)
    for check in report.checks:
        assert check.instances <= 6
        assert check.passed == check.instances
        assert check.counterexample is None


def test_default_run_tests_every_budgeted_instance():
    report = run_verify(seed=0)
    assert report.ok
    for check in report.checks:
        assert check.instances == _CHECKS[check.name][1], check.name


def test_reports_are_deterministic():
    a = run_verify(seed=3, budget=5)
    b = run_verify(seed=3, budget=5)
    assert [(c.name, c.instances, c.passed, c.counterexample) for c in a.checks] == [
        (c.name, c.instances, c.passed, c.counterexample) for c in b.checks
    ]


def test_different_seeds_change_streams(monkeypatch):
    body, default_budget = _CHECKS["matching-oracle"]
    yielded = []

    def recording(rng, budget):
        for ok, item in body(rng, budget):
            yielded.append(item)
            yield ok, item

    monkeypatch.setitem(_CHECKS, "matching-oracle", (recording, default_budget))
    streams = []
    for seed in (0, 1):
        yielded.clear()
        assert run_verify(scope="matching", seed=seed, budget=30).ok
        streams.append(list(yielded))
    assert len(streams[0]) == len(streams[1]) == 30
    # the same three fixtures first, then different random graphs
    assert streams[0][:3] == streams[1][:3]
    assert streams[0][3:] != streams[1][3:]


# What eight checks draw for seeds 0-3, keyed as run_verify keys them and
# rendered as a counterexample would be.  A change to a sampler that alters
# an instance must update the digest and say so.
SAMPLED_DIGESTS = {
    "gamma-k-lower-bound":
        "1fa9feb93884cc020690081bfd42ee759b7146832f73526cfafb327bb951c514",
    "matching-oracle":
        "ff73c9dc9cbe8854e9b6b24d1fcc27e11bba51343d223450ad807b050cbe8825",
    "min-2domset-independence":
        "4f1574dc47170a76a56a099a55be1c232ff7db82b5b325a553476aaa1ff845e5",
    "min-degree-necessity":
        "5b44a933ea927a782f94b67e5814da4c1183057569e78e301d9baee32cb4af04",
    "perfect-triple-agreement":
        "b67f8f992bed6bd3d9e02a9d01823879ee572d5cf5c857764b6a5daccbd2ac04",
    "private-pair-structure":
        "e6405cf87cebbaa99bc381f9a2432f616d3d0728a4dd826ab85e3537e8dbc396",
    "specified-set-2domination":
        "e512f76d2d327d7a5cd58c23f3019efe3dacaad0e8fe25315d4514f71e2deea4",
    "underlying-roundtrip":
        "a8b1fb74f2aeef3a767596ba4d0b6431e9a3c4a5e1d08c0b71644babf929ad64",
}


@pytest.mark.parametrize("name", sorted(SAMPLED_DIGESTS))
def test_sampled_instances_are_pinned(name):
    body, budget = _CHECKS[name]
    h = hashlib.sha256()
    for seed in range(4):
        for _, item in body(random.Random(f"{seed}:{name}"), budget):
            h.update(_render(item).encode() + b";")
    assert h.hexdigest() == SAMPLED_DIGESTS[name]


def test_rejected_draws_build_no_graph(monkeypatch):
    # The accept test reads the drawn masks; only a kept draw becomes a
    # Graph (by the constructor or by from_masks, the two routes that build
    # one from scratch), and it keeps the very masks that were drawn.
    builds, drawn = [], []
    real_init, real_from_masks = Graph.__init__, verify.from_masks
    real_draw = verify.random_masks

    def counting_init(self, n, adjacency):
        builds.append(n)
        real_init(self, n, adjacency)

    def counting_from_masks(masks):
        builds.append(len(masks))
        return real_from_masks(masks)

    def recording_draw(rng, n, p):
        drawn.append(real_draw(rng, n, p))
        return drawn[-1]

    monkeypatch.setattr(Graph, "__init__", counting_init)
    monkeypatch.setattr(verify, "from_masks", counting_from_masks)
    monkeypatch.setattr(verify, "random_masks", recording_draw)
    graphs = list(verify._equality_graphs(random.Random("1:min-degree-necessity"), 5))
    assert len(graphs) == len(builds) == 5
    assert len(drawn) > 50  # each draw meets the accept test
    kept = [g.adjacency_masks() for g in graphs]
    assert all(any(m is d for d in drawn) for m in kept)
    assert kept[-1] is drawn[-1]


def test_only_the_first_failing_instance_is_rendered(monkeypatch):
    rendered = []

    def counting(serializer):
        def count(item):
            rendered.append(item)
            return serializer(item)
        return count

    for name in ("graph_to_text", "instance_to_json", "cnf_to_text"):
        monkeypatch.setattr(
            verify.formats, name, counting(getattr(verify.formats, name))
        )
    assert run_verify(seed=0, budget=5).ok
    assert rendered == []

    body, budget = _CHECKS["join-c4-collapse"]
    yielded = []

    def second_and_third_fail(rng, count):
        for i, (ok, item) in enumerate(body(rng, count), 1):
            yielded.append(item)
            yield ok and i not in (2, 3), item

    monkeypatch.setitem(_CHECKS, "join-c4-collapse", (second_and_third_fail, budget))
    (check,) = run_verify(scope="join", seed=0, budget=4).checks
    assert (check.instances, check.passed) == (4, 2)
    assert rendered == [yielded[1]]
    assert yielded[1] != yielded[2]
    assert check.counterexample == _render(yielded[1])


def test_scope_prefix_filter():
    report = run_verify(scope="min-", seed=0, budget=3)
    assert [c.name for c in report.checks] == [
        "min-2domset-independence",
        "min-degree-necessity",
    ]


def test_zero_budget_gives_empty_report():
    report = run_verify(seed=0, budget=0)
    assert report.checks == ()
    assert report.ok


def test_negative_budget_is_rejected():
    with pytest.raises(ValueError, match="budget"):
        run_verify(seed=0, budget=-3)


@pytest.mark.parametrize("budget", [True, 1.5, "3"])
def test_non_int_budget_is_rejected(budget):
    with pytest.raises(ValueError, match="budget"):
        run_verify(seed=0, budget=budget)


@pytest.mark.parametrize("seed", [True, 1.0, "1"])
def test_non_int_seed_is_rejected(seed):
    # each would key other streams than seed 1's, and print as its own seed
    with pytest.raises(ValueError, match="seed"):
        run_verify(seed=seed, budget=1)


def test_scope_matching_no_check_is_rejected():
    with pytest.raises(ValueError, match="matches no check") as info:
        run_verify(scope="typo", seed=0)
    for name in _CHECKS:
        assert name in str(info.value)


def test_recognition_check_bounds_matching_calls(monkeypatch):
    # the true verdict, but more matchings than two per subdivision pair
    real = verify.recognize_h

    def wasteful(inst):
        return dataclasses.replace(
            real(inst), matching_calls=2 * len(inst.pair_map) + 1
        )

    monkeypatch.setattr(verify, "recognize_h", wasteful)
    report = run_verify(scope="recognition", seed=0, budget=3)
    assert not report.ok
    assert report.checks[0].passed == 0


def _fails_on_every_instance(scope):
    report = run_verify(scope=scope, seed=0, budget=3)
    (check,) = report.checks
    assert not report.ok
    assert (check.instances, check.passed) == (3, 0)
    assert check.counterexample is not None
    return check


def test_matching_check_rejects_a_matching_on_a_non_edge(monkeypatch):
    # the right size, so only the validity test can fail
    real = verify.maximum_matching

    def misplaced(g):
        size = real(g).size
        u, v = next(
            (u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)
        )
        rest = [w for w in range(g.n) if w not in (u, v)]
        mate = [None] * g.n
        for a, b in [(u, v)] + list(zip(rest[::2], rest[1::2]))[: size - 1]:
            mate[a], mate[b] = b, a
        matching = Matching(tuple(mate))
        assert matching.size == size
        return matching

    monkeypatch.setattr(verify, "maximum_matching", misplaced)
    check = _fails_on_every_instance("matching")
    assert check.counterexample == _render(cycle(4))


def test_lower_bound_check_rejects_an_under_reported_gamma_k(monkeypatch):
    real = verify.gamma_k

    def under_reporting(g, k):
        result = real(g, k)
        if k == 1:
            return result
        # one below the bound gamma + k - 2
        return dataclasses.replace(result, number=real(g, 1).number + k - 3)

    monkeypatch.setattr(verify, "gamma_k", under_reporting)
    _fails_on_every_instance("gamma-k")


# K4 less the edge 2-3: the members of {2, 3} share the neighbours 0 and
# 1, which see exactly them but are adjacent; the members of {0, 1} have
# the non-adjacent private mates 2 and 3 but are adjacent themselves.
@pytest.mark.parametrize("dd", [{2, 3}, {0, 1}])
def test_private_pair_check_rejects_each_broken_structure(monkeypatch, dd):
    g = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    monkeypatch.setattr(verify, "_equality_graphs", lambda rng, budget: [g] * budget)
    monkeypatch.setattr(
        verify, "enumerate_min_k_dominating", lambda g, k: [frozenset(dd)]
    )
    check = _fails_on_every_instance("private-pair")
    assert check.counterexample == _render(g)


def test_report_ordering_is_stable():
    report = run_verify(seed=0, budget=1)
    names = [c.name for c in report.checks]
    assert names == sorted(names)


def test_json_report_shape():
    report = run_verify(scope="join", seed=0, budget=2)
    doc = json.loads(report.to_json())
    assert doc["seed"] == 0
    assert doc["checks"][0]["name"] == "join-c4-collapse"
    assert doc["checks"][0]["passed"] == 2
    for entry in doc["checks"]:
        assert list(entry) == [
            "name", "instances", "passed", "counterexample", "seconds",
        ]


def test_text_report_mentions_every_check():
    report = run_verify(seed=0, budget=1)
    text = report.to_text()
    for name in _CHECKS:
        assert name in text
