"""Acceptance gate.

Ten end-to-end criteria, each printing one PASS/FAIL line with its wall
time (the stated per-criterion time budget is asserted too).  Criteria
2-4 and 6-10 run the ``gamma2 verify`` check bodies, each on its own RNG
keyed ``acceptance:N``, so the gate is reproducible and checks exactly
what ``verify`` checks.
"""

import random
import time

from gamma2 import (
    CnfFormula,
    all_four_vertex_graphs,
    gadget_a,
    gadget_b,
    gamma_k,
    gamma_k_bruteforce,
    reduce_3sat,
)
from gamma2.constructions import cycle
from gamma2.formats import to_text
from gamma2.verify import _CHECKS, perfect_fixtures


def _verdict(capsys, number, title, budget_s, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
        )
    except BaseException:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"criterion {number} ({title}): FAIL in {elapsed:.1f}s")
        raise
    with capsys.disabled():
        print(f"criterion {number} ({title}): PASS in {elapsed:.1f}s")


def _run_check(name, number, count):
    """Run the ``gamma2 verify`` body of check ``name`` on ``count``
    instances drawn from the criterion's own RNG; each must pass.  A
    failing instance is rendered only for the assertion message."""
    body, _ = _CHECKS[name]
    instances = 0
    for ok, item in body(random.Random(f"acceptance:{number}"), count):
        instances += 1
        assert ok, f"{name}, instance {instances}, counterexample:\n{to_text(item)}"
    assert instances == count, f"{name} ran {instances} of {count} instances"


def test_criterion_1_cycle_formulas(capsys):
    def body():
        for n in range(3, 16):
            g = cycle(n)
            assert gamma_k(g, 1).number == -(-n // 3)
            assert gamma_k(g, 2).number == -(-n // 2)

    _verdict(capsys, 1, "cycle domination formulas", 1.0, body)


def test_criterion_2_lower_bound(capsys):
    _verdict(
        capsys, 2, "k-domination lower bound on 500 random graphs", 30.0,
        lambda: _run_check("gamma-k-lower-bound", 2, 500),
    )


def test_criterion_3_specified_set_is_minimum(capsys):
    _verdict(
        capsys, 3, "2-domination number of 100 built instances", 60.0,
        lambda: _run_check("specified-set-2domination", 3, 100),
    )


def test_criterion_4_recognition_cross_validation(capsys):
    _verdict(
        capsys, 4, "recognizer vs oracle on 200 instances", 300.0,
        lambda: _run_check("recognition-cross-validation", 4, 200),
    )


def test_criterion_5_gadget_values(capsys):
    def body():
        b = gadget_b().g
        assert gamma_k(b, 2).number == 4
        assert gamma_k(b, 1).number == 3
        for k in (2, 3, 4):
            g = gadget_a(k).g
            assert gamma_k(g, 2).number == k + 1
            assert gamma_k(g, 1).number <= k

    _verdict(capsys, 5, "gadget domination values", 10.0, body)


def test_criterion_6_sat_reduction(capsys):
    def body():
        # 2 unsatisfiable fixtures, then every third formula random and
        # the others covering: 48 covering and 24 random
        _run_check("sat-reduction-equivalence", 6, 74)
        for f in (
            CnfFormula(3, ((1, 2, 3),)),
            CnfFormula(3, ((1, -2, 3), (-1, 2, -3))),
        ):
            g = reduce_3sat(f).instance.g
            for k in (1, 2):
                assert gamma_k(g, k).number == gamma_k_bruteforce(g, k).number

    _verdict(capsys, 6, "3-SAT reduction equivalence on 74 formulas", 600.0, body)


def test_criterion_7_hereditary_triple_agreement(capsys):
    _verdict(
        capsys, 7, "hereditary-equality triple agreement", 300.0,
        lambda: _run_check("perfect-triple-agreement", 7, len(perfect_fixtures()) + 300),
    )


def test_criterion_8_matching_oracle(capsys):
    _verdict(
        capsys, 8, "matching oracle agreement on 3 fixtures and 300 graphs", 30.0,
        lambda: _run_check("matching-oracle", 8, 303),
    )


def test_criterion_9_four_vertex_joins(capsys):
    def body():
        assert len(all_four_vertex_graphs()) == 11
        _run_check("join-c4-collapse", 9, 11)

    _verdict(capsys, 9, "join-to-4-cycle equality over 11 graphs", 5.0, body)


def test_criterion_10_underlying_roundtrip(capsys):
    _verdict(
        capsys, 10, "underlying-graph round trip on 100 specs", 30.0,
        lambda: _run_check("underlying-roundtrip", 10, 100),
    )
