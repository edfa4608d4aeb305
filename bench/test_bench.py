"""Self-tests of the benchmark: determinism, expected answers, tracing.

Run from the root of a checkout with ``python3 -m pytest bench``.  The
expected answers the workloads check against come from how each input was
built; these tests prove them against the brute-force oracles at sizes
the oracles accept, instead of assuming them.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

API = W.Api()
solvers = API.solvers

_DIGEST = (
    "import hashlib, sys; sys.path[:0] = ['src', 'bench']; import workloads as W; "
    "api = W.Api(); h = hashlib.sha256()\n"
    "for cls in (W.Recognize, W.Solve):\n"
    "    w = cls(api, 7)\n"
    "    for f in w.families:\n"
    "        for c in w.pool[f]: h.update(c.text.encode() + repr(c.expect).encode())\n"
    "print(h.hexdigest())"
)


def _brute_equal(g) -> bool:
    return (
        solvers.gamma_k_bruteforce(g, 1).number
        == solvers.gamma_k_bruteforce(g, 2).number
    )


def test_same_seed_gives_identical_inputs_across_processes():
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_other_seed_gives_other_inputs():
    a, b = W.Recognize(API, 7), W.Recognize(API, 8)
    for family in a.families:
        assert [c.text for c in a.pool[family]] != [c.text for c in b.pool[family]]
    v = W.Verify(API, 7)
    assert v.case(3, "join-c4-collapse").expect == ("join-c4-collapse", 10)


def test_spread_sizes_cover_the_range_in_every_prefix():
    sizes = W.spread_sizes(3, 150, 300, 24)
    assert sorted(sizes) == sorted(W.spread_sizes(4, 150, 300, 24))
    assert all(150 <= s <= 300 for s in sizes)
    for prefix in (8, 16, 24):
        head = sorted(sizes[:prefix])
        assert head[0] < 150 + 151 / prefix * 2
        assert head[-1] > 300 - 151 / prefix * 2


@pytest.mark.parametrize("family", list(W.RECOGNIZE_FAMILIES))
def test_recognize_families_get_their_verdict_from_brute_force(family):
    sizes = (2, 3, 4, 5) if family == "dag-star" else (4, 5, 6)
    for seed in range(6):
        for size in sizes:
            case = W.recognize_case(API, seed, family, 0, size)
            inst = API.formats.parse_instance(case.text)
            assert len(inst.d) <= 6 and inst.g.n <= 22
            assert _brute_equal(inst.g) == case.expect.equal, (family, seed, size)
            assert W.run_recognize(API, case) == (1, 0)


def test_cycle_expectations_match_brute_force():
    for family in ("cycle-k1", "cycle-k2"):
        for n in range(3, 23):
            case = W.cycle_case(API, family, n)
            g = API.formats.parse_graph(case.text)
            ((k, (low, high)),) = case.expect.items()
            assert low == high == solvers.gamma_k_bruteforce(g, k).number, (family, n)


def test_gap_expectations_match_brute_force():
    # Triple cover needs six variables, which is beyond brute force; below
    # that the gamma_2 value and the satisfiable bound are checked here.
    from itertools import product

    every_polarity = API.solvers.CnfFormula(
        3, tuple((a, 2 * b, 3 * c) for a, b, c in product((1, -1), repeat=3))
    )
    rng = random.Random(5)
    formulas = [every_polarity, API.solvers.CnfFormula(3, every_polarity.clauses[1:])]
    for _ in range(8):
        num_vars = rng.choice((3, 4))
        formulas.append(
            W.random_formula(API, rng, num_vars, rng.randint(1, 16 - 3 * num_vars))
        )
    outcomes = set()
    for f in formulas:
        red = API.constructions.reduce_3sat(f)
        assert red.instance.g.n <= 22
        sat = solvers.cnf_satisfiable(f) is not None
        outcomes.add(sat)
        for k, (low, high) in W.gap_expect(f.num_vars, sat, red.triple_cover).items():
            assert low <= solvers.gamma_k_bruteforce(red.instance.g, k).number <= high
    assert outcomes == {True, False}


def test_solve_pool_answers_hold_for_a_sample():
    # At full size the expected answers meet a second route: the exact
    # solver against closed forms, the tree dynamic program plus brute
    # force per part, and the satisfiability sweep under triple cover.
    solve = W.Solve(API, 3)
    for family in solve.families:
        for case in sorted(solve.pool[family], key=lambda c: len(c.text))[:4]:
            assert W.run_solve(API, case) == (1, 0)


def test_tree_dynamic_program_matches_brute_force():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 18)
        edges = W.random_tree(rng, n)
        g = API.graph.from_edges(n, edges)
        assert W.tree_domination_number(n, edges) == solvers.gamma_k_bruteforce(g, 1).number


def test_wrong_answer_is_a_mismatch():
    case = W.cycle_case(API, "cycle-k1", 9)
    wrong = W.Case(case.family, case.text, {1: (4, 4)})
    with pytest.raises(W.Mismatch):
        W.run_solve(API, wrong)


def test_tracer_wraps_nested_calls_and_accounts_for_all_time():
    tracer = tracing.Tracer()
    recognition = API.recognition
    original = recognition.from_edges
    case = W.recognize_case(API, 1, "dag-star", 0, 8)
    tracer.install()
    try:
        assert recognition.from_edges is not original
        with tracer.operation(0):
            W.run_recognize(API, case)
    finally:
        tracer.uninstall()
    assert recognition.from_edges is original
    summary = tracer.summary()
    assert summary["op"]["calls"] == 1
    assert summary["recognition.recognize_h"]["calls"] == 1
    assert summary["matching.maximum_matching"]["calls"] == 8
    assert tracer.counters["recognition.matching_calls"] == 8
    op_time = summary["op"]["total_s"]
    assert math.isclose(sum(s["self_s"] for s in summary.values()), op_time, rel_tol=1e-9)
    assert all(s["self_s"] >= -1e-9 for s in summary.values())


def test_quantile_is_a_smoothed_percentile():
    assert run.quantile([7.0], 50) == 7.0
    assert math.isclose(run.quantile([3.0] * 40, 90), 3.0)
    # symmetric data: the median estimate is the centre
    assert math.isclose(run.quantile([1.0, 2.0, 4.0, 6.0, 7.0], 50), 4.0)
    values = [float(i) for i in range(101)]
    assert math.isclose(run.quantile(values, 50), 50.0)
    assert 88.0 < run.quantile(values, 90) < 92.0
    # a lump on either side: the estimate moves smoothly between them
    lumpy = [10.0] * 50 + [20.0] * 50
    assert 14.0 < run.quantile(lumpy, 50) < 16.0


def test_loop_stops_at_the_end_of_a_round():
    class Tiny(W.Workload):
        name = "tiny"
        families = ("a", "b")
        round_cycles = 3

        def case(self, cycle, family):
            return W.Case(family, f"{family}{cycle}", None)

        def run(self, case):
            return 1, 0

    result = run.run_loop(Tiny(API, 1), seconds=0.0, min_ops=1)
    assert result.cycles == 3 and len(result.latencies) == 6
    assert W.Solve.pool_cycles % W.Solve.round_cycles == 0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_run_prints_the_result_line_and_provenance():
    out = _bench(ROOT, "--workload", "verify", "--seed", "2", "--seconds", "0.1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    report, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert report["ops_per_family"] == {check: 1 for check in W.VERIFY_CHECKS}
    assert report["provenance"]["nproc"] == os.cpu_count()


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", "solve", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert out.stdout == ""
