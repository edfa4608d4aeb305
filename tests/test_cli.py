"""Command-line behaviour: output shapes and the exit-code contract.

This file is the one home of the ``gamma2`` command's pins.  Tier-1 runs
it on ``src/``; CI runs it again on the installed package with
``python -m pytest -o pythonpath= tests/test_cli.py``.
"""

import hashlib
import io
import json
import random

import pytest

from gamma2 import cli, formats, solvers
from gamma2.cli import main
from gamma2.constructions import cycle, petersen, reduce_3sat
from gamma2.graph import from_edges
from gamma2.solvers import cnf_satisfiable
from gamma2.verify import UNSAT_COVERED_6, UNSAT_COVERED_7, covered_formula

C4_C4 = "8 8\n0 1\n1 2\n2 3\n3 0\n4 5\n5 6\n6 7\n7 4\n"
C4_C5 = "9 9\n0 1\n1 2\n2 3\n3 0\n4 5\n5 6\n6 7\n7 8\n8 4\n"


@pytest.fixture
def c4_file(tmp_path):
    target = tmp_path / "c4.txt"
    target.write_text(formats.graph_to_text(cycle(4)))
    return str(target)


@pytest.fixture
def c5_file(tmp_path):
    target = tmp_path / "c5.txt"
    target.write_text(formats.graph_to_text(cycle(5)))
    return str(target)


def test_gen_a_writes_instance_json(capsys):
    assert main(["gen", "a", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 13
    assert len(doc["d"]) == 5


def test_gen_s_and_t6(capsys):
    assert main(["gen", "s", "2,3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 8
    assert main(["gen", "t6"]) == 0
    g = formats.parse_graph(capsys.readouterr().out)
    assert g.n == 6 and g.m == 5


def test_gen_and_reduce_output_is_pinned(tmp_path, capsys):
    assert main(["gen", "t6"]) == 0
    assert capsys.readouterr().out == "6 5\n0 1\n0 2\n0 3\n1 4\n1 5\n"
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    assert main(["reduce", str(cnf)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "d51eb8a9508b322285339c6f6b743a1aaec5f043a1bcab3a661c744b8240d0d0"
    )


def test_gen_s_rejects_garbage(capsys):
    assert main(["gen", "s", "2,x"]) == 2
    assert "error:" in capsys.readouterr().err
    # "".split(",") is [""], so an empty list fails as a non-integer.
    assert main(["gen", "s", ""]) == 2
    assert "comma-separated integers" in capsys.readouterr().err
    assert main(["gen", "s", "2,1"]) == 2
    assert "multiplicity must be an int >= 2, got 1" in capsys.readouterr().err


def test_gen_joinc4_outputs_graph_text(capsys, c4_file):
    assert main(["gen", "joinc4", c4_file]) == 0
    g = formats.parse_graph(capsys.readouterr().out)
    assert g.n == 8


def test_gen_out_writes_file(tmp_path, capsys):
    target = tmp_path / "b.json"
    assert main(["gen", "b", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["n"] == 8


def test_gen_random_h_reports_an_exhausted_attempt_budget(capsys):
    # --ep 1 draws K5, which has triangles, on every one of the attempts
    assert main(["gen", "random-h", "--size", "5", "--ep", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no instance found within the attempt budget" in captured.err


def test_gen_random_h_is_deterministic(capsys):
    assert main(["gen", "random-h", "--size", "4", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "random-h", "--size", "4", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "flag, value", [("--ep", "2"), ("--sp", "-1"), ("--ep", "nan")]
)
def test_gen_random_h_rejects_probabilities_outside_unit_interval(
    capsys, flag, value
):
    assert main(["gen", "random-h", "--size", "3", flag, value]) == 2
    assert "probability" in capsys.readouterr().err


# The proof path: an unsatisfiable covered formula's reduction, where
# greedy is optimal and the whole search is the proof.  The primal side: a
# satisfiable covered formula's reduction, where greedy is one above the
# optimum at k = 1; at k = 2 the greedy set less its redundant vertices
# already has 9, so the chain is one failing decision at cap 8.
@pytest.mark.parametrize(
    "formula, k, expected",
    [
        (UNSAT_COVERED_7, 1, "gamma_1 = 9\nwitness: 0 1 2 3 4 5 6 7 8\n"),
        (covered_formula(random.Random(1), 7), 1,
         "gamma_1 = 8\nwitness: 3 5 9 11 16 19 21 23\n"),
        (covered_formula(random.Random(1), 7), 2,
         "gamma_2 = 9\nwitness: 0 1 2 3 4 5 6 7 8\n"),
    ],
)
def test_solve_on_3sat_reductions_is_pinned(tmp_path, capsys, formula, k, expected):
    target = tmp_path / "gap.txt"
    target.write_text(formats.graph_to_text(reduce_3sat(formula).instance.g))
    assert main(["solve", "--k", str(k), str(target)]) == 0
    assert capsys.readouterr().out == expected


def test_primal_side_formula_is_satisfiable():
    assert cnf_satisfiable(covered_formula(random.Random(1), 7)) is not None


def test_solve_prints_number_and_witness(capsys, c5_file):
    assert main(["solve", "--k", "2", c5_file]) == 0
    out = capsys.readouterr().out
    assert "gamma_2 = 3" in out
    assert out.splitlines()[1].startswith("witness:")


def test_match_prints_mu_and_mates(tmp_path, capsys):
    target = tmp_path / "petersen.txt"
    target.write_text(formats.graph_to_text(petersen()))
    assert main(["match", str(target)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mu = 5"
    mates = lines[1].split()[1:]
    assert len(mates) == 10 and "-1" not in mates


def test_match_prints_exposed_vertices_as_minus_one(tmp_path, capsys):
    target = tmp_path / "p2.txt"
    target.write_text("3 1\n0 1\n")
    assert main(["match", str(target)]) == 0
    assert capsys.readouterr().out == "mu = 1\nmate: 1 0 -1\n"


def test_recognize_h_equal_and_not_equal(tmp_path, capsys):
    inst_file = tmp_path / "b.json"
    assert main(["gen", "b", "--out", str(inst_file)]) == 0
    assert main(["recognize", "h", str(inst_file)]) == 1
    out = capsys.readouterr().out
    assert "NOT-EQUAL" in out and "certificate: bridge" in out

    star_file = tmp_path / "star.txt"
    star_file.write_text("4 3\n0 1\n0 2\n0 3\n")
    assert main(["gen", "dsub", str(star_file), "--out", str(inst_file)]) == 0
    assert main(["recognize", "h", str(inst_file)]) == 0
    assert "EQUAL" in capsys.readouterr().out


def test_readme_pipe_is_pinned(monkeypatch, capsys):
    # gamma2 gen b | gamma2 recognize h -, as the README shows it
    assert main(["gen", "b"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert main(["recognize", "h", "-"]) == 1
    assert capsys.readouterr().out == (
        "NOT-EQUAL\n"
        "certificate: bridge v1=0 u1=1 x1=(4,5) v2=2 u2=3 x2=(6,7)\n"
        "matching calls: 0\n"
    )


def test_recognize_h_prints_the_ring_certificate(monkeypatch, capsys):
    # gamma2 gen a 3 | gamma2 recognize h -
    assert main(["gen", "a", "3"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert main(["recognize", "h", "-"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "NOT-EQUAL",
        "certificate: ring center=0 spokes=(1,4,5) (2,6,7) (3,8,9)",
        "matching calls: 1",
    ]


def test_recognize_h_petersen_double_subdivision(tmp_path, capsys):
    # EQUAL, with one matching call per (vertex, incident edge)
    graph_file = tmp_path / "petersen.txt"
    graph_file.write_text(formats.graph_to_text(petersen()))
    inst_file = tmp_path / "petersen.json"
    assert main(["gen", "dsub", str(graph_file), "--out", str(inst_file)]) == 0
    assert main(["recognize", "h", str(inst_file)]) == 0
    assert capsys.readouterr().out.splitlines() == ["EQUAL", "matching calls: 30"]


def test_recognize_h_invalid_instance_exits_2(tmp_path, capsys):
    triangle_file = tmp_path / "k3.txt"
    triangle_file.write_text("3 3\n0 1\n1 2\n0 2\n")
    inst_file = tmp_path / "k3_inst.json"
    assert main(["gen", "dsub", str(triangle_file), "--out", str(inst_file)]) == 0
    assert main(["recognize", "h", str(inst_file)]) == 2
    assert "error:" in capsys.readouterr().err


def test_recognize_h_deeply_nested_json_exits_2(tmp_path, capsys):
    inst_file = tmp_path / "deep.json"
    inst_file.write_text("[" * 100000)
    assert main(["recognize", "h", str(inst_file)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_recognize_perfect_exit_codes(capsys, c4_file, c5_file):
    assert main(["recognize", "perfect", c4_file]) == 0
    assert "PERFECT" in capsys.readouterr().out
    assert main(["recognize", "perfect", c5_file]) == 1
    out = capsys.readouterr().out
    assert "NOT-PERFECT" in out and "reason:" in out


def test_recognize_perfect_names_the_failing_component(tmp_path, capsys):
    # C4 + C5 fails on the C5 component
    target = tmp_path / "c4c5.txt"
    target.write_text("9 9\n0 1\n1 2\n2 3\n3 0\n4 5\n5 6\n6 7\n7 8\n8 4\n")
    assert main(["recognize", "perfect", str(target)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["NOT-PERFECT", "failing component: 4 5 6 7 8"]


# C4 + C5 fails on its C5 component, and C4 + C4 passes
@pytest.mark.parametrize(
    "argv, graph, code, out",
    [
        (["recognize", "perfect"], formats.graph_to_text(cycle(4)), 0, "PERFECT\n"),
        (["oracle", "gamma-eq"], C4_C5, 1, "gamma = 4, gamma_2 = 5\nNOT-EQUAL\n"),
        (["oracle", "perfect"], C4_C5, 1, "NOT-PERFECT\n"),
        (["oracle", "perfect"], C4_C4, 0, "PERFECT\n"),
    ],
    ids=["recognize-perfect-c4", "gamma-eq-c4c5", "perfect-c4c5", "perfect-c4c4"],
)
def test_deciders_read_stdin_and_print_whole_verdicts(
    monkeypatch, capsys, argv, graph, code, out
):
    monkeypatch.setattr("sys.stdin", io.StringIO(graph))
    assert main([*argv, "-"]) == code
    assert capsys.readouterr().out == out


# a vertex of degree 1 is outside recognize_perfect's domain, and the
# exhaustive oracles refuse one vertex over their caps
@pytest.mark.parametrize(
    "argv, graph, err",
    [
        (["recognize", "perfect"], "3 2\n0 1\n1 2\n",
         "error: recognize_perfect needs minimum degree >= 2; vertex 0 has degree 1\n"),
        (["oracle", "perfect"], formats.graph_to_text(cycle(14)),
         "error: perfect_oracle accepts at most 13 vertices, got 14\n"),
        (["oracle", "gamma-eq"], formats.graph_to_text(cycle(23)),
         "error: is_gamma_gamma2_graph accepts at most 22 vertices, got 23\n"),
    ],
    ids=["recognize-perfect-p3", "perfect-c14", "gamma-eq-c23"],
)
def test_deciders_refuse_graphs_outside_their_domain(
    monkeypatch, capsys, argv, graph, err
):
    monkeypatch.setattr("sys.stdin", io.StringIO(graph))
    assert main([*argv, "-"]) == 2
    assert capsys.readouterr() == ("", err)


def test_oracle_gamma_eq_on_c4(capsys, c4_file):
    assert main(["oracle", "gamma-eq", c4_file]) == 0
    assert capsys.readouterr().out == "gamma = 2, gamma_2 = 2\nEQUAL\n"


def test_oracle_perfect_at_its_cap(tmp_path, capsys):
    # K_{2,11} on 13 vertices
    target = tmp_path / "k2_11.txt"
    k2_11 = from_edges(13, [(u, v) for u in (0, 1) for v in range(2, 13)])
    target.write_text(formats.graph_to_text(k2_11))
    assert main(["oracle", "perfect", str(target)]) == 0
    assert capsys.readouterr().out == "PERFECT\n"


def test_oracle_subcommands(capsys, c4_file, c5_file):
    assert main(["oracle", "perfect", c4_file]) == 0
    assert main(["oracle", "perfect", c5_file]) == 1
    capsys.readouterr()
    assert main(["oracle", "gamma-eq", c5_file]) == 1
    out = capsys.readouterr().out
    assert "gamma = 2, gamma_2 = 3" in out and "NOT-EQUAL" in out


def test_oracle_gamma_eq_guards_before_solving_once_each(
    tmp_path, capsys, monkeypatch, c5_file
):
    calls = []
    real = solvers.gamma_k

    def counting(g, k):
        calls.append(k)
        return real(g, k)

    monkeypatch.setattr(solvers, "gamma_k", counting)
    monkeypatch.setattr(cli, "gamma_k", counting)
    assert main(["oracle", "gamma-eq", c5_file]) == 1
    assert sorted(calls) == [1, 2]
    assert capsys.readouterr().out.splitlines() == [
        "gamma = 2, gamma_2 = 3",
        "NOT-EQUAL",
    ]
    calls.clear()
    big = tmp_path / "c23.txt"
    big.write_text(formats.graph_to_text(cycle(23)))
    assert main(["oracle", "gamma-eq", str(big)]) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == "" and "at most 22 vertices" in captured.err


def test_reduce_reports_precondition(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 -2 3 0\n")
    assert main(["reduce", str(cnf)]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["n"] == 3 * 3 + 1 + 3
    assert "precondition fails" in captured.err
    cnf.write_text(formats.cnf_to_text(UNSAT_COVERED_6))
    assert main(["reduce", str(cnf)]) == 0
    assert "triple-cover precondition holds" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["solve", "--k", "1", "/nonexistent/graph.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_graph_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 7\n")
    assert main(["match", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_solve_underscore_token_exits_2(tmp_path, capsys):
    bad = tmp_path / "underscore.txt"
    bad.write_text("12 1\n0 1_0\n")
    assert main(["solve", "--k", "1", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "a", "\u0663"],  # Arabic-Indic three
        ["gen", "a", "+3"],
        ["gen", "s", "1_0,2"],
        ["solve", "--k", "1_0", "-"],
        ["gen", "a", " 3"],
        ["solve", "--k", "2 ", "-"],
        ["gen", "s", "3, 2"],
    ],
)
def test_integer_arguments_are_ascii_decimal(capsys, argv):
    # int() reads all seven; only a whole -?[0-9]+ is an integer argument,
    # refused in argparse (which exits) or, for the multiplicity list, in main
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "integer" in captured.err


def test_negative_seed_is_an_integer(capsys):
    assert main(["verify", "--seed", "-1", "--budget", "1"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_verify_text_and_json(capsys):
    assert main(["verify", "--budget", "2"]) == 0
    assert "all checks passed" in capsys.readouterr().out
    assert main(["verify", "--budget", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert len(doc["checks"]) == 11


def test_verify_zero_budget_says_nothing_was_checked(capsys):
    assert main(["verify", "--budget", "0"]) == 0
    out = capsys.readouterr().out
    assert out == "verify: no instance was checked\n"
    assert "all checks passed" not in out


def test_verify_perfect_scope_reaches_the_forbidden_route(capsys):
    # the one console-script path to forbidden_subgraph_check: the
    # perfect-triple-agreement check compares it with the other two routes
    assert main(["verify", "--scope", "perfect", "--seed", "1", "--budget", "80"]) == 0
    out = capsys.readouterr().out
    assert "perfect-triple-agreement" in out
    assert out.splitlines()[-1] == "verify: all checks passed"


def test_verify_min_scope_passes(capsys):
    assert main(["verify", "--scope", "min-", "--seed", "1", "--budget", "10"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verify: all checks passed"


def test_verify_unknown_scope_names_itself(capsys):
    assert main(["verify", "--scope", "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: scope 'nosuch' matches no check")


def test_verify_scoped_json_report_carries_no_counterexample(capsys):
    argv = ["verify", "--scope", "sat", "--seed", "1", "--budget", "5"]
    assert main([*argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["checks"]
    assert all(c["counterexample"] is None for c in doc["checks"])


def test_verify_scope_filters(capsys):
    assert main(["verify", "--scope", "matching", "--budget", "3"]) == 0
    out = capsys.readouterr().out
    assert "matching-oracle" in out
    assert "sat-reduction" not in out


@pytest.mark.parametrize(
    "args", [["--scope", "typo"], ["--budget", "-3"], ["--scope", "typo", "--budget", "0"]]
)
def test_verify_rejects_requests_that_run_nothing(capsys, args):
    assert main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert "all checks passed" not in captured.out
    assert captured.err.startswith("error: ")


def test_verify_writes_counterexamples_on_failure(tmp_path, capsys, monkeypatch):
    import gamma2.verify as verify_mod

    def doomed(rng, budget):
        yield False, cycle(5)

    monkeypatch.setitem(verify_mod._CHECKS, "doomed-check", (doomed, 1))
    out_dir = tmp_path / "ce"
    assert main(["verify", "--scope", "doomed", "--out", str(out_dir)]) == 1
    assert "FAIL" in capsys.readouterr().out
    written = out_dir / "doomed-check.counterexample.txt"
    assert written.read_text() == formats.graph_to_text(cycle(5))
