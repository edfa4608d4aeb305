"""Text and JSON interchange formats."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamma2 import (
    CnfFormula,
    double_subdivision,
    from_edges,
    gadget_a,
    gadget_b,
    random_h_instance,
    validate_h,
)
from gamma2.cli import main
from gamma2.constructions import cycle, petersen
from gamma2.formats import (
    ParseError,
    cnf_to_text,
    graph_to_text,
    instance_to_json,
    parse_cnf,
    parse_graph,
    parse_instance,
    to_text,
)
from gamma2.matching import Matching, maximum_matching


# --- edge-list text --------------------------------------------------------


def test_parse_graph_canonical_example():
    text = "4 4\n0 1\n1 2\n2 3\n3 0\n"
    assert parse_graph(text) == cycle(4)


def test_parse_graph_comments_and_blank_lines():
    text = "# a square\n3 2\n\n0 1  # first edge\n1 2\n"
    g = parse_graph(text)
    assert g.n == 3 and g.m == 2


@given(
    st.integers(0, 12),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30),
)
def test_graph_roundtrip(n, raw_edges):
    edges = [(u % max(n, 1), v % max(n, 1)) for u, v in raw_edges if n and u % n != v % n]
    g = from_edges(n, edges)
    assert parse_graph(graph_to_text(g)) == g


@pytest.mark.parametrize(
    "text,line",
    [
        ("", None),                   # missing header
        ("x y\n", 1),                 # malformed header
        ("2 1\n0 1 2\n", 2),          # bad edge row
        ("2 1\n0 2\n", 2),            # endpoint out of range
        ("2 1\n0 0\n", 2),            # self-loop
        ("2 2\n0 1\n", None),         # fewer edges than promised
        ("2 1\n0 1\n1 0\n", 3),       # more edges than promised
        ("0 -1\n", 1),                # negative edge count, empty body
        ("3 -1\n0 1\n", 1),           # negative edge count
        ("-2 0\n", 1),                # negative vertex count
        # only ASCII decimal tokens: int() reads "1_0" as 10, "+1" as 1
        # and the Arabic-Indic digit one as 1
        ("12 1\n0 1_0\n", 2),
        ("12 1\n0 +1\n", 2),
        ("12 1\n0 \u0661\n", 2),
        ("1_0 0\n", 1),
        ("\u0661 0\n", 1),
        ("3 1 2\n0 1\n", 1),        # three header tokens
    ],
)
def test_parse_graph_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert err.value.line == line


# --- instance JSON ---------------------------------------------------------


def test_instance_json_roundtrip_on_gadgets():
    for inst in (gadget_b(), gadget_a(3), double_subdivision(petersen())):
        back = parse_instance(instance_to_json(inst))
        assert back.g == inst.g
        assert back.d == inst.d
        assert back.pair_map == inst.pair_map
        assert back.labels == inst.labels


def test_instance_json_shape():
    doc = json.loads(instance_to_json(gadget_b()))
    assert set(doc) == {"n", "edges", "d", "pairs", "labels"}
    assert doc["n"] == 8
    assert {"fu", "fv", "x"} == set(doc["pairs"][0])


def test_instance_json_without_labels():
    doc = json.loads(instance_to_json(gadget_b()))
    del doc["labels"]
    inst = parse_instance(json.dumps(doc))
    assert inst.labels == {}


def _tamper(mutate):
    doc = json.loads(instance_to_json(gadget_b()))
    mutate(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.pop("pairs"), "pairs"),
        (lambda d: d["pairs"].append(d["pairs"][0]), "duplicate"),
        (lambda d: d["d"].append(99), "range"),
        (lambda d: d["edges"].append([0, 0]), "loop"),
        (lambda d: d.update(pairs=5), "'pairs' must be a list"),
        (lambda d: d.update(labels=[1]), "'labels' must be an object"),
        # label keys: only the decimal form of a vertex in 0..n-1
        (lambda d: d["labels"].update({"99": "ghost"}), "label key '99'"),
        (lambda d: d["labels"].update({"-3": "neg"}), "label key '-3'"),
        (lambda d: d["labels"].update({" 2": "pad"}), "label key ' 2'"),
        (lambda d: d["labels"].update({"1_0": "ten"}), "label key '1_0'"),
        (lambda d: d["labels"].update({"\u0661": "one"}), "is not a vertex"),
        (lambda d: d["labels"].update({"01": "pad"}), "label key '01'"),
        (lambda d: d["labels"].update({"+1": "plus"}), "label key '+1'"),
        (lambda d: d["labels"].update({"-0": "neg"}), "label key '-0'"),
        # JSON booleans are not integers here
        (lambda d: d.update(n=True), "'n' must be a non-negative integer"),
        (lambda d: d["d"].append(True), "'d' must list vertices"),
        (lambda d: d["pairs"][0].update(fu=True), "'fu' and 'fv'"),
        (lambda d: d["pairs"][0].update(fv=False), "'fu' and 'fv'"),
        (lambda d: d["pairs"][0].update(x=[True, 5]), "'x' must list"),
        (lambda d: d["edges"].append([True, 2]), "boolean"),
        (lambda d: d["pairs"][0].pop("x"), "pair #0 must have keys fu, fv, x"),
    ],
)
def test_instance_json_structural_errors(mutate, needle):
    with pytest.raises(ParseError) as err:
        parse_instance(_tamper(mutate))
    assert needle in str(err.value)


@pytest.mark.parametrize(
    "mutate,rule",
    [
        (lambda d: d["pairs"][0].update(x=[4, 4]), "lists the same vertex twice"),
        (lambda d: d["pairs"][0].update(x=[0, 5]), "which is not a non-D vertex"),
        (
            lambda d: d["pairs"][0].update(fu=d["pairs"][0]["fv"]),
            "is not an ordered pair of D-vertices",
        ),
        (
            lambda d: d["pairs"][1].update(x=d["pairs"][0]["x"]),
            "belongs to two pairs",
        ),
    ],
)
def test_instance_rules_are_validate_h_errors(tmp_path, capsys, mutate, rule):
    # the parser checks only the JSON shape; validate_h owns these rules
    text = _tamper(mutate)
    assert any(rule in msg for msg in validate_h(parse_instance(text)))
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(text)
    assert main(["recognize", "h", str(inst_file)]) == 2
    assert rule in capsys.readouterr().err


def test_instance_json_rejects_non_json():
    with pytest.raises(ParseError):
        parse_instance("not json at all {")


def test_instance_json_nested_too_deeply_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_instance("[" * 100000)


# --- DIMACS CNF ------------------------------------------------------------


def test_parse_cnf_example():
    f = parse_cnf("c tiny\np cnf 3 1\n1 -2 3 0\n")
    assert f.num_vars == 3
    assert f.clauses == ((1, -2, 3),)


def test_parse_cnf_clause_across_lines():
    f = parse_cnf("p cnf 3 2\n1 -2\n3 0 -1\n2 -3 0\n")
    assert f.clauses == ((1, -2, 3), (-1, 2, -3))


def test_cnf_roundtrip():
    f = CnfFormula(4, ((1, -2, 3), (-1, 2, -4), (2, 3, 4)))
    assert parse_cnf(cnf_to_text(f)) == f


@pytest.mark.parametrize(
    "text",
    [
        "1 2 3 0\n",                  # missing header
        "p cnf 3 1\n1 2 0\n",         # clause too short
        "p cnf 3 1\n1 2 3 4 0\n",     # clause too long
        "p cnf 3 1\n1 1 2 0\n",       # repeated variable
        "p cnf 3 1\n1 2 4 0\n",       # literal out of range
        "p cnf 3 2\n1 2 3 0\n",       # fewer clauses than promised
        "p cnf 3 1\n1 2 3 0\n1 2 3 0\n",  # more clauses than promised
        "p cnf 3 1\n1 2 3\n",         # unterminated clause
        "p cnf 20 1\n1 2 1_0 0\n",    # not ASCII decimal: int() reads 10
        "p cnf 20 1\n1 2 \u0663 0\n",  # Arabic-Indic three: int() reads 3
        "p cnf 1_0 0\n",             # int() reads 10
        "p cnf \u0661 0\n",          # Arabic-Indic one: int() reads 1
    ],
)
def test_parse_cnf_errors(text):
    with pytest.raises(ParseError):
        parse_cnf(text)


@pytest.mark.parametrize(
    "parse, text, line, message",
    [
        (parse_instance, "[1]", None, "instance JSON must be an object"),
        (parse_cnf, "p cnf 3 0\np cnf 3 0\n", 2, "duplicate problem line"),
        (parse_cnf, "p dnf 3 1\n", 1, "expected 'p cnf <vars> <clauses>'"),
        (parse_cnf, "c no problem line\n", None, "missing problem line"),
    ],
)
def test_parse_errors_name_their_rule_and_line(parse, text, line, message):
    with pytest.raises(ParseError, match=message) as err:
        parse(text)
    assert err.value.line == line


def test_roundtrip_on_random_instances():
    for seed in range(5, 9):
        inst = random_h_instance(4, 0.4, 0.3, seed=seed)
        if inst is None:
            continue
        back = parse_instance(instance_to_json(inst))
        assert back.g == inst.g and back.pair_map == inst.pair_map


# --- one text form per object -------------------------------------------


def test_to_text_picks_the_serializer_by_type():
    f = CnfFormula(3, ((1, -2, 3),))
    assert to_text(petersen()) == graph_to_text(petersen())
    assert to_text(gadget_b()) == instance_to_json(gadget_b())
    assert to_text(f) == cnf_to_text(f)


def test_to_text_rejects_an_object_without_a_text_form():
    with pytest.raises(TypeError, match="Matching"):
        to_text(maximum_matching(cycle(4)))
