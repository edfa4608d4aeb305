"""Command-line front end.

One binary, subcommand style::

    gamma2 gen a 4                     # ring gadget instance as JSON
    gamma2 gen joinc4 graph.txt        # graph joined to a 4-cycle
    gamma2 solve --k 2 graph.txt       # exact k-domination number
    gamma2 match graph.txt             # maximum matching
    gamma2 recognize h inst.json       # matching-based equality decision
    gamma2 recognize perfect graph.txt # hereditary-equality recognizer
    gamma2 oracle gamma-eq graph.txt   # exact gamma vs gamma_2, small graphs
    gamma2 oracle perfect graph.txt    # definitional hereditary oracle
    gamma2 reduce formula.cnf          # 3-SAT to domination-gap instance
    gamma2 verify --seed 0             # run every cross-validation suite

Exit codes: 0 success / positive verdict, 1 negative verdict or failed
check, 2 usage or parse error.  A path of ``-`` reads stdin.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import formats
from .constructions import (
    double_subdivision,
    gadget_a,
    gadget_b,
    gadget_s,
    gadget_t6,
    join_c4,
    random_h_instance,
    reduce_3sat,
)
from .matching import maximum_matching
from .recognition import (
    PERFECT_ORACLE_VERTEX_LIMIT,
    perfect_oracle,
    recognize_h,
    recognize_perfect,
)
from .solvers import BRUTE_FORCE_VERTEX_LIMIT, gamma_and_gamma2, gamma_k
from .verify import run_verify


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def integer(text: str) -> int:
    """The argparse type of every integer argument: the whole text is
    ASCII decimal (``-?[0-9]+``), the rule of the file formats, so ``+3``,
    ``1_0``, surrounding whitespace and other scripts' digits are usage
    errors."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not ASCII decimal: {text!r}")
    return int(text)


def _parse_multiplicities(raw: str) -> tuple[int, ...]:
    try:
        return tuple(integer(part) for part in raw.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {raw!r}")


def _cmd_gen(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "a":
        product = gadget_a(args.k)
    elif kind == "b":
        product = gadget_b()
    elif kind == "t6":
        product = gadget_t6()
    elif kind == "s":
        product = gadget_s(_parse_multiplicities(args.multiplicities))
    elif kind == "dsub":
        product = double_subdivision(formats.parse_graph(_read(args.graph)))
    elif kind == "joinc4":
        product = join_c4(formats.parse_graph(_read(args.graph)))
    else:  # random-h
        product = random_h_instance(args.size, args.ep, args.sp, seed=args.seed)
        if product is None:
            print(
                "no instance found within the attempt budget; "
                "lower --ep or retry with another --seed",
                file=sys.stderr,
            )
            return 1
    _emit(formats.to_text(product), args.out)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    formula = formats.parse_cnf(_read(args.cnf))
    reduction = reduce_3sat(formula)
    _emit(formats.to_text(reduction.instance), args.out)
    if reduction.triple_cover:
        note = (
            "triple-cover precondition holds: "
            "satisfiable <=> gamma < gamma_2"
        )
    else:
        note = (
            "triple-cover precondition fails: "
            "only satisfiable => gamma <= k+1 is guaranteed"
        )
    print(note, file=sys.stderr)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    g = formats.parse_graph(_read(args.graph))
    result = gamma_k(g, args.k)
    print(f"gamma_{args.k} = {result.number}")
    print("witness:", " ".join(str(v) for v in sorted(result.witness)))
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    g = formats.parse_graph(_read(args.graph))
    m = maximum_matching(g)
    print(f"mu = {m.size}")
    print("mate:", " ".join("-1" if x is None else str(x) for x in m.mate))
    return 0


def _cmd_recognize(args: argparse.Namespace) -> int:
    if args.what == "h":
        inst = formats.parse_instance(_read(args.target))
        verdict = recognize_h(inst)
        print("EQUAL" if verdict.equal else "NOT-EQUAL")
        if verdict.witness is not None:
            print(verdict.witness.certificate())
        print(f"matching calls: {verdict.matching_calls}")
        return 0 if verdict.equal else 1
    # perfect
    g = formats.parse_graph(_read(args.target))
    verdict = recognize_perfect(g)
    if verdict.perfect:
        print("PERFECT")
        return 0
    print("NOT-PERFECT")
    comp = " ".join(str(v) for v in verdict.failing_component)
    print(f"failing component: {comp}")
    print(f"reason: {verdict.reason}")
    return 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = formats.parse_graph(_read(args.target))
    if args.what == "perfect":
        ok = perfect_oracle(g)
        print("PERFECT" if ok else "NOT-PERFECT")
        return 0 if ok else 1
    gamma, gamma2 = gamma_and_gamma2(g)
    ok = gamma == gamma2
    print(f"gamma = {gamma}, gamma_2 = {gamma2}")
    print("EQUAL" if ok else "NOT-EQUAL")
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verify(scope=args.scope, seed=args.seed, budget=args.budget)
    text = report.to_json() if args.format == "json" else report.to_text()
    sys.stdout.write(text)
    if args.out and not report.ok:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for check in report.checks:
            if check.counterexample:
                target = out_dir / f"{check.name}.counterexample.txt"
                target.write_text(check.counterexample, encoding="utf-8")
                print(f"counterexample written to {target}", file=sys.stderr)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamma2",
        description="Exact domination solvers, graph constructions, and the "
        "matching-based recognizer for domination-equality instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a fixture graph or instance")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gen_a = gen_sub.add_parser("a", help="ring gadget on a k-leaf star")
    gen_a.add_argument("k", type=integer, help="number of spokes, >= 2")
    gen_sub.add_parser("b", help="bridged pair of subdivided edges")
    gen_sub.add_parser("t6", help="edge with two pendant edges per end")
    gen_s = gen_sub.add_parser("s", help="doubled-subdivided star")
    gen_s.add_argument("multiplicities", help="comma-separated, each >= 2")
    gen_dsub = gen_sub.add_parser("dsub", help="double subdivision of a graph")
    gen_dsub.add_argument("graph", help="graph file, or - for stdin")
    gen_join = gen_sub.add_parser("joinc4", help="join a graph to a 4-cycle")
    gen_join.add_argument("graph", help="graph file, or - for stdin")
    gen_rand = gen_sub.add_parser("random-h", help="random instance, underlying girth >= 5")
    gen_rand.add_argument("--size", type=integer, required=True,
                          help="vertex count of the underlying graph")
    gen_rand.add_argument("--ep", type=float, default=0.35,
                          help="underlying edge probability")
    gen_rand.add_argument("--sp", type=float, default=0.25,
                          help="supplementary edge probability")
    gen_rand.add_argument("--seed", type=integer, default=0)
    for name in gen_sub.choices:
        gen_sub.choices[name].add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    reduce_p = sub.add_parser("reduce", help="3-SAT to domination-gap instance")
    reduce_p.add_argument("cnf", help="DIMACS CNF file, or - for stdin")
    reduce_p.add_argument("--out", default=None)
    reduce_p.set_defaults(func=_cmd_reduce)

    solve = sub.add_parser("solve", help="exact k-domination number")
    solve.add_argument("--k", type=integer, default=1,
                       help="domination order (gamma_k), default 1")
    solve.add_argument("graph", help="graph file, or - for stdin")
    solve.set_defaults(func=_cmd_solve)

    match = sub.add_parser("match", help="maximum matching")
    match.add_argument("graph", help="graph file, or - for stdin")
    match.set_defaults(func=_cmd_match)

    recog = sub.add_parser("recognize", help="polynomial recognizers")
    recog.add_argument("what", choices=("h", "perfect"))
    recog.add_argument("target",
                       help="instance JSON for h, graph file for perfect; - for stdin")
    recog.set_defaults(func=_cmd_recognize)

    oracle = sub.add_parser(
        "oracle",
        help="definitional hereditary oracle (perfect, "
        f"n <= {PERFECT_ORACLE_VERTEX_LIMIT}) or exact gamma vs gamma_2 "
        f"(gamma-eq, n <= {BRUTE_FORCE_VERTEX_LIMIT})",
    )
    oracle.add_argument("what", choices=("perfect", "gamma-eq"))
    oracle.add_argument("target", help="graph file, or - for stdin")
    oracle.set_defaults(func=_cmd_oracle)

    verify = sub.add_parser("verify", help="run the cross-validation suites")
    verify.add_argument("--scope", default=None,
                        help="only run checks whose name starts with this prefix")
    verify.add_argument("--seed", type=integer, default=0)
    verify.add_argument("--budget", type=integer, default=None,
                        help="instances per check (overrides defaults; 0 runs nothing)")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", default=None, help="counterexample directory")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ParseError, ConstructionError and InvalidHInstanceError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
