"""Text formats: edge-list graphs, JSON instances, DIMACS CNF.

Parsers raise :class:`ParseError` with the offending line number; every
serializer round-trips through its parser, and :func:`to_text` picks one.
"""

from __future__ import annotations

import json
from typing import Any

from .constructions import PartitionedInstance
from .graph import Graph, from_edges
from .solvers import CnfFormula


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _check_decimal(text: str) -> None:
    """Raise ``ValueError`` if ``int()`` could read a token of ``text``
    that is not ASCII decimal (``-?[0-9]+``).

    ``int()`` also reads ``1_0`` as 10, ``+1`` as 1 and the digits of other
    scripts (Arabic-Indic one as 1).  On ASCII text without ``_`` or ``+``
    it reads only ``-?[0-9]+`` tokens, so every parser here checks a line
    with this before it calls ``int()`` on the line's tokens.
    """
    if not text.isascii() or "_" in text or "+" in text:
        raise ValueError(f"not ASCII decimal: {text!r}")


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((lineno, stripped))
    return out


# ---------------------------------------------------------------------------
# Edge-list graphs:  "n m" header, then m lines "u v"
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty graph file: expected an 'n m' header")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"expected header 'n m', got {header!r}", lineno)
    try:
        _check_decimal(header)
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"non-integer header {header!r}", lineno) from None
    if n < 0 or m < 0:
        raise ParseError(f"negative count in header {header!r}", lineno)
    body = lines[1:]
    if len(body) > m:
        raise ParseError(
            f"header promises {m} edges but the file has {len(body)}",
            body[m][0],
        )
    if len(body) < m:
        raise ParseError(
            f"header promises {m} edges but the file has {len(body)}"
        )
    edges = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            _check_decimal(line)
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer edge {line!r}", lineno) from None
        if u == v:
            raise ParseError(f"edge ({u}, {v}) is a self-loop", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(
                f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}", lineno
            )
        edges.append((u, v))
    return from_edges(n, edges)


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Instance JSON
# ---------------------------------------------------------------------------


def parse_instance(text: str) -> PartitionedInstance:
    """Parse the JSON instance format.

    Keys: ``n``, ``edges``, ``d``, ``pairs`` (each ``{"fu", "fv", "x"}``),
    optional ``labels``.  Only the JSON shape is checked here: vertices are
    integers in range (not JSON booleans), label keys are their decimal
    forms, each pair names two endpoints and two subdivision vertices, and
    no D-edge has two pairs.  The instance rules (which vertices are in D,
    how pairs may overlap) belong to :func:`gamma2.recognition.validate_h`.
    """
    try:
        data: Any = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("instance JSON must be an object")
    for key in ("n", "edges", "d", "pairs"):
        if key not in data:
            raise ParseError(
                f"missing key {key!r}; pair-labelled instances need it"
            )
    # JSON true and false load as bool, a subclass of int: no vertex or
    # count is a bool, hence ``type(...) is int``.
    n = data["n"]
    if type(n) is not int or n < 0:
        raise ParseError(f"'n' must be a non-negative integer, got {n!r}")

    def lists_vertices(value: Any) -> bool:
        return isinstance(value, list) and all(
            type(v) is int and 0 <= v < n for v in value
        )

    try:
        edges = [tuple(e) for e in data["edges"]]
        # from_edges rejects a bool too, but as a vertex outside 0..n-1
        if any(type(u) is bool or type(v) is bool for u, v in edges):
            raise ValueError("an endpoint is a boolean")
        g = from_edges(n, edges)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad edge list: {exc}") from exc

    if not lists_vertices(data["d"]):
        raise ParseError("'d' must list vertices in range")
    d = frozenset(data["d"])

    if not isinstance(data["pairs"], list):
        raise ParseError("'pairs' must be a list")
    pair_map: dict[tuple[int, int], tuple[int, int]] = {}
    for idx, entry in enumerate(data["pairs"]):
        if not isinstance(entry, dict) or not {"fu", "fv", "x"} <= set(entry):
            raise ParseError(f"pair #{idx} must have keys fu, fv, x")
        fu, fv, x = entry["fu"], entry["fv"], entry["x"]
        if not lists_vertices([fu, fv]):
            raise ParseError(f"pair #{idx}: 'fu' and 'fv' must be vertices")
        if not lists_vertices(x) or len(x) != 2:
            raise ParseError(f"pair #{idx}: 'x' must list two vertices")
        key = (min(fu, fv), max(fu, fv))
        if key in pair_map:
            raise ParseError(f"pair #{idx}: duplicate pair for edge {key}")
        pair_map[key] = (x[0], x[1])

    raw_labels = data.get("labels", {})
    if not isinstance(raw_labels, dict):
        raise ParseError("'labels' must be an object")
    labels: dict[int, str] = {}
    for key_str, value in raw_labels.items():
        try:
            _check_decimal(key_str)
            vertex = int(key_str)
        except ValueError:
            vertex = -1
        # only a vertex's own decimal form: not " 7", "07" or "-0"
        if not (0 <= vertex < n and str(vertex) == key_str):
            raise ParseError(f"label key {key_str!r} is not a vertex")
        labels[vertex] = str(value)

    return PartitionedInstance(g=g, d=d, pair_map=pair_map, labels=labels)


def instance_to_json(inst: PartitionedInstance) -> str:
    data: dict[str, Any] = {
        "n": inst.g.n,
        "edges": [list(e) for e in inst.g.edges()],
        "d": sorted(inst.d),
        "pairs": [
            {"fu": a, "fv": b, "x": list(inst.pair_map[(a, b)])}
            for a, b in sorted(inst.pair_map)
        ],
    }
    if inst.labels:
        data["labels"] = {str(v): name for v, name in sorted(inst.labels.items())}
    return json.dumps(data, indent=2) + "\n"


# ---------------------------------------------------------------------------
# DIMACS CNF
# ---------------------------------------------------------------------------


def parse_cnf(text: str) -> CnfFormula:
    """DIMACS: 'p cnf <vars> <clauses>', clauses as 0-terminated literals."""
    num_vars: int | None = None
    promised = 0
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError("duplicate problem line", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(
                    f"expected 'p cnf <vars> <clauses>', got {line!r}", lineno
                )
            try:
                _check_decimal(line)
                num_vars, promised = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"non-integer problem line {line!r}", lineno) from None
            continue
        if num_vars is None:
            raise ParseError("clause before the problem line", lineno)
        try:
            _check_decimal(line)
            tokens = [int(t) for t in line.split()]
        except ValueError:
            raise ParseError(f"non-integer literal in {line!r}", lineno) from None
        for token in tokens:
            if token == 0:
                if len(current) != 3:
                    raise ParseError(
                        f"clause {current} does not have exactly three "
                        f"literals",
                        lineno,
                    )
                clauses.append((current[0], current[1], current[2]))
                current = []
            else:
                current.append(token)
    if num_vars is None:
        raise ParseError("missing problem line")
    if current:
        raise ParseError(f"unterminated clause {current}")
    if len(clauses) != promised:
        raise ParseError(
            f"problem line promises {promised} clauses, found {len(clauses)}"
        )
    try:
        return CnfFormula(num_vars, tuple(clauses))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def cnf_to_text(f: CnfFormula) -> str:
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in f.clauses]
    return "\n".join(lines) + "\n"


def to_text(item: Graph | PartitionedInstance | CnfFormula) -> str:
    """``item``'s text, by the serializer of its exact type.  The serializer
    is looked up at each call, so a wrapper set on this module is the one
    called; any other type raises ``TypeError``."""
    serializer = {
        Graph: graph_to_text,
        PartitionedInstance: instance_to_json,
        CnfFormula: cnf_to_text,
    }.get(type(item))
    if serializer is None:
        raise TypeError(f"no text form for {type(item).__name__}")
    return serializer(item)
