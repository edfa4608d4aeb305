"""Spans around the package's public functions, taken from outside it.

``Tracer.install`` replaces each traced function at every module attribute
that refers to it (``recognition.from_edges``, ``formats.from_edges``,
``solvers.components``, ...), which is how the package calls its own
layers, so nested calls are caught without editing the package.  Each
call records one span (group, start, end, parent span, operation id) in
flat arrays; self times are derived from the spans after the run.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: span group -> functions (layer module, attribute) whose calls it covers.
#: Group 0 is the operation itself, opened by the benchmark loop.
GROUPS: dict[str, tuple[tuple[str, str], ...]] = {
    "op": (),
    "formats.parse": (
        ("formats", "parse_instance"),
        ("formats", "parse_graph"),
        ("formats", "parse_cnf"),
    ),
    "formats.serialize": (
        ("formats", "instance_to_json"),
        ("formats", "graph_to_text"),
        ("formats", "cnf_to_text"),
    ),
    "graph.from_edges": (("graph", "from_edges"),),
    "graph.components": (("graph", "components"), ("graph", "is_connected")),
    "graph.induced_subgraph": (("graph", "induced_subgraph"),),
    "constructions.build": (
        ("constructions", "build"),
        ("constructions", "reduce_3sat"),
        ("constructions", "random_h_instance"),
    ),
    "matching.maximum_matching": (("matching", "maximum_matching"),),
    "matching.brute_force": (("matching", "brute_force_maximum_matching"),),
    "solvers.gamma_k": (("solvers", "gamma_k"),),
    "solvers.oracle": (
        ("solvers", "gamma_k_bruteforce"),
        ("solvers", "enumerate_min_k_dominating"),
        ("solvers", "is_gamma_gamma2_graph"),
        ("solvers", "cnf_satisfiable"),
    ),
    "solvers.witness_check": (("solvers", "is_k_dominating"),),
    "recognition.validate_h": (("recognition", "validate_h"),),
    "recognition.recognize_h": (("recognition", "recognize_h"),),
    "recognition.check_witness": (("recognition", "check_witness"),),
    "recognition.hereditary": (
        ("recognition", "recognize_perfect"),
        ("recognition", "forbidden_subgraph_check"),
        ("recognition", "perfect_oracle"),
    ),
    "verify.run_verify": (("verify", "run_verify"),),
}
GROUP_NAMES = tuple(GROUPS)
OP = 0


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.group = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.current = -1
        self.op_id = -1
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, group: int) -> int:
        span = len(self.start)
        self.group.append(group)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.current = span
        self.start.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self.current = self.parent[span]

    @contextmanager
    def operation(self, op_id: int) -> Iterator[None]:
        """Root span of one benchmark operation; spans inside carry its id."""
        self.op_id = op_id
        span = self._open(OP)
        try:
            yield
        finally:
            self._close(span)
            self.op_id = -1

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn: Callable[..., Any], group: int, hook: Callable[..., None] | None) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._open(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every package module attribute
        bound to it."""
        wrappers: dict[int, Callable[..., Any]] = {}
        for group, targets in enumerate(GROUPS.values()):
            for layer, attr in targets:
                fn = getattr(sys.modules[f"gamma2.{layer}"], attr)
                wrappers[id(fn)] = self._wrap(fn, group, HOOKS.get(attr))
        modules = [
            m for name, m in sys.modules.items()
            if name == "gamma2" or name.startswith("gamma2.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- derivation --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its child spans."""
        own = [e - s for s, e in zip(self.start, self.end)]
        out = own[:]
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= own[span]
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per group: calls, inclusive seconds of outermost calls, self seconds."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in GROUP_NAMES}
        for span, own in enumerate(self.self_times()):
            group = self.group[span]
            entry = out[GROUP_NAMES[group]]
            entry["calls"] += 1
            entry["self_s"] += own
            parent = self.parent[span]
            if not self._inside(parent, group):
                entry["total_s"] += self.end[span] - self.start[span]
        return out

    def _inside(self, span: int, group: int) -> bool:
        while span >= 0:
            if self.group[span] == group:
                return True
            span = self.parent[span]
        return False

    def write(self, path: Path) -> None:
        """Write one tab-separated line per span, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart\tend\tparent\top\n")
            for span in range(len(self.start)):
                out.write(
                    f"{span}\t{GROUP_NAMES[self.group[span]]}\t{self.start[span]:.9f}"
                    f"\t{self.end[span]:.9f}\t{self.parent[span]}\t{self.op[span]}\n"
                )


# -- work counters, read from arguments and results --------------------------


def _from_edges(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("graph.from_edges_edges", result.m)


def _maximum_matching(tracer: Tracer, args: tuple, result: Any) -> None:
    g = args[0]
    tracer.count("matching.aux_vertices", g.n)
    tracer.count("matching.aux_edges", g.m)
    if 2 * result.size == g.n:
        tracer.count("matching.perfect")


def _recognize_h(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("recognition.matching_calls", result.matching_calls)


def _run_verify(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("verify.instances", sum(c.instances for c in result.checks))


HOOKS: dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "from_edges": _from_edges,
    "maximum_matching": _maximum_matching,
    "recognize_h": _recognize_h,
    "run_verify": _run_verify,
}
