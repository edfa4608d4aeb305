"""Seeded end-to-end and per-layer benchmark of the gamma2 package.

Usage, from the root of a checkout::

    python3 bench/run.py --workload recognize --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``recognize``,
``solve`` and ``verify``.  Each is a closed loop with one caller and one
operation in flight; cycle c runs one operation of every family in turn,
and the loop stops at the first end of a round (see ``Workload``) after
``--seconds``.  Every operation checks its own output.

Set-up (``setup_s``) is importing the package from ``src/`` plus generating
and serializing the seeded inputs.  It is repeated ``SETUP_REPEATS`` times,
each after dropping the package from ``sys.modules``, and the median is
reported.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of the
repeats), ``ops_per_s``, ``op_p50_ms`` and ``op_p90_ms`` (smoothed percentiles
over every operation of the run, see ``quantile``; the sample count is in
the report line) and ``peak_rss_mb``.  Times are taken at a reference host
speed: a fixed pure-Python calibration kernel is timed before and after
every operation and every set-up repeat, and each time is scaled by
``KERNEL_REFERENCE_S`` over the kernel's time around it.  The raw wall-clock
throughput is ``loop_ops_per_s`` in the report line.  The share of failed
work is ``failed / attempted`` in the result line; for ``verify`` these
count check instances, elsewhere operations.

``--trace 1`` runs the loop untraced for half of ``--seconds``, then replays
the same cycles with every function in ``tracing.GROUPS`` wrapped, and
prints the per-layer metrics.  ``<group>_s`` is self time summed over the
traced operations, except ``solvers.gamma_k_s``, which is the inclusive time
of ``gamma_k`` (``solvers.self_s`` is its self time); these are raw
wall-clock seconds.
``recognition.scan_self_s`` is ``recognize_h`` minus ``validate_h``,
``from_edges`` and ``maximum_matching``.  ``family.<name>_s`` sums the
untraced operation times per family.  ``trace.overhead_ratio`` is
1 - (traced ops/s) / (untraced ops/s) over the same operations, both at
the reference speed, and
``trace.layer_share`` is the share of traced operation time that falls in
a wrapped call.  The spans are written to
``.bench_out/spans-<workload>-<seed>.tsv.gz``.

The line before the result line is a JSON report with provenance (git
commit when the checkout has one, a digest of ``src/``, Python version,
CPU count), operation counts per family and the first failing operation as
a replay key ``(workload, seed, op index)``; its input text is written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
#: An untraced run goes on past ``--seconds`` until it has this many
#: operations, so that at least ten lie beyond its 90th percentile.
MIN_OPS = 100
#: Reported times are at the host speed where the calibration kernel takes
#: this long (close to its fastest time on a 2-CPU x86-64 container with
#: Python 3.11).
KERNEL_REFERENCE_S = 1e-3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> (tracing group, field of ``Tracer.summary``)
LAYER_TIMES = {
    "formats.parse_s": ("formats.parse", "self_s"),
    "formats.parse_calls": ("formats.parse", "calls"),
    "formats.serialize_s": ("formats.serialize", "self_s"),
    "graph.from_edges_s": ("graph.from_edges", "self_s"),
    "graph.from_edges_calls": ("graph.from_edges", "calls"),
    "graph.components_s": ("graph.components", "self_s"),
    "graph.induced_subgraph_s": ("graph.induced_subgraph", "self_s"),
    "graph.induced_subgraph_calls": ("graph.induced_subgraph", "calls"),
    "constructions.build_s": ("constructions.build", "self_s"),
    "matching.maximum_matching_s": ("matching.maximum_matching", "self_s"),
    "matching.calls": ("matching.maximum_matching", "calls"),
    "matching.brute_force_s": ("matching.brute_force", "self_s"),
    "solvers.gamma_k_s": ("solvers.gamma_k", "total_s"),
    "solvers.gamma_k_calls": ("solvers.gamma_k", "calls"),
    "solvers.self_s": ("solvers.gamma_k", "self_s"),
    "solvers.oracle_s": ("solvers.oracle", "self_s"),
    "solvers.witness_check_s": ("solvers.witness_check", "self_s"),
    "recognition.validate_h_s": ("recognition.validate_h", "self_s"),
    "recognition.scan_self_s": ("recognition.recognize_h", "self_s"),
    "recognition.check_witness_s": ("recognition.check_witness", "self_s"),
    "recognition.hereditary_s": ("recognition.hereditary", "self_s"),
    "verify.self_s": ("verify.run_verify", "self_s"),
}
LAYER_COUNTERS = (
    "graph.from_edges_edges",
    "matching.aux_vertices",
    "matching.aux_edges",
    "recognition.matching_calls",
    "verify.instances",
)
FAMILIES = (
    *workloads.RECOGNIZE_FAMILIES,
    *workloads.SOLVE_FAMILIES,
    *workloads.VERIFY_CHECKS,
)


#: Every per-layer metric and its unit, in report order.
PER_LAYER = {
    **{name: "count" if part == "calls" else "s" for name, (_, part) in LAYER_TIMES.items()},
    **{name: "count" for name in LAYER_COUNTERS},
    "matching.perfect_ratio": "ratio",
    **{f"family.{f}_s": "s" for f in FAMILIES},
    "trace.overhead_ratio": "ratio",
    "trace.layer_share": "ratio",
    "trace.ops": "count",
    "trace.spans": "count",
}


#: The calibration kernel's data, built once at start-up.  A kernel that
#: built its own table timed the allocator as well, and the allocator's
#: state after a workload's set-up depends on the seed: on ``recognize``,
#: runs of seeds whose raw times matched read 7% apart once scaled.
_KERNEL_TABLE = {i: (i, str(i)) for i in range(3000)}


def calibration_kernel() -> int:
    """Fixed pure-Python work (~1 ms) that times the host's current speed.

    It never calls the package, so no change to the package moves it, and
    it reads only ``_KERNEL_TABLE``, so the heap the package leaves behind
    does not move it either.
    """
    table = _KERNEL_TABLE
    total = 0
    for _ in range(4):
        for key in table:
            total += len(table[key][1]) + key % 7
    return total + max(table, key=lambda k: -k)


def host_time() -> float:
    """The faster of two kernel timings (one may catch an interrupt)."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class LoopResult:
    cycles: int = 0
    latencies: list[float] = field(default_factory=list)
    kernel: list[float] = field(default_factory=list)
    family_ops: dict[str, int] = field(default_factory=dict)
    family_seconds: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    first_failure: dict | None = None

    def scaled(self) -> list[float]:
        """Operation latencies at the reference host speed.

        On a 2-CPU x86-64 container shared with other tenants, the same code
        ran up to 1.75x slower in phases lasting seconds, so raw throughput
        moved by ~25% between runs of identical inputs.  Scaling each operation by
        ``KERNEL_REFERENCE_S`` over the calibration kernel's time around it
        cut the spread of one fixed operation over a minute from 19% to
        1.5%.  A change that slows the kernel as much as the operations,
        such as a busy background thread, is scaled away with the host's
        own noise; ``loop_ops_per_s`` still shows it.
        """
        return [t * KERNEL_REFERENCE_S / k for t, k in zip(self.latencies, self.kernel)]

    @property
    def ops_per_s(self) -> float:
        """Operations per second at the reference host speed."""
        return len(self.latencies) / sum(self.scaled())

    @property
    def loop_ops_per_s(self) -> float:
        """Operations per second of wall time, calibration excluded."""
        return len(self.latencies) / sum(self.latencies)


def run_loop(
    workload: workloads.Workload,
    seconds: float | None = None,
    min_ops: int = 0,
    cycles: int | None = None,
    tracer: tracing.Tracer | None = None,
) -> LoopResult:
    """Closed loop until ``seconds`` pass and ``min_ops`` operations ran
    (then to the end of the workload's round, so every run holds each kind
    of input in its planned share), or until ``cycles`` cycles ran.  The
    calibration kernel runs before and after every operation, outside its
    timing."""
    out = LoopResult()
    start = time.perf_counter()
    while True:
        if cycles is not None and out.cycles >= cycles:
            break
        if (
            seconds is not None
            and out.cycles % workload.round_cycles == 0
            and len(out.latencies) >= min_ops
            and time.perf_counter() - start >= seconds
        ):
            break
        for family in workload.families:
            case = workload.case(out.cycles, family)
            op_index = len(out.latencies)
            error = None
            before = host_time()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    units, bad = workload.run(case)
                else:
                    with tracer.operation(op_index):
                        units, bad = workload.run(case)
            except workloads.Mismatch as exc:
                units, bad, error = 1, 1, str(exc)
            except Exception:  # a crash is a failed operation, not a stop
                units, bad, error = 1, 1, traceback.format_exc()
            elapsed = time.perf_counter() - t0
            out.kernel.append((before + host_time()) / 2)
            out.latencies.append(elapsed)
            out.family_ops[family] = out.family_ops.get(family, 0) + 1
            out.family_seconds[family] = out.family_seconds.get(family, 0.0) + elapsed
            out.attempted += units
            out.failed += bad
            if bad and out.first_failure is None:
                out.first_failure = {
                    "replay": [workload.name, workload.seed, op_index],
                    "family": family,
                    "error": error or f"{bad} of {units} instances failed",
                    "input": case.text,
                }
        out.cycles += 1
    return out


def set_up(name: str, seed: int) -> tuple[list[tuple[float, float]], workloads.Workload]:
    """Import the package and build the workload's inputs, several times.

    Returns (seconds, calibration kernel seconds around it) per repeat."""
    samples = []
    for _ in range(SETUP_REPEATS):
        for module in [m for m in sys.modules if m == "gamma2" or m.startswith("gamma2.")]:
            del sys.modules[module]
        workload = None
        gc.collect()
        before = host_time()
        start = time.perf_counter()
        workload = workloads.WORKLOADS[name](workloads.Api(), seed)
        elapsed = time.perf_counter() - start
        samples.append((elapsed, (before + host_time()) / 2))
    return samples, workload


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    if not git.is_dir():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


#: ``quantile`` weights order statistics as Harrell-Davis does for a
#: sample of this size, so that every estimate averages over a window of
#: about +-7% of the ranks around its percentile, however many operations
#: the run has.
QUANTILE_WINDOW = 50


def quantile(values: list[float], q: float) -> float:
    """Smoothed estimate of the q-th percentile (0 < q < 100).

    A weighted mean of all n order statistics, the i-th weighted by the
    Beta(p(m+1), (1-p)(m+1)) mass on ((i-1)/n, i/n], with p = q/100 and
    m = min(n, ``QUANTILE_WINDOW``); for m = n this is the Harrell-Davis
    estimator.  The ``solve`` mix is lumpy near its median: 15
    ``cycle-k2`` lengths, and between them the satisfiable ``gap``
    inputs, whose times range from 2 to 150 ms however the formula looks.
    There the plain sample median jumps from lump to lump as the seed
    changes; this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    p = q / 100
    m = min(n, QUANTILE_WINDOW)
    a, b = p * (m + 1), (1 - p) * (m + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 8  # midpoint rule within each order statistic's interval
    weights = [
        sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            for x in ((i + (j + 0.5) / steps) / n for j in range(steps))
        )
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def layer_metrics(tracer: tracing.Tracer, untraced: LoopResult, traced: LoopResult) -> dict[str, float]:
    summary = tracer.summary()
    values: dict[str, float] = {
        name: summary[group][part] for name, (group, part) in LAYER_TIMES.items()
    }
    values.update({name: tracer.counters.get(name, 0) for name in LAYER_COUNTERS})
    calls = summary["matching.maximum_matching"]["calls"]
    values["matching.perfect_ratio"] = (
        tracer.counters.get("matching.perfect", 0) / calls if calls else 0.0
    )
    for family in FAMILIES:
        values[f"family.{family}_s"] = untraced.family_seconds.get(family, 0.0)
    op_time = summary["op"]["total_s"]
    values["trace.overhead_ratio"] = 1 - traced.ops_per_s / untraced.ops_per_s
    values["trace.layer_share"] = 1 - summary["op"]["self_s"] / op_time
    values["trace.ops"] = len(traced.latencies)
    values["trace.spans"] = len(tracer.start)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gamma2" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'gamma2'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup, workload = set_up(args.workload, args.seed)
    loaded = Path(workload.api.formats.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        print(f"error: imported gamma2 from {loaded}, not from {SRC}", file=sys.stderr)
        return 2

    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "git_commit": git_commit(ROOT),
            "src_sha256": source_digest(SRC),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "setup_s_raw": [t for t, _ in setup],
    }

    if args.trace == 0:
        result = run_loop(workload, seconds=args.seconds, min_ops=MIN_OPS)
        scaled = result.scaled()
        values = {
            "setup_s": statistics.median(t * KERNEL_REFERENCE_S / k for t, k in setup),
            "ops_per_s": result.ops_per_s,
            "op_p50_ms": quantile(scaled, 50) * 1e3,
            "op_p90_ms": quantile(scaled, 90) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        runs = [result]
        report["percentile_samples"] = len(scaled)
    else:
        untraced = run_loop(workload, seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_loop(workload, cycles=untraced.cycles, tracer=tracer)
        finally:
            tracer.uninstall()
        values = layer_metrics(tracer, untraced, traced)
        units = PER_LAYER
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.tsv.gz"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["traced_ops_per_s"] = traced.ops_per_s
        result = untraced
        runs = [untraced, traced]

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    report.update({
        "ops_per_s": result.ops_per_s,
        "loop_ops_per_s": result.loop_ops_per_s,
        "kernel_s_median": statistics.median(result.kernel),
        "kernel_s_min": min(result.kernel),
        "cycles": result.cycles,
        "ops": len(result.latencies),
        "ops_per_family": result.family_ops,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
    })
    failure = next((r.first_failure for r in runs if r.first_failure), None)
    if failure is not None:
        op = failure["replay"][2]
        path = OUT / f"failure-{args.workload}-{args.seed}-{op}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(failure.pop("input"))
        failure["input_file"] = str(path.relative_to(ROOT))
        report["first_failure"] = failure
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
