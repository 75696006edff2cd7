"""conreal benchmark: one workload, one process, a fixed list of operations.

    python3 conbench/run.py --workload reals|ivt|discrete --seed N --seconds S --trace 0|1

Run from the root of a checkout; conreal is imported from ``src/``.  The run
makes ``rounds(S)`` rounds of seeded operations, runs them all in order with
one caller (a closed loop, no threads), checks every answer against the
oracles in ``checks``, and prints one JSON object as its last line:

* ``--trace 0`` times each operation against the interleaved reference
  computation (``reference``) and reports the end-to-end metrics in nominal
  units; raw wall-clock figures are printed on the line before.
* ``--trace 1`` runs the same operations untraced and then traced, and
  reports the per-layer counts and self times plus the tracing overhead.

Results and span files go to ``conbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

# The benchmark writes no bytecode caches of its own; see measure_setup for how
# it keeps from reading those that other runs left in the checkout.
sys.dont_write_bytecode = True

import plan  # noqa: E402
import reference  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
NO_BYTECODE = OUT / "no-bytecode"
"""A bytecode cache prefix that never holds a file, so imports compile from source."""
ROUND_S = 5
"""Nominal seconds of one round; a run makes one round per ROUND_S of --seconds."""
SETUPS = 7
"""Fresh imports of conreal per run; setup_s is their median."""


def rounds(seconds: int) -> int:
    return max(1, round(seconds / ROUND_S))


def fresh_import(baseline: set[str]):
    """Import conreal and its CLI as a new process would, dropping what an
    earlier import of them loaded."""
    for name in [m for m in sys.modules if m not in baseline]:
        del sys.modules[name]
    package = importlib.import_module("conreal")
    importlib.import_module("conreal.cli")
    return package


def measure_setup():
    """Import conreal SETUPS times, each compiling its sources afresh.

    An untimed first import loads the stdlib modules conreal needs, from their
    installed caches, as any process does.  Then the bytecode cache prefix points
    at an empty directory, so each timed import compiles conreal's modules from
    source whatever ``__pycache__`` directories the checkout holds."""
    importlib.import_module("conreal.cli")
    baseline = {m for m in sys.modules if m != "conreal" and not m.startswith("conreal.")}
    sys.pycache_prefix = str(NO_BYTECODE)
    times = []
    for _ in range(SETUPS):
        gc.collect()
        before = reference.reference()
        t0 = time.perf_counter()
        package = fresh_import(baseline)
        elapsed = time.perf_counter() - t0
        after = reference.reference()
        times.append((elapsed, elapsed * reference.NOMINAL_S / statistics.median((before, after))))
    sys.pycache_prefix = None
    return package, times


def run_ops(ops, package, timed: bool, tracer: Tracer | None = None):
    """Run every op once in order; returns (raw times, reference times, verdicts).

    With a tracer, it records only while an op runs, never during a check."""
    raw, refs, verdicts = [], [], []
    for op in ops:
        gc.collect()
        if timed:
            refs.append(reference.reference())
        t0 = time.perf_counter()
        if tracer:
            tracer.on = True
        try:
            answer = op.call(package)
            failure = None
        except Exception as e:  # an op that raises is a failed op, reported below
            answer, failure = None, f"{type(e).__name__}: {e}"
        finally:
            if tracer:
                tracer.on = False
        raw.append(time.perf_counter() - t0)
        verdicts.append(("failed", failure) if failure else ("checked", op.check(answer)))
    return raw, refs, verdicts


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def summarize(verdicts, ops) -> tuple[int, bool, list[str]]:
    failed = sum(1 for kind, _ in verdicts if kind == "failed")
    wrong = [f"{op.cls}: {why}" for op, (kind, why) in zip(ops, verdicts) if kind == "checked" and why]
    errors = [f"{op.cls}: {why}" for op, (kind, why) in zip(ops, verdicts) if kind == "failed"]
    return failed, not wrong, wrong + errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "conreal" / "__init__.py").is_file():
        print(f"error: no conreal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    for _ in range(20):  # let the reference reach its steady speed
        reference.reference()
    oracle = plan.Oracle()
    package, setups = measure_setup()
    ops = plan.make_ops(args.workload, args.seed, rounds(args.seconds), oracle)
    # The collector skips everything alive now (the op list, the oracles, the
    # package), so a collection before or during an op costs what the op left.
    gc.collect()
    gc.freeze()

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result, detail = traced(ops, package, OUT / f"{name}-spans.bin")
    else:
        result, detail = timed(ops, package, setups)
    with open(OUT / f"{name}.json", "w") as f:
        json.dump({"args": vars(args), "result": result, "detail": detail}, f, indent=1)
    for line in detail["problems"][:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def timed(ops, package, setups):
    raw, refs, verdicts = run_ops(ops, package, timed=True)
    cal = reference.calibrate(raw, refs)
    failed, correct, problems = summarize(verdicts, ops)
    unresolved = [c for c, op in zip(cal, ops) if op.unresolved]
    raw_unresolved = [r for r, op in zip(raw, ops) if op.unresolved]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "ops_per_s": (len(ops) / sum(cal), "1/s"),
        "op_p50_ms": (1000 * statistics.median(cal), "ms"),
        "op_p90_ms": (1000 * p90(cal), "ms"),
        "unresolved_p50_ms": (1000 * statistics.median(unresolved), "ms"),
        "setup_s": (statistics.median(c for _, c in setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    raw_metrics = {
        "ops_per_s": len(ops) / sum(raw),
        "op_p50_ms": 1000 * statistics.median(raw),
        "op_p90_ms": 1000 * p90(raw),
        "unresolved_p50_ms": 1000 * statistics.median(raw_unresolved),
        "setup_s": statistics.median(r for r, _ in setups),
        "reference_ms": 1000 * statistics.median(refs),
    }
    print("raw (wall clock, uncalibrated): " + json.dumps(raw_metrics))
    by_class: dict[str, list[float]] = {}
    for c, op in zip(cal, ops):
        by_class.setdefault(op.cls, []).append(1000 * c)
    detail = {
        "raw": raw_metrics,
        "ops": len(ops),
        "unresolved_ops": len(unresolved),
        "class_quartiles_ms": {k: statistics.quantiles(v, n=4) if len(v) > 1 else v
                               for k, v in sorted(by_class.items())},
        "class_count": {k: len(v) for k, v in sorted(by_class.items())},
        "problems": problems,
    }
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, detail


def traced(ops, package, spans_path):
    untraced, _, _ = run_ops(ops, package, timed=False)
    tracer = Tracer()
    tracer.install(package)
    raw, _, verdicts = run_ops(ops, package, timed=False, tracer=tracer)
    failed, correct, problems = summarize(verdicts, ops)
    metrics = tracer.metrics()
    metrics["trace.overhead"] = (sum(raw) / sum(untraced), "x")
    tracer.write(spans_path)
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = {"untraced_s": sum(untraced), "traced_s": sum(raw), "spans": len(tracer.span_name),
              "problems": problems}
    return result, detail


if __name__ == "__main__":
    sys.exit(main())
