"""Paired benchmark runs of two checkouts, compared against BENCHMARK.json's bounds.

    python3 tools/ab.py --base DIR --head DIR [--workloads discrete,reals] \\
        [--seconds 20] [--pairs 5] [--seed 1] [--trace]

BASE and HEAD are two checkouts of the repository, for example a
``git archive`` of the parent commit unpacked into a temporary directory and
the working tree.  For each workload the script makes PAIRS pairs of runs of
each checkout's own benchmark command (``command`` in HEAD's BENCHMARK.json,
run from the checkout's root with ``--trace 0``), one process at a time.  The
side that runs first alternates from pair to pair, so a drift in machine speed
falls on both sides alike.

For each end-to-end metric it prints the median and the quartiles of each side,
the head/base ratio of the medians, in how many pairs head did better, and
whether the ratio stays within the metric's bound: head may be worse than base
by at most that fraction.  Below that table it prints each op class's median
latency on each side (the median over the side's runs of the class median that
the run wrote to ``conbench/out/<workload>-seed<S>-trace0.json``) and the
head/base ratio, so a change in a metric can be traced to the classes behind
it.  A run whose ``ops_per_s`` is below half of its side's median is named as
stalled; it is kept in the figures.  A run that fails, or whose answers were
not all correct, is named too.

With ``--trace``, each side also makes one traced 5 s run (``--trace 1``) per
workload at seeds 1 and 9001, and every count and bits row of the two runs is
printed as identical, or as base -> head.

Exit status: 0 when every run succeeded, every ratio is within its bound and
every traced row is identical, 1 otherwise, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


TRACE_SEEDS = (1, 9001)
TRACE_SECONDS = 5


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: int,
             trace: int = 0) -> dict:
    """The result object of one run, or {"error": why} when it gave none."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"no JSON result line: {lines[-1][:200]}"}


def class_medians(checkout: Path, workload: str, seed: int) -> dict[str, float]:
    """Each op class's median latency in ms, from the out-file of the last untraced
    run of workload at seed in checkout; {} when it cannot be read."""
    path = checkout / "conbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    try:
        by_class = json.loads(path.read_text())["detail"]["class_quartiles_ms"]
    except (OSError, json.JSONDecodeError, KeyError):
        return {}
    return {name: q[len(q) // 2] for name, q in by_class.items()}  # [q1, q2, q3], or [v]


def class_rows(base: list[dict], head: list[dict]) -> list[tuple[str, float | None, float | None]]:
    """(class, base median, head median) for each op class in the per-run class medians
    of the two sides, in the order they list them; None where a side never ran it."""
    rows = []
    for name in dict.fromkeys(name for runs in (base, head) for run in runs for name in run):
        medians = [statistics.median(v) if (v := [run[name] for run in runs if name in run])
                   else None for runs in (base, head)]
        rows.append((name, *medians))
    return rows


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(metric: dict, base: list[float], head: list[float]) -> dict:
    """Medians, quartiles, head/base ratio (1 when both medians are 0), pairs won by
    head, and the bound verdict."""
    higher = metric["better"] == "higher"
    bq, hq = quartiles(base), quartiles(head)
    ratio = hq[1] / bq[1] if bq[1] else float("inf") if hq[1] else 1.0
    worse_by = (1 - ratio) if higher else (ratio - 1)
    wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
    return {"base": bq, "head": hq, "ratio": ratio, "wins": wins,
            "within": worse_by <= metric["bound"]}


def stalled(runs: list[dict]) -> list[int]:
    """Indices of the runs below half of the median ops_per_s of their side."""
    rates = [r["metrics"]["ops_per_s"]["value"] for r in runs]
    median = statistics.median(rates)
    return [i for i, v in enumerate(rates) if v < median / 2]


def trace_rows(base: dict, head: dict) -> list[tuple[str, object, object]]:
    """(name, base value, head value) for each count and bits metric of two traced
    runs, in the order base then head lists them; None where a side lacks it."""
    runs = (base, head)
    names = dict.fromkeys(name for r in runs for name, m in r["metrics"].items()
                          if m["unit"] in ("count", "bits"))
    return [(name, *(r["metrics"].get(name, {}).get("value") for r in runs)) for name in names]


def failure(result: dict) -> str | None:
    """Why a run counts as failed, or None when it gave all its answers correctly."""
    if "error" in result or not result.get("correct") or result.get("failed"):
        return result.get("error", f"correct {result.get('correct')}, failed {result.get('failed')}")
    return None


def report_traces(base: Path, head: Path, command: list[str], workload: str) -> bool:
    """Print the traced rows of both checkouts at each trace seed; whether all are identical."""
    ok = True
    for seed in TRACE_SEEDS:
        runs = [run_once(checkout, command, workload, seed, TRACE_SECONDS, trace=1)
                for checkout in (base, head)]
        print(f"\n{workload}: traced counts, seed {seed}, {TRACE_SECONDS} s runs")
        failed = [(side, why) for side, r in zip(("base", "head"), runs) if (why := failure(r))]
        for side, why in failed:
            print(f"  {side} FAILED: {why}")
        if failed:
            ok = False
            continue
        for name, old, new in trace_rows(*runs):
            ok &= old == new
            print(f"  {name:<28} " + ("identical" if old == new else f"{old} -> {new}"))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: every workload in BENCHMARK.json")
    parser.add_argument("--seconds", type=int, default=None,
                        help="per run; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help=f"also compare traced counts at seeds {TRACE_SEEDS[0]} and {TRACE_SEEDS[1]}")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((args.head / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        parser.error(f"cannot read {args.head / 'BENCHMARK.json'}: {e}")
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    ok = True
    for workload in workloads:
        if args.trace:
            ok &= report_traces(args.base, args.head, spec["command"], workload)
        runs: dict[str, list[dict]] = {"base": [], "head": []}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                result = run_once(getattr(args, side), spec["command"], workload, args.seed, seconds)
                if "metrics" in result:
                    result["class_ms"] = class_medians(getattr(args, side), workload, args.seed)
                runs[side].append(result)
                rate = result.get("metrics", {}).get("ops_per_s", {}).get("value")
                print(f"{workload} pair {pair + 1} {side}: "
                      + (f"ops_per_s {rate:.0f}" if rate else result.get("error", "no metrics")),
                      file=sys.stderr, flush=True)
        print(f"\n{workload}: seed {args.seed}, {args.pairs} pairs of {seconds} s runs")
        for side, side_runs in runs.items():
            for i, r in enumerate(side_runs):
                if why := failure(r):
                    ok = False
                    print(f"  pair {i + 1} {side} FAILED: {why}")
        paired = [(n, b, h) for n, (b, h) in enumerate(zip(runs["base"], runs["head"]), 1)
                  if "metrics" in b and "metrics" in h]
        if not paired:
            ok = False
            print("  no pair with two complete runs: nothing to compare")
            continue
        for side, k in (("base", 1), ("head", 2)):
            for i in stalled([p[k] for p in paired]):
                print(f"  pair {paired[i][0]} {side} STALLED: ops_per_s "
                      f"{paired[i][k]['metrics']['ops_per_s']['value']:.0f}, kept in the figures")
        print(f"  {'metric':<18} {'base median [q1, q3]':>28} {'head median [q1, q3]':>28}"
              f" {'head/base':>9} {'won':>6} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            c = compare(metric, [b["metrics"][name]["value"] for _, b, _ in paired],
                        [h["metrics"][name]["value"] for _, _, h in paired])
            ok &= c["within"]
            b, h = (f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (c["base"], c["head"]))
            print(f"  {name:<18} {b:>28} {h:>28} {c['ratio']:>9.3f} {c['wins']:>3}/{len(paired):<2}"
                  f" {metric['bound']:>6.2f}  {'within' if c['within'] else 'OUTSIDE'}")
        print(f"  {'op class':<18} {'base median ms':>28} {'head median ms':>28} {'head/base':>9}")
        for name, b, h in class_rows([r["class_ms"] for _, r, _ in paired],
                                     [r["class_ms"] for _, _, r in paired]):
            ratio = f"{h / b:.3f}" if b and h is not None else "-"
            print(f"  {name:<18} {'-' if b is None else f'{b:.4g}':>28}"
                  f" {'-' if h is None else f'{h:.4g}':>28} {ratio:>9}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
