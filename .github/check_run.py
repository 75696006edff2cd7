"""Check one benchmark run: the last line of conbench/run.py's output, read from stdin.

    python3 conbench/run.py --workload W --seed S --seconds 5 --trace T | tail -n 1 |
        python3 .github/check_run.py W S T

Each run must answer correctly with no failed operation.  A traced run (T = 1)
prints its deterministic counts, and each count and bits metric must stay at
or below its row in count_ceilings.json: the value measured when the row was
set, times 1.05, rounded up.  A count more than 5% below that measured value
gets the ceiling this rule gives it now, printed as one that may be lowered,
except a count of 0 under a nonzero ceiling: that is more likely work the
tracer no longer sees than work saved, so it prints a warning instead.
A change that lowers a count may lower its ceiling; one that raises a ceiling
names it and its reason in CHANGES.md.  Exits 1 on any failure.
"""

import json
import pathlib
import sys

CEILINGS = pathlib.Path(__file__).with_name("count_ceilings.json")


def check(workload: str, seed: str, trace: str, run: dict) -> bool:
    print(workload, seed, trace, "correct:", run["correct"], "failed:", run["failed"])
    ok = run["correct"] is True and run["failed"] == 0
    if trace != "1":
        return ok
    counts = {k: m["value"] for k, m in run["metrics"].items() if m["unit"] in ("count", "bits")}
    ceilings = json.loads(CEILINGS.read_text())[workload][seed]
    if set(ceilings) != set(counts):
        print("count_ceilings.json does not list exactly the metrics of this run")
        ok = False
    for name, value in sorted(counts.items()):
        ceiling = ceilings.get(name)
        print("   ", name, value, "ceiling", ceiling)
        if ceiling is not None and value > ceiling:
            print(name, "exceeds its ceiling of", ceiling)
            ok = False
        elif ceiling and value == 0:
            print("   ", name, "warning: reads 0 under a ceiling of", ceiling, "- the tracer may no",
                  "longer see this work (ROADMAP item 20); do not lower the ceiling")
        elif ceiling is not None and value * 105 < ceiling * 95:  # value < 0.95 * ceiling / 1.05
            print("   ", name, "ceiling may be lowered to", -(-value * 105 // 100))
    return ok


if __name__ == "__main__":
    workload, seed, trace = sys.argv[1:]
    sys.exit(0 if check(workload, seed, trace, json.loads(sys.stdin.read())) else 1)
