#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json briefly through run.py, with
--trace 0 and --trace 1, and asserts that each run ends with the
result line run.py documents: exactly the keys
correct/attempted/failed/metrics, every metric BENCHMARK.json names
for the mode (and no other) with its unit, valid names, finite
numbers, non-zero end-to-end values, and correct results. It also
checks that a copy holding only BENCHMARK.json and perfbench/ fails
fast without printing a result. Exits non-zero on the first failure.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SECONDS = 3  # measured seconds per self-test run


def check(cond, msg):
    if not cond:
        print(f"selftest: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)


def run(cwd, workload, seconds, trace, timeout):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("end_to_end", "per_layer"):
        for m in spec[key]:
            check(NAME.match(m["name"]), f"bad metric name {m['name']!r}")
            check(UNIT.match(m["unit"]), f"bad unit {m['unit']!r}")

    for w in spec["workloads"]:
        for trace in (0, 1):
            label = f"{w['name']} --trace {trace}"
            proc = run(ROOT, w["name"], SECONDS, trace, 900)
            check(proc.returncode == 0, f"{label}: exit {proc.returncode}")
            out = json.loads(proc.stdout.splitlines()[-1])
            check(set(out) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(out)}")
            check(out["correct"] is True, f"{label}: results not correct")
            check(isinstance(out["attempted"], int) and out["attempted"] >= 1,
                  f"{label}: attempted {out['attempted']}")
            check(isinstance(out["failed"], int), f"{label}: failed")
            want = spec["per_layer" if trace else "end_to_end"]
            check(set(out["metrics"]) == {m["name"] for m in want},
                  f"{label}: metric names differ from BENCHMARK.json")
            for m in want:
                got = out["metrics"][m["name"]]
                check(got["unit"] == m["unit"],
                      f"{label}: {m['name']} unit {got['unit']}")
                v = got["value"]
                check(isinstance(v, (int, float)) and math.isfinite(v),
                      f"{label}: {m['name']} value {v!r}")
                if not trace:
                    check(v != 0, f"{label}: {m['name']} is 0")
            print(f"selftest: ok {label}: {len(want)} metrics, "
                  f"{out['attempted']} attempted, {out['failed']} failed")

    # Without the sources next to it the benchmark must refuse to run.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 1, 0, 180)
    check(proc.returncode != 0, "bare copy exited 0")
    check(not proc.stdout.strip(), "bare copy printed a result")
    shutil.rmtree(bare)
    print("selftest: ok bare copy fails without a result")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
