#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload point_tcp|join_dram|churn_rw \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (and the src/ layers it measures) with CMake into
.bench_build/perfbench on first use, runs the workload program, checks
that it emitted exactly the metrics BENCHMARK.json names for the mode
(end_to_end with --trace 0, per_layer with --trace 1) with their
units, prints a run record line (host, build, seed, CPU steal during
the run), and ends stdout with the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run record is also appended to .bench_build/perfbench/runs.jsonl
so runs that hit a noisy neighbour can be picked out afterwards.
Exits non-zero without a result line when the sources, the build or
the run fail.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("point_tcp", "join_dram", "churn_rw")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(bdir):
    """Configure once, then let the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(bdir), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return bdir / "widx_perfbench"


def cpu_times():
    """(steal, total) jiffies over all CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal (guest time is
    # already inside user/nice).
    return fields[7], sum(fields[:8])


def llc_bytes():
    best = (0, 0)
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in cache.glob("index*"):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        n = int(size.rstrip("KMG")) * mult
        best = max(best, (level, n))
    return best[1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def affinity():
    cpus = sorted(os.sched_getaffinity(0))
    runs, start = [], None
    for i, c in enumerate(cpus):
        if start is None:
            start = c
        if i + 1 == len(cpus) or cpus[i + 1] != c + 1:
            runs.append(f"{start}-{c}" if c != start else f"{c}")
            start = None
    return ",".join(runs)


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return None


def source_digest():
    """Hash of the measured sources: identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and p.suffix in (".cc", ".hh", ".txt"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def build_type(bdir):
    try:
        for line in (bdir / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60", 2)

    if not (ROOT / "src" / "service" / "index_service.hh").exists():
        fail(f"widx sources not found under {ROOT / 'src'}", 2)
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}", 2)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    bdir = ROOT / ".bench_build" / "perfbench"
    exe = build(bdir)
    spans = bdir / f"spans-{args.workload}-{args.seed}.csv"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans)]

    steal0, total0 = cpu_times()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    steal1, total1 = cpu_times()
    if proc.returncode != 0:
        fail(f"widx_perfbench exited with {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("widx_perfbench printed no result")

    got = {k: v["unit"] for k, v in out["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        bad = sorted(k for k in set(got) & set(wanted) if got[k] != wanted[k])
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, unit mismatch {bad}")

    llc = llc_bytes()
    rec = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": affinity(),
        "cpu_model": cpu_model(),
        "llc_bytes": llc,
        "commit": commit(),
        "source_digest": source_digest(),
        "build_type": build_type(bdir),
        "steal_frac": (steal1 - steal0) / max(1, total1 - total0),
    }
    rec.update({f"run.{k}": v for k, v in out.get("record", {}).items()})
    if llc and "index_mib" in out.get("record", {}):
        rec["index_llc_ratio"] = out["record"]["index_mib"] * (1 << 20) / llc
    print(json.dumps({"record": rec}))
    with open(bdir / "runs.jsonl", "a") as f:
        f.write(json.dumps(rec) + "\n")

    result = {
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": out["metrics"],
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
