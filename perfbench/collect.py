#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/collect.py --seeds 101-110 --out perfbench/baseline.json

Each run is a separate ``run.py`` process, one at a time.  For every
workload and metric the summary holds the ten values, their median, their
quartiles and the quartile spread as a share of the median (the statistic
the bounds in BENCHMARK.json are checked against).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    prov = json.loads(next(line for line in lines if line.startswith("provenance "))[len("provenance "):])
    return {"result": json.loads(lines[-1]), "provenance": prov}


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="101-110", help="inclusive range such as 101-110")
    p.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary here as JSON")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary = {"seeds": seeds(args.seeds), "trace": args.trace, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = [one_run(wl, s, args.trace) for s in summary["seeds"]]
        names = runs[0]["result"]["metrics"]
        summary["workloads"][wl] = {
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "correct": [r["result"]["correct"] for r in runs],
            "provenance": [r["provenance"] for r in runs],
            "metrics": {n: summarize([r["result"]["metrics"][n]["value"] for r in runs]) for n in names},
        }
        for n, s in summary["workloads"][wl]["metrics"].items():
            bound = bounds.get(n)
            flag = "" if bound is None or s["spread"] is None else (
                "  over bound/3" if s["spread"] > bound / 3 else "")
            print(f"{wl:7s} {n:28s} median {s['median']:<12.6g} spread {s['spread'] or 0:.3f}{flag}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
