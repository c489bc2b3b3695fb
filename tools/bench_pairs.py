#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two git refs and summarize.

    python tools/bench_pairs.py --base HEAD~1 --head HEAD --workloads oracle \\
        --seeds 901,902,903,904,905,906,907,908,909,910 --seconds 25 \\
        --lines pairs.jsonl

Each ref is copied with ``git archive`` into a temporary directory
(``TMPDIR`` picks where), so each side runs its committed files only.
Each seed is one pair per workload: ``perfbench/run.py --workload W --seed
S --seconds T --trace 0`` runs once in each copy, one run at a time, and
the side that runs first alternates from pair to pair (base first in the
first pair of each workload).  The last line of a run's stdout is its
result object (``correct``, ``attempted``, ``failed``, ``metrics``); a run
that exits non-zero or prints no such line counts as a failed run.

The summary has one row per workload and metric: each side's median with
its quartiles, the change of the head's median from the base's, the pairs
the head won (ties count for neither side; the direction is the metric's
``better`` in ``BENCHMARK.json``), and whether the gap between the medians
exceeds the base's interquartile range.  Per workload it then prints each
side's runs, the runs not ``correct``, and the failed operations against
those attempted.

``--lines FILE`` appends each run's record to FILE as one JSON line as
soon as the run ends, so a cut session keeps its finished pairs;
``--summarize FILE`` prints the summary of such a file and runs nothing.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_of(stdout: str) -> dict | None:
    """The result object on the last non-empty line of a run's stdout, or
    None when that line is not one."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def quartiles(values: list) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), linear between the
    sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _pairs(records: list, workload: str) -> list:
    """The (base, head) records of ``workload`` with both sides run, by seed."""
    by_seed: dict = {}
    for rec in records:
        if rec["workload"] == workload:
            by_seed.setdefault(rec["seed"], {})[rec["side"]] = rec
    return [(runs["base"], runs["head"]) for _, runs in sorted(by_seed.items())
            if set(runs) == set(SIDES)]


def _value(rec: dict, metric: str):
    result = rec.get("result")
    if result is None or metric not in result["metrics"]:
        return None
    return result["metrics"][metric]["value"]


def summarize(records: list, better: dict) -> list:
    """The summary lines of ``records`` (see the module docstring);
    ``better`` maps a metric name to ``"lower"`` or ``"higher"``."""
    out = []
    workloads = list(dict.fromkeys(rec["workload"] for rec in records))
    for workload in workloads:
        pairs = _pairs(records, workload)
        out.append(f"{workload}: {len(pairs)} pairs")
        metrics = list(dict.fromkeys(
            m for pair in pairs for rec in pair if rec.get("result")
            for m in rec["result"]["metrics"]))
        for metric in metrics:
            both = [(_value(b, metric), _value(h, metric)) for b, h in pairs]
            both = [(b, h) for b, h in both if b is not None and h is not None]
            if not both:
                continue
            (b1, bm, b3), (h1, hm, h3) = (quartiles([p[i] for p in both]) for i in (0, 1))
            change = f"{(hm - bm) / bm:+.1%}" if bm else "n/a"
            sign = {"lower": -1, "higher": 1}.get(better.get(metric))
            won = "-" if sign is None else f"{sum(sign * (h - b) > 0 for b, h in both)}/{len(both)}"
            wide = "yes" if abs(hm - bm) > b3 - b1 else "no"
            out.append(
                f"  {metric:18s} base {bm:<10.4g} [{b1:.4g}, {b3:.4g}]  "
                f"head {hm:<10.4g} [{h1:.4g}, {h3:.4g}]  {change:>7s}  "
                f"head won {won}  gap > base IQR: {wide}"
            )
        for side in SIDES:
            runs = [rec for rec in records if rec["workload"] == workload and rec["side"] == side]
            results = [rec["result"] for rec in runs if rec.get("result")]
            wrong = len(runs) - sum(bool(r.get("correct")) for r in results)
            failed = sum(r.get("failed", 0) for r in results)
            attempted = sum(r.get("attempted", 0) for r in results)
            out.append(f"  {side}: {len(runs)} runs, {wrong} not correct, "
                       f"failed {failed} of {attempted} attempted")
    return out


def read_lines(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _copy(ref: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _run(copy: Path, workload: str, seed: int, seconds: float) -> dict | None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        print(f"    exit {proc.returncode}: {proc.stderr.strip()[-400:]}", file=sys.stderr)
        return None
    return result_of(proc.stdout)


def run_pairs(refs: dict, workloads: list, seeds: list, seconds: float, lines) -> list:
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        copies = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            _copy(refs[side], copies[side])
        for workload in workloads:
            for i, seed in enumerate(seeds):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    print(f"{workload} seed {seed} {side} ({refs[side]})", file=sys.stderr)
                    rec = {"workload": workload, "seed": seed, "side": side, "ref": refs[side],
                           "result": _run(copies[side], workload, seed, seconds)}
                    records.append(rec)
                    if lines is not None:
                        with open(lines, "a", encoding="utf-8") as fh:
                            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return records


def main(argv=None) -> int:
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git ref of the parent side")
    parser.add_argument("--head", help="git ref of the changed side")
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seeds", help="comma-separated seeds, one pair each")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="--seconds of each run (default: the benchmark's run_seconds)")
    parser.add_argument("--lines", type=Path, help="append each run's record to this file")
    parser.add_argument("--summarize", type=Path, help="summarize a --lines file; run nothing")
    args = parser.parse_args(argv)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.summarize is not None:
        records = read_lines(args.summarize)
    else:
        if not (args.base and args.head and args.seeds):
            parser.error("--base, --head and --seeds are required unless --summarize is given")
        workloads = args.workloads.split(",")
        unknown = sorted(set(workloads) - set(names))
        if unknown:
            parser.error(f"unknown workloads {unknown}; choose from {names}")
        seeds = [int(s) for s in args.seeds.split(",")]
        refs = {"base": args.base, "head": args.head}
        records = run_pairs(refs, workloads, seeds, args.seconds, args.lines)
    for line in summarize(records, better):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
