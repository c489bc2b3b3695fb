#!/usr/bin/env python3
"""Layered benchmark for treewco.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark imports treewco from the
checkout's ``src/`` and drives it only through its public functions and
its CLI (as sequential ``python -m treewco.cli`` subprocesses).  Every
input is generated from ``--seed``.

``--trace 0`` measures the end-to-end metrics: set-up is repeated and its
median reported, then the four stages (analyze, exhaustive oracle search,
extremal oracles, CLI) are interleaved in one single-threaded closed loop,
one caller, for ``--seconds``, each stage getting a fixed share of the
time.  ``--trace 1`` repeats the workload with spans around every call into
a treewco module, adds size ladders and a full CLI session, and reports
per-layer metrics, scaling exponents and the tracing overhead.

Outputs are checked as they are produced (see stages.py).  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Single-threaded numerics here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "treewco" / "__init__.py").is_file():
    sys.exit(f"perfbench: no treewco sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import treewco as tw  # noqa: E402

if Path(tw.__file__).resolve().parent != (SRC / "treewco").resolve():
    sys.exit(f"perfbench: imported treewco from {tw.__file__}, not from {SRC}")

import stages as S  # noqa: E402
import workloads as W  # noqa: E402
from spans import NullTracer, Tracer, duration, loglog_slope, median, pass_summary  # noqa: E402

REFERENCE_PATH = HERE / "reference.json"
REFERENCE_SEED = 0
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

MIN_SETUPS = {"full": 9, "tiny": 2}
# A run whose measurement saw hypervisor steal above this share of the
# machine's CPU time is flagged noisy and measures EXTEND_FRAC longer, so
# its per-case minima get more chances at a quiet stretch.
NOISY_STEAL_SHARE = 0.015
EXTEND_FRAC = 0.3
TRACED_SETUPS = {"full": 3, "tiny": 1}
MIN_SAMPLES = 3

# (name, unit) of every metric --trace 0 reports; fail_frac and
# known_defect_frac are printed in the table, and fail_frac is carried by
# the attempted/failed fields of the result.
END_TO_END = [
    ("setup_s", "s"),
    ("analyze_s", "s"),
    ("oracle_search_s", "s"),
    ("oracle_extremal_s", "s"),
    ("cli_s", "s"),
    ("peak_rss_mb", "MB"),
    ("vertices_per_s", "vertices/s"),
]

PER_LAYER = [
    ("trees.build_s", "s"), ("trees.vertices", "count"), ("trees.build_us_per_vertex", "us"),
    ("trees.build_us_per_tree", "us"), ("trees.build_exp", "exponent"),
    ("operators.selfmap_s", "s"), ("operators.selfmap_exp", "exponent"),
    ("operators.moduli_s", "s"), ("operators.isometry_s", "s"), ("operators.tails_s", "s"),
    ("operators.tails_exp", "exponent"), ("operators.norms_s", "s"),
    ("functions.norms_s", "s"),
    ("classify.operator_s", "s"), ("classify.us_per_call", "us"), ("classify.certs", "count"),
    ("classify.decided_frac", "ratio"),
    ("oracle.linf_exhaustive_s", "s"), ("oracle.j_bracket_s", "s"), ("oracle.patterns", "count"),
    ("oracle.patterns_per_s", "1/s"), ("oracle.lip_path_s", "s"), ("oracle.lip_path_exp", "exponent"),
    ("oracle.ascent_s", "s"), ("oracle.ascent_evals", "count"), ("oracle.surj_s", "s"),
    ("oracle.surj_pairs", "count"), ("oracle.surj_exp", "exponent"), ("oracle.decided_frac", "ratio"),
    ("oracle.agree_frac", "ratio"),
    ("io.quantities_s", "s"), ("io.serialize_s", "s"), ("io.report_bytes", "bytes"),
    ("io.load_s", "s"), ("io.fixture_report_s", "s"),
    ("cli.import_s", "s"), ("cli.analyze_s", "s"), ("cli.norms_s", "s"), ("cli.oracle_s", "s"),
    ("cli.examples_s", "s"), ("cli.export_s", "s"), ("cli.failed", "count"),
    ("trace.overhead_frac", "ratio"),
]


# -- environment and provenance ----------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def steal_share(steal0, t0: float) -> float | None:
    """Steal ticks since ``steal0`` over the machine's CPU ticks since ``t0``."""
    steal1 = _steal_ticks()
    if steal0 is None or steal1 is None:
        return None
    return (steal1 - steal0) / ((time.perf_counter() - t0) * os.sysconf("SC_CLK_TCK") * (os.cpu_count() or 1))


def provenance(seed: int, steal0, wall: float, noise: dict) -> dict:
    steal1 = _steal_ticks()
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "treewco": tw.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
        "wall_s": wall,
        **noise,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# -- the run ------------------------------------------------------------------------


class Bench:
    """One workload run: set-up, checked stages, and the measurement loop."""

    def __init__(self, name: str, seed: int, scale: str, traced: bool):
        self.name, self.seed, self.scale, self.traced = name, seed, scale, traced
        self.plan = W.make_plan(name, seed, scale)
        self.fails = S.Failures()
        self.null = NullTracer()
        self.tracer = Tracer() if traced else self.null
        self.workdir = WORK_DIR / f"{name}-{os.getpid()}"
        self.env = child_env()
        self.setup_times: list = []
        self.built = None
        self.first_reports: dict = {}
        self.cli_failed = 0
        self.noise: dict = {}

    # set-up ---------------------------------------------------------------

    def setup(self, tr) -> float:
        """Build the workload's inputs once; the untraced run repeats this
        inside the measurement loop and reports the median."""
        tr.phase = f"setup{len(self.setup_times)}"
        t0 = time.perf_counter()
        if self.name == "cli":
            self._import_probe(tr)
        built = W.Built(self.plan, tr)
        self.setup_times.append(time.perf_counter() - t0)
        if self.built is None:
            self.built = built
        return self.setup_times[-1]

    def _import_probe(self, tr) -> None:
        """Interpreter start plus ``import treewco``, in a child process."""
        with tr.span("cli.import", "import"):
            proc = subprocess.run([sys.executable, "-c", "import treewco"], env=self.env,
                                  capture_output=True, text=True, timeout=S.CLI_TIMEOUT_S)
        self.fails.record("import", [] if proc.returncode == 0 else [("error", proc.stderr[-200:])])

    def prepare(self) -> None:
        """Spec files, in-process expectations and the reference probe;
        none of it is timed."""
        self.tracer.phase = "prepare"
        self.workdir.mkdir(parents=True, exist_ok=True)
        for fname, obj in W.spec_files(self.plan, self.built).items():
            (self.workdir / fname).write_text(json.dumps(obj), encoding="utf-8")
        self.ctx = S.CliContext(self.workdir, self.env, self.built, self.plan, self.null, self.fails)
        self.expect = {
            (stage, i): S.expectation(self.fails, self._oracle_label(item, i),
                                      lambda it=item, k=i: S.oracle_expectation(self.built, it, k))
            for stage in ("search", "extremal") for i, item in enumerate(self.plan[stage])
        }
        self.reference_probe()

    def reference_probe(self) -> None:
        """Analyze the reference seed's operators and compare their reports
        with the committed reference."""
        ref = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[self.scale][self.name]
        if self.seed == ref["seed"]:
            plan, built = self.plan, self.built
        else:
            plan = W.make_plan(self.name, ref["seed"], self.scale)
            built = W.Built(plan, self.null)
        for oid in plan["analyze"]:
            problems = []
            try:
                text = S.analyze(self.null, built.ops[oid], built.window(oid), oid)
                drift = S.compare(ref["reports"][oid], S.digest(json.loads(text)))
                if drift:
                    problems.append(("wrong", "drifts from reference at " + ", ".join(drift[:3])))
            except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
                problems.append(("error", repr(exc)))
            self.fails.record(f"reference:{oid}", problems)

    # stages ---------------------------------------------------------------

    def stage_cases(self, stage: str) -> list:
        """(label, run(tracer), check(result)) for every case of a stage."""
        plan, built = self.plan, self.built
        if stage == "analyze":
            return [(oid, self._analyze_fn(oid), self._analyze_check(oid)) for oid in plan["analyze"]]
        if stage == "cli":
            return [(cmd["name"], (lambda tr, c=cmd: S.cli(tr, self.ctx, c)),
                     (lambda proc, c=cmd: S.check_cli(self.ctx, c, proc))) for cmd in plan["cli"]]
        return [(self._oracle_label(item, i),
                 (lambda tr, it=item, k=i: S.oracle(tr, built, it, k, self._oracle_label(it, k))),
                 (lambda res, it=item, k=i, st=stage: self._oracle_check(it, res, self.expect[(st, k)])))
                for i, item in enumerate(plan[stage])]

    @staticmethod
    def _oracle_label(item: dict, i: int) -> str:
        return f"{item['oracle']}:{item.get('op', item.get('tree'))}:{i}"

    def _analyze_fn(self, oid: str):
        op, window = self.built.ops[oid], self.built.window(oid)
        return lambda tr: S.analyze(tr, op, window, oid)

    def _analyze_check(self, oid: str):
        def check(text: str) -> list:
            first = self.first_reports.setdefault(oid, text)
            return [] if text == first else [("wrong", "report changed between passes")]
        return check

    def _oracle_check(self, item: dict, res, expected) -> list:
        problems = S.check_oracle(item, res, expected)
        self.fails.oracle_checks += 1
        self.fails.oracle_agree += not problems
        return problems

    def run_case(self, stage: str, k: int, tr) -> float:
        """One case; returns the time spent in the call.  Its check runs
        afterwards, outside the timed region."""
        label, fn, check = self.cases[stage][k]
        t0 = time.perf_counter()
        try:
            result, problems = fn(tr), None
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
            result, problems = None, [("error", repr(exc))]
        elapsed = time.perf_counter() - t0
        if problems is None:
            try:
                problems = check(result)
            except Exception as exc:  # noqa: BLE001 - an unreadable output is wrong
                problems = [("wrong", f"check failed: {exc!r}")]
        self.fails.record(f"{stage}:{label}", problems)
        self.cli_failed += stage == "cli" and bool(problems)
        return elapsed

    def run_stage(self, stage: str, tr) -> float:
        """One pass over a stage's cases."""
        return sum(self.run_case(stage, k, tr) for k in range(len(self.cases[stage])))

    def warm_up(self) -> None:
        """One untimed pass of every stage: imports and lazy set-up finish,
        and the first reports are kept for the drift check."""
        self.cases = {stage: self.stage_cases(stage) for stage in S.STAGES}
        self.tracer.phase = "warmup"
        for stage in S.STAGES:
            self.run_stage(stage, self.null)

    def measure(self, seconds: float) -> dict:
        """Closed loop, one case at a time: the next case of whichever stage
        is furthest below its share of the time.  Set-up is one more stage,
        so its repetitions spread over the whole run.  A noisy run (see
        NOISY_STEAL_SHARE) measures longer.  Returns per-case samples."""
        shares = self.plan["shares"]
        samples = {s: [[] for _ in self.cases[s]] for s in S.STAGES}
        used = dict.fromkeys(shares, 0.0)
        turn = dict.fromkeys(S.STAGES, 0)
        min_setups = MIN_SETUPS[self.scale]
        steal0, t0 = _steal_ticks(), time.perf_counter()
        deadline = t0 + seconds
        self.noise = {"noisy": False, "extended_s": 0.0}
        while True:
            stage = min(shares, key=lambda s: used[s] / shares[s])
            if stage == "setup":
                used[stage] += self.setup(self.null)
            else:
                k = turn[stage]
                turn[stage] = (k + 1) % len(self.cases[stage])
                t = self.run_case(stage, k, self.null)
                samples[stage][k].append(t)
                used[stage] += t
            if time.perf_counter() >= deadline and len(self.setup_times) >= min_setups and all(
                len(c) >= MIN_SAMPLES for per_case in samples.values() for c in per_case
            ):
                share = self.noise["steal_share"] = steal_share(steal0, t0)
                if not self.noise["noisy"] and share is not None and share > NOISY_STEAL_SHARE:
                    self.noise["noisy"] = True
                    self.noise["extended_s"] = EXTEND_FRAC * seconds
                    deadline += self.noise["extended_s"]
                    continue
                return samples

    def end_to_end(self, samples: dict) -> dict:
        """name -> (summary, reported value)."""
        stage = {s: pass_summary(samples[s]) for s in S.STAGES}
        setup = pass_summary([self.setup_times])
        vertices = sum(self.built.ops[o].tree.n_vertices for o in self.plan["analyze"])
        return {
            "setup_s": (setup, setup["median"]),
            "analyze_s": (stage["analyze"], stage["analyze"]["fastest"]),
            "oracle_search_s": (stage["search"], stage["search"]["fastest"]),
            "oracle_extremal_s": (stage["extremal"], stage["extremal"]["fastest"]),
            "cli_s": (stage["cli"], stage["cli"]["fastest"]),
            "peak_rss_mb": (None, peak_rss_mb()),
            "vertices_per_s": (None, vertices / stage["analyze"]["fastest"]),
        }

    # traced run -----------------------------------------------------------

    def sweep(self) -> None:
        """Every layer once: import, each CLI mode, spec loading, fixture
        reports and the size ladders."""
        tr = self.tracer
        tr.phase = "sweep"
        for _ in range(3):
            self._import_probe(tr)
        for cmd in self.plan["session"]:
            if cmd["mode"] == "malformed":
                continue
            try:
                problems = S.check_cli(self.ctx, cmd, S.cli(tr, self.ctx, cmd))
            except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
                problems = [("error", repr(exc))]
            self.fails.record(f"session:{cmd['name']}", problems)
        d = self.workdir
        for cmd in self.plan["session"]:
            oid = cmd["check"].get("op")
            if cmd["check"]["kind"] in ("analyze", "norms"):
                with tr.span("io.load", oid):
                    tw.load_specs(d / f"{oid}.tree.json", d / f"{oid}.psi.json", d / f"{oid}.phi.json")
        for fx in tw.bundled_fixtures():
            with tr.span("io.fixture_report", fx.name):
                tw.fixture_report(fx)
        self.ladders()

    def ladders(self) -> None:
        tr = self.tracer
        for kind, rungs in self.plan["ladders"].items():
            for r, rung in enumerate(rungs):
                tr.phase = f"ladder:{kind}:{r}"
                spent, reps = 0.0, 0
                while reps < 3 and (reps == 0 or spent < 0.3):
                    t0 = time.perf_counter()
                    op, g = W.build_rung(tr, rung, f"{kind}{r}")
                    with tr.span(f"ladder.{kind}", f"{kind}{r}") as s:
                        if kind == "tree":
                            with tr.span("operators.tails", f"{kind}{r}"):
                                tw.linf_ess_norm_profile(op), tw.lip_ess_norm_profile(op)
                        elif kind == "lip_path":
                            with tr.span("oracle.lip_path", f"{kind}{r}"):
                                tw.norm_oracle_lip(op)
                        elif kind == "surj":
                            with tr.span("oracle.surj", f"{kind}{r}"):
                                tw.surjectivity_infeasibility(op, g)
                        elif kind == "linf_exhaustive":
                            with tr.span("oracle.linf_exhaustive", f"{kind}{r}"):
                                tw.norm_oracle_linf(op)
                        elif kind == "j_bracket":
                            with tr.span("oracle.j_bracket", f"{kind}{r}"):
                                tw.j_oracle_linf_bracket(op)
                    s["vertices"] = op.tree.n_vertices
                    spent += time.perf_counter() - t0
                    reps += 1

    def traced_rounds(self, seconds: float) -> tuple:
        """Alternate untraced and traced rounds of all four stages; after
        each traced round, probe the operator layers of every analyzed
        operator."""
        plain, traced = [], []
        self.cli_failed_per_round = []
        deadline = time.perf_counter() + seconds
        i = 0
        while len(traced) < 2 or time.perf_counter() < deadline:
            self.tracer.phase = "plain"
            plain.append(sum(self.run_stage(s, self.null) for s in S.STAGES))
            self.tracer.phase = f"round{i}"
            failed_before = self.cli_failed
            traced.append(sum(self.run_stage(s, self.tracer) for s in S.STAGES))
            self.cli_failed_per_round.append(self.cli_failed - failed_before)
            self.tracer.phase = f"probe{i}"
            for oid in self.plan["analyze"]:
                S.layer_probe(self.tracer, self.built.ops[oid], self.built.window(oid), oid)
            i += 1
        return plain, traced

    def per_layer(self, plain: list, traced: list) -> dict:
        phases: dict = defaultdict(lambda: defaultdict(list))
        for rec in self.tracer.spans:
            phases[rec["phase"]][rec["name"]].append(rec)

        def groups(prefix):
            return [v for k, v in phases.items() if k.startswith(prefix) and k[len(prefix):].isdigit()]

        def total(group, *names, field=None):
            recs = [r for n in names for r in group.get(n, [])]
            return sum(r.get(field, 0) if field else duration(r) for r in recs)

        def med(prefix, *names, field=None):
            return median([total(g, *names, field=field) for g in groups(prefix)])

        def mean_duration(name):
            recs = [r for g in phases.values() for r in g.get(name, [])]
            return sum(map(duration, recs)) / len(recs)

        def exponent(kind, name):
            points = []
            for r in range(len(self.plan["ladders"][kind])):
                recs = phases[f"ladder:{kind}:{r}"]
                n = recs[f"ladder.{kind}"][0]["vertices"]
                points.append((n, median([duration(x) for x in recs[name]])))
            return loglog_slope(points)

        setup0 = groups("setup")[0]
        build_s = med("setup", "trees.build")
        n_vertices = total(setup0, "trees.build", field="vertices")
        certs = med("round", "classify.operator", field="certs")
        exh_s = med("round", "oracle.linf_exhaustive")
        jbr_s = med("round", "oracle.j_bracket")
        patterns = med("round", "oracle.linf_exhaustive", "oracle.j_bracket", field="work")
        surj_recs = [r for g in groups("round") for r in g.get("oracle.surj", [])]
        classify_calls = median([len(g.get("classify.operator", [])) for g in groups("round")])
        return {
            "trees.build_s": build_s,
            "trees.vertices": n_vertices,
            "trees.build_us_per_vertex": build_s / n_vertices * 1e6,
            "trees.build_us_per_tree": build_s / len(setup0["trees.build"]) * 1e6,
            "trees.build_exp": exponent("tree", "trees.build"),
            "operators.selfmap_s": med("setup", "operators.selfmap"),
            "operators.selfmap_exp": exponent("tree", "operators.selfmap"),
            "operators.moduli_s": med("probe", "operators.moduli"),
            "operators.isometry_s": med("probe", "operators.isometry"),
            "operators.tails_s": med("probe", "operators.tails"),
            "operators.tails_exp": exponent("tree", "operators.tails"),
            "operators.norms_s": med("probe", "operators.norms"),
            "functions.norms_s": med("probe", "functions.norms"),
            "classify.operator_s": med("round", "classify.operator"),
            "classify.us_per_call": med("round", "classify.operator") / classify_calls * 1e6,
            "classify.certs": certs,
            "classify.decided_frac": med("round", "classify.operator", field="decided") / certs,
            "oracle.linf_exhaustive_s": exh_s,
            "oracle.j_bracket_s": jbr_s,
            "oracle.patterns": patterns,
            "oracle.patterns_per_s": patterns / (exh_s + jbr_s),
            "oracle.lip_path_s": med("round", "oracle.lip_path"),
            "oracle.lip_path_exp": exponent("lip_path", "oracle.lip_path"),
            "oracle.ascent_s": med("round", "oracle.point_ascent", "oracle.linf_ascent"),
            "oracle.ascent_evals": med("round", "oracle.point_ascent", "oracle.linf_ascent", field="work"),
            "oracle.surj_s": med("round", "oracle.surj"),
            "oracle.surj_pairs": med("round", "oracle.surj", field="work"),
            "oracle.surj_exp": exponent("surj", "oracle.surj"),
            "oracle.decided_frac": sum(r["decided"] for r in surj_recs) / len(surj_recs),
            "oracle.agree_frac": self.fails.oracle_agree / self.fails.oracle_checks,
            "io.quantities_s": med("round", "io.quantities"),
            "io.serialize_s": med("round", "io.serialize"),
            "io.report_bytes": med("round", "io.serialize", field="bytes"),
            "io.load_s": mean_duration("io.load"),
            "io.fixture_report_s": mean_duration("io.fixture_report"),
            "cli.import_s": median([duration(r) for g in phases.values() for r in g.get("cli.import", [])]),
            "cli.analyze_s": mean_duration("cli.analyze"),
            "cli.norms_s": mean_duration("cli.norms"),
            "cli.oracle_s": mean_duration("cli.oracle"),
            "cli.examples_s": mean_duration("cli.examples"),
            "cli.export_s": mean_duration("cli.export"),
            "cli.failed": median(self.cli_failed_per_round),
            "trace.overhead_frac": median(traced) / median(plain) - 1.0,
        }

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def run(name: str, seed: int, seconds: float, traced: bool, scale: str = "full") -> tuple:
    """Run one workload; returns (result, table lines, provenance, failures)."""
    steal0, t_start = _steal_ticks(), time.perf_counter()
    bench = Bench(name, seed, scale, traced)
    try:
        for _ in range(TRACED_SETUPS[scale] if traced else 1):
            bench.setup(bench.tracer)
        bench.prepare()
        bench.warm_up()
        if traced:
            t0 = time.perf_counter()
            bench.sweep()
            plain, rounds = bench.traced_rounds(max(seconds - (time.perf_counter() - t0), 0.0))
            layer = bench.per_layer(plain, rounds)
            metrics = {n: {"value": float(layer[n]), "unit": u} for n, u in PER_LAYER}
            lines = [f"{n:28s} {u:10s} {layer[n]:.6g}" for n, u in PER_LAYER]
            OUT_DIR.mkdir(exist_ok=True)
            bench.tracer.dump(OUT_DIR / f"trace-{name}-seed{seed}.jsonl")
        else:
            values = bench.end_to_end(bench.measure(seconds))
            metrics = {n: {"value": float(values[n][1]), "unit": u} for n, u in END_TO_END}
            lines = [_row(n, u, *values[n]) for n, u in END_TO_END]
    finally:
        bench.close()
    fails = bench.fails
    fail_frac = fails.failed / fails.attempted
    lines.append(f"{'fail_frac':28s} {'ratio':10s} {fail_frac:.12g}  "
                 f"({fails.failed} of {fails.attempted}: " +
                 ", ".join(f"{fails.by_kind[k]} {k}" for k in S.KINDS if k != "known") + ")")
    lines.append(f"{'known_defect_frac':28s} {'ratio':10s} {fails.known / fails.attempted:.12g}  "
                 f"({fails.known} of {fails.attempted}: " +
                 (", ".join(f"{n} x{c}" for n, c in sorted(fails.known_by_name.items())) or "none") + ")")
    result = {"correct": fails.correct, "attempted": fails.attempted,
              "failed": fails.failed, "metrics": metrics}
    prov = provenance(seed, steal0, time.perf_counter() - t_start, bench.noise)
    return result, lines, prov, fails


def _row(name: str, unit: str, summary, value: float) -> str:
    row = f"{name:28s} {unit:10s} {value:<12.6g}"
    if summary is None:
        return row
    row += f" n={summary['n']:<4d} median {summary['median']:<10.6g} fastest {summary['fastest']:<10.6g}"
    hp = summary["high"]
    return row + (f" p{hp[0]:g} {hp[1]:.6g}" if hp else " (under 20 samples: no tail percentile)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result, lines, prov, fails = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for msg in fails.messages:
        print(msg, file=sys.stderr)
    print(f"workload {args.workload}  trace {args.trace}  seconds {args.seconds:g}")
    for line in lines:
        print(line)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
