"""The four timed stages and the checks on their outputs.

Each stage runs a list of cases through treewco's public functions or its
CLI.  A case returns its output; checks run outside the timed region and
sort the problems of each operation into one of three kinds:

* ``wrong``: an output disagrees with an oracle, the committed reference,
  the in-process result, or a golden fixture.
* ``error``: the call raised, a CLI process printed a traceback, or it
  exited with an unexpected code.
* ``known``: a malformed-spec command that the plan marks as a known
  defect failed in exactly the recorded way (exit code 1 and a traceback
  ending in the recorded exception).

``wrong`` and ``error`` are failed operations, and a run is correct only
when there are none.  A ``known`` outcome is the defect the plan records
on purpose: it is tallied apart (``Failures.known``) and shown in the
table and in the traced ``cli.failed`` count, but it is not a failed
operation, so every workload's result reports ``failed`` 0 while the
program behaves as recorded.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import treewco as tw

STAGES = ("analyze", "search", "extremal", "cli")
KINDS = ("wrong", "error", "known")  # most severe first
TOL = 1e-9
CLI_TIMEOUT_S = 120


class Failures:
    """Counts attempted and failed operations; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_kind = dict.fromkeys(KINDS, 0)
        self.attempted_by_name: Counter = Counter()
        self.failed_by_name: Counter = Counter()
        self.known_by_name: Counter = Counter()
        self.oracle_checks = 0
        self.oracle_agree = 0
        self.messages: list = []

    def record(self, name: str, problems: list) -> None:
        """``problems`` is a list of (kind, message) for one operation."""
        self.attempted += 1
        self.attempted_by_name[name] += 1
        if not problems:
            return
        kind = min((k for k, _ in problems), key=KINDS.index)
        self.by_kind[kind] += 1
        if kind == "known":
            self.known_by_name[name] += 1
        else:
            self.failed += 1
            self.failed_by_name[name] += 1
        if len(self.messages) < 20:
            self.messages.append(f"{kind}: {name}: " + "; ".join(m for _, m in problems))

    @property
    def known(self) -> int:
        return self.by_kind["known"]

    @property
    def correct(self) -> bool:
        return self.failed == 0


# -- analyze -----------------------------------------------------------------------


def analyze(tr, op: tw.WeightedCompOp, window, label: str) -> str:
    """Certificates, closed-form quantities and the serialized report: the
    payload ``treewco analyze`` prints for this operator."""
    with tr.span("classify.operator", label) as s:
        certs = tw.classify_operator(op, None, window)
    certs = certs["linf"] + certs["lip"]
    s["certs"] = len(certs)
    s["decided"] = sum(c.decided for c in certs)
    payload = {"schema": 1, "certificates": [c.to_json() for c in certs]}
    with tr.span("io.quantities", label):
        payload["quantities"] = tw.operator_quantities(op, window)
    if bool(np.all(op.psi.values == 1.0)):
        with tr.span("classify.seven", label):
            payload["seven_equivalences"] = tw.seven_equivalences(op.phi).to_json()
    with tr.span("io.serialize", label) as s:
        text = tw.canonical_json(payload)
    s["bytes"] = len(text)
    return text


def layer_probe(tr, op: tw.WeightedCompOp, window, label: str) -> None:
    """Direct calls into each operator-level function, for per-layer times."""
    with tr.span("operators.norms", label):
        tw.linf_op_norm(op), tw.lip_bounds(op), tw.lip_exact_norm(op)
    with tr.span("operators.tails", label):
        tw.linf_ess_norm_profile(op), tw.lip_ess_norm_profile(op)
    with tr.span("operators.moduli", label):
        tw.j_linf(op, window), tw.k_linf(op), tw.j_lip_bracket(op, window), tw.k_lip_bracket(op)
    with tr.span("operators.isometry", label):
        tw.isometry_check_linf(op, window)
        if op.tree.depth_limit >= 2:
            tw.isometry_check_lip(op, window)
    with tr.span("functions.norms", label):
        tw.norms(op.psi), tw.derivative(op.psi)


# -- digests of reports, compared against the committed reference -------------------

_SAMPLE = 24


def digest(obj):
    """A compact stand-in for a JSON report: short lists in full, long ones
    by length, sum and evenly spaced samples; criterion prose dropped."""
    if isinstance(obj, dict):
        return {k: digest(v) for k, v in obj.items() if k != "criterion"}
    if isinstance(obj, list):
        if len(obj) <= _SAMPLE:
            return [digest(x) for x in obj]
        idx = np.linspace(0, len(obj) - 1, _SAMPLE).round().astype(int)
        return {"__len__": len(obj), "__sum__": _numeric_sum(obj),
                "__sample__": [digest(obj[int(i)]) for i in idx]}
    return obj


def _numeric_sum(obj) -> float:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return 0.0
    if isinstance(obj, (int, float)):
        return float(obj)
    items = obj.values() if isinstance(obj, dict) else obj
    return float(sum(_numeric_sum(x) for x in items))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL or abs(a - b) <= TOL * max(abs(a), abs(b))


def compare(ref, got, path: str = "") -> list:
    """Paths where ``got`` drifts from ``ref``; keys only in ``got`` are allowed."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [path or "/"]
        out = []
        for k, v in ref.items():
            if k not in got:
                out.append(f"{path}/{k} missing")
            else:
                out += compare(v, got[k], f"{path}/{k}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path} length"]
        out = []
        for i, (a, b) in enumerate(zip(ref, got)):
            out += compare(a, b, f"{path}/{i}")
        return out
    if isinstance(ref, bool) or isinstance(got, bool) or not isinstance(ref, (int, float)):
        return [] if ref == got else [f"{path}: {got!r} != {ref!r}"]
    if not isinstance(got, (int, float)) or not close(float(ref), float(got)):
        return [f"{path}: {got!r} != {ref!r}"]
    return []


# -- oracles ---------------------------------------------------------------------


def oracle(tr, built, item: dict, index: int, label: str):
    kind = item["oracle"]
    op = built.ops.get(item.get("op"))
    with tr.span(f"oracle.{kind}", label) as s:
        if kind == "linf_exhaustive":
            res = tw.norm_oracle_linf(op)
        elif kind == "j_bracket":
            res = tw.j_oracle_linf_bracket(op, within_depth=item["window"])
        elif kind == "lip_path":
            res = tw.norm_oracle_lip(op)
        elif kind == "linf_ascent":
            res = tw.norm_oracle_linf(op, method="ascent")
        elif kind == "point_ascent":
            res = tw.point_eval_lip_norm(built.trees[item["tree"]], item["w"], "ascent", item["seed"])
        elif kind == "surj":
            res = tw.surjectivity_infeasibility(op, built.targets[index])
        else:
            raise ValueError(f"unknown oracle {kind!r}")
    s["work"] = res.search_size
    if kind == "surj":
        s["decided"] = int(res.extra["verdict"] != "undetermined")
    return res


def oracle_expectation(built, item: dict, index: int):
    """The closed-form side of each oracle check."""
    kind = item["oracle"]
    op = built.ops.get(item.get("op"))
    if kind in ("linf_exhaustive", "linf_ascent"):
        return tw.linf_op_norm(op)
    if kind == "j_bracket":
        return tw.j_linf(op, item["window"])
    if kind == "lip_path":
        return tw.lip_exact_norm(op)
    if kind == "point_ascent":
        return float(max(1, built.trees[item["tree"]].depth_of(item["w"])))
    # surjectivity: the modulus lower bound inf|psi|/3 guarantees a unit-ball
    # preimage for every target with sup norm below it
    lo, _ = tw.k_lip_bracket(op)
    return (lo, built.targets[index].sup_norm)


def check_oracle(item: dict, res, expected) -> list:
    if item["oracle"] == "surj":
        lo, g_sup = expected
        if res.extra["verdict"] == "infeasible" and g_sup < lo - TOL:
            return [("wrong", f"infeasible although sup|g| = {g_sup} < modulus bound {lo}")]
        return []
    if abs(res.value - expected) > TOL:
        return [("wrong", f"oracle {res.value!r} != closed form {expected!r}")]
    return []


# -- CLI ----------------------------------------------------------------------------


def expectation(fails: Failures, label: str, fn):
    """``fn()`` as one checked operation: None, and a failed operation, when
    it raises.  A check against None then fails too, and the run goes on."""
    try:
        value, problems = fn(), []
    except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
        value, problems = None, [("error", repr(exc))]
    fails.record(f"expect:{label}", problems)
    return value


class CliContext:
    """Work directory, child environment and in-process expectations."""

    def __init__(self, workdir: Path, env: dict, built, plan: dict, tr, fails: Failures):
        self.workdir, self.env = workdir, env
        self.expected: dict = {}
        for cmd in plan["cli"] + plan["session"]:
            chk = cmd["check"]
            if chk["kind"] in ("analyze", "norms") and chk["op"] not in self.expected:
                op = built.ops[chk["op"]]
                window = built.window(chk["op"])
                self.expected[chk["op"]] = expectation(fails, chk["op"], lambda: {
                    "analyze": analyze(tr, op, window, chk["op"]),
                    "quantities": json.loads(tw.canonical_json(tw.operator_quantities(op, window))),
                    "lip_norm": tw.norms(op.psi).lip_norm,
                })
            if chk["kind"] == "export":
                op = built.ops[chk["op"]]
                self.expected[("export", chk["op"])] = op.tree.n_vertices - 1 + op.phi.domain_size
        self.fixtures = [f"[OK] {fx.name}" for fx in tw.bundled_fixtures()]


def cli(tr, ctx: CliContext, cmd: dict):
    mode = "analyze" if cmd["mode"] == "malformed" else cmd["mode"]
    argv = [sys.executable, "-m", "treewco.cli", mode, *cmd["args"]]
    with tr.span(f"cli.{cmd['mode']}", cmd["name"]):
        return subprocess.run(argv, cwd=ctx.workdir, env=ctx.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)


def check_cli(ctx: CliContext, cmd: dict, proc) -> list:
    chk = cmd["check"]
    kind = chk["kind"]
    problems = []
    want_rc = 1 if kind == "malformed" else 0
    if "Traceback (most recent call last)" in proc.stderr:
        last = proc.stderr.strip().splitlines()[-1]
        defect = chk.get("known_defect")
        known = defect and proc.returncode == want_rc and last.startswith(defect + ":")
        problems.append(("known" if known else "error", f"traceback: {last}"))
    if proc.returncode != want_rc:
        problems.append(("error", f"exit code {proc.returncode}, expected {want_rc}"))
    if kind == "malformed":
        return problems
    # outputs are compared whatever the exit code: a golden drift exits 2
    if kind == "examples":
        if proc.stdout.splitlines() != ctx.fixtures:
            problems.append(("wrong", f"examples printed {proc.stdout!r}"))
    elif kind == "analyze":
        text = (ctx.workdir / chk["out"]).read_text(encoding="utf-8") if chk["out"] else proc.stdout
        if text != ctx.expected[chk["op"]]["analyze"]:
            problems.append(("wrong", "report differs from the in-process analysis"))
    elif kind == "norms":
        got = json.loads(proc.stdout)
        exp = ctx.expected[chk["op"]]
        if got["quantities"] != exp["quantities"] or not close(got["psi_norms"]["lip_norm"], exp["lip_norm"]):
            problems.append(("wrong", "norms differ from the in-process values"))
    elif kind == "oracle":
        got = json.loads(proc.stdout)
        if not (got["linf"]["agree"] and got["lip"]["agree"] and got["lip"]["within_bounds"]):
            problems.append(("wrong", "oracle mode reports disagreement"))
    elif kind == "export":
        dot = (ctx.workdir / chk["out"]).read_text(encoding="utf-8")
        edges = sum("->" in line for line in dot.splitlines())
        if edges != ctx.expected[("export", chk["op"])]:
            problems.append(("wrong", f"DOT has {edges} edges"))
    return problems
