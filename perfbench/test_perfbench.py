"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stages as S  # noqa: E402
import workloads as W  # noqa: E402
from spans import NullTracer, loglog_slope, pass_summary  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=[(w, t) for w in W.WORKLOADS for t in (False, True)],
                ids=lambda p: f"{p[0]}-trace{int(p[1])}")
def tiny_run(request):
    name, traced = request.param
    return name, traced, run.run(name, 5, 0.3, traced, "tiny")


def test_every_metric_is_emitted_with_its_unit(tiny_run):
    _, traced, (result, lines, prov, _) = tiny_run
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if traced else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {n: v["unit"] for n, v in result["metrics"].items()}
    for name, v in result["metrics"].items():
        assert np.isfinite(v["value"]), name
    if not traced:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert prov["seed"] == 5 and prov["nproc"] >= 1


def test_fail_frac_is_computed(tiny_run):
    name, _, (result, lines, _, fails) = tiny_run
    assert result["correct"], fails.messages
    assert 1 <= result["attempted"] and 0 <= result["failed"] <= result["attempted"]
    row = next(line for line in lines if line.startswith("fail_frac"))
    assert float(row.split()[2]) == pytest.approx(result["failed"] / result["attempted"])
    assert result["failed"] == 0, fails.messages
    if name != "cli":
        assert fails.known == 0, fails.messages
    else:
        # exactly the known malformed-spec traceback, once per run of that
        # command, tallied apart from the failed operations
        runs = fails.attempted_by_name["cli:bad_depth"]
        assert runs >= 2 and dict(fails.known_by_name) == {"cli:bad_depth": runs}, fails.messages
        assert fails.known == runs
        assert all(m.startswith("known: cli:bad_depth: traceback: TypeError:") for m in fails.messages)
        row = next(line for line in lines if line.startswith("known_defect_frac"))
        assert float(row.split()[2]) == pytest.approx(runs / result["attempted"])


def _proc(returncode: int, stdout: str = "", stderr: str = ""):
    return subprocess.CompletedProcess([], returncode, stdout, stderr)


def test_only_the_known_defect_keeps_a_run_correct():
    plan = W.make_plan("cli", 3, "tiny")
    cmds = {c["name"]: c for c in plan["session"]}
    ctx = SimpleNamespace(fixtures=["[OK] a", "[OK] b"])
    traceback = "Traceback (most recent call last):\n  ...\nTypeError: int() argument\n"

    def correct(cmd: str, proc) -> bool:
        fails = S.Failures()
        fails.record(cmd, S.check_cli(ctx, cmds[cmd], proc))
        return fails.correct

    assert correct("bad_depth", _proc(1, stderr=traceback))
    assert correct("bad_depth", _proc(1, stderr="spec error: depth\n"))
    assert not correct("bad_depth", _proc(0))
    assert not correct("bad_depth", _proc(2, stderr=traceback))
    assert not correct("bad_depth", _proc(1, stderr=traceback.replace("TypeError", "KeyError")))
    assert not correct("bad_family", _proc(1, stderr=traceback))
    assert correct("examples", _proc(0, stdout="[OK] a\n[OK] b\n"))
    # a drifted golden fixture exits 2; its output is still compared
    drifted = S.check_cli(ctx, cmds["examples"], _proc(2, stdout="[OK] a\n[DRIFT] b\n"))
    assert ("error", "exit code 2, expected 0") in drifted and any(k == "wrong" for k, _ in drifted)
    assert not correct("examples", _proc(2, stdout="[OK] a\n[DRIFT] b\n"))


def _raise(*args, **kwargs):
    raise RuntimeError("injected")


def test_a_raising_call_makes_the_run_incorrect(monkeypatch):
    import treewco
    monkeypatch.setattr(treewco, "norm_oracle_lip", _raise)
    result, _, _, fails = run.run("oracle", 5, 0.3, False, "tiny")
    assert not result["correct"] and fails.by_kind["error"] == result["failed"] > 0
    # a raise while the closed-form expectations are prepared is counted too
    monkeypatch.setattr(treewco, "lip_exact_norm", _raise)
    result, _, _, fails = run.run("oracle", 5, 0.3, False, "tiny")
    assert not result["correct"] and fails.failed_by_name["expect:lip_path:t0_perm:0"] == 1


def test_benchmark_json_matches_the_run():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(W.WORKLOADS)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def _arrays(name: str, seed: int) -> list:
    built = W.Built(W.make_plan(name, seed, "tiny"), NullTracer())
    return [a for op in built.ops.values() for a in (op.psi.values, op.phi.image)]


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_fixed_seed_regenerates_identical_inputs(name):
    assert W.make_plan(name, 9, "tiny") == W.make_plan(name, 9, "tiny")
    a, b = _arrays(name, 9), _arrays(name, 9)
    assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
    other = _arrays(name, 10)
    assert not all(np.array_equal(x, y) for x, y in zip(a, other))
    assert [x.shape for x in a] == [x.shape for x in other]


def test_closed_form_sizes_and_budget():
    specs = [W.zspec(7), W.hspec(2, 5), W.hspec(3, 4), W.hspec(4, 2)]
    for spec in specs:
        assert W.tree_vertices(spec) == W.build_tree(spec).n_vertices
    assert W.tree_vertices(W.hspec(3, 10)) == 118_097
    with pytest.raises(W.BudgetError):
        W.build_tree(W.hspec(2, 30))  # ~3e9 vertices: refused before allocating
    plan = W.make_plan("oracle", 1, "tiny")
    plan["search"].append({"oracle": "linf_exhaustive", "op": "hl_rand"})
    with pytest.raises(W.BudgetError):
        W.Built(plan, NullTracer())


def test_digest_comparison_tolerance():
    ref = S.digest({"a": [1.0] * 40, "b": 2.0, "criterion": "prose", "v": "Holds"})
    assert S.compare(ref, S.digest({"a": [1.0] * 40, "b": 2.0 + 1e-12, "v": "Holds"})) == []
    assert S.compare(ref, S.digest({"a": [1.0] * 40, "b": 2.0 + 1e-6, "v": "Holds"}))
    assert S.compare(ref, S.digest({"a": [1.0] * 40, "b": 2.0, "v": "Fails"}))
    assert S.compare(ref, S.digest({"a": [1.0] * 41, "b": 2.0, "v": "Holds"}))


def test_summaries():
    assert pass_summary([list(range(19))])["high"] is None
    summary = pass_summary([list(range(100)), [2.0] * 120])
    assert summary["n"] == 100 and summary["high"] == (90.0, 89.1 + 2.0)
    assert summary["fastest"] == 2.0 and summary["median"] == 49.5 + 2.0
    assert loglog_slope([(10, 1.0), (100, 100.0)]) == pytest.approx(2.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
