"""The pair tool's reading and summary of benchmark results, on canned runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
BETTER = {"analyze_s": "lower", "vertices_per_s": "higher"}


@pytest.fixture(scope="module")
def pairs_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(analyze: float, rate: float, failed: int = 0, correct: bool = True) -> dict:
    return {"correct": correct, "attempted": 100, "failed": failed, "metrics": {
        "analyze_s": {"value": analyze, "unit": "s"},
        "vertices_per_s": {"value": rate, "unit": "vertices/s"},
    }}


def _rec(workload: str, seed: int, side: str, result) -> dict:
    return {"workload": workload, "seed": seed, "side": side, "ref": side, "result": result}


def test_the_result_is_the_last_line_of_a_run(pairs_tool):
    result = _result(0.005, 1e6)
    stdout = "workload oracle  trace 0  seconds 25\nanalyze_s  s  0.005\n" + json.dumps(result) + "\n\n"
    assert pairs_tool.result_of(stdout) == result
    assert pairs_tool.result_of("analyze_s  s  0.005\n") is None
    assert pairs_tool.result_of('{"correct": true}\n') is None
    assert pairs_tool.result_of("") is None


def test_quartiles_are_linear_between_sorted_values(pairs_tool):
    assert pairs_tool.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs_tool.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert pairs_tool.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_pairs_won_in_each_metrics_direction(pairs_tool):
    records = [
        _rec("oracle", 1, "base", _result(0.0050, 100.0)),
        _rec("oracle", 1, "head", _result(0.0036, 140.0)),
        _rec("oracle", 2, "head", _result(0.0037, 100.0)),  # head ran first
        _rec("oracle", 2, "base", _result(0.0049, 100.0)),  # a tie in the rate
        _rec("oracle", 3, "base", _result(0.0051, 110.0)),
        _rec("oracle", 3, "head", _result(0.0052, 90.0, failed=2)),
        _rec("oracle", 4, "base", _result(0.0048, 100.0)),  # no head run: no pair
    ]
    lines = pairs_tool.summarize(records, BETTER)
    assert lines[0] == "oracle: 3 pairs"
    analyze, rate = lines[1], lines[2]
    assert analyze.split()[:2] == ["analyze_s", "base"]
    assert "base 0.005 " in analyze and "[0.00495, 0.00505]" in analyze
    assert "head 0.0037 " in analyze and "-26.0%" in analyze
    assert "head won 2/3" in analyze and "gap > base IQR: yes" in analyze
    assert "head won 1/3" in rate and "gap > base IQR: no" in rate
    assert lines[3] == "  base: 4 runs, 0 not correct, failed 0 of 400 attempted"
    assert lines[4] == "  head: 3 runs, 0 not correct, failed 2 of 300 attempted"


def test_a_failed_run_leaves_its_pair_out_and_is_counted(pairs_tool):
    records = [
        _rec("cli", 5, "base", _result(2.0, 10.0)),
        _rec("cli", 5, "head", None),
        _rec("cli", 6, "head", _result(2.1, 9.0, correct=False)),
        _rec("cli", 6, "base", _result(2.0, 10.0)),
        _rec("deep", 5, "base", _result(1.0, 10.0)),
        _rec("deep", 5, "head", _result(1.0, 10.0)),
    ]
    lines = pairs_tool.summarize(records, {"analyze_s": "lower"})
    assert lines[0] == "cli: 2 pairs"
    assert "head won 0/1" in lines[1] and "+5.0%" in lines[1]
    assert "head won -" in lines[2]  # no direction given for the rate
    assert lines[3] == "  base: 2 runs, 0 not correct, failed 0 of 200 attempted"
    assert lines[4] == "  head: 2 runs, 2 not correct, failed 0 of 100 attempted"
    assert lines[5] == "deep: 1 pairs"
    assert "head won 0/1" in lines[6] and "+0.0%" in lines[6]


def test_summarize_reads_a_lines_file(pairs_tool, tmp_path, capsys):
    records = [_rec("wide", 1, "base", _result(0.8, 5.0)), _rec("wide", 1, "head", _result(0.6, 6.0))]
    path = tmp_path / "pairs.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert pairs_tool.main(["--summarize", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "wide: 1 pairs"
    assert "head won 1/1" in out[1] and "head won 1/1" in out[2]
