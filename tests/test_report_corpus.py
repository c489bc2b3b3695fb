"""The report corpus tool's comparison of two dumps, on synthetic texts."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_corpus.py"


@pytest.fixture(scope="module")
def corpus_tool():
    spec = importlib.util.spec_from_file_location("report_corpus", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _analyze(compact: str, bound: float) -> str:
    certs = [
        {"statement": "Lip.Bounded", "verdict": "TrendConsistent", "witnesses": {"b": bound}},
        {"statement": "Lip.Compact", "verdict": compact, "witnesses": {}},
    ]
    return json.dumps({"certificates": certs, "seven_equivalences": {
        "statement": "Cphi.SevenEquivalences", "verdict": "Fails"}}, indent=2)


def _surj(verdict: str) -> str:
    return json.dumps({"quantity": "SurjInfeasibility", "value": 2.0,
                       "extra": {"verdict": verdict}}, indent=2)


def _dump(path: Path, texts: list) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for seed, point, entry, text in texts:
            fh.write(json.dumps({"seed": seed, "point": point, "entry": entry,
                                 "text": text}) + "\n")
    return path


def test_one_certificate_and_one_oracle_transition(corpus_tool, tmp_path, capsys):
    old = [
        (0, "analyze", "z3/id/unit", _analyze("TrendInconsistent", 1.0)),
        (0, "analyze", "z8/id/unit", _analyze("TrendInconsistent", 1.0)),
        (0, "oracle.surj", "z3/id/unit/random", _surj("feasible")),
        (1, "cli.oracle", "z3/id/unit", "exit 1\nspec error\n"),
    ]
    new = [
        (0, "analyze", "z3/id/unit", _analyze("TrendConsistent", 1.0)),
        (0, "analyze", "z8/id/unit", _analyze("TrendInconsistent", 1.5)),
        (0, "oracle.surj", "z3/id/unit/random", _surj("infeasible")),
        (1, "cli.oracle", "z3/id/unit", "exit 1\nanother spec error\n"),
    ]
    code = corpus_tool.diff_dumps(_dump(tmp_path / "a", old), _dump(tmp_path / "b", new))
    out = capsys.readouterr().out
    assert code == 1
    table = out[out.index("verdict transitions:"):].splitlines()
    assert table == [
        "verdict transitions: 2",
        "    Lip.Compact TrendInconsistent -> TrendConsistent: 1 (first: seed 0 analyze z3/id/unit)",
        "    SurjInfeasibility feasible -> infeasible: 1 (first: seed 0 oracle.surj z3/id/unit/random)",
    ]
    assert "analyze              2 texts,      2 differ" in out


def test_no_verdict_change_leaves_the_table_empty(corpus_tool, tmp_path, capsys):
    texts = [(0, "analyze", "z3/id/unit", _analyze("TrendInconsistent", 1.0)),
             (0, "oracle.surj", "z3/id/unit/random", _surj("feasible"))]
    code = corpus_tool.diff_dumps(_dump(tmp_path / "a", texts), _dump(tmp_path / "b", texts))
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("differing fields: 0\nverdict transitions: 0\n")


def test_an_oracle_error_is_the_verdict_error(corpus_tool, tmp_path, capsys):
    error = "error: ValueError: forced-value inversion needs an injective map"
    old = [(0, "oracle.surj", "z3/const/unit/random", error),
           (0, "analyze", "z3/const/unit", error)]
    new = [(0, "oracle.surj", "z3/const/unit/random", _surj("infeasible")),
           (0, "analyze", "z3/const/unit", _analyze("TrendInconsistent", 1.0))]
    corpus_tool.diff_dumps(_dump(tmp_path / "a", old), _dump(tmp_path / "b", new))
    out = capsys.readouterr().out
    # a certificate has no verdict at the top of its report, so an analyze
    # error is a differing text only
    assert out[out.index("verdict transitions:"):].splitlines() == [
        "verdict transitions: 1",
        "    SurjInfeasibility error -> infeasible: 1 (first: seed 0 oracle.surj z3/const/unit/random)",
    ]


def test_tree_texts_read_the_tree_layer_alone(corpus_tool):
    import treewco as tw

    texts = dict(corpus_tool._tree_texts(tw, tw.homogeneous(2, 4)))
    assert list(texts) == ["d4", "d0", "d1", "d2"]
    assert json.loads(texts["d2"]) == {
        "spec": {"schema": 1, "family": "homogeneous", "depth": 2, "q": 2},
        "n_vertices": 10, "depth_limit": 2, "layer_sizes": [1, 3, 6],
    }
    # a line deeper than the cap writes its layer sizes as length and sum
    deep = dict(corpus_tool._tree_texts(tw, tw.zline(corpus_tool._MAX_LAYERS)))
    assert json.loads(deep["d1001"])["layer_sizes"] == {"length": 1002, "sum": 2003}
    assert json.loads(deep["d500"])["layer_sizes"] == [1] + [2] * 500
