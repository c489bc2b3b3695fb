from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treewco as tw
from treewco import SpecError
from treewco.cli import main
from treewco.io import canonical_json, fixture_report, golden_dir


def write(tmp_path: Path, name: str, payload: dict) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


@pytest.fixture
def specs(tmp_path):
    return {
        "tree": write(tmp_path, "tree.json", {"family": "zline", "depth": 4}),
        "psi": write(
            tmp_path, "psi.json", {"kind": "builtin", "name": "F_N", "params": {"cap": 2}}
        ),
        "phi": write(tmp_path, "phi.json", {"kind": "builtin", "name": "identity"}),
    }


class TestLoaders:
    def test_builtin_zfold_matches_formula(self):
        t = tw.zline(6)
        phi = tw.load_map_spec({"kind": "builtin", "name": "zfold"}, t)
        expect = tw.zline_fold(t)
        assert np.array_equal(phi.image, expect.image)

    def test_builtin_ramp_delegates(self):
        t = tw.zline(16)
        f = tw.load_function_spec(
            {"kind": "builtin", "name": "g", "params": {"n": 16, "r": 0.5}}, t
        )
        assert np.array_equal(f.values, tw.ramp_function(t, 16, 0.5).values)

    def test_map_outside_truncation_rejected(self):
        t = tw.zline(3)
        table = {str(v): 0 for v in range(len(t))}
        table["2"] = 99
        with pytest.raises(SpecError) as err:
            tw.load_map_spec({"kind": "table", "map": table}, t)
        assert "phi.map" in str(err.value)

    def test_partial_function_table_rejected(self):
        t = tw.zline(3)
        with pytest.raises(SpecError) as err:
            tw.load_function_spec({"kind": "table", "values": {"0": 1.0}}, t)
        assert "partial" in str(err.value)

    def test_unknown_builtin_rejected(self):
        t = tw.zline(3)
        with pytest.raises(SpecError):
            tw.load_function_spec({"kind": "builtin", "name": "mystery"}, t)

    def test_double_on_non_line_rejected(self):
        t = tw.homogeneous(2, 3)
        with pytest.raises(SpecError):
            tw.load_map_spec({"kind": "builtin", "name": "double"}, t)

    def test_tree_spec_families(self):
        assert len(tw.load_tree_spec({"family": "zline", "depth": 3})) == 7
        assert len(tw.load_tree_spec({"family": "homogeneous", "q": 2, "depth": 2})) == 10
        r = tw.load_tree_spec({"family": "random", "depth": 3, "seed": 5})
        assert r.depth_limit == 3


class TestCanonicalJson:
    def test_float_formatting(self):
        text = canonical_json({"x": 1 / 3})
        assert "0.333333333333" in text

    def test_sorted_keys(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')

    def test_reports_byte_stable(self):
        fx = tw.fixture_by_name("z-isometry")
        assert canonical_json(fixture_report(fx)) == canonical_json(fixture_report(fx))


class TestCli:
    def test_analyze(self, specs, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            ["analyze", "--tree", specs["tree"], "--psi", specs["psi"],
             "--phi", specs["phi"], "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        statements = {c["statement"] for c in payload["certificates"]}
        assert "Linf.Bounded" in statements and "Lip.NoIsometry" in statements

    def test_norms(self, specs, capsys):
        rc = main(["norms", "--tree", specs["tree"], "--psi", specs["psi"], "--phi", specs["phi"]])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["psi_norms"]["lip_norm"] == 1.0

    def test_oracle_random_op(self, specs, capsys):
        rc = main(["oracle", "--tree", specs["tree"], "--seed", "7"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["linf"]["agree"] and payload["lip"]["agree"]
        assert payload["lip"]["within_bounds"]

    def test_oracle_seed_determinism(self, specs, capsys):
        main(["oracle", "--tree", specs["tree"], "--seed", "9"])
        first = capsys.readouterr().out
        main(["oracle", "--tree", specs["tree"], "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_export_node_count(self, tmp_path, capsys):
        tree = write(tmp_path, "homog.json", {"family": "homogeneous", "q": 2, "depth": 3})
        rc = main(["export", "--tree", tree])
        assert rc == 0
        dot = capsys.readouterr().out
        assert dot.count("fillcolor") == 22
        assert dot.count(" -> ") == 21

    def test_export_with_map_overlay(self, tmp_path, capsys):
        tree = write(tmp_path, "t.json", {"family": "zline", "depth": 2})
        phi = write(tmp_path, "p.json", {"kind": "builtin", "name": "zfold"})
        rc = main(["export", "--tree", tree, "--phi", phi])
        assert rc == 0
        assert "style=dashed" in capsys.readouterr().out

    def test_spec_error_exit_code(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", {"family": "nope"})
        rc = main(["export", "--tree", bad])
        assert rc == 1
        assert "spec error" in capsys.readouterr().err

    def test_examples_ok(self, capsys):
        rc = main(["examples"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[OK]") == 3

    def test_examples_detects_drift(self, tmp_path, monkeypatch, capsys):
        alt = tmp_path / "golden"
        shutil.copytree(golden_dir(), alt)
        target = alt / "z-isometry.json"
        target.write_text(target.read_text().replace('"Holds"', '"Fails"', 1))
        monkeypatch.setenv("TREEWCO_GOLDEN_DIR", str(alt))
        rc = main(["examples"])
        assert rc == 2
        assert "[DRIFT]" in capsys.readouterr().out

    def test_examples_writes_reports(self, tmp_path, capsys):
        rc = main(["examples", "--out", str(tmp_path / "reports")])
        assert rc == 0
        assert (tmp_path / "reports" / "z-isometry.json").exists()

    def test_analyze_fold_fixture_from_spec_files(self, tmp_path):
        # the fold fixture expressed as spec files, through the loader path
        fx_op = tw.fixture_by_name("z-isometry").build(8)
        tree = write(tmp_path, "t.json", {"family": "zline", "depth": 8})
        psi = write(
            tmp_path,
            "psi.json",
            {
                "kind": "table",
                "values": {str(v): float(fx_op.psi.values[v]) for v in range(17)},
            },
        )
        phi = write(tmp_path, "phi.json", {"kind": "builtin", "name": "zfold"})
        out = tmp_path / "report.json"
        rc = main(
            ["analyze", "--tree", tree, "--psi", psi, "--phi", phi,
             "--window", "4", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        verdicts = {c["statement"]: c["verdict"] for c in payload["certificates"]}
        assert verdicts["Linf.Isometry"] == "Holds"
        assert verdicts["Linf.BoundedBelow"] == "Holds"


BAD_INT_FIELDS = [
    ("tree", {"family": "zline", "depth": [1]}, "tree.depth"),
    ("tree", {"family": "zline", "depth": True}, "tree.depth"),
    ("tree", {"family": "zline", "depth": 2.5}, "tree.depth"),
    ("tree", {"family": "homogeneous", "q": "2", "depth": 2}, "tree.q"),
    ("tree", {"family": "random", "depth": 2, "seed": None}, "tree.seed"),
    ("tree", {"family": "random", "depth": 2, "seed": 1, "min_children": False}, "tree.min_children"),
    ("tree", {"family": "random", "depth": 2, "seed": 1, "max_children": [3]}, "tree.max_children"),
    ("psi", {"kind": "builtin", "name": "F_N", "params": {"cap": [2]}}, "psi.params.cap"),
    ("psi", {"kind": "builtin", "name": "g", "params": {"n": True, "r": 0.5}}, "psi.params.n"),
    ("psi", {"kind": "builtin", "name": "chi", "params": {"vertex": 1.0}}, "psi.params.vertex"),
    ("psi", {"kind": "builtin", "name": "eta", "params": {"vertex": "1"}}, "psi.params.vertex"),
    ("phi", {"kind": "builtin", "name": "constant", "params": {"target": [0]}}, "phi.params.target"),
]


class TestMalformedSpecs:
    @pytest.mark.parametrize("which,spec,pointer", BAD_INT_FIELDS)
    def test_bad_integer_field_exits_one_with_pointer(
        self, specs, tmp_path, capsys, which, spec, pointer
    ):
        paths = dict(specs, **{which: write(tmp_path, f"bad_{which}.json", spec)})
        rc = main(["analyze", "--tree", paths["tree"], "--psi", paths["psi"], "--phi", paths["phi"]])
        assert rc == 1
        assert pointer in capsys.readouterr().err

    def test_list_depth_has_no_traceback(self, specs, tmp_path):
        bad = write(tmp_path, "bad_depth.json", {"family": "zline", "depth": [1]})
        env = dict(os.environ, PYTHONPATH=str(Path(tw.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "treewco.cli", "analyze", "--tree", bad,
             "--psi", specs["psi"], "--phi", specs["phi"]],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert "tree.depth" in proc.stderr
        assert "Traceback" not in proc.stderr
