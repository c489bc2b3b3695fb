from __future__ import annotations

import numpy as np
import pytest

import treewco as tw
from treewco import FAILS, HOLDS, TREND_CONSISTENT, TREND_INCONSISTENT
from treewco import VertexFunction, WeightedCompOp
from treewco.io import canonical_json, fixture_report, golden_dir


def verdicts(certs):
    return {c.statement: c.verdict for c in certs}


class TestClassifyLinf:
    def test_fold_fixture(self):
        fx = tw.fixture_by_name("z-isometry")
        for depth in (4, 6, 8):
            op = fx.build(depth)
            v = verdicts(tw.classify_linf(op, window_depth=depth // 2))
            assert v["Linf.Isometry"] == HOLDS
            assert v["Linf.BoundedBelow"] == HOLDS

    def test_decaying_weight_compact_trend(self):
        t = tw.zline(16)
        psi = (0.5) ** t.depth.astype(float)
        op = WeightedCompOp(VertexFunction(t, psi), tw.identity_map(t))
        v = verdicts(tw.classify_linf(op))
        assert v["Linf.Compact"] == TREND_CONSISTENT

    def test_finite_range_compact_holds(self):
        t = tw.zline(8)
        op = tw.composition_op(tw.constant_map(t, 0))
        v = verdicts(tw.classify_linf(op))
        assert v["Linf.Compact"] == HOLDS

    def test_growing_weight_unbounded_trend(self):
        t = tw.zline(16)
        psi = t.depth.astype(float) + 1.0
        op = WeightedCompOp(VertexFunction(t, psi), tw.identity_map(t))
        v = verdicts(tw.classify_linf(op))
        assert v["Linf.Bounded"] == TREND_INCONSISTENT


class TestClassifyLip:
    def test_reciprocal_weight_example(self):
        fx = tw.fixture_by_name("bounded-not-compact")
        op = fx.build(16)
        v = verdicts(tw.classify_lip(op))
        assert v["Lip.Bounded"] == TREND_CONSISTENT
        assert v["Lip.Compact"] == TREND_INCONSISTENT

    def test_squared_weight_compact(self):
        fx = tw.fixture_by_name("bounded-not-compact")
        op = fx.build(16)
        sq = WeightedCompOp(VertexFunction(op.tree, op.psi.values**2), op.phi)
        assert verdicts(tw.classify_lip(sq))["Lip.Compact"] == TREND_CONSISTENT

    def test_every_operator_fails_isometry(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            t = tw.random_tree(4, seed=int(rng.integers(1000)))
            op = WeightedCompOp(
                tw.random_function(t, rng, 2.0), tw.random_map(t, rng)
            )
            v = verdicts(tw.classify_lip(op))
            assert v["Lip.NoIsometry"] == HOLDS

    def test_profiles_monotone(self):
        rng = np.random.default_rng(1)
        t = tw.zline(8)
        op = WeightedCompOp(tw.random_function(t, rng, 2.0), tw.random_map(t, rng))
        for cert in tw.classify_linf(op) + tw.classify_lip(op):
            vals = [v for _, v in cert.depth_profile]
            if cert.statement in ("Linf.Bounded", "Lip.Bounded"):
                assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
            if cert.statement in ("Linf.Compact", "Lip.Compact"):
                assert all(a + 1e-12 >= b for a, b in zip(vals, vals[1:]))


class TestCrossChecks:
    def test_isometry_implies_bounded_below(self):
        op = tw.fixture_by_name("z-isometry").build(8)
        out = tw.classify_operator(op, window_depth=4)
        v = verdicts(out["linf"])
        assert v["Linf.Isometry"] == HOLDS and v["Linf.BoundedBelow"] == HOLDS

    def test_classify_operator_runs_on_random(self):
        rng = np.random.default_rng(2)
        for tree in (tw.zline(6), tw.homogeneous(2, 3)):
            for _ in range(5):
                op = WeightedCompOp(
                    tw.random_function(tree, rng, 2.0), tw.random_map(tree, rng)
                )
                out = tw.classify_operator(op)
                assert len(out["linf"]) == 4 and len(out["lip"]) == 4


    def test_depth_zero_refused_by_depth_limit(self):
        op = tw.composition_op(tw.identity_map(tw.zline(0)))
        for classify in (tw.classify_linf, tw.classify_lip):
            with pytest.raises(ValueError, match=r"depth >= 1, got depth 0"):
                classify(op)


class TestSevenEquivalences:
    def test_constant_map_all_hold(self):
        cert = tw.seven_equivalences(tw.constant_map(tw.zline(8), 0))
        assert cert.verdict == HOLDS
        assert all(cert.witnesses["items"].values())

    def test_identity_all_fail(self):
        cert = tw.seven_equivalences(tw.identity_map(tw.zline(8)))
        assert cert.verdict == FAILS
        assert not any(cert.witnesses["items"].values())

    def test_stabilized_at_three_holds(self):
        t = tw.zline(8)
        table = {v: t.ancestor_at_depth(v, min(3, t.depth_of(v))) for v in range(len(t))}
        cert = tw.seven_equivalences(tw.map_from_table(t, table))
        assert cert.verdict == HOLDS

    def test_coherent_on_seeded_maps(self):
        rng = np.random.default_rng(3)
        for i in range(10):
            t = tw.zline(8) if i % 2 else tw.homogeneous(2, 4)
            if i % 3 == 0:
                phi = tw.identity_map(t)
            elif i % 3 == 1:
                phi = tw.constant_map(t, int(rng.integers(0, len(t.layer(1)))))
            else:
                cap = 2
                table = {
                    v: t.ancestor_at_depth(v, min(cap, t.depth_of(v)))
                    for v in range(len(t))
                }
                phi = tw.map_from_table(t, table)
            cert = tw.seven_equivalences(phi)
            assert cert.verdict in (HOLDS, FAILS)


class TestFixturesAndGolden:
    def test_three_fixtures_bundled(self):
        names = [fx.name for fx in tw.bundled_fixtures()]
        assert names == ["z-isometry", "bounded-not-compact", "not-surjective-2n"]

    def test_expected_verdicts_hold(self):
        for fx in tw.bundled_fixtures():
            op = fx.build()
            out = tw.classify_operator(op, window_depth=fx.window_for(fx.depth))
            got = verdicts(out["linf"] + out["lip"])
            for statement, verdict in fx.expected.items():
                assert got[statement] == verdict, (fx.name, statement)

    def test_reports_match_golden_files(self):
        gold = golden_dir()
        for fx in tw.bundled_fixtures():
            frozen = (gold / f"{fx.name}.json").read_text(encoding="utf-8")
            assert canonical_json(fixture_report(fx)) == frozen, fx.name

    def test_doubling_report_carries_discrepancy_note(self):
        report = fixture_report(tw.fixture_by_name("not-surjective-2n"))
        reach = report["weighted_reach_infimum"]
        assert reach["value"] == 1.0
        assert reach["vertex_label"] == 0
        assert reach["reference_value"] == 2.0
        assert "differs" in reach["discrepancy"]
        assert report["infeasibility"]["extra"]["verdict"] == "infeasible"

    def test_unknown_fixture_rejected(self):
        with pytest.raises(KeyError):
            tw.fixture_by_name("nope")
