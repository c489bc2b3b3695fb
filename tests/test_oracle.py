from __future__ import annotations

import numpy as np
import pytest

import treewco as tw
from treewco import OracleSizeError, VertexFunction, WeightedCompOp

from conftest import random_operator, small_tree_corpus


class TestNormOracleLinf:
    def test_matches_formula_on_tiny_line(self):
        # 3^5 sign patterns on the 5-vertex line
        t = tw.zline(2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            op = random_operator(t, rng)
            res = tw.norm_oracle_linf(op)
            assert res.value == pytest.approx(tw.linf_op_norm(op), abs=1e-12)
            assert res.method == "ExhaustiveSigns"

    def test_zero_weight(self):
        t = tw.zline(2)
        op = WeightedCompOp(
            VertexFunction(t, np.zeros(len(t))), tw.identity_map(t)
        )
        assert tw.norm_oracle_linf(op).value == 0.0

    def test_constant_map_maximizer_hits_target(self):
        t = tw.zline(2)
        op = tw.composition_op(tw.constant_map(t, 3))
        res = tw.norm_oracle_linf(op)
        assert res.value == 1.0
        assert abs(res.witness["maximizer"]["3"] if "3" in res.witness["maximizer"] else res.witness["maximizer"][3]) == 1.0

    def test_refuses_large_trees(self):
        t = tw.homogeneous(2, 3)  # 22 vertices
        op = tw.composition_op(tw.identity_map(t))
        with pytest.raises(OracleSizeError):
            tw.norm_oracle_linf(op)

    def test_ascent_mode_agrees(self):
        rng = np.random.default_rng(1)
        t = tw.homogeneous(2, 3)
        for _ in range(5):
            op = random_operator(t, rng)
            res = tw.norm_oracle_linf(op, method="ascent")
            assert res.value == pytest.approx(tw.linf_op_norm(op), abs=1e-12)

    def test_maximizer_is_unit_function(self):
        rng = np.random.default_rng(2)
        for tree in small_tree_corpus():
            op = random_operator(tree, rng)
            res = tw.norm_oracle_linf(op)
            vals = np.asarray(list(res.witness["maximizer"].values()))
            assert abs(np.abs(vals).max() - 1.0) <= 1e-9


class TestPointEval:
    def test_root_value_one(self):
        t = tw.zline(4)
        assert tw.point_eval_lip_norm(t, 0, "path").value == 1.0
        assert tw.point_eval_lip_norm(t, 0, "ascent").value == pytest.approx(1.0, abs=1e-9)

    def test_depth_three(self):
        t = tw.zline(4)
        w = t.vertex_of(3)
        assert tw.point_eval_lip_norm(t, w, "path").value == 3.0
        assert tw.point_eval_lip_norm(t, w, "ascent").value == pytest.approx(3.0, abs=1e-6)

    def test_depth_one_ties(self):
        t = tw.zline(4)
        w = t.vertex_of(1)
        assert tw.point_eval_lip_norm(t, w, "path").value == 1.0

    def test_maximizer_in_unit_ball(self):
        t = tw.homogeneous(2, 3)
        for w in (0, 5, len(t) - 1):
            for method in ("path", "ascent"):
                res = tw.point_eval_lip_norm(t, w, method)
                assert res.witness["maximizer_lip_norm"] <= 1.0 + 1e-9

    def test_methods_agree_everywhere_small(self):
        t = tw.zline(3)
        for w in range(len(t)):
            a = tw.point_eval_lip_norm(t, w, "path").value
            b = tw.point_eval_lip_norm(t, w, "ascent").value
            assert a == pytest.approx(b, abs=1e-6)


class TestNormOracleLip:
    def test_within_bounds_and_equal_to_formula(self):
        rng = np.random.default_rng(3)
        for tree in small_tree_corpus():
            for _ in range(10):
                op = random_operator(tree, rng)
                res = tw.norm_oracle_lip(op)
                lo, up = tw.lip_bounds(op)
                assert lo - 1e-9 <= res.value <= up + 1e-9
                assert res.value == pytest.approx(tw.lip_exact_norm(op), abs=1e-9)

    def test_identity_line(self):
        t = tw.zline(4)
        op = tw.composition_op(tw.identity_map(t))
        assert tw.norm_oracle_lip(op).value == pytest.approx(4.0)

    def test_zero_weight(self):
        t = tw.zline(3)
        op = WeightedCompOp(VertexFunction(t, np.zeros(len(t))), tw.identity_map(t))
        assert tw.norm_oracle_lip(op).value == 0.0


class TestJOracle:
    def test_identity_zero_gap(self):
        t = tw.zline(2)
        rng = np.random.default_rng(4)
        for _ in range(10):
            psi = tw.random_function(t, rng, 2.0)
            op = tw.multiplication_op(psi)
            res = tw.j_oracle_linf_bracket(op)
            assert res.extra["gap"] == pytest.approx(0.0, abs=1e-12)
            assert res.value == pytest.approx(float(np.abs(psi.values).min()))

    def test_permutations_upper_at_least_formula(self):
        rng = np.random.default_rng(5)
        for tree in (tw.zline(5), tw.homogeneous(2, 2)):
            for _ in range(5):
                op = random_operator(tree, rng, surjective=True)
                res = tw.j_oracle_linf_bracket(op)
                assert res.value >= res.extra["formula_lower"] - 1e-9

    def test_non_surjective_gives_zero_with_witness(self):
        t = tw.zline(3)
        op = tw.composition_op(tw.constant_map(t, 0))
        res = tw.j_oracle_linf_bracket(op)
        assert res.value == 0.0
        assert "uncovered_vertex" in res.witness

    def test_fold_fixture_windowed_both_one(self):
        op = tw.fixture_by_name("z-isometry").build(4)
        res = tw.j_oracle_linf_bracket(op, within_depth=2)
        assert res.value == 1.0
        assert res.extra["formula_lower"] == 1.0

    def test_search_size_counts_real_chunk_rows(self):
        # 3**10 grid patterns span two chunks; the 2**10 - 1 unit patterns
        # all sit in the first, so the second adds its own row count
        op = tw.composition_op(tw.identity_map(tw.homogeneous(2, 2)))
        res = tw.j_oracle_linf_bracket(op, grid=(0.0, 1.0, 2.0))
        assert res.search_size == 1023 + (3**10 - 32768)

    def test_refuses_large_window(self):
        t = tw.zline(8)  # 17 vertices
        op = tw.composition_op(tw.identity_map(t))
        with pytest.raises(OracleSizeError):
            tw.j_oracle_linf_bracket(op)


class TestInfeasibility:
    def fixture_op(self, depth=8):
        return tw.fixture_by_name("not-surjective-2n").build(depth)

    def alternating(self, op, scale=1.0):
        cod = op.codomain_tree
        vals = np.asarray(
            [
                scale * (1.0 if int(cod.label_of(v)) % 2 == 0 else -1.0)
                for v in range(len(cod))
            ]
        )
        return VertexFunction(cod, vals)

    def test_alternating_target_is_infeasible(self):
        op = self.fixture_op()
        res = tw.surjectivity_infeasibility(op, self.alternating(op))
        assert res.extra["verdict"] == "infeasible"
        assert res.value > 1.0
        u, u2 = res.witness["pair"]
        # the cited pair is a consecutive even pair (2n, 2n+2)
        lu, lu2 = int(op.tree.label_of(u)), int(op.tree.label_of(u2))
        assert abs(lu - lu2) == 2 and lu % 2 == 0 and lu2 % 2 == 0
        assert res.witness["pair_distance"] == 2

    def test_zero_target_is_feasible(self):
        op = self.fixture_op()
        res = tw.surjectivity_infeasibility(op, self.alternating(op, scale=0.0))
        assert res.extra["verdict"] == "feasible"

    def test_indicator_preimage_feasible_with_hint(self):
        t = tw.zline(4)
        op = tw.composition_op(tw.identity_map(t))
        w = t.vertex_of(2)
        g = tw.indicator(t, w)
        res = tw.surjectivity_infeasibility(op, g, hint=g)
        assert res.extra["verdict"] == "feasible"
        assert res.witness["feasible_preimage_lip_norm"] == pytest.approx(1.0)

    def test_indicator_preimage_feasible_without_hint(self):
        t = tw.zline(4)
        op = tw.composition_op(tw.identity_map(t))
        g = tw.indicator(t, t.vertex_of(2))
        res = tw.surjectivity_infeasibility(op, g)
        assert res.extra["verdict"] == "feasible"
        assert res.witness["interpolant_lip_norm"] == pytest.approx(1.0)

    def test_vanishing_weight_blocks_nonzero_target(self):
        t = tw.zline(3)
        psi = np.ones(len(t))
        psi[t.vertex_of(1)] = 0.0
        op = WeightedCompOp(VertexFunction(t, psi), tw.identity_map(t))
        g = VertexFunction(t, np.ones(len(t)))
        res = tw.surjectivity_infeasibility(op, g)
        assert res.extra["verdict"] == "infeasible"
        assert "weight vanishes" in res.witness["reason"]

    def test_non_injective_rejected(self):
        t = tw.zline(3)
        op = tw.composition_op(tw.constant_map(t, 0))
        g = VertexFunction(t, np.zeros(len(t)))
        with pytest.raises(ValueError):
            tw.surjectivity_infeasibility(op, g)

    def test_hint_never_contradicted(self):
        # a valid hint must yield "feasible" regardless of pair bounds
        t = tw.zline(5)
        op = tw.composition_op(tw.identity_map(t))
        f = tw.depth_cap(t, 2)
        g = tw.apply_op(op, f)
        res = tw.surjectivity_infeasibility(op, g, hint=f)
        assert res.extra["verdict"] == "feasible"
