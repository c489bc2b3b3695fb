from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treewco as tw
from treewco import VertexFunction

from conftest import ramp_lip_norm


def rand_f(tree, seed, scale=3.0):
    return tw.random_function(tree, np.random.default_rng(seed), scale)


class TestDerivative:
    def test_constant_has_zero_derivative(self, line4):
        f = VertexFunction(line4, np.full(len(line4), 7.5))
        assert np.all(tw.derivative(f).values == 0.0)

    def test_depth_function_on_line(self):
        t = tw.zline(3)
        f = VertexFunction(t, t.depth.astype(float))
        df = tw.derivative(f)
        assert df(0) == 0.0
        for v in range(1, len(t)):
            assert df(v) == 1.0

    def test_indicator_derivative(self):
        t = tw.homogeneous(2, 3)
        w = int(t.children_of(0)[1])
        df = tw.derivative(tw.indicator(t, w))
        expect = np.zeros(len(t))
        expect[w] = 1.0
        expect[t.children_of(w)] = -1.0
        assert np.array_equal(df.values, expect)

    def test_linearity_exact_on_integer_values(self):
        # integer-valued data keeps every float op exact
        t = tw.random_tree(4, seed=1)
        rng = np.random.default_rng(0)
        f = VertexFunction(t, rng.integers(-50, 50, len(t)).astype(float))
        g = VertexFunction(t, rng.integers(-50, 50, len(t)).astype(float))
        left = tw.derivative(VertexFunction(t, f.values + g.values)).values
        right = tw.derivative(f).values + tw.derivative(g).values
        assert np.array_equal(left, right)
        assert np.array_equal(
            tw.derivative(VertexFunction(t, 3.0 * f.values)).values,
            3.0 * tw.derivative(f).values,
        )

    def test_linearity_on_random_values(self):
        t = tw.random_tree(4, seed=1)
        f, g = rand_f(t, 1), rand_f(t, 2)
        left = tw.derivative(VertexFunction(t, f.values + g.values)).values
        right = tw.derivative(f).values + tw.derivative(g).values
        assert np.allclose(left, right, atol=1e-12, rtol=0)


class TestNorms:
    def test_depth_cap_has_unit_lip_norm(self):
        for t in (tw.zline(6), tw.homogeneous(2, 3)):
            for cap in (1, 2, 10):
                assert tw.norms(tw.depth_cap(t, cap)).lip_norm == 1.0

    def test_indicator_norms(self, line4):
        w = line4.vertex_of(2)
        rep = tw.norms(tw.indicator(line4, w))
        assert rep.sup_norm == 1.0
        assert rep.lip_norm == 1.0

    def test_zero_function(self, line4):
        rep = tw.norms(VertexFunction(line4, np.zeros(len(line4))))
        assert rep.sup_norm == rep.lip_norm == rep.d_sup == 0.0

    def test_lip_norm_identity(self):
        t = tw.random_tree(4, seed=7)
        f = rand_f(t, 3)
        rep = tw.norms(f)
        assert rep.lip_norm == abs(rep.value_at_root) + rep.d_sup

    def test_tail_profile_nonincreasing(self):
        t = tw.zline(8)
        for seed in range(5):
            prof = [v for _, v in tw.norms(rand_f(t, seed)).tail_profile]
            assert all(a >= b for a, b in zip(prof, prof[1:]))

    def test_tail_profile_matches_loop_reference(self):
        trees = [tw.zline(6), tw.homogeneous(2, 3), tw.random_tree(4, seed=3), tw.zline(0)]
        for t in trees:
            for seed in range(4):
                f = rand_f(t, seed)
                df = np.abs(tw.derivative(f).values)
                expect = [
                    (n, max((df[v] for v in range(len(t)) if t.depth[v] > n), default=0.0))
                    for n in range(t.depth_limit)
                ]
                assert tw.norms(f).tail_profile == tuple(expect)

    def test_depth_cap_tail_vanishes(self):
        t = tw.zline(8)
        rep = tw.norms(tw.depth_cap(t, 3))
        for n, v in rep.tail_profile:
            if n >= 3:
                assert v == 0.0

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_derivative_sup_at_most_twice_sup(self, seed):
        t = tw.zline(5)
        rep = tw.norms(rand_f(t, seed))
        assert rep.d_sup <= 2.0 * rep.sup_norm + 1e-12

    @given(st.integers(0, 10**6), st.floats(-4.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_norm_axioms(self, seed, c):
        t = tw.homogeneous(2, 2)
        f, g = rand_f(t, seed), rand_f(t, seed + 1)
        nf, ng = tw.norms(f).lip_norm, tw.norms(g).lip_norm
        assert abs(tw.norms(VertexFunction(t, c * f.values)).lip_norm - abs(c) * nf) < 1e-12
        assert tw.norms(VertexFunction(t, f.values + g.values)).lip_norm <= nf + ng + 1e-12


class TestGrowth:
    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_growth_universal(self, seed):
        t = tw.zline(5)
        ok, _, slack = tw.growth_check(rand_f(t, seed))
        assert ok

    def test_equality_for_depth_function(self):
        t = tw.zline(5)
        f = VertexFunction(t, t.depth.astype(float))
        ok, _, slack = tw.growth_check(f)
        assert ok and abs(slack) < 1e-12

    def test_ramp_has_strict_slack_mid_band(self):
        t = tw.zline(20)
        g = tw.ramp_function(t, 16, 0.5)
        ok, _, _ = tw.growth_check(g)
        assert ok
        rep = tw.norms(g)
        for v in range(len(t)):
            d = t.depth_of(v)
            if 4 <= d < 16:
                bound = abs(rep.value_at_root) + d * rep.d_sup
                assert bound - abs(g(v)) > 0.0


class TestWitnessFamilies:
    def test_sector_indicator_root(self, line4):
        assert np.all(tw.sector_indicator(line4, 0).values == 1.0)

    def test_sector_indicator_derivative_is_indicator(self):
        t = tw.homogeneous(2, 3)
        v = int(t.children_of(0)[2])
        d = tw.derivative(tw.sector_indicator(t, v))
        assert np.array_equal(d.values, tw.indicator(t, v).values)

    def test_ramp_plateau_and_norm(self):
        t = tw.zline(20)
        g = tw.ramp_function(t, 16, 0.5)
        assert g(t.vertex_of(16)) == 16.0
        assert g(t.vertex_of(20)) == 16.0
        assert abs(tw.norms(g).lip_norm - ramp_lip_norm(16, 0.5)) < 1e-9

    def test_ramp_preconditions(self):
        with pytest.raises(IndexError):
            tw.ramp_function(tw.zline(5), 16, 0.5)
        with pytest.raises(ValueError):
            tw.ramp_function(tw.zline(20), 3, 0.5)
        with pytest.raises(ValueError):
            tw.ramp_function(tw.zline(20), 16, 1.5)

    def test_depth_cap_deep_equals_depth(self):
        t = tw.zline(4)
        f = tw.depth_cap(t, 9)
        assert np.array_equal(f.values, t.depth.astype(float))


class TestValidation:
    def test_wrong_length_rejected(self, line4):
        with pytest.raises(ValueError):
            VertexFunction(line4, np.zeros(3))

    def test_nonfinite_rejected(self, line4):
        vals = np.zeros(len(line4))
        vals[2] = np.inf
        with pytest.raises(ValueError):
            VertexFunction(line4, vals)
