"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are pinned
here and nowhere else; criteria cover the closed-form norm identity, the
point-evaluation gate authorizing the Lipschitz norm formula, the norm
sandwich, the minimum moduli, the three bundled fixtures, the ramp-norm
law, and the universal structural properties.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import treewco as tw
from treewco import VertexFunction, WeightedCompOp

from conftest import ramp_lip_norm, random_operator, small_tree_corpus

_SUITE_START = time.perf_counter()


def _announce(name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[PASS] {name}{suffix}")


def test_c1_norm_identity_oracle_vs_formula():
    start = time.perf_counter()
    rng = np.random.default_rng(20260809)
    trees = small_tree_corpus()
    assert all(len(t) <= 16 for t in trees)
    done, worst = 0, 0.0
    while done < 100:
        tree = trees[done % len(trees)]
        phi = tw.random_map(tree, rng)
        if np.unique(phi.image).size > 11:
            continue  # keep the sign-pattern budget deterministic
        psi = tw.random_function(tree, rng, scale=2.0)
        op = WeightedCompOp(psi, phi)
        oracle = tw.norm_oracle_linf(op).value
        formula = tw.linf_op_norm(op)
        sup_psi = float(np.abs(psi.values).max())
        worst = max(worst, abs(oracle - formula), abs(formula - sup_psi))
        assert abs(oracle - formula) <= 1e-9
        assert abs(formula - sup_psi) <= 1e-9
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce("c1 norm identity", f"100 instances, worst gap {worst:.2e}, {elapsed:.2f}s")


def test_c2_point_evaluation_gate():
    worst = 0.0
    for tree in (tw.zline(6), tw.homogeneous(2, 4)):
        for w in range(len(tree)):
            want = float(max(1, tree.depth_of(w)))
            extreme = tw.point_eval_lip_norm(tree, w, "exhaustive").value
            assert abs(extreme - want) <= 1e-6
            worst = max(worst, abs(extreme - want))
    _announce("c2 point-evaluation gate", f"59 vertices, worst deviation {worst:.2e}")


def test_c3_sandwich_and_exchange():
    rng = np.random.default_rng(3)
    trees = small_tree_corpus()
    for i in range(200):
        op = random_operator(trees[i % len(trees)], rng)
        lo, up = tw.lip_bounds(op)
        oracle = tw.norm_oracle_lip(op).value
        exact = tw.lip_exact_norm(op)
        assert lo - 1e-9 <= oracle <= up + 1e-9
        assert abs(oracle - exact) <= 1e-9
    _announce("c3 sandwich", "200 instances, oracle == formula within 1e-9")


def test_c4_minimum_moduli():
    rng = np.random.default_rng(4)
    small = [tw.zline(5), tw.homogeneous(2, 2)]
    assert all(len(t) <= 12 for t in small)
    identity_gap = 0.0
    for i in range(20):
        tree = small[i % 2]
        if i % 2 == 0:
            op = WeightedCompOp(
                tw.random_function(tree, rng, 2.0), tw.identity_map(tree)
            )
        else:
            op = random_operator(tree, rng, surjective=True)
        res = tw.j_oracle_linf_bracket(op)
        assert res.value >= res.extra["formula_lower"] - 1e-9
        if op.phi.name == "identity":
            identity_gap = max(identity_gap, abs(res.extra["gap"]))
            assert abs(res.extra["gap"]) <= 1e-9
    for seed in range(50):
        srng = np.random.default_rng(seed)
        tree = small[seed % 2]
        if seed % 2 == 0:
            # force a collision so the map is not injective
            img = srng.integers(0, len(tree), size=len(tree))
            img[1] = img[0]
            phi = tw.SelfMap(tree, img, tree.depth_limit, "collide")
            op = WeightedCompOp(tw.random_function(tree, srng, 2.0), phi)
        else:
            psi_vals = srng.uniform(0.5, 2.0, len(tree))
            psi_vals[int(srng.integers(0, len(tree)))] = 0.0
            op = WeightedCompOp(
                VertexFunction(tree, psi_vals), tw.random_permutation_map(tree, srng)
            )
        assert tw.k_linf(op) == 0.0
    _announce("c4 minimum moduli", f"identity gap {identity_gap:.2e}; k = 0 on 50 instances")


def test_c5_fold_isometry_fixture():
    fx = tw.fixture_by_name("z-isometry")
    for depth in (4, 6, 8):
        op = fx.build(depth)
        window = depth // 2
        cert = tw.isometry_check_linf(op, within_depth=window)
        assert cert.verdict == "Holds", depth
        # random bounded functions supported where the window sees every
        # preimage of the infinite map
        rng = np.random.default_rng(depth)
        for _ in range(50):
            vals = rng.uniform(-3.0, 3.0, len(op.tree))
            vals[op.tree.depth > window] = 0.0
            f = VertexFunction(op.tree, vals)
            assert abs(tw.apply_op(op, f).sup_norm - f.sup_norm) <= 1e-12
    _announce("c5 fold isometry", "Holds at depths 4, 6, 8; 150 exact norm equalities")


def test_c6_bounded_not_compact_fixture():
    fx = tw.fixture_by_name("bounded-not-compact")
    op = fx.build(16)
    tail = [v for _, v in tw.lip_ess_norm_profile(op)]
    assert tail[-1] >= 0.8
    assert tail[-1] == pytest.approx(16.0 / 17.0)
    sq = WeightedCompOp(VertexFunction(op.tree, op.psi.values**2), op.phi)
    sq_tail = [v for _, v in tw.lip_ess_norm_profile(sq)]
    assert sq_tail[-1] < 0.1
    _announce(
        "c6 bounded-not-compact",
        f"tail {tail[-1]:.3f} >= 0.8; squared tail {sq_tail[-1]:.3f} < 0.1",
    )


def test_c7_doubling_infeasibility_fixture():
    from treewco.io import fixture_report

    fx = tw.fixture_by_name("not-surjective-2n")
    op = fx.build(8)
    cod = op.codomain_tree
    g = VertexFunction(
        cod,
        np.asarray(
            [1.0 if int(cod.label_of(v)) % 2 == 0 else -1.0 for v in range(len(cod))]
        ),
    )
    res = tw.surjectivity_infeasibility(op, g)
    assert res.extra["verdict"] == "infeasible"
    u, u2 = res.witness["pair"]
    lu, lu2 = int(op.tree.label_of(u)), int(op.tree.label_of(u2))
    assert abs(lu2 - lu) == 2 and lu % 2 == 0
    assert res.witness["quotient"] > 1.0
    assert res.witness["pair_distance"] == 2
    report = fixture_report(fx)
    reach = report["weighted_reach_infimum"]
    assert reach["value"] == 1.0 and reach["vertex_label"] == 0
    assert reach["reference_value"] == 2.0 and "differs" in reach["discrepancy"]
    _announce(
        "c7 doubling infeasibility",
        f"pair ({lu}, {lu2}), quotient {res.witness['quotient']:.2f} > 1; "
        "reach infimum 1 reported with discrepancy note",
    )


def test_c8_ramp_norm_law():
    worst = 0.0
    for r in (0.25, 0.5):
        previous_gap = None
        for n in (16, 64, 256):
            tree = tw.zline(n)
            got = tw.norms(tw.ramp_function(tree, n, r)).lip_norm
            want = ramp_lip_norm(n, r)
            assert abs(got - want) <= 1e-9
            worst = max(worst, abs(got - want))
            gap = got - (r + 1.0)
            assert gap > 0.0
            if previous_gap is not None:
                assert gap < previous_gap  # monotone approach to r + 1
            previous_gap = gap
    _announce("c8 ramp norm law", f"6 cases, worst closed-form gap {worst:.2e}")


def test_c9_universal_properties():
    rng = np.random.default_rng(9)
    trees = [tw.zline(5), tw.homogeneous(2, 3), tw.random_tree(4, seed=1)]
    for i in range(1000):
        tree = trees[i % len(trees)]
        f = tw.random_function(tree, rng, scale=4.0)
        ok, _, _ = tw.growth_check(f)
        assert ok
        rep = tw.norms(f)
        assert rep.d_sup <= 2.0 * rep.sup_norm + 1e-12
        if i % 97 == 0:
            prof = [v for _, v in rep.tail_profile]
            assert all(a >= b for a, b in zip(prof, prof[1:]))
    for i in range(40):
        op = random_operator(trees[i % len(trees)], rng)
        linf = [v for _, v in tw.linf_ess_norm_profile(op)]
        lip = [v for _, v in tw.lip_ess_norm_profile(op)]
        assert all(a >= b for a, b in zip(linf, linf[1:]))
        assert all(a >= b for a, b in zip(lip, lip[1:]))
    coherent = 0
    for seed in range(20):
        srng = np.random.default_rng(seed)
        tree = trees[seed % len(trees)]
        kind = seed % 3
        if kind == 0:
            phi = tw.identity_map(tree)
        elif kind == 1:
            phi = tw.constant_map(tree, int(srng.integers(0, len(tree))))
        else:
            cap = 1
            phi = tw.map_from_table(
                tree,
                {
                    v: tree.ancestor_at_depth(v, min(cap, tree.depth_of(v)))
                    for v in range(len(tree))
                },
            )
        cert = tw.seven_equivalences(phi)
        assert cert.verdict in ("Holds", "Fails")
        coherent += 1
    elapsed = time.perf_counter() - _SUITE_START
    assert elapsed < 60.0
    _announce(
        "c9 universal properties",
        f"1000 growth checks, {coherent} coherent equivalence maps, suite {elapsed:.1f}s",
    )
