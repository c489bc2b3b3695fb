from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treewco as tw
from treewco import SelfMap, VertexFunction, WeightedCompOp
from treewco.operators import ISOMETRY_TOL, STABILITY_MARGIN, MapSpecError

from conftest import (
    label_fn,
    random_operator,
    ref_bounded_below_witness,
    ref_preimages,
    ref_sup,
    ref_window,
    shuffled_edges,
    small_tree_corpus,
)


def ones_op(phi):
    return tw.composition_op(phi)


def op_on(tree, psi_vals, phi):
    return WeightedCompOp(VertexFunction(tree, psi_vals), phi)


class TestSelfMap:
    def test_table_must_be_total(self, line4):
        with pytest.raises(MapSpecError):
            tw.map_from_table(line4, {0: 0})

    def test_table_must_stay_inside(self, line4):
        table = {v: 0 for v in range(len(line4))}
        table[3] = 99
        with pytest.raises(MapSpecError):
            tw.map_from_table(line4, table)

    @pytest.mark.parametrize("image", [0.9, 1.0, True, "1", None])
    def test_table_images_must_be_integers(self, line4, image):
        table = {v: 0 for v in range(len(line4))}
        table[2] = image
        with pytest.raises(MapSpecError):
            tw.map_from_table(line4, table)

    @pytest.mark.parametrize(
        "image", [[0.9, 1.0, 2.7], [0.0, 1.0, 2.0], [True, False, True], ["0", "1", "2"]]
    )
    def test_image_array_must_be_integers(self, image):
        with pytest.raises(MapSpecError, match="must be integers"):
            SelfMap(tw.zline(1), np.asarray(image), 1)

    def test_a_numpy_integer_domain_depth_is_read_as_an_int(self):
        t = tw.zline(4)
        image = tw.identity_map(t).image[: SelfMap.domain_size_for(t, 2)]
        phi, want = SelfMap(t, image, np.int64(2)), SelfMap(t, image, 2)
        assert type(phi.domain_depth) is int and phi.domain_depth == 2
        psi = VertexFunction(t, np.linspace(0.5, 1.5, len(t)))
        got = tw.operator_quantities(WeightedCompOp(psi, phi))
        assert tw.canonical_json(got) == tw.canonical_json(
            tw.operator_quantities(WeightedCompOp(psi, want))
        )
        assert got["map_domain_depth"] == 2

    @pytest.mark.parametrize("depth", [True, 2.0], ids=["bool", "float"])
    def test_a_domain_depth_that_is_not_an_integer_is_refused(self, depth):
        t = tw.zline(4)
        image = np.arange(SelfMap.domain_size_for(t, int(depth)))
        with pytest.raises(MapSpecError, match=f"domain depth must be an integer, got {depth!r}"):
            SelfMap(t, image, depth)

    @pytest.mark.parametrize("image", ["n_vertices", -1])
    def test_one_image_outside_among_valid_ones_is_named(self, image):
        t = tw.zline(3)
        images = tw.identity_map(t).image.copy()
        images[4] = t.n_vertices if image == "n_vertices" else image
        with pytest.raises(MapSpecError, match=rf"^map sends vertex 4 outside the "
                                               rf"truncation \(to {images[4]}\)$"):
            SelfMap(t, images, t.depth_limit)

    def test_table_accepts_numpy_integers(self, line4):
        phi = tw.map_from_table(line4, {v: np.int64(0) for v in range(len(line4))})
        assert not phi.image.any()

    def test_preimage_index_matches_map(self):
        t = tw.zline(5)
        rng = np.random.default_rng(2)
        phi = tw.random_map(t, rng)
        for w in range(len(t)):
            expect = [v for v in range(len(t)) if int(phi.image[v]) == w]
            assert np.flatnonzero(phi.image == w).tolist() == expect
            assert phi.coverage[w] == len(expect)

    def test_injectivity_and_surjectivity_flags(self, line4):
        ident = tw.identity_map(line4)
        assert ident.injective_on_domain and ident.surjective_on_truncation
        const = tw.constant_map(line4, 0)
        assert not const.injective_on_domain
        assert not const.surjective_on_truncation

    def test_zline_fold_table(self):
        t = tw.zline(6)
        phi = tw.zline_fold(t)
        fold = {
            n: (n if n >= 0 else (-n if n % 2 != 0 else n // 2))
            for n in range(-6, 7)
        }
        for v in range(len(t)):
            n = int(t.label_of(v))
            assert int(t.label_of(int(phi.image[v]))) == fold[n]

    def test_zline_double_core(self):
        t = tw.zline(8)
        phi = tw.zline_double(t)
        assert phi.domain_depth == 4
        for v in range(phi.domain_size):
            assert int(t.label_of(int(phi.image[v]))) == 2 * int(t.label_of(v))
        assert phi.injective_on_domain

    def test_range_profile_monotone(self):
        t = tw.zline(6)
        rng = np.random.default_rng(4)
        prof = tw.random_map(t, rng)._range_max.tolist()
        assert all(a <= b for a, b in zip(prof, prof[1:]))


class TestApply:
    def test_identity_with_unit_weight(self, line4):
        op = ones_op(tw.identity_map(line4))
        f = tw.random_function(line4, np.random.default_rng(0))
        assert np.array_equal(tw.apply_op(op, f).values, f.values)

    def test_indicator_pullback(self):
        t = tw.zline(5)
        rng = np.random.default_rng(1)
        op = random_operator(t, rng)
        w = 4
        out = tw.apply_op(op, tw.indicator(t, w))
        expect = np.zeros(len(t))
        pre = np.flatnonzero(op.phi.image == w)
        expect[pre] = op.psi.values[pre]
        assert np.array_equal(out.values, expect)

    def test_fold_fixture_table_evaluation(self):
        fx = tw.fixture_by_name("z-isometry")
        op = fx.build(4)
        t = op.tree
        f = VertexFunction(t, label_fn(t).astype(float))
        out = tw.apply_op(op, f)
        for v in range(len(t)):
            expect = op.psi(v) * f(int(op.phi.image[v]))
            assert out(v) == expect

    def test_tree_mismatch(self, line4):
        op = ones_op(tw.identity_map(line4))
        f = tw.random_function(tw.zline(5), np.random.default_rng(0))
        with pytest.raises(ValueError):
            tw.apply_op(op, f)


class TestLinfNorm:
    def test_unit_weight_norm_one(self, line4):
        rng = np.random.default_rng(3)
        assert tw.linf_op_norm(ones_op(tw.random_map(line4, rng))) == 1.0

    def test_multiplication_norm(self):
        t = tw.zline(4)
        psi = tw.random_function(t, np.random.default_rng(5), 3.0)
        assert tw.linf_op_norm(tw.multiplication_op(psi)) == psi.sup_norm

    def test_decaying_weight_peaks_at_root(self):
        t = tw.zline(4)
        psi = 1.0 / (1.0 + t.depth.astype(float))
        op = op_on(t, psi, tw.identity_map(t))
        assert tw.linf_op_norm(op) == 1.0


class TestEssTails:
    def test_finite_range_tail_zero(self, line4):
        op = ones_op(tw.constant_map(line4, 0))
        assert op.tail_sups.shape == (line4.depth_limit, 2)
        assert not op.tail_sups.any()

    def test_zero_one_law_per_depth(self):
        for tree in small_tree_corpus():
            rng = np.random.default_rng(7)
            for _ in range(5):
                op = ones_op(tw.random_map(tree, rng))
                assert all(v in (0.0, 1.0) for _, v in tw.linf_ess_norm_profile(op))

    def test_unbounded_range_unit_weight_tail_all_one(self):
        t = tw.zline(6)
        op = ones_op(tw.identity_map(t))
        assert tw.linf_ess_norm_profile(op) == tuple((n, 1.0) for n in range(6))

    def test_decaying_weight_tail_values(self):
        t = tw.zline(6)
        psi = 1.0 / (1.0 + t.depth.astype(float))
        op = op_on(t, psi, tw.identity_map(t))
        tail = tw.linf_ess_norm_profile(op)
        assert [n for n, _ in tail] == list(range(6))
        for n, v in tail:
            assert v == pytest.approx(1.0 / (n + 2))

    def test_tails_nonincreasing(self):
        for tree in small_tree_corpus():
            rng = np.random.default_rng(11)
            op = random_operator(tree, rng)
            linf = [v for _, v in tw.linf_ess_norm_profile(op)]
            lip = [v for _, v in tw.lip_ess_norm_profile(op)]
            assert all(a >= b for a, b in zip(linf, linf[1:]))
            assert all(a >= b for a, b in zip(lip, lip[1:]))

    def test_bounded_not_compact_trend(self):
        t = tw.zline(10)
        phi = tw.identity_map(t)
        psi = 1.0 / (1.0 + t.depth.astype(float))
        op = op_on(t, psi, phi)
        tail = [v for _, v in tw.lip_ess_norm_profile(op)]
        assert len(tail) == 10
        assert all(v == pytest.approx(10.0 / 11.0) for v in tail)
        sq = op_on(t, psi**2, phi)
        tail_sq = [v for _, v in tw.lip_ess_norm_profile(sq)]
        assert all(a >= b for a, b in zip(tail_sq, tail_sq[1:]))
        assert tail_sq[-1] == pytest.approx(10.0 / 121.0)


class TestLipNorms:
    def test_bounds_for_reciprocal_weight(self):
        # identity off the root keeps |phi| >= 1, so the lower bound sits
        # strictly below the exact upper bound 1 and climbs with depth
        t = tw.zline(12)
        table = {v: v for v in range(len(t))}
        table[0] = t.vertex_of(1)
        phi = tw.map_from_table(t, table)
        psi = 1.0 / (1.0 + phi.image_depth.astype(float))
        lo, up = tw.lip_bounds(op_on(t, psi, phi))
        assert up == 1.0
        assert lo == pytest.approx(12.0 / 13.0)
        assert lo < 1.0
        t4 = tw.zline(4)
        phi4 = tw.map_from_table(
            t4, {**{v: v for v in range(len(t4))}, 0: t4.vertex_of(1)}
        )
        psi4 = 1.0 / (1.0 + phi4.image_depth.astype(float))
        shallow_lo, _ = tw.lip_bounds(op_on(t4, psi4, phi4))
        assert shallow_lo < lo

    def test_bounds_identity_unit_weight(self, line4):
        op = ones_op(tw.identity_map(line4))
        assert tw.lip_bounds(op) == (4.0, 5.0)
        assert tw.lip_exact_norm(op) == 4.0

    def test_zero_weight(self, line4):
        op = op_on(line4, np.zeros(len(line4)), tw.identity_map(line4))
        assert tw.lip_bounds(op) == (0.0, 0.0)
        assert tw.lip_exact_norm(op) == 0.0

    def test_root_spike_weight(self):
        t = tw.zline(5)
        rng = np.random.default_rng(13)
        phi = tw.random_map(t, rng)
        psi = np.zeros(len(t))
        psi[0] = 1.0
        op = op_on(t, psi, phi)
        assert tw.lip_exact_norm(op) == max(1, t.depth_of(int(phi.image[0])))

    def test_sandwich_on_random_instances(self):
        rng = np.random.default_rng(17)
        for tree in small_tree_corpus():
            for _ in range(25):
                op = random_operator(tree, rng)
                lo, up = tw.lip_bounds(op)
                mid = tw.lip_exact_norm(op)
                assert lo - 1e-12 <= mid <= up + 1e-12
                a, d = op.abs_psi_on_domain, op.phi.image_depth
                assert lo == max(a.max(), (a * d).max())


class TestModuli:
    def test_multiplication_moduli(self):
        t = tw.zline(4)
        psi = tw.random_function(t, np.random.default_rng(19), 2.0)
        op = tw.multiplication_op(psi)
        expect = float(np.abs(psi.values).min())
        assert tw.j_linf(op) == expect
        assert tw.k_linf(op) == expect

    def test_fold_fixture_j_is_one_in_window(self):
        op = tw.fixture_by_name("z-isometry").build(6)
        assert tw.j_linf(op, within_depth=3) == 1.0

    def test_constant_map_not_surjective(self, line4):
        op = ones_op(tw.constant_map(line4, 0))
        assert tw.j_linf(op) == 0.0

    def test_k_composition(self, line4):
        assert tw.k_linf(ones_op(tw.identity_map(line4))) == 1.0
        assert tw.k_linf(ones_op(tw.constant_map(line4, 0))) == 0.0

    def test_k_vanishing_weight(self):
        t = tw.zline(3)
        psi = np.ones(len(t))
        psi[4] = 0.0
        op = op_on(t, psi, tw.identity_map(t))
        assert tw.k_linf(op) == 0.0

    def test_j_bracket_fold_fixture(self):
        op = tw.fixture_by_name("z-isometry").build(8)
        assert tw.j_lip_bracket(op, within_depth=4) == (pytest.approx(1.0 / 3.0), 1.0)

    def test_j_bracket_non_surjective(self, line4):
        assert tw.j_lip_bracket(ones_op(tw.constant_map(line4, 0))) == (0.0, 0.0)

    def test_j_bracket_constant_weight(self):
        t = tw.zline(4)
        op = op_on(t, np.full(len(t), 0.6), tw.identity_map(t))
        lo, up = tw.j_lip_bracket(op)
        assert up == pytest.approx(0.6)
        assert lo == pytest.approx(0.2)

    def test_k_bracket_unit_weight_injective(self):
        t = tw.zline(4)
        op = ones_op(tw.identity_map(t))
        assert tw.k_lip_bracket(op) == (pytest.approx(1.0 / 3.0), 1.0)

    def test_k_bracket_zero_cases(self):
        t = tw.zline(4)
        psi = np.ones(len(t))
        psi[3] = 0.0
        assert tw.k_lip_bracket(op_on(t, psi, tw.identity_map(t))) == (0.0, 0.0)
        assert tw.k_lip_bracket(ones_op(tw.constant_map(t, 0))) == (0.0, 0.0)

    def test_k_bracket_doubling_fixture(self):
        for depth in (8, 12, 16):
            op = tw.fixture_by_name("not-surjective-2n").build(depth)
            lo, up = tw.k_lip_bracket(op)
            core = depth // 2
            assert lo == pytest.approx(1.0 / (3.0 * core))
            assert up == 1.0

    def test_moduli_below_norm(self):
        rng = np.random.default_rng(23)
        for tree in small_tree_corpus():
            for _ in range(20):
                op = random_operator(tree, rng)
                norm = tw.linf_op_norm(op)
                assert tw.j_linf(op) <= norm + 1e-12
                assert tw.k_linf(op) <= norm + 1e-12


class TestIsometry:
    def test_fold_fixture_holds_on_every_window(self):
        fx = tw.fixture_by_name("z-isometry")
        for depth in (4, 6, 8):
            cert = tw.isometry_check_linf(fx.build(depth), within_depth=depth // 2)
            assert cert.verdict == "Holds"

    def test_unimodular_multiplication_isometry(self):
        t = tw.zline(4)
        rng = np.random.default_rng(29)
        psi = np.where(rng.uniform(size=len(t)) < 0.5, -1.0, 1.0)
        cert = tw.isometry_check_linf(op_on(t, psi, tw.identity_map(t)))
        assert cert.verdict == "Holds"

    def test_half_weight_fails_with_witness(self, line4):
        op = op_on(line4, np.full(len(line4), 0.5), tw.identity_map(line4))
        cert = tw.isometry_check_linf(op)
        assert cert.verdict == "Fails"
        assert "vertex" in cert.witnesses

    def test_isometry_implies_modulus_and_norm_one(self):
        rng = np.random.default_rng(31)
        for tree in small_tree_corpus():
            perm = tw.random_permutation_map(tree, rng)
            psi = np.where(rng.uniform(size=len(tree)) < 0.5, -1.0, 1.0)
            op = op_on(tree, psi, perm)
            assert tw.isometry_check_linf(op).verdict == "Holds"
            assert tw.j_linf(op) == 1.0
            assert tw.linf_op_norm(op) == 1.0

    def test_lip_never_isometry_even_for_linf_isometry(self):
        op = tw.fixture_by_name("z-isometry").build(6)
        cert = tw.isometry_check_lip(op, within_depth=3)
        assert cert.verdict == "Holds"
        assert cert.statement == "Lip.NoIsometry"
        assert op.tree.depth_of(cert.witnesses["vertex"]) == 2

    def test_lip_witness_for_non_surjective(self, line4):
        cert = tw.isometry_check_lip(ones_op(tw.constant_map(line4, 0)))
        assert "no preimage" in cert.witnesses["reason"]

    def test_lip_witness_identity_lower_bound(self, line4):
        cert = tw.isometry_check_lip(ones_op(tw.identity_map(line4)))
        assert cert.witnesses["lower_bound"] == pytest.approx(2.0)

    def test_lip_requires_depth_two(self):
        t = tw.zline(1)
        with pytest.raises(IndexError):
            tw.isometry_check_lip(ones_op(tw.identity_map(t)))


class TestSpecialization:
    """Identity map reproduces multiplication operators; unit weight
    reproduces composition operators."""

    def test_multiplication_bounds(self):
        t = tw.zline(6)
        psi = tw.random_function(t, np.random.default_rng(37), 2.0)
        op = tw.multiplication_op(psi)
        a = np.abs(psi.values)
        d = t.depth.astype(float)
        lo, up = tw.lip_bounds(op)
        # the lower end is lip_exact_norm's max, equal bit for bit
        assert lo == max(a.max(), (a * d).max())
        assert up == pytest.approx((a * (1 + d)).max())

    def test_composition_norm_and_moduli(self):
        t = tw.zline(5)
        rng = np.random.default_rng(41)
        phi = tw.random_map(t, rng)
        op = ones_op(phi)
        assert tw.linf_op_norm(op) == 1.0
        assert tw.j_linf(op) == (1.0 if phi.surjective_on_truncation else 0.0)
        assert tw.k_linf(op) == (1.0 if phi.injective_on_domain else 0.0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_random_specialization_coherence(self, seed):
        t = tw.homogeneous(2, 2)
        rng = np.random.default_rng(seed)
        psi = tw.random_function(t, rng, 2.0)
        mult = tw.multiplication_op(psi)
        assert tw.linf_op_norm(mult) == psi.sup_norm
        assert tw.j_linf(mult) == pytest.approx(float(np.abs(psi.values).min()))


# -- array core against per-vertex reference loops ------------------------------


class TestOneVertexTree:
    # a depth-0 tree is its root alone, and a map's domain always holds the
    # root, so every norm and modulus reads the one weight value
    @pytest.mark.parametrize("c", [0.0, 2.5, -0.5])
    @pytest.mark.parametrize("make_map", [tw.identity_map, lambda t: tw.constant_map(t, 0)],
                             ids=["identity", "constant"])
    @pytest.mark.parametrize("tree", [tw.zline(0), tw.homogeneous(2, 0), tw.random_tree(0, seed=3)],
                             ids=["zline", "h2", "random"])
    def test_every_norm_reads_the_root_weight(self, tree, make_map, c):
        op = op_on(tree, np.full(1, c), make_map(tree))
        a = abs(c)
        assert tw.linf_op_norm(op) == a
        assert tw.lip_bounds(op) == (a, a)
        assert tw.lip_exact_norm(op) == a
        assert tw.k_linf(op) == a
        assert tw.k_lip_bracket(op) == ((a / 3.0, a) if a else (0.0, 0.0))
        assert op.psi.sup_norm == a
        res = tw.norm_oracle_lip(op, "exhaustive")
        assert (res.value, res.search_size, res.witness["maximizer_lip_norm"]) == (a, 3, 1.0)


def ref_children(tree):
    kids = [[] for _ in range(len(tree))]
    for v in range(1, len(tree)):
        kids[int(tree.parent[v])].append(v)
    return kids


def ref_layers(tree):
    layers = [[] for _ in range(tree.depth_limit + 1)]
    for v in range(len(tree)):
        layers[int(tree.depth[v])].append(v)
    return layers


def ref_sector(kids, v):
    out, stack = [], [v]
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(kids[u])
    return sorted(out)


def ref_range_max(phi) -> list:
    """max |phi(v)| over domain vertices with depth <= d, per depth d."""
    dom_depth = phi.tree.depth[: phi.domain_size]
    out, running = [], 0
    for d in range(phi.domain_depth + 1):
        sel = phi.image_depth[dom_depth == d]
        if sel.size:
            running = max(running, int(sel.max()))
        out.append(running)
    return out


def ref_finite_range_stable(phi) -> bool:
    prof = ref_range_max(phi)
    last, margin = prof[-1], STABILITY_MARGIN
    flat = len(prof) <= margin or last == prof[-1 - margin]
    return flat and last <= phi.tree.depth_limit - margin


def ref_tail(op, n, lip):
    sel = op.phi.image_depth > n
    a = op.abs_psi_on_domain[sel]
    if lip:
        a = a * op.phi.image_depth[sel]
    return float(a.max()) if a.size else 0.0


def ref_prefix_sup(op, quantity, schedule):
    dom_depth = op.tree.depth[: op.phi.domain_size]
    out = []
    for d in schedule:
        sel = quantity[dom_depth <= d]
        out.append((d, float(sel.max()) if sel.size else 0.0))
    return tuple(out)


def ref_j_linf(op, pre, within):
    best = np.inf
    for w in ref_window(op, within):
        s = ref_sup(op, pre, w)
        if s is None:
            return 0.0
        best = min(best, s)
    return float(best)


def ref_isometry_linf(op, pre, within, tol=1e-9):
    profile, running, failing, reason = [], np.inf, None, ""
    for w in ref_window(op, within):
        s = ref_sup(op, pre, w)
        if s is None:
            if failing is None:
                failing, reason = w, "vertex has no preimage in the window"
            running = 0.0
        else:
            if abs(s - 1.0) > tol and failing is None:
                failing, reason = w, f"preimage sup of |psi| is {s:.12g}, not 1"
            running = min(running, s)
        d = op.tree.depth_of(w)
        if not profile or profile[-1][0] != d:
            profile.append([d, running])
        else:
            profile[-1][1] = running
    witnesses = {"window_depth": op.tree.depth_limit if within is None else within}
    if failing is not None:
        witnesses.update({"vertex": failing, "reason": reason})
    verdict = "Fails" if failing is not None else "Holds"
    return verdict, witnesses, tuple((d, float(v)) for d, v in profile)


def ref_isometry_lip_witness(op, pre, within, tol=1e-9):
    for w in ref_window(op, within):
        if not pre[w]:
            return w, "no preimage"
    w = int(op.tree.layer(2)[0])
    s = ref_sup(op, pre, w)
    if s is None:
        return w, "no preimage"
    if abs(s - 1.0) > tol:
        return w, f"sup norm {s:.12g}, not 1"
    return w, f"= {op.tree.depth_of(w) * s:.12g} exceeds 1"


@st.composite
def small_operators(draw):
    family = draw(st.sampled_from(["random", "zline", "homogeneous", "explicit"]))
    if family == "explicit":
        base = tw.random_tree(draw(st.integers(1, 4)), seed=draw(st.integers(0, 10**6)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        tree = tw.explicit_tree(*shuffled_edges(base, rng))
    elif family == "random":
        lo = draw(st.integers(1, 2))
        tree = tw.random_tree(
            draw(st.integers(1, 4)), seed=draw(st.integers(0, 10**6)),
            min_children=lo, max_children=draw(st.integers(lo, 3)),
        )
    elif family == "zline":
        tree = tw.zline(draw(st.integers(1, 8)))
    else:
        tree = tw.homogeneous(draw(st.integers(2, 3)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(
        ["random", "permutation", "constant"] + (["double"] if family == "zline" else [])
    ))
    if kind == "random":
        phi = tw.random_map(tree, rng)
    elif kind == "permutation":
        phi = tw.random_permutation_map(tree, rng)
    elif kind == "constant":
        phi = tw.constant_map(tree, int(rng.integers(len(tree))))
    else:
        phi = tw.zline_double(tree)
    # few distinct values: zero weights, ties between minimizers, exact ones
    palette = draw(st.sampled_from(
        [(1.0, -1.0), (0.0, 1.0), (0.0, 0.5, 1.0, -1.0, 2.0), (0.25, 3.0)]
    ))
    psi = rng.choice(np.asarray(palette), size=len(tree))
    return op_on(tree, psi, phi)


class TestArrayCoreMatchesLoops:
    @given(small_operators())
    @settings(max_examples=80, deadline=None)
    def test_every_reduction_matches_reference(self, op):
        t, phi = op.tree, op.phi
        kids = ref_children(t)
        assert [t.children_of(v).tolist() for v in range(len(t))] == kids
        assert [t.layer(d).tolist() for d in range(t.depth_limit + 1)] == ref_layers(t)
        assert all(t.sector(v).tolist() == ref_sector(kids, v) for v in range(len(t)))
        pre = ref_preimages(phi)
        assert [np.flatnonzero(phi.image == w).tolist() for w in range(len(t))] == pre
        assert phi.coverage.tolist() == [len(p) for p in pre]
        assert phi.injective_on_domain == all(len(p) <= 1 for p in pre)
        assert phi.surjective_on_truncation == all(len(p) >= 1 for p in pre)
        # both flags are computed once and kept on the map
        assert {"injective_on_domain", "surjective_on_truncation"} <= vars(phi).keys()
        assert phi._range_max.tolist() == ref_range_max(phi)
        assert phi.finite_range_stable() is ref_finite_range_stable(phi)
        N = t.depth_limit
        assert tw.linf_ess_norm_profile(op) == tuple((n, ref_tail(op, n, False)) for n in range(N))
        assert tw.lip_ess_norm_profile(op) == tuple((n, ref_tail(op, n, True)) for n in range(N))
        a = op.abs_psi_on_domain
        sched = tuple(range(1, N + 1))
        # the Bounded profiles: prefix sups of |psi| and of the weighted reach
        certs = tw.classify_operator(op, sched)
        for half, quantity in (("linf", a), ("lip", op.reach)):
            want = [list(row) for row in ref_prefix_sup(op, quantity, sched)]
            assert certs[half][0].depth_profile == want
        assert np.array_equal(op.reach, a * (1.0 + phi.image_depth))
        for within in [None] + list(range(N + 1)):
            assert tw.j_linf(op, within) == ref_j_linf(op, pre, within)
            cert = tw.isometry_check_linf(op, within)
            verdict, witnesses, profile = ref_isometry_linf(op, pre, within)
            assert (cert.verdict, cert.witnesses) == (verdict, witnesses)
            assert cert.depth_profile == [list(row) for row in profile]
            j, below = ref_j_linf(op, pre, within), ref_bounded_below_witness(op, pre, within)
            linf_below, lip_below = (half[-1] for half in tw.classify_operator(op, sched, within).values())
            assert linf_below.statement == "Linf.BoundedBelow" and lip_below.statement == "Lip.BoundedBelow"
            assert linf_below.witnesses == {"injectivity_modulus": j, **below}
            assert lip_below.witnesses == {"bracket": [j / 3.0, j], **below}
            if N >= 2:
                w, reason = ref_isometry_lip_witness(op, pre, within)
                lip = tw.isometry_check_lip(op, within)
                assert lip.witnesses["vertex"] == w and reason in lip.witnesses["reason"]


def ref_running(tree, values, depth, fold) -> list:
    """Row d folds ``values`` (indexed by vertex id) over the vertices of
    depth <= d, for 0 <= d <= ``depth``, one vertex at a time."""
    rows = []
    for d in range(depth + 1):
        acc = None
        for v, x in enumerate(values):
            if tree.depth_of(v) <= d:
                acc = x if acc is None else fold(acc, x)
        rows.append(acc)
    return rows


def check_per_depth_rows(op):
    """``head_sups``, ``preimage_argmin``, ``preimage_inf``,
    ``first_off_one`` and ``_range_max``, and the norms and modulus read
    from them, against per-vertex loops; ``tail_slopes`` against
    ``np.polyfit`` on the ``tail_sups`` columns, bit for bit."""
    t, phi = op.tree, op.phi
    image_depth = [t.depth_of(int(phi.image[v])) for v in range(phi.domain_size)]
    a = [abs(float(x)) for x in op.psi.values[: phi.domain_size]]
    reach = [x * (1.0 + d) for x, d in zip(a, image_depth)]
    heads = zip(ref_running(t, a, phi.domain_depth, max),
                ref_running(t, reach, phi.domain_depth, max))
    assert op.head_sups.tolist() == [list(row) for row in heads]
    pre = ref_preimages(phi)
    # an uncovered vertex counts 0, as in the clamped infimum
    sups = [ref_sup(op, pre, w) or 0.0 for w in range(len(t))]
    assert op.preimage_inf.tolist() == ref_running(t, sups, t.depth_limit, min)
    # an uncovered vertex holds -inf: it is the least, and off 1
    raw = [-np.inf if s is None else s for s in (ref_sup(op, pre, w) for w in range(len(t)))]
    first_least = ref_running(t, list(enumerate(raw)), t.depth_limit,
                              lambda best, x: x if x[1] < best[1] else best)
    assert op.preimage_argmin.tolist() == [v for v, _ in first_least]
    assert op.first_off_one == next(
        (v for v, s in enumerate(raw) if abs(s - 1.0) > ISOMETRY_TOL), len(t))
    assert phi._range_max.tolist() == ref_running(t, image_depth, phi.domain_depth, max)
    assert tw.linf_op_norm(op) == max(a)
    assert tw.lip_bounds(op)[1] == max(reach)
    assert tw.lip_exact_norm(op) == max(x * max(1, d) for x, d in zip(a, image_depth))
    for within in range(t.depth_limit + 1):
        assert tw.j_linf(op, within) == ref_j_linf(op, pre, within)
    n = len(op.tail_sups)
    slopes = [np.polyfit(np.arange(n), op.tail_sups[:, i], 1)[0] if n >= 2 else 0.0
              for i in (0, 1)]
    assert [type(x) for x in op.tail_slopes] == [float, float]
    assert [_bits(x) for x in op.tail_slopes] == [_bits(x) for x in slopes]


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestPerDepthRows:
    @given(small_operators())
    @settings(max_examples=80, deadline=None)
    def test_rows_match_per_vertex_loops(self, op):
        check_per_depth_rows(op)

    @pytest.mark.parametrize("depth", [1, 2, 6, 7])
    def test_doubling_core_with_zero_weights(self, depth):
        t = tw.zline(depth)
        psi = np.where(label_fn(t) % 3 == 0, 0.0, 1.0 / (1.0 + t.depth))
        for phi in (tw.zline_double(t), tw.zline_fold(t), tw.constant_map(t, 1)):
            check_per_depth_rows(op_on(t, psi, phi))

    def test_rows_are_computed_once_per_operator(self):
        t = tw.homogeneous(2, 3)
        op = random_operator(t, np.random.default_rng(3), surjective=True)
        tw.classify_operator(op)
        tw.operator_quantities(op)
        cached = {"head_sups", "preimage_argmin", "preimage_inf", "first_off_one",
                  "tail_sups", "tail_slopes", "psi_inf"}
        assert cached <= vars(op).keys()
        assert {"_range_max"} <= vars(op.phi).keys()
        for rows in (op.head_sups, op.preimage_argmin, op.preimage_inf, op.tail_sups,
                     op.phi._range_max):
            with pytest.raises(ValueError):
                rows[0] = 5
        with pytest.raises(TypeError):
            op.tail_slopes[0] = 5.0

    @pytest.mark.parametrize("depth", [0, 1])
    def test_fewer_than_two_tail_rows_have_zero_slopes(self, depth):
        for t in (tw.zline(depth), tw.homogeneous(3, depth)):
            op = op_on(t, 1.0 + np.arange(len(t)), tw.constant_map(t, len(t) - 1))
            assert len(op.tail_sups) == depth
            assert op.tail_slopes == (0.0, 0.0)
            assert [type(x) for x in op.tail_slopes] == [float, float]

    @pytest.mark.parametrize(
        "psi, moves, want",
        [
            # ties: the first least vertex of each window
            ([2.0, 0.5, 0.5, 0.0, 1.0, 0.0, 0.0], {}, [0, 1, 3, 3]),
            # a zero, and a covered zero before it: the first zero wins
            ([0.0, 1.0, 0.0, 3.0, 0.0, 1.0, 1.0], {}, [0, 0, 0, 0]),
            # vertex 4 uncovered (its preimage moves to 3): -inf below 0
            ([2.0, 0.5, 0.5, 0.0, 1.0, 0.0, 0.0], {4: 3}, [0, 1, 4, 4]),
            # the root and vertex 5 uncovered: the root wins every window
            ([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], {0: 1, 5: 6}, [0, 0, 0, 0]),
            # only vertex 6 uncovered, in the last layer
            ([3.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0], {6: 5}, [0, 1, 3, 6]),
        ],
    )
    def test_first_least_preimage_sup_per_window(self, psi, moves, want):
        t = tw.zline(3)
        op = op_on(t, psi, tw.map_from_table(t, {v: moves.get(v, v) for v in range(len(t))}))
        assert op.preimage_argmin.tolist() == want
        check_per_depth_rows(op)

    @pytest.mark.parametrize(
        "sup, off",
        [
            (1.0, False),
            (1.0 + 5e-10, False),
            (1.0 - 5e-10, False),
            (np.nextafter(1.0 + ISOMETRY_TOL, 0.0), False),
            # off by the exact test, although 1 + tol > 1 + tol is false
            (1.0 + ISOMETRY_TOL, True),
            (1.0 - ISOMETRY_TOL, False),
            (np.nextafter(1.0 - ISOMETRY_TOL, 0.0), True),
            (1.0 + 2e-9, True),
            (0.0, True),
            (None, True),  # uncovered
        ],
    )
    def test_first_off_one_is_the_exact_tolerance_test(self, sup, off):
        t = tw.homogeneous(2, 3)
        v = 9
        psi = np.ones(len(t))
        table = {u: u for u in range(len(t))}
        if sup is None:
            table[v] = v + 1
        else:
            psi[v] = sup
        op = op_on(t, psi, tw.map_from_table(t, table))
        assert op.first_off_one == (v if off else len(t))
        check_per_depth_rows(op)
        for window in range(t.depth_limit + 1):
            cert = tw.isometry_check_linf(op, window)
            assert cert.verdict == (tw.FAILS if off and window >= t.depth_of(v) else tw.HOLDS)
