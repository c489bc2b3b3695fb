from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treewco as tw
from treewco import FAILS, HOLDS, TREND_CONSISTENT, TREND_INCONSISTENT
from treewco import Certificate, VertexFunction, WeightedCompOp
from treewco.classify import (
    _check_schedule,
    _decays,
    _stays_bounded,
    default_schedule,
)
from treewco.io import (
    SCHEMA_VERSION,
    canonical_json,
    fixture_report,
    golden_dir,
    operator_quantities,
    tree_to_spec,
)
from treewco.operators import STABILITY_MARGIN, _slope, _slope_design

from conftest import ref_bounded_below_witness, ref_preimages, shuffled_edges


def verdicts(certs):
    return {c.statement: c.verdict for c in certs}


# -- reference classifiers: one hand-written body per function space ---------------


def _prefix_sup_profile(op, quantity, schedule):
    per_depth = tw.operators.depth_max(
        op.tree.depth[: op.phi.domain_size], quantity, op.tree.depth_limit + 1
    )
    prefix = np.maximum.accumulate(per_depth)
    return tuple((d, float(prefix[d])) for d in schedule)


def ref_classify_linf(op, schedule=None, window_depth=None, zero_tol=1e-6):
    t = op.tree
    if schedule is None:
        schedule = default_schedule(t.depth_limit)
    sched = _check_schedule(schedule, t.depth_limit)
    certs = []

    a_psi = np.abs(op.psi.values[: op.phi.domain_size])
    bounded_profile = _prefix_sup_profile(op, a_psi, sched)
    bounded_vals = [v for _, v in bounded_profile]
    certs.append(
        Certificate(
            statement="Linf.Bounded",
            verdict=TREND_CONSISTENT if _stays_bounded(bounded_vals, zero_tol) else TREND_INCONSISTENT,
            criterion=(
                "bounded on the bounded functions iff the weight is bounded; "
                "the operator norm equals sup |psi|"
            ),
            witnesses={"sup_psi": float(tw.linf_op_norm(op))},
            depth_profile=bounded_profile,
            window_depth=window_depth,
        )
    )

    tails = tw.linf_ess_norm_profile(op)
    tail_profile = tuple((d, tails[d - 1][1]) for d in sched)
    tail_vals = [v for _, v in tail_profile]
    if op.phi.finite_range_stable():
        verdict = HOLDS
        witnesses = {
            "finite_range_max_depth": int(op.phi._range_max[-1]),
            "reason": "map range stabilized strictly inside the window",
        }
    else:
        verdict = TREND_CONSISTENT if _decays(tail_vals, zero_tol) else TREND_INCONSISTENT
        witnesses = {"final_tail": tail_vals[-1]}
    certs.append(
        Certificate(
            statement="Linf.Compact",
            verdict=verdict,
            criterion=(
                "compact on the bounded functions iff the map has finite range "
                "or |psi(v)| tends to 0 whenever |phi(v)| grows; the essential "
                "norm is the tail limit of sup |psi|"
            ),
            witnesses=witnesses,
            depth_profile=tail_profile,
            window_depth=window_depth,
        )
    )

    certs.append(tw.isometry_check_linf(op, window_depth))

    j = tw.j_linf(op, window_depth)
    witnesses = {"injectivity_modulus": j}
    witnesses.update(ref_bounded_below_witness(op, ref_preimages(op.phi), window_depth))
    certs.append(
        Certificate(
            statement="Linf.BoundedBelow",
            verdict=HOLDS if j > 0 else FAILS,
            criterion=(
                "bounded below on the bounded functions iff the map covers "
                "every vertex and the smallest preimage sup of |psi| is positive"
            ),
            witnesses=witnesses,
            depth_profile=(),
            window_depth=window_depth if window_depth is not None else t.depth_limit,
        )
    )
    return certs


def ref_classify_lip(op, schedule=None, window_depth=None, zero_tol=1e-6):
    t = op.tree
    if schedule is None:
        schedule = default_schedule(t.depth_limit)
    sched = _check_schedule(schedule, t.depth_limit)
    certs = []

    a_psi = np.abs(op.psi.values[: op.phi.domain_size])
    reach = a_psi * (1.0 + op.phi.image_depth)
    bounded_profile = _prefix_sup_profile(op, reach, sched)
    bounded_vals = [v for _, v in bounded_profile]
    lo, up = tw.lip_bounds(op)
    certs.append(
        Certificate(
            statement="Lip.Bounded",
            verdict=TREND_CONSISTENT if _stays_bounded(bounded_vals, zero_tol) else TREND_INCONSISTENT,
            criterion=(
                "bounded from the Lipschitz space iff sup |psi(v)|(1+|phi(v)|) "
                "is finite; the norm lies between max(sup|psi|, sup|psi||phi|) "
                "and sup |psi|(1+|phi|)"
            ),
            witnesses={"lower_bound": lo, "upper_bound": up, "exact_norm": tw.lip_exact_norm(op)},
            depth_profile=bounded_profile,
            window_depth=window_depth,
        )
    )

    tails = tw.lip_ess_norm_profile(op)
    tail_profile = tuple((d, tails[d - 1][1]) for d in sched)
    tail_vals = [v for _, v in tail_profile]
    if op.phi.finite_range_stable():
        verdict = HOLDS
        witnesses = {
            "finite_range_max_depth": int(op.phi._range_max[-1]),
            "reason": "map range stabilized strictly inside the window",
        }
    else:
        verdict = TREND_CONSISTENT if _decays(tail_vals, zero_tol) else TREND_INCONSISTENT
        witnesses = {"final_tail": tail_vals[-1]}
    certs.append(
        Certificate(
            statement="Lip.Compact",
            verdict=verdict,
            criterion=(
                "compact from the Lipschitz space iff |psi(v)||phi(v)| tends "
                "to 0 whenever |phi(v)| grows; the essential norm is the tail "
                "limit of sup |psi||phi|"
            ),
            witnesses=witnesses,
            depth_profile=tail_profile,
            window_depth=window_depth,
        )
    )

    if t.depth_limit >= 2:
        certs.append(tw.isometry_check_lip(op, window_depth))

    lo_j, up_j = tw.j_lip_bracket(op, window_depth)
    witnesses = {"bracket": [lo_j, up_j]}
    witnesses.update(ref_bounded_below_witness(op, ref_preimages(op.phi), window_depth))
    certs.append(
        Certificate(
            statement="Lip.BoundedBelow",
            verdict=HOLDS if lo_j > 0 else FAILS,
            criterion=(
                "bounded below from the Lipschitz space iff the map covers "
                "every vertex and M = inf-sup of |psi| over preimages is "
                "positive; the modulus lies in [M/3, M]"
            ),
            witnesses=witnesses,
            depth_profile=(),
            window_depth=window_depth if window_depth is not None else t.depth_limit,
        )
    )
    return certs


def ref_fixture_op(name, depth):
    t = tw.zline(depth)
    labels = np.asarray([int(t.label_of(v)) for v in range(t.n_vertices)])
    if name == "z-isometry":
        psi = np.where((labels < 0) & (labels % 2 != 0), 0.0, 1.0)
        return WeightedCompOp(VertexFunction(t, psi), tw.zline_fold(t))
    if name == "bounded-not-compact":
        psi = 1.0 / (1.0 + np.abs(labels))
        return WeightedCompOp(VertexFunction(t, psi), tw.identity_map(t))
    psi = np.where(labels == 0, 1.0, 1.0 / np.where(labels == 0, 1, labels))
    return WeightedCompOp(VertexFunction(t, psi), tw.zline_double(t))


def ref_fixture_report(fx, depth, zero_tol=1e-6):
    op = ref_fixture_op(fx.name, depth)
    window = fx.window_for(depth)
    certs = tw.classify_operator(op, None, window, zero_tol)
    report = {
        "schema": SCHEMA_VERSION,
        "fixture": fx.name,
        "description": fx.description,
        "depth": depth,
        "window_depth": window,
        "tree": tree_to_spec(op.tree),
        "certificates": [c.to_json() for c in certs["linf"] + certs["lip"]],
        "quantities": operator_quantities(op, window),
        "expected": dict(sorted(fx.expected.items())),
        "notes": list(fx.notes),
    }
    if fx.name == "bounded-not-compact":
        sq = WeightedCompOp(VertexFunction(op.tree, op.psi.values**2), op.phi)
        sq_certs = tw.classify_operator(sq, None, window, zero_tol)["lip"]
        report["squared_weight"] = {
            "lip_ess_tail": [[n, v] for n, v in tw.lip_ess_norm_profile(sq)],
            "compact_certificate": next(
                c.to_json() for c in sq_certs if c.statement == "Lip.Compact"
            ),
        }
    if fx.name == "not-surjective-2n":
        cod = op.codomain_tree
        g_vals = np.asarray(
            [1.0 if int(cod.label_of(v)) % 2 == 0 else -1.0 for v in range(cod.n_vertices)]
        )
        res = tw.surjectivity_infeasibility(op, VertexFunction(cod, g_vals))
        a = np.abs(op.psi.values[: op.phi.domain_size])
        reach = a * (1.0 + op.phi.image_depth)
        arg = int(np.argmin(reach))
        report["infeasibility"] = res.to_json()
        report["weighted_reach_infimum"] = {
            "value": float(reach.min()),
            "vertex_label": int(op.tree.label_of(arg)),
            "reference_value": 2.0,
            "discrepancy": (
                "computed value 1 at n = 0 differs from the reference value 2; "
                "the reference infimum ignores the root term"
            ),
        }
    return report


_ZERO_TOLS = (1e-6, 1e-3)


@st.composite
def _classify_cases(draw):
    """An operator on a small tree, with a window, schedule and zero_tol."""
    family = draw(st.sampled_from(["zline", "h2", "h3", "random"]))
    if family == "zline":
        t = tw.zline(draw(st.integers(1, 10)))
    elif family == "h2":
        t = tw.homogeneous(2, draw(st.integers(1, 4)))
    elif family == "h3":
        t = tw.homogeneous(3, draw(st.integers(1, 3)))
    else:
        t = tw.random_tree(draw(st.integers(1, 4)), seed=draw(st.integers(0, 50)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    maps = ["identity", "permutation", "random", "constant"]
    if family == "zline":
        maps += ["fold", "double"]
    kind = draw(st.sampled_from(maps))
    if kind == "identity":
        phi = tw.identity_map(t)
    elif kind == "permutation":
        phi = tw.random_permutation_map(t, rng)
    elif kind == "random":
        phi = tw.random_map(t, rng)
    elif kind == "constant":
        phi = tw.constant_map(t, int(rng.integers(t.n_vertices)))
    elif kind == "fold":
        phi = tw.zline_fold(t)
    else:
        phi = tw.zline_double(t)
    depth = t.depth.astype(float)
    psi = {
        "ones": np.ones(t.n_vertices),
        "random": rng.normal(size=t.n_vertices),
        "decay": 0.5**depth,
        "grow": depth + 1.0,
    }[draw(st.sampled_from(["ones", "random", "decay", "grow"]))]
    psi[rng.random(t.n_vertices) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    op = WeightedCompOp(VertexFunction(t, psi), phi)
    n = t.depth_limit
    window = draw(st.sampled_from([None, n // 2]))
    schedule = draw(
        st.sampled_from([None, (draw(st.integers(1, n)),), tuple(range(1, n + 1))])
    )
    return op, schedule, window, draw(st.sampled_from(_ZERO_TOLS))


@st.composite
def _implication_cases(draw):
    """0/1 or +-1 weights under fold, identity, permutation and constant maps
    on trees of at most 40 vertices, or the z-isometry fixture, whose
    Linf.Isometry holds inside its half-depth window."""
    family = draw(st.sampled_from(["fixture", "zline", "h2", "h3", "random"]))
    if family == "fixture":
        return tw.fixture_by_name("z-isometry").build(draw(st.integers(2, 16)))
    if family == "zline":
        t = tw.zline(draw(st.integers(1, 19)))
    elif family == "h2":
        t = tw.homogeneous(2, draw(st.integers(1, 3)))
    elif family == "h3":
        t = tw.homogeneous(3, draw(st.integers(1, 2)))
    else:
        t = tw.random_tree(draw(st.integers(1, 4)), seed=draw(st.integers(0, 50)),
                           min_children=1, max_children=2)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    maps = ["identity", "permutation", "constant"] + (["fold"] if family == "zline" else [])
    kind = draw(st.sampled_from(maps))
    if kind == "identity":
        phi = tw.identity_map(t)
    elif kind == "permutation":
        phi = tw.random_permutation_map(t, rng)
    elif kind == "constant":
        # a target of uniform depth: often shallow enough for a stable range
        phi = tw.constant_map(t, int(rng.choice(t.layer(draw(st.integers(0, t.depth_limit))))))
    else:
        phi = tw.zline_fold(t)
    palette = np.asarray(draw(st.sampled_from([(0.0, 1.0), (1.0, -1.0)])))
    return WeightedCompOp(VertexFunction(t, rng.choice(palette, size=t.n_vertices)), phi)


class TestTrendRules:
    """Which profile values each trend rule compares: a change of rule shows
    here as a changed case."""

    @pytest.mark.parametrize(
        "values, want",
        [([1, 100, 104], True), ([100, 1, 2], False)],
        ids=["early_jump", "late_doubling"],
    )
    def test_stays_bounded_reads_the_last_two_values(self, values, want):
        assert _stays_bounded(values, 1e-6) is want

    def test_decays_reads_the_last_three_values(self):
        # 1 -> 1.9 grows, but 3 >= 1.5 * 1.9
        assert _decays([1, 3, 2, 1.9], 1e-6) is True


class TestClassifyLinf:
    def test_fold_fixture(self):
        fx = tw.fixture_by_name("z-isometry")
        for depth in (4, 6, 8):
            op = fx.build(depth)
            v = verdicts(tw.classify_operator(op, window_depth=depth // 2)["linf"])
            assert v["Linf.Isometry"] == HOLDS
            assert v["Linf.BoundedBelow"] == HOLDS

    def test_decaying_weight_compact_trend(self):
        t = tw.zline(16)
        psi = (0.5) ** t.depth.astype(float)
        op = WeightedCompOp(VertexFunction(t, psi), tw.identity_map(t))
        v = verdicts(tw.classify_operator(op)["linf"])
        assert v["Linf.Compact"] == TREND_CONSISTENT

    def test_finite_range_compact_holds(self):
        t = tw.zline(8)
        op = tw.composition_op(tw.constant_map(t, 0))
        v = verdicts(tw.classify_operator(op)["linf"])
        assert v["Linf.Compact"] == HOLDS

    def test_growing_weight_unbounded_trend(self):
        t = tw.zline(16)
        psi = t.depth.astype(float) + 1.0
        op = WeightedCompOp(VertexFunction(t, psi), tw.identity_map(t))
        v = verdicts(tw.classify_operator(op)["linf"])
        assert v["Linf.Bounded"] == TREND_INCONSISTENT


class TestClassifyLip:
    def test_reciprocal_weight_example(self):
        fx = tw.fixture_by_name("bounded-not-compact")
        op = fx.build(16)
        v = verdicts(tw.classify_operator(op)["lip"])
        assert v["Lip.Bounded"] == TREND_CONSISTENT
        assert v["Lip.Compact"] == TREND_INCONSISTENT

    def test_squared_weight_compact(self):
        fx = tw.fixture_by_name("bounded-not-compact")
        op = fx.build(16)
        sq = WeightedCompOp(VertexFunction(op.tree, op.psi.values**2), op.phi)
        assert verdicts(tw.classify_operator(sq)["lip"])["Lip.Compact"] == TREND_CONSISTENT

    def test_every_operator_fails_isometry(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            t = tw.random_tree(4, seed=int(rng.integers(1000)))
            op = WeightedCompOp(
                tw.random_function(t, rng, 2.0), tw.random_map(t, rng)
            )
            v = verdicts(tw.classify_operator(op)["lip"])
            assert v["Lip.NoIsometry"] == HOLDS

    def test_profiles_monotone(self):
        rng = np.random.default_rng(1)
        t = tw.zline(8)
        op = WeightedCompOp(tw.random_function(t, rng, 2.0), tw.random_map(t, rng))
        certs = tw.classify_operator(op)
        for cert in certs["linf"] + certs["lip"]:
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

    @given(_implication_cases())
    @settings(max_examples=150, deadline=None)
    def test_implications_hold_in_every_window(self, op):
        for window in [None] + list(range(op.tree.depth_limit + 1)):
            v = verdicts(sum(tw.classify_operator(op, None, window).values(), []))
            # a Linf isometry of the window is bounded below on it in both spaces
            if v["Linf.Isometry"] == HOLDS:
                assert v["Linf.BoundedBelow"] == HOLDS and v["Lip.BoundedBelow"] == HOLDS
        # a stabilized range makes every item of the seven-way equivalence true
        if op.phi.finite_range_stable():
            seven = tw.seven_equivalences(op.phi)
            assert all(seven.witnesses["items"].values()) and seven.verdict == HOLDS

    def test_classify_operator_runs_on_random(self):
        rng = np.random.default_rng(2)
        for tree in (tw.zline(6), tw.homogeneous(2, 3)):
            for _ in range(5):
                op = WeightedCompOp(
                    tw.random_function(tree, rng, 2.0), tw.random_map(tree, rng)
                )
                out = tw.classify_operator(op)
                assert len(out["linf"]) == 4 and len(out["lip"]) == 4


    def test_non_increasing_schedule_refused(self):
        t = tw.zline(8)
        op = WeightedCompOp(VertexFunction(t, t.depth.astype(float)), tw.identity_map(t))
        certs = tw.classify_operator(op)
        for half in ("linf", "lip"):
            # an unbounded weight: the default schedule sees the growth
            assert certs[half][0].verdict == TREND_INCONSISTENT
        for bad in ((8, 4, 2, 1), (1, 2, 2, 4)):
            with pytest.raises(ValueError, match="strictly increasing"):
                tw.classify_operator(op, bad)

    def test_numpy_integer_schedule_is_read_as_ints(self):
        op = tw.composition_op(tw.identity_map(tw.zline(8)))
        want = tw.classify_operator(op, [1, 2, 8])
        got = tw.classify_operator(op, np.array([1, 2, 8]))
        for half in ("linf", "lip"):
            assert [c.to_json() for c in got[half]] == [c.to_json() for c in want[half]]
        assert [type(n) for n, _ in got["lip"][0].depth_profile] == [int] * 3

    def test_depth_zero_refused_by_depth_limit(self):
        op = tw.composition_op(tw.identity_map(tw.zline(0)))
        with pytest.raises(ValueError, match=r"depth >= 1, got depth 0"):
            tw.classify_operator(op)


class TestOneClassifier:
    @given(_classify_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_bytes(self, case):
        op, schedule, window, zero_tol = case
        both = tw.classify_operator(op, schedule, window, zero_tol)
        for half, ref in (("linf", ref_classify_linf), ("lip", ref_classify_lip)):
            got = canonical_json([c.to_json() for c in both[half]])
            want = canonical_json([c.to_json() for c in ref(op, schedule, window, zero_tol)])
            assert got == want

    def test_depth_one_has_no_lipschitz_isometry_certificate(self):
        for t in (tw.zline(1), tw.homogeneous(2, 1)):
            op = tw.composition_op(tw.identity_map(t))
            statements = [c.statement for c in tw.classify_operator(op)["lip"]]
            assert statements == ["Lip.Bounded", "Lip.Compact", "Lip.BoundedBelow"]

    def test_reach_is_the_weighted_reach(self):
        rng = np.random.default_rng(4)
        t = tw.zline(6)
        op = WeightedCompOp(tw.random_function(t, rng, 2.0), tw.zline_double(t))
        want = np.abs(op.psi.values[: op.phi.domain_size]) * (1.0 + op.phi.image_depth)
        assert np.array_equal(op.reach, want)
        assert not op.reach.flags.writeable

    # keyword arguments of the reference: under the second zero_tol the
    # report is unchanged, so no bundled verdict hinges on the threshold
    @pytest.mark.parametrize("config", [None, {"zero_tol": _ZERO_TOLS[1]}])
    @pytest.mark.parametrize("depth", range(6, 13))
    def test_fixture_reports_match_reference(self, depth, config):
        for fx in tw.bundled_fixtures():
            got = canonical_json(fixture_report(fx, depth))
            assert got == canonical_json(ref_fixture_report(fx, depth, **(config or {}))), fx.name


def _one_pass_operators():
    """Random maps and bijections on zline, homogeneous, random and explicit
    trees; doubling (stored on the core of depth N/2) and fold on the line."""
    rng = np.random.default_rng(20)
    line, base = tw.zline(9), tw.random_tree(4, seed=3)
    explicit = tw.explicit_tree(*shuffled_edges(base, rng))
    trees = {"zline": line, "h2": tw.homogeneous(2, 4), "h3": tw.homogeneous(3, 3),
             "random": base, "explicit": explicit}
    maps = [(f"{name}_{kind}", t, make(t, rng)) for name, t in trees.items()
            for kind, make in (("map", tw.random_map), ("perm", tw.random_permutation_map))]
    maps += [("zline_double", line, tw.zline_double(line)), ("zline_fold", line, tw.zline_fold(line))]
    for name, t, phi in maps:
        op = WeightedCompOp(tw.random_function(t, rng, 2.0), phi)
        for window in (None, t.depth_limit // 2):
            yield pytest.param(op, window, id=f"{name}-{window}")


class TestOnePass:
    @pytest.mark.parametrize("op, window", _one_pass_operators())
    def test_layer_end_prefix_sup_is_the_per_depth_reference(self, op, window):
        sched = tuple(range(1, op.tree.depth_limit + 1))  # past the core too
        certs = tw.classify_operator(op, sched, window)
        by = {c.statement: c for c in certs["linf"] + certs["lip"]}
        for statement, quantity in (("Linf.Bounded", op.abs_psi_on_domain), ("Lip.Bounded", op.reach)):
            want = [list(row) for row in _prefix_sup_profile(op, quantity, sched)]
            assert by[statement].depth_profile == want

    @pytest.mark.parametrize("op, window", _one_pass_operators())
    def test_one_window_read_per_classification(self, op, window, monkeypatch):
        """Every window question is a read of a row the operator caches, so
        a warm classification (and both isometry checks) scans no vertex
        array and writes the same bytes."""

        def text():
            certs = tw.classify_operator(op, None, window)
            checks = [tw.isometry_check_linf(op, window)]
            if op.tree.depth_limit >= 2:
                checks.append(tw.isometry_check_lip(op, window))
            return canonical_json([c.to_json() for c in certs["linf"] + certs["lip"] + checks])

        want = text()
        # every reduction (argmin, argmax or any ufunc method) over an array
        # with one entry per vertex that the operator, its map or its weight
        # holds once the first classification has cached its rows
        scans = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                scans.append(f"{ufunc.__name__}.{method}")
                inputs = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

            def argmin(self, *args, **kwargs):
                scans.append("argmin")
                return self.view(np.ndarray).argmin(*args, **kwargs)

            def argmax(self, *args, **kwargs):
                scans.append("argmax")
                return self.view(np.ndarray).argmax(*args, **kwargs)

        held = {op: ("preimage_sup", "abs_psi_on_domain", "reach"),
                op.phi: ("image", "image_depth", "coverage"), op.psi: ("values",)}
        for owner, names in held.items():
            for name in names:
                monkeypatch.setitem(vars(owner), name, vars(owner)[name].view(Counted))
        # the counter sees an argmin and the isometry test's subtraction
        sup = op.preimage_sup
        sup.argmin(), np.abs(sup - 1.0)
        assert scans == ["argmin", "subtract.__call__"]
        scans.clear()
        assert text() == want
        assert scans == []

    @pytest.mark.parametrize(
        "depth, schedule, message",
        [
            pytest.param(8, (8, 4, 2, 1), "schedule depths must be strictly increasing, "
                         "got [8, 4, 2, 1]", id="8-schedule0"),
            pytest.param(8, (1, 2, 2, 4), "schedule depths must be strictly increasing, "
                         "got [1, 2, 2, 4]", id="8-schedule1"),
            pytest.param(8, (0, 2), "schedule must be within 1..8", id="8-schedule2"),
            pytest.param(8, (1, 9), "schedule must be within 1..8", id="8-schedule3"),
            pytest.param(8, [3.0, 2], "schedule depth must be an integer, got 3.0",
                         id="8-schedule4"),
            pytest.param(8, [1.9, 3.2, 8], "schedule depth must be an integer, got 1.9",
                         id="8-fractional"),
            pytest.param(8, (1, True), "schedule depth must be an integer, got True",
                         id="8-boolean"),
            pytest.param(8, [], "schedule must be within 1..8", id="8-empty"),
            pytest.param(0, None, "classification needs a tree of depth >= 1, got depth 0",
                         id="0-None"),
        ],
    )
    def test_a_bad_schedule_is_refused_alike_by_all_three(self, depth, schedule, message):
        op = tw.composition_op(tw.identity_map(tw.zline(depth)))
        with pytest.raises(ValueError) as info:
            tw.classify_operator(op, schedule)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "zero_tol",
        [float("nan"), -1.0, float("inf"), True, pytest.param(np.True_, id="np_True"), "x", None,
         pytest.param(10**400, id="10**400")],
    )
    def test_a_zero_tol_outside_the_cli_rule_is_refused(self, zero_tol):
        # the CLI's --tol rule: a finite number >= 0; inf would turn both
        # Compact verdicts of the fold into TrendConsistent, True once read
        # as 1.0, and the others raised a TypeError or an OverflowError
        op = tw.composition_op(tw.zline_fold(tw.zline(8)))
        compact = [c.verdict for c in tw.classify_operator(op, zero_tol=0.0)["linf"]
                   if c.statement.endswith("Compact")]
        assert compact == [TREND_INCONSISTENT]
        with pytest.raises(ValueError) as info:
            tw.classify_operator(op, zero_tol=zero_tol)
        assert str(info.value) == f"zero_tol must be a finite number >= 0, got {zero_tol}"


def ref_seven_equivalences(phi) -> Certificate:
    """seven_equivalences reading both tail sups off a second operator, the
    composition operator of ``phi``."""
    t = phi.tree
    op = tw.composition_op(phi)
    prof = tuple(enumerate(phi._range_max.tolist()))
    max_reach = prof[-1][1]
    inside = t.depth_limit - STABILITY_MARGIN
    small_reach = max_reach <= inside
    stable = phi.finite_range_stable()
    linf_tail_zero, lip_tail_zero = (
        (op.tail_sups[: max(inside, 0) + 1] == 0.0).any(axis=0).tolist()
    )
    items = {
        "lip_bounded": lip_tail_zero,
        "lip0_bounded": lip_tail_zero,
        "linf_compact": linf_tail_zero,
        "lip_compact": lip_tail_zero,
        "lip0_compact": lip_tail_zero,
        "lip_to_lip_compact": small_reach,
        "finite_range": stable,
    }
    agree = len(set(items.values())) == 1
    if agree:
        verdict = HOLDS if items["finite_range"] else FAILS
    else:
        verdict = TREND_INCONSISTENT
    cert = tw.seven_equivalences(phi)
    return dataclasses.replace(
        cert, verdict=verdict, witnesses={"items": items, "max_reach": int(max_reach)},
        depth_profile=tuple((n, float(r)) for n, r in prof),
    )


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _seven_maps(t, rng):
    """Every constant map, the identity, and seeded random and permutation
    maps of ``t``; fold and doubling on the integer line."""
    maps = [tw.identity_map(t), tw.random_map(t, rng), tw.random_permutation_map(t, rng)]
    maps += [tw.constant_map(t, v) for v in range(t.n_vertices)]
    if t.family == "zline":
        maps += [tw.zline_fold(t), tw.zline_double(t)]
    return maps


class TestTailsFromColumns:
    @given(_classify_cases())
    @settings(max_examples=200, deadline=None)
    def test_rows_and_slopes_match_the_profiles(self, case):
        op, _, window, _ = case
        q = operator_quantities(op, window)
        for key, profile in (("linf", tw.linf_ess_norm_profile(op)),
                             ("lip", tw.lip_ess_norm_profile(op))):
            rows = q[f"{key}_ess_tail"]
            assert [(type(n), type(v)) for n, v in rows] == [(int, float)] * len(profile)
            assert [(n, _bits(v)) for n, v in rows] == [(n, _bits(v)) for n, v in profile]
            assert _bits(q[f"{key}_ess_tail_slope"]) == _bits(tw.tail_trend_slope(profile))

    @pytest.mark.parametrize("k", [2, 3, 4, 7, 10, 100, 1000, 10_000])
    def test_slopes_are_polyfits_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        n = np.arange(k, dtype=np.float64)
        columns = {
            "random": rng.random(k),
            "suffix max": np.maximum.accumulate(rng.random(k)[::-1])[::-1],
            "constant": np.full(k, 0.3),
            "reciprocal": 1.0 / (n + 2.0),
        }
        # strided columns of one array, as tail_sups hands them over
        tails = np.column_stack(list(columns.values()))
        design = _slope_design(np.arange(k))
        for i, kind in enumerate(columns):
            want = _bits(np.polyfit(n, tails[:, i], 1)[0])
            assert _bits(_slope(design, tails[:, i])) == want, kind
            assert _bits(tw.tail_trend_slope(list(enumerate(tails[:, i].tolist())))) == want, kind

    @pytest.mark.parametrize("depth", [8, 64])
    def test_a_repeat_report_fits_no_slope(self, depth, monkeypatch):
        # the slopes are fitted once per operator, by tail_slopes; each
        # report after the first reads them
        t = tw.zline(depth)
        psi = VertexFunction(t, 1.0 / (1.0 + t.depth))
        op = WeightedCompOp(psi, tw.zline_fold(t))
        fits = []
        lstsq = np.linalg.lstsq

        def counted(*args, **kwargs):
            fits.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        first = canonical_json(operator_quantities(op))
        assert len(fits) == 2  # one per tail column
        sparse = tuple(range(1, depth + 1, 3))
        calls = [
            lambda op: operator_quantities(op, depth // 2),
            lambda op: tw.analysis_report(op, sparse, depth // 4),
            lambda op: tw.norms_report(op),
        ]
        texts = [canonical_json(call(op)) for call in calls]
        assert len(fits) == 2
        fresh = WeightedCompOp(op.psi, op.phi)
        assert canonical_json(operator_quantities(fresh)) == first
        for call, text in zip(calls, texts):
            assert canonical_json(call(WeightedCompOp(op.psi, op.phi))) == text

    @pytest.mark.parametrize("depth", [0, 1, 2, 1000])
    def test_short_and_deep_profiles(self, depth):
        t = tw.zline(depth)
        for phi in (tw.identity_map(t), tw.zline_fold(t), tw.zline_double(t)):
            op = WeightedCompOp(VertexFunction(t, 1.0 / (1.0 + t.depth)), phi)
            q = operator_quantities(op)
            profile = tw.lip_ess_norm_profile(op)
            assert q["lip_ess_tail"] == [list(p) for p in profile]
            assert _bits(q["lip_ess_tail_slope"]) == _bits(tw.tail_trend_slope(profile))


class TestSevenEquivalences:
    def test_matches_the_two_operator_reference(self):
        rng = np.random.default_rng(18)
        trees = [tw.zline(d) for d in range(4)] + [tw.homogeneous(2, d) for d in range(4)]
        trees += [tw.homogeneous(3, d) for d in range(3)]
        trees += [tw.random_tree(d, seed=s) for d in range(4) for s in range(3)]
        cases = [phi for t in trees for phi in _seven_maps(t, rng)]
        cases += [tw.zline_double(tw.zline(d)) for d in range(1, 41)]
        for phi in cases:
            got = canonical_json(tw.seven_equivalences(phi).to_json())
            assert got == canonical_json(ref_seven_equivalences(phi).to_json())

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

    def test_depth_zero_is_not_the_default_depth(self):
        for fx in tw.bundled_fixtures():
            assert fx.build(0).tree.depth_limit == 0
            assert fx.build().tree.depth_limit == fx.depth
            with pytest.raises(ValueError, match=r"depth >= 1, got depth 0"):
                fixture_report(fx, 0)

    def test_doubling_report_carries_discrepancy_note(self):
        report = fixture_report(tw.fixture_by_name("not-surjective-2n"))
        reach = report["weighted_reach_infimum"]
        assert reach["value"] == 1.0
        assert reach["vertex_label"] == 0
        assert reach["reference_value"] == 2.0
        assert "differs" in reach["discrepancy"]
        assert report["infeasibility"]["extra"]["verdict"] == "infeasible"

    def test_window_scales_with_the_stored_window(self):
        fx = dataclasses.replace(tw.fixture_by_name("z-isometry"), depth=10, window_depth=3)
        assert fx.window_for(10) == 3
        assert fx.window_for(20) == 6
        assert dataclasses.replace(fx, window_depth=None).window_for(10) is None
        # the bundled windows are half the depth at every depth
        for fx in tw.bundled_fixtures():
            for depth in range(1, 33):
                half = None if fx.window_depth is None else depth // 2
                assert fx.window_for(depth) == half

    def test_unknown_fixture_rejected(self):
        with pytest.raises(KeyError):
            tw.fixture_by_name("nope")


class TestWindowsAreIntegers:
    """Every entry point that takes a window resolves it one way: a numpy
    integer reads as the int, any other non-integer is refused by name."""

    def texts(self, op, window):
        certs = tw.classify_operator(op, window_depth=window)
        return [
            canonical_json([c.to_json() for c in certs["linf"] + certs["lip"]]),
            canonical_json(tw.isometry_check_linf(op, window).to_json()),
            canonical_json(tw.isometry_check_lip(op, window).to_json()),
            canonical_json(operator_quantities(op, window)),
        ]

    @pytest.mark.parametrize("window", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_a_numpy_integer_writes_the_int_bytes(self, window):
        op = tw.fixture_by_name("z-isometry").build(8)
        assert self.texts(op, window) == self.texts(op, 3)
        small = tw.composition_op(tw.zline_fold(tw.zline(3)))
        assert (canonical_json(tw.j_oracle_linf_bracket(small, window).to_json())
                == canonical_json(tw.j_oracle_linf_bracket(small, 3).to_json()))
        for fx in tw.bundled_fixtures():
            assert (canonical_json(fixture_report(fx, np.int64(8)))
                    == canonical_json(fixture_report(fx, 8)))

    def test_the_default_window_still_prints_null(self):
        certs = tw.classify_operator(tw.fixture_by_name("z-isometry").build(8))
        shown = {c.statement: c.window_depth for c in certs["linf"] + certs["lip"]}
        assert shown["Linf.Bounded"] is shown["Lip.Compact"] is None
        assert shown["Linf.Isometry"] == shown["Lip.BoundedBelow"] == 8

    @pytest.mark.parametrize("window", [3.0, np.float64(3.0), True, "3"])
    def test_a_non_integer_window_is_refused_by_name(self, window):
        op = tw.composition_op(tw.zline_fold(tw.zline(3)))
        message = f"window depth must be an integer, got {window!r}"
        calls = [
            lambda: tw.classify_operator(op, window_depth=window),
            lambda: tw.isometry_check_linf(op, window),
            lambda: tw.isometry_check_lip(op, window),
            lambda: tw.j_linf(op, window),
            lambda: tw.j_lip_bracket(op, window),
            lambda: tw.j_oracle_linf_bracket(op, window),
            lambda: operator_quantities(op, window),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message
        with pytest.raises(ValueError, match="fixture depth must be an integer, got"):
            fixture_report(tw.fixture_by_name("z-isometry"), window)

    @pytest.mark.parametrize("window", [-1, 4, np.int64(9)])
    def test_a_window_outside_the_tree_keeps_its_index_error(self, window):
        op = tw.composition_op(tw.zline_fold(tw.zline(3)))
        for call in (tw.classify_operator, tw.isometry_check_linf, tw.j_oracle_linf_bracket):
            with pytest.raises(IndexError, match=rf"^window depth {window} outside \[0, 3\]$"):
                call(op, None, window) if call is tw.classify_operator else call(op, window)
