from __future__ import annotations

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import treewco as tw
from treewco import OracleResult, OracleSizeError, SelfMap, VertexFunction, WeightedCompOp
from treewco import oracle as oracle_mod
from treewco.io import canonical_json
from treewco.oracle import _lip_norm_raw

from conftest import label_fn, random_operator, reference_distance, small_tree_corpus


# -- reference implementations: the scalar loops the array passes replaced --


def reference_inner_path(tree, v, w) -> set:
    """The vertices strictly inside the path between v and w, by walking
    the deeper end up until the two meet."""
    ends, inner = {v, w}, set()
    while v != w:
        if tree.depth[v] < tree.depth[w]:
            v, w = w, v
        v = int(tree.parent[v])
        inner.add(v)
    return inner - ends


def reference_surjectivity_infeasibility(op, g) -> OracleResult:
    """surjectivity_infeasibility as a loop over the domain, a nested loop
    over the adjacent pairs, those with no forced vertex strictly inside
    their path, with the scalar ``reference_distance``, and McShane's norm
    |c| + max(L*, max_u |c - F(u)| / d(root, u)), with c = F(root) when the
    root is forced and c = 0 otherwise."""
    t = op.tree
    tol = 1e-9
    forced: dict[int, float] = {}
    for v in range(op.phi.domain_size):
        psi_v = float(op.psi.values[v])
        g_v = float(g.values[v])
        if abs(psi_v) <= tol:
            if abs(g_v) > tol:
                return OracleResult(
                    quantity="SurjInfeasibility",
                    value=np.inf,
                    method="IncrementBound",
                    search_size=1,
                    witness={
                        "vertex": v,
                        "reason": "weight vanishes where the target is nonzero",
                    },
                    extra={"verdict": "infeasible"},
                )
            continue
        forced[int(op.phi.image[v])] = g_v / psi_v
    keys = sorted(forced)
    best_q, best_pair = 0.0, None
    for i, u in enumerate(keys):
        for u2 in keys[i + 1 :]:
            if not forced.keys().isdisjoint(reference_inner_path(t, u, u2)):
                continue
            q = abs(forced[u2] - forced[u]) / reference_distance(t, u, u2)
            if q > best_q:
                best_q, best_pair = q, (u, u2)
    searched = len(keys) * (len(keys) - 1) // 2
    c = forced.get(0, 0.0)
    lip = max([best_q] + [abs(c - forced[u]) / reference_distance(t, 0, u) for u in keys if u])
    norm = abs(c) + lip
    witness: dict = {
        "forced_values": {int(k): float(forced[k]) for k in keys},
        "preimage_lip_norm": norm,
    }
    if best_pair is not None:
        witness.update(
            {
                "pair": [int(best_pair[0]), int(best_pair[1])],
                "pair_distance": reference_distance(t, *best_pair),
                "quotient": best_q,
            }
        )
    extra = {
        "note": (
            "least preimage Lipschitz norm by McShane extension, root value 0 "
            "unless forced; exact"
        ),
        "verdict": "infeasible" if norm > 1.0 + tol else "feasible",
    }
    return OracleResult(
        "SurjInfeasibility", best_q, "IncrementBound", searched, witness, extra
    )


def reference_pair_quotients(tree, forced: dict) -> list:
    """|F(u) - F(u')| / d(u, u') over every pair of forced vertices."""
    keys = sorted(forced)
    return [
        abs(forced[b] - forced[a]) / reference_distance(tree, a, b)
        for i, a in enumerate(keys) for b in keys[i + 1 :]
    ]


def kink_preimage_lip_norm(tree, forced: dict) -> float:
    """min over the root value c of |c| + max(L*, max_u |c - F(u)| / |u|),
    with c = F(root) when the root is forced.

    Numpy only, and without the argument that c = 0 is optimal: the
    function of c is convex and piecewise linear, so its minimum sits at a
    kink, and every kink is among 0, each F(u), each F(u) +- L* |u|, and
    each crossing of two of the lines +-(c - F(u)) / |u|.
    """
    keys = np.asarray(sorted(forced), dtype=np.int64)
    vals = np.asarray([forced[int(k)] for k in keys])
    i, j = np.triu_indices(keys.size, 1)
    dist = np.asarray([reference_distance(tree, keys[a], keys[b]) for a, b in zip(i, j)])
    lip_star = float((np.abs(vals[j] - vals[i]) / dist).max(initial=0.0))
    free = keys != 0
    F, a = vals[free], tree.depth[keys[free]].astype(np.float64)

    def norm(c):
        lines = np.abs(c[:, None] - F[None, :]) / a[None, :]
        return np.abs(c) + np.maximum(lip_star, lines.max(axis=1, initial=0.0))

    if not free.all():
        return float(norm(vals[~free])[0])
    i, j = np.triu_indices(F.size, 1)
    p, r = i[a[i] != a[j]], j[a[i] != a[j]]  # lines of equal slope never cross
    kinks = np.concatenate(
        [
            [0.0],
            F,
            F + lip_star * a,
            F - lip_star * a,
            # (c - F(u)) / |u| = (c - F(u')) / |u'|, and = -(c - F(u')) / |u'|
            (F[p] / a[p] - F[r] / a[r]) / (1 / a[p] - 1 / a[r]),
            (F[i] * a[j] + F[j] * a[i]) / (a[i] + a[j]),
        ]
    )
    return float(norm(kinks).min())


LEVELS = np.asarray([-1.0, 0.0, 1.0])


def reference_grid_chunks(k: int):
    """Yield (chunk, k) arrays covering all LEVELS**k patterns, digit j of
    pattern i being i // L**j % L, in chunks of ``oracle._CHUNK`` rows."""
    L = LEVELS.size
    total = L**k
    if k == 0:
        yield np.zeros((1, 0))
        return
    powers = L ** np.arange(k, dtype=np.int64)
    for start in range(0, total, oracle_mod._CHUNK):
        idx = np.arange(start, min(start + oracle_mod._CHUNK, total), dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % L
        yield LEVELS[digits]


def reference_norm_oracle_linf(op: WeightedCompOp) -> OracleResult:
    """norm_oracle_linf(op) with the (rows, k) pattern matrix per chunk,
    compressed to its unit rows when the map is onto."""
    t = op.tree
    m = op.phi.domain_size
    a_psi = np.abs(op.psi.values[:m])
    range_ids = np.unique(op.phi.image) if m else np.empty(0, dtype=np.int64)
    k = range_ids.size
    col = np.searchsorted(range_ids, op.phi.image) if m else np.empty(0, dtype=np.int64)
    if t.n_vertices > oracle_mod.MAX_EXHAUSTIVE_VERTICES_MAX:
        raise OracleSizeError(
            f"{t.n_vertices} vertices exceed the exhaustive cap "
            f"{oracle_mod.MAX_EXHAUSTIVE_VERTICES_MAX}; use method='ascent'"
        )
    n_patterns = LEVELS.size**k
    if n_patterns > oracle_mod.MAX_PATTERNS:
        raise OracleSizeError(
            f"{n_patterns} grid patterns exceed the budget {oracle_mod.MAX_PATTERNS}; "
            "use method='ascent'"
        )
    need_unit_on_range = k == t.n_vertices
    best = -1.0
    best_pattern = None
    searched = 0
    for P in reference_grid_chunks(k):
        absP = np.abs(P)
        if need_unit_on_range:
            ok = absP.max(axis=1) == 1.0
            if not ok.any():
                continue
            P, absP = P[ok], absP[ok]
        vals = (a_psi[None, :] * absP[:, col]).max(axis=1) if m else np.zeros(P.shape[0])
        i = int(np.argmax(vals)) if vals.size else 0
        if vals.size and float(vals[i]) > best:
            best = float(vals[i])
            best_pattern = P[i].copy()
        searched += P.shape[0]
    f = np.zeros(t.n_vertices)
    if best_pattern is not None:
        f[range_ids] = best_pattern
    if np.abs(f).max() < 1.0:
        off = np.setdiff1d(np.arange(t.n_vertices), range_ids)
        f[off[0] if off.size else 0] = 1.0
    return OracleResult(
        quantity="OpNormLinf",
        value=max(best, 0.0),
        method="ExhaustiveSigns",
        search_size=searched,
        witness={"maximizer": {int(v): float(f[v]) for v in range(t.n_vertices)}},
    )


def reference_norm_oracle_linf_ascent(op: WeightedCompOp) -> OracleResult:
    """norm_oracle_linf(op, "ascent") as the greedy sweep that
    re-evaluates the composed sup for every range vertex and level, then a
    loop over the domain for the first vertex attaining it."""
    t = op.tree
    m = op.phi.domain_size
    psi = op.psi.values
    range_ids = np.unique(op.phi.image)
    f = np.zeros(t.n_vertices)
    for w in range_ids:
        best_v, best_t = -1.0, 0.0
        for lev in LEVELS:
            f[w] = lev
            val = float(np.abs(psi[:m] * f[op.phi.image]).max())
            if val > best_v:
                best_v, best_t = val, lev
        f[w] = best_t
    f[np.setdiff1d(np.arange(t.n_vertices), range_ids)] = 1.0
    best, witness = 0.0, {}
    for v in range(m):
        target = int(op.phi.image[v])
        val = abs(float(psi[v]) * float(f[target]))
        if val > best:
            best = val
            witness = {
                "vertex": v,
                "target": target,
                "rule": "f = -1 on the range of phi, 1 off it",
                "f_norm": float(np.abs(f).max()),
            }
    return OracleResult("OpNormLinf", best, "AttainedWitness", 1, witness)


def check_lip_witness(op: WeightedCompOp, res: OracleResult) -> None:
    """``res``, a witness report of ``norm_oracle_lip``, names a function
    of Lipschitz norm at most 1, rebuilt from its rule, whose composed sup
    norm is the value, attained at the named vertex with the closed form's
    term |psi(v)| * max(1, |phi(v)|)."""
    t = op.tree
    m = op.phi.domain_size
    assert res.method == "AttainedWitness" and res.search_size == 1
    if res.value == 0.0:
        assert res.witness == {}
        return
    v, target, rule = res.witness["vertex"], res.witness["target"], res.witness["rule"]
    if rule == "f = 1":
        f = np.ones(len(t))
    else:
        d = int(re.fullmatch(r"f = min\(\|x\|, (\d+)\)", rule).group(1))
        f = np.minimum(t.depth, d).astype(np.float64)
    assert res.witness["f_norm"] == _lip_norm_raw(t, f) <= 1.0
    assert target == op.phi.image[v]
    assert abs(op.psi.values[v] * f[target]) == res.value
    assert abs(op.psi.values[v]) * max(1, t.depth_of(target)) == res.value
    assert np.abs(op.psi.values[:m] * f[op.phi.image]).max() == res.value


def reference_j_oracle_linf_bracket(op: WeightedCompOp, within_depth=None) -> OracleResult:
    """j_oracle_linf_bracket with the (rows, k) pattern matrix per chunk,
    compressed to its unit rows, and a zero-filled (rows, m) contribution
    matrix."""
    t = op.tree
    limit = t.depth_limit if within_depth is None else within_depth
    n_window = SelfMap.domain_size_for(t, limit)
    lower = tw.j_linf(op, within_depth)
    if not op.phi.coverage[:n_window].all():
        uncovered = int(np.argmin(op.phi.coverage[:n_window]))
        return OracleResult(
            quantity="JLinfUpper",
            value=0.0,
            method="ExhaustiveSigns",
            search_size=1,
            witness={
                "uncovered_vertex": uncovered,
                "rule": f"f = 1 at vertex {uncovered}, 0 elsewhere",
            },
            extra={"formula_lower": lower, "gap": 0.0 - lower},
        )
    if n_window > oracle_mod.MAX_EXHAUSTIVE_VERTICES_MIN:
        raise OracleSizeError(
            f"{n_window} window vertices exceed the min-search cap "
            f"{oracle_mod.MAX_EXHAUSTIVE_VERTICES_MIN}"
        )
    k = n_window
    m = op.phi.domain_size
    a_psi = np.abs(op.psi.values[:m])
    in_window = op.phi.image < n_window
    best = np.inf
    best_pattern = None
    searched = 0
    for P in reference_grid_chunks(k):
        absP = np.abs(P)
        ok = absP.max(axis=1) == 1.0
        if not ok.any():
            continue
        P, absP = P[ok], absP[ok]
        contrib = np.zeros((P.shape[0], m))
        contrib[:, in_window] = absP[:, op.phi.image[in_window]]
        vals = (a_psi[None, :] * contrib).max(axis=1)
        i = int(np.argmin(vals))
        if float(vals[i]) < best:
            best = float(vals[i])
            best_pattern = P[i].copy()
        searched += P.shape[0]
    gap = best - lower
    if gap < -1e-9:
        raise RuntimeError(
            f"oracle upper bound {best} fell below the closed form {lower}"
        )
    return OracleResult(
        quantity="JLinfUpper",
        value=best,
        method="ExhaustiveSigns",
        search_size=searched,
        witness={
            "minimizer": {int(v): float(best_pattern[v]) for v in range(k)}
        },
        extra={"formula_lower": lower, "gap": gap},
    )


def build_tree(kind: str, depth: int, seed: int):
    if kind == "zline":
        return tw.zline(depth)
    if kind == "h2":
        return tw.homogeneous(2, min(depth, 3))
    if kind == "h3":
        return tw.homogeneous(3, min(depth, 2))
    return tw.random_tree(min(depth, 4), seed=seed, min_children=1, max_children=3)


@st.composite
def oracle_cases(draw):
    """(op, g) with an injective map (partial domain and range allowed), a
    weight with exact and sub-tolerance zeros, and a target of one of five
    kinds: random reals, small integers (tied quotients), the image of a
    unit-ball function (feasible), that image scaled up, or the image of
    that function plus a constant (pair quotients at most 1, the root
    value above)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # the depth comes from the seed: drawn directly, most trees had one vertex
    tree = build_tree(
        draw(st.sampled_from(["zline", "h2", "h3", "random"])),
        int(rng.integers(0, 8)),
        int(rng.integers(0, 10**6)),
    )
    n = tree.n_vertices
    dd = tree.depth_limit - draw(st.integers(0, tree.depth_limit // 2))
    m = SelfMap.domain_size_for(tree, dd)
    phi = SelfMap(tree, rng.permutation(n)[:m], dd)
    psi = rng.choice([-2.0, -1.0, 1.0, 3.0], size=n)
    if draw(st.booleans()):
        psi *= rng.uniform(0.5, 1.5, size=n)
    zeros = rng.random(n) < draw(st.sampled_from([0.0, 0.0, 0.15, 0.5]))
    psi[zeros] = rng.choice([0.0, 1e-12, -5e-10], size=int(zeros.sum()))
    op = WeightedCompOp(VertexFunction(tree, psi), phi)
    kind = draw(st.sampled_from(["real", "int", "feasible", "scaled", "shifted"]))
    if kind == "real":
        g = rng.uniform(-1.0, 1.0, size=m) * draw(st.sampled_from([0.3, 1.0, 4.0]))
    elif kind == "int":
        g = rng.integers(-2, 3, size=m).astype(np.float64)
    else:
        f = rng.uniform(-1.0, 1.0, size=n)
        for v in range(1, n):
            f[v] += f[int(tree.parent[v])]
        f /= _lip_norm_raw(tree, f)
        if kind == "shifted":  # pair quotients stay at most 1, the root value does not
            f += 1.5
        g = psi[:m] * f[phi.image] * (3.0 if kind == "scaled" else 1.0)
        if rng.random() < 0.5:
            g[(np.abs(psi[:m]) <= 1e-9) & (rng.random(m) < 0.3)] = 1.0
    return op, VertexFunction(op.codomain_tree, g)


# a chunk caps the patterns per block: a block holds L**j patterns, j the
# most low digits that fit, so with the 3 levels 1, 7, 1000 and 2**15 give
# blocks of 1, 3, 729 and 3**9 patterns, and with the 2 signs of the
# extreme points blocks of 1, 4, 512 and 2**15
SEARCH_CHUNKS = [1, 7, 1000, 1 << 15]
# the pattern budget under which the searches are compared: larger ones
# are refused by both, which compares the refusal too
SEARCH_BUDGET = 3**9


SEARCH_DEPTHS = {"zline": (0, 5), "h2": (0, 3), "h3": (0, 3), "random": (0, 4)}
# trees of 7 to 127 vertices, mostly above the exhaustive cap of 16
SWEEP_DEPTHS = {"zline": (4, 30), "h2": (2, 5), "h3": (2, 4), "random": (4, 7)}


@st.composite
def search_ops(draw, depths=SEARCH_DEPTHS):
    """An operator under a permutation, random, identity or k-range map
    (the last on a partial domain), with a weight that has exact zeros and
    tied magnitudes, on a tree whose depth is drawn from ``depths`` (by
    default one of at most 17 vertices)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["zline", "h2", "h3", "random"]))
    depth = int(rng.integers(*depths[kind]))
    if kind == "zline":
        tree = tw.zline(depth)
    elif kind == "h2":
        tree = tw.homogeneous(2, depth)
    elif kind == "h3":
        tree = tw.homogeneous(3, depth)
    else:
        tree = tw.random_tree(depth, int(rng.integers(10**6)), 1, 2)
    n = tree.n_vertices
    maps = draw(st.sampled_from(["permutation", "random", "identity", "krange"]))
    if maps == "permutation":
        phi = tw.random_permutation_map(tree, rng)
    elif maps == "random":
        phi = tw.random_map(tree, rng)
    elif maps == "identity":
        phi = tw.identity_map(tree)
    else:
        dd = int(rng.integers(0, tree.depth_limit + 1))
        targets = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        phi = SelfMap(tree, rng.choice(targets, size=SelfMap.domain_size_for(tree, dd)), dd)
    psi = rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0], size=n)
    if draw(st.booleans()):
        psi *= rng.uniform(0.5, 1.5, size=n)
    return WeightedCompOp(VertexFunction(tree, psi), phi)


def search_outcome(search, *args, **kwargs) -> str:
    """The canonical report of a search, or the error it raised."""
    try:
        return canonical_json(search(*args, **kwargs).to_json())
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def draw_chunk(data, n_patterns):
    """A chunk size that keeps a search of ``n_patterns`` to at most 500
    chunks, so fewer than 1,500 blocks: a block holds more than a third of
    a chunk."""
    return data.draw(st.sampled_from([c for c in SEARCH_CHUNKS if n_patterns <= 500 * c]))


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
            assert res.value == tw.linf_op_norm(op)

    def test_searches_at_the_caps_hold_one_block(self):
        # 3**13 and 3**12 patterns, while only the low digits' states and
        # one block of 3**9 are held at a time
        rng = np.random.default_rng(13)
        t = tw.zline(7)
        pick = rng.integers(0, 13, len(t))
        pick[:13] = np.arange(13)
        phi = SelfMap(t, rng.permutation(len(t))[pick], 7)
        op = WeightedCompOp(tw.random_function(t, rng), phi)
        t12 = tw.random_tree(2, 4, 1, 3)
        op12 = WeightedCompOp(tw.random_function(t12, rng), tw.random_permutation_map(t12, rng))
        for search, case, value, size in (
            (tw.norm_oracle_linf, op, tw.linf_op_norm(op), 3**13),
            (tw.j_oracle_linf_bracket, op12, tw.j_linf(op12), 3**12 - 1),
        ):
            search(case)  # numpy's first np.unique imports numpy.ma, 1.1 MB
            tracemalloc.start()
            try:
                res = search(case)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
            assert res.value == value and res.search_size == size

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
        assert tw.point_eval_lip_norm(t, 0).value == 1.0

    def test_depth_three(self):
        t = tw.zline(4)
        w = t.vertex_of(3)
        assert tw.point_eval_lip_norm(t, w).value == 3.0

    def test_depth_one_ties(self):
        t = tw.zline(4)
        w = t.vertex_of(1)
        assert tw.point_eval_lip_norm(t, w).value == 1.0

    def test_maximizer_in_unit_ball(self):
        t = tw.homogeneous(2, 3)
        for w in (0, 5, len(t) - 1):
            res = tw.point_eval_lip_norm(t, w)
            assert res.witness["maximizer_lip_norm"] <= 1.0 + 1e-9

    def test_exhaustive_is_exact_on_corpus(self):
        for t in small_tree_corpus():
            for w in range(len(t)):
                d = t.depth_of(w)
                res = tw.point_eval_lip_norm(t, w, "exhaustive")
                f = np.asarray([res.witness["maximizer"][v] for v in range(len(t))])
                assert res.value == max(1, d)
                assert abs(f[w]) == res.value
                assert _lip_norm_raw(t, f) <= 1.0
                assert res.witness["maximizer_lip_norm"] == _lip_norm_raw(t, f)
                assert res.search_size == 2 + 2**d
                assert res.method == "ExtremePoints"

    def test_ascent_names_the_exhaustive_search(self):
        t = tw.random_tree(3, seed=11, min_children=1, max_children=2)
        for w in range(len(t)):
            want = canonical_json(tw.point_eval_lip_norm(t, w, "exhaustive").to_json())
            assert canonical_json(tw.point_eval_lip_norm(t, w, "ascent", seed=w).to_json()) == want

    @pytest.mark.parametrize("chunk", [1, 1 << 15])
    def test_witness_is_first_best_point(self, chunk):
        # the constants come first, and a pattern must beat them strictly;
        # among patterns, index 0 (every increment -1) is the first best
        t = tw.zline(4)
        with mock.patch.object(oracle_mod, "_CHUNK", chunk):
            for label in range(-4, 5):
                w = t.vertex_of(label)
                d = t.depth_of(w)
                f = tw.point_eval_lip_norm(t, w, "exhaustive").witness["maximizer"]
                if d <= 1:
                    assert set(f.values()) == {1.0}
                else:
                    assert f[0] == 0.0 and f[w] == -float(d)

    def test_refuses_deep_vertex_before_allocating(self):
        t = tw.zline(25)
        w = t.vertex_of(25)
        tracemalloc.start()
        try:
            with pytest.raises(OracleSizeError, match=r"2\*\*25"):
                tw.point_eval_lip_norm(t, w, "exhaustive")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
        with mock.patch.object(oracle_mod, "MAX_PATTERNS", 8):
            assert tw.point_eval_lip_norm(t, t.vertex_of(3), "exhaustive").value == 3.0
            with pytest.raises(OracleSizeError):
                tw.point_eval_lip_norm(t, t.vertex_of(4), "exhaustive")

    def test_unknown_method(self):
        for method in ("grid", "path"):
            with pytest.raises(ValueError, match="unknown method"):
                tw.point_eval_lip_norm(tw.zline(2), 0, method)


class TestNormOracleLip:
    def test_within_bounds_and_equal_to_formula(self):
        rng = np.random.default_rng(3)
        for tree in small_tree_corpus():
            for _ in range(10):
                op = random_operator(tree, rng)
                res = tw.norm_oracle_lip(op)
                lo, up = tw.lip_bounds(op)
                assert lo - 1e-9 <= res.value <= up + 1e-9
                assert res.value == tw.lip_exact_norm(op)

    def test_identity_line(self):
        t = tw.zline(4)
        op = tw.composition_op(tw.identity_map(t))
        res = tw.norm_oracle_lip(op)
        assert res.value == 4.0 and res.witness["rule"] == "f = min(|x|, 4)"
        assert tw.norm_oracle_lip(op, "exhaustive").value == 4.0

    def test_zero_weight(self):
        t = tw.zline(3)
        op = WeightedCompOp(VertexFunction(t, np.zeros(len(t))), tw.identity_map(t))
        res = tw.norm_oracle_lip(op)
        assert res.value == 0.0 and res.witness == {}
        res = tw.norm_oracle_lip(op, "exhaustive")
        assert res.value == 0.0 and "vertex" not in res.witness

    def test_witness_matches_formula_on_corpus(self):
        # random, bijective and constant maps, weights with exact zeros,
        # scales 1e-3 to 1e3: the value is the closed form, bit for bit
        rng = np.random.default_rng(17)
        for tree in small_tree_corpus() + [tw.homogeneous(3, 2), tw.random_tree(4, seed=3)]:
            for scale in (1e-3, 1.0, 1e3):
                for phi in (
                    tw.random_map(tree, rng),
                    tw.random_permutation_map(tree, rng),
                    tw.constant_map(tree, int(rng.integers(len(tree)))),
                ):
                    psi = tw.random_function(tree, rng, scale).values
                    psi = np.where(rng.random(len(tree)) < 0.3, 0.0, psi)
                    op = WeightedCompOp(VertexFunction(tree, psi), phi)
                    res = tw.norm_oracle_lip(op)
                    assert res.value == tw.lip_exact_norm(op)
                    check_lip_witness(op, res)

    def test_witness_at_scale(self):
        # the benchmark's sizes: h(2, 10) under a random map, zline(1000)
        # under the fold and the doubling map, whose domain stops at depth
        # 500; a weight growing with depth puts sup |psi| past that core
        rng = np.random.default_rng(18)
        h = tw.homogeneous(2, 10)
        z = tw.zline(1000)
        ops = [
            WeightedCompOp(tw.random_function(h, rng), tw.random_map(h, rng)),
            WeightedCompOp(tw.random_function(z, rng), tw.zline_fold(z)),
        ]
        for phi in (tw.zline_fold(z), tw.zline_double(z)):
            ops.append(WeightedCompOp(VertexFunction(z, 1.0 + z.depth), phi))
            ops.append(WeightedCompOp(VertexFunction(z, 1.0 / (1.0 + z.depth)), phi))
        for op in ops:
            res = tw.norm_oracle_lip(op)
            assert res.value == tw.lip_exact_norm(op)
            check_lip_witness(op, res)
            assert tw.norm_oracle_linf(op, method="ascent").value == tw.linf_op_norm(op)

    @settings(max_examples=80, deadline=None)
    @given(op=search_ops(), data=st.data())
    def test_exhaustive_matches_formula(self, op, data):
        n = op.tree.n_vertices
        if n > oracle_mod.MAX_EXHAUSTIVE_VERTICES_MAX:  # h(3, 2) has 17
            with pytest.raises(OracleSizeError):
                tw.norm_oracle_lip(op, "exhaustive")
            return
        chunk = data.draw(st.sampled_from([c for c in (1, 7, 1 << 15) if 2 ** (n - 1) <= 500 * c]))
        with mock.patch.object(oracle_mod, "_CHUNK", chunk):
            res = tw.norm_oracle_lip(op, "exhaustive")
        assert abs(res.value - tw.lip_exact_norm(op)) <= 1e-9
        assert res.search_size == 2 + 2 ** (n - 1)
        assert res.method == "ExtremePoints"
        f = np.asarray([res.witness["maximizer"][v] for v in range(n)])
        assert res.witness["maximizer_lip_norm"] == _lip_norm_raw(op.tree, f) == 1.0
        m = op.phi.domain_size
        assert res.value == float(np.max(np.abs(op.psi.values[:m] * f[op.phi.image]), initial=0.0))
        if res.value > 0.0:
            v = res.witness["vertex"]
            assert abs(op.psi.values[v] * f[res.witness["target"]]) == res.value

    def test_exhaustive_on_corpus(self):
        rng = np.random.default_rng(5)
        for tree in small_tree_corpus():
            for surjective in (False, True):
                op = random_operator(tree, rng, surjective=surjective)
                res = tw.norm_oracle_lip(op, "exhaustive")
                assert abs(res.value - tw.lip_exact_norm(op)) <= 1e-9

    def test_exhaustive_refuses_large_trees(self):
        op = tw.composition_op(tw.identity_map(tw.homogeneous(2, 4)))  # 31 vertices
        tracemalloc.start()
        try:
            with pytest.raises(OracleSizeError, match="exhaustive cap"):
                tw.norm_oracle_lip(op, "exhaustive")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_ascent_method_removed(self):
        op = tw.composition_op(tw.identity_map(tw.zline(2)))
        for method in ("ascent", "path"):
            with pytest.raises(ValueError, match="unknown method"):
                tw.norm_oracle_lip(op, method)


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

    def test_uncovered_witness_stays_small_at_any_size(self):
        # 118,097 vertices: the witness names the vertex and the rule, not
        # the indicator's value at every vertex
        t = tw.homogeneous(3, 10)
        rng = np.random.default_rng(0)
        op = WeightedCompOp(tw.random_function(t, rng), tw.random_map(t, rng))
        res = tw.j_oracle_linf_bracket(op)
        assert len(canonical_json(res.to_json()).encode()) < 1024
        u = res.witness["uncovered_vertex"]
        assert res.witness == {"uncovered_vertex": u, "rule": f"f = 1 at vertex {u}, 0 elsewhere"}
        # the rule's f composes to 0
        f = np.zeros(t.n_vertices)
        f[u] = 1.0
        assert res.value == float(np.abs(op.psi.values * f[op.phi.image]).max()) == 0.0

    @pytest.mark.parametrize("window", [-2, -1, 3, 4])
    def test_window_outside_truncation_refused(self, window):
        op = tw.composition_op(tw.identity_map(tw.zline(2)))
        with pytest.raises(IndexError, match=f"window depth {window} outside"):
            tw.j_oracle_linf_bracket(op, within_depth=window)

    def test_fold_fixture_windowed_both_one(self):
        op = tw.fixture_by_name("z-isometry").build(4)
        res = tw.j_oracle_linf_bracket(op, within_depth=2)
        assert res.value == 1.0
        assert res.extra["formula_lower"] == 1.0

    def test_search_size_counts_real_chunk_rows(self):
        # the only pattern without a unit entry is the all-zero one, and it
        # is left out whatever chunk it falls in
        op = tw.composition_op(tw.identity_map(tw.homogeneous(2, 1)))
        for chunk in (1, 7, oracle_mod._CHUNK):
            with mock.patch.object(oracle_mod, "_CHUNK", chunk):
                assert tw.j_oracle_linf_bracket(op).search_size == 3**4 - 1

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

    def test_indicator_preimage_feasible_without_hint(self):
        t = tw.zline(4)
        op = tw.composition_op(tw.identity_map(t))
        g = tw.indicator(t, t.vertex_of(2))
        res = tw.surjectivity_infeasibility(op, g)
        assert res.extra["verdict"] == "feasible"
        assert res.witness["preimage_lip_norm"] == pytest.approx(1.0)

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

    def test_free_root_reach_decides(self):
        # every pair quotient is 1/2, but f(1) = 3/2 at depth 1 costs 3/2
        # from the free root: the least preimage norm is 3/2
        t = tw.zline(1)
        psi = np.asarray([0.0, 1.0, 1.0])
        op = WeightedCompOp(VertexFunction(t, psi), tw.identity_map(t))
        g = VertexFunction(t, np.asarray([0.0, 1.5, 0.5]))
        res = tw.surjectivity_infeasibility(op, g)
        assert res.value == 0.5
        assert res.witness["preimage_lip_norm"] == 1.5
        assert res.extra["verdict"] == "infeasible"

    def test_forced_root_value_decides(self):
        # the pair quotients stay at most 1, but f(root) = 1/2 adds 1/2
        t = tw.zline(1)
        op = tw.composition_op(tw.identity_map(t))
        g = VertexFunction(t, np.asarray([0.5, 1.3, -0.2]))
        res = tw.surjectivity_infeasibility(op, g)
        assert res.value == pytest.approx(0.8)
        assert res.witness["preimage_lip_norm"] == pytest.approx(1.3)
        assert res.extra["verdict"] == "infeasible"

    def test_target_on_another_tree_rejected(self):
        # five vertices each, but a line is not a star: the forced values
        # would land on the wrong vertices
        op = tw.composition_op(tw.identity_map(tw.zline(2)))
        g = VertexFunction(tw.homogeneous(3, 1), np.zeros(5))
        with pytest.raises(ValueError, match="codomain"):
            tw.surjectivity_infeasibility(op, g)

    def test_tol_is_the_only_threshold(self):
        # a preimage norm within 1e-9 of 1 counts as 1
        t = tw.zline(1)
        op = tw.composition_op(tw.identity_map(t))
        g = VertexFunction(t, np.asarray([0.0, 1.0 + 5e-10, 0.0]))
        assert tw.surjectivity_infeasibility(op, g).extra["verdict"] == "feasible"
        g = VertexFunction(t, np.asarray([0.0, 1.0 + 2e-9, 0.0]))
        assert tw.surjectivity_infeasibility(op, g).extra["verdict"] == "infeasible"


class TestPreimageNorm:
    """``preimage_lip_norm`` is the least Lipschitz norm of a preimage."""

    @settings(max_examples=150, deadline=None)
    @given(case=oracle_cases())
    def test_matches_kink_minimum(self, case):
        op, g = case
        res = tw.surjectivity_infeasibility(op, g)
        assume("forced_values" in res.witness)
        forced = {int(k): v for k, v in res.witness["forced_values"].items()}
        expect = kink_preimage_lip_norm(op.tree, forced)
        assert abs(res.witness["preimage_lip_norm"] - expect) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(case=oracle_cases())
    def test_mcshane_extension_attains_it(self, case):
        op, g = case
        res = tw.surjectivity_infeasibility(op, g)
        assume("forced_values" in res.witness)
        t = op.tree
        forced = {int(k): v for k, v in res.witness["forced_values"].items()}
        norm = res.witness["preimage_lip_norm"]
        # f(v) = min_s F(s) + K d(s, v) over the forced s and the root
        c = forced.get(0, 0.0)
        anchors = {0: c, **forced}
        lip = norm - abs(c)
        f = np.asarray(
            [
                min(val + lip * reference_distance(t, s, v) for s, val in anchors.items())
                for v in range(t.n_vertices)
            ]
        )
        assert np.allclose(f[list(forced)], list(forced.values()), rtol=0.0, atol=1e-12)
        assert abs(f[0] - c) <= 1e-12
        assert abs(_lip_norm_raw(t, f) - norm) <= 1e-12


class TestArrayOraclesMatchLoops:
    """The array passes give the reports of the loops they replaced, byte
    for byte."""

    @settings(max_examples=150, deadline=None)
    @given(case=oracle_cases(), block=st.sampled_from([1, 2, 5, 13, 1 << 16]))
    def test_surjectivity_matches_reference(self, case, block):
        op, g = case
        # small blocks put block boundaries between tied pairs
        with mock.patch.object(oracle_mod, "_PAIR_BLOCK", block):
            res = tw.surjectivity_infeasibility(op, g)
        ref = reference_surjectivity_infeasibility(op, g)
        assert canonical_json(res.to_json()) == canonical_json(ref.to_json())

    @settings(max_examples=150, deadline=None)
    @given(case=oracle_cases())
    def test_value_is_the_all_pairs_maximum(self, case):
        # the forced values are finite: the adjacent pairs meet the largest
        # quotient over all pairs up to rounding
        op, g = case
        res = tw.surjectivity_infeasibility(op, g)
        assume("forced_values" in res.witness)
        q = reference_pair_quotients(op.tree, res.witness["forced_values"])
        assert abs(res.value - max(q, default=0.0)) <= 1e-12 * res.value

    @pytest.mark.parametrize("forced", ["every", "even"])
    def test_near_collinear_targets_match_reference(self, forced):
        # F = label * (1/3) in floating point: the quotients of many pairs
        # agree up to rounding, so the first maximal adjacent pair is a
        # matter of the last bits
        for n in [*range(5, 61), 10**4]:
            t = tw.zline(n)
            labels = label_fn(t)
            psi = np.ones(len(t))
            if forced == "even":
                psi[labels % 2 == 1] = 0.0
            op = WeightedCompOp(VertexFunction(t, psi), tw.identity_map(t))
            g = VertexFunction(t, np.where(psi > 0, (1.0 / 3.0) * labels, 0.0))
            res = tw.surjectivity_infeasibility(op, g)
            u, w = res.witness["pair"]
            F = res.witness["forced_values"]
            assert abs(F[w] - F[u]) / reference_distance(t, u, w) == res.value, n
            assert res.witness["pair_distance"] == reference_distance(t, u, w)
            if n <= 60:
                ref = reference_surjectivity_infeasibility(op, g)
                assert canonical_json(res.to_json()) == canonical_json(ref.to_json()), n

    def test_overflowing_spread_matches_reference(self):
        # the pair of labels 1 and -2 would overflow to an infinite
        # quotient, but the forced root and -1 lie between them: the largest
        # adjacent quotient is the finite edge quotient of label 1
        t = tw.zline(30)
        op = tw.composition_op(tw.identity_map(t))
        g = np.zeros(len(t))
        g[t.vertex_of(1)], g[t.vertex_of(-2)] = 1.7e308, -1.0e308
        g = VertexFunction(t, g)
        res = tw.surjectivity_infeasibility(op, g)
        assert res.value == 1.7e308
        assert res.extra["verdict"] == "infeasible"
        ref = reference_surjectivity_infeasibility(op, g)
        assert canonical_json(res.to_json()) == canonical_json(ref.to_json())

    @pytest.mark.parametrize(
        "labels, value, pair",
        [
            # every quotient is inf - inf: none is positive, and the forced
            # root's value decides
            ({0: np.inf, 1: np.inf, -1: np.inf}, 0.0, None),
            # the edge 0-1 comes first and is NaN; 0-(-1) is the first inf
            ({0: np.inf, 1: np.inf, -1: 2.0}, np.inf, [0, -1]),
            # a free root: -1 and 1 share it as their top, and 1 with 2 is NaN
            ({1: -np.inf, 2: -np.inf, -1: 0.5}, np.inf, [1, -1]),
        ],
    )
    def test_nan_quotients_never_win(self, labels, value, pair):
        # g = +-1e308 over psi = 1e-8 forces +-inf
        t = tw.zline(2)
        psi, g = np.zeros(len(t)), np.zeros(len(t))
        for lab, x in labels.items():
            v = t.vertex_of(lab)
            psi[v], g[v] = (1e-8, np.copysign(1e308, x)) if np.isinf(x) else (1.0, x)
        op = WeightedCompOp(VertexFunction(t, psi), tw.identity_map(t))
        g = VertexFunction(t, g)
        res = tw.surjectivity_infeasibility(op, g)
        assert res.value == value
        assert res.witness.get("pair") == (pair and [t.vertex_of(lab) for lab in pair])
        assert res.extra["verdict"] == "infeasible"
        ref = reference_surjectivity_infeasibility(op, g)
        assert canonical_json(res.to_json()) == canonical_json(ref.to_json())

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_shared_top_matches_reference(self, block):
        # only the 64 leaves of h(2, 5) are forced, and the root is free: all
        # share the root as their top, 2,016 pairs of one group in rows of
        # 63 down to 1 pairs.  Blocks of 1 and 7 pairs hold one row, or a
        # few short ones, and a block of 2**16 holds all rows
        t = tw.homogeneous(2, 5)
        rng = np.random.default_rng(5)
        leaves = t.depth == t.depth_limit
        psi = np.where(leaves, rng.uniform(0.5, 2.0, len(t)), 0.0)
        op = WeightedCompOp(VertexFunction(t, psi), tw.identity_map(t))
        g = VertexFunction(t, np.where(leaves, rng.uniform(-3.0, 3.0, len(t)), 0.0))
        with mock.patch.object(oracle_mod, "_PAIR_BLOCK", block):
            res = tw.surjectivity_infeasibility(op, g)
        ref = reference_surjectivity_infeasibility(op, g)
        assert canonical_json(res.to_json()) == canonical_json(ref.to_json())

    @settings(max_examples=100, deadline=None)
    @given(case=oracle_cases(), maps=st.sampled_from(["injective", "random", "constant"]))
    def test_lip_witness_attains_formula(self, case, maps):
        op, _ = case
        t = op.tree
        rng = np.random.default_rng(t.n_vertices)
        if maps == "random":
            op = WeightedCompOp(op.psi, tw.random_map(t, rng))
        elif maps == "constant":
            op = WeightedCompOp(op.psi, tw.constant_map(t, int(rng.integers(t.n_vertices))))
        res = tw.norm_oracle_lip(op)
        assert res.value == tw.lip_exact_norm(op)
        check_lip_witness(op, res)

    @settings(max_examples=150, deadline=None)
    @given(op=search_ops(), data=st.data())
    def test_norm_linf_matches_reference(self, op, data):
        chunk = draw_chunk(data, min(3 ** np.unique(op.phi.image).size, SEARCH_BUDGET))
        with mock.patch.multiple(oracle_mod, _CHUNK=chunk, MAX_PATTERNS=SEARCH_BUDGET):
            res = search_outcome(tw.norm_oracle_linf, op)
            ref = search_outcome(reference_norm_oracle_linf, op)
        assert res == ref

    @settings(max_examples=150, deadline=None)
    @given(op=search_ops(), data=st.data())
    def test_searches_in_closed_form(self, op, data):
        # pattern 0, -1 on the range, is the maximizer, and each search
        # counts its unit patterns, whatever the chunk size
        n = op.tree.n_vertices
        range_ids = np.unique(op.phi.image)
        k = range_ids.size
        chunk = draw_chunk(data, 3 ** min(n, 12))
        with mock.patch.multiple(oracle_mod, _CHUNK=chunk, MAX_PATTERNS=SEARCH_BUDGET):
            if n <= oracle_mod.MAX_EXHAUSTIVE_VERTICES_MAX and 3**k <= SEARCH_BUDGET:
                res = tw.norm_oracle_linf(op)
                f = np.zeros(n)
                f[range_ids] = -1.0
                assert res.witness["maximizer"] == dict(enumerate(f.tolist()))
                assert res.search_size == 3**k - (k == n)
            if op.phi.coverage.all() and n <= oracle_mod.MAX_EXHAUSTIVE_VERTICES_MIN:
                assert tw.j_oracle_linf_bracket(op).search_size == 3**n - 1

    @settings(max_examples=200, deadline=None)
    @given(op=st.one_of(search_ops(), search_ops(SWEEP_DEPTHS)))
    def test_grid_sweep_matches_reference(self, op):
        res = search_outcome(tw.norm_oracle_linf, op, "ascent")
        ref = search_outcome(reference_norm_oracle_linf_ascent, op)
        assert res == ref

    @settings(max_examples=150, deadline=None)
    @given(op=search_ops(), window=st.sampled_from([None, 1, 2]), data=st.data())
    def test_j_bracket_matches_reference(self, op, window, data):
        t = op.tree
        if window is not None:
            window = min(window, t.depth_limit)
        k = SelfMap.domain_size_for(t, t.depth_limit if window is None else window)
        # past the cap of 12 window vertices both refuse before searching
        with mock.patch.object(oracle_mod, "_CHUNK", draw_chunk(data, 3 ** min(k, 12))):
            res = search_outcome(tw.j_oracle_linf_bracket, op, window)
            ref = search_outcome(reference_j_oracle_linf_bracket, op, window)
        assert res == ref

    def test_searches_over_full_chunks_match_reference(self):
        # a default block holds 3**9 patterns, so 10 to 13 digits take 3 to
        # 81 blocks, each the low digits' states combined with one state of
        # the high digits
        rng = np.random.default_rng(12)
        for tree in (tw.homogeneous(2, 2), tw.zline(5), tw.random_tree(2, 4, 1, 3)):
            assert len(tree) in (10, 11, 12)
            # few distinct weights, zeros among them: the minimum ties
            psi = VertexFunction(tree, rng.choice([0.0, 0.5, 1.0, 2.0], size=len(tree)))
            op = WeightedCompOp(psi, tw.random_permutation_map(tree, rng))
            assert canonical_json(tw.j_oracle_linf_bracket(op).to_json()) == canonical_json(
                reference_j_oracle_linf_bracket(op).to_json()
            )
        t = tw.zline(7)
        for k in range(10, 14):
            pick = rng.integers(0, k, len(t))
            pick[:k] = np.arange(k)  # exactly k range vertices
            op = WeightedCompOp(
                tw.random_function(t, rng), SelfMap(t, rng.permutation(len(t))[pick], 7)
            )
            assert canonical_json(tw.norm_oracle_linf(op).to_json()) == canonical_json(
                reference_norm_oracle_linf(op).to_json()
            )

    def test_every_verdict_and_tie_is_generated(self):
        # the strategy reaches both verdicts, the vanishing-weight witness,
        # pairs that tie with the winning quotient, and both ways the root
        # decides a verdict the pairs alone leave open: a free root, where
        # max |F(u)| / |u| exceeds 1 and every quotient, and a forced root,
        # whose value lifts the quotient above 1
        seen = set()

        @settings(max_examples=600, deadline=None, database=None)
        @given(case=oracle_cases())
        def collect(case):
            op, g = case
            ref = reference_surjectivity_infeasibility(op, g)
            seen.add(ref.extra["verdict"])
            if "reason" in ref.witness:
                seen.add("vanishing")
                return
            forced = ref.witness["forced_values"]
            q = reference_pair_quotients(op.tree, forced)
            if ref.value > 0 and q.count(ref.value) > 1:
                seen.add("tie")
            if ref.value <= 1.0 < ref.witness["preimage_lip_norm"]:
                seen.add("forced root" if 0 in forced else "free root")

        collect()
        assert seen >= {
            "feasible", "infeasible", "vanishing", "tie", "free root", "forced root"
        }

    def test_larger_trees_match_reference(self):
        # 7,260 pairs under a bijection, whose adjacent pairs are the 120
        # edges; then a Lipschitz witness on 127 vertices
        t = tw.zline(60)
        rng = np.random.default_rng(11)
        op = WeightedCompOp(tw.random_function(t, rng, 2.0), tw.random_permutation_map(t, rng))
        g = VertexFunction(t, rng.uniform(-0.2, 0.2, len(t)))
        with mock.patch.object(oracle_mod, "_PAIR_BLOCK", 500):
            res = tw.surjectivity_infeasibility(op, g)
        ref = reference_surjectivity_infeasibility(op, g)
        assert canonical_json(res.to_json()) == canonical_json(ref.to_json())
        h = tw.homogeneous(2, 6)
        op = WeightedCompOp(tw.random_function(h, rng), tw.random_map(h, rng))
        res = tw.norm_oracle_lip(op)
        assert res.value == tw.lip_exact_norm(op)
        check_lip_witness(op, res)


class TestSurjectivityAtScale:
    @pytest.mark.parametrize(
        "family, args", [("zline", (10**4,)), ("homogeneous", (3, 9))], ids=["zline", "h3"]
    )
    def test_bijection_quotient_is_the_largest_edge_increment(self, family, args):
        # every vertex forced: the adjacent pairs are the tree's edges
        tree = getattr(tw, family)(*args)
        rng = np.random.default_rng(len(tree))
        phi = tw.random_permutation_map(tree, rng)
        psi = rng.uniform(0.5, 2.0, len(tree))
        op = WeightedCompOp(VertexFunction(tree, psi), phi)
        g = VertexFunction(tree, rng.uniform(-1.0, 1.0, len(tree)))
        res = tw.surjectivity_infeasibility(op, g)
        F = np.empty(len(tree))
        F[phi.image] = g.values / psi
        assert res.witness["quotient"] == np.abs(F[1:] - F[tree.parent[1:]]).max()
        assert res.witness["pair_distance"] == 1


class TestPairDistances:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["zline", "h2", "h3", "random"]),
        depth=st.integers(0, 9),
        seed=st.integers(0, 10**6),
    )
    def test_match_scalar_distance(self, kind, depth, seed):
        t = build_tree(kind, depth, seed)
        rng = np.random.default_rng(seed)
        u = rng.integers(0, len(t), size=200)
        w = np.concatenate([u[:20], rng.integers(0, len(t), size=180)])
        expect = [reference_distance(t, int(a), int(b)) for a, b in zip(u, w)]
        assert t.distances(u, w).tolist() == expect
