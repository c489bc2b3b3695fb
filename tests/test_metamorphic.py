"""Metamorphic invariants: whole analyze reports checked against themselves
under a tree automorphism, an exact rescaling of the weight, and a round
trip of the tree through its spec; the operator checked against its
factorization into multiplication after composition; and the sup norms
checked to grow with the truncation depth.  None of them needs an oracle,
so the trees can be larger than the exhaustive searches allow.  The
Lipschitz norm is also checked against the window depth times the
injectivity modulus.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings, strategies as st

import treewco as tw
from treewco import SelfMap, VertexFunction, WeightedCompOp
from treewco.certificate import _Rows
from treewco.cli import main

from conftest import analyze_payload, shuffled_edges


def certificates(op, window=None) -> list:
    certs = tw.classify_operator(op, None, window)
    return certs["linf"] + certs["lip"]


def weight(draw, tree, rng) -> np.ndarray:
    """Few distinct values (zeros, exact ones, ties), or all distinct."""
    palette = draw(st.sampled_from([None, (1.0,), (0.0, 1.0), (0.5, 1.0, -2.0), (0.25, 3.0)]))
    if palette is None:
        return rng.uniform(-2.0, 2.0, len(tree))
    return rng.choice(np.asarray(palette), size=len(tree))


def self_map(draw, tree, rng) -> SelfMap:
    kinds = ["random", "permutation", "constant", "identity"]
    if tree.family == "zline":
        kinds += ["fold", "double"]
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        return tw.random_map(tree, rng)
    if kind == "permutation":
        return tw.random_permutation_map(tree, rng)
    if kind == "constant":
        return tw.constant_map(tree, int(rng.integers(len(tree))))
    if kind == "identity":
        return tw.identity_map(tree)
    return tw.zline_fold(tree) if kind == "fold" else tw.zline_double(tree)


def window_for(draw, tree):
    return draw(st.one_of(st.none(), st.integers(0, tree.depth_limit)))


# -- relabeling -------------------------------------------------------------------


def sibling_swap(tree, a: int, b: int) -> np.ndarray:
    """The automorphism of a homogeneous tree that swaps the sectors of the
    siblings a and b, vertex by vertex in breadth-first order."""
    sigma = np.arange(len(tree))
    sa, sb = tree.sector(a), tree.sector(b)
    sigma[sa], sigma[sb] = sb, sa
    return sigma


def tied_witnesses(op, cert) -> np.ndarray:
    """The vertices a certificate's ``vertex`` witness may name; it names
    the first in id order."""
    sup = op.preimage_sup[: op.tree.layer_offsets[cert.window_depth + 1]]
    if cert.statement == "Linf.Isometry":
        return np.flatnonzero(np.isneginf(sup) | (np.abs(sup - 1.0) > 1e-9))
    uncovered = np.flatnonzero(np.isneginf(sup))
    if uncovered.size:
        return uncovered
    if cert.statement == "Lip.NoIsometry":
        return op.tree.layer(2)
    return np.flatnonzero(sup == sup.min())  # BoundedBelow


@st.composite
def relabeled_operators(draw):
    tree = tw.homogeneous(draw(st.integers(2, 3)), draw(st.integers(2, 4)))
    parent = draw(st.integers(0, int(tree.layer_offsets[tree.depth_limit]) - 1))
    a, b = draw(st.lists(st.sampled_from(tree.children_of(parent).tolist()),
                         min_size=2, max_size=2, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    op = WeightedCompOp(VertexFunction(tree, weight(draw, tree, rng)), self_map(draw, tree, rng))
    return op, sibling_swap(tree, a, b), window_for(draw, tree)


@given(relabeled_operators())
@settings(max_examples=60, deadline=None)
def test_relabeling_by_an_automorphism_changes_no_report_entry(case):
    op, sigma, window = case
    t = op.tree
    # the same tree through explicit_tree, vertex v labeled sigma(v)
    edges = [[int(sigma[t.parent[v]]), int(sigma[v])] for v in range(1, len(t))]
    t2 = tw.explicit_tree(edges, int(sigma[0]))
    perm = np.asarray([t2.vertex_of(int(sigma[v])) for v in range(len(t))])
    assert not np.array_equal(perm, np.arange(len(t)))
    psi2, img2 = np.empty(len(t)), np.empty(len(t), dtype=np.int64)
    psi2[perm], img2[perm] = op.psi.values, perm[op.phi.image]
    op2 = WeightedCompOp(VertexFunction(t2, psi2), SelfMap(t2, img2, t.depth_limit))

    rep, rep2 = analyze_payload(op, window), analyze_payload(op2, window)
    certs, certs2 = rep.pop("certificates"), rep2.pop("certificates")
    assert rep == rep2  # quantities and seven_equivalences
    by = {c.statement: c for c in certificates(op, window)}
    for c, c2 in zip(certs, certs2, strict=True):
        w, w2 = c.pop("witnesses"), c2.pop("witnesses")
        assert c == c2  # statement, verdict, criterion, depth profile, window
        if "vertex" not in w:
            assert w == w2
            continue
        tied = tied_witnesses(op, by[c["statement"]])
        assert w["vertex"] == tied[0]
        assert w2["vertex"] in perm[tied]
        if tied.size == 1:
            assert w2 == dict(w, vertex=int(perm[w["vertex"]]))


# -- exact scaling ------------------------------------------------------------------


@st.composite
def operators(draw, max_depth=6):
    family = draw(st.sampled_from(["zline", "homogeneous", "random", "explicit"]))
    if family == "zline":
        tree = tw.zline(draw(st.integers(1, 2 * max_depth)))
    elif family == "homogeneous":
        tree = tw.homogeneous(draw(st.integers(2, 3)), draw(st.integers(1, 3)))
    else:
        lo = draw(st.integers(1, 2))
        tree = tw.random_tree(draw(st.integers(1, max_depth)), seed=draw(st.integers(0, 10**6)),
                              min_children=lo, max_children=draw(st.integers(lo, 3)))
        if family == "explicit":
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            tree = tw.explicit_tree(*shuffled_edges(tree, rng))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    op = WeightedCompOp(VertexFunction(tree, weight(draw, tree, rng)), self_map(draw, tree, rng))
    return op, window_for(draw, tree)


def assert_scaled(got, want, factor: float, where: str = "") -> None:
    """Every float of ``got`` is exactly ``factor`` times the one of
    ``want``; everything else is equal.  A ``_Rows`` reads as its list of
    rows."""
    assert type(got) is type(want), where
    if type(want) is _Rows:
        got, want = list(got), list(want)
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_scaled(got[key], want[key], factor, f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_scaled(g, w, factor, f"{where}[{i}]")
    elif isinstance(want, float):
        assert got == want * factor, (where, got, want)
    else:
        assert got == want, where


@given(operators(), st.integers(-8, 8).filter(bool))
@settings(max_examples=80, deadline=None)
def test_scaling_the_weight_by_a_power_of_two_scales_every_number(case, k):
    # verdicts are exempt: the trend tolerances are absolute
    op, window = case
    factor = 2.0**k
    op2 = WeightedCompOp(VertexFunction(op.tree, factor * op.psi.values), op.phi)
    rep, rep2 = analyze_payload(op, window), analyze_payload(op2, window)

    q, q2 = rep["quantities"], rep2["quantities"]
    for name in ("linf", "lip"):
        # a least-squares slope is linear in the profile up to roundoff
        slope, slope2 = q.pop(f"{name}_ess_tail_slope"), q2.pop(f"{name}_ess_tail_slope")
        scale = factor * max([abs(v) for _, v in q[f"{name}_ess_tail"]] + [abs(slope)])
        assert abs(slope2 - factor * slope) <= 1e-12 * scale
    assert_scaled(q2, q, factor, "quantities")

    for c, c2 in zip(rep["certificates"], rep2["certificates"], strict=True):
        assert c["statement"] == c2["statement"]
        c.pop("verdict"), c2.pop("verdict")
        if "Isometry" in c["statement"]:
            # which vertex witnesses it turns on a preimage sup equal to 1
            c.pop("witnesses"), c2.pop("witnesses")
        assert_scaled(c2, c, factor, c["statement"])


# -- round trip through the tree spec --------------------------------------------------


@given(operators())
@settings(max_examples=40, deadline=None)
def test_tree_spec_round_trip_keeps_the_analyze_text(tmp_path_factory, case):
    op, window = case
    t = op.tree
    spec_text = json.dumps(tw.tree_to_spec(t))
    t2 = tw.load_tree_spec(json.loads(spec_text))
    assert t2.parent.tolist() == t.parent.tolist() and t2.labels == t.labels
    op2 = WeightedCompOp(
        VertexFunction(t2, op.psi.values), SelfMap(t2, op.phi.image, op.phi.domain_depth)
    )
    text = tw.canonical_json(analyze_payload(op, window))
    assert tw.canonical_json(analyze_payload(op2, window)) == text

    if op.phi.domain_depth < t.depth_limit:
        return  # a spec file's map table is total
    d = tmp_path_factory.mktemp("spec")
    files = {
        "tree": spec_text,
        "psi": json.dumps({"kind": "table",
                           "values": {str(v): x for v, x in enumerate(op.psi.values.tolist())}}),
        "phi": json.dumps({"kind": "table", "map": op.phi.as_table()}),
    }
    args = ["analyze"]
    for name, body in files.items():
        (d / f"{name}.json").write_text(body, encoding="utf-8")
        args += [f"--{name}", str(d / f"{name}.json")]
    if window is not None:
        args += ["--window", str(window)]
    out = d / "report.json"
    assert main([*args, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == text


# -- factorization -------------------------------------------------------------------


@given(operators(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_weighted_composition_is_multiplication_after_composition(case, seed):
    op, _ = case
    t = op.tree
    f = VertexFunction(t, np.random.default_rng(seed).uniform(-3.0, 3.0, len(t)))
    got = tw.apply_op(op, f)
    assert got.tree is op.codomain_tree
    composed = tw.apply_op(tw.composition_op(op.phi), f)
    assert got.values.tolist() == (op.psi.values[: op.phi.domain_size] * composed.values).tolist()
    # vertex by vertex from the map's table, not from its image array
    want = [float(op.psi.values[v]) * float(f.values[w]) for v, w in op.phi.as_table().items()]
    assert got.values.tolist() == want


# -- monotonicity in the truncation depth ----------------------------------------------


@given(
    st.sampled_from([tw.zline_fold, tw.zline_double]),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_sup_norms_never_decrease_with_the_depth(map_of, top, seed, tied):
    # zline(N)'s ids are the first 2N + 1 of zline(N + 1)'s, so one weight
    # on the deepest line restricts to every shallower one
    rng = np.random.default_rng(seed)
    n = 2 * top + 1
    psi = rng.choice([0.0, 0.5, -1.0, 2.0], size=n) if tied else rng.uniform(-2.0, 2.0, n)
    norms = []
    for depth in range(top + 1):
        t = tw.zline(depth)
        op = WeightedCompOp(VertexFunction(t, psi[: len(t)]), map_of(t))
        norms.append((tw.linf_op_norm(op), tw.lip_exact_norm(op)))
    for (linf, lip), (linf2, lip2) in zip(norms, norms[1:]):
        assert linf <= linf2 and lip <= lip2


# -- condition number --------------------------------------------------------------------


def shallow_map(tree, rng) -> SelfMap:
    """A random map onto the vertices of depth <= d, for a random d < N:
    every window deeper than d is uncovered."""
    d = int(rng.integers(0, tree.depth_limit))
    return SelfMap(tree, rng.integers(0, tree.layer_offsets[d + 1], len(tree)), tree.depth_limit)


@st.composite
def covering_operators(draw):
    """Bijections, random maps and random maps onto a shallower window, on
    zline, h(2, .), h(3, .) and random trees."""
    family = draw(st.sampled_from(["zline", "h2", "h3", "random"]))
    if family == "zline":
        tree = tw.zline(draw(st.integers(1, 12)))
    elif family == "h2":
        tree = tw.homogeneous(2, draw(st.integers(1, 5)))
    elif family == "h3":
        tree = tw.homogeneous(3, draw(st.integers(1, 4)))
    else:
        tree = tw.random_tree(draw(st.integers(1, 6)), seed=draw(st.integers(0, 10**6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = draw(st.sampled_from([tw.random_permutation_map, tw.random_map, shallow_map]))
    return WeightedCompOp(VertexFunction(tree, weight(draw, tree, rng)), maps(tree, rng))


@given(covering_operators())
@settings(max_examples=200, deadline=None)
def test_the_lipschitz_norm_is_at_least_the_window_depth_times_the_modulus(op):
    # with j = j_linf(op, W) > 0, a vertex at depth W (every tree builder
    # gives each depth a vertex) has a preimage v with |psi(v)| >= j, so
    # sup |psi| max(1, |phi|) >= |psi(v)| W >= W j
    norm = tw.lip_exact_norm(op)
    for w in range(1, op.tree.depth_limit + 1):
        j = tw.j_linf(op, w)
        if j > 0:
            assert norm >= w * j * (1 - 1e-12), (w, j, norm)
