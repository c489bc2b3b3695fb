from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import treewco as tw

# Hypothesis imports this module (and libcst, when installed) only to report
# a failing example; under -W error, libcst's import-time DeprecationWarning
# (mypy_extensions.TypedDict) then turns that report into an INTERNALERROR
# that ends the session.  Importing it once here, with only that category
# ignored, leaves -W error in force for every test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def line4():
    return tw.zline(4)


@pytest.fixture
def line6():
    return tw.zline(6)


@pytest.fixture
def homog22():
    return tw.homogeneous(2, 2)


def small_tree_corpus():
    """Trees of at most 16 vertices for exhaustive oracle work."""
    return [
        tw.zline(7),
        tw.zline(5),
        tw.homogeneous(2, 2),
        tw.random_tree(2, seed=5, min_children=1, max_children=3),
    ]


def random_operator(tree, rng, scale=2.0, surjective=False):
    phi = (
        tw.random_permutation_map(tree, rng)
        if surjective
        else tw.random_map(tree, rng)
    )
    return tw.WeightedCompOp(tw.random_function(tree, rng, scale), phi)


def reference_distance(tree, v, w):
    """Edge count of the path between v and w, by walking both up to their
    lowest common ancestor: the scalar reference for ``tree.distances``."""
    dv, dw = int(tree.depth[v]), int(tree.depth[w])
    total = 0
    while dv > dw:
        v, dv, total = int(tree.parent[v]), dv - 1, total + 1
    while dw > dv:
        w, dw, total = int(tree.parent[w]), dw - 1, total + 1
    while v != w:
        v, w = int(tree.parent[v]), int(tree.parent[w])
        total += 2
    return total


def ramp_lip_norm(n, r):
    """Exact Lipschitz norm of ``ramp_function(tree, n, r)``: the deepest
    in-ramp increment, (n/(n-sqrt(n))) * ((n-sqrt(n))^(r+1) -
    (n-sqrt(n)-1)^(r+1)) / (n-sqrt(n))^r.  Tends to r+1 as n grows."""
    x = n - math.sqrt(n)
    return (n / x) * (x ** (r + 1) - (x - 1) ** (r + 1)) / x**r


def label_fn(tree):
    return np.asarray([int(tree.label_of(v)) for v in range(len(tree))])


def shuffled_edges(tree, rng):
    """The edges of ``tree`` under mixed int/str labels whose order differs
    from the id order, shuffled and randomly oriented; and the root's label."""
    perm = rng.permutation(len(tree))
    labels = [
        int(perm[v]) if rng.random() < 0.5 else f"{'xyz'[v % 3]}{int(perm[v])}"
        for v in range(len(tree))
    ]
    edges = [[labels[int(tree.parent[v])], labels[v]] for v in range(1, len(tree))]
    edges = [e[::-1] if rng.random() < 0.5 else e for e in edges]
    return [edges[i] for i in rng.permutation(len(edges))], labels[0]


# -- per-vertex loop references for the preimage reductions ---------------------


def ref_preimages(phi):
    pre = [[] for _ in range(len(phi.tree))]
    for v in range(phi.domain_size):
        pre[int(phi.image[v])].append(v)
    return pre


def ref_sup(op, pre, w):
    """Sup of |psi| over the preimage of w, None when w is uncovered."""
    if not pre[w]:
        return None
    return float(np.abs(op.psi.values[pre[w]]).max())


def ref_window(op, within):
    limit = op.tree.depth_limit if within is None else within
    return range(tw.SelfMap.domain_size_for(op.tree, limit))


def ref_bounded_below_witness(op, pre, within):
    """The vertex deciding the inf-sup over the window: the first uncovered
    one, else the first with the smallest preimage sup of |psi|."""
    best_w, best = None, np.inf
    for w in ref_window(op, within):
        s = ref_sup(op, pre, w)
        if s is None:
            return {"vertex": w, "reason": "no preimage in the window"}
        if s < best:
            best_w, best = w, s
    return {"vertex": best_w, "preimage_sup": best}
