"""Scalar functions on a truncated tree and their discrete calculus.

The derivative of f at a non-root vertex is f(v) - f(parent of v), zero at
the root.  Two norms matter: the sup norm, and the Lipschitz norm
|f(root)| + sup |Df|.  Every quantity here is computed on the truncation;
anything that is really a statement about the infinite tree (membership in
the small-derivative subspace, say) is reported as a per-depth tail
profile, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trees import RootedTree, _integer

__all__ = [
    "VertexFunction",
    "NormReport",
    "derivative",
    "norms",
    "growth_check",
    "indicator",
    "sector_indicator",
    "depth_cap",
    "ramp_function",
    "random_function",
]


@dataclass(frozen=True, eq=False)
class VertexFunction:
    """A real value per vertex; immutable, total on the truncation."""

    tree: RootedTree
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.tree.n_vertices,):
            raise ValueError(
                f"expected {self.tree.n_vertices} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("vertex function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __call__(self, v: int) -> float:
        return float(self.values[self.tree.check_vertex(v)])

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    @property
    def lip_norm(self) -> float:
        return norms(self).lip_norm


@dataclass(frozen=True, eq=False)
class NormReport:
    """Sup norm, Lipschitz norm, and the derivative tail profile.

    ``tail_sups[n]`` is the sup of |Df| over vertices deeper than n, for
    0 <= n < N, in a read-only array; ``tail_profile`` gives it as
    ``(n, value)`` pairs.  It is non-increasing by construction; a small
    final value is evidence (not proof) that f sits in the
    small-derivative subspace.
    """

    sup_norm: float
    lip_norm: float
    value_at_root: float
    d_sup: float
    tail_sups: np.ndarray

    @property
    def tail_profile(self) -> tuple:
        return tuple(enumerate(self.tail_sups.tolist()))


def derivative(f: VertexFunction) -> VertexFunction:
    """Df(v) = f(v) - f(parent(v)) off the root, Df(root) = 0."""
    t = f.tree
    d = f.values - f.values[t.safe_parent]
    d[0] = 0.0
    return VertexFunction(t, d)


def norms(f: VertexFunction) -> NormReport:
    t = f.tree
    df = np.abs(derivative(f).values)
    # suffix max of |Df| in id order, read where each depth layer starts:
    # the max over depths >= that layer's
    suffix = np.maximum.accumulate(df[::-1])[::-1]
    d_sup = float(suffix[0])
    root_val = float(f.values[0])
    tails = suffix[t.layer_offsets[1:-1]]
    tails.setflags(write=False)
    return NormReport(
        sup_norm=f.sup_norm,
        lip_norm=abs(root_val) + d_sup,
        value_at_root=root_val,
        d_sup=d_sup,
        tail_sups=tails,
    )


def growth_check(f: VertexFunction):
    """Verify |f(v)| <= |f(root)| + depth(v) * sup|Df| at every vertex, up
    to a slack of -1e-9 for roundoff.

    This holds for every function (telescoping along the root path), so a
    False return signals an implementation bug.  Returns (ok, worst vertex,
    smallest slack).
    """
    t = f.tree
    rep = norms(f)
    bound = abs(rep.value_at_root) + t.depth * rep.d_sup
    slack = bound - np.abs(f.values)
    worst = int(np.argmin(slack))
    return bool(slack[worst] >= -1e-9), worst, float(slack[worst])


def indicator(tree: RootedTree, w: int) -> VertexFunction:
    """The 0/1 function supported on the single vertex w."""
    vals = np.zeros(tree.n_vertices)
    vals[tree.check_vertex(w)] = 1.0
    return VertexFunction(tree, vals)


def sector_indicator(tree: RootedTree, v: int) -> VertexFunction:
    """The 0/1 function supported on v and all its descendants."""
    vals = np.zeros(tree.n_vertices)
    vals[tree.sector(v)] = 1.0
    return VertexFunction(tree, vals)


def depth_cap(tree: RootedTree, cap: int) -> VertexFunction:
    """f(v) = min(depth(v), cap) for an integer cap; unit Lipschitz norm
    for cap >= 1."""
    cap = _integer(cap, "cap")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return VertexFunction(tree, np.minimum(tree.depth, cap).astype(np.float64))


def ramp_function(tree: RootedTree, n: int, r: float) -> VertexFunction:
    """Radial ramp: zero near the root, a power ramp, then a plateau at n.

    f(v) = 0 for depth < sqrt(n), n for depth >= n, and
    (n/(n-sqrt(n))) * (depth - sqrt(n))^(r+1) / (n-sqrt(n))^r between.
    The depth comparison uses the exact real square root; n must be an
    integer.
    """
    n = _integer(n, "n")
    if n < 4:
        raise ValueError("n must be >= 4 so that sqrt(n) < n")
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    if tree.depth_limit < n:
        raise IndexError(
            f"truncation depth {tree.depth_limit} too shallow for plateau at {n}"
        )
    s = math.sqrt(n)
    d = tree.depth.astype(np.float64)
    mid = (n / (n - s)) * np.maximum(d - s, 0.0) ** (r + 1) / (n - s) ** r
    vals = np.where(d < s, 0.0, np.where(d >= n, float(n), mid))
    return VertexFunction(tree, vals)


def random_function(tree: RootedTree, rng: np.random.Generator, scale: float = 1.0) -> VertexFunction:
    """Uniform random values in [-scale, scale]; deterministic per rng state."""
    return VertexFunction(tree, rng.uniform(-scale, scale, tree.n_vertices))
