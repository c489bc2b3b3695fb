"""Rooted trees as finite depth-N truncations of infinite families.

A tree is stored with canonical dense vertex ids assigned in breadth-first
order, so ids are sorted by depth and every truncation to a smaller depth is
an id prefix.  The truncation depth N is the deepest vertex's depth, so
every layer 0..N holds a vertex.  Vertices at depth N are "frontier"
vertices: they are allowed to be childless because their children simply
lie beyond the window, while an interior childless vertex is rejected (the
modeled infinite trees have no terminal vertex).

Structure lives in flat arrays: ``parent`` and ``depth`` per vertex.  The
breadth-first layout is the only index: the children of a vertex, a depth
layer and every truncation are contiguous id ranges, read from two offset
arrays, and a sector is one id range per layer below its top vertex.

Every vertex id, depth and count a caller passes goes through ``_integer``
(never a bool or a float: ``1.9`` is refused, not vertex 1), and an id or
depth then through ``check_vertex`` or ``check_depth``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "MAX_VERTICES",
    "RootedTree",
    "TreeBudgetError",
    "TreeStructureError",
    "zline",
    "homogeneous",
    "random_tree",
    "explicit_tree",
]


# The most vertices a family builder (zline, homogeneous, random_tree)
# makes, about 9x homogeneous(3, 10); a larger tree is refused before any
# of its arrays is allocated.
MAX_VERTICES = 1 << 20


class TreeStructureError(ValueError):
    """Raised for disconnected/cyclic input or interior terminal vertices."""


class TreeBudgetError(ValueError):
    """A family builder refused a tree of more than MAX_VERTICES vertices."""

    def __init__(self, depth: int):
        super().__init__(f"depth {depth} gives more than MAX_VERTICES = {MAX_VERTICES} vertices")


def _integer(value, what: str) -> int:
    """``value`` as a Python int; a ValueError naming ``what`` unless it is
    an integer (a bool is not).  A plain int skips the ABC check (~0.4 us)."""
    if type(value) is int or not isinstance(value, bool) and isinstance(value, numbers.Integral):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _finite(value) -> float | None:
    """``value`` as a float, or None unless it is a finite non-bool number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _check_breadth_first(parent: np.ndarray, depth: np.ndarray) -> None:
    """Refuse arrays whose ids are not breadth-first: every id range would be wrong."""

    def refuse(reason: str):
        raise TreeStructureError(f"ids are not breadth-first: {reason}")

    if parent.ndim != 1 or depth.shape != parent.shape or not parent.size:
        refuse(f"parent {parent.shape} and depth {depth.shape} must be equal non-empty vectors")
    if parent[0] != -1 or depth[0] != 0:
        refuse("vertex 0 must be the root, with parent -1 and depth 0")
    p = parent[1:]
    if ((p < 0) | (p >= np.arange(1, parent.size))).any():
        refuse("a vertex's parent id is not below its own")
    if (np.diff(p) < 0).any():
        refuse("parent ids decrease")
    if (depth[1:] != depth[p] + 1).any():
        refuse("a depth is not one more than the parent's")


@dataclass(frozen=True, eq=False)
class RootedTree:
    """Immutable truncated rooted tree, equal only to itself.

    ``parent`` and ``depth`` are integer numpy arrays: parent[v] is the
    vertex one step toward the root (-1 at the root), and depth[v] the edge
    distance to the root.  ``depth_limit``, the
    truncation depth N, is derived: the deepest vertex's depth.
    ``labels`` is a tuple of the display label of each vertex (integers on
    the line family, original names for explicit input, the id itself
    otherwise).  ``safe_parent`` is ``parent`` with the root pointing at
    itself, for vectorized increments.  Ids must be breadth-first, so the
    children of v are the ids ``child_offsets[v]`` up to
    ``child_offsets[v + 1]`` and depth d those from ``layer_offsets[d]``.
    """

    parent: np.ndarray
    depth: np.ndarray
    family: str
    labels: tuple
    meta: dict = field(default_factory=dict)
    depth_limit: int = field(init=False)
    safe_parent: np.ndarray = field(init=False, repr=False)
    child_offsets: np.ndarray = field(init=False, repr=False)
    layer_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        parent, depth = self.parent, self.depth
        for name, arr in (("parent", parent), ("depth", depth)):
            if not isinstance(arr, np.ndarray) or arr.dtype.kind not in "iu":
                got = (
                    f"dtype {arr.dtype}" if isinstance(arr, np.ndarray)
                    else f"a {type(arr).__name__}"
                )
                raise TreeStructureError(f"{name} must be an integer numpy array, got {got}")
        _check_breadth_first(parent, depth)
        labels = self.labels
        if not isinstance(labels, tuple) or len(labels) != parent.size:
            got = len(labels) if isinstance(labels, tuple) else f"a {type(labels).__name__}"
            raise TreeStructureError(
                f"labels must be a tuple of one label per vertex ({parent.size}), got {got}"
            )
        # breadth-first depths do not decrease, so the last is the deepest
        limit = int(depth[-1])
        object.__setattr__(self, "depth_limit", limit)
        derived = dict(
            safe_parent=np.where(parent < 0, 0, parent),
            # parents are sorted: the ids whose parent is below v come first
            child_offsets=1 + np.searchsorted(parent[1:], np.arange(parent.size + 1)),
            layer_offsets=np.searchsorted(depth, np.arange(limit + 2)),
        )
        for name, arr in [("parent", parent), ("depth", depth), *derived.items()]:
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def _label_index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    # -- basic structure ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.parent.size

    def __len__(self) -> int:
        return self.parent.size

    def check_vertex(self, v: int) -> int:
        v = _integer(v, "vertex")
        if not 0 <= v < self.n_vertices:
            raise KeyError(f"vertex {v} not in tree with {self.n_vertices} vertices")
        return v

    def check_depth(self, n: int, what: str = "depth") -> int:
        """``n`` as an int in [0, N]; an IndexError outside, by ``what``."""
        n = _integer(n, what)
        if not 0 <= n <= self.depth_limit:
            raise IndexError(f"{what} {n} outside [0, {self.depth_limit}]")
        return n

    def children_of(self, v: int) -> np.ndarray:
        v = self.check_vertex(v)
        return np.arange(self.child_offsets[v], self.child_offsets[v + 1])

    def depth_of(self, v: int) -> int:
        return int(self.depth[self.check_vertex(v)])

    # -- metric / combinatorial queries -------------------------------------

    def layer(self, n: int) -> np.ndarray:
        """All vertices at depth n."""
        n = self.check_depth(n)
        return np.arange(self.layer_offsets[n], self.layer_offsets[n + 1])

    def ancestor_at_depth(self, v: int, n: int) -> int:
        """The unique vertex on the root path of v at depth n."""
        v, n = self.check_vertex(v), _integer(n, "depth")
        if not 0 <= n <= self.depth[v]:
            raise IndexError(f"depth {n} not on the root path of vertex {v}")
        return self.root_path(v)[n]

    def root_path(self, v: int) -> list[int]:
        """Vertices from the root to v, inclusive."""
        v = self.check_vertex(v)
        path = [v]
        while path[-1] != 0:
            path.append(int(self.parent[path[-1]]))
        return path[::-1]

    def distance(self, v: int, w: int) -> int:
        """Edge count of the unique path between v and w."""
        v, w = self.check_vertex(v), self.check_vertex(w)
        return int(self.distances(np.asarray([v]), np.asarray([w]))[0])

    @cached_property
    def _ancestors(self) -> np.ndarray:
        """Binary-lifting table: row k holds each vertex's 2**k-th ancestor
        (the root is its own ancestor).  Built on first use only."""
        rows = [self.safe_parent]
        for _ in range(1, max(1, int(self.depth_limit).bit_length())):
            rows.append(rows[-1][rows[-1]])
        return np.stack(rows)

    def distances(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Edge counts of the paths between ``u[i]`` and ``w[i]`` (arrays of
        vertex ids), through the depth of their lowest common ancestor."""
        up = self._ancestors
        du, dw = self.depth[u], self.depth[w]
        swap = du < dw
        u, w = np.where(swap, w, u), np.where(swap, u, w)
        lift = np.abs(du - dw)
        for k in range(up.shape[0]):
            u = np.where((lift >> k) & 1 == 1, up[k][u], u)
        for k in range(up.shape[0] - 1, -1, -1):
            au, aw = up[k][u], up[k][w]
            split = au != aw
            u, w = np.where(split, au, u), np.where(split, aw, w)
        lca = np.where(u == w, u, self.safe_parent[u])
        return du + dw - 2 * self.depth[lca]

    def sector(self, v: int) -> np.ndarray:
        """v together with all its descendants inside the truncation."""
        lo = self.check_vertex(v)
        hi, ranges = lo + 1, []
        while lo < hi:  # the children of an id range are one id range
            ranges.append(np.arange(lo, hi))
            lo, hi = self.child_offsets[lo], self.child_offsets[hi]
        return np.concatenate(ranges)

    # -- derived views -------------------------------------------------------

    def truncate(self, depth: int) -> "RootedTree":
        """The sub-tree of all vertices at depth <= ``depth``.

        Because ids are breadth-first, this is an id prefix and ids are
        preserved.
        """
        depth = self.check_depth(depth)
        if depth == self.depth_limit:
            return self
        m = int(self.layer_offsets[depth + 1])
        return RootedTree(
            parent=self.parent[:m].copy(),
            depth=self.depth[:m].copy(),
            family=self.family,
            labels=self.labels[:m],
            meta=dict(self.meta),
        )

    def label_of(self, v: int):
        return self.labels[self.check_vertex(v)]

    def vertex_of(self, label) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise KeyError(f"no vertex labeled {label!r}") from None

    def to_dot(self, phi_image: Mapping[int, int] | None = None) -> str:
        """Graphviz DOT text, nodes shaded by depth.

        When ``phi_image`` is given, dashed edges v -> phi(v) overlay the
        self-map on top of the tree edges.
        """
        lines = ["digraph tree {", "  node [style=filled];"]
        nmax = max(self.depth_limit, 1)
        for v in range(self.n_vertices):
            shade = 100 - int(55 * self.depth[v] / nmax)
            label = str(self.labels[v]).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(
                f'  v{v} [label="{label}" fillcolor="gray{shade}"];'
            )
        for v in range(1, self.n_vertices):
            lines.append(f"  v{int(self.parent[v])} -> v{v};")
        if phi_image is not None:
            for v in sorted(phi_image):
                lines.append(
                    f"  v{v} -> v{phi_image[v]} "
                    "[style=dashed color=blue constraint=false];"
                )
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- builders ----------------------------------------------------------------


def _label_key(lab):
    # Sort ints before anything else so canonical ids are reproducible.
    return (0, lab, "") if isinstance(lab, int) else (1, 0, str(lab))


def zline(depth: int) -> RootedTree:
    """The integer line {-N..N} rooted at 0 with parent(n) = n - sign(n).

    Canonical ids follow the fixed bijection 0 -> 0, n -> 2n-1 for n > 0,
    n -> -2n for n < 0 (breadth-first order with the positive vertex first
    on each layer).
    """
    depth = _integer(depth, "depth")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if 2 * depth + 1 > MAX_VERTICES:
        raise TreeBudgetError(depth)
    k = np.arange(1, depth + 1, dtype=np.int64)
    labels = np.zeros(2 * depth + 1, dtype=np.int64)
    labels[1::2], labels[2::2] = k, -k
    depths = np.abs(labels)
    # ids 2k-1 and 2k (labels k and -k) hang below ids 2k-3 and 2k-2
    parent_ids = np.maximum(np.arange(-2, 2 * depth - 1, dtype=np.int64), 0)
    parent_ids[0] = -1
    return RootedTree(
        parent=parent_ids,
        depth=depths,
        family="zline",
        labels=tuple(labels.tolist()),
    )


def zline_ids(labels: np.ndarray) -> np.ndarray:
    """Canonical ids of integer labels on a line tree, the inverse of the
    labels ``zline`` gives its ids."""
    return np.where(labels > 0, 2 * labels - 1, -2 * labels)


def homogeneous(q: int, depth: int) -> RootedTree:
    """Homogeneous tree where every vertex has q+1 neighbors.

    Convention: the root gets q+1 children and every other interior
    vertex q children, so all vertices (root included) have degree q+1.
    """
    q, depth = _integer(q, "q"), _integer(depth, "depth")
    if q < 2:
        raise ValueError("q must be >= 2")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    # past the budget's bit length q**depth alone exceeds it, so the
    # closed-form count is only formed for depths where it is small
    if depth >= MAX_VERTICES.bit_length() or (
        1 + (q + 1) * (q**depth - 1) // (q - 1) > MAX_VERTICES
    ):
        raise TreeBudgetError(depth)
    sizes = [1] + [(q + 1) * q ** (d - 1) for d in range(1, depth + 1)]
    n = sum(sizes)
    # breadth-first ids: ids 1..q+1 hang below the root, and vertex j >= 1
    # has the q children q+2+(j-1)q .. q+1+jq
    ids = np.arange(n, dtype=np.int64)
    parent_ids = np.where(ids <= q + 1, 0, (ids - q - 2) // q + 1)
    parent_ids[0] = -1
    return RootedTree(
        parent=parent_ids,
        depth=np.repeat(np.arange(depth + 1, dtype=np.int64), sizes),
        family="homogeneous",
        labels=tuple(range(n)),
        meta={"q": q},
    )


def random_tree(
    depth: int,
    seed: int,
    min_children: int = 1,
    max_children: int = 3,
) -> RootedTree:
    """Random tree with bounded branching; interior vertices never childless.

    Deterministic for a fixed (seed, bounds).
    """
    depth, seed = _integer(depth, "depth"), _integer(seed, "seed")
    lo, hi = _integer(min_children, "min_children"), _integer(max_children, "max_children")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if lo < 1:
        raise ValueError("min_children must be >= 1 (no interior terminal)")
    if hi < lo:
        raise ValueError("max_children must be >= min_children")
    rng = np.random.default_rng(seed)
    parent_ids = [np.asarray([-1], dtype=np.int64)]
    sizes = [1]
    start = 0
    for _ in range(depth):
        # one draw per parent, in id order: the seeded trees depend on it
        # (an array draw yields the same stream as one scalar draw each)
        counts = rng.integers(lo, hi + 1, size=sizes[-1])
        layer = int(counts.sum())
        if start + sizes[-1] + layer > MAX_VERTICES:
            raise TreeBudgetError(depth)
        parent_ids.append(np.repeat(np.arange(start, start + sizes[-1], dtype=np.int64), counts))
        start += sizes[-1]
        sizes.append(layer)
    n = start + sizes[-1]
    return RootedTree(
        parent=np.concatenate(parent_ids),
        depth=np.repeat(np.arange(depth + 1, dtype=np.int64), sizes),
        family="random",
        labels=tuple(range(n)),
        meta={"seed": seed, "min_children": lo, "max_children": hi},
    )


def explicit_tree(edges: Iterable[Sequence], root) -> RootedTree:
    """Build from an undirected edge list, each edge a 2-item list or tuple,
    plus a root.

    Ids are breadth-first, each vertex's children in label order (integers
    first), and the depth limit is the deepest vertex's depth.  Rejects
    disconnected or cyclic input, and any interior vertex without children
    (a terminal vertex strictly inside the truncation), naming the first
    one in id order.
    """
    adj: dict = {}
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2 or e[0] == e[1]:
            raise TreeStructureError(f"bad edge {e!r}")
        u, v = e
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    if root not in adj and adj:
        raise TreeStructureError(f"root {root!r} not in edge list")
    if not adj:
        adj = {root: set()}
    # breadth-first over label-sorted neighbours; ``order`` grows as it is walked
    order, parent_ids, depths, seen = [root], [-1], [0], {root}
    for head, u in enumerate(order):
        for v in sorted(adj[u], key=_label_key):
            if v not in seen:
                seen.add(v)
                order.append(v)
                parent_ids.append(head)
                depths.append(depths[head] + 1)
    if len(order) != len(adj):
        raise TreeStructureError("edge list is disconnected from the root")
    if sum(len(s) for s in adj.values()) // 2 != len(adj) - 1:
        raise TreeStructureError("edge list contains a cycle")
    limit = depths[-1]
    parent, depth = np.asarray(parent_ids, dtype=np.int64), np.asarray(depths, dtype=np.int64)
    childless = (depth < limit) & (np.bincount(parent[1:], minlength=parent.size) == 0)
    if childless.any():
        v = int(np.argmax(childless))
        raise TreeStructureError(
            f"interior terminal vertex {order[v]!r} at depth {depths[v]} (< {limit})"
        )
    return RootedTree(parent, depth, "explicit", tuple(order))
