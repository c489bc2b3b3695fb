"""Self-maps, weights, and weighted composition operators on truncations.

The operator built from a weight psi and a self-map phi sends f to the
function v -> psi(v) * f(phi(v)).  On a depth-N truncation the map must
land inside the window; map families that expand depth (doubling on the
integer line) therefore carry an explicit domain core: phi is stored on
the sub-truncation where its images stay inside, and the operator maps
functions on the full window to functions on the core.  Total maps have
core equal to the whole truncation and behave exactly like classic
self-maps.

Every closed-form quantity proved for these operators is computed here
over the stored domain: operator norms, essential-norm tail profiles, and
injectivity/surjectivity moduli and their brackets; ``classify`` builds
the certificates from them.  The injectivity modulus accepts a
``within_depth`` window; by default it quantifies over the whole
truncation, while fixtures built from infinite families evaluate it on the
half-depth window where the window faithfully sees all preimages.

Two thresholds are fixed: ``STABILITY_MARGIN``, the depths by which a map's
range must stop short of the window edge to count as finite
(``SelfMap.finite_range_stable``), and ``ISOMETRY_TOL``, within which a
preimage sup counts as 1 (``first_off_one``).

Data layout: a map keeps its image array and the ``coverage`` count of
preimages per vertex.  An operator lazily caches the arrays that every
closed form reads, each computed once per operator:
``preimage_sup``, the sup of |psi| over each vertex's preimage (one
``np.maximum.at`` over the image, ``-inf`` where there is no preimage);
``tail_sups``, both essential-norm tail profiles from one maximum per
image depth and a suffix maximum; ``tail_slopes``, the least-squares slope
of each of those two columns; and ``head_sups``, two per-depth running
reductions over id layers (``depth_running``: one ``reduceat`` over the
layer offsets, then an ``accumulate`` over depths): the sups of |psi| and
of the reach over depth <= d, whose last row gives both norms' sups.
A window is an id prefix, so a window question reads a row:
``preimage_argmin`` (the first vertex of least ``preimage_sup`` over depth
<= d), ``preimage_inf`` (its value clamped at 0: ``j_linf`` on the window
of depth d) or ``first_off_one`` (the first sup that is not 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .functions import VertexFunction
from .trees import RootedTree, _finite, _integer, zline_ids  # classify reads _finite here

__all__ = [
    "MapSpecError",
    "SelfMap",
    "WeightedCompOp",
    "identity_map",
    "constant_map",
    "map_from_table",
    "zline_fold",
    "zline_double",
    "random_map",
    "random_permutation_map",
    "multiplication_op",
    "composition_op",
    "apply_op",
    "linf_op_norm",
    "linf_ess_norm_profile",
    "lip_bounds",
    "lip_exact_norm",
    "lip_ess_norm_profile",
    "j_linf",
    "k_linf",
    "j_lip_bracket",
    "k_lip_bracket",
    "tail_trend_slope",
]

STABILITY_MARGIN = 3
ISOMETRY_TOL = 1e-9


class MapSpecError(ValueError):
    """Raised when a map table is partial, out of range, or ill-typed."""


@dataclass(frozen=True, eq=False)
class SelfMap:
    """A vertex-to-vertex map with its preimage index.

    ``image[v]`` is defined for the domain prefix (all vertices of depth
    <= ``domain_depth``, held as the ``int`` that ``tree.check_depth`` gives,
    its errors re-raised as MapSpecError; breadth-first ids make that prefix
    contiguous).
    ``coverage[w]`` counts the preimages of w.
    """

    tree: RootedTree
    image: np.ndarray
    domain_depth: int
    name: str = "table"
    coverage: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        t = self.tree
        try:
            depth = t.check_depth(self.domain_depth, "domain depth")
        except (ValueError, IndexError) as exc:
            raise MapSpecError(str(exc)) from None
        object.__setattr__(self, "domain_depth", depth)
        img = np.asarray(self.image)
        if img.dtype.kind not in "iu":
            raise MapSpecError(
                f"image entries must be integers, got dtype {img.dtype}"
            )
        img = img.astype(np.int64, copy=False)
        m = self.domain_size_for(t, depth)
        if img.shape != (m,):
            raise MapSpecError(f"expected {m} image entries, got {img.shape}")
        if img.size and (img.min() < 0 or img.max() >= t.n_vertices):
            bad = int(np.where((img < 0) | (img >= t.n_vertices))[0][0])
            raise MapSpecError(
                f"map sends vertex {bad} outside the truncation (to {int(img[bad])})"
            )
        img.setflags(write=False)
        object.__setattr__(self, "image", img)
        coverage = np.bincount(img, minlength=t.n_vertices)
        coverage.setflags(write=False)
        object.__setattr__(self, "coverage", coverage)

    @staticmethod
    def domain_size_for(tree: RootedTree, domain_depth: int) -> int:
        return int(tree.layer_offsets[domain_depth + 1])

    @property
    def domain_size(self) -> int:
        return self.image.size

    @cached_property
    def image_depth(self) -> np.ndarray:
        """|phi(v)| for every domain vertex."""
        d = self.tree.depth[self.image]
        d.setflags(write=False)
        return d

    @cached_property
    def injective_on_domain(self) -> bool:
        return bool((self.coverage <= 1).all())

    @cached_property
    def surjective_on_truncation(self) -> bool:
        return bool((self.coverage >= 1).all())

    @cached_property
    def _range_max(self) -> np.ndarray:
        """max |phi(v)| over domain vertices with depth <= d, per depth d."""
        m = depth_running(
            np.maximum, self.image_depth, self.tree.layer_offsets[: self.domain_depth + 1]
        )
        m.setflags(write=False)
        return m

    def finite_range_stable(self) -> bool:
        """Range maximum flat over the last ``STABILITY_MARGIN`` depths and
        at least that many short of the window edge: the honest
        finite-data proxy for a finite-range map."""
        m = self._range_max
        last = int(m[-1])
        if last > self.tree.depth_limit - STABILITY_MARGIN:
            return False
        return m.size <= STABILITY_MARGIN or last == int(m[-1 - STABILITY_MARGIN])

    def as_table(self) -> dict:
        return {int(v): int(self.image[v]) for v in range(self.domain_size)}


def identity_map(tree: RootedTree) -> SelfMap:
    return SelfMap(tree, np.arange(tree.n_vertices, dtype=np.int64), tree.depth_limit, "identity")


def constant_map(tree: RootedTree, target: int) -> SelfMap:
    target = tree.check_vertex(target)
    return SelfMap(
        tree,
        np.full(tree.n_vertices, target, dtype=np.int64),
        tree.depth_limit,
        "constant",
    )


def map_from_table(tree: RootedTree, table: dict) -> SelfMap:
    """Total map from an explicit id table; partial tables, and images that
    are not integer vertex ids of the truncation, are rejected."""
    img = np.full(tree.n_vertices, -1, dtype=np.int64)
    for k, v in table.items():
        try:
            v = _integer(v, f"image of vertex {k}")
        except ValueError as exc:
            raise MapSpecError(str(exc)) from None
        if not 0 <= v < tree.n_vertices:
            raise MapSpecError(f"map sends vertex {k} outside the truncation (to {v})")
        img[tree.check_vertex(k)] = v
    missing = np.where(img < 0)[0]
    if missing.size:
        raise MapSpecError(
            f"map table is partial: vertex {int(missing[0])} has no image"
        )
    return SelfMap(tree, img, tree.depth_limit, "table")


def zline_fold(tree: RootedTree) -> SelfMap:
    """The folding map on the integer line: n -> n for n >= 0, odd
    negatives to their absolute value, even negatives to n/2."""
    if tree.family != "zline":
        raise MapSpecError("fold map is defined on the line family only")
    n = np.asarray(tree.labels, dtype=np.int64)
    target = np.where(n >= 0, n, np.where(n % 2 != 0, -n, n // 2))
    return SelfMap(tree, zline_ids(target), tree.depth_limit, "zfold")


def zline_double(tree: RootedTree) -> SelfMap:
    """n -> 2n on the integer line, stored on the half-depth core where
    the image stays inside the window."""
    if tree.family != "zline":
        raise MapSpecError("doubling map is defined on the line family only")
    core = tree.depth_limit // 2
    m = SelfMap.domain_size_for(tree, core)
    n = np.asarray(tree.labels[:m], dtype=np.int64)
    return SelfMap(tree, zline_ids(2 * n), core, "double")


def random_map(tree: RootedTree, rng: np.random.Generator) -> SelfMap:
    return SelfMap(
        tree,
        rng.integers(0, tree.n_vertices, size=tree.n_vertices),
        tree.depth_limit,
        "random",
    )


def random_permutation_map(tree: RootedTree, rng: np.random.Generator) -> SelfMap:
    """Random bijection; on a finite truncation these are exactly the
    surjective self-maps."""
    return SelfMap(tree, rng.permutation(tree.n_vertices), tree.depth_limit, "random-perm")


@dataclass(frozen=True, eq=False)
class WeightedCompOp:
    """The pair (psi, phi) acting by f -> psi * (f o phi).

    psi is stored on the full truncation; only its values on phi's domain
    enter any operator quantity.
    """

    psi: VertexFunction
    phi: SelfMap

    def __post_init__(self):
        if self.psi.tree is not self.phi.tree:
            raise ValueError("weight and map live on different trees")

    @property
    def tree(self) -> RootedTree:
        return self.psi.tree

    @cached_property
    def codomain_tree(self) -> RootedTree:
        """The truncation to the map's domain depth, on which the
        operator's images live."""
        return self.tree.truncate(self.phi.domain_depth)

    @cached_property
    def abs_psi_on_domain(self) -> np.ndarray:
        a = np.abs(self.psi.values[: self.phi.domain_size])
        a.setflags(write=False)
        return a

    @cached_property
    def reach(self) -> np.ndarray:
        """|psi(v)|(1+|phi(v)|) for every domain vertex: its sup decides
        boundedness from the Lipschitz space."""
        r = self.abs_psi_on_domain * (1.0 + self.phi.image_depth)
        r.setflags(write=False)
        return r

    @cached_property
    def psi_inf(self) -> float:
        """inf |psi| over the domain: both surjectivity moduli read it."""
        return float(self.abs_psi_on_domain.min())

    @cached_property
    def head_sups(self) -> np.ndarray:
        """Row d holds (sup |psi|, sup of the reach) over the domain vertices
        with depth <= d, for 0 <= d <= the domain depth: the Bounded
        profiles of both spaces, and in the last row both norms' sups."""
        starts = self.tree.layer_offsets[: self.phi.domain_depth + 1]
        h = np.column_stack([
            depth_running(np.maximum, self.abs_psi_on_domain, starts),
            depth_running(np.maximum, self.reach, starts),
        ])
        h.setflags(write=False)
        return h

    @cached_property
    def preimage_sup(self) -> np.ndarray:
        """Sup of |psi| over the preimage of each vertex; ``-inf`` marks a
        vertex with no preimage, apart from a covered one with sup 0."""
        sup = np.full(self.tree.n_vertices, -np.inf)
        np.maximum.at(sup, self.phi.image, self.abs_psi_on_domain)
        sup.setflags(write=False)
        return sup

    @cached_property
    def tail_sups(self) -> np.ndarray:
        """Row n holds (sup |psi|, sup |psi||phi|) over the domain vertices
        with |phi(v)| > n, 0 where there is none, for 0 <= n < N."""
        d = self.phi.image_depth
        a = self.abs_psi_on_domain
        n_depths = self.tree.depth_limit + 1
        per_depth = np.column_stack([depth_max(d, a, n_depths), depth_max(d, a * d, n_depths)])
        suffix = np.maximum.accumulate(per_depth[::-1], axis=0)[::-1]
        tails = suffix[1:]
        tails.setflags(write=False)
        return tails

    @cached_property
    def tail_slopes(self) -> tuple[float, float]:
        """The least-squares slopes of the two ``tail_sups`` columns over
        the depths, (0.0, 0.0) for fewer than two rows: what
        ``tail_trend_slope`` gives on ``linf_ess_norm_profile`` and
        ``lip_ess_norm_profile``, bit for bit.  They are numpy ``polyfit``'s,
        from one ``lstsq`` per column on polyfit's own scaled matrix, built
        once for both.  A single two-column ``polyfit`` would be shorter,
        but it solves both columns in one LAPACK call, whose slopes differ
        from the one-column ones in the last bits, and the reports keep
        roundoff slopes such as ``1.34583129721e-16``."""
        tails = self.tail_sups
        if len(tails) < 2:
            return (0.0, 0.0)
        design = _slope_design(np.arange(len(tails)))
        return (_slope(design, tails[:, 0]), _slope(design, tails[:, 1]))

    @cached_property
    def preimage_argmin(self) -> np.ndarray:
        """Row d is the first vertex of least ``preimage_sup`` with depth <= d,
        for 0 <= d <= N: the running minimum first takes each value where it
        is held, so an uncovered vertex's ``-inf`` wins, as with ``argmin``."""
        neg = -np.minimum.accumulate(self.preimage_sup)
        w = np.searchsorted(neg, neg[self.tree.layer_offsets[1:] - 1])
        w.setflags(write=False)
        return w

    @cached_property
    def preimage_inf(self) -> np.ndarray:
        """Row d is the inf of ``preimage_sup`` over the vertices with depth
        <= d, clamped at 0 (an uncovered vertex counts 0), for 0 <= d <= N:
        ``j_linf`` on the window of depth d."""
        inf = np.maximum(self.preimage_sup[self.preimage_argmin], 0.0)
        inf.setflags(write=False)
        return inf

    @cached_property
    def first_off_one(self) -> int:
        """The first vertex whose preimage sup is off 1 by more than
        ``ISOMETRY_TOL`` (an uncovered one's ``-inf`` is), else the vertex
        count: ``Linf.Isometry`` holds on a window iff the window misses it."""
        off = np.append(np.abs(self.preimage_sup - 1.0) > ISOMETRY_TOL, True)
        return int(off.argmax())


def depth_running(ufunc: np.ufunc, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Row d is ``ufunc`` reduced over the entries of ``values`` with depth
    <= d, one row per layer start in ``starts``; ``values`` is indexed by
    breadth-first id and covers exactly those layers, so depth d's entries
    begin at ``starts[d]``, and every layer holds one."""
    return ufunc.accumulate(ufunc.reduceat(values, starts))


def depth_max(depth: np.ndarray, values: np.ndarray, n_depths: int) -> np.ndarray:
    """Per-depth maximum of non-negative ``values`` keyed by ``depth``, 0 at
    a depth without entries."""
    out = np.zeros(n_depths, dtype=values.dtype)
    np.maximum.at(out, depth, values)
    return out


def multiplication_op(psi: VertexFunction) -> WeightedCompOp:
    return WeightedCompOp(psi, identity_map(psi.tree))


def composition_op(phi: SelfMap) -> WeightedCompOp:
    ones = VertexFunction(phi.tree, np.ones(phi.tree.n_vertices))
    return WeightedCompOp(ones, phi)


def apply_op(op: WeightedCompOp, f: VertexFunction) -> VertexFunction:
    """psi * (f o phi), a function on the operator's codomain view."""
    if f.tree is not op.tree:
        raise ValueError("argument lives on a different tree")
    m = op.phi.domain_size
    vals = op.psi.values[:m] * f.values[op.phi.image]
    return VertexFunction(op.codomain_tree, vals)


# -- norms on the bounded-function space --------------------------------------


def linf_op_norm(op: WeightedCompOp) -> float:
    """Operator norm on the bounded functions: sup |psi| over the domain."""
    return float(op.head_sups[-1, 0])


def linf_ess_norm_profile(op: WeightedCompOp) -> tuple:
    """(n, sup |psi(v)| over |phi(v)| > n) for 0 <= n < N; the essential norm is the limit."""
    return tuple(enumerate(op.tail_sups[:, 0].tolist()))


# -- norms from the Lipschitz space to the bounded functions ------------------


def lip_bounds(op: WeightedCompOp) -> tuple[float, float]:
    """Sandwich for the Lipschitz-to-bounded operator norm:
    max(sup|psi|, sup|psi|*|phi|) <= norm <= sup |psi|*(1+|phi|).  The
    lower end is ``lip_exact_norm``, the same maximum."""
    return (lip_exact_norm(op), float(op.head_sups[-1, 1]))


def lip_exact_norm(op: WeightedCompOp) -> float:
    """sup |psi(v)| * max(1, |phi(v)|): the sup-sup exchange with the
    point-evaluation norm max(1, |w|) on the Lipschitz unit ball.  The
    oracle module validates that point-evaluation identity independently.
    """
    sup = op.head_sups[-1, 0]
    if op.tree.depth_limit == 0:
        return float(sup)
    # tail row 0 is sup |psi||phi| over |phi| >= 1, where max(1, |phi|) is
    # |phi|; the vertices with |phi| = 0 add |psi|, and sup |psi| is at most
    # the exchange's maximum, so this is the same maximum of the same products
    return float(max(sup, op.tail_sups[0, 1]))


def lip_ess_norm_profile(op: WeightedCompOp) -> tuple:
    """(n, sup |psi(v)||phi(v)| over |phi(v)| > n) for 0 <= n < N."""
    return tuple(enumerate(op.tail_sups[:, 1].tolist()))


def tail_trend_slope(profile) -> float:
    """Least-squares slope of a tail profile; a crude trend summary only."""
    ns = np.asarray([p[0] for p in profile], dtype=np.float64)
    vs = np.asarray([p[1] for p in profile], dtype=np.float64)
    if ns.size < 2:
        return 0.0
    return _slope(_slope_design(ns), vs)


def _slope_design(x: np.ndarray) -> tuple:
    """numpy ``polyfit``'s degree-1 design matrix on the abscissae ``x``
    (at least two): ``vander(x, 2)`` over its column norms, with those
    norms."""
    lhs = np.vander(x + 0.0, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    return lhs / scale, scale


def _slope(design: tuple, y: np.ndarray) -> float:
    """The slope ``polyfit(x, y, 1)`` gives, bit for bit, from
    ``_slope_design(x)``: polyfit's own ``lstsq`` call and ``rcond``."""
    lhs, scale = design
    c = np.linalg.lstsq(lhs, y, rcond=y.size * np.finfo(np.float64).eps)[0]
    return float(c[0] / scale[0])


# -- minimum moduli ------------------------------------------------------------


def _window_depth(tree: RootedTree, within_depth: int | None) -> int:
    """The window depth as an int, N by default, else as
    ``tree.check_depth`` gives it: a ValueError for a non-integer, an
    IndexError outside [0, N]."""
    if within_depth is None:
        return tree.depth_limit
    return tree.check_depth(within_depth, "window depth")


def j_linf(op: WeightedCompOp, within_depth: int | None = None) -> float:
    """Injectivity modulus on the bounded functions: 0 unless every target
    vertex (in the window) has a preimage, else the smallest preimage sup
    of |psi|, read from ``preimage_inf``."""
    return float(op.preimage_inf[_window_depth(op.tree, within_depth)])


def k_linf(op: WeightedCompOp) -> float:
    """Surjectivity modulus on the bounded functions: inf |psi| when phi is
    injective, 0 otherwise (a zero of psi forces 0 through the infimum)."""
    if not op.phi.injective_on_domain:
        return 0.0
    return op.psi_inf


def j_lip_bracket(
    op: WeightedCompOp, within_depth: int | None = None
) -> tuple[float, float]:
    """Bracket (M/3, M) for the Lipschitz-to-bounded injectivity modulus,
    M the inf-sup of |psi| over preimages; (0, 0) without surjectivity."""
    m = j_linf(op, within_depth)
    return (m / 3.0, m)


def k_lip_bracket(op: WeightedCompOp) -> tuple[float, float]:
    """Bracket for the Lipschitz-to-bounded surjectivity modulus:
    (inf|psi|/3, inf |psi|*(1+|phi|)) when phi is injective and psi has no
    zero; (0, 0) otherwise."""
    low = op.psi_inf
    if not op.phi.injective_on_domain or low == 0.0:
        return (0.0, 0.0)
    return (low / 3.0, float(op.reach.min()))
