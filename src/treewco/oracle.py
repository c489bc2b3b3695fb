"""Brute-force extremal oracles for the closed-form operator quantities.

Everything here re-evaluates norms from raw arrays on purpose: the point
of an oracle is to confirm the formula path, so it must not call it.  The
only formula value an oracle report quotes is the one it is being compared
against, clearly labeled as such.

The searches are deterministic and desk-scale, and refuse, rather than
degrade, beyond hard size caps: exhaustive enumeration of the patterns of
the levels -1, 0, 1 on the bounded functions, and exhaustive enumeration
of the extreme points of the Lipschitz unit ball (the constants +-1 and
the sign patterns of the increments).  At any size, an attained witness
builds one unit-ball function from the closed form's argmax and evaluates
the composed sup norm on it: a lower bound that meets the closed form
only if the formula's value is attained.

The three exhaustive searches share one loop, ``_first_best``, which
builds each pattern's state by digit recursion from the pattern it
extends: a running maximum for the searches on the bounded functions, a
running sum of increments for the extreme points.  Each search brings
only its digit terms and a score.

The surjectivity check is exact, not merely sound: it computes the least
Lipschitz norm of a preimage by McShane extension through the forced
values, with root value 0 unless forced, since moving it off 0 costs its
modulus and gains at most as much at depth >= 1.  Its largest pair
quotient is taken over the adjacent forced pairs only, with no forced
vertex between them: no other pair can exceed them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functions import VertexFunction
from .operators import SelfMap, WeightedCompOp, _window_depth, j_linf
from .trees import RootedTree

__all__ = [
    "OracleResult",
    "OracleSizeError",
    "norm_oracle_linf",
    "point_eval_lip_norm",
    "norm_oracle_lip",
    "j_oracle_linf_bracket",
    "surjectivity_infeasibility",
]

MAX_EXHAUSTIVE_VERTICES_MAX = 16
MAX_EXHAUSTIVE_VERTICES_MIN = 12
MAX_PATTERNS = 2_000_000
# at most this many patterns are scored per block of an exhaustive search
_CHUNK = 1 << 15
# the values a bounded unit function takes at each vertex in the searches
# on the bounded functions, and the increment levels of the Lipschitz
# ball's non-constant extreme points
_LEVELS = np.asarray([-1.0, 0.0, 1.0])
_SIGNS = np.asarray([-1.0, 1.0])
# |psi| and |g| at most this count as zero in the surjectivity check, and
# a preimage norm at most 1 + this counts as 1
_SURJ_TOL = 1e-9
# the surjectivity check scores its shared-top pairs in blocks of whole
# rows of at most this many pairs, or of one longer row (a row holds fewer
# pairs than there are forced vertices): this bounds its memory on large
# inputs.  The few dozen passes of a block's pair distances ran about a
# third faster on blocks of 2**15 than of 2**16 pairs on the leaves of
# homogeneous(2, 12)
_PAIR_BLOCK = 1 << 15


class OracleSizeError(ValueError):
    """Search space exceeds the deterministic budget; the message names the
    method to retry with where one exists."""


@dataclass(frozen=True)
class OracleResult:
    quantity: str
    value: float
    method: str
    search_size: int
    witness: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "value": self.value,
            "method": self.method,
            "search_size": self.search_size,
            "witness": self.witness,
            "extra": self.extra,
        }


# -- independent norm evaluation (no reuse of the formula path) ----------------


def _lip_norm_raw(tree: RootedTree, values: np.ndarray) -> float:
    inc = np.abs(values - values[tree.safe_parent])
    inc[0] = 0.0
    return float(abs(values[0]) + inc.max())


def _attained(
    op: WeightedCompOp, quantity: str, f: np.ndarray, f_norm: float, rule: str
) -> OracleResult:
    """The composed sup norm max_v |psi(v) * f(phi(v))| of one function
    ``f`` of unit-ball norm ``f_norm``, built by ``rule``: a lower bound on
    the operator norm at any size.  The witness names the first vertex
    that attains it, and is empty when the value is 0."""
    m = op.phi.domain_size
    vals = np.abs(op.psi.values[:m] * f[op.phi.image])
    v = int(np.argmax(vals))
    witness = {}
    if vals[v] > 0.0:
        witness = {"vertex": v, "target": int(op.phi.image[v]), "rule": rule, "f_norm": f_norm}
    return OracleResult(quantity, float(vals[v]), "AttainedWitness", 1, witness)


# -- operator norm on the bounded functions ------------------------------------


def norm_oracle_linf(op: WeightedCompOp, method: str = "exhaustive") -> OracleResult:
    """Max of the composed sup norm over unit functions valued in -1, 0, 1.

    Only values on the range of the map influence the operator, so the
    enumeration runs over the patterns on the range vertices.  When the
    range misses some vertex, sup norm 1 can be realized off the range
    and every pattern is admissible; otherwise the all-zero pattern is
    not, and ``search_size`` leaves it out.  The maximizer is 0 off the
    range.

    "ascent" evaluates, at any size, the unit function -1 on the range and
    1 off it, where the greedy sweep over the levels of each range vertex
    ends: the composed sup is separable, and -1 attains each maximum.
    """
    t = op.tree
    m = op.phi.domain_size
    range_ids = np.flatnonzero(op.phi.coverage)
    k = range_ids.size

    if method == "ascent":
        f = np.ones(t.n_vertices)
        f[range_ids] = -1.0
        rule = "f = -1 on the range of phi, 1 off it"
        return _attained(op, "OpNormLinf", f, float(np.abs(f).max()), rule)

    if method != "exhaustive":
        raise ValueError(f"unknown method {method!r}")
    if t.n_vertices > MAX_EXHAUSTIVE_VERTICES_MAX:
        raise OracleSizeError(
            f"{t.n_vertices} vertices exceed the exhaustive cap "
            f"{MAX_EXHAUSTIVE_VERTICES_MAX}; use method='ascent'"
        )
    n_patterns = _LEVELS.size**k
    if n_patterns > MAX_PATTERNS:
        raise OracleSizeError(
            f"{n_patterns} grid patterns exceed the budget {MAX_PATTERNS}; "
            "use method='ascent'"
        )
    # pattern 0, -1 on the whole range, scores the largest possible value
    # and comes first, so it wins: the all-zero pattern needs no mask
    col = np.searchsorted(range_ids, op.phi.image)
    best, index = _sup_first_best(k, col, np.abs(op.psi.values[:m]), lambda first, s: s, -1.0)
    f = np.zeros(t.n_vertices)
    f[range_ids] = _digits(index, _LEVELS, k)
    return OracleResult(
        quantity="OpNormLinf",
        value=best,
        method="ExhaustiveSigns",
        search_size=n_patterns - (k == t.n_vertices),
        witness={"maximizer": dict(enumerate(f.tolist()))},
    )


def _states(start: np.ndarray, terms: np.ndarray, op) -> np.ndarray:
    """The states of the ``L**len(terms)`` patterns of the digits
    ``terms``, patterns on the last axis, by digit recursion: pattern
    ``d * P + i`` extends pattern i of the P before it by level d of the
    next digit, and its state is ``op`` of the two."""
    state = start
    for term in terms:
        state = op(state[..., None, :], term[..., :, None])
        state = state.reshape(*state.shape[:-2], -1)
    return state


def _first_best(terms: np.ndarray, op, start: np.ndarray, score, best: float):
    """Score every pattern of the ``L**k`` grid and return the largest
    score with the index of its pattern, or ``(best, None)`` when no
    pattern beats the given ``best``.

    Digit j of pattern i is ``i // L**j % L`` (least significant first).
    ``terms[j]`` holds, levels on its last axis, what each level of digit
    j adds to a pattern's state through ``op``, and ``start`` is the
    state of the empty pattern, whose patterns axis has length 1.  The
    states of the low digits, as many as give at most ``_CHUNK``
    patterns, are built once, and so are those of the high digits: block
    h holds the patterns ``h * size + r``, and its states are
    ``op(low, high[h])``.  ``score(first, states)`` turns a block's states
    into one score per pattern, ``first`` being the block's first index,
    and may overwrite them.  Ties keep the first pattern in a block, and a
    later block wins only when strictly better.
    """
    L = terms.shape[-1]
    lo = 0
    while lo < len(terms) and L ** (lo + 1) <= _CHUNK:
        lo += 1
    low = _states(start, terms[:lo], op)
    high = _states(start, terms[lo:], op)
    size = low.shape[-1]
    block = np.empty_like(low)
    best_index = None
    for h in range(high.shape[-1]):
        vals = score(h * size, op(low, high[..., h, None], out=block))
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, best_index = float(vals[i]), h * size + i
    return best, best_index


def _sup_first_best(k: int, col: np.ndarray, a_psi: np.ndarray, score, best: float):
    """``_first_best`` over the composed sup norms
    ``max_v a_psi[v] * |level of digit col[v]|`` of the ``3**k`` patterns
    of ``_LEVELS``, 0 with no vertex listed.  Digit c adds the largest
    ``a_psi`` over the vertices ``col`` sends to c, times ``|level|``:
    with ``|level|`` 0 or 1 this is exact."""
    a_max = np.zeros(k)
    np.maximum.at(a_max, col, a_psi)
    return _first_best(a_max[:, None] * np.abs(_LEVELS), np.maximum, np.zeros(1), score, best)


def _digits(index: int, levels: np.ndarray, k: int) -> np.ndarray:
    """Pattern ``index`` of the ``levels**k`` grid, as ``_first_best``
    orders it."""
    L = levels.size
    return levels[[index // L**j % L for j in range(k)]]


# -- the Lipschitz unit ball -----------------------------------------------------


def point_eval_lip_norm(
    tree: RootedTree, w: int, method: str = "exhaustive", seed: int = 0
) -> OracleResult:
    """sup { |f(w)| : lip-norm(f) <= 1 } by explicit search.

    "exhaustive" (alias "ascent") scores every extreme point of the unit
    ball that can move f(w), the constants and the 2**|w| sign patterns of
    the root-path increments of w; exact.  ``seed`` is unused.
    """
    w = tree.check_vertex(w)
    if method in ("exhaustive", "ascent"):
        return _point_eval_extreme(tree, w)
    raise ValueError(f"unknown method {method!r}")


def _point_eval_extreme(tree: RootedTree, w: int) -> OracleResult:
    k = tree.depth_of(w)
    if 2**k > MAX_PATTERNS:
        raise OracleSizeError(f"2**{k} sign patterns exceed the budget {MAX_PATTERNS}")
    edges = np.asarray(tree.root_path(w)[1:], dtype=np.int64)
    best, f, searched = _extreme_point_search(tree, edges, np.asarray([w]), np.ones(1))
    return OracleResult(
        quantity="PointEvalNormLip",
        value=best,
        method="ExtremePoints",
        search_size=searched,
        witness={
            "vertex": int(w),
            "maximizer": dict(enumerate(f.tolist())),
            "maximizer_lip_norm": _lip_norm_raw(tree, f),
        },
    )


def _extreme_point_search(
    tree: RootedTree, edges: np.ndarray, targets: np.ndarray, weights: np.ndarray
):
    """Largest ``max_i weights[i] * |f(targets[i])|`` over the extreme
    points of the Lipschitz unit ball whose increments vanish off
    ``edges``.

    In the coordinates ``(f(root), Df)`` the unit ball is the l1-sum of R
    and l_inf over the edges, so its extreme points are ``f = 1``,
    ``f = -1`` and, with ``f(root) = 0``, the sign patterns of the
    increments; a convex score peaks at one of them.  They are scored in
    that order, digit j of a pattern being the increment at ``edges[j]``,
    and a point replaces the best only when strictly better.  Returns
    ``(value, maximizer, points scored)``.
    """
    col = {e: j for j, e in enumerate(edges.tolist())}
    # incidence[i, j] is 1 when edges[j] lies on the root path of targets[i]
    incidence = np.zeros((targets.size, edges.size))
    for i, u in enumerate(targets.tolist()):
        for a in tree.root_path(u):
            if a in col:
                incidence[i, col[a]] = 1.0

    def score(first, values):
        values = np.abs(values, out=values)
        values *= weights[:, None]
        return values.max(axis=0, initial=0.0)

    # a pattern's state is its value at every target, a sum of increments
    # +-1 and so an exact integer.  Both constants score the largest weight
    terms = incidence.T[:, :, None] * _SIGNS
    start = np.zeros((targets.size, 1))
    best, index = _first_best(terms, np.add, start, score, float(weights.max(initial=0.0)))
    f = np.ones(tree.n_vertices)
    if index is not None:
        inc = np.zeros(tree.n_vertices)
        inc[edges] = _digits(index, _SIGNS, edges.size)
        # rebuild f layer by layer from its increments, with f(root) = 0
        f[0] = 0.0
        ends = tree.layer_offsets.tolist()
        for lo, hi in zip(ends[1:], ends[2:]):
            f[lo:hi] = f[tree.parent[lo:hi]] + inc[lo:hi]
    return best, f, 2 + 2**edges.size


def norm_oracle_lip(op: WeightedCompOp, method: str = "witness") -> OracleResult:
    """sup over unit Lipschitz f of max_v |psi(v)| * |f(phi(v))|.

    "witness" evaluates one unit-ball function at any size: with v* the
    first argmax of |psi(v)| * max(1, |phi(v)|), f = 1 when |phi(v*)| <= 1
    and otherwise f = min(|x|, |phi(v*)|), which is at most max(1, |x|)
    everywhere and equal to it at phi(v*).  "exhaustive" scores every
    extreme point of the unit ball on trees of at most
    ``MAX_EXHAUSTIVE_VERTICES_MAX`` vertices: no exchange of suprema and
    no point-evaluation bound.
    """
    t = op.tree
    m = op.phi.domain_size
    a_psi = np.abs(op.psi.values[:m])
    if method == "exhaustive":
        if t.n_vertices > MAX_EXHAUSTIVE_VERTICES_MAX:
            raise OracleSizeError(
                f"{t.n_vertices} vertices exceed the exhaustive cap "
                f"{MAX_EXHAUSTIVE_VERTICES_MAX}; use method='witness'"
            )
        best, f, searched = _extreme_point_search(
            t, np.arange(1, t.n_vertices), op.phi.image, a_psi
        )
        vals = a_psi * np.abs(f[op.phi.image])
        best_v = int(np.argmax(vals)) if best > 0.0 else None
        witness = {
            "maximizer": dict(enumerate(f.tolist())),
            "maximizer_lip_norm": _lip_norm_raw(t, f),
        }
        if best_v is not None:
            witness.update(vertex=best_v, target=int(op.phi.image[best_v]))
        return OracleResult(
            quantity="OpNormLip",
            value=best,
            method="ExtremePoints",
            search_size=searched,
            witness=witness,
            extra={"note": "every extreme point of the unit ball scored, no exchange"},
        )
    if method != "witness":
        raise ValueError(f"unknown method {method!r}")
    depth = t.depth[op.phi.image]
    d = int(depth[np.argmax(a_psi * np.maximum(1, depth))])
    if d <= 1:
        f, rule = np.ones(t.n_vertices), "f = 1"
    else:
        f, rule = np.minimum(t.depth, d).astype(np.float64), f"f = min(|x|, {d})"
    return _attained(op, "OpNormLip", f, _lip_norm_raw(t, f), rule)


# -- injectivity modulus upper bound ---------------------------------------------


def j_oracle_linf_bracket(op: WeightedCompOp, within_depth: int | None = None) -> OracleResult:
    """Certified upper bound on the injectivity modulus on the bounded
    functions: the minimum composed sup norm over unit functions valued in
    -1, 0, 1 (single-vertex indicators are among them), reported against
    the closed-form value.

    With ``within_depth`` the search runs over unit functions supported on
    the window, matching the windowed closed form.
    """
    t = op.tree
    limit = _window_depth(t, within_depth)
    lower = j_linf(op, limit)
    n_window = SelfMap.domain_size_for(t, limit)
    if not op.phi.coverage[:n_window].all():
        # the indicator of a vertex no image reaches composes to 0
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
    if n_window > MAX_EXHAUSTIVE_VERTICES_MIN:
        raise OracleSizeError(
            f"{n_window} window vertices exceed the min-search cap "
            f"{MAX_EXHAUSTIVE_VERTICES_MIN}"
        )
    # 3**12 patterns at the cap, well inside MAX_PATTERNS
    k = n_window
    # f vanishes off the window, so images outside it contribute zero
    in_window = op.phi.image < n_window
    a_psi = np.abs(op.psi.values[: op.phi.domain_size])[in_window]
    col = op.phi.image[in_window]
    # every digit the level 0: the one pattern that is no unit function
    zero = (3**k - 1) // 2

    def score(first, sups):
        # negated, so that the largest score is the smallest composed sup
        vals = np.negative(sups, out=sups)
        if first <= zero < first + vals.size:
            vals[zero - first] = -np.inf
        return vals

    neg_best, index = _sup_first_best(k, col, a_psi, score, -np.inf)
    best, best_pattern = -neg_best, _digits(index, _LEVELS, k)
    gap = best - lower
    if gap < -1e-9:
        raise RuntimeError(
            f"oracle upper bound {best} fell below the closed form {lower}"
        )
    return OracleResult(
        quantity="JLinfUpper",
        value=best,
        method="ExhaustiveSigns",
        search_size=3**k - 1,
        witness={"minimizer": dict(enumerate(best_pattern.tolist()))},
        extra={"formula_lower": lower, "gap": gap},
    )


# -- surjectivity infeasibility ----------------------------------------------------


def surjectivity_infeasibility(op: WeightedCompOp, g: VertexFunction) -> OracleResult:
    """Decide whether some Lipschitz unit-ball function maps onto g.

    The forced values F(phi(v)) = g(v) / psi(v) fix f on the range of the
    map.  With f(root) = c, McShane extension (Bull. AMS 40, 1934) gives
    the least Lipschitz norm of a preimage as
    |c| + max(L*, max_u |c - F(u)| / |u|), where L* is the largest
    pairwise quotient |F(u) - F(u')| / d(u, u') over the forced vertices.
    A forced root fixes c, and its quotients are among the pairs.
    Otherwise c = 0 is optimal: since |u| >= 1, moving c off 0 adds |c|
    and lowers each |c - F(u)| / |u| by at most |c|.  The verdict is
    "infeasible" exactly when that norm, reported as the witness
    ``preimage_lip_norm``, exceeds ``1 + _SURJ_TOL``, and "feasible"
    otherwise.

    L* is the largest quotient of an adjacent pair, one with no forced
    vertex strictly inside its path (``_max_quotient``).  The reported
    pair is the first maximal adjacent pair in (smaller id, larger id)
    order, and ``search_size`` counts the k(k-1)/2 pairs decided, not the
    ones scored.  The target must live on a tree shaped like the
    operator's codomain view.
    """
    t = op.tree
    cod = op.codomain_tree
    if g.tree is not cod and not np.array_equal(g.tree.parent, cod.parent):
        raise ValueError("target function must live on the operator's codomain view")
    if not op.phi.injective_on_domain:
        raise ValueError("forced-value inversion needs an injective map")

    m = op.phi.domain_size
    psi = op.psi.values[:m]
    vanish = np.abs(psi) <= _SURJ_TOL
    blocked = np.flatnonzero(vanish & (np.abs(g.values) > _SURJ_TOL))
    if blocked.size:
        return OracleResult(
            quantity="SurjInfeasibility",
            value=np.inf,
            method="IncrementBound",
            search_size=1,
            witness={
                "vertex": int(blocked[0]),
                "reason": "weight vanishes where the target is nonzero",
            },
            extra={"verdict": "infeasible"},
        )
    keys = op.phi.image[~vanish]
    order = np.argsort(keys)
    keys = keys[order]
    k = keys.size
    # a forced value past the float range is inf, and inf - inf a NaN
    # quotient, which never wins: the report says so, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        forced = (g.values[~vanish] / psi[~vanish])[order]
        best_q, best_pair, best_dist = _max_quotient(t, keys, forced)
    searched = k * (k - 1) // 2

    if k and keys[0] == 0:  # a forced root is keys[0], and c = F(root)
        norm = abs(float(forced[0])) + best_q
    else:  # c = 0, and each forced u adds the quotient |F(u)| / |u|
        norm = max(best_q, float((np.abs(forced) / t.depth[keys]).max(initial=0.0)))

    witness: dict = {
        "forced_values": dict(zip(keys.tolist(), forced.tolist())),
        "preimage_lip_norm": norm,
    }
    if best_pair is not None:
        witness.update(
            {
                "pair": best_pair,
                "pair_distance": best_dist,
                "quotient": best_q,
            }
        )
    extra = {
        "note": (
            "least preimage Lipschitz norm by McShane extension, root value 0 "
            "unless forced; exact"
        ),
        "verdict": "infeasible" if norm > 1.0 + _SURJ_TOL else "feasible",
    }
    return OracleResult(
        "SurjInfeasibility", best_q, "IncrementBound", searched, witness, extra
    )


def _max_quotient(t: RootedTree, keys: np.ndarray, forced: np.ndarray):
    """``(quotient, pair, distance)`` of the largest quotient
    |F(u) - F(u')| / d(u, u') over the adjacent pairs of the forced
    vertices ``keys`` (sorted ids) with values ``forced``, ``(0.0, None,
    0)`` when no quotient is positive.

    Adjacent pairs, with no forced vertex strictly inside their path, set
    the largest quotient over all pairs: a forced w inside splits
    d(u, u') = d(u, w) + d(w, u') and
    |F(u) - F(u')| <= |F(u) - F(w)| + |F(w) - F(u')|, so the mediant
    bounds q(u, u') by max(q(u, w), q(w, u')).  They join a forced vertex
    to its nearest forced proper ancestor, at their depth difference, or
    two forced vertices with the same top: the highest vertex of the root
    path below that ancestor (the root when there is none).  The reported
    pair is the first maximal one in (smaller id, larger id) order, and a
    NaN quotient (inf - inf) never wins.
    """
    k = keys.size
    is_forced = np.zeros(t.n_vertices, dtype=bool)
    is_forced[keys] = True
    # one step toward the root that stops below a forced vertex and at the
    # root; 2**r >= D steps take every vertex to its top
    up = np.where(is_forced[t.safe_parent], np.arange(t.n_vertices), t.safe_parent)
    for _ in range((int(t.depth_limit) - 1).bit_length()):
        up = up[up]
    top = up[keys]
    # a forced vertex and its nearest forced proper ancestor, the parent of
    # its top, at their depth difference; only the root's top group has no
    # such ancestor
    below = np.flatnonzero(top != 0)
    above = np.searchsorted(keys, t.safe_parent[top[below]])
    u, w = keys[above], keys[below]
    dist = t.depth[w] - t.depth[u]
    best = _first_max((0.0, 0, 0, 0), np.abs(forced[below] - forced[above]) / dist, dist, u, w)
    # every pair of a top group: position r of the grouped order pairs with
    # the later positions of its group, and pair p of all rows, in row r,
    # joins r with r + 1 + p - starts[r].  The sort is stable, so ids rise
    # within a group.  Blocks of whole rows bound the memory
    grouped = np.argsort(top, kind="stable")
    gkeys, gforced, tops = keys[grouped], forced[grouped], top[grouped]
    later = np.searchsorted(tops, tops, side="right") - np.arange(1, k + 1)
    ends = np.cumsum(later)
    starts = ends - later
    shift = np.arange(1, k + 1) - starts
    r0 = 0
    while r0 < k and starts[r0] < ends[-1]:
        r1 = max(r0 + 1, int(np.searchsorted(ends, starts[r0] + _PAIR_BLOCK, side="right")))
        row = slice(r0, r1)
        s = np.arange(starts[r0], ends[r1 - 1])
        s += np.repeat(shift[row], later[row])
        u, w = np.repeat(gkeys[row], later[row]), gkeys[s]
        dist = t.distances(u, w)
        q = np.abs(gforced[s] - np.repeat(gforced[row], later[row])) / dist
        best = _first_max(best, q, dist, u, w)
        r0 = r1
    q, u, w, d = best
    return q, ([u, w] if q > 0.0 else None), d


def _first_max(best: tuple, q: np.ndarray, dist: np.ndarray, u: np.ndarray, w: np.ndarray):
    """``best``, a ``(quotient, u, w, distance)`` with ids u < w, or the
    first maximal quotient ``q`` of the pairs ``u < w`` in (u, w) order
    when it is larger, or equal and earlier.  A NaN quotient never wins."""
    m = float(np.fmax.reduce(q, initial=0.0))
    if m == 0.0 or m < best[0]:
        return best
    hit = np.flatnonzero(q == m)
    h = hit[np.lexsort((w[hit], u[hit]))[0]]
    cand = (m, int(u[h]), int(w[h]), int(dist[h]))
    return cand if m > best[0] or cand[1:3] < best[1:3] else best
