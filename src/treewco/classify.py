"""Certificates for boundedness, compactness, isometry, and bounded-below.

Verdict discipline: a statement the finite window genuinely decides
(isometry inside a stated window, coverage by the stored map) gets
Holds/Fails with a witness; statements about limits get TrendConsistent or
TrendInconsistent, judged on the last three entries of a depth schedule.
The default schedule is geometric (1, 2, 4, ..., N) so that slow algebraic
tails are still visible as decay across schedule points.

A tail decays when its last schedule value is below ``zero_tol`` or two
schedule points earlier it was at least ``_DECAY_FACTOR`` times as large;
a profile stays bounded when its last value is at most ``_GROWTH_FACTOR``
times the larger of the one before and ``zero_tol``.  ``zero_tol`` is the
one settable threshold.
"""

from __future__ import annotations

import numbers
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .certificate import (
    FAILS,
    HOLDS,
    TREND_CONSISTENT,
    TREND_INCONSISTENT,
    Certificate,
    _Rows,
)
from .functions import VertexFunction
from .operators import (
    STABILITY_MARGIN,
    SelfMap,
    WeightedCompOp,
    identity_map,
    isometry_check_linf,
    isometry_check_lip,
    linf_op_norm,
    lip_bounds,
    lip_ess_norm_profile,
    window_preimage_sup,
    zline_double,
    zline_fold,
)
from .oracle import surjectivity_infeasibility
from .trees import zline

__all__ = [
    "default_schedule",
    "classify_operator",
    "seven_equivalences",
    "Fixture",
    "bundled_fixtures",
    "fixture_by_name",
]


_DECAY_FACTOR = 1.5
_GROWTH_FACTOR = 1.05


def default_schedule(depth_limit: int) -> tuple:
    """Geometric depths 1, 2, 4, ... capped and topped off with N."""
    out = []
    d = 1
    while d < depth_limit:
        out.append(d)
        d *= 2
    if depth_limit >= 1:
        out.append(depth_limit)
    return tuple(out)


def _check_schedule(schedule, depth_limit: int) -> tuple:
    """``schedule`` as a tuple of ints: integers (not booleans), non-empty,
    within 1..N and strictly increasing; a ValueError otherwise."""
    if depth_limit < 1:
        raise ValueError(
            f"classification needs a tree of depth >= 1, got depth {depth_limit}"
        )
    sched = tuple(schedule)
    for d in sched:
        if isinstance(d, bool) or not isinstance(d, numbers.Integral):
            raise ValueError(f"schedule depths must be integers, got {d!r}")
    sched = tuple(map(int, sched))
    if not sched or min(sched) < 1 or max(sched) > depth_limit:
        raise ValueError(f"schedule must be within 1..{depth_limit}")
    # the trend proxies read the last entries as the deepest ones
    if any(map(operator.ge, sched, sched[1:])):
        raise ValueError(f"schedule depths must be strictly increasing, got {list(sched)}")
    return sched


def _decays(values, zero_tol: float) -> bool:
    tail = list(values)[-3:]
    if tail[-1] < zero_tol:
        return True
    if len(tail) < 3:
        return False
    return tail[0] >= _DECAY_FACTOR * tail[-1]


def _stays_bounded(values, zero_tol: float) -> bool:
    tail = list(values)[-2:]
    if len(tail) < 2:
        return True
    return tail[-1] <= _GROWTH_FACTOR * max(tail[0], zero_tol)


# the criterion texts of Bounded, Compact and BoundedBelow per space
_CRITERIA = {
    "Linf": (
        "bounded on the bounded functions iff the weight is bounded; the operator "
        "norm equals sup |psi|",
        "compact on the bounded functions iff the map has finite range or |psi(v)| "
        "tends to 0 whenever |phi(v)| grows; the essential norm is the tail limit of sup |psi|",
        "bounded below on the bounded functions iff the map covers every vertex and the "
        "smallest preimage sup of |psi| is positive",
    ),
    "Lip": (
        "bounded from the Lipschitz space iff sup |psi(v)|(1+|phi(v)|) is finite; the norm "
        "lies between max(sup|psi|, sup|psi||phi|) and sup |psi|(1+|phi|)",
        "compact from the Lipschitz space iff |psi(v)||phi(v)| tends to 0 whenever |phi(v)| "
        "grows; the essential norm is the tail limit of sup |psi||phi|",
        "bounded below from the Lipschitz space iff the map covers every vertex and M = "
        "inf-sup of |psi| over preimages is positive; the modulus lies in [M/3, M]",
    ),
}


def classify_operator(
    op: WeightedCompOp,
    schedule=None,
    window_depth: int | None = None,
    zero_tol: float = 1e-6,
) -> dict:
    """``{"linf": [...], "lip": [...]}``: the Bounded, Compact, Isometry
    (the Lipschitz one on a tree of depth >= 2) and BoundedBelow
    certificates for the operator on the bounded functions and from the
    Lipschitz space, written by one loop over the data that differs
    between the two spaces."""
    t = op.tree
    if schedule is None:
        schedule = default_schedule(t.depth_limit)
    sched = _check_schedule(schedule, t.depth_limit)
    depths = np.array(sched)
    # breadth-first ids make the domain depth-sorted; a depth past the
    # domain reads its last id
    ends = np.minimum(t.layer_offsets[depths + 1], op.phi.domain_size) - 1
    linf_tails, lip_tails = op.tail_sups[depths - 1].T.tolist()
    stable = op.phi.finite_range_stable()
    # the vertex deciding the inf-sup of j_linf: an uncovered vertex holds
    # -inf, the least value, so argmin finds the first one
    sup = window_preimage_sup(op, window_depth)
    w = int(sup.argmin())
    j = max(float(sup[w]), 0.0)
    if sup[w] == -np.inf:
        below = {"vertex": w, "reason": "no preimage in the window"}
    else:
        below = {"vertex": w, "preimage_sup": float(sup[w])}
    lo, up = lip_bounds(op)  # the lower end is the exact norm
    # per space: the reach whose prefix sup decides Bounded, the tail,
    # the norm witnesses, the isometry certificates (the Lipschitz witness
    # is a vertex deeper than 1) and the modulus with its witnesses (the
    # Lipschitz one is j_lip_bracket's (M/3, M))
    spaces = (
        ("Linf", op.abs_psi_on_domain, linf_tails, {"sup_psi": linf_op_norm(op)},
         (isometry_check_linf(op, window_depth),), j, {"injectivity_modulus": j}),
        ("Lip", op.reach, lip_tails, {"lower_bound": lo, "upper_bound": up, "exact_norm": lo},
         (isometry_check_lip(op, window_depth),) if t.depth_limit >= 2 else (),
         j / 3.0, {"bracket": [j / 3.0, j]}),
    )
    out = {}
    for prefix, reach, tail_vals, norms, isometry, modulus, modulus_witnesses in spaces:
        bounded_text, compact_text, below_text = _CRITERIA[prefix]
        # sup of the reach over the domain vertices of depth <= d
        bounded_vals = np.maximum.accumulate(reach)[ends].tolist()
        if stable:
            verdict = HOLDS
            witnesses = {
                "finite_range_max_depth": int(op.phi._range_max[-1]),
                "reason": "map range stabilized strictly inside the window",
            }
        else:
            verdict = TREND_CONSISTENT if _decays(tail_vals, zero_tol) else TREND_INCONSISTENT
            witnesses = {"final_tail": tail_vals[-1]}
        out[prefix.lower()] = [
            Certificate(
                statement=f"{prefix}.Bounded",
                verdict=TREND_CONSISTENT if _stays_bounded(bounded_vals, zero_tol) else TREND_INCONSISTENT,
                criterion=bounded_text,
                witnesses=norms,
                depth_profile=_Rows(map(list, zip(sched, bounded_vals))),
                window_depth=window_depth,
            ),
            Certificate(
                statement=f"{prefix}.Compact",
                verdict=verdict,
                criterion=compact_text,
                witnesses=witnesses,
                depth_profile=_Rows(map(list, zip(sched, tail_vals))),
                window_depth=window_depth,
            ),
            *isometry,
            Certificate(
                statement=f"{prefix}.BoundedBelow",
                verdict=HOLDS if modulus > 0 else FAILS,
                criterion=below_text,
                witnesses={**modulus_witnesses, **below},
                depth_profile=_Rows(),
                window_depth=window_depth if window_depth is not None else t.depth_limit,
            ),
        ]
    return out


def seven_equivalences(phi: SelfMap) -> Certificate:
    """For unit weight, the bounded/compact statements across both spaces
    all reduce to the map having finite range; evaluates the items from
    three data (a vanishing tail sup, the reach within the window, range
    stability): Holds or Fails when they agree, TrendInconsistent when the
    window leaves them apart.  A stabilized range makes all three true."""
    t = phi.tree
    reach = phi._range_max
    max_reach = int(reach[-1])
    inside = t.depth_limit - STABILITY_MARGIN

    small_reach = max_reach <= inside
    stable = phi.finite_range_stable()
    # some tail depth n <= inside (and < N) where the tail sup is already 0:
    # under unit weight both tail sups at n vanish exactly when no image
    # lies deeper than n, and n <= max(inside, 0) < N once N >= 1
    tail_zero = t.depth_limit >= 1 and max_reach <= max(inside, 0)
    items = {
        "lip_bounded": tail_zero,
        "lip0_bounded": tail_zero,
        "linf_compact": tail_zero,
        "lip_compact": tail_zero,
        "lip0_compact": tail_zero,
        "lip_to_lip_compact": small_reach,
        "finite_range": stable,
    }
    if len(set(items.values())) == 1:
        verdict = HOLDS if stable else FAILS
    else:
        verdict = TREND_INCONSISTENT
    return Certificate(
        statement="Cphi.SevenEquivalences",
        verdict=verdict,
        criterion=(
            "for unit weight these agree: bounded or compact from the "
            "Lipschitz spaces to the bounded functions, compact on the "
            "bounded functions, compact on the Lipschitz space, and finite "
            "range of the map"
        ),
        witnesses={"items": items, "max_reach": max_reach},
        depth_profile=_Rows(map(list, enumerate(reach.astype(np.float64).tolist()))),
    )


# -- bundled fixtures -------------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    """A named, fully reproducible operator on ``zline(depth)`` with expected
    verdicts; ``extra`` adds the report sections only this fixture has."""

    name: str
    depth: int
    window_depth: int | None
    description: str
    weight: Callable  # integer labels -> weight values
    map: Callable  # tree -> SelfMap
    expected: dict
    notes: tuple = ()
    extra: Callable | None = None  # (op, window) -> dict

    def build(self, depth: int | None = None) -> WeightedCompOp:
        t = zline(self.depth if depth is None else depth)
        return WeightedCompOp(VertexFunction(t, self.weight(np.asarray(t.labels))), self.map(t))

    def window_for(self, depth: int) -> int | None:
        """``window_depth`` scaled from the fixture's own depth to ``depth``."""
        return None if self.window_depth is None else self.window_depth * depth // self.depth


def _squared_weight(op: WeightedCompOp, window: int | None) -> dict:
    """The Lipschitz tail and compactness certificate of the squared weight."""
    sq = WeightedCompOp(VertexFunction(op.tree, op.psi.values**2), op.phi)
    _, compact, *_ = classify_operator(sq, window_depth=window)["lip"]
    return {
        "squared_weight": {
            "lip_ess_tail": _Rows(map(list, lip_ess_norm_profile(sq))),
            "compact_certificate": compact.to_json(),
        }
    }


def _alternating_target(op: WeightedCompOp, window: int | None) -> dict:
    """The alternating target no preimage reaches, and the weighted-reach
    infimum that stays positive all the same."""
    cod = op.codomain_tree
    target = np.where(np.asarray(cod.labels) % 2 == 0, 1.0, -1.0)
    res = surjectivity_infeasibility(op, VertexFunction(cod, target))
    return {
        "infeasibility": res.to_json(),
        "weighted_reach_infimum": {
            "value": float(op.reach.min()),
            "vertex_label": int(op.tree.labels[np.argmin(op.reach)]),
            "reference_value": 2.0,
            "discrepancy": (
                "computed value 1 at n = 0 differs from the reference value 2; "
                "the reference infimum ignores the root term"
            ),
        },
    }


def bundled_fixtures() -> list[Fixture]:
    return [
        Fixture(
            name="z-isometry",
            depth=8,
            window_depth=4,
            description=(
                "folding map on the integer line with a 0/1 weight killing "
                "odd negatives: an isometry on the bounded functions"
            ),
            weight=lambda n: np.where((n < 0) & (n % 2 != 0), 0.0, 1.0),
            map=zline_fold,
            expected={
                "Linf.Isometry": HOLDS,
                "Linf.BoundedBelow": HOLDS,
                "Lip.NoIsometry": HOLDS,
            },
        ),
        Fixture(
            name="bounded-not-compact",
            depth=16,
            window_depth=None,
            description=(
                "identity map with weight 1/(1+|v|): bounded from the "
                "Lipschitz space with tail climbing toward 1, so never "
                "compact; the squared weight is compact"
            ),
            weight=lambda n: 1.0 / (1.0 + np.abs(n)),
            map=identity_map,
            expected={
                "Lip.Bounded": TREND_CONSISTENT,
                "Lip.Compact": TREND_INCONSISTENT,
            },
            extra=_squared_weight,
        ),
        Fixture(
            name="not-surjective-2n",
            depth=8,
            window_depth=4,
            description=(
                "doubling map with weight 1/n (1 at the root): the weighted "
                "reach inf |psi|(1+|phi|) stays positive yet the operator is "
                "not onto, witnessed by an alternating target"
            ),
            weight=lambda n: np.where(n == 0, 1.0, 1.0 / np.where(n == 0, 1, n)),
            map=zline_double,
            expected={"Lip.BoundedBelow": FAILS},
            notes=(
                "computed inf |psi(n)|(1+|phi(n)|) is 1, attained at n = 0; "
                "a reference value of 2 is sometimes quoted for this example "
                "(the infimum over n != 0 only); the surjectivity failure is "
                "unaffected by the discrepancy",
            ),
            extra=_alternating_target,
        ),
    ]


def fixture_by_name(name: str) -> Fixture:
    fixtures = {fx.name: fx for fx in bundled_fixtures()}
    if name not in fixtures:
        raise KeyError(f"unknown fixture {name!r}")
    return fixtures[name]
