"""Every certificate: boundedness, compactness, isometry, and bounded-below.

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
one settable threshold; the isometry checks count a preimage sup within
the fixed ``ISOMETRY_TOL`` of 1 as 1.

Every profile is a read of rows the operator caches once (see
``operators``): Bounded reads ``head_sups`` at the schedule depths, Compact
reads ``tail_sups``, and ``Linf.Isometry`` reads ``preimage_inf`` down to
the window.  The witnesses are row reads too (``preimage_argmin``,
``first_off_one``), so a classification scans no vertex array.
"""

from __future__ import annotations

import operator

import numpy as np

from .certificate import (
    FAILS,
    HOLDS,
    TREND_CONSISTENT,
    TREND_INCONSISTENT,
    Certificate,
    _NO_ROWS,
    _Rows,
)
from .operators import (
    ISOMETRY_TOL,
    STABILITY_MARGIN,
    SelfMap,
    WeightedCompOp,
    _finite,
    _integer,
    _window_depth,
    linf_op_norm,
    lip_bounds,
)

__all__ = [
    "default_schedule",
    "classify_operator",
    "seven_equivalences",
    "isometry_check_linf",
    "isometry_check_lip",
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
    sched = tuple(_integer(d, "schedule depth") for d in schedule)
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
    between the two spaces.  A ``zero_tol`` other than a finite number >= 0
    (a bool, NaN, a non-number) is refused with a ValueError."""
    if _finite(zero_tol) is None or zero_tol < 0:
        raise ValueError(f"zero_tol must be a finite number >= 0, got {zero_tol}")
    t = op.tree
    if schedule is None:
        schedule = default_schedule(t.depth_limit)
    sched = _check_schedule(schedule, t.depth_limit)
    depths = np.array(sched)
    # one row per space, one column per schedule depth; a depth past the
    # domain reads the domain's last row
    heads = op.head_sups[np.minimum(depths, op.phi.domain_depth)].T
    tails = op.tail_sups[depths - 1].T
    # read-only, so the profiles hold their rows without a view of their own
    heads.flags.writeable = tails.flags.writeable = False
    stable = op.phi.finite_range_stable()
    window = _window_depth(t, window_depth)
    # the trend certificates print the window as given: null by default
    shown = None if window_depth is None else window
    # the vertex deciding the inf-sup of j_linf: an uncovered vertex holds
    # -inf, the least value, so the first one is named
    w = int(op.preimage_argmin[window])
    s = float(op.preimage_sup[w])
    j = max(s, 0.0)
    if s == -np.inf:
        below = {"vertex": w, "reason": "no preimage in the window"}
    else:
        below = {"vertex": w, "preimage_sup": s}
    lo, up = lip_bounds(op)  # the lower end is the exact norm
    # per space: the norm witnesses, the isometry certificates (the
    # Lipschitz witness is a vertex deeper than 1) and the modulus with its
    # witnesses (the Lipschitz one is j_lip_bracket's (M/3, M))
    spaces = (
        ("Linf", {"sup_psi": linf_op_norm(op)}, (_isometry_linf(op, window),),
         j, {"injectivity_modulus": j}),
        ("Lip", {"lower_bound": lo, "upper_bound": up, "exact_norm": lo},
         (_no_isometry_lip(op, window),) if t.depth_limit >= 2 else (),
         j / 3.0, {"bracket": [j / 3.0, j]}),
    )
    # per space: the sups over depth <= d that decide Bounded and the tail,
    # as the profiles' arrays and as the floats the verdicts read
    profiles = zip(heads, tails, heads.tolist(), tails.tolist())
    out = {}
    for space, (bounded_row, tail_row, bounded_vals, tail_vals) in zip(spaces, profiles):
        prefix, norms, isometry, modulus, modulus_witnesses = space
        bounded_text, compact_text, below_text = _CRITERIA[prefix]
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
                depth_profile=_Rows(sched, bounded_row),
                window_depth=shown,
            ),
            Certificate(
                statement=f"{prefix}.Compact",
                verdict=verdict,
                criterion=compact_text,
                witnesses=witnesses,
                depth_profile=_Rows(sched, tail_row),
                window_depth=shown,
            ),
            *isometry,
            Certificate(
                statement=f"{prefix}.BoundedBelow",
                verdict=HOLDS if modulus > 0 else FAILS,
                criterion=below_text,
                witnesses={**modulus_witnesses, **below},
                depth_profile=_NO_ROWS,
                window_depth=window,
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
        depth_profile=_Rows(range(reach.size), reach.astype(np.float64)),
    )


# -- isometry certificates ------------------------------------------------------


def isometry_check_linf(op: WeightedCompOp, within_depth: int | None = None) -> Certificate:
    """Isometry on the bounded functions: every window vertex must be
    covered and have preimage sup of |psi| equal to 1."""
    return _isometry_linf(op, _window_depth(op.tree, within_depth))


def isometry_check_lip(op: WeightedCompOp, within_depth: int | None = None) -> Certificate:
    """No operator from the Lipschitz space to the bounded functions is an
    isometry; always returns Holds with an explicit witness."""
    if op.tree.depth_limit < 2:
        raise IndexError("need a vertex deeper than 1 to exhibit the witness")
    return _no_isometry_lip(op, _window_depth(op.tree, within_depth))


def _isometry_linf(op: WeightedCompOp, window: int) -> Certificate:
    """``Linf.Isometry`` on the window of depth ``window``."""
    criterion = (
        "isometry on the bounded functions iff the map covers every vertex "
        "and sup of |psi| over each preimage equals 1"
    )
    w = op.first_off_one
    failed = bool(w < op.tree.layer_offsets[window + 1])
    witnesses = {"window_depth": window}
    if failed:
        s = float(op.preimage_sup[w])
        reason = (
            "vertex has no preimage in the window"
            if s == -np.inf
            else f"preimage sup of |psi| is {s:.12g}, not 1"
        )
        witnesses.update({"vertex": w, "reason": reason})
    return Certificate(
        statement="Linf.Isometry",
        verdict=FAILS if failed else HOLDS,
        criterion=criterion,
        witnesses=witnesses,
        depth_profile=_Rows(range(window + 1), op.preimage_inf[: window + 1]),
        window_depth=window,
    )


def _no_isometry_lip(op: WeightedCompOp, window: int) -> Certificate:
    """``Lip.NoIsometry`` on a tree of depth >= 2, witnessed by the window's
    first uncovered vertex, if any, else the first vertex of depth 2."""
    t = op.tree
    criterion = (
        "never an isometry from the Lipschitz space to the bounded "
        "functions: an uncovered vertex kills a unit indicator, and a "
        "covered vertex deeper than 1 forces operator norm above 1"
    )
    w = int(op.preimage_argmin[window])
    if op.preimage_sup[w] != -np.inf:
        w = int(t.layer_offsets[2])
    s = float(op.preimage_sup[w])
    witnesses: dict = {"window_depth": window, "vertex": w}
    if s == -np.inf:
        witnesses["reason"] = "no preimage: the unit indicator at this vertex maps to 0"
    elif abs(s - 1.0) > ISOMETRY_TOL:
        witnesses["reason"] = f"image of the unit indicator has sup norm {s:.12g}, not 1"
    else:
        bound = t.depth_of(w) * s
        witnesses["reason"] = (
            "an isometry would have norm 1, but the lower bound "
            f"|w| * preimage sup = {bound:.12g} exceeds 1"
        )
        witnesses["lower_bound"] = bound
    return Certificate("Lip.NoIsometry", HOLDS, criterion, witnesses, _NO_ROWS, window)
