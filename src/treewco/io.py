"""JSON schemas, canonical serialization, and fixture reports.

All reports are byte-stable: keys sorted, floats rendered at 12
significant digits, no timestamps or absolute paths.  Spec loading errors
carry a JSON-pointer-style location so the CLI can print line-precise
messages.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from importlib import resources
from pathlib import Path

import numpy as np

from .classify import Fixture, TrendConfig, classify_operator
from .functions import (
    VertexFunction,
    depth_cap,
    indicator,
    ramp_function,
    sector_indicator,
)
from .operators import (
    SelfMap,
    WeightedCompOp,
    constant_map,
    identity_map,
    j_linf,
    j_lip_bracket,
    k_linf,
    k_lip_bracket,
    linf_ess_norm_profile,
    linf_op_norm,
    lip_bounds,
    lip_exact_norm,
    lip_ess_norm_profile,
    map_from_table,
    tail_trend_slope,
    zline_double,
    zline_fold,
)
from .oracle import surjectivity_infeasibility
from .trees import RootedTree, explicit_tree, homogeneous, random_tree, zline

__all__ = [
    "SpecError",
    "canonical_json",
    "load_tree_spec",
    "load_function_spec",
    "load_map_spec",
    "load_specs",
    "tree_to_spec",
    "golden_dir",
    "fixture_report",
]

SCHEMA_VERSION = 1


class SpecError(ValueError):
    """A spec file violated its schema; ``pointer`` locates the field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


# -- canonical serialization ---------------------------------------------------


def _canonize(obj):
    if isinstance(obj, dict):
        return {str(k): _canonize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonize(v) for v in obj]
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if not math.isfinite(x):
            return repr(x)
        return float(f"{x:.12g}")
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_canonize(obj), sort_keys=True, indent=2) + "\n"


# -- spec loading ----------------------------------------------------------------


def _require(d: dict, key: str, pointer: str):
    if key not in d:
        raise SpecError(f"{pointer}.{key}", "missing required field")
    return d[key]


def _int(d: dict, key: str, pointer: str, default: int | None = None) -> int:
    """An integer field (JSON booleans and floats rejected)."""
    value = d.get(key, default) if default is not None else _require(d, key, pointer)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SpecError(f"{pointer}.{key}", f"expected an integer, got {value!r}")
    return int(value)


def _real(d: dict, key: str, pointer: str) -> float:
    value = _require(d, key, pointer)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SpecError(f"{pointer}.{key}", f"expected a number, got {value!r}")
    return float(value)


def load_tree_spec(spec: dict, pointer: str = "tree") -> RootedTree:
    family = _require(spec, "family", pointer)
    if family == "zline":
        return zline(_int(spec, "depth", pointer))
    if family == "homogeneous":
        return homogeneous(_int(spec, "q", pointer), _int(spec, "depth", pointer))
    if family == "random":
        return random_tree(
            _int(spec, "depth", pointer),
            _int(spec, "seed", pointer),
            _int(spec, "min_children", pointer, 1),
            _int(spec, "max_children", pointer, 3),
        )
    if family == "explicit":
        edges = _require(spec, "edges", pointer)
        root = _require(spec, "root", pointer)
        depth = _int(spec, "depth", pointer) if spec.get("depth") is not None else None
        try:
            return explicit_tree(edges, root, depth)
        except (ValueError, TypeError) as exc:
            raise SpecError(f"{pointer}.edges", str(exc)) from exc
    raise SpecError(f"{pointer}.family", f"unknown family {family!r}")


def load_function_spec(
    spec: dict, tree: RootedTree, pointer: str = "psi"
) -> VertexFunction:
    kind = _require(spec, "kind", pointer)
    if kind == "table":
        table = _require(spec, "values", pointer)
        vals = np.zeros(tree.n_vertices)
        seen = np.zeros(tree.n_vertices, dtype=bool)
        for k, v in table.items():
            try:
                vid = tree.check_vertex(int(k))
            except (KeyError, ValueError) as exc:
                raise SpecError(f"{pointer}.values.{k}", str(exc)) from exc
            if not isinstance(v, (int, float)) or not math.isfinite(float(v)):
                raise SpecError(f"{pointer}.values.{k}", "value must be finite")
            vals[vid] = float(v)
            seen[vid] = True
        if not seen.all():
            missing = int(np.where(~seen)[0][0])
            raise SpecError(
                f"{pointer}.values", f"table is partial: vertex {missing} missing"
            )
        return VertexFunction(tree, vals)
    if kind == "builtin":
        name = _require(spec, "name", pointer)
        params = spec.get("params", {})
        try:
            if name == "F_N":
                return depth_cap(tree, _int(params, "cap", f"{pointer}.params"))
            if name == "g":
                return ramp_function(
                    tree,
                    _int(params, "n", f"{pointer}.params"),
                    _real(params, "r", f"{pointer}.params"),
                )
            if name == "chi":
                return indicator(tree, _int(params, "vertex", f"{pointer}.params"))
            if name == "eta":
                return sector_indicator(tree, _int(params, "vertex", f"{pointer}.params"))
        except (ValueError, IndexError, KeyError) as exc:
            if isinstance(exc, SpecError):
                raise
            raise SpecError(f"{pointer}.params", str(exc)) from exc
        raise SpecError(f"{pointer}.name", f"unknown builtin {name!r}")
    raise SpecError(f"{pointer}.kind", f"unknown kind {kind!r}")


def load_map_spec(spec: dict, tree: RootedTree, pointer: str = "phi") -> SelfMap:
    kind = _require(spec, "kind", pointer)
    if kind == "table":
        table = _require(spec, "map", pointer)
        try:
            converted = {int(k): int(v) for k, v in table.items()}
            return map_from_table(tree, converted)
        except (ValueError, KeyError, TypeError) as exc:
            raise SpecError(f"{pointer}.map", str(exc)) from exc
    if kind == "builtin":
        name = _require(spec, "name", pointer)
        params = spec.get("params", {})
        try:
            if name == "identity":
                return identity_map(tree)
            if name == "constant":
                return constant_map(tree, _int(params, "target", f"{pointer}.params"))
            if name == "zfold":
                return zline_fold(tree)
            if name == "double":
                return zline_double(tree)
        except (ValueError, KeyError) as exc:
            if isinstance(exc, SpecError):
                raise
            raise SpecError(f"{pointer}.params", str(exc)) from exc
        raise SpecError(f"{pointer}.name", f"unknown builtin {name!r}")
    raise SpecError(f"{pointer}.kind", f"unknown kind {kind!r}")


def load_specs(tree_path, psi_path, phi_path):
    """Load and cross-validate the three spec files."""
    tree = load_tree_spec(_read_json(tree_path), "tree")
    psi = load_function_spec(_read_json(psi_path), tree, "psi")
    phi = load_map_spec(_read_json(phi_path), tree, "phi")
    return tree, psi, phi


def _read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(str(path), f"invalid JSON: {exc}") from exc


def tree_to_spec(tree: RootedTree) -> dict:
    if tree.family == "zline":
        return {"schema": SCHEMA_VERSION, "family": "zline", "depth": tree.depth_limit}
    if tree.family == "homogeneous":
        return {
            "schema": SCHEMA_VERSION,
            "family": "homogeneous",
            "q": tree.meta["q"],
            "depth": tree.depth_limit,
        }
    if tree.family == "random":
        return {
            "schema": SCHEMA_VERSION,
            "family": "random",
            "depth": tree.depth_limit,
            **{k: tree.meta[k] for k in ("seed", "min_children", "max_children")},
        }
    edges = [
        [tree.label_of(int(tree.parent[v])), tree.label_of(v)]
        for v in range(1, tree.n_vertices)
    ]
    return {
        "schema": SCHEMA_VERSION,
        "family": "explicit",
        "edges": edges,
        "root": tree.label_of(0),
        "depth": tree.depth_limit,
    }


# -- fixture reports ---------------------------------------------------------------


def golden_dir() -> Path:
    env = os.environ.get("TREEWCO_GOLDEN_DIR")
    if env:
        return Path(env)
    return Path(resources.files("treewco") / "golden")


def operator_quantities(op: WeightedCompOp, window_depth: int | None = None) -> dict:
    lo, up = lip_bounds(op)
    jlo, jup = j_lip_bracket(op, window_depth)
    klo, kup = k_lip_bracket(op)
    linf_tail = linf_ess_norm_profile(op)
    lip_tail = lip_ess_norm_profile(op)
    return {
        "linf_op_norm": linf_op_norm(op),
        "linf_ess_tail": [[n, v] for n, v in linf_tail],
        "linf_ess_tail_slope": tail_trend_slope(linf_tail),
        "lip_lower_bound": lo,
        "lip_upper_bound": up,
        "lip_exact_norm": lip_exact_norm(op),
        "lip_ess_tail": [[n, v] for n, v in lip_tail],
        "lip_ess_tail_slope": tail_trend_slope(lip_tail),
        "j_linf": j_linf(op, window_depth),
        "k_linf": k_linf(op),
        "j_lip_bracket": [jlo, jup],
        "k_lip_bracket": [klo, kup],
        "map_injective": op.phi.injective_on_domain,
        "map_surjective_on_truncation": op.phi.surjective_on_truncation,
        "map_domain_depth": op.phi.domain_depth,
    }


def fixture_report(fx: Fixture, depth: int | None = None, config: TrendConfig | None = None) -> dict:
    """Full deterministic report for one bundled fixture."""
    depth = depth or fx.depth
    op = fx.build(depth)
    window = fx.window_for(depth)
    certs = classify_operator(op, window_depth=window, config=config)
    report = {
        "schema": SCHEMA_VERSION,
        "fixture": fx.name,
        "description": fx.description,
        "depth": depth,
        "window_depth": window,
        "tree": tree_to_spec(op.tree),
        "certificates": [
            c.to_json() for c in certs["linf"] + certs["lip"]
        ],
        "quantities": operator_quantities(op, window),
        "expected": dict(sorted(fx.expected.items())),
        "notes": list(fx.notes),
    }
    if fx.name == "bounded-not-compact":
        sq = WeightedCompOp(
            VertexFunction(op.tree, op.psi.values**2), op.phi
        )
        from .classify import classify_lip

        sq_certs = classify_lip(sq, window_depth=window, config=config)
        report["squared_weight"] = {
            "lip_ess_tail": [[n, v] for n, v in lip_ess_norm_profile(sq)],
            "compact_certificate": next(
                c.to_json() for c in sq_certs if c.statement == "Lip.Compact"
            ),
        }
    if fx.name == "not-surjective-2n":
        cod = op.codomain_tree
        g_vals = np.asarray(
            [1.0 if int(cod.label_of(v)) % 2 == 0 else -1.0 for v in range(cod.n_vertices)]
        )
        res = surjectivity_infeasibility(op, VertexFunction(cod, g_vals))
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
