"""Command-line entry points.

Modes: analyze (certificates), norms (weight norms plus operator
quantities), oracle (brute-force cross-check of the closed forms),
examples (run bundled fixtures and diff against golden reports), export
(DOT of the tree with the self-map overlaid).  Each mode accepts only
the flags it reads (``_MODES``).  Exit codes: 0 success, 1 spec error,
2 fixture drift or an argparse usage error, such as a flag the mode does
not read.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .certificate import _Rows
from .classify import (
    _check_schedule,
    classify_operator,
    seven_equivalences,
)
from .functions import norms, random_function
from .io import (
    SCHEMA_VERSION,
    SpecError,
    bundled_fixtures,
    canonical_json,
    fixture_report,
    golden_dir,
    load_specs,
    operator_quantities,
)
from .operators import (
    WeightedCompOp,
    linf_op_norm,
    lip_bounds,
    random_map,
)
from .oracle import (
    OracleSizeError,
    norm_oracle_linf,
    norm_oracle_lip,
)


_FLAGS = {
    "tree": {"help": "tree spec JSON path"},
    "psi": {"help": "weight spec JSON path"},
    "phi": {"help": "self-map spec JSON path"},
    "depths": {"help": "comma-separated depth schedule"},
    "window": {"type": int, "default": None, "help": "window depth for coverage checks"},
    "tol": {"type": float, "default": 1e-6, "help": "trend zero tolerance"},
    "seed": {"type": int, "default": 0, "help": "seed for any randomness"},
    "out": {"help": "output file (a directory for examples); stdout when omitted"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treewco",
        description="weighted composition operators on truncated rooted trees",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, flags) in _MODES.items():
        p = sub.add_parser(mode)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _write(path: Path, text: str, make_parent: bool = False) -> None:
    """Write one output file; a path the OS refuses is an ``args.out`` error."""
    try:
        if make_parent:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SpecError("args.out", f"cannot write: {exc.strerror}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(Path(out), text)
    else:
        sys.stdout.write(text)


def _load_operator(args) -> WeightedCompOp:
    if not args.tree or not args.psi or not args.phi:
        raise SpecError("args", "analyze/norms need --tree, --psi and --phi")
    _, psi, phi = load_specs(args.tree, args.psi, args.phi)
    return WeightedCompOp(psi, phi)


def _schedule(args, depth_limit: int):
    if not args.depths:
        return None
    try:
        return _check_schedule(tuple(int(x) for x in args.depths.split(",")), depth_limit)
    except ValueError as exc:
        raise SpecError("args.depths", str(exc)) from exc


def _window(args, tree) -> int | None:
    try:
        return None if args.window is None else tree.check_depth(args.window, "window depth")
    except IndexError as exc:
        raise SpecError("args.window", str(exc)) from exc


def _cmd_analyze(args) -> int:
    op = _load_operator(args)
    if op.tree.depth_limit < 1:
        raise SpecError("tree.depth", f"analyze needs depth >= 1, got {op.tree.depth_limit}")
    if not math.isfinite(args.tol) or args.tol < 0:
        raise SpecError("args.tol", f"must be a finite number >= 0, got {args.tol}")
    sched = _schedule(args, op.tree.depth_limit)
    window = _window(args, op.tree)
    certs = classify_operator(op, sched, window, zero_tol=args.tol)
    payload = {
        "schema": SCHEMA_VERSION,
        "certificates": [c.to_json() for c in certs["linf"] + certs["lip"]],
        "quantities": operator_quantities(op, window),
    }
    if bool(np.all(op.psi.values == 1.0)):
        payload["seven_equivalences"] = seven_equivalences(op.phi).to_json()
    _emit(canonical_json(payload), args.out)
    return 0


def _cmd_norms(args) -> int:
    op = _load_operator(args)
    rep = norms(op.psi)
    payload = {
        "schema": SCHEMA_VERSION,
        "psi_norms": {
            "sup_norm": rep.sup_norm,
            "lip_norm": rep.lip_norm,
            "value_at_root": rep.value_at_root,
            "d_sup": rep.d_sup,
            "tail_profile": _Rows(range(rep.tail_sups.size), rep.tail_sups),
        },
        "quantities": operator_quantities(op, _window(args, op.tree)),
    }
    _emit(canonical_json(payload), args.out)
    return 0


def _cmd_oracle(args) -> int:
    if bool(args.psi) != bool(args.phi):
        raise SpecError("args", "oracle needs both --psi and --phi, or neither")
    if not args.tree:
        raise SpecError("args", "oracle needs at least --tree")
    if args.seed < 0:
        raise SpecError("args.seed", f"must be >= 0, got {args.seed}")
    tree, psi, phi = load_specs(args.tree, args.psi or None, args.phi or None)
    if psi is None:
        rng = np.random.default_rng(args.seed)
        psi, phi = random_function(tree, rng), random_map(tree, rng)
    op = WeightedCompOp(psi, phi)
    try:
        linf_res = norm_oracle_linf(op)
    except OracleSizeError:
        linf_res = norm_oracle_linf(op, method="ascent")
    try:
        lip_res = norm_oracle_lip(op, "exhaustive")
    except OracleSizeError:
        lip_res = norm_oracle_lip(op)
    linf_formula = linf_op_norm(op)
    exact, up = lip_bounds(op)  # the lower end is the exact norm
    payload = {
        "schema": SCHEMA_VERSION,
        "seed": args.seed,
        "linf": {
            "oracle": linf_res.to_json(),
            "formula": linf_formula,
            "agree": abs(linf_res.value - linf_formula) <= 1e-9,
        },
        "lip": {
            "oracle": lip_res.to_json(),
            "formula": exact,
            "bounds": [exact, up],
            "agree": abs(lip_res.value - exact) <= 1e-9,
            "within_bounds": exact - 1e-9 <= lip_res.value <= up + 1e-9,
        },
    }
    _emit(canonical_json(payload), args.out)
    return 0


def _cmd_examples(args) -> int:
    gold = golden_dir()
    out_dir = Path(args.out) if args.out else None
    drift = False
    for fx in bundled_fixtures():
        report = canonical_json(fixture_report(fx))
        if out_dir:
            _write(out_dir / f"{fx.name}.json", report, make_parent=True)
        gold_path = gold / f"{fx.name}.json"
        if not gold_path.exists():
            print(f"[MISSING] {fx.name}: no golden file at {gold_path}")
            drift = True
            continue
        frozen = gold_path.read_text(encoding="utf-8")
        if frozen != report:
            print(f"[DRIFT] {fx.name}: report differs from golden file")
            drift = True
        else:
            print(f"[OK] {fx.name}")
    return 2 if drift else 0


def _cmd_export(args) -> int:
    if not args.tree:
        raise SpecError("args", "export needs --tree")
    tree, _, phi = load_specs(args.tree, phi_path=args.phi or None)
    _emit(tree.to_dot(None if phi is None else phi.as_table()), args.out)
    return 0


# mode -> (command, the flags it reads); the parser offers each mode only its own
_MODES = {
    "analyze": (_cmd_analyze, ("tree", "psi", "phi", "depths", "window", "tol", "out")),
    "norms": (_cmd_norms, ("tree", "psi", "phi", "window", "out")),
    "oracle": (_cmd_oracle, ("tree", "psi", "phi", "seed", "out")),
    "examples": (_cmd_examples, ("out",)),
    "export": (_cmd_export, ("tree", "phi", "out")),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _MODES[args.mode][0](args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
