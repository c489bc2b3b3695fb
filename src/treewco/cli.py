"""Command-line entry points: flags are parsed and checked here, and each
report mode prints what its builder in ``io`` returns.

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
import sys
from pathlib import Path

from .classify import _check_schedule
from .io import (
    SpecError,
    _ascii,
    _finite,
    analysis_report,
    bundled_fixtures,
    canonical_json,
    fixture_report,
    golden_dir,
    load_specs,
    norms_report,
    oracle_report,
)
from .operators import WeightedCompOp


_FLAGS = {
    "tree": {"help": "tree spec JSON path"},
    "psi": {"help": "weight spec JSON path"},
    "phi": {"help": "self-map spec JSON path"},
    "depths": {"help": "comma-separated depth schedule"},
    "window": {"type": _ascii(int), "default": None, "help": "window depth for coverage checks"},
    "tol": {"type": _ascii(float), "default": 1e-6, "help": "trend zero tolerance"},
    "seed": {"type": _ascii(int), "default": 0, "help": "seed for any randomness"},
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
    if out is None:
        sys.stdout.write(text)
    else:
        _write(Path(out), text)


def _load_operator(args) -> WeightedCompOp:
    if args.tree is None or args.psi is None or args.phi is None:
        raise SpecError("args", "analyze/norms need --tree, --psi and --phi")
    _, psi, phi = load_specs(args.tree, args.psi, args.phi)
    return WeightedCompOp(psi, phi)


def _schedule(args, depth_limit: int):
    if args.depths is None:
        return None
    try:
        return _check_schedule(tuple(map(_ascii(int), args.depths.split(","))), depth_limit)
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
    if _finite(args.tol) is None or args.tol < 0:
        raise SpecError("args.tol", f"must be a finite number >= 0, got {args.tol}")
    sched = _schedule(args, op.tree.depth_limit)
    window = _window(args, op.tree)
    _emit(canonical_json(analysis_report(op, sched, window, args.tol)), args.out)
    return 0


def _cmd_norms(args) -> int:
    op = _load_operator(args)
    _emit(canonical_json(norms_report(op, _window(args, op.tree))), args.out)
    return 0


def _cmd_oracle(args) -> int:
    if (args.psi is None) != (args.phi is None):
        raise SpecError("args", "oracle needs both --psi and --phi, or neither")
    if args.tree is None:
        raise SpecError("args", "oracle needs at least --tree")
    if args.seed < 0:
        raise SpecError("args.seed", f"must be >= 0, got {args.seed}")
    tree, psi, phi = load_specs(args.tree, args.psi, args.phi)
    source = tree if psi is None else WeightedCompOp(psi, phi)
    _emit(canonical_json(oracle_report(source, args.seed)), args.out)
    return 0


def _cmd_examples(args) -> int:
    gold = golden_dir()
    out_dir = None if args.out is None else Path(args.out)
    drift = False
    for fx in bundled_fixtures():
        report = canonical_json(fixture_report(fx))
        if out_dir is not None:
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
    if args.tree is None:
        raise SpecError("args", "export needs --tree")
    tree, _, phi = load_specs(args.tree, phi_path=args.phi)
    _emit(tree.to_dot(None if phi is None else phi.as_table()), args.out)
    return 0


_PATH_FLAGS = ("tree", "psi", "phi", "out")

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
    command, flags = _MODES[args.mode]
    try:
        for flag in flags:
            # an empty path is refused, never read as an absent flag
            if flag in _PATH_FLAGS and getattr(args, flag) == "":
                raise SpecError(f"args.{flag}", "expected a path, got ''")
        return command(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
