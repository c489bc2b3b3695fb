"""Byte-diff the reports of this checkout against a git ref.

    python tools/report_corpus.py --against HEAD~1 [--seeds 0,1,2,3]

Both sides write the same seeded corpus of report texts, and the tool
prints, per entry point, how many texts differ and the first differing
field of each, counted per field.  It then prints a table of verdict
transitions read from the differing texts: one row per (name, old
verdict, new verdict) with old != new, its count and its first corpus
entry, over every certificate statement (``seven_equivalences``
included) and every oracle ``extra.verdict``, named by its quantity; an
oracle that raises on one side has the verdict ``error`` there.  With no
verdict change the table has no rows.  The ref is checked out with
``git worktree add`` into a temporary directory (``TMPDIR`` picks where)
and removed afterwards; this checkout's side runs ``src/`` as it is on
disk, uncommitted edits included.  Nothing is downloaded.  The exit code
is 0 when every text is byte-equal and 1 otherwise.

The corpus, per seed:

- trees: ``zline`` at depths 1, 2, 3, 8, one in 9..99 and 1000;
  ``homogeneous`` q=2 and q=3 and two ``random_tree``s up to a few hundred
  vertices; ``homogeneous(2, 2)``, and a depth-2 random tree rebuilt by
  ``explicit_tree`` from shuffled edges under mixed int and str labels;
- maps: fold, doubling, identity and a constant map on the line; a random
  map and a random bijection on the other trees;
- weights: unit, ``1 / (1 + |v|)``, and signed magnitudes ``10**u`` with
  ``u`` uniform in [-310, 17] and a fifth of them exact zeros;
- windows ``None`` and ``N // 2``, zero tolerances 1e-6 and 1e-3;
- besides the default depth schedule, three explicit ones (no window,
  tolerance 1e-6): the single depth ``(1,)``, the sparse ``(1, (N + 2) // 3,
  N)``, and ``(c, c + 1, N)`` around the map's domain depth c, which
  reaches past a doubling map's core; each keeps its depths in 1..N, once;
- two operators at the north-star depth, ``zline(10**4)``: fold with
  weight ``1 / (1 + |v|)``, whose Lipschitz tail has a distinct value at
  every depth, and identity with ``depth_cap(t, 3)``, whose 10,000-row
  profiles are one step each, so the report writer's per-row and
  per-step paths are both read at that depth;
- the builtin grid: every builtin weight (``F_N``, ``g``, ``chi``,
  ``eta``) under every builtin map (``identity``, ``constant``, ``zfold``,
  ``double``), loaded from spec dicts by ``load_function_spec`` and
  ``load_map_spec`` on ``zline`` at depths 64, 65, 1024 and 1025, with
  parameters drawn per seed, so that a verdict flip shows where the
  infinite operator is known in closed form.

Entry points: ``analyze`` (``canonical_json`` of ``classify_operator``,
``operator_quantities`` and, under unit weight, ``seven_equivalences``,
as ``treewco analyze`` assembles them; the builtin grid with no window
and tolerance 1e-6), ``isometry.linf`` and ``isometry.lip`` (the public
``isometry_check_linf`` and ``isometry_check_lip`` on the windows
``None``, 0, 1 and ``N // 2``, each once, so that the root-only and
first-layer rows are read too; a refused call records its error),
``fixture_report`` (each bundled fixture at depths 2-12 and its own), the
oracles' ``to_json`` (both methods of ``norm_oracle_linf`` and
``norm_oracle_lip``, ``j_oracle_linf_bracket`` on both windows, ``surjectivity_infeasibility``
on a random target, a reachable one and the image of ``|x| / 3``, whose
quotients tie along root paths, and ``point_eval_lip_norm`` at
a deepest vertex of each tree; a search past its size cap records its
error), ``tree`` (each distinct tree and its truncations to depths 0, 1
and ``N // 2``: ``tree_to_spec`` with the vertex count, the depth limit
and the layer sizes, a list of more than ``_MAX_LAYERS`` sizes written
as its length and sum), and the ``cli.analyze``, ``cli.norms``,
``cli.oracle`` (with the spec files, and with the tree alone) and
``cli.export`` (with and without the map) outputs on spec files of the
same operators, and ``cli.examples`` (its stdout and the reports it
writes).

``--dump FILE`` writes this interpreter's corpus texts to FILE, one JSON
line per text; ``--against`` runs it once per side.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_WINDOWS_AND_TOLS = [(None, 1e-6), (None, 1e-3), ("half", 1e-6), ("half", 1e-3)]
_MAX_LAYERS = 1001  # zline(1000) in full; zline(10**4) and its half as length and sum


# -- the corpus (runs against whichever treewco is importable) ---------------------


def _weights(tw, np, t, rng) -> dict:
    depth = t.depth.astype(float)
    wide = 10.0 ** rng.uniform(-310, 17, t.n_vertices) * rng.choice([-1.0, 1.0], t.n_vertices)
    wide[rng.random(t.n_vertices) < 0.2] = 0.0
    return {"unit": np.ones(t.n_vertices), "inv": 1.0 / (1.0 + depth), "wide": wide}


def _explicit(tw, rng):
    """A depth-2 random tree rebuilt from its shuffled edges, with odd
    labels as ints and even ones as strs."""
    base = tw.random_tree(2, seed=int(rng.integers(0, 1000)))
    labels = [p if p % 2 else f"v{p}" for p in rng.permutation(len(base)).tolist()]
    edges = [[labels[p], labels[v]] for v, p in enumerate(base.parent.tolist()) if v]
    return tw.explicit_tree([edges[i] for i in rng.permutation(len(edges))], labels[0])


def _operators(tw, np, seed: int):
    """(name, operator, phi spec) over the corpus trees, maps and weights."""
    rng = np.random.default_rng(seed)
    trees = [(f"z{d}", tw.zline(d)) for d in (1, 2, 3, 8, int(rng.integers(9, 100)), 1000)]
    trees += [(f"h2_{d}", tw.homogeneous(2, d)) for d in (1, 3, int(rng.integers(4, 8)))]
    trees += [(f"h3_{d}", tw.homogeneous(3, d)) for d in (1, int(rng.integers(2, 5)))]
    for _ in range(2):
        depth, tseed = int(rng.integers(1, 6)), int(rng.integers(0, 1000))
        trees.append((f"r{depth}_{tseed}", tw.random_tree(depth, seed=tseed)))
    trees.append(("h2_2", tw.homogeneous(2, 2)))
    x = _explicit(tw, rng)
    trees.append((f"x{len(x)}", x))
    for tname, t in trees:
        if t.family == "zline":
            target = int(rng.integers(t.n_vertices))
            maps = [
                ("fold", tw.zline_fold(t), {"kind": "builtin", "name": "zfold"}),
                ("double", tw.zline_double(t), {"kind": "builtin", "name": "double"}),
                ("id", tw.identity_map(t), {"kind": "builtin", "name": "identity"}),
                ("const", tw.constant_map(t, target),
                 {"kind": "builtin", "name": "constant", "params": {"target": target}}),
            ]
        else:
            maps = [(name, phi, {"kind": "table", "map": {str(v): int(i) for v, i in
                                                          enumerate(phi.image.tolist())}})
                    for name, phi in (("rand", tw.random_map(t, rng)),
                                      ("perm", tw.random_permutation_map(t, rng)))]
        for mname, phi, phi_spec in maps:
            for wname, w in _weights(tw, np, t, rng).items():
                op = tw.WeightedCompOp(tw.VertexFunction(t, w), phi)
                yield f"{tname}/{mname}/{wname}", op, phi_spec
    t = tw.zline(10_000)
    op = tw.WeightedCompOp(tw.VertexFunction(t, 1.0 / (1.0 + t.depth)), tw.zline_fold(t))
    yield "z10000/fold/inv", op, {"kind": "builtin", "name": "zfold"}
    op = tw.WeightedCompOp(tw.depth_cap(t, 3), tw.identity_map(t))
    yield "z10000/id/cap3", op, {"kind": "builtin", "name": "identity"}


def _builtin_grid(tw, np, seed: int):
    """(name, operator) of each builtin weight and map on the grid's lines;
    the parameters draw from their own stream, valid at every grid depth."""
    rng = np.random.default_rng([seed, 2])
    cap, n = int(rng.integers(1, 9)), int(rng.integers(4, 65))
    chi, eta, target = rng.integers(0, 9, size=3).tolist()  # ids of depth <= 4
    weights = {"F_N": {"cap": cap}, "g": {"n": n, "r": float(rng.uniform(0.05, 0.95))},
               "chi": {"vertex": chi}, "eta": {"vertex": eta}}
    maps = {"identity": {}, "constant": {"target": target}, "zfold": {}, "double": {}}
    for depth in (64, 65, 1024, 1025):
        t = tw.zline(depth)
        for wname, wparams in weights.items():
            psi = tw.load_function_spec({"kind": "builtin", "name": wname, "params": wparams}, t)
            for mname, mparams in maps.items():
                phi = tw.load_map_spec({"kind": "builtin", "name": mname, "params": mparams}, t)
                yield f"grid/z{depth}/{wname}/{mname}", tw.WeightedCompOp(psi, phi)


def _guarded(fn) -> str:
    """``fn()``, or the exception's type and message when it raises."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - a raising entry point is an output too
        return f"error: {type(exc).__name__}: {exc}"


def _schedules(op) -> list:
    """The explicit depth schedules of one operator: a single depth, a
    sparse one, and one around the map's domain depth."""
    n, core = op.tree.depth_limit, op.phi.domain_depth
    found = [(1,), (1, (n + 2) // 3, n), (core, core + 1, n)]
    found = [tuple(sorted({d for d in s if 1 <= d <= n})) for s in found]
    return list(dict.fromkeys(s for s in found if s))


def _analyze_text(tw, np, op, window, tol, schedule=None) -> str:
    certs = tw.classify_operator(op, schedule, window, tol)
    payload = {
        "schema": tw.io.SCHEMA_VERSION,
        "certificates": [c.to_json() for c in certs["linf"] + certs["lip"]],
        "quantities": tw.operator_quantities(op, window),
    }
    if bool(np.all(op.psi.values == 1.0)):
        payload["seven_equivalences"] = tw.seven_equivalences(op.phi).to_json()
    return tw.canonical_json(payload)


def _oracle_texts(tw, np, op, rng):
    """(entry point, entry, text) of each oracle on one operator."""
    n = op.tree.depth_limit
    calls = {
        "oracle.linf": [(m, lambda m=m: tw.norm_oracle_linf(op, m)) for m in ("exhaustive", "ascent")],
        "oracle.lip": [(m, lambda m=m: tw.norm_oracle_lip(op, m)) for m in ("exhaustive", "witness")],
        "oracle.j_bracket": [(f"w{w}", lambda w=w: tw.j_oracle_linf_bracket(op, w))
                             for w in (None, n // 2)],
    }
    cod = op.codomain_tree
    # a random target; the image of the constant 1/2, which a unit-ball
    # preimage reaches; and the image of |x| / 3, whose pair quotients tie
    # along root paths up to rounding, so the first maximal pair is pinned
    half = tw.VertexFunction(op.tree, np.full(op.tree.n_vertices, 0.5))
    linear = tw.VertexFunction(op.tree, op.tree.depth / 3.0)
    targets = {"random": tw.random_function(cod, rng), "reachable": tw.apply_op(op, half),
               "tied": tw.apply_op(op, linear)}
    calls["oracle.surj"] = [(g, lambda g=g: tw.surjectivity_infeasibility(op, targets[g]))
                            for g in targets]
    for point, entries in calls.items():
        for entry, fn in entries:
            yield point, entry, _guarded(lambda: tw.canonical_json(fn().to_json()))


def _tree_texts(tw, t):
    """(entry, text) of the tree ``t`` and its truncations to depths 0, 1
    and N // 2, read through the tree layer alone."""
    n = t.depth_limit
    for d in dict.fromkeys(d for d in (n, 0, 1, n // 2) if d <= n):
        s = t.truncate(d)
        sizes = (s.layer_offsets[1:] - s.layer_offsets[:-1]).tolist()
        if len(sizes) > _MAX_LAYERS:
            sizes = {"length": len(sizes), "sum": sum(sizes)}
        yield f"d{d}", tw.canonical_json({"spec": tw.tree_to_spec(s), "n_vertices": s.n_vertices,
                                          "depth_limit": s.depth_limit, "layer_sizes": sizes})


def _cli_text(argv: list) -> str:
    from treewco.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return out.getvalue() if rc == 0 else f"exit {rc}\n{err.getvalue()}"


def corpus(seed: int, workdir: Path):
    """(entry point, entry, text) for every text of one seed."""
    import numpy as np
    import treewco as tw

    # the oracle targets draw from their own stream, so the operators are
    # the same with or without them
    oracle_rng = np.random.default_rng([seed, 1])
    trees_seen = set()
    for name, op, phi_spec in _operators(tw, np, seed):
        n = op.tree.depth_limit
        for window, tol in _WINDOWS_AND_TOLS:
            w = n // 2 if window else None
            yield "analyze", f"{name}/w{w}/t{tol:g}", _guarded(
                lambda: _analyze_text(tw, np, op, w, tol))
        for sched in _schedules(op):
            yield "analyze", f"{name}/s{'-'.join(map(str, sched))}", _guarded(
                lambda: _analyze_text(tw, np, op, None, 1e-6, sched))
        for w in dict.fromkeys((None, 0, 1, n // 2)):
            for point, check in (("isometry.linf", tw.isometry_check_linf),
                                 ("isometry.lip", tw.isometry_check_lip)):
                yield point, f"{name}/w{w}", _guarded(
                    lambda: tw.canonical_json(check(op, w).to_json()))
        for point, entry, text in _oracle_texts(tw, np, op, oracle_rng):
            yield point, f"{name}/{entry}", text
        files = {
            "tree": tw.tree_to_spec(op.tree),
            "psi": {"kind": "table",
                    "values": {str(v): x for v, x in enumerate(op.psi.values.tolist())}},
            "phi": phi_spec,
        }
        args = []
        for key, spec in files.items():
            path = workdir / f"{key}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            args += [f"--{key}", str(path)]
        tree_args, phi_args = args[:2], args[4:]
        yield "cli.analyze", f"{name}/w{n // 2}/t0.001", _guarded(
            lambda: _cli_text(["analyze", *args, "--window", str(n // 2), "--tol", "1e-3"]))
        yield "cli.norms", name, _guarded(lambda: _cli_text(["norms", *args]))
        yield "cli.oracle", name, _guarded(lambda: _cli_text(["oracle", *args]))
        yield "cli.export", name, _guarded(lambda: _cli_text(["export", *tree_args, *phi_args]))
        tname = name.split("/")[0]
        if tname in trees_seen:
            continue
        trees_seen.add(tname)
        for entry, text in _tree_texts(tw, op.tree):
            yield "tree", f"{tname}/{entry}", text
        deepest = op.tree.n_vertices - 1
        yield "oracle.point_eval", tname, _guarded(
            lambda: tw.canonical_json(tw.point_eval_lip_norm(op.tree, deepest).to_json()))
        yield "cli.oracle", f"{tname}/seed{seed}", _guarded(
            lambda: _cli_text(["oracle", *tree_args, "--seed", str(seed)]))
        yield "cli.export", tname, _guarded(lambda: _cli_text(["export", *tree_args]))
    for name, op in _builtin_grid(tw, np, seed):
        yield "analyze", name, _guarded(lambda: _analyze_text(tw, np, op, None, 1e-6))
    for fx in tw.bundled_fixtures():
        for depth in [None, *range(2, 13)]:
            yield "fixture_report", f"{fx.name}/{depth}", _guarded(
                lambda: tw.canonical_json(tw.fixture_report(fx, depth)))
    out = workdir / "examples"
    yield "cli.examples", "stdout", _guarded(lambda: _cli_text(["examples", "--out", str(out)]))
    for report in sorted(out.glob("*.json")):
        yield "cli.examples", report.name, report.read_text(encoding="utf-8")


def dump(path: Path, seeds: list) -> None:
    with tempfile.TemporaryDirectory() as tmp, open(path, "w", encoding="utf-8") as fh:
        for seed in seeds:
            for point, entry, text in corpus(seed, Path(tmp)):
                fh.write(json.dumps({"seed": seed, "point": point, "entry": entry,
                                     "text": text}) + "\n")


# -- the comparison -------------------------------------------------------------------


def first_difference(a, b, path: str = "$"):
    """The path of the first field where two parsed reports differ, in
    sorted-key order; None when they are equal."""
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}"
            found = first_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        return None if len(a) == len(b) else f"{path}[{min(len(a), len(b))}]"
    return None if a == b else path


def _parse(text: str):
    """A report with each number kept as its text, so that two texts of
    one float differ."""
    return json.loads(text, parse_float=lambda s: ("float", s), parse_int=lambda s: ("int", s))


def _field(ours: str, theirs: str) -> str:
    try:
        path = first_difference(_parse(theirs), _parse(ours))
    except json.JSONDecodeError:
        return "<text>"
    # equal fields in different text: indentation or key order
    return re.sub(r"\[\d+\]", "[*]", path) if path else "<layout>"


def _run_side(src: Path, seeds: list, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--dump", str(out),
           "--seeds", ",".join(map(str, seeds))]
    subprocess.run(cmd, env=env, check=True)


def _verdicts(text: str) -> dict:
    """``{path: (name, verdict)}`` of one report text: each certificate
    statement (``seven_equivalences`` included) and each oracle's
    ``extra.verdict``, named by its quantity.  A raising entry point's text
    is the unnamed verdict ``error`` at ``$``, where an oracle report keeps
    its own; any other text that is not JSON (a CLI exit) has none."""
    if text.startswith("error: "):
        return {"$": (None, "error")}
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return {}
    found: dict = {}

    def walk(node, path: str) -> None:
        if isinstance(node, dict):
            if isinstance(node.get("statement"), str) and "verdict" in node:
                found[path] = (node["statement"], node["verdict"])
            extra = node.get("extra")
            if isinstance(extra, dict) and "verdict" in extra:
                found[path] = (str(node.get("quantity")), extra["verdict"])
            for key, value in node.items():
                walk(value, f"{path}.{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}[{i}]")

    walk(report, "$")
    return found


def diff_dumps(theirs: Path, ours: Path) -> int:
    """Print, per entry point, how many texts of two ``--dump`` files differ
    and the first differing field of each, then one row per class of
    verdict transition (name, old verdict, new verdict) with its count and
    first entry; 1 when a text differs, else 0."""
    texts, differ, fields, moves = Counter(), Counter(), Counter(), Counter()
    first_entry: dict = {}
    first_move: dict = {}
    with open(theirs, encoding="utf-8") as fa, open(ours, encoding="utf-8") as fb:
        for line_a, line_b in zip(fa, fb, strict=True):
            a, b = json.loads(line_a), json.loads(line_b)
            if (a["seed"], a["point"], a["entry"]) != (b["seed"], b["point"], b["entry"]):
                raise SystemExit("the two sides wrote different corpora")
            texts[a["point"]] += 1
            if a["text"] == b["text"]:
                continue
            differ[a["point"]] += 1
            key = (a["point"], _field(b["text"], a["text"]))
            fields[key] += 1
            first_entry.setdefault(key, f"seed {a['seed']} {a['entry']}")
            new = _verdicts(b["text"])
            for path, (name, old) in _verdicts(a["text"]).items():
                other, verdict = new.get(path, (name, old))
                if verdict != old and (name == other or None in (name, other)):
                    move = (name or other, old, verdict)
                    moves[move] += 1
                    first_move.setdefault(move, f"seed {a['seed']} {a['point']} {a['entry']}")
    for point in sorted(texts):
        print(f"  {point:15s} {texts[point]:6d} texts, {differ[point]:6d} differ")
    for (point, field), count in sorted(fields.items()):
        print(f"    {point} {field}: {count} (first: {first_entry[point, field]})")
    print(f"differing fields: {len(fields)}")
    print(f"verdict transitions: {len(moves)}")
    for move, count in sorted(moves.items()):
        name, old, new = move
        print(f"    {name} {old} -> {new}: {count} (first: {first_move[move]})")
    return 1 if fields else 0


def compare(ref: str, seeds: list) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tree = tmp / "ref"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), ref], check=True)
        try:
            _run_side(tree / "src", seeds, tmp / "theirs.jsonl")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
        _run_side(ROOT / "src", seeds, tmp / "ours.jsonl")
        print(f"{ref} -> this checkout, seeds {','.join(map(str, seeds))}")
        return diff_dumps(tmp / "theirs.jsonl", tmp / "ours.jsonl")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--against", help="git ref to compare with")
    side.add_argument("--dump", help="write this interpreter's corpus texts to this file")
    parser.add_argument("--seeds", default="0", help="comma-separated corpus seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.dump:
        dump(Path(args.dump), seeds)
        return 0
    return compare(args.against, seeds)


if __name__ == "__main__":
    sys.exit(main())
