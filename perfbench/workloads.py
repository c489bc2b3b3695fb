"""Seeded workload plans and the objects built from them.

A plan is plain data (tree specs, weight and map recipes with sub-seeds,
oracle items, CLI commands): ``make_plan(name, seed)`` is cheap and
deterministic, and ``Built(plan, tracer)`` turns it into trees, weights,
self-maps and operators.  The seed changes values, maps and parameters,
never the shape or size of an input, so every seed asks for the same
amount of work and runs with different seeds are comparable.

Budgets: every tree's vertex count is computed in closed form before it is
built and refused above ``MAX_TREE_VERTICES``; every oracle item is checked
against that oracle's own cap before it is built.
"""

from __future__ import annotations

import json

import numpy as np

import treewco as tw

WORKLOADS = ("wide", "deep", "oracle", "cli")

# h(3, 10) has 118,097 vertices, the largest tree any ladder asks for.
MAX_TREE_VERTICES = 120_000

# Per-oracle caps, each in the unit that drives that oracle's cost.
ORACLE_CAPS = {
    "linf_exhaustive": 13,  # distinct range vertices (3**k sign patterns)
    "j_bracket": 12,  # window vertices (3**k sign patterns)
    "lip_path": 3070,  # vertices: homogeneous(2, 10)
    "surj": 401,  # vertices: zline(200)
    "point_ascent": 16,  # vertices
    "linf_ascent": 200,  # vertices
}

SCALES = ("full", "tiny")


class BudgetError(ValueError):
    """A requested input exceeds the benchmark's size budget."""


# -- closed-form sizes -----------------------------------------------------------


def tree_vertices(spec: dict) -> int:
    """Vertex count of a tree spec, computed before anything is allocated.

    For the random family this is the upper bound reached when every vertex
    has ``max_children`` children.
    """
    fam = spec["family"]
    if fam == "zline":
        return 2 * spec["depth"] + 1
    if fam == "homogeneous":
        q, d = spec["q"], spec["depth"]
        return 1 + (q + 1) * (q**d - 1) // (q - 1)
    if fam == "random":
        b, d = spec["max_children"], spec["depth"]
        return d + 1 if b == 1 else (b ** (d + 1) - 1) // (b - 1)
    raise BudgetError(f"unknown tree family {fam!r}")


def build_tree(spec: dict) -> tw.RootedTree:
    n = tree_vertices(spec)
    if n > MAX_TREE_VERTICES:
        raise BudgetError(f"{spec} has {n} vertices, above the cap {MAX_TREE_VERTICES}")
    fam = spec["family"]
    if fam == "zline":
        return tw.zline(spec["depth"])
    if fam == "homogeneous":
        return tw.homogeneous(spec["q"], spec["depth"])
    return tw.random_tree(
        spec["depth"], spec["seed"], spec["min_children"], spec["max_children"]
    )


def zspec(depth: int) -> dict:
    return {"family": "zline", "depth": depth}


def hspec(q: int, depth: int) -> dict:
    return {"family": "homogeneous", "q": q, "depth": depth}


# -- weights, maps, targets ---------------------------------------------------------


def build_weight(tree: tw.RootedTree, spec: dict) -> tw.VertexFunction:
    kind = spec["kind"]
    n = tree.n_vertices
    if kind == "uniform":
        rng = np.random.default_rng(spec["seed"])
        return tw.VertexFunction(tree, rng.uniform(spec["lo"], spec["hi"], n))
    if kind == "random":
        return tw.random_function(tree, np.random.default_rng(spec["seed"]), spec["scale"])
    if kind == "inv":
        return tw.VertexFunction(tree, 1.0 / (1.0 + tree.depth))
    if kind == "cap":
        return tw.depth_cap(tree, spec["cap"])
    if kind == "unit":
        return tw.VertexFunction(tree, np.ones(n))
    raise ValueError(f"unknown weight kind {kind!r}")


def build_map(tree: tw.RootedTree, spec: dict) -> tw.SelfMap:
    kind = spec["kind"]
    if kind == "perm":
        return tw.random_permutation_map(tree, np.random.default_rng(spec["seed"]))
    if kind == "random":
        return tw.random_map(tree, np.random.default_rng(spec["seed"]))
    if kind == "krange":
        # exactly k distinct images, so sign-pattern searches cost 3**k
        # whatever the seed
        rng = np.random.default_rng(spec["seed"])
        n, k = tree.n_vertices, spec["k"]
        targets = rng.choice(n, size=k, replace=False)
        img = targets[rng.integers(0, k, n)]
        img[rng.choice(n, size=k, replace=False)] = targets
        return tw.SelfMap(tree, img, tree.depth_limit, "krange")
    if kind == "identity":
        return tw.identity_map(tree)
    if kind == "zfold":
        return tw.zline_fold(tree)
    if kind == "zdouble":
        return tw.zline_double(tree)
    raise ValueError(f"unknown map kind {kind!r}")


def build_target(op: tw.WeightedCompOp, spec: dict) -> tw.VertexFunction:
    """Target g for the surjectivity oracle, on the operator's codomain."""
    cod = op.codomain_tree
    if spec["kind"] == "alternating":
        labels = np.asarray([int(cod.label_of(v)) for v in range(cod.n_vertices)])
        return tw.VertexFunction(cod, np.where(labels % 2 == 0, 1.0, -1.0) * spec["scale"])
    # "image": g = psi * (f o phi) for a small random f, so a preimage exists
    rng = np.random.default_rng(spec["seed"])
    f = rng.uniform(-spec["scale"], spec["scale"], op.tree.n_vertices)
    m = op.phi.domain_size
    return tw.VertexFunction(cod, op.psi.values[:m] * f[op.phi.image])


# -- plans ----------------------------------------------------------------------


def _sub(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _op(tree: str, psi: dict, phi: dict, window=None) -> dict:
    return {"tree": tree, "psi": psi, "phi": phi, "window": window}


def _examples_cmd() -> dict:
    return {"name": "examples", "mode": "examples", "args": [], "check": {"kind": "examples"}}


def _analyze_cmd(name: str, op: str, window=None, out=None) -> dict:
    args = ["--tree", f"{op}.tree.json", "--psi", f"{op}.psi.json", "--phi", f"{op}.phi.json"]
    if window is not None:
        args += ["--window", str(window)]
    if out:
        args += ["--out", out]
    return {"name": name, "mode": "analyze", "args": args,
            "check": {"kind": "analyze", "op": op, "out": out}}


def _malformed_cmd(name: str, tree: str, psi: str, phi: str, known_defect=None) -> dict:
    """A spec the CLI must reject with exit code 1 and no traceback.
    ``known_defect`` names the exception of a traceback recorded as a known
    failure rather than an unexpected one."""
    check = {"kind": "malformed"}
    if known_defect:
        check["known_defect"] = known_defect
    return {"name": name, "mode": "malformed",
            "args": ["--tree", tree, "--psi", psi, "--phi", phi], "check": check}


def _session(rng: np.random.Generator, ops: dict, trees: dict) -> list:
    """The fixed CLI session: all five modes plus malformed specs.

    Shapes are fixed; the seed picks the weight caps and the oracle seed.
    """
    trees["s_h"] = hspec(2, 6)
    trees["s_z"] = zspec(64)
    trees["s_o"] = zspec(3)
    trees["s_x"] = zspec(8)
    ops["s_h"] = _op("s_h", {"kind": "cap", "cap": int(rng.integers(2, 6))}, {"kind": "identity"})
    ops["s_z"] = _op("s_z", {"kind": "cap", "cap": int(rng.integers(2, 30))}, {"kind": "zfold"}, 32)
    ops["s_x"] = _op("s_x", {"kind": "unit"}, {"kind": "zfold"})
    oracle_seed = int(rng.integers(0, 10_000))
    return [
        _examples_cmd(),
        _analyze_cmd("analyze_h", "s_h"),
        _analyze_cmd("analyze_z", "s_z", 32, out="s_z.report.json"),
        {"name": "norms", "mode": "norms",
         "args": ["--tree", "s_h.tree.json", "--psi", "s_h.psi.json", "--phi", "s_h.phi.json"],
         "check": {"kind": "norms", "op": "s_h"}},
        {"name": "oracle", "mode": "oracle",
         "args": ["--tree", "s_o.tree.json", "--seed", str(oracle_seed)],
         "check": {"kind": "oracle"}},
        {"name": "export", "mode": "export",
         "args": ["--tree", "s_x.tree.json", "--phi", "s_x.phi.json", "--out", "s_x.dot"],
         "check": {"kind": "export", "op": "s_x", "out": "s_x.dot"}},
        # at the time of writing, a list-valued depth escapes as a TypeError
        # traceback with exit code 1 (ROADMAP item 5)
        _malformed_cmd("bad_depth", "bad_depth.json", "s_h.psi.json", "s_h.phi.json", "TypeError"),
        _malformed_cmd("bad_family", "bad_family.json", "s_h.psi.json", "s_h.phi.json"),
        _malformed_cmd("partial_psi", "s_h.tree.json", "partial_psi.json", "s_h.phi.json"),
    ]


MALFORMED_FILES = {
    "bad_depth.json": {"family": "zline", "depth": [1]},
    "bad_family.json": {"family": "hexagonal", "depth": 3},
    "partial_psi.json": {"kind": "table", "values": {"0": 1.0}},
}


def make_plan(name: str, seed: int, scale: str = "full") -> dict:
    """The workload's inputs as plain data, derived from ``seed`` only."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    tiny = scale == "tiny"
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    trees: dict = {}
    ops: dict = {}
    plan = {"workload": name, "seed": seed, "scale": scale, "trees": trees, "ops": ops,
            "analyze": [], "search": [], "extremal": [], "cli": []}
    plan["session"] = _session(rng, ops, trees)
    _PLANNERS[name](plan, rng, tiny)
    return plan


def _plan_wide(plan, rng, tiny):
    trees, ops = plan["trees"], plan["ops"]
    # Wide, shallow trees: the per-vertex loops in tree construction, the
    # preimage index, j_linf and the isometry checks dominate.  Each tree
    # gets a random bijection (covered path) and a random map (early exit
    # on the first uncovered vertex) under one random weight.
    trees["h3"] = hspec(3, 3 if tiny else 7)
    trees["h2"] = hspec(2, 4 if tiny else 11)
    for t in ("h3", "h2"):
        psi = {"kind": "uniform", "lo": 0.25, "hi": 2.0, "seed": _sub(rng)}
        ops[f"{t}_perm"] = _op(t, psi, {"kind": "perm", "seed": _sub(rng)})
        ops[f"{t}_rand"] = _op(t, psi, {"kind": "random", "seed": _sub(rng)})
        plan["analyze"] += [f"{t}_perm", f"{t}_rand"]
    # the same family at oracle-feasible sizes
    trees["h22"], trees["h31"], trees["h24"], trees["h23"] = hspec(2, 2), hspec(3, 1), hspec(2, 4), hspec(2, 3)
    for t in ("h22", "h31", "h24", "h23"):
        psi = {"kind": "uniform", "lo": 0.25, "hi": 2.0, "seed": _sub(rng)}
        ops[f"{t}_perm"] = _op(t, psi, {"kind": "perm", "seed": _sub(rng)})
        ops[f"{t}_rand"] = _op(t, psi, {"kind": "krange", "k": 3, "seed": _sub(rng)})
    for o in ("h22_perm", "h22_rand", "h31_perm", "h31_rand"):
        plan["search"] += [{"oracle": "linf_exhaustive", "op": o},
                           {"oracle": "j_bracket", "op": o, "window": None}]
    plan["extremal"] = [
        {"oracle": "lip_path", "op": "h24_perm"},
        {"oracle": "lip_path", "op": "h24_rand"},
        {"oracle": "linf_ascent", "op": "h24_perm"},
        {"oracle": "point_ascent", "tree": "h22", "w": 9, "seed": _sub(rng)},
        {"oracle": "surj", "op": "h23_perm", "g": {"kind": "image", "scale": 0.2, "seed": _sub(rng)}},
    ]
    # the CLI reads the random bijection and weight from table specs
    trees["c"] = hspec(3, 2 if tiny else 4)
    ops["c"] = _op("c", {"kind": "uniform", "lo": 0.25, "hi": 2.0, "seed": _sub(rng)},
                   {"kind": "perm", "seed": _sub(rng)})
    plan["cli"] = [_analyze_cmd("analyze_table", "c")]
    plan["shares"] = {"analyze": 0.60, "search": 0.08, "extremal": 0.06, "cli": 0.20, "setup": 0.06}
    top = 6 if tiny else 10
    plan["ladders"] = {
        "tree": [_rung(hspec(3, d), {"kind": "perm", "seed": _sub(rng)}) for d in range(top - 4, top + 1)],
        "lip_path": [_rung(hspec(2, d), {"kind": "perm", "seed": _sub(rng)}) for d in (3, 4, 5, 6)],
        "surj": [_rung(zspec(n), {"kind": "perm", "seed": _sub(rng)}, surj=True) for n in (10, 20, 40)],
    }


def _plan_deep(plan, rng, tiny):
    trees, ops = plan["trees"], plan["ops"]
    # Deep, thin trees: per-depth tail profiles cost O(N * n) and reports
    # carry N-entry profiles, so operator tails and serialization dominate
    # while vertex counts stay small for the preimage loops.
    n = 40 if tiny else 1000
    trees["z"] = zspec(n)
    cap = int(rng.integers(2, n // 2))
    weights = {"inv": {"kind": "inv"}, "cap": {"kind": "cap", "cap": cap}, "unit": {"kind": "unit"}}
    maps = {"fold": ({"kind": "zfold"}, n // 2), "double": ({"kind": "zdouble"}, None),
            "id": ({"kind": "identity"}, None)}
    for wn, w in weights.items():
        for mn, (m, window) in maps.items():
            ops[f"{wn}_{mn}"] = _op("z", w, m, window)
            plan["analyze"].append(f"{wn}_{mn}")
    # the same family at oracle-feasible sizes
    trees["z4"], trees["z64"], trees["z40"] = zspec(4), zspec(64), zspec(40)
    small_cap = {"kind": "cap", "cap": int(rng.integers(2, 5))}
    ops["z4_id"] = _op("z4", {"kind": "inv"}, {"kind": "identity"})
    ops["z4_fold"] = _op("z4", small_cap, {"kind": "zfold"}, 2)
    ops["z4_double"] = _op("z4", {"kind": "inv"}, {"kind": "zdouble"})
    ops["z64_fold"] = _op("z64", {"kind": "inv"}, {"kind": "zfold"}, 32)
    ops["z64_cap"] = _op("z64", {"kind": "cap", "cap": int(rng.integers(2, 32))}, {"kind": "identity"})
    ops["z40_double"] = _op("z40", {"kind": "inv"}, {"kind": "zdouble"})
    for o in ("z4_id", "z4_fold", "z4_double"):
        plan["search"].append({"oracle": "linf_exhaustive", "op": o})
    plan["search"] += [{"oracle": "j_bracket", "op": "z4_id", "window": None},
                       {"oracle": "j_bracket", "op": "z4_fold", "window": 2}]
    plan["extremal"] = [
        {"oracle": "lip_path", "op": "z64_fold"},
        {"oracle": "lip_path", "op": "z64_cap"},
        {"oracle": "linf_ascent", "op": "z64_cap"},
        {"oracle": "point_ascent", "tree": "z4", "w": 8, "seed": _sub(rng)},
        {"oracle": "surj", "op": "z40_double", "g": {"kind": "alternating", "scale": 1.0}},
    ]
    trees["c"] = zspec(20 if tiny else 200)
    ops["c"] = _op("c", {"kind": "cap", "cap": int(rng.integers(2, 100))}, {"kind": "zfold"},
                   10 if tiny else 100)
    plan["cli"] = [_analyze_cmd("analyze_window", "c", ops["c"]["window"])]
    plan["shares"] = {"analyze": 0.60, "search": 0.08, "extremal": 0.06, "cli": 0.20, "setup": 0.06}
    depths = (20, 40, 80) if tiny else (625, 1250, 2500, 5000, 10_000)
    plan["ladders"] = {
        "tree": [_rung(zspec(d), {"kind": "zfold"}, {"kind": "inv"}) for d in depths],
        "lip_path": [_rung(hspec(2, d), {"kind": "perm", "seed": _sub(rng)}) for d in (3, 4, 5, 6)],
        "surj": [_rung(zspec(n), {"kind": "perm", "seed": _sub(rng)}, surj=True) for n in (10, 20, 40)],
    }


# Trees of at most 16 vertices with fixed shapes, for the small-operator corpus.
_CORPUS = [zspec(2), zspec(3), zspec(5), zspec(7), hspec(2, 1), hspec(2, 2), hspec(3, 1),
           {"family": "random", "depth": 3, "seed": 11, "min_children": 1, "max_children": 2},
           {"family": "random", "depth": 3, "seed": 12, "min_children": 1, "max_children": 2},
           {"family": "random", "depth": 2, "seed": 13, "min_children": 1, "max_children": 3}]


def _plan_oracle(plan, rng, tiny):
    trees, ops = plan["trees"], plan["ops"]
    # Many small operators: oracles dominate and formula calls happen on
    # tiny trees, so a fixed per-tree, per-map or per-call cost shows here.
    for i, spec in enumerate(_CORPUS):
        t = f"t{i}"
        trees[t] = spec
        n = tree_vertices(spec)
        psi = {"kind": "random", "scale": 2.0, "seed": _sub(rng)}
        ops[f"{t}_perm"] = _op(t, psi, {"kind": "perm", "seed": _sub(rng)})
        ops[f"{t}_k"] = _op(t, psi, {"kind": "krange", "k": min(n - 1, 4), "seed": _sub(rng)})
        plan["analyze"] += [f"{t}_perm", f"{t}_k"]
        plan["extremal"] += [{"oracle": "lip_path", "op": f"{t}_perm"},
                             {"oracle": "lip_path", "op": f"{t}_k"},
                             {"oracle": "linf_ascent", "op": f"{t}_k"}]
        plan["search"].append({"oracle": "linf_exhaustive", "op": f"{t}_k"})
        if n <= 7:
            plan["search"] += [{"oracle": "linf_exhaustive", "op": f"{t}_perm"},
                               {"oracle": "j_bracket", "op": f"{t}_perm", "window": None}]
    # one rung of each oracle's ladder in every round
    k_search = 7 if tiny else 10
    trees["zk"] = zspec((k_search - 1) // 2 if k_search % 2 else k_search // 2)
    ops["zk_k"] = _op("zk", {"kind": "random", "scale": 2.0, "seed": _sub(rng)},
                      {"kind": "krange", "k": k_search, "seed": _sub(rng)})
    trees["hb"] = hspec(2, 2) if not tiny else zspec(2)
    ops["hb_perm"] = _op("hb", {"kind": "random", "scale": 2.0, "seed": _sub(rng)},
                         {"kind": "perm", "seed": _sub(rng)})
    plan["search"] += [{"oracle": "linf_exhaustive", "op": "zk_k"},
                       {"oracle": "j_bracket", "op": "hb_perm", "window": None}]
    trees["hl"] = hspec(2, 4 if tiny else 8)
    ops["hl_rand"] = _op("hl", {"kind": "random", "scale": 2.0, "seed": _sub(rng)},
                         {"kind": "random", "seed": _sub(rng)})
    trees["zs"] = zspec(20 if tiny else 100)
    ops["zs_perm"] = _op("zs", {"kind": "uniform", "lo": 0.5, "hi": 2.0, "seed": _sub(rng)},
                         {"kind": "perm", "seed": _sub(rng)})
    plan["extremal"] += [
        {"oracle": "lip_path", "op": "hl_rand"},
        {"oracle": "surj", "op": "zs_perm", "g": {"kind": "image", "scale": 0.05, "seed": _sub(rng)}},
        {"oracle": "surj", "op": "t3_perm", "g": {"kind": "image", "scale": 0.3, "seed": _sub(rng)}},
        {"oracle": "surj", "op": "t5_perm", "g": {"kind": "alternating", "scale": 1.0}},
        {"oracle": "point_ascent", "tree": "t5", "w": 9, "seed": _sub(rng)},
        {"oracle": "point_ascent", "tree": "t3", "w": 5, "seed": _sub(rng)},
    ]
    plan["cli"] = [{"name": "oracle", "mode": "oracle",
                    "args": ["--tree", "s_o.tree.json", "--seed", str(int(rng.integers(0, 10_000)))],
                    "check": {"kind": "oracle"}}]
    plan["shares"] = {"analyze": 0.12, "search": 0.26, "extremal": 0.38, "cli": 0.19, "setup": 0.05}
    hl = (3, 4, 5) if tiny else (6, 7, 8, 9, 10)
    zl = (10, 20, 40) if tiny else (25, 50, 100, 200)
    plan["ladders"] = {
        "tree": [_rung(hspec(2, d), {"kind": "random", "seed": _sub(rng)}) for d in hl],
        "lip_path": [_rung(hspec(2, d), {"kind": "random", "seed": _sub(rng)}) for d in hl],
        "surj": [_rung(zspec(n), {"kind": "perm", "seed": _sub(rng)}, surj=True) for n in zl],
        "linf_exhaustive": [_rung(zspec(k // 2), {"kind": "krange", "k": k, "seed": _sub(rng)})
                            for k in ((5, 7) if tiny else (7, 9, 11, 13))],
        "j_bracket": [_rung(zspec((k - 1) // 2), {"kind": "perm", "seed": _sub(rng)})
                      for k in ((5, 7) if tiny else (7, 9, 11))],
    }


def _plan_cli(plan, rng, tiny):
    # Process start, import, argparse, spec loading from files and report
    # writes are measured only here.  The in-process stages redo the
    # session's analyses and run the oracles on operators of the same size.
    plan["analyze"] = ["s_h", "s_z"]
    ops = plan["ops"]
    ops["s_o"] = _op("s_o", {"kind": "random", "scale": 1.0, "seed": _sub(rng)},
                     {"kind": "random", "seed": _sub(rng)})
    ops["s_p"] = _op("s_o", {"kind": "random", "scale": 1.0, "seed": _sub(rng)},
                     {"kind": "perm", "seed": _sub(rng)})
    plan["search"] = [{"oracle": "linf_exhaustive", "op": "s_o"},
                      {"oracle": "j_bracket", "op": "s_p", "window": None}]
    plan["extremal"] = [
        {"oracle": "lip_path", "op": "s_o"},
        {"oracle": "linf_ascent", "op": "s_o"},
        {"oracle": "point_ascent", "tree": "s_o", "w": 6, "seed": _sub(rng)},
        {"oracle": "surj", "op": "s_p", "g": {"kind": "image", "scale": 0.2, "seed": _sub(rng)}},
    ]
    plan["cli"] = plan["session"]
    plan["shares"] = {"analyze": 0.02, "search": 0.02, "extremal": 0.02, "cli": 0.86, "setup": 0.08}
    plan["ladders"] = {
        "tree": [_rung(zspec(d), {"kind": "zfold"}, {"kind": "inv"}) for d in (16, 32, 64, 128)],
        "lip_path": [_rung(hspec(2, d), {"kind": "perm", "seed": _sub(rng)}) for d in (3, 4, 5, 6)],
        "surj": [_rung(zspec(n), {"kind": "perm", "seed": _sub(rng)}, surj=True) for n in (10, 20, 40)],
    }


def _rung(tree: dict, phi: dict, psi: dict | None = None, surj: bool = False) -> dict:
    rung = {"tree": tree, "phi": phi, "psi": psi or {"kind": "uniform", "lo": 0.5, "hi": 2.0, "seed": 7}}
    if surj:
        rung["g"] = {"kind": "image", "scale": 0.05, "seed": 11}
    return rung


_PLANNERS = {"wide": _plan_wide, "deep": _plan_deep, "oracle": _plan_oracle, "cli": _plan_cli}


# -- building ----------------------------------------------------------------------


class Built:
    """Trees, weights, maps and operators materialized from a plan."""

    def __init__(self, plan: dict, tracer):
        self.plan = plan
        self.trees: dict = {}
        self.ops: dict = {}
        self.targets: dict = {}
        for tid, spec in plan["trees"].items():
            self.trees[tid] = traced_tree(tracer, spec, tid)
        weights: dict = {}
        for oid, o in plan["ops"].items():
            tree = self.trees[o["tree"]]
            wkey = (o["tree"], json.dumps(o["psi"], sort_keys=True))
            if wkey not in weights:
                with tracer.span("functions.weight", oid):
                    weights[wkey] = build_weight(tree, o["psi"])
            phi = traced_map(tracer, tree, o["phi"], oid)
            with tracer.span("operators.op", oid):
                self.ops[oid] = tw.WeightedCompOp(weights[wkey], phi)
        for i, item in enumerate(plan["extremal"]):
            if item["oracle"] == "surj":
                self.targets[i] = build_target(self.ops[item["op"]], item["g"])
        check_budgets(self, plan)

    def window(self, oid: str):
        return self.plan["ops"][oid]["window"]


def traced_tree(tracer, spec: dict, label: str) -> tw.RootedTree:
    with tracer.span("trees.build", label) as s:
        tree = build_tree(spec)
    s["vertices"] = tree.n_vertices
    return tree


def traced_map(tracer, tree: tw.RootedTree, spec: dict, label: str) -> tw.SelfMap:
    with tracer.span("operators.selfmap", label) as s:
        phi = build_map(tree, spec)
    s["vertices"] = tree.n_vertices
    return phi


def oracle_size(kind: str, op=None, tree=None, window=None) -> int:
    if kind == "linf_exhaustive":
        return int(np.unique(op.phi.image).size)
    if kind == "j_bracket":
        limit = op.tree.depth_limit if window is None else window
        return tw.SelfMap.domain_size_for(op.tree, limit)
    return (tree if tree is not None else op.tree).n_vertices


def check_budgets(built: Built, plan: dict) -> None:
    """Refuse any oracle item above that oracle's own cap."""
    for item in plan["search"] + plan["extremal"]:
        kind = item["oracle"]
        op = built.ops.get(item.get("op"))
        tree = built.trees.get(item.get("tree"))
        size = oracle_size(kind, op, tree, item.get("window"))
        if size > ORACLE_CAPS[kind]:
            raise BudgetError(f"{kind} item {item} has size {size} above the cap {ORACLE_CAPS[kind]}")


def build_rung(tracer, rung: dict, label: str):
    """Tree, operator and optional surjectivity target for one ladder rung."""
    tree = traced_tree(tracer, rung["tree"], label)
    phi = traced_map(tracer, tree, rung["phi"], label)
    op = tw.WeightedCompOp(build_weight(tree, rung["psi"]), phi)
    g = build_target(op, rung["g"]) if "g" in rung else None
    return op, g


# -- spec files for the CLI -----------------------------------------------------------


def spec_files(plan: dict, built: Built) -> dict:
    """File name -> JSON object for every file a CLI command reads."""
    files = dict(MALFORMED_FILES)
    files["s_o.tree.json"] = plan["trees"]["s_o"]  # the oracle command reads only a tree
    for cmd in plan["cli"] + plan["session"]:
        oid = cmd["check"].get("op")
        if oid:
            o, op = plan["ops"][oid], built.ops[oid]
            files[f"{oid}.tree.json"] = plan["trees"][o["tree"]]
            files[f"{oid}.psi.json"] = _psi_spec(o["psi"], op)
            files[f"{oid}.phi.json"] = _phi_spec(o["phi"], op)
    return files


def _psi_spec(spec: dict, op: tw.WeightedCompOp) -> dict:
    if spec["kind"] == "cap":
        return {"kind": "builtin", "name": "F_N", "params": {"cap": spec["cap"]}}
    return {"kind": "table", "values": {str(v): float(x) for v, x in enumerate(op.psi.values)}}


def _phi_spec(spec: dict, op: tw.WeightedCompOp) -> dict:
    builtin = {"identity": "identity", "zfold": "zfold", "zdouble": "double"}
    if spec["kind"] in builtin:
        return {"kind": "builtin", "name": builtin[spec["kind"]]}
    return {"kind": "table", "map": {str(v): int(w) for v, w in enumerate(op.phi.image)}}
