from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treewco as tw
from treewco import TreeStructureError
from treewco import trees as trees_mod
from treewco.trees import TreeBudgetError, _label_key

from conftest import shuffled_edges


def ids(tree, *labels):
    return [tree.vertex_of(l) for l in labels]


class TestZLine:
    def test_vertex_set_and_parents(self):
        t = tw.zline(3)
        assert sorted(int(t.label_of(v)) for v in range(len(t))) == list(range(-3, 4))
        assert t.label_of(t.parent[t.vertex_of(2)]) == 1
        assert t.label_of(t.parent[t.vertex_of(-2)]) == -1
        assert t.depth_of(t.vertex_of(-3)) == 3

    def test_id_bijection(self):
        t = tw.zline(5)
        for n in range(1, 6):
            assert t.vertex_of(n) == 2 * n - 1
            assert t.vertex_of(-n) == 2 * n
        assert t.vertex_of(0) == 0

    def test_neighbor_counts(self):
        t = tw.zline(4)
        for v in range(len(t)):
            degree = len(t.children_of(v)) + (0 if v == 0 else 1)
            if t.depth[v] == t.depth_limit:
                assert degree == 1
            else:
                assert degree == 2

    def test_depth_is_abs_label(self):
        t = tw.zline(6)
        for v in range(len(t)):
            assert t.depth_of(v) == abs(int(t.label_of(v)))


class TestHomogeneous:
    def test_vertex_count_convention(self):
        # root q+1 children, interior q children
        assert len(tw.homogeneous(2, 2)) == 1 + 3 + 6
        assert len(tw.homogeneous(2, 3)) == 22
        assert len(tw.homogeneous(2, 4)) == 46

    def test_layer_sizes(self):
        t = tw.homogeneous(2, 2)
        assert len(t.layer(2)) == 6

    def test_interior_degree(self):
        t = tw.homogeneous(3, 3)
        for v in range(len(t)):
            if t.depth[v] != t.depth_limit:
                degree = len(t.children_of(v)) + (0 if v == 0 else 1)
                assert degree == 4


class TestExplicit:
    def test_unconnected_rejected(self):
        with pytest.raises(TreeStructureError):
            tw.explicit_tree([[0, 1], [2, 3]], root=0)

    def test_cycle_rejected(self):
        with pytest.raises(TreeStructureError):
            tw.explicit_tree([[0, 1], [1, 2], [2, 0]], root=0)

    def test_interior_terminal_rejected(self):
        # depth-1 vertex without children, with the deepest vertex at depth 3
        with pytest.raises(TreeStructureError):
            tw.explicit_tree([[0, 1], [0, 2], [2, 3], [3, 4]], root=0)

    def test_valid_build(self):
        t = tw.explicit_tree([[0, 1], [0, 2], [1, 3], [2, 4]], root=0)
        assert len(t) == 5
        assert t.depth_limit == 2


def reference_explicit_tree(edges, root):
    """explicit_tree as two walks: orient the edges by a breadth-first walk
    in set order, then number the oriented tree by a second walk with the
    children sorted by label."""
    adj: dict = {}
    for e in edges:
        if len(e) != 2 or e[0] == e[1]:
            raise TreeStructureError(f"bad edge {e!r}")
        u, v = e
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    if root not in adj and adj:
        raise TreeStructureError(f"root {root!r} not in edge list")
    if not adj:
        adj = {root: set()}
    children: dict = {lab: [] for lab in adj}
    seen, queue, depth, head = {root}, [root], {root: 0}, 0
    n_edges = sum(len(s) for s in adj.values()) // 2
    while head < len(queue):
        u = queue[head]
        head += 1
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                children[u].append(v)
                depth[v] = depth[u] + 1
                queue.append(v)
    if len(seen) != len(adj):
        raise TreeStructureError("edge list is disconnected from the root")
    if n_edges != len(adj) - 1:
        raise TreeStructureError("edge list contains a cycle")
    limit = max(depth.values())
    for lab, d in depth.items():
        if d < limit and not children[lab]:
            raise TreeStructureError(f"interior terminal vertex {lab!r} at depth {d} (< {limit})")
    order, parent_ids, depths, head = [root], [-1], [0], 0
    while head < len(order):
        if depths[head] < limit:
            for c in sorted(children[order[head]], key=_label_key):
                order.append(c)
                parent_ids.append(head)
                depths.append(depths[head] + 1)
        head += 1
    return parent_ids, depths, tuple(order), limit


def explicit_outcome(build, edges, root):
    """(parent, depth, labels, depth limit) as lists, or the error type."""
    try:
        t = build(edges, root)
    except TreeStructureError as exc:
        return type(exc).__name__
    if isinstance(t, tw.RootedTree):
        return t.parent.tolist(), t.depth.tolist(), t.labels, t.depth_limit
    return t


class TestOneWalk:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["random", "zline", "h2"]),
        depth=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        defect=st.sampled_from(
            ["none", "none", "duplicate", "cycle", "component", "loop", "triple", "root"]
        ),
    )
    def test_matches_two_walks(self, kind, depth, seed, defect):
        rng = np.random.default_rng(seed)
        if kind == "random":
            base = tw.random_tree(depth, seed, 1, 3)
        elif kind == "zline":
            base = tw.zline(depth)
        else:
            base = tw.homogeneous(2, min(depth, 3))
        edges, root = shuffled_edges(base, rng)
        labels = [lab for e in edges for lab in e] or [root]
        pick = labels[int(rng.integers(len(labels)))]
        if defect == "duplicate" and edges:
            edges.append(edges[int(rng.integers(len(edges)))][::-1])
        elif defect == "cycle" and len(labels) > 2:
            a, b = rng.choice(len(labels), 2, replace=False)
            if labels[a] != labels[b]:
                edges.append([labels[a], labels[b]])
        elif defect == "component":
            edges.append(["island", 10**9])
        elif defect == "loop":
            edges.insert(int(rng.integers(len(edges) + 1)), [pick, pick])
        elif defect == "triple":
            edges.append([pick, "t", "u"])
        elif defect == "root":
            root = "nowhere"
        ref = explicit_outcome(reference_explicit_tree, edges, root)
        assert explicit_outcome(tw.explicit_tree, edges, root) == ref

    def test_interior_terminal_named_by_id_order(self):
        # b, c and d are all interior terminal vertices; b has the first id
        code = (
            "import treewco as tw\n"
            "try:\n"
            "    tw.explicit_tree([['r','a'],['r','b'],['r','c'],['r','d'],['a','x']], 'r')\n"
            "except tw.TreeStructureError as e:\n"
            "    print(e)\n"
        )
        src = str(Path(tw.__file__).resolve().parents[1])
        messages = set()
        for seed in range(1, 9):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            messages.add(run.stdout.strip())
        assert messages == {"interior terminal vertex 'b' at depth 1 (< 2)"}


class TestBreadthFirstLayout:
    @pytest.mark.parametrize(
        "parent,depth",
        [
            ([], []),  # no root
            ([-1, 0], [0]),  # lengths differ
            ([0, 0], [0, 1]),  # root has a parent
            ([-1, 0], [1, 2]),  # root not at depth 0
            ([-1, -1], [0, 1]),  # a second root
            ([-1, 2, 0], [0, 2, 1]),  # a parent after its child
            ([-1, 0, 0, 2, 1], [0, 1, 1, 2, 2]),  # a depth-first numbering
            ([-1, 0, 0], [0, 1, 2]),  # depth not parent's plus one
        ],
    )
    def test_refuses_arrays_that_are_not_breadth_first(self, parent, depth):
        with pytest.raises(TreeStructureError, match="breadth-first"):
            tw.RootedTree(
                np.asarray(parent, dtype=np.int64), np.asarray(depth, dtype=np.int64),
                "explicit", tuple(range(len(parent))),
            )

    def test_the_depth_limit_is_the_deepest_vertex_depth(self):
        parent, depth, labels = np.asarray([-1, 0, 0, 1]), np.asarray([0, 1, 1, 2]), tuple("rabc")
        t = tw.RootedTree(parent, depth, "explicit", labels)
        assert t.depth_limit == 2 and t.layer_offsets.tolist() == [0, 1, 3, 4]
        with pytest.raises(TypeError):
            tw.RootedTree(parent, depth, "explicit", labels, depth_limit=3)
        # a call that still passes a depth limit shifts the labels to a str
        with pytest.raises(TreeStructureError, match="got a str$"):
            tw.RootedTree(parent, depth, 3, "explicit", labels)

    @pytest.mark.parametrize(
        "parent, depth, got",
        [
            ([-1, 0, 0], np.asarray([0, 1, 1]), "parent must be an integer numpy array, got a list"),
            (np.asarray([-1, 0, 0]), (0, 1, 1), "depth must be an integer numpy array, got a tuple"),
            (np.asarray([-1.0, 0.0, 0.0]), np.asarray([0, 1, 1]), "parent must be an integer "
             "numpy array, got dtype float64"),
            (np.asarray([-1, 0, 0]), np.asarray([0.0, 1.0, 1.0]), "depth must be an integer "
             "numpy array, got dtype float64"),
            (np.asarray([-1, 0, 0]), np.asarray([False, True, True]), "depth must be an integer "
             "numpy array, got dtype bool"),
        ],
        ids=["list_parent", "tuple_depth", "float_parent", "float_depth", "bool_depth"],
    )
    def test_refuses_parent_and_depth_that_are_not_integer_arrays(self, parent, depth, got):
        with pytest.raises(TreeStructureError, match=f"^{re.escape(got)}$"):
            tw.RootedTree(parent, depth, "explicit", ("r", "a", "b"))

    @pytest.mark.parametrize(
        "labels, got",
        [
            (("a",), "got 1"),
            (("a", "b", "c", "d"), "got 4"),
            (["a", "b", "c"], "got a list"),
            (None, "got a NoneType"),
        ],
    )
    def test_refuses_labels_that_are_not_one_per_vertex(self, labels, got):
        with pytest.raises(TreeStructureError, match=re.escape(f"per vertex (3), {got}")):
            tw.RootedTree(np.asarray([-1, 0, 0]), np.asarray([0, 1, 1]), "explicit", labels)

    def test_ranges_are_read_only(self, homog22):
        for arr in (homog22.child_offsets, homog22.layer_offsets, homog22.parent):
            with pytest.raises(ValueError):
                arr[0] = 5


class TestQueries:
    def test_sector_of_root_is_everything(self, line4):
        assert len(line4.sector(0)) == len(line4)

    def test_sector_on_line(self):
        t = tw.zline(3)
        got = sorted(int(t.label_of(v)) for v in t.sector(t.vertex_of(2)))
        assert got == [2, 3]

    def test_sector_in_homogeneous(self, homog22):
        child = int(homog22.children_of(0)[0])
        assert len(homog22.sector(child)) == 3

    def test_sector_size_recursion(self):
        t = tw.random_tree(3, seed=11)
        for v in range(len(t)):
            expect = 1 + sum(len(t.sector(int(c))) for c in t.children_of(v))
            assert len(t.sector(v)) == expect

    def test_distance_examples(self):
        t = tw.zline(3)
        assert t.distance(t.vertex_of(-2), t.vertex_of(3)) == 5
        assert t.distance(t.vertex_of(2), t.vertex_of(2)) == 0

    def test_distance_siblings_homogeneous(self, homog22):
        parent = int(homog22.children_of(0)[0])
        kids = homog22.children_of(parent)
        assert homog22.distance(int(kids[0]), int(kids[1])) == 2

    def test_distance_metric_properties(self):
        t = tw.random_tree(4, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(30):
            v, w = rng.integers(0, len(t), 2)
            assert t.distance(int(v), int(w)) == t.distance(int(w), int(v))
        for v in range(len(t)):
            assert t.distance(0, v) == t.depth_of(v)
            if v != 0:
                assert t.distance(v, t.parent[v]) == 1

    def test_layer_and_ancestor(self):
        t = tw.zline(3)
        assert sorted(int(t.label_of(v)) for v in t.layer(2)) == [-2, 2]
        anc = t.ancestor_at_depth(t.vertex_of(-3), 1)
        assert int(t.label_of(anc)) == -1
        with pytest.raises(IndexError):
            t.layer(9)
        with pytest.raises(IndexError):
            t.ancestor_at_depth(t.vertex_of(1), 3)

    def test_unknown_vertex(self, line4):
        with pytest.raises(KeyError):
            line4.sector(99)
        with pytest.raises(KeyError):
            line4.distance(0, -1)


class TestBuilderRanges:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: tw.zline(-1),
            lambda: tw.homogeneous(2, -1),
            lambda: tw.homogeneous(1, 2),
            lambda: tw.random_tree(-1, seed=1),
            lambda: tw.random_tree(2, seed=1, min_children=0),
            lambda: tw.random_tree(2, seed=1, min_children=3, max_children=2),
        ],
    )
    def test_out_of_range_rejected(self, build):
        with pytest.raises(ValueError):
            build()


def _line3_index_entry_points():
    """(argument name, call[, accepted integer]) for each entry point that
    takes a vertex id, depth or count, on ``zline(3)`` unless it needs a
    deeper tree; each call is fine with its accepted integer, 2 by default."""
    t = tw.zline(3)
    op = tw.composition_op(tw.identity_map(t))

    def table(key=2, image=0):
        rest = {v: 0 for v in range(len(t)) if v != key}
        return tw.map_from_table(t, {**rest, key: image})

    return {
        "check_vertex": ("vertex", t.check_vertex),
        "check_depth": ("depth", t.check_depth),
        "layer": ("depth", t.layer),
        "truncate": ("depth", t.truncate),
        "ancestor_at_depth": ("depth", lambda x: t.ancestor_at_depth(6, x)),
        "children_of": ("vertex", t.children_of),
        "indicator": ("vertex", lambda x: tw.indicator(t, x)),
        "constant_map": ("vertex", lambda x: tw.constant_map(t, x)),
        "depth_cap": ("cap", lambda x: tw.depth_cap(t, x)),
        "ramp_function": ("n", lambda x: tw.ramp_function(tw.zline(8), x, 0.5), 4),
        "point_eval_lip_norm": ("vertex", lambda x: tw.point_eval_lip_norm(t, x)),
        "zline": ("depth", tw.zline),
        "homogeneous_q": ("q", lambda x: tw.homogeneous(x, 2)),
        "homogeneous_depth": ("depth", lambda x: tw.homogeneous(2, x)),
        "random_tree_depth": ("depth", lambda x: tw.random_tree(x, 0)),
        "random_tree_seed": ("seed", lambda x: tw.random_tree(2, x)),
        "random_tree_min_children": ("min_children", lambda x: tw.random_tree(2, 0, x)),
        "random_tree_max_children": ("max_children", lambda x: tw.random_tree(2, 0, 1, x)),
        "map_key": ("vertex", lambda x: table(key=x)),
        "map_image": ("image of vertex 2", lambda x: table(image=x)),
        "domain_depth": ("domain depth", lambda x: tw.SelfMap(t, np.zeros(5, np.int64), x)),
        "window": ("window depth", lambda x: tw.classify_operator(op, None, x)),
        "schedule": ("schedule depth", lambda x: tw.classify_operator(op, [x])),
    }


_INDEX_ENTRY_POINTS = _line3_index_entry_points()


class TestIndexArguments:
    """Every vertex id, depth and count goes through ``trees._integer``:
    a float, a bool or a numpy float is refused by name, never truncated,
    and a numpy integer is taken as a Python ``int``."""

    @pytest.mark.parametrize("entry", _INDEX_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "value", [1.5, 2.0, True, np.float64(1.0)], ids=["1.5", "2.0", "True", "np64_1.0"]
    )
    def test_a_non_integer_is_refused_by_name(self, entry, value):
        name, call, *_ = _INDEX_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            call(value)

    @pytest.mark.parametrize("entry", _INDEX_ENTRY_POINTS)
    def test_a_numpy_integer_is_accepted(self, entry):
        _, call, *accepted = _INDEX_ENTRY_POINTS[entry]
        assert call(np.int64(accepted[0] if accepted else 2)) is not None

    def test_numpy_integers_are_held_as_python_ints(self):
        t = tw.zline(3)
        assert type(t.check_vertex(np.int64(2))) is int
        assert type(t.check_depth(np.uint8(2))) is int
        phi = tw.SelfMap(t, np.zeros(5, np.int64), np.int64(2))
        assert type(phi.domain_depth) is int
        meta = tw.homogeneous(np.int64(2), np.int64(2)).meta
        assert [type(x) for x in meta.values()] == [int]
        r = tw.random_tree(np.int64(2), np.int64(5))
        assert r.meta == {"seed": 5, "min_children": 1, "max_children": 3}
        assert {type(x) for x in r.meta.values()} == {int}
        back = tw.load_tree_spec(json.loads(tw.canonical_json(tw.tree_to_spec(r))))
        assert back.parent.tolist() == r.parent.tolist()
        assert back.depth.tolist() == r.depth.tolist()

    def test_check_depth_names_the_argument_and_the_range(self):
        t = tw.zline(3)
        assert t.check_depth(3) == 3 and t.check_depth(0) == 0
        for n in (-1, 4):
            with pytest.raises(IndexError, match=re.escape(f"window depth {n} outside [0, 3]")):
                t.check_depth(n, "window depth")


class TestVertexBudget:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: tw.homogeneous(2, 30),  # ~3.2e9 vertices
            lambda: tw.zline(10**9),
            lambda: tw.random_tree(40, 0, 2, 3),
        ],
    )
    def test_refused_before_allocating(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(TreeBudgetError, match="MAX_VERTICES"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a budget-sized tree's arrays, not the refused tree's
        assert peak < 64 << 20

    def test_budget_is_inclusive(self):
        with mock.patch.object(trees_mod, "MAX_VERTICES", 10):
            assert len(tw.zline(4)) == 9
            assert len(tw.homogeneous(2, 2)) == 10
            with pytest.raises(TreeBudgetError):
                tw.zline(5)
            with pytest.raises(TreeBudgetError):
                tw.homogeneous(3, 2)
            # 1 + 2 + 4 + 8 vertices: the third layer crosses
            assert len(tw.random_tree(2, 0, 2, 2)) == 7
            with pytest.raises(TreeBudgetError):
                tw.random_tree(3, 0, 2, 2)


class TestViews:
    def test_truncate_is_prefix(self):
        t = tw.zline(6)
        s = t.truncate(3)
        assert len(s) == 7
        assert s.depth_limit == 3
        assert list(s.parent) == list(t.parent[:7])
        assert [s.label_of(v) for v in range(7)] == [t.label_of(v) for v in range(7)]

    def test_random_tree_deterministic(self):
        a = tw.random_tree(4, seed=9, min_children=1, max_children=3)
        b = tw.random_tree(4, seed=9, min_children=1, max_children=3)
        assert list(a.parent) == list(b.parent)

    @pytest.mark.parametrize("seed,lo,hi", [(0, 1, 3), (7, 2, 3), (9, 1, 1), (31, 3, 5)])
    def test_random_tree_matches_per_parent_draws(self, seed, lo, hi):
        # the builder draws a layer's child counts as one array; the seeded
        # trees are those of one scalar draw per parent in id order
        rng = np.random.default_rng(seed)
        parent, layer, start = [-1], 1, 0
        for _ in range(4):
            counts = [int(rng.integers(lo, hi + 1)) for _ in range(layer)]
            for i, c in enumerate(counts):
                parent += [start + i] * c
            start, layer = start + layer, sum(counts)
        assert tw.random_tree(4, seed, lo, hi).parent.tolist() == parent

    def test_random_tree_no_interior_terminal(self):
        t = tw.random_tree(5, seed=2)
        for v in range(len(t)):
            if t.depth[v] != t.depth_limit:
                assert len(t.children_of(v)) >= 1

    def test_dot_export(self, homog22):
        dot = homog22.to_dot()
        assert dot.count(" -> ") == len(homog22) - 1
        overlay = homog22.to_dot({0: 1})
        assert "style=dashed" in overlay

    def test_dot_labels_are_escaped(self):
        t = tw.explicit_tree([["r", 'a"b'], ["r", "c\\d"], ["r", 7]], root="r")
        dot = t.to_dot()
        assert 'label="a\\"b"' in dot
        assert 'label="c\\\\d"' in dot
        assert 'label="7"' in dot and 'label="r"' in dot

    def test_trees_and_operators_compare_by_identity(self):
        # two 1-vertex trees once compared equal through their 1-element arrays
        for make in (lambda: tw.zline(2), lambda: tw.zline(0), lambda: tw.homogeneous(2, 2)):
            a, b = make(), make()
            psi = tw.VertexFunction(a, np.ones(len(a)))
            phi = tw.identity_map(a)
            op = tw.WeightedCompOp(psi, phi)
            assert a == a and a != b and a in [a] and b not in [a]
            assert len({a, b, a}) == 2 and {a: 1}[a] == 1
            for obj in (psi, phi, op):
                assert obj == obj and obj in [obj] and hash(obj) == hash(obj)
            assert op != tw.WeightedCompOp(psi, phi)
            assert len({psi, phi, op, tw.WeightedCompOp(psi, phi)}) == 4

    def test_explicit_round_trip_id_for_id(self):
        # every family and every truncation of each: the limit is the
        # deepest depth, no layer is empty, and the spec rebuilds the tree
        trees = [
            tw.explicit_tree([["a", "b"], ["a", "c"], ["b", "d"], ["c", "e"]], root="a"),
            tw.explicit_tree([[0, "x"], [0, 2], ["x", 3], [2, "y"], [2, 5]], root=0),
            *(tw.zline(d) for d in range(5)),
            tw.homogeneous(2, 3),
            tw.homogeneous(3, 2),
            *(tw.random_tree(3, seed) for seed in range(3)),
            tw.random_tree(3, seed=4, min_children=2, max_children=4),
        ]
        for full in trees:
            for t in (full.truncate(d) for d in range(full.depth_limit + 1)):
                assert t.depth_limit == t.depth[-1]
                assert (np.diff(t.layer_offsets) > 0).all()
                back = tw.load_tree_spec(tw.tree_to_spec(t))
                assert back.parent.tolist() == t.parent.tolist()
                assert back.depth.tolist() == t.depth.tolist()
                assert back.labels == t.labels
