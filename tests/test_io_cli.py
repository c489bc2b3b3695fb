from __future__ import annotations

import contextlib
import copy
import enum
import io
import json
import math
import os
import pickle
import re
import shutil
import struct
import subprocess
import sys
from collections import OrderedDict, namedtuple
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treewco as tw
from treewco import SpecError, cli
from treewco import io as treewco_io
from treewco.cli import main
from treewco.certificate import _Rows
from treewco.io import SCHEMA_VERSION, _float_text, canonical_json, fixture_report, golden_dir


def write(tmp_path: Path, name: str, payload: dict) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


@pytest.fixture
def specs(tmp_path):
    return {
        "tree": write(tmp_path, "tree.json", {"family": "zline", "depth": 4}),
        "psi": write(
            tmp_path, "psi.json", {"kind": "builtin", "name": "F_N", "params": {"cap": 2}}
        ),
        "phi": write(tmp_path, "phi.json", {"kind": "builtin", "name": "identity"}),
    }


class TestLoaders:
    def test_builtin_zfold_matches_formula(self):
        t = tw.zline(6)
        phi = tw.load_map_spec({"kind": "builtin", "name": "zfold"}, t)
        expect = tw.zline_fold(t)
        assert np.array_equal(phi.image, expect.image)

    def test_builtin_ramp_delegates(self):
        t = tw.zline(16)
        f = tw.load_function_spec(
            {"kind": "builtin", "name": "g", "params": {"n": 16, "r": 0.5}}, t
        )
        assert np.array_equal(f.values, tw.ramp_function(t, 16, 0.5).values)

    def test_map_outside_truncation_rejected(self):
        t = tw.zline(3)
        table = {str(v): 0 for v in range(len(t))}
        table["2"] = 99
        with pytest.raises(SpecError) as err:
            tw.load_map_spec({"kind": "table", "map": table}, t)
        assert "phi.map" in str(err.value)

    def test_map_table_images_are_not_coerced(self):
        # once loaded as the identity map
        t = tw.zline(1)
        with pytest.raises(SpecError, match=r"^phi\.map\.0: "):
            tw.load_map_spec({"kind": "table", "map": {"0": 0.9, "1": 1, "2": 2.7}}, t)
        phi = tw.load_map_spec({"kind": "table", "map": {"0": 0, "1": 1, "2": 2}}, t)
        assert phi.image.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("key, lost", [("1_0", "10"), ("\u0663", "3")])
    @pytest.mark.parametrize("which", ["psi", "phi"])
    def test_a_table_key_is_a_vertex_id_in_ascii_digits(self, which, key, lost):
        # int() reads "1_0" as 10 and U+0663 (ARABIC-INDIC DIGIT THREE) as 3
        t = tw.zline(6)
        table = {str(v): 0 for v in range(len(t)) if str(v) != lost}
        table[key] = 0
        load, field = ((tw.load_function_spec, "values") if which == "psi"
                       else (tw.load_map_spec, "map"))
        with pytest.raises(SpecError, match=rf"^{which}\.{field}\.{key}: .*{key!r}"):
            load({"kind": "table", field: table}, t)

    @pytest.mark.parametrize("key", [1.9, True], ids=["float", "bool"])
    @pytest.mark.parametrize("which", ["psi", "phi"])
    def test_a_table_key_that_is_not_a_string_is_a_vertex_id(self, which, key):
        # only the Python API can pass such a key: JSON keys are strings
        t = tw.zline(1)
        load, field = ((tw.load_function_spec, "values") if which == "psi"
                       else (tw.load_map_spec, "map"))
        with pytest.raises(SpecError, match=rf"^{which}\.{field}\.{key}: vertex must be an "
                                            rf"integer, got {key!r}$"):
            load({"kind": "table", field: {0: 0, key: 1, 2: 2}}, t)
        loaded = load({"kind": "table", field: {0: 0, np.int64(1): 1, 2: 2}}, t)
        assert (loaded.values if which == "psi" else loaded.image).tolist() == [0, 1, 2]

    def test_a_table_key_may_be_padded(self):
        t = tw.zline(1)
        f = tw.load_function_spec({"kind": "table", "values": {"00": 1, " 1": 2, "2 ": 3}}, t)
        assert f.values.tolist() == [1.0, 2.0, 3.0]
        phi = tw.load_map_spec({"kind": "table", "map": {"0": 2, "01": 1, "\t2\n": 0}}, t)
        assert phi.image.tolist() == [2, 1, 0]

    def test_partial_function_table_rejected(self):
        t = tw.zline(3)
        with pytest.raises(SpecError) as err:
            tw.load_function_spec({"kind": "table", "values": {"0": 1.0}}, t)
        assert "partial" in str(err.value)

    def test_unknown_builtin_rejected(self):
        t = tw.zline(3)
        with pytest.raises(SpecError):
            tw.load_function_spec({"kind": "builtin", "name": "mystery"}, t)

    def test_double_on_non_line_rejected(self):
        t = tw.homogeneous(2, 3)
        with pytest.raises(SpecError):
            tw.load_map_spec({"kind": "builtin", "name": "double"}, t)

    def test_tree_spec_families(self):
        assert len(tw.load_tree_spec({"family": "zline", "depth": 3})) == 7
        assert len(tw.load_tree_spec({"family": "homogeneous", "q": 2, "depth": 2})) == 10
        r = tw.load_tree_spec({"family": "random", "depth": 3, "seed": 5})
        assert r.depth_limit == 3


def _canonize_reference(obj):
    """The two-pass serializer ``canonical_json`` replaced, kept as the
    byte reference."""
    if isinstance(obj, dict):
        return {str(k): _canonize_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, _Rows)):  # a _Rows reads as its list of rows
        return [_canonize_reference(v) for v in obj]
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if not math.isfinite(x):
            return repr(x)
        return float(f"{x:.12g}")
    return obj


def reference_json(obj) -> str:
    return json.dumps(_canonize_reference(obj), sort_keys=True, indent=2) + "\n"


# -- the one-pass writer before the float text dropped its round trip: the
# byte reference for the present one -----------------------------------------


def _ref_float_text(x: float, memo: dict) -> str:
    text = memo.get(x)
    if text is None:
        text = repr(float(f"{x:.12g}")) if math.isfinite(x) else f'"{x!r}"'
        if x:  # 0.0 and -0.0 are equal keys with different texts
            memo[x] = text
    return text


def _ref_is_pair(p) -> bool:
    return type(p) is list and len(p) == 2 and type(p[0]) is int and type(p[1]) is float


def _ref_write(obj, level: int, out: list, memo: dict) -> None:
    if type(obj) is _Rows:  # read as its list of rows
        obj = list(obj)
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_ref_float_text(float(obj), memo))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        items = {str(k): v for k, v in obj.items()}
        inner = "\n" + "  " * (level + 1)
        sep = "{"
        for key in sorted(items):
            out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _ref_write(items[key], level + 1, out, memo)
            sep = ","
        out.append("\n" + "  " * level + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = "\n" + "  " * (level + 1)
        outer = "\n" + "  " * level
        if all(map(_ref_is_pair, obj)):
            leaf = inner + "  "
            rows = [f"[{leaf}{n},{leaf}{_ref_float_text(v, memo)}{inner}]" for n, v in obj]
            out.append("[" + inner + ("," + inner).join(rows) + outer + "]")
            return
        sep = "["
        for item in obj:
            out.append(sep + inner)
            _ref_write(item, level + 1, out, memo)
            sep = ","
        out.append(outer + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def reference_canonical_json(obj) -> str:
    out: list = []
    _ref_write(obj, 0, out, {})
    out.append("\n")
    return "".join(out)


def _deep_operators():
    """zline(1000) under fold, doubling and identity, with the unit weight,
    1 / (1 + |v|), a depth cap, and weights from 1e-310 to 1e17 with exact
    zeros; the fold map with the half-depth window."""
    t = tw.zline(1000)
    n = np.abs(np.asarray(t.labels, dtype=float))
    rng = np.random.default_rng(18)
    wide = 10.0 ** rng.uniform(-310, 17, t.n_vertices) * rng.choice([-1.0, 1.0], t.n_vertices)
    wide[rng.random(t.n_vertices) < 0.2] = 0.0
    weights = {"unit": np.ones(t.n_vertices), "inv": 1.0 / (1.0 + n),
               "cap": np.minimum(n, 37.0), "wide": wide}
    maps = {"fold": (tw.zline_fold(t), 500), "double": (tw.zline_double(t), None),
            "id": (tw.identity_map(t), None)}
    for wname, w in weights.items():
        for mname, (phi, window) in maps.items():
            yield f"{wname}_{mname}", tw.WeightedCompOp(tw.VertexFunction(t, w), phi), window


_floats = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1 / 3, 1e-17, 2.0**60]))
_ints = st.integers(-(2**70), 2**70)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    _floats,
    st.text(),
)
_depth = st.integers(0, 50)
# profile-like rows and near misses in plain lists, which take the generic
# path; the reference writer takes its row path on the [int, float] ones
_row_shapes = [
    st.tuples(_depth, _floats).map(list),
    st.tuples(st.booleans(), _floats).map(list),
    st.tuples(_depth, _ints).map(list),
    st.tuples(_depth, _floats, _floats).map(list),
    st.tuples(_depth, _floats),
]
_rows = st.one_of(
    *(st.lists(shape, min_size=1, max_size=6) for shape in _row_shapes),
    st.lists(st.one_of(_row_shapes), max_size=6),
)
# keys of every type that prints through str(): equal keys of different
# types (True, 1, 1.0; 1 and "1" after str) print differently
_keys = st.one_of(
    st.text(max_size=6), st.integers(-3, 12), st.booleans(), st.floats(allow_nan=False)
)
_payloads = st.recursive(
    st.one_of(_scalars, _rows),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_keys, children, max_size=5),
        st.tuples(children, children).map(lambda vs: {1: vs[0], "1": vs[1]}),
        children.map(lambda v: [{True: v}, {1: v}, {1.0: v}]),
    ),
    max_leaves=20,
)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Tagged(str):
    """A string whose ``str()`` is not its text."""

    def __str__(self):
        return "tag:" + str.__str__(self)


_Pair = namedtuple("_Pair", "n value")

# values of no exact builtin type: subclasses of the builtins and numpy
# scalars, which no report is made of
_OTHER_TYPES = {
    "int_enum": _Level.HIGH,
    "np_bool": np.bool_(True),
    "np_int64": np.int64(4),
    "np_float32": np.float32(0.1),
    "ordered_dict": OrderedDict([("b", 1.5), ("a", None)]),
    "str_subclass": _Tagged('q"uote'),
    "namedtuple": _Pair(1, 0.25),
}

# payloads that print as a builtin by a path of their own: ``_Rows``, the
# profile list, when empty, and a str-keyed dict past the key table's bound
_AS_BUILTIN = {
    "wide_str_dict": {f"k{i:02d}": i / 7 for i in range(40)},
    "empty_rows": {"p": _Rows(), "q": [_Rows(), (), {}], "r": _Rows(range(1), np.array([0.5]))},
}


_row_values = st.one_of(
    _floats,
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 9.9999999999995e-05]),
)


# step values side by side in one staircase: both zeros, both infinities,
# subnormals and a large power of two
_step_values = st.one_of(
    _row_values, st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                                  2.2250738585072014e-308 / 3, 2.0**60]),
)
# up to a few hundred rows in up to 64 runs of one value, with a bound on
# the run length per staircase: both sides of the writer's step path (128
# rows, one step per 8 rows)
_staircases = st.tuples(st.integers(1, 64), st.sampled_from([4, 8, 16, 60])).flatmap(
    lambda shape: st.lists(st.tuples(_step_values, st.integers(1, shape[1])),
                           min_size=shape[0], max_size=shape[0])
).map(lambda steps: [v for v, run in steps for _ in range(run)])


@st.composite
def _profiles(draw) -> tuple:
    """The depths and values of a profile: depths that run 0, 1, ... (the
    table path) or from 1, as a ``range``, or from 0 with a gap, or along a
    schedule, as a tuple; the values are up to 40 drawn one by one or a
    staircase of runs of equal values."""
    values = draw(st.one_of(st.lists(_row_values, min_size=1, max_size=40), _staircases))
    k = len(values)
    shape = draw(st.sampled_from(["contiguous", "from_one", "gap", "schedule"]))
    if shape == "contiguous":
        depths = range(k)
    elif shape == "from_one":
        depths = range(1, k + 1)
    elif shape == "gap":  # skips depth j
        j = draw(st.integers(min(1, k - 1), k - 1))
        depths = tuple(n + (n >= j) for n in range(k))
    else:
        depths = tuple(2**i for i in range(k))
    return depths, values


def _nest(obj, level: int):
    """``obj`` at indent level ``level``, under alternating objects and lists."""
    for i in range(level):
        obj = {"p": obj} if i % 2 else [obj]
    return obj


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# subnormals, signed zeros, values that round up to a power of ten, the
# edges of the exponent range where .12g and repr differ, and integers
_FLOAT_EDGES = [
    5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0, 9.9999999999995e-05, 1e-4, 1e-5,
    999999999999.5, 99999999999.95, 1e11, 1e12, 1e15 + 1.0, 9999999999999998.0, 1e16,
    1.0, -3.0, 2.0**53, 1.7976931348623157e308,
]


class TestCanonicalJson:
    @given(_payloads)
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_reference_serializer(self, payload):
        assert canonical_json(payload) == reference_json(payload)

    @given(_payloads)
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_the_round_trip_writer(self, payload):
        assert canonical_json(payload) == reference_canonical_json(payload)

    @given(st.one_of(st.integers(0, 2**64 - 1).map(_double), st.sampled_from(_FLOAT_EDGES)))
    @settings(max_examples=2000, deadline=None)
    def test_float_text_is_the_round_trip_text(self, x):
        want = repr(float(f"{x:.12g}")) if math.isfinite(x) else f'"{x!r}"'
        assert _float_text(x, {}) == want
        memo: dict = {}
        assert [_float_text(y, memo) for y in (x, -x, x)] == [want, _ref_float_text(-x, {}), want]

    @pytest.mark.parametrize("x", _FLOAT_EDGES)
    def test_float_text_at_the_edges(self, x):
        assert _float_text(x, {}) == repr(float(f"{x:.12g}"))

    def test_signed_zeros_keep_their_sign_in_profiles(self):
        rows = [[0, 0.0], [1, -0.0], [2, 0.0], [3, -0.0]]
        text = canonical_json({"p": rows, "q": [-0.0, 0.0]})
        assert text == reference_canonical_json({"p": rows, "q": [-0.0, 0.0]})
        assert text.count("-0.0") == 3

    @given(_profiles(), st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_typed_rows_match_the_plain_list_and_the_round_trip_writer(self, profile, level):
        depths, values = profile
        rows = [[n, v] for n, v in zip(depths, values)]
        text = canonical_json(_nest(_Rows(depths, np.array(values)), level))
        assert text == canonical_json(_nest(rows, level))
        assert text == reference_canonical_json(_nest(rows, level))

    @pytest.mark.parametrize("level", range(6))
    def test_a_profile_past_the_row_table_grows_it(self, level):
        k = len(treewco_io._HEADS.get(level, ())) + 3
        rows = [[n, n / 7] for n in range(k)]
        typed = _Rows(range(k), np.arange(k) / 7)
        assert canonical_json(_nest(typed, level)) == reference_canonical_json(_nest(rows, level))
        assert len(treewco_io._HEADS[level]) == k

    @pytest.mark.parametrize("level", [0, 3])
    @pytest.mark.parametrize("over", [0, 1], ids=["under_the_ratio", "at_the_ratio"])
    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["K-1", "K", "K+1"])
    def test_a_long_profile_of_few_steps_is_written_per_step(self, extra, over, level, monkeypatch):
        k = treewco_io._STEP_ROWS + extra
        # the most steps for which _STEP_RATIO * steps < k, or one more
        steps = (k - 1) // treewco_io._STEP_RATIO + over
        pattern = [0.0, -0.0, math.inf, 5e-324, -math.inf, 2.0**60, 1 / 3]
        values = np.array([pattern[i % len(pattern)] for i in range(steps)]).repeat(
            np.diff(np.linspace(0, k, steps + 1).astype(int)))
        assert values.size == k and np.count_nonzero(np.diff(values.view(np.int64))) == steps - 1
        rows = [[n, v] for n, v in enumerate(values.tolist())]
        want = reference_canonical_json(_nest(rows, level))
        texted: list = []  # the sizes of the value arrays the writer reads as text

        class Counted(np.ndarray):
            def tolist(self):
                texted.append(self.size)
                return super().tolist()

        typed = _Rows(range(k), values.view(Counted))

        def no_rows(*args):
            raise AssertionError("the writer built a row")

        monkeypatch.setattr(_Rows, "__iter__", no_rows)
        monkeypatch.setattr(_Rows, "__getitem__", no_rows)
        assert canonical_json(_nest(typed, level)) == want
        per_step = k >= treewco_io._STEP_ROWS and not over
        assert texted == [steps if per_step else k]

    def test_profile_producers_hand_the_writer_typed_rows(self, specs, monkeypatch):
        t = tw.zline(8)
        op = tw.WeightedCompOp(tw.VertexFunction(t, 1.0 / (1.0 + t.depth)), tw.zline_fold(t))
        quantities = tw.operator_quantities(op, 4)
        profiles = {name: quantities[name] for name in ("linf_ess_tail", "lip_ess_tail")}
        for schedule in (None, [2, 3, 7]):
            certs = tw.classify_operator(op, schedule, 4)
            for cert in certs["linf"] + certs["lip"]:
                assert cert.to_json()["depth_profile"] is cert.depth_profile, cert.statement
                profiles[f"{cert.statement}/{schedule}"] = cert.depth_profile
        seven = tw.seven_equivalences(op.phi)
        assert seven.to_json()["depth_profile"] is seven.depth_profile
        profiles["seven_equivalences"] = seven.depth_profile
        report = fixture_report(tw.fixture_by_name("bounded-not-compact"))
        profiles["squared_weight"] = report["squared_weight"]["lip_ess_tail"]
        payloads = []
        monkeypatch.setattr(cli, "canonical_json", lambda p: payloads.append(p) or "")
        args = ["--tree", specs["tree"], "--psi", specs["psi"], "--phi", specs["phi"]]
        assert main(["norms", *args]) == 0
        profiles["norms"] = payloads[-1]["psi_norms"]["tail_profile"]
        for name, rows in profiles.items():
            assert type(rows) is _Rows, name
            assert {(type(n), type(v)) for n, v in rows} <= {(int, float)}, name
            # the writer's row-head test reads the depths as rising strictly from 0 or more
            depths = [n for n, _ in rows]
            assert all(map(int.__lt__, depths, depths[1:])), name
            assert not depths or depths[0] >= 0, name

    def test_typed_rows_are_read_only_and_equal_their_list(self):
        values = np.array([0.5, -0.0, math.inf])
        rows = _Rows((1, 2, 4), values)
        want = [[1, 0.5], [2, -0.0], [4, math.inf]]
        assert rows == want and want == rows and list(rows) == want and not rows != want
        assert rows != want[:2] and rows != [tuple(row) for row in want] and rows != tuple(want)
        assert rows[1] == [2, -0.0] and rows[-1] == [4, math.inf]
        assert [tuple(map(type, row)) for row in rows] == [(int, float)] * 3
        assert rows == _Rows((1, 2, 4), values.copy()) and len(rows) == 3 and not _Rows()
        assert copy.deepcopy(rows) == rows and pickle.loads(pickle.dumps(rows)) == rows
        with pytest.raises(TypeError, match="unhashable"):
            hash(rows)
        with pytest.raises(AttributeError, match="read-only"):
            rows.values = np.zeros(3)
        with pytest.raises(AttributeError, match="read-only"):
            del rows.depths
        with pytest.raises(TypeError):
            rows[0] = [1, 1.0]
        with pytest.raises(AttributeError):
            rows.append([8, 1.0])
        with pytest.raises(ValueError, match="read-only"):
            rows.values[0] = 1.0
        assert values.flags.writeable and rows == want  # the caller's array stays its own

    def test_a_slice_of_typed_rows_is_typed_rows_equal_to_the_list_slice(self):
        for depths in ((1, 2, 4), range(1, 4)):
            values = np.array([0.5, -0.0, math.inf])
            rows = _Rows(depths, values)
            rows_list = list(rows)
            for cut in (slice(-2, None), slice(None, 1), slice(None, None, -1), slice(3, 9)):
                part = rows[cut]
                assert isinstance(part, _Rows) and part == rows_list[cut]
                assert type(part.depths) is type(depths)
                assert np.shares_memory(part.values, values) or not len(part)
        profile = tw.classify_operator(tw.composition_op(tw.zline_fold(tw.zline(8))))
        rows = profile["linf"][0].depth_profile
        assert rows[-2:] == list(rows)[-2:] == [[4, 1.0], [8, 1.0]]

    @pytest.mark.parametrize(
        "depths, values",
        [(range(2), np.zeros(3)), ([[0, 0.5]], np.zeros(0)), ((1,), np.zeros((1, 1)))],
        ids=["short", "list_of_rows", "two_dimensional"],
    )
    def test_typed_rows_need_one_value_per_depth(self, depths, values):
        with pytest.raises(ValueError, match="depths for values of shape"):
            _Rows(depths, values)

    def test_profiles_are_views_of_the_operator_rows(self, monkeypatch):
        t = tw.zline(8)
        op = tw.composition_op(tw.zline_fold(t))
        payload = tw.analysis_report(op, None, 4)
        q = payload["quantities"]
        certs = {c["statement"]: c for c in payload["certificates"]}
        assert np.shares_memory(q["linf_ess_tail"].values, op.tail_sups)
        assert np.shares_memory(q["lip_ess_tail"].values, op.tail_sups)
        assert np.shares_memory(certs["Linf.Isometry"]["depth_profile"].values, op.preimage_inf)
        profiles = [q["linf_ess_tail"], q["lip_ess_tail"], payload["seven_equivalences"]["depth_profile"]]
        profiles += [c["depth_profile"] for c in certs.values()]
        assert {type(rows) for rows in profiles} == {_Rows}
        text = reference_canonical_json(payload)

        def no_rows(*args):
            raise AssertionError("the writer built a row")

        # the writer reads the two columns and builds no row
        monkeypatch.setattr(_Rows, "__iter__", no_rows)
        monkeypatch.setattr(_Rows, "__getitem__", no_rows)
        assert canonical_json(payload) == text

    @pytest.mark.parametrize(
        "op, window", [pytest.param(op, window, id=name) for name, op, window in _deep_operators()]
    )
    def test_deep_reports_match_the_round_trip_writer(self, op, window):
        payload = tw.analysis_report(op, None, window)
        assert canonical_json(payload) == reference_canonical_json(payload)

    @pytest.mark.parametrize(
        "payload",
        [np.bool_(True), np.zeros(2), object(), {"a": [1, {"b": np.bool_(False)}]}, [[1, np.zeros(1)]]],
        ids=["np_bool", "ndarray", "object", "nested_np_bool", "ndarray_in_row"],
    )
    def test_unserializable_types_raise(self, payload):
        with pytest.raises(TypeError):
            reference_json(payload)
        with pytest.raises(TypeError):
            canonical_json(payload)

    @pytest.mark.parametrize("value", list(_OTHER_TYPES.values()), ids=list(_OTHER_TYPES))
    def test_other_types_raise(self, value):
        # alone, as a dict value, and as a list item beside builtins; none is
        # a builtin, so the message names the type with its module
        name = f"{type(value).__module__}.{type(value).__qualname__}"
        for payload in (value, {"a": value}, [1, "b", value]):
            with pytest.raises(TypeError, match=f"^Object of type {re.escape(name)} "):
                canonical_json(payload)

    @pytest.mark.parametrize("payload", list(_AS_BUILTIN.values()), ids=list(_AS_BUILTIN))
    def test_other_types_print_as_their_builtin(self, payload):
        assert canonical_json(payload) == reference_canonical_json(payload)
        assert canonical_json(payload) == reference_json(payload)

    def test_equal_keys_of_different_types_print_apart(self):
        payload = [{"True": "s"}, {True: "b"}, {1: "i"}, {1.0: "f"}, {1: "int", "1": "str"}]
        text = canonical_json(payload)
        assert text == reference_canonical_json(payload)
        for item in ('"True": "s"', '"True": "b"', '"1": "i"', '"1.0": "f"', '"1": "str"'):
            assert item in text

    def test_the_key_table_holds_str_keys_up_to_its_bound(self, monkeypatch):
        monkeypatch.setattr(treewco_io, "_KEYS", {})
        others = [{True: 1}, {1: 2}, {1.0: 3}, {1: "int", "1": "str"}, {_Tagged("a"): 4},
                  {f"k{i:02d}": i for i in range(treewco_io._KEYS_PER_DICT + 1)}]
        assert canonical_json(others) == reference_canonical_json(others)
        assert treewco_io._KEYS == {}
        bound = treewco_io._KEYS_MAX
        many = [{f"k{i}": i, "shared": 0.5} for i in range(bound + 50)]
        assert canonical_json(many) == reference_canonical_json(many)
        assert len(treewco_io._KEYS) == bound
        for level, keys in treewco_io._KEYS:
            assert level == 1 and all(type(k) is str for k in keys)
        # a full table leaves new key sets to the per-call path
        assert canonical_json({"new": 1, "keys": 2}) == reference_canonical_json({"new": 1, "keys": 2})
        assert len(treewco_io._KEYS) == bound

    def test_float_formatting(self):
        text = canonical_json({"x": 1 / 3})
        assert "0.333333333333" in text

    def test_sorted_keys(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')

    def test_reports_byte_stable(self):
        fx = tw.fixture_by_name("z-isometry")
        assert canonical_json(fixture_report(fx)) == canonical_json(fixture_report(fx))


class TestCli:
    def test_analyze(self, specs, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            ["analyze", "--tree", specs["tree"], "--psi", specs["psi"],
             "--phi", specs["phi"], "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        statements = {c["statement"] for c in payload["certificates"]}
        assert "Linf.Bounded" in statements and "Lip.NoIsometry" in statements

    def test_analyze_tol_is_the_classifiers_zero_tol(self, tmp_path):
        # a flat tail of 1e-4 never decays: only a zero_tol above it makes
        # the compactness trend consistent
        t = tw.zline(8)
        paths = {
            "tree": write(tmp_path, "tree.json", {"family": "zline", "depth": 8}),
            "psi": write(
                tmp_path, "psi.json", {"kind": "table", "values": {str(v): 1e-4 for v in range(len(t))}}
            ),
            "phi": write(tmp_path, "phi.json", {"kind": "builtin", "name": "identity"}),
        }
        op = tw.WeightedCompOp(tw.VertexFunction(t, np.full(len(t), 1e-4)), tw.identity_map(t))
        env = dict(os.environ, PYTHONPATH=str(Path(tw.__file__).resolve().parents[1]))
        compact = {}
        for tol in ("1e-6", "1e-3"):
            proc = subprocess.run(
                [sys.executable, "-m", "treewco.cli", "analyze", "--tree", paths["tree"],
                 "--psi", paths["psi"], "--phi", paths["phi"], "--tol", tol],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            certs = tw.classify_operator(op, None, None, zero_tol=float(tol))
            assert proc.stdout == canonical_json({
                "schema": SCHEMA_VERSION,
                "certificates": [c.to_json() for c in certs["linf"] + certs["lip"]],
                "quantities": tw.operator_quantities(op),
            })
            compact[tol] = json.loads(proc.stdout)["certificates"][1]
        assert compact["1e-6"]["statement"] == "Linf.Compact"
        assert compact["1e-6"]["verdict"] == "TrendInconsistent"
        assert compact["1e-3"]["verdict"] == "TrendConsistent"

    def test_norms(self, specs, capsys):
        rc = main(["norms", "--tree", specs["tree"], "--psi", specs["psi"], "--phi", specs["phi"]])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["psi_norms"]["lip_norm"] == 1.0

    def test_oracle_random_op(self, specs, capsys):
        rc = main(["oracle", "--tree", specs["tree"], "--seed", "7"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["linf"]["agree"] and payload["lip"]["agree"]
        assert payload["lip"]["within_bounds"]

    @pytest.mark.parametrize(
        "tree", [{"family": "zline", "depth": 8}, {"family": "homogeneous", "q": 2, "depth": 4}]
    )
    def test_oracle_above_the_exhaustive_cap(self, tmp_path, capsys, tree):
        # 17 and 31 vertices: the bounded-function norm falls back from the
        # exhaustive search, and both norms report one attained witness
        rc = main(["oracle", "--tree", write(tmp_path, "tree.json", tree), "--seed", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["linf"]["agree"] and payload["lip"]["agree"]
        assert payload["lip"]["within_bounds"]
        for space in ("linf", "lip"):
            res = payload[space]["oracle"]
            assert res["method"] == "AttainedWitness" and res["search_size"] == 1
            assert "maximizer" not in res["witness"]

    @pytest.mark.parametrize("n_vertices", [16, 17])
    def test_oracle_lipschitz_norm_searched_up_to_the_cap(self, tmp_path, capsys, n_vertices):
        # a path: depth n - 1, so the witness f = min(|x|, d) is not the
        # constant; 16 vertices fit the extreme-point search, 17 do not
        tree = {"family": "explicit", "root": 0,
                "edges": [[v, v + 1] for v in range(n_vertices - 1)]}
        rc = main(["oracle", "--tree", write(tmp_path, "tree.json", tree), "--seed", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        lip = payload["lip"]
        assert lip["agree"] and lip["within_bounds"]
        if n_vertices <= tw.oracle.MAX_EXHAUSTIVE_VERTICES_MAX:
            assert lip["oracle"]["method"] == "ExtremePoints"
            assert lip["oracle"]["search_size"] == 2 + 2 ** (n_vertices - 1)
            assert lip["oracle"]["witness"]["maximizer_lip_norm"] == 1.0
        else:
            assert lip["oracle"]["method"] == "AttainedWitness"
            assert lip["oracle"]["search_size"] == 1

    def test_cli_modes_do_not_import_numpy_ma(self, specs):
        # numpy.ma costs a fresh process about 11 ms and 1.1 MB; numpy's
        # np.unique imports it on first call
        script = (
            "import contextlib, io, json, sys\n"
            "from treewco.cli import main\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(args) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        files = ["--tree", specs["tree"], "--psi", specs["psi"], "--phi", specs["phi"]]
        runs = json.dumps([["analyze", *files], ["oracle", *files]])
        env = dict(os.environ, PYTHONPATH=str(Path(tw.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script, runs], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_oracle_seed_determinism(self, specs, capsys):
        main(["oracle", "--tree", specs["tree"], "--seed", "9"])
        first = capsys.readouterr().out
        main(["oracle", "--tree", specs["tree"], "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_oracle_report_takes_an_operator_or_a_tree_to_draw_one_on(self, specs, capsys):
        # the draw the oracle mode makes on a tree alone, made here
        tree = tw.load_tree_spec(json.loads(Path(specs["tree"]).read_text(encoding="utf-8")))
        rng = np.random.default_rng(9)
        op = tw.WeightedCompOp(tw.random_function(tree, rng), tw.random_map(tree, rng))
        assert main(["oracle", "--tree", specs["tree"], "--seed", "9"]) == 0
        text = capsys.readouterr().out
        assert canonical_json(treewco_io.oracle_report(op, 9)) == text
        assert canonical_json(treewco_io.oracle_report(tree, 9)) == text

    def test_oracle_negative_seed_names_the_argument(self, specs, capsys):
        assert main(["oracle", "--tree", specs["tree"], "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "spec error: args.seed: must be >= 0, got -1\n"

    def test_oracle_negative_seed_refused_with_both_specs(self, specs, capsys):
        # no randomness is drawn here, but the seed is still checked
        args = ["--tree", specs["tree"], "--psi", specs["psi"], "--phi", specs["phi"]]
        assert main(["oracle", *args, "--seed", "-4"]) == 1
        assert capsys.readouterr().err == "spec error: args.seed: must be >= 0, got -4\n"
        assert main(["oracle", *args, "--seed", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 4

    @pytest.mark.parametrize("given", ["psi", "phi"])
    def test_oracle_refuses_a_lone_psi_or_phi(self, specs, capsys, given):
        rc = main(["oracle", "--tree", specs["tree"], f"--{given}", specs[given]])
        assert rc == 1
        assert capsys.readouterr().err == (
            "spec error: args: oracle needs both --psi and --phi, or neither\n"
        )

    def test_export_escapes_quotes_and_backslashes(self, tmp_path, capsys):
        edges = [["r", 'a"b'], ["r", "c\\d"]]
        tree = write(
            tmp_path, "t.json", {"family": "explicit", "edges": edges, "root": "r", "depth": 1}
        )
        assert main(["export", "--tree", tree]) == 0
        dot = capsys.readouterr().out
        assert 'label="a\\"b"' in dot and 'label="c\\\\d"' in dot

    def test_export_node_count(self, tmp_path, capsys):
        tree = write(tmp_path, "homog.json", {"family": "homogeneous", "q": 2, "depth": 3})
        rc = main(["export", "--tree", tree])
        assert rc == 0
        dot = capsys.readouterr().out
        assert dot.count("fillcolor") == 22
        assert dot.count(" -> ") == 21

    def test_export_with_map_overlay(self, tmp_path, capsys):
        tree = write(tmp_path, "t.json", {"family": "zline", "depth": 2})
        phi = write(tmp_path, "p.json", {"kind": "builtin", "name": "zfold"})
        rc = main(["export", "--tree", tree, "--phi", phi])
        assert rc == 0
        assert "style=dashed" in capsys.readouterr().out

    def test_spec_error_exit_code(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", {"family": "nope"})
        rc = main(["export", "--tree", bad])
        assert rc == 1
        assert "spec error" in capsys.readouterr().err

    def test_examples_ok(self, capsys):
        rc = main(["examples"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[OK]") == 3

    def test_examples_detects_drift(self, tmp_path, monkeypatch, capsys):
        alt = tmp_path / "golden"
        shutil.copytree(golden_dir(), alt)
        target = alt / "z-isometry.json"
        target.write_text(target.read_text().replace('"Holds"', '"Fails"', 1))
        monkeypatch.setattr(cli, "golden_dir", lambda: alt)
        rc = main(["examples"])
        assert rc == 2
        assert "[DRIFT]" in capsys.readouterr().out

    def test_examples_writes_reports(self, tmp_path, capsys):
        rc = main(["examples", "--out", str(tmp_path / "reports")])
        assert rc == 0
        assert (tmp_path / "reports" / "z-isometry.json").exists()

    @pytest.mark.parametrize(
        "mode,flag",
        [("analyze", "--seed"), ("norms", "--tol"), ("oracle", "--window"),
         ("examples", "--tree"), ("export", "--psi")],
    )
    def test_flag_the_mode_does_not_read_is_a_usage_error(self, capsys, mode, flag):
        # each of these once exited 0 and dropped the flag
        with pytest.raises(SystemExit) as exc:
            main([mode, flag, "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_cli_block_lists_each_modes_flags(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```", 2)[1]
        documented = {}
        for line in block.splitlines():
            if line.startswith("treewco "):
                documented[line.split()[1]] = set(re.findall(r"--([a-z]+)", line))
        assert documented == {mode: set(flags) for mode, (_, flags) in cli._MODES.items()}

    @pytest.mark.parametrize("case", ["analyze_nodir", "analyze_dir", "export_nodir", "examples_file"])
    def test_unwritable_out_exits_one(self, specs, tmp_path, capsys, case):
        spec_args = ["--tree", specs["tree"], "--psi", specs["psi"], "--phi", specs["phi"]]
        (tmp_path / "file").write_text("")
        argv = {
            "analyze_nodir": ["analyze", *spec_args, "--out", str(tmp_path / "nodir" / "r.json")],
            "analyze_dir": ["analyze", *spec_args, "--out", str(tmp_path)],
            "export_nodir": ["export", "--tree", specs["tree"], "--out",
                             str(tmp_path / "nodir" / "t.dot")],
            "examples_file": ["examples", "--out", str(tmp_path / "file")],
        }[case]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("spec error: args.out: cannot write: ")
        assert captured.out == ""

    def test_analyze_fold_fixture_from_spec_files(self, tmp_path):
        # the fold fixture expressed as spec files, through the loader path
        fx_op = tw.fixture_by_name("z-isometry").build(8)
        tree = write(tmp_path, "t.json", {"family": "zline", "depth": 8})
        psi = write(
            tmp_path,
            "psi.json",
            {
                "kind": "table",
                "values": {str(v): float(fx_op.psi.values[v]) for v in range(17)},
            },
        )
        phi = write(tmp_path, "phi.json", {"kind": "builtin", "name": "zfold"})
        out = tmp_path / "report.json"
        rc = main(
            ["analyze", "--tree", tree, "--psi", psi, "--phi", phi,
             "--window", "4", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        verdicts = {c["statement"]: c["verdict"] for c in payload["certificates"]}
        assert verdicts["Linf.Isometry"] == "Holds"
        assert verdicts["Linf.BoundedBelow"] == "Holds"


BAD_INT_FIELDS = [
    ("tree", {"family": "zline", "depth": [1]}, "tree.depth"),
    ("tree", {"family": "zline", "depth": True}, "tree.depth"),
    ("tree", {"family": "zline", "depth": 2.5}, "tree.depth"),
    ("tree", {"family": "homogeneous", "q": "2", "depth": 2}, "tree.q"),
    ("tree", {"family": "random", "depth": 2, "seed": None}, "tree.seed"),
    ("tree", {"family": "random", "depth": 2, "seed": 1, "min_children": False}, "tree.min_children"),
    ("tree", {"family": "random", "depth": 2, "seed": 1, "max_children": [3]}, "tree.max_children"),
    ("psi", {"kind": "builtin", "name": "F_N", "params": {"cap": [2]}}, "psi.params.cap"),
    ("psi", {"kind": "builtin", "name": "g", "params": {"n": True, "r": 0.5}}, "psi.params.n"),
    ("psi", {"kind": "builtin", "name": "chi", "params": {"vertex": 1.0}}, "psi.params.vertex"),
    ("psi", {"kind": "builtin", "name": "eta", "params": {"vertex": "1"}}, "psi.params.vertex"),
    ("phi", {"kind": "builtin", "name": "constant", "params": {"target": [0]}}, "phi.params.target"),
]


BAD_SECTIONS = [
    ("tree", 5, "tree"),
    ("tree", [{"family": "zline", "depth": 2}], "tree"),
    ("psi", "F_N", "psi"),
    ("psi", {"kind": "table", "values": [1, 2]}, "psi.values"),
    ("psi", {"kind": "builtin", "name": "F_N", "params": [2]}, "psi.params"),
    ("phi", None, "phi"),
    ("phi", {"kind": "table", "map": [0, 1]}, "phi.map"),
    ("phi", {"kind": "builtin", "name": "constant", "params": 0}, "phi.params"),
]

# map images must be integer vertex ids, weights finite non-bool numbers
BAD_TABLE_ENTRIES = [
    ("phi", {"kind": "table", "map": {"0": 0.9, "1": 1, "2": 2.7}}, "phi.map.0"),
    ("phi", {"kind": "table", "map": {"0": 0, "1": True}}, "phi.map.1"),
    ("phi", {"kind": "table", "map": {"0": "1"}}, "phi.map.0"),
    ("phi", {"kind": "table", "map": {"0": None}}, "phi.map.0"),
    ("phi", {"kind": "table", "map": {"0": 0, "x": 0}}, "phi.map.x"),
    ("phi", {"kind": "table", "map": {"0": 10**30}}, "phi.map"),
    ("psi", {"kind": "table", "values": {"0": True}}, "psi.values.0"),
    ("psi", {"kind": "table", "values": {"0": 1, "1": "2.0"}}, "psi.values.1"),
    ("psi", {"kind": "table", "values": {"0": None}}, "psi.values.0"),
    ("psi", {"kind": "table", "values": {"0": [1.0]}}, "psi.values.0"),
    ("psi", {"kind": "table", "values": {"0": float("inf")}}, "psi.values.0"),
    ("psi", {"kind": "table", "values": {"0": 10**400}}, "psi.values.0"),
    ("psi", {"kind": "table", "values": {"99": 1.0}}, "psi.values.99"),
]


# lookups by a spec's strings: an unhashable builtin name must not reach the
# builtin table, and table keys naming one vertex twice ("1", "01", "1 ")
# once let the last entry win silently.  Nor may an unhashable root reach
# the tree builder's label lookup, or a negative seed numpy's generator,
# whose errors name no field
BAD_LOOKUPS = [
    ("psi", {"kind": "builtin", "name": ["F_N"]}, "psi.name"),
    ("phi", {"kind": "builtin", "name": {}}, "phi.name"),
    ("psi", {"kind": "table", "values": {"0": 1, "1": 2, "2": 3, "01": 9}}, "psi.values.01"),
    ("phi", {"kind": "table", "map": {"0": 0, "1": 1, "1 ": 0}}, "phi.map.1 "),
    ("tree", {"family": "explicit", "edges": [[0, 1]], "root": [0]}, "tree.root"),
    ("tree", {"family": "random", "depth": 2, "seed": -1}, "tree.seed"),
]


# table keys that int() reads but a vertex id is not written as: on the
# zline(4) specs "0_8" and "\u0668" (ARABIC-INDIC DIGIT EIGHT) once loaded as
# the missing vertex 8
BAD_TABLE_KEYS = [
    (which, {"kind": "table", field: {**{str(v): 0 for v in range(8)}, key: 0}},
     f"{which}.{field}.{key}")
    for which, field in (("psi", "values"), ("phi", "map"))
    for key in ("0_8", "\u0668")
]


# tree builder inputs that once passed or failed with no field named: a
# 2-letter string made an edge, an object edge raised a KeyError, and a
# child count past int64 stopped the generator's draw
BAD_BUILDER_INPUTS = [
    ("tree", {"family": "explicit", "edges": ["ab"], "root": "a"}, "tree.edges"),
    ("tree", {"family": "explicit", "edges": [{"x": 1, "y": 2}], "root": 1}, "tree.edges"),
    ("tree", {"family": "random", "depth": 2, "seed": 0, "max_children": 10**20},
     "tree.max_children"),
    ("tree", {"family": "random", "depth": 2, "seed": 0, "min_children": 2**63,
              "max_children": 2**63}, "tree.min_children"),
]


# the tree builders' own ranges, checked at load time, and their vertex
# budget
BAD_RANGES = [
    ("tree", {"family": "homogeneous", "q": 2, "depth": 30}, "tree.depth"),
    ("tree", {"family": "homogeneous", "q": 1, "depth": 2}, "tree.q"),
    ("tree", {"family": "homogeneous", "q": 2, "depth": -1}, "tree.depth"),
    ("tree", {"family": "zline", "depth": -3}, "tree.depth"),
    ("tree", {"family": "random", "depth": -1, "seed": 1}, "tree.depth"),
    ("tree", {"family": "random", "depth": 2, "seed": 1, "min_children": 0}, "tree.min_children"),
    ("tree", {"family": "random", "depth": 2, "seed": 1, "min_children": 3, "max_children": 2},
     "tree.max_children"),
    ("tree", {"family": "explicit", "edges": [[0, 1]], "root": 0, "depth": -1}, "tree.depth"),
]


# fields no loader reads: each once loaded silently, so a misspelt
# optional field ("min_chidren") left its field at the default.  Only a
# spec's top level may carry "schema", which tree_to_spec writes
UNKNOWN_FIELDS = [
    ("tree", {"family": "random", "depth": 3, "seed": 1, "min_chidren": 2}, "tree.min_chidren"),
    ("tree", {"family": "zline", "depth": 4, "q": 2}, "tree.q"),
    ("tree", {"family": "explicit", "edges": [[0, 1]], "root": 0, "seed": 1}, "tree.seed"),
    ("psi", {"kind": "table", "values": {}, "value": {}}, "psi.value"),
    ("psi", {"kind": "builtin", "name": "F_N", "param": {"cap": 2}}, "psi.param"),
    ("psi", {"kind": "builtin", "name": "F_N", "params": {"cap": 2, "r": 1.0}}, "psi.params.r"),
    ("phi", {"kind": "table", "map": {}, "maps": {}}, "phi.maps"),
    ("phi", {"kind": "builtin", "name": "identity", "params": {"target": 0}},
     "phi.params.target"),
    ("phi", {"kind": "builtin", "name": "constant", "params": {"target": 0, "schema": 1}},
     "phi.params.schema"),
]


# command-line arguments out of range for the zline(4) specs; norms reads
# only the window
BAD_ARGS = [
    ("analyze", ["--window", "99"], "args.window: window depth 99 outside [0, 4]"),
    ("analyze", ["--window", "-1"], "args.window: window depth -1 outside [0, 4]"),
    ("norms", ["--window", "5"], "args.window: window depth 5 outside [0, 4]"),
    ("analyze", ["--depths", "0"], "args.depths: schedule must be within 1..4"),
    ("analyze", ["--depths", "9"], "args.depths: schedule must be within 1..4"),
    ("analyze", ["--depths", "4,2,1"], "args.depths: schedule depths must be strictly increasing"),
    ("analyze", ["--depths", "1,1"], "args.depths: schedule depths must be strictly increasing"),
    ("analyze", ["--depths", "1,x"], "args.depths: invalid literal"),
    ("analyze", ["--tol", "nan"], "args.tol: must be a finite number >= 0, got nan"),
    ("analyze", ["--tol", "inf"], "args.tol: must be a finite number >= 0, got inf"),
    ("analyze", ["--tol", "-1"], "args.tol: must be a finite number >= 0, got -1.0"),
    # int() reads the next two as 10 and 3, as io._table once read its keys;
    # an empty list once ran the default schedule
    ("analyze", ["--depths", "1_0"], "args.depths: expected ASCII digits, got '1_0'"),
    ("analyze", ["--depths", "\u0663"], "args.depths: expected ASCII digits, got '\u0663'"),
    ("analyze", ["--depths", ""], "args.depths: invalid literal"),
]


# an empty path flag, given to each mode; each of these once read as an
# absent flag: oracle reported on a seeded random operator, norms wrote to
# stdout, export dropped the map overlay and examples wrote no report files
EMPTY_PATHS = [
    ("analyze", ["--tree", "T", "--psi", "", "--phi", "P"], "psi"),
    ("norms", ["--tree", "T", "--psi", "W", "--phi", "P", "--out", ""], "out"),
    ("oracle", ["--tree", "T", "--psi", "", "--phi", ""], "psi"),
    ("examples", ["--out", ""], "out"),
    ("export", ["--tree", "T", "--phi", ""], "phi"),
]


# numbers that int() and float() read but the spec loader refuses: each is
# an argparse usage error, as --window x is
BAD_NUMBERS = [
    ("analyze", "--window", "1_0", "int"),
    ("analyze", "--window", "\u0663", "int"),
    ("oracle", "--seed", "1_0", "int"),
    ("oracle", "--seed", "\u0663", "int"),
    ("analyze", "--tol", "1_0e-3", "float"),
    ("analyze", "--tol", "\u0663e-3", "float"),
]


class TestMalformedSpecs:
    @staticmethod
    def analyze_err(specs, tmp_path, capsys, which, spec) -> tuple:
        paths = dict(specs, **{which: write(tmp_path, f"bad_{which}.json", spec)})
        rc = main(["analyze", "--tree", paths["tree"], "--psi", paths["psi"], "--phi", paths["phi"]])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("which,spec,pointer", BAD_INT_FIELDS)
    def test_bad_integer_field_exits_one_with_pointer(
        self, specs, tmp_path, capsys, which, spec, pointer
    ):
        rc, err = self.analyze_err(specs, tmp_path, capsys, which, spec)
        assert rc == 1
        assert pointer in err

    @pytest.mark.parametrize(
        "which,spec,pointer",
        BAD_SECTIONS + BAD_TABLE_ENTRIES + BAD_RANGES + BAD_LOOKUPS + BAD_BUILDER_INPUTS
        + BAD_TABLE_KEYS + UNKNOWN_FIELDS,
    )
    def test_bad_section_or_entry_exits_one_with_pointer(
        self, specs, tmp_path, capsys, which, spec, pointer
    ):
        rc, err = self.analyze_err(specs, tmp_path, capsys, which, spec)
        assert rc == 1
        assert err.startswith(f"spec error: {pointer}: ")

    def test_an_unknown_field_is_named_with_the_fields_read(self, specs, tmp_path, capsys):
        spec = {"family": "random", "depth": 3, "seed": 1, "min_chidren": 2}
        assert self.analyze_err(specs, tmp_path, capsys, "tree", spec) == (1, (
            "spec error: tree.min_chidren: unknown field (known: schema, family, depth, "
            "seed, min_children, max_children)\n"
        ))
        spec = {"kind": "builtin", "name": "zfold", "params": {"target": 0}}
        assert self.analyze_err(specs, tmp_path, capsys, "phi", spec) == (
            1, "spec error: phi.params.target: unknown field (known: none)\n"
        )

    def test_schema_is_allowed_at_each_specs_top_level(self, specs, tmp_path, capsys):
        paths = {
            which: write(tmp_path, f"{which}.json",
                         dict(json.loads(Path(path).read_text(encoding="utf-8")),
                              schema=SCHEMA_VERSION))
            for which, path in specs.items()
        }

        def norms(files: dict) -> str:
            assert main(["norms", *(x for k, v in files.items() for x in (f"--{k}", v))]) == 0
            return capsys.readouterr().out

        assert norms(paths) == norms(specs)

    @pytest.mark.parametrize("mode,extra,message", BAD_ARGS)
    def test_bad_argument_exits_one_with_pointer(self, specs, capsys, mode, extra, message):
        args = ["--tree", specs["tree"], "--psi", specs["psi"], "--phi", specs["phi"]]
        assert main([mode, *args, *extra]) == 1
        assert capsys.readouterr().err.startswith(f"spec error: {message}")

    @pytest.mark.parametrize("mode,argv,flag", EMPTY_PATHS)
    def test_empty_path_exits_one_naming_the_flag(self, specs, capsys, mode, argv, flag):
        files = {"T": specs["tree"], "W": specs["psi"], "P": specs["phi"]}
        assert main([mode, *(files.get(a, a) for a in argv)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"spec error: args.{flag}: expected a path, got ''\n"
        assert captured.out == ""

    @pytest.mark.parametrize("mode,flag,value,kind", BAD_NUMBERS)
    def test_number_in_other_than_ascii_digits_is_a_usage_error(
        self, specs, capsys, mode, flag, value, kind
    ):
        args = ["--tree", specs["tree"], "--psi", specs["psi"], "--phi", specs["phi"]]
        with pytest.raises(SystemExit) as exc:
            main([mode, *args, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid {kind} value: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", [0, 2])
    def test_explicit_depth_other_than_the_deepest_exits_one(
        self, specs, tmp_path, capsys, depth
    ):
        # the edges reach depth 1, and a tree's depth limit is its deepest
        # vertex's depth: a declared depth above or below it is refused
        spec = {"family": "explicit", "edges": [[0, 1], [0, 2]], "root": 0, "depth": depth}
        rc, err = self.analyze_err(specs, tmp_path, capsys, "tree", spec)
        assert rc == 1
        assert err == (
            f"spec error: tree.depth: declared depth {depth} differs from the "
            "deepest vertex's depth 1\n"
        )

    def test_decreasing_depths_refused_not_reordered(self, tmp_path, capsys):
        # weight depth(v) on zline(8) is unbounded; a decreasing schedule
        # once read its shallowest entries as the deepest and called it bounded
        t = tw.zline(8)
        paths = {
            "tree": write(tmp_path, "t.json", {"family": "zline", "depth": 8}),
            "psi": write(tmp_path, "psi.json", {
                "kind": "table", "values": {str(v): int(t.depth[v]) for v in range(len(t))}
            }),
            "phi": write(tmp_path, "phi.json", {"kind": "builtin", "name": "identity"}),
        }
        args = ["analyze", "--tree", paths["tree"], "--psi", paths["psi"], "--phi", paths["phi"]]
        assert main([*args, "--depths", "8,4,2,1"]) == 1
        assert capsys.readouterr().err.startswith("spec error: args.depths: ")
        assert main([*args, "--depths", "1,2,4,8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        got = {c["statement"]: c["verdict"] for c in payload["certificates"]}
        assert got["Linf.Bounded"] == got["Lip.Bounded"] == "TrendInconsistent"

    def test_depth_zero_analyze_names_the_depth_limit(self, specs, tmp_path, capsys):
        paths = dict(
            specs,
            tree=write(tmp_path, "t0.json", {"family": "zline", "depth": 0}),
            psi=write(tmp_path, "chi.json", {"kind": "builtin", "name": "chi", "params": {"vertex": 0}}),
        )
        args = ["--tree", paths["tree"], "--psi", paths["psi"], "--phi", paths["phi"]]
        assert main(["analyze", *args]) == 1
        assert capsys.readouterr().err == "spec error: tree.depth: analyze needs depth >= 1, got 0\n"
        assert main(["norms", *args]) == 0

    @pytest.mark.parametrize("which,text,key", [
        ("tree", '{"family": "zline", "depth": 4, "depth": 1}', "depth"),
        # json.load alone keeps the last: vertex 1 once loaded as 7, and
        # norms exited 0 with sup_norm 7.0
        ("psi", '{"kind": "table", "values": {"0": 1, "1": 2, "1": 7, "2": 3, '
                '"3": 0, "4": 0, "5": 0, "6": 0, "7": 0, "8": 0}}', "1"),
        ("phi", '{"kind": "builtin", "name": "constant", "params": {"target": 0, "target": 2}}',
         "target"),
    ], ids=["tree", "psi", "phi"])
    def test_repeated_key_exits_one_naming_the_file(
        self, specs, tmp_path, capsys, which, text, key
    ):
        bad = tmp_path / f"repeated_{which}.json"
        bad.write_text(text, encoding="utf-8")
        paths = dict(specs, **{which: str(bad)})
        assert main(["norms", "--tree", paths["tree"], "--psi", paths["psi"], "--phi", paths["phi"]]) == 1
        assert capsys.readouterr().err == f"spec error: {bad}: key '{key}' is given twice\n"

    def test_missing_spec_file_exits_one(self, specs, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        rc = main(["analyze", "--tree", missing, "--psi", specs["psi"], "--phi", specs["phi"]])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"spec error: {missing}: cannot read")

    def test_list_depth_has_no_traceback(self, specs, tmp_path):
        bad = write(tmp_path, "bad_depth.json", {"family": "zline", "depth": [1]})
        env = dict(os.environ, PYTHONPATH=str(Path(tw.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "treewco.cli", "analyze", "--tree", bad,
             "--psi", specs["psi"], "--phi", specs["phi"]],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert "tree.depth" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("mode", ["analyze", "export"])
    @pytest.mark.parametrize("content, message", [
        (b"[" * 100_000, "invalid JSON: nested too deeply to decode"),
        (b'{"family": "zline", "depth": 2, "x": "\xff"}',
         "not UTF-8 text: invalid start byte at byte 38"),
    ], ids=["nested", "not_utf8"])
    def test_undecodable_spec_file_exits_one_naming_it(self, specs, tmp_path, mode, content, message):
        # the nesting once ended in a RecursionError traceback, the bytes
        # in an error that did not name the file
        bad = tmp_path / "bad_tree.json"
        bad.write_bytes(content)
        args = ["--tree", str(bad)]
        if mode == "analyze":
            args += ["--psi", specs["psi"], "--phi", specs["phi"]]
        env = dict(os.environ, PYTHONPATH=str(Path(tw.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "treewco.cli", mode, *args],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1
        assert proc.stderr == f"spec error: {bad}: {message}\n"


# Spec fuzzing: every integer a spec can carry stays small (depth <= 6,
# branching <= 3), so no generated tree exceeds ~1,500 vertices.
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(-4, 4), st.text(max_size=4)),
    lambda c: st.one_of(
        st.lists(c, max_size=3), st.dictionaries(st.text(max_size=4), c, max_size=3)
    ),
    max_leaves=6,
)


def _sections(*shapes):
    """Sections with the right field names (each shape is a pair of
    required and optional field strategies), and malformed sections: any
    field may be missing or arbitrary JSON, or the whole section is."""
    shaped = st.one_of([st.fixed_dictionaries(req, optional=opt) for req, opt in shapes])
    junk = [
        st.fixed_dictionaries({}, optional={k: st.one_of(v, _json) for k, v in {**req, **opt}.items()})
        for req, opt in shapes
    ]
    return shaped, st.one_of(shaped, *junk, _json)


_depth6 = st.integers(0, 6)
_branch = st.integers(1, 3)


def _table(value):
    """A table total on trees of at most three vertices (zline(1))."""
    return st.fixed_dictionaries({k: value for k in ("0", "1", "2")})


_edges = st.lists(st.integers(0, 4), max_size=5).map(
    lambda ps: [[min(p, i), i + 1] for i, p in enumerate(ps)]
)
_TREES = _sections(
    ({"family": st.just("zline"), "depth": _depth6}, {}),
    ({"family": st.just("homogeneous"), "q": _branch, "depth": _depth6}, {}),
    (
        {"family": st.just("random"), "depth": _depth6, "seed": st.integers(0, 3)},
        {"min_children": _branch, "max_children": _branch},
    ),
    (
        {
            "family": st.just("explicit"),
            "edges": _edges,
            "root": st.integers(0, 4),
        },
        {"depth": _depth6},
    ),
)
_PARAMS = {"cap": _depth6, "n": _depth6, "r": st.floats(-2, 2), "vertex": st.integers(0, 6)}
_PSIS = _sections(
    (
        {
            "kind": st.just("table"),
            "values": _table(st.one_of(st.floats(-3, 3), st.integers(-2, 2))),
        },
        {},
    ),
    # each builtin with the params it reads
    *(
        (
            {
                "kind": st.just("builtin"),
                "name": st.just(name),
                "params": st.fixed_dictionaries({k: _PARAMS[k] for k in keys}),
            },
            {},
        )
        for name, keys in (("F_N", ("cap",)), ("g", ("n", "r")), ("chi", ("vertex",)),
                           ("eta", ("vertex",)))
    ),
)
_PHIS = _sections(
    (
        {
            "kind": st.just("table"),
            "map": _table(st.integers(0, 2)),
        },
        {},
    ),
    (
        {
            "kind": st.just("builtin"),
            "name": st.just("constant"),
            "params": st.fixed_dictionaries({"target": st.integers(0, 6)}),
        },
        {},
    ),
    (
        {"kind": st.just("builtin"), "name": st.sampled_from(["identity", "zfold", "double"])},
        {"params": st.just({})},
    ),
)
_MODES = st.sampled_from(["analyze", "norms", "export"])


class TestSpecFuzz:
    @staticmethod
    def run_cli(tmp_path_factory, mode, tree, psi, phi) -> int:
        d = tmp_path_factory.mktemp("fuzz")
        argv = [mode]
        for name, spec in (("tree", tree), ("psi", psi), ("phi", phi)):
            if name in cli._MODES[mode][1]:  # export reads no --psi
                argv += [f"--{name}", write(d, f"{name}.json", spec)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main(argv)

    @given(_MODES, _TREES[0], _PSIS[0], _PHIS[0])
    @settings(max_examples=120, deadline=None)
    def test_well_shaped_spec_exits_zero_or_one(self, tmp_path_factory, mode, tree, psi, phi):
        assert self.run_cli(tmp_path_factory, mode, tree, psi, phi) in (0, 1)

    @given(_MODES, _TREES[1], _PSIS[1], _PHIS[1])
    @settings(max_examples=150, deadline=None)
    def test_malformed_spec_exits_zero_or_one(self, tmp_path_factory, mode, tree, psi, phi):
        assert self.run_cli(tmp_path_factory, mode, tree, psi, phi) in (0, 1)


# Valid (tree, psi, phi) spec triples of at most ten vertices, one per tree
# family; each weight and map kind appears.
_VALID_SPECS = [
    ({"family": "zline", "depth": 4},
     {"kind": "builtin", "name": "g", "params": {"n": 4, "r": 0.5}},
     {"kind": "builtin", "name": "zfold"}),
    ({"family": "homogeneous", "q": 2, "depth": 1},
     {"kind": "table", "values": {"0": 1.0, "1": -0.5, "2": 0.0, "3": 2}},
     {"kind": "table", "map": {"0": 0, "1": 2, "2": 1, "3": 3}}),
    ({"family": "random", "depth": 2, "seed": 1, "min_children": 1, "max_children": 2},
     {"kind": "builtin", "name": "chi", "params": {"vertex": 1}},
     {"kind": "builtin", "name": "identity"}),
    ({"family": "explicit", "edges": [[0, 1], [1, 2], [0, 3], [3, 4]], "root": 0, "depth": 2},
     {"kind": "builtin", "name": "eta", "params": {"vertex": 2}},
     {"kind": "builtin", "name": "constant", "params": {"target": 1}}),
    ({"family": "zline", "depth": 3},
     {"kind": "builtin", "name": "F_N", "params": {"cap": 2}},
     {"kind": "builtin", "name": "double"}),
]


def _field_paths(spec, path=()):
    """The key path of every field of a spec, nested ones included."""
    for key, value in spec.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, path + (key,))


@st.composite
def _one_field_changed(draw):
    """A valid spec triple with one field of one spec dropped or set to
    arbitrary JSON."""
    triple = json.loads(json.dumps(draw(st.sampled_from(_VALID_SPECS))))
    which = draw(st.integers(0, 2))
    path = draw(st.sampled_from(list(_field_paths(triple[which]))))
    parent = triple[which]
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_json)
    return triple


class TestSpecLoaderProperty:
    @staticmethod
    def run_cli(tmp_path_factory, mode, triple) -> tuple:
        d = tmp_path_factory.mktemp("spec")
        argv = [mode]
        for name, spec in zip(("tree", "psi", "phi"), triple):
            argv += [f"--{name}", write(d, f"{name}.json", spec)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        return rc, err.getvalue()

    @pytest.mark.parametrize("mode", ["analyze", "norms", "oracle"])
    def test_the_valid_specs_exit_zero(self, tmp_path_factory, mode):
        for triple in _VALID_SPECS:
            assert self.run_cli(tmp_path_factory, mode, triple) == (0, "")

    @given(st.sampled_from(["analyze", "norms", "oracle"]), _one_field_changed())
    @settings(max_examples=150, deadline=None)
    def test_one_changed_field_exits_zero_or_names_its_pointer(
        self, tmp_path_factory, mode, triple
    ):
        rc, err = self.run_cli(tmp_path_factory, mode, triple)
        if rc == 0:
            assert err == ""
        else:
            # a pointer into one of the three specs, never a bare "error:"
            assert rc == 1 and re.match(r"spec error: (tree|psi|phi)[.:]", err), err
