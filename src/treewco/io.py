"""JSON schemas, canonical serialization, the bundled fixtures and their reports.

Every report has one builder here, which the CLI prints: ``analysis_report``
(``treewco analyze``; ``fixture_report`` extends it), ``norms_report`` and
``oracle_report``.  Only this module writes the ``"schema"`` key.

All reports are byte-stable and carry no timestamps or absolute paths.
``canonical_json`` writes them in one pass, in this format:

- object keys go through ``str()`` and are sorted;
- 2-space indent, ``","`` between items and ``": "`` after keys;
- a finite float prints as ``repr(float(f"{x:.12g}"))`` (12 significant
  digits), a non-finite one as the string ``"inf"``, ``"-inf"`` or
  ``"nan"``;
- integers print as integers; ``true``, ``false`` and ``null`` as in JSON;
- strings are escaped to ASCII (``json.encoder.encode_basestring_ascii``);
- empty containers print as ``[]`` and ``{}``, tuples as lists;
- the text ends with one newline.

The writer dispatches on the exact type, and takes only the builtins that
reports are made of: ``str``, ``float``, ``int``, ``bool``, ``None``,
``dict``, ``list``, ``tuple`` and ``_Rows`` (below).  A scalar item of a
dict or list is written inline in that container's loop.  Any other value
raises ``TypeError``, subclasses and numpy scalars included (an
``IntEnum``, an ``OrderedDict``, a named tuple, ``np.int64``, ``np.bool_``).

The float text skips the round trip through ``float``: it is
``f"{x:.12g}"``, with ``".0"`` appended when it has neither ``"."`` nor
``"e"``, and ``repr(float(text))`` in its place when it has an ``"e"``.
That is byte-equal to ``repr(float(f"{x:.12g}"))``.  Without an
``"e"``, x is a normal double, and 12 digits are within ``DBL_DIG`` (15),
so the ``.12g`` digits are the only decimal of at most 15 digits that
reads back as that double: they are ``repr``'s shortest round-trip
digits.  Both forms are then positional (``repr`` switches to an exponent
only below 1e-4 or from 1e16 on), and they differ only in ``repr``'s
trailing ``".0"``.  Any text with an ``"e"`` (exponents from 12 to 15,
subnormals) takes the round trip itself.  A zero prints as its ``repr``,
since 0.0 and -0.0 are equal memo keys.
``tests/test_io_cli.py::TestCanonicalJson::test_float_text_is_the_round_trip_text``
checks this on raw 64-bit patterns and the edge values.

Per-depth profiles take a row path: every producer (the essential-norm
tails, every certificate, the squared weight's tail, the ``norms`` tail
profile) hands the writer a ``certificate._Rows`` of two read-only
columns, depths rising strictly from 0 or more (a ``range`` or a checked
schedule tuple) and a float64 array, normally a view of a row the operator
caches.  Only that exact type takes the path, with no row checked: one
join of the row heads (the text between one value and the next, a
function of the indent level and the depth) with the value texts read
through the float memo.  A long profile of few steps (runs of equal bit
patterns) takes the step path, one join of its heads per step with the
step's one value text.  Both write the generic path's bytes for the list
of rows that the ``_Rows`` equals: ints print as ``int.__repr__``, floats
by the rule above, and equal bits are equal texts (``0.0`` and ``-0.0``
differ in their bits).

Spec loading errors carry a JSON-pointer-style location so the CLI can
print line-precise messages.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from importlib import resources
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter
from pathlib import Path

import numpy as np

from .certificate import FAILS, HOLDS, TREND_CONSISTENT, TREND_INCONSISTENT, _Rows
from .classify import classify_operator, seven_equivalences
from .functions import (
    VertexFunction,
    depth_cap,
    indicator,
    norms,
    ramp_function,
    random_function,
    sector_indicator,
)
from .operators import (
    SelfMap,
    WeightedCompOp,
    constant_map,
    identity_map,
    j_linf,
    k_linf,
    k_lip_bracket,
    linf_op_norm,
    lip_bounds,
    map_from_table,
    random_map,
    zline_double,
    zline_fold,
)
from .oracle import (
    OracleSizeError,
    norm_oracle_linf,
    norm_oracle_lip,
    surjectivity_infeasibility,
)
from .trees import (
    RootedTree,
    TreeBudgetError,
    _finite,
    _integer,
    explicit_tree,
    homogeneous,
    random_tree,
    zline,
)

__all__ = [
    "SpecError",
    "canonical_json",
    "load_tree_spec",
    "load_function_spec",
    "load_map_spec",
    "load_specs",
    "tree_to_spec",
    "golden_dir",
    "Fixture",
    "bundled_fixtures",
    "fixture_by_name",
    "fixture_report",
    "operator_quantities",
    "analysis_report",
    "norms_report",
    "oracle_report",
]

SCHEMA_VERSION = 1


class SpecError(ValueError):
    """A spec file violated its schema; ``pointer`` locates the field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


# -- canonical serialization ---------------------------------------------------


def _float_text(x: float, memo: dict) -> str:
    text = memo.get(x)
    if text is None:
        if not x:  # 0.0 and -0.0 are equal keys with different texts
            return repr(x)
        if math.isfinite(x):
            # repr(float(f"{x:.12g}")) without the round trip; see the
            # module docstring
            text = f"{x:.12g}"
            if "e" in text:
                text = repr(float(text))
            elif "." not in text:
                text += ".0"
        else:
            text = f'"{x!r}"'
        memo[x] = text
    return text


# _HEADS[level][n] is the text before row n's value in a profile whose
# depths run 0, 1, 2, ...: row 0's opens the list, the others close the row
# before.  A pure function of (level, n), so it holds no report data; it is
# rebuilt to the longest such profile written, which a tree's depths bound.
_HEADS: dict = {}


def _row_heads(level: int, depths) -> list:
    """The text before each row's value in a profile with these depths."""
    inner = "\n" + "  " * (level + 1)
    leaf = inner + "  "
    heads = [f"{inner}],{inner}[{leaf}{n},{leaf}" for n in depths]
    heads[0] = f"[{inner}[{leaf}{depths[0]},{leaf}"
    return heads


# A profile of k >= _STEP_ROWS rows in fewer than k / _STEP_RATIO steps (runs
# of equal value bits), as a running extreme is past the first few layers,
# is written one step at a time.  Finding the steps costs a fixed handful of
# numpy calls: a one-step profile breaks even with the per-row join at about
# 64 rows, and is 25% faster at 128.  At 128 rows the step path breaks even
# at k / 8 steps, and from 1,000 rows at about k / 4, so both constants keep
# it on the side where it wins.
_STEP_ROWS = 128
_STEP_RATIO = 8


def _write_rows(rows: _Rows, level: int, out: list, memo: dict) -> None:
    """A non-empty ``_Rows`` in the generic list path's text, read from its
    two columns with no row checked: one join of row heads and value
    texts, or, for a long profile of few steps, one join per step."""
    values = rows.values
    k = values.size
    depths = rows.depths
    # depths rise strictly from 0 or more, so this says they run 0, ..., k - 1
    if depths[-1] == k - 1:
        heads = _HEADS.get(level, ())
        if len(heads) < k:
            # replaced whole, never extended: a concurrent writer reads a full table
            heads = _HEADS[level] = _row_heads(level, range(k))
    else:
        heads = _row_heads(level, depths)
    starts = None
    if k >= _STEP_ROWS:
        # steps by bit pattern: 0.0 and -0.0 stay apart, and equal bits
        # are equal texts
        bits = values.view(np.int64)
        changes = bits[1:] != bits[:-1]
        if _STEP_RATIO * (np.count_nonzero(changes) + 1) < k:
            starts = [0, *(np.flatnonzero(changes) + 1).tolist()]
            values = values[starts]
    get = memo.get  # a memo hit costs no call of _float_text
    # a zero is never memoized (0.0 and -0.0 are equal keys), so its repr
    # is its text, written here without a call of _float_text
    texts = [get(v) or (_float_text(v, memo) if v else repr(v)) for v in values.tolist()]
    if starts is None:
        parts = [""] * (2 * k)
        parts[0::2] = heads[:k]
        parts[1::2] = texts
    else:
        # rows a, ..., e - 1 of one step are its heads, each followed by t
        starts.append(k)
        parts = [t.join(heads[a:e]) + t for a, e, t in zip(starts, starts[1:], texts)]
    out += ("".join(parts), "\n" + "  " * (level + 1) + "]\n" + "  " * level + "]")


# _KEYS[(level, keys)] is the text before each value of a dict with these
# keys at this level, in sorted key order, and a getter of its values in
# that order (None when the insertion order is sorted): key names and
# indentation, never a value.  Only dicts of at most _KEYS_PER_DICT keys of
# exact type str enter (True, 1 and 1.0 are equal keys that print
# differently), until it holds _KEYS_MAX entries (threads that write at
# once may each add one more); any other dict gets str(k) and sorted.
_KEYS: dict = {}
_KEYS_PER_DICT = 16
_KEYS_MAX = 1024
_STR_ONLY = frozenset((str,))


def _key_heads(level: int, keys: list) -> list:
    """The text before each value of a dict at ``level`` with these sorted
    string keys."""
    inner = "\n" + "  " * (level + 1)
    return [f"{',' if i else '{'}{inner}{_encode_str(k)}: " for i, k in enumerate(keys)]


def _key_entry(level: int, keys: tuple) -> tuple:
    order = sorted(keys)
    return _key_heads(level, order), None if tuple(order) == keys else itemgetter(*order)


_SCALARS = frozenset((str, float, int, bool, type(None)))


def _write(obj, level: int, out: list, memo: dict) -> None:
    """``obj`` at indent ``level``.  A dict or list writes each item after
    its head, a scalar item inline; a value of no listed exact type raises
    ``TypeError``."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            out.append("{}")
            return
        keys = tuple(obj)
        entry = None
        if len(keys) <= _KEYS_PER_DICT and _STR_ONLY.issuperset(map(type, keys)):
            entry = _KEYS.get((level, keys))
            if entry is None and len(_KEYS) < _KEYS_MAX:
                entry = _KEYS[level, keys] = _key_entry(level, keys)
        if entry is None:
            items = {str(k): v for k, v in obj.items()}
            order = sorted(items)
            heads, values = _key_heads(level, order), [items[k] for k in order]
        else:
            heads, getter = entry
            values = obj.values() if getter is None else getter(obj)
        close = "\n" + "  " * level + "}"
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = "\n" + "  " * (level + 1)
        heads = ["," + inner] * len(obj)
        heads[0] = "[" + inner
        values, close = obj, "\n" + "  " * level + "]"
    elif kind is _Rows:
        if obj.depths:
            _write_rows(obj, level, out, memo)
        else:
            out.append("[]")
        return
    elif kind in _SCALARS:  # a text that is one scalar
        heads, values, close = ("",), (obj,), ""
    else:
        name = kind.__qualname__
        if kind.__module__ != "builtins":  # numpy 2 names np.bool_ "bool"
            name = f"{kind.__module__}.{name}"
        raise TypeError(f"Object of type {name} is not JSON serializable")
    get = memo.get  # a memo hit costs no call of _float_text
    for head, value in zip(heads, values):
        kind = type(value)
        if kind is str:
            out.append(head + _encode_str(value))
        elif kind is float:
            out.append(head + (get(value) or _float_text(value, memo)))
        elif kind is int:
            out.append(head + int.__repr__(value))
        elif value is None:
            out.append(head + "null")
        elif kind is bool:
            out.append(head + ("true" if value else "false"))
        else:
            out.append(head)
            _write(value, level + 1, out, memo)
    out.append(close)


def canonical_json(obj) -> str:
    """The byte-stable report text of ``obj``; the format is in the module
    docstring."""
    out: list = []
    _write(obj, 0, out, {})
    out.append("\n")
    return "".join(out)


# -- spec loading ----------------------------------------------------------------


def _object(value, pointer: str) -> dict:
    """A section that must be a JSON object."""
    if not isinstance(value, dict):
        raise SpecError(pointer, f"expected an object, got {type(value).__name__}")
    return value


def _require(d: dict, key: str, pointer: str):
    if key not in d:
        raise SpecError(f"{pointer}.{key}", "missing required field")
    return d[key]


def _known(spec: dict, pointer: str, fields: tuple) -> None:
    """Refuse a field outside ``fields``, as ``_read_json`` refuses a repeated
    key: a misspelt optional field would otherwise load as its default."""
    for key in spec:
        if key not in fields:
            known = ", ".join(fields) or "none"
            raise SpecError(f"{pointer}.{key}", f"unknown field (known: {known})")


def _int(
    d: dict,
    key: str,
    pointer: str,
    default: int | None = None,
    minimum: int | None = None,
    maximum: int | None = None,
) -> int:
    """An integer field (JSON booleans and floats rejected), within
    ``minimum`` and ``maximum`` when they are given."""
    value = d.get(key, default) if default is not None else _require(d, key, pointer)
    try:
        value = _integer(value, key)
    except ValueError:
        raise SpecError(f"{pointer}.{key}", f"expected an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise SpecError(f"{pointer}.{key}", f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise SpecError(f"{pointer}.{key}", f"must be <= {maximum}, got {value}")
    return value


def _real(d: dict, key: str, pointer: str) -> float:
    value = _require(d, key, pointer)
    x = _finite(value)
    if x is None:
        raise SpecError(f"{pointer}.{key}", f"expected a finite number, got {value!r}")
    return x


def _ascii(parse):
    """``parse`` of ASCII digits only, under ``parse``'s name, which an
    argparse usage error prints: ``int`` and ``float`` also read ``"1_0"``
    as 10, and other scripts' digits."""

    def read(text: str):
        if "_" in text or not text.isascii():
            raise ValueError(f"expected ASCII digits, got {text!r}")
        return parse(text)

    read.__name__ = parse.__name__
    return read


def _table(spec: dict, key: str, tree: RootedTree, pointer: str):
    """The ``(key, vertex id, entry)`` triples of a per-vertex table, which
    names each vertex once (``"1"``, ``"01"`` and ``"1 "`` are all vertex 1;
    ``_ascii`` refuses ``"1_0"``).  A key that is not a string, which only
    the Python API can pass, is a vertex id as ``check_vertex`` takes it, so
    a float or bool key is refused."""
    table = _object(_require(spec, key, pointer), f"{pointer}.{key}")
    seen, read = set(), _ascii(int)
    for k, v in table.items():
        try:
            vid = tree.check_vertex(read(k) if isinstance(k, str) else k)
        except (KeyError, ValueError) as exc:
            raise SpecError(f"{pointer}.{key}.{k}", str(exc)) from exc
        if vid in seen:
            raise SpecError(f"{pointer}.{key}.{k}", f"vertex {vid} is given twice")
        seen.add(vid)
        yield k, vid, v


# family -> the fields its loader reads besides ``family``
_TREE_FIELDS = {
    "zline": ("depth",),
    "homogeneous": ("q", "depth"),
    "random": ("depth", "seed", "min_children", "max_children"),
    "explicit": ("edges", "root", "depth"),
}


def load_tree_spec(spec: dict, pointer: str = "tree") -> RootedTree:
    family = _require(_object(spec, pointer), "family", pointer)
    if not isinstance(family, str) or family not in _TREE_FIELDS:
        raise SpecError(f"{pointer}.family", f"unknown family {family!r}")
    # tree_to_spec writes the schema version
    _known(spec, pointer, ("schema", "family", *_TREE_FIELDS[family]))
    try:
        if family == "zline":
            return zline(_int(spec, "depth", pointer, minimum=0))
        if family == "homogeneous":
            return homogeneous(
                _int(spec, "q", pointer, minimum=2), _int(spec, "depth", pointer, minimum=0)
            )
        if family == "random":
            depth = _int(spec, "depth", pointer, minimum=0)
            seed = _int(spec, "seed", pointer, minimum=0)
            # the generator draws child counts as int64
            top = int(np.iinfo(np.int64).max)
            lo = _int(spec, "min_children", pointer, 1, minimum=1, maximum=top)
            hi = _int(spec, "max_children", pointer, 3, minimum=lo, maximum=top)
            return random_tree(depth, seed, lo, hi)
    except TreeBudgetError as exc:
        raise SpecError(f"{pointer}.depth", str(exc)) from exc
    # the explicit family
    edges = _require(spec, "edges", pointer)
    root = _require(spec, "root", pointer)
    if isinstance(root, (list, dict)):
        raise SpecError(f"{pointer}.root", f"expected a vertex label, got {root!r}")
    depth = (
        _int(spec, "depth", pointer, minimum=0) if spec.get("depth") is not None else None
    )
    try:
        tree = explicit_tree(edges, root)
    except (ValueError, TypeError) as exc:
        raise SpecError(f"{pointer}.edges", str(exc)) from exc
    if depth is not None and depth != tree.depth_limit:
        raise SpecError(
            f"{pointer}.depth",
            f"declared depth {depth} differs from the deepest vertex's depth "
            f"{tree.depth_limit}",
        )
    return tree


# builtin name -> (builder, (param, parser), ...); the builder takes the
# tree, then each parsed param in order
_WEIGHTS = {
    "F_N": (depth_cap, ("cap", _int)),
    "g": (ramp_function, ("n", _int), ("r", _real)),
    "chi": (indicator, ("vertex", _int)),
    "eta": (sector_indicator, ("vertex", _int)),
}
_MAPS = {
    "identity": (identity_map,),
    "constant": (constant_map, ("target", _int)),
    "zfold": (zline_fold,),
    "double": (zline_double,),
}


def _builtin(spec: dict, tree: RootedTree, pointer: str, table: dict):
    """The builtin of ``table`` that ``spec`` names, built on ``tree``."""
    _known(spec, pointer, ("schema", "kind", "name", "params"))
    name = _require(spec, "name", pointer)
    params = _object(spec.get("params", {}), f"{pointer}.params")
    if not isinstance(name, str) or name not in table:
        raise SpecError(f"{pointer}.name", f"unknown builtin {name!r}")
    builder, *fields = table[name]
    _known(params, f"{pointer}.params", tuple(key for key, _ in fields))
    try:
        return builder(tree, *(parse(params, key, f"{pointer}.params") for key, parse in fields))
    except SpecError:
        raise
    except (ValueError, IndexError, KeyError) as exc:
        raise SpecError(f"{pointer}.params", str(exc)) from exc


def load_function_spec(
    spec: dict, tree: RootedTree, pointer: str = "psi"
) -> VertexFunction:
    kind = _require(_object(spec, pointer), "kind", pointer)
    if kind == "table":
        _known(spec, pointer, ("schema", "kind", "values"))
        vals = np.full(tree.n_vertices, np.nan)  # _real writes finite numbers only
        for k, vid, _ in _table(spec, "values", tree, pointer):
            vals[vid] = _real(spec["values"], k, f"{pointer}.values")
        if np.isnan(vals).any():
            missing = int(np.flatnonzero(np.isnan(vals))[0])
            raise SpecError(
                f"{pointer}.values", f"table is partial: vertex {missing} missing"
            )
        return VertexFunction(tree, vals)
    if kind == "builtin":
        return _builtin(spec, tree, pointer, _WEIGHTS)
    raise SpecError(f"{pointer}.kind", f"unknown kind {kind!r}")


def load_map_spec(spec: dict, tree: RootedTree, pointer: str = "phi") -> SelfMap:
    kind = _require(_object(spec, pointer), "kind", pointer)
    if kind == "table":
        _known(spec, pointer, ("schema", "kind", "map"))
        images = {}
        for k, vid, v in _table(spec, "map", tree, pointer):
            try:
                images[vid] = _integer(v, "image")
            except ValueError:
                raise SpecError(
                    f"{pointer}.map.{k}", f"expected an integer vertex id, got {v!r}"
                ) from None
        try:
            return map_from_table(tree, images)
        except ValueError as exc:
            raise SpecError(f"{pointer}.map", str(exc)) from exc
    if kind == "builtin":
        return _builtin(spec, tree, pointer, _MAPS)
    raise SpecError(f"{pointer}.kind", f"unknown kind {kind!r}")


def load_specs(tree_path, psi_path=None, phi_path=None):
    """Load the tree spec file and, on that tree, the weight and self-map
    spec files; an absent path loads as None."""
    tree = load_tree_spec(_read_json(tree_path), "tree")
    psi = None if psi_path is None else load_function_spec(_read_json(psi_path), tree, "psi")
    phi = None if phi_path is None else load_map_spec(_read_json(phi_path), tree, "phi")
    return tree, psi, phi


def _read_json(path) -> dict:
    def unique_keys(pairs: list) -> dict:
        # json.load alone keeps the last of a repeated key silently
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise SpecError(str(path), f"key {key!r} is given twice")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise SpecError(str(path), f"cannot read: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(str(path), f"invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError(str(path), f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except RecursionError as exc:
        # the decoder recurses once per open bracket
        raise SpecError(str(path), "invalid JSON: nested too deeply to decode") from exc


def tree_to_spec(tree: RootedTree) -> dict:
    spec = {"schema": SCHEMA_VERSION, "family": tree.family, "depth": tree.depth_limit}
    if tree.family == "homogeneous":
        spec["q"] = tree.meta["q"]
    elif tree.family == "random":
        spec.update({k: tree.meta[k] for k in ("seed", "min_children", "max_children")})
    elif tree.family != "zline":
        spec["family"] = "explicit"
        spec["edges"] = [
            [tree.label_of(int(tree.parent[v])), tree.label_of(v)]
            for v in range(1, tree.n_vertices)
        ]
        spec["root"] = tree.label_of(0)
    return spec


# -- bundled fixtures and their reports ------------------------------------------


def golden_dir() -> Path:
    return Path(resources.files("treewco") / "golden")


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
            "lip_ess_tail": _Rows(range(sq.tree.depth_limit), sq.tail_sups[:, 1]),
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


def operator_quantities(op: WeightedCompOp, window_depth: int | None = None) -> dict:
    exact, up = lip_bounds(op)  # the lower end is the exact norm
    j = j_linf(op, window_depth)  # j_lip_bracket is (j / 3, j)
    klo, kup = k_lip_bracket(op)
    tails = op.tail_sups
    linf_slope, lip_slope = op.tail_slopes
    return {
        "linf_op_norm": linf_op_norm(op),
        "linf_ess_tail": _Rows(range(len(tails)), tails[:, 0]),
        "linf_ess_tail_slope": linf_slope,
        "lip_lower_bound": exact,
        "lip_upper_bound": up,
        "lip_exact_norm": exact,
        "lip_ess_tail": _Rows(range(len(tails)), tails[:, 1]),
        "lip_ess_tail_slope": lip_slope,
        "j_linf": j,
        "k_linf": k_linf(op),
        "j_lip_bracket": [j / 3.0, j],
        "k_lip_bracket": [klo, kup],
        "map_injective": op.phi.injective_on_domain,
        "map_surjective_on_truncation": op.phi.surjective_on_truncation,
        "map_domain_depth": op.phi.domain_depth,
    }


def analysis_report(op: WeightedCompOp, schedule=None, window_depth=None, zero_tol=1e-6) -> dict:
    """The report ``treewco analyze`` prints: the certificates of both
    spaces, the closed-form quantities and, under unit weight,
    ``seven_equivalences``."""
    certs = classify_operator(op, schedule, window_depth, zero_tol)
    report = {
        "schema": SCHEMA_VERSION,
        "certificates": [c.to_json() for c in certs["linf"] + certs["lip"]],
        "quantities": operator_quantities(op, window_depth),
    }
    if bool(np.all(op.psi.values == 1.0)):
        report["seven_equivalences"] = seven_equivalences(op.phi).to_json()
    return report


def norms_report(op: WeightedCompOp, window_depth: int | None = None) -> dict:
    """The report ``treewco norms`` prints: the weight's norms and tail
    profile, and the closed-form quantities."""
    rep = norms(op.psi)
    return {
        "schema": SCHEMA_VERSION,
        "psi_norms": {
            "sup_norm": rep.sup_norm,
            "lip_norm": rep.lip_norm,
            "value_at_root": rep.value_at_root,
            "d_sup": rep.d_sup,
            "tail_profile": _Rows(range(rep.tail_sups.size), rep.tail_sups),
        },
        "quantities": operator_quantities(op, window_depth),
    }


def oracle_report(source: WeightedCompOp | RootedTree, seed: int = 0) -> dict:
    """The report ``treewco oracle`` prints: both norms of ``source``, an
    operator or a tree to draw one on from ``seed``, searched by brute force
    against their closed forms; a search past its size cap falls back to the
    ascent (bounded functions) or the attained witness (Lipschitz)."""
    op = source
    if not isinstance(source, WeightedCompOp):
        rng = np.random.default_rng(seed)
        op = WeightedCompOp(random_function(source, rng), random_map(source, rng))
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
    return {
        "schema": SCHEMA_VERSION,
        "seed": seed,
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


def fixture_report(fx: Fixture, depth: int | None = None) -> dict:
    """Full deterministic report for one bundled fixture: its
    ``analysis_report`` with the fixture fields added."""
    depth = fx.depth if depth is None else _integer(depth, "fixture depth")
    op = fx.build(depth)
    window = fx.window_for(depth)
    report = analysis_report(op, window_depth=window)
    report.update({
        "fixture": fx.name,
        "description": fx.description,
        "depth": depth,
        "window_depth": window,
        "tree": tree_to_spec(op.tree),
        "expected": dict(sorted(fx.expected.items())),
        "notes": list(fx.notes),
    })
    if fx.extra:
        report.update(fx.extra(op, window))
    return report
