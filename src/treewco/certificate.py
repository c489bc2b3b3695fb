"""Machine-checkable verdicts with witnesses and per-depth profiles.

A certificate answers one named statement about an operator.  Statements
that a finite truncation genuinely decides (an isometry check inside a
stated window, surjectivity of the stored map) get Holds/Fails; statements
about limits (compactness, boundedness of the infinite operator) only ever
get trend verdicts computed from the tail of the depth profile.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Certificate", "HOLDS", "FAILS", "TREND_CONSISTENT", "TREND_INCONSISTENT"]

HOLDS = "Holds"
FAILS = "Fails"
TREND_CONSISTENT = "TrendConsistent"
TREND_INCONSISTENT = "TrendInconsistent"

_NO_VALUES = np.empty(0)
_NO_VALUES.flags.writeable = False


class _Rows(Sequence):
    """Per-depth profile rows over two read-only columns: ``depths``, a
    ``range`` or a tuple of Python ``int`` that rise strictly from 0 or
    more, and ``values``, a 1-D float64 array of one value per depth,
    normally a view of a row the operator caches.  Iterating or indexing
    yields ``[n, value]`` lists of a Python ``int`` and a Python ``float``;
    a slice is the ``_Rows`` over the sliced depths and values.
    A ``_Rows`` equals the list of its rows, is not hashable and cannot be
    changed: a writable ``values`` is held through a read-only view.
    ``canonical_json`` writes it from the two columns without checking a
    row, so only code whose depths and values have this form makes one:
    from a ``range`` or a schedule that passed
    ``classify._check_schedule``."""

    __slots__ = ("depths", "values")
    __hash__ = None

    def __init__(self, depths=(), values=_NO_VALUES):
        if values.ndim != 1 or values.size != len(depths):
            raise ValueError(f"{len(depths)} depths for values of shape {values.shape}")
        if values.flags.writeable:
            values = values.view()
            values.flags.writeable = False
        _set_depths(self, depths)
        _set_values(self, values)

    def __setattr__(self, name, value):
        raise AttributeError(f"_Rows is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"_Rows is read-only: cannot delete {name!r}")

    def __len__(self) -> int:
        return len(self.depths)

    def __iter__(self):
        return map(list, zip(self.depths, self.values.tolist()))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Rows(self.depths[i], self.values[i])
        return [self.depths[i], self.values[i].item()]

    def __eq__(self, other):
        if isinstance(other, _Rows):
            other = list(other)
        elif not isinstance(other, list):
            return NotImplemented
        return list(self) == other

    def __repr__(self) -> str:
        return f"_Rows({list(self)!r})"

    def __reduce__(self):
        return _Rows, (self.depths, self.values)


# the slots' own setters, which only ``_Rows.__init__`` calls
_set_depths = _Rows.depths.__set__
_set_values = _Rows.values.__set__


@dataclass(frozen=True)
class Certificate:
    """``depth_profile`` holds ``(int depth, float value)`` rows, written as
    held; the package's own certificates hold them as a ``_Rows`` over the
    operator's cached per-depth arrays, or ``_NO_ROWS`` when they have
    none."""

    statement: str
    verdict: str
    criterion: str
    witnesses: dict = field(default_factory=dict)
    depth_profile: tuple = ()
    window_depth: int | None = None

    def __post_init__(self):
        if self.verdict not in (HOLDS, FAILS, TREND_CONSISTENT, TREND_INCONSISTENT):
            raise ValueError(f"unknown verdict {self.verdict!r}")

    @property
    def decided(self) -> bool:
        return self.verdict in (HOLDS, FAILS)

    def to_json(self) -> dict:
        return {
            "statement": self.statement,
            "verdict": self.verdict,
            "criterion": self.criterion,
            "witnesses": self.witnesses,
            "depth_profile": self.depth_profile,
            "window_depth": self.window_depth,
        }


# the empty profile: a ``_Rows`` cannot change, so every certificate
# without rows shares this one
_NO_ROWS = _Rows()
