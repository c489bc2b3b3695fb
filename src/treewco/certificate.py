"""Machine-checkable verdicts with witnesses and per-depth profiles.

A certificate answers one named statement about an operator.  Statements
that a finite truncation genuinely decides (an isometry check inside a
stated window, surjectivity of the stored map) get Holds/Fails; statements
about limits (compactness, boundedness of the infinite operator) only ever
get trend verdicts computed from the tail of the depth profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Certificate", "HOLDS", "FAILS", "TREND_CONSISTENT", "TREND_INCONSISTENT"]

HOLDS = "Holds"
FAILS = "Fails"
TREND_CONSISTENT = "TrendConsistent"
TREND_INCONSISTENT = "TrendInconsistent"


class _Rows(list):
    """Per-depth profile rows, each a list ``[n, value]`` of a Python
    ``int`` and a Python ``float``, with depths ``n`` that rise strictly
    from 0 or more.  ``canonical_json`` writes a list of exactly this type
    without checking its rows, so only code that builds the rows from such
    values makes one: from ``enumerate`` or a schedule that passed
    ``classify._check_schedule``."""

    __slots__ = ()


@dataclass(frozen=True)
class Certificate:
    """``depth_profile`` holds ``(int depth, float value)`` rows, written as
    held; the package's own certificates hold them as a ``_Rows``."""

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
