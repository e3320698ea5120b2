"""Fuel moisture bundle (the four Table I moisture parameters).

Table I expresses moistures in percent (1–60 dead, 30–300 live
herbaceous); the Rothermel equations consume fractions. :class:`Moisture`
is the validated, fraction-valued bundle used throughout
:mod:`repro.firelib`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ScenarioError

__all__ = ["Moisture"]

#: Plausible fraction range of each field, in field order.
_RANGES = (
    ("m1", 0.0, 1.0),
    ("m10", 0.0, 1.0),
    ("m100", 0.0, 1.0),
    ("mherb", 0.0, 4.0),
)


@dataclass(frozen=True)
class Moisture:
    """Dead (1-h/10-h/100-h) and live herbaceous fuel moistures, fractions.

    Attributes map one-to-one onto the Table I parameters ``M1``,
    ``M10``, ``M100`` and ``Mherb``.
    """

    m1: float
    m10: float
    m100: float
    mherb: float

    def __post_init__(self) -> None:
        for name, lo, hi in _RANGES:
            v = getattr(self, name)
            if not (lo <= v <= hi):
                raise _out_of_range(name, v, lo, hi)

    @staticmethod
    def check_fractions(fractions: np.ndarray) -> None:
        """The range check of ``__post_init__`` over a whole batch.

        ``fractions`` is ``(n, 4)``, one row of ``(m1, m10, m100,
        mherb)`` fractions per scenario. Raises the same
        :class:`ScenarioError` the first failing row's constructor
        would.
        """
        lows = np.array([lo for _, lo, _ in _RANGES])
        highs = np.array([hi for _, _, hi in _RANGES])
        ok = (lows <= fractions) & (fractions <= highs)
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            name, lo, hi = _RANGES[j]
            raise _out_of_range(name, float(fractions[i, j]), lo, hi)

    @classmethod
    def from_percent(
        cls, m1: float, m10: float, m100: float, mherb: float
    ) -> "Moisture":
        """Build from Table I percent values."""
        return cls(m1=m1 / 100.0, m10=m10 / 100.0, m100=m100 / 100.0, mherb=mherb / 100.0)

    def value_for(self, moisture_key: str) -> float:
        """Moisture fraction for a particle's ``moisture_key``."""
        try:
            return float(getattr(self, moisture_key))
        except AttributeError:
            raise ScenarioError(f"unknown moisture key {moisture_key!r}") from None


def _out_of_range(name: str, v: float, lo: float, hi: float) -> ScenarioError:
    return ScenarioError(
        f"moisture fraction {name}={v} outside plausible range "
        f"[{lo}, {hi}] (did you pass percent instead of fraction?)"
    )
