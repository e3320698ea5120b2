"""The scenario parameter space — Table I of the paper.

A *scenario* is the set of input parameters describing the environmental
conditions and terrain topography used by the fire simulator. The search
space is the 9-dimensional box of Table I; genomes are float vectors in
that box (the ``Model`` coordinate is rounded to an integer on decode).

========== ============================================= ========= =====================================
Parameter  Description                                   Range     Unit
========== ============================================= ========= =====================================
Model      Rothermel fuel model                          1–13      fuel model
WindSpd    Wind speed                                    0–80      miles/hour
WindDir    Wind direction                                0–360     degrees clockwise from North
M1         Dead fuel moisture, 1 h                       1–60      percent
M10        Dead fuel moisture, 10 h                      1–60      percent
M100       Dead fuel moisture, 100 h                     1–60      percent
Mherb      Live herbaceous fuel moisture                 30–300    percent
Slope      Surface slope                                 0–81      degrees
Aspect     Direction the surface faces                   0–360     degrees clockwise from North
========== ============================================= ========= =====================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ScenarioError
from repro.rng import ensure_rng

__all__ = [
    "ParamSpec",
    "TABLE_I_SPECS",
    "ParameterSpace",
    "Scenario",
    "ScenarioBatch",
]


def _clamp(values: np.ndarray, low, high) -> np.ndarray:
    """Clamp into ``[low, high]``, keeping a value that equals a bound.

    ``np.clip`` picks a bound or the value on a tie depending on whether
    its bounds are scalars or arrays, which shows on ``-0.0`` at a zero
    bound; this form is the same for both, so per-parameter and
    column-group clipping give the same bits. NaN stays NaN.
    """
    return np.where(values < low, low, np.where(values > high, high, values))


@dataclass(frozen=True)
class ParamSpec:
    """Specification of one scenario parameter (a Table I row)."""

    name: str
    description: str
    low: float
    high: float
    unit: str
    integer: bool = False
    circular: bool = False  # wraps modulo the range (compass angles)

    def __post_init__(self) -> None:
        if not (self.low < self.high):
            raise ScenarioError(
                f"parameter {self.name}: low {self.low} must be < high {self.high}"
            )

    @property
    def span(self) -> float:
        """Width of the valid range."""
        return self.high - self.low

    def clip(self, values: np.ndarray | float) -> np.ndarray | float:
        """Project values into the valid range.

        Circular parameters wrap modulo the span; others clamp to the
        box; integer parameters round half to even (``np.rint``).
        """
        v = np.asarray(values, dtype=np.float64)
        if self.circular:
            # +-inf has no angle: the mod is NaN, which decode refuses
            with np.errstate(invalid="ignore"):
                out = self.low + np.mod(v - self.low, self.span)
            # float mod can round a tiny negative up to exactly `span`,
            # producing the excluded boundary; wrap it back to `low` so
            # clipping is idempotent (0° and 360° are the same angle).
            out = np.where(out >= self.high, self.low, out)
        else:
            out = _clamp(v, self.low, self.high)
        if self.integer:
            out = _clamp(np.rint(out), np.ceil(self.low), np.floor(self.high))
        return out if out.ndim else float(out)

    def contains(self, values: np.ndarray | float) -> np.ndarray | bool:
        """Whether values lie in the valid range (integers need not be exact)."""
        v = np.asarray(values, dtype=np.float64)
        ok = (v >= self.low) & (v <= self.high)
        return ok if ok.ndim else bool(ok)


#: The exact Table I rows, in paper order.
TABLE_I_SPECS: tuple[ParamSpec, ...] = (
    ParamSpec("Model", "Rothermel Fuel Model", 1, 13, "fuel model", integer=True),
    ParamSpec("WindSpd", "Wind speed", 0, 80, "miles/hour"),
    ParamSpec(
        "WindDir",
        "Wind direction",
        0,
        360,
        "degrees clockwise from North",
        circular=True,
    ),
    ParamSpec("M1", "Dead Fuel Moisture in 1 hour since start of fire", 1, 60, "percent"),
    ParamSpec("M10", "Dead Fuel Moisture in 10 h", 1, 60, "percent"),
    ParamSpec("M100", "Dead Fuel Moisture in 100 h", 1, 60, "percent"),
    ParamSpec("Mherb", "Live herbaceous fuel moisture", 30, 300, "percent"),
    ParamSpec("Slope", "Surface slope", 0, 81, "degrees"),
    ParamSpec(
        "Aspect",
        "Direction of the surface faces",
        0,
        360,
        "degrees clockwise from north",
        circular=True,
    ),
)

#: Genome coordinate order (matches Table I).
_FIELD_ORDER = (
    "model",
    "wind_speed",
    "wind_dir",
    "m1",
    "m10",
    "m100",
    "mherb",
    "slope",
    "aspect",
)


@dataclass(frozen=True)
class Scenario:
    """A decoded scenario — one "parameter vector PV" of Figs. 1 and 3.

    Field units are the Table I units; this class satisfies the
    simulator's :class:`repro.firelib.simulator.ScenarioInputs` protocol.
    """

    model: int
    wind_speed: float
    wind_dir: float
    m1: float
    m10: float
    m100: float
    mherb: float
    slope: float
    aspect: float

    def to_genome(self) -> np.ndarray:
        """Encode as a 9-float genome (Table I order)."""
        return np.array([getattr(self, f) for f in _FIELD_ORDER], dtype=np.float64)

    def replace(self, **changes: float) -> "Scenario":
        """Copy with some fields changed."""
        values = {f: getattr(self, f) for f in _FIELD_ORDER}
        values.update(changes)
        return Scenario(**values)


@dataclass(frozen=True)
class ScenarioBatch:
    """Decoded scenarios as columns: each field is an ``(n,)`` array.

    Row ``i`` holds the same values as :class:`Scenario` field by field
    (``model`` as ``int64``); the batched engine reads these columns
    instead of building one :class:`Scenario` per genome.
    """

    model: np.ndarray
    wind_speed: np.ndarray
    wind_dir: np.ndarray
    m1: np.ndarray
    m10: np.ndarray
    m100: np.ndarray
    mherb: np.ndarray
    slope: np.ndarray
    aspect: np.ndarray

    def __len__(self) -> int:
        return len(self.model)

    def __getitem__(self, index) -> "ScenarioBatch":
        """The rows ``index`` selects, as a batch."""
        return ScenarioBatch(
            **{name: getattr(self, name)[index] for name in _FIELD_ORDER}
        )


class ParameterSpace:
    """The 9-D search box of Table I: sampling, clipping, encode/decode.

    A custom tuple of :class:`ParamSpec` may be supplied (used by the
    deceptive-landscape workload to shrink the space); the default is the
    exact Table I space.
    """

    def __init__(self, specs: Sequence[ParamSpec] = TABLE_I_SPECS) -> None:
        if len(specs) != len(_FIELD_ORDER):
            raise ScenarioError(
                f"parameter space needs {len(_FIELD_ORDER)} specs, got {len(specs)}"
            )
        self._specs = tuple(specs)
        self._low = np.array([s.low for s in self._specs], dtype=np.float64)
        self._high = np.array([s.high for s in self._specs], dtype=np.float64)
        self._span = np.array([s.span for s in self._specs], dtype=np.float64)
        # Column groups of clip and pairwise_distances, which apply the
        # elementwise ops of ParamSpec.clip to a whole group at once.
        self._circular = np.array(
            [j for j, s in enumerate(self._specs) if s.circular], dtype=np.intp
        )
        self._linear = np.array(
            [j for j, s in enumerate(self._specs) if not s.circular], dtype=np.intp
        )
        self._integer = np.array(
            [j for j, s in enumerate(self._specs) if s.integer], dtype=np.intp
        )
        self._integer_low = np.ceil(self._low[self._integer])
        self._integer_high = np.floor(self._high[self._integer])

    # ------------------------------------------------------------------
    @property
    def specs(self) -> tuple[ParamSpec, ...]:
        """The per-parameter specifications."""
        return self._specs

    @property
    def dimension(self) -> int:
        """Number of parameters (9 for Table I)."""
        return len(self._specs)

    @property
    def lower_bounds(self) -> np.ndarray:
        """Vector of lower bounds."""
        return self._low.copy()

    @property
    def upper_bounds(self) -> np.ndarray:
        """Vector of upper bounds."""
        return self._high.copy()

    def names(self) -> tuple[str, ...]:
        """Parameter names in genome order."""
        return tuple(s.name for s in self._specs)

    # ------------------------------------------------------------------
    def sample(self, n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """Draw ``n`` uniform genomes, shape ``(n, dimension)``."""
        if n < 0:
            raise ScenarioError(f"cannot sample a negative population: {n}")
        gen = ensure_rng(rng)
        u = gen.random((n, self.dimension))
        genomes = self._low + u * (self._high - self._low)
        return self.clip(genomes)

    def clip(self, genomes: np.ndarray) -> np.ndarray:
        """Project genomes into the box (wrap circular, round integer)."""
        g = np.atleast_2d(np.asarray(genomes, dtype=np.float64)).copy()
        if g.shape[-1] != self.dimension:
            raise ScenarioError(
                f"genome dimension {g.shape[-1]} != space dimension {self.dimension}"
            )
        circular, linear, integer = self._circular, self._linear, self._integer
        if circular.size:
            low, high = self._low[circular], self._high[circular]
            # +-inf has no angle: the mod is NaN, which decode refuses
            with np.errstate(invalid="ignore"):
                wrapped = low + np.mod(g[:, circular] - low, self._span[circular])
            # a mod rounded up to exactly `span` wraps back to `low`
            g[:, circular] = np.where(wrapped >= high, low, wrapped)
        g[:, linear] = _clamp(g[:, linear], self._low[linear], self._high[linear])
        if integer.size:
            g[:, integer] = _clamp(
                np.rint(g[:, integer]), self._integer_low, self._integer_high
            )
        return g if np.asarray(genomes).ndim > 1 else g[0]

    def contains(self, genome: np.ndarray) -> bool:
        """Whether every coordinate lies in its valid range."""
        g = np.asarray(genome, dtype=np.float64)
        if g.shape != (self.dimension,):
            raise ScenarioError(
                f"genome shape {g.shape} != ({self.dimension},)"
            )
        return all(bool(spec.contains(g[j])) for j, spec in enumerate(self._specs))

    def validate(self, genome: np.ndarray) -> None:
        """Raise :class:`ScenarioError` describing any out-of-range coordinate."""
        g = np.asarray(genome, dtype=np.float64)
        if g.shape != (self.dimension,):
            raise ScenarioError(f"genome shape {g.shape} != ({self.dimension},)")
        problems = [
            f"{spec.name}={g[j]} outside [{spec.low}, {spec.high}] {spec.unit}"
            for j, spec in enumerate(self._specs)
            if not spec.contains(g[j])
        ]
        if problems:
            raise ScenarioError("invalid genome: " + "; ".join(problems))

    # ------------------------------------------------------------------
    def decode(self, genome: np.ndarray) -> Scenario:
        """Genome → :class:`Scenario` (rounds ``Model`` to an integer).

        Raises :class:`ScenarioError` when a coordinate is NaN, or is
        infinite on a circular parameter (wrapping turns it into NaN).
        """
        g = self.clip(np.asarray(genome, dtype=np.float64))
        self._check_finite(g[None])
        values = dict(zip(_FIELD_ORDER, (float(x) for x in g)))
        values["model"] = int(round(values["model"]))
        return Scenario(**values)

    def decode_batch(self, genomes: np.ndarray) -> ScenarioBatch:
        """Decode a ``(n, dimension)`` matrix in one pass.

        Clips the whole matrix once; row ``i`` of the result equals
        ``decode(genomes[i])`` field by field, and the same non-finite
        coordinates raise :class:`ScenarioError`.
        """
        g = self.clip(np.atleast_2d(np.asarray(genomes, dtype=np.float64)))
        self._check_finite(g)
        columns = {name: g[:, j] for j, name in enumerate(_FIELD_ORDER)}
        columns["model"] = np.rint(columns["model"]).astype(np.int64)
        return ScenarioBatch(**columns)

    def _check_finite(self, clipped: np.ndarray) -> None:
        """Raise :class:`ScenarioError` naming each non-finite column."""
        bad = ~np.isfinite(clipped)
        if bad.any():
            names = [s.name for j, s in enumerate(self._specs) if bad[:, j].any()]
            raise ScenarioError(
                "non-finite genome coordinate(s) after clipping: " + ", ".join(names)
            )

    def decode_many(self, genomes: np.ndarray) -> list[Scenario]:
        """Decode a ``(n, dimension)`` matrix of genomes."""
        return [self.decode(row) for row in np.atleast_2d(genomes)]

    def encode(self, scenario: Scenario) -> np.ndarray:
        """Scenario → clipped genome."""
        return self.clip(scenario.to_genome())

    # ------------------------------------------------------------------
    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Normalised genotypic distance in [0, 1] between two genomes.

        Each coordinate contributes its absolute difference divided by
        the parameter span; circular parameters use wrap-around
        distance. Used by the diversity analysis (not by the novelty
        score, which is behavioural — Eq. 2).
        """
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        total = 0.0
        for j, spec in enumerate(self._specs):
            d = abs(a[j] - b[j])
            if spec.circular:
                d = min(d, spec.span - d)
            total += d / spec.span
        return total / self.dimension

    def pairwise_distances(self, genomes: np.ndarray) -> np.ndarray:
        """All-pairs normalised genotypic distances, shape ``(n, n)``."""
        g = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        n = g.shape[0]
        diff = np.abs(g[:, None, :] - g[None, :, :])
        circular = self._circular
        if circular.size:
            arc = diff[:, :, circular]
            diff[:, :, circular] = np.minimum(arc, self._span[circular] - arc)
        diff /= self._span
        out = diff.mean(axis=2)
        np.fill_diagonal(out, 0.0)
        return out if n > 1 else np.zeros((n, n))
