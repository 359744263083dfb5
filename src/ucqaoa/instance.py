"""Single-period unit commitment problem data model.

A problem instance is a list of generating units, each with a quadratic
cost curve ``a + b*p + c*p**2`` and generation box ``[p_min, p_max]``,
plus a target load.  A commitment is a length-N 0/1 vector (unit i ON
iff ``bits[i] == 1``).  The physical cost convention is that OFF units
contribute nothing; the penalized objective in :mod:`ucqaoa.qubo`
deliberately evaluates its formula literally instead.

Bit-order convention used package-wide: unit 0 is the least significant
bit of a basis-state index, and serialized bitstrings are written
unit-0-first (character j of the string is unit j's state).
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ValidationError

Commitment = tuple[int, ...]

DEFAULT_FEASIBILITY_TOL = 1e-6  # relative; a check tolerance, far above dispatch rounding


@dataclass(frozen=True, slots=True)
class UnitSpec:
    """One generating unit: cost coefficients and generation limits.

    Cost of running the unit at power p (MW) is ``a*y + b*p + c*p**2``
    dollars, with y the ON/OFF bit.  Requires 0 <= p_min <= p_max and
    non-negative cost coefficients.
    """

    p_min: float
    p_max: float
    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name in ("p_min", "p_max", "a", "b", "c"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if self.p_min < 0:
            raise ValidationError(f"p_min must be >= 0, got {self.p_min}")
        if self.p_min > self.p_max:
            raise ValidationError(
                f"p_min ({self.p_min}) exceeds p_max ({self.p_max})"
            )
        for name in ("a", "b", "c"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class UcInstance:
    """A unit commitment instance: units plus the load to be met."""

    units: tuple[UnitSpec, ...]
    load: float
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "units", tuple(self.units))
        if len(self.units) < 1:
            raise ValidationError("an instance needs at least one unit")
        # numbers.Real admits numpy floats and ints; bool is an int, not a load
        if isinstance(self.load, bool) or not isinstance(self.load, numbers.Real):
            raise ValidationError(f"load must be a number, got {self.load!r}")
        # a float, as load_instance reads it, so that it serializes as one
        object.__setattr__(self, "load", float(self.load))
        if not math.isfinite(self.load) or self.load <= 0:
            raise ValidationError(f"load must be a finite positive number, got {self.load}")
        cap = sum(u.p_max for u in self.units)
        if self.load > cap:
            warnings.warn(
                f"load {self.load} MW exceeds total capacity {cap} MW; "
                "no feasible commitment exists",
                stacklevel=2,
            )

    @property
    def n(self) -> int:
        return len(self.units)

    @cached_property
    def coeff_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, c, p_min, p_max) as float arrays, for vectorized evaluation."""
        a = np.array([u.a for u in self.units], dtype=float)
        b = np.array([u.b for u in self.units], dtype=float)
        c = np.array([u.c for u in self.units], dtype=float)
        lo = np.array([u.p_min for u in self.units], dtype=float)
        hi = np.array([u.p_max for u in self.units], dtype=float)
        return a, b, c, lo, hi

    def with_load(self, load: float) -> "UcInstance":
        return UcInstance(units=self.units, load=load, name=self.name)


@dataclass(frozen=True)
class LimitViolation:
    """One box-constraint violation found by check_feasible."""

    unit: int
    kind: str  # "below_min" | "above_max" | "off_nonzero"
    power: float
    bound: float


@dataclass(frozen=True)
class FeasibilityReport:
    load_met: bool
    limit_violations: tuple[LimitViolation, ...] = field(default_factory=tuple)

    @property
    def feasible(self) -> bool:
        return self.load_met and not self.limit_violations


# ---------------------------------------------------------------------------
# bit/index/string conversions (unit 0 = least significant bit)

def bits_to_index(bits: Sequence[int]) -> int:
    k = 0
    for i, b in enumerate(bits):
        if b:
            k |= 1 << i
    return k


def index_to_bits(k: int, n: int) -> Commitment:
    return tuple((k >> i) & 1 for i in range(n))


def bits_to_string(bits: Sequence[int]) -> str:
    """Serialize unit-0-first: character j is unit j's bit."""
    return "".join("1" if b else "0" for b in bits)


def string_to_bits(s: str) -> Commitment:
    if not s or any(ch not in "01" for ch in s):
        raise ValidationError(f"bitstring must be nonempty over {{0,1}}, got {s!r}")
    return tuple(int(ch) for ch in s)


def index_to_string(k: int, n: int) -> str:
    return bits_to_string(index_to_bits(k, n))


# ---------------------------------------------------------------------------
# cost and feasibility

def _check_lengths(inst: UcInstance, *vectors: Sequence) -> None:
    for v in vectors:
        if len(v) != inst.n:
            raise ValidationError(f"expected length {inst.n}, got {len(v)}")


def _check_commitment(inst: UcInstance, commit: Sequence[int]) -> np.ndarray:
    """The ON mask of a commitment whose length is n and whose every entry
    is 0 or 1 (numpy integers and bools included)."""
    _check_lengths(inst, commit)
    y = np.asarray(commit)
    binary = (y == 0) | (y == 1)
    if not binary.all():
        raise ValidationError(f"commitment entries must be 0 or 1, got {y[~binary].tolist()}")
    return y == 1


def _check_powers(inst: UcInstance, powers: Sequence[float]) -> np.ndarray:
    """Powers as a float array, checked to be length n and finite."""
    _check_lengths(inst, powers)
    p = np.asarray(powers, dtype=float)
    bad = np.flatnonzero(~np.isfinite(p))
    if bad.size:
        named = ", ".join(f"unit {i} has {p[i]}" for i in bad.tolist())
        raise ValidationError(f"powers must be finite: {named}")
    return p


def total_cost(inst: UcInstance, commit: Sequence[int], powers: Sequence[float]) -> float:
    """Physical cost of a commitment: OFF units contribute 0 (p forced to 0).
    Every commitment entry must be 0 or 1 and every power finite."""
    y = _check_commitment(inst, commit).astype(float)
    a, b, c, _, _ = inst.coeff_arrays
    p = _check_powers(inst, powers) * y
    return float(np.sum(a * y + b * p + c * p * p))


def check_feasible(
    inst: UcInstance,
    commit: Sequence[int],
    powers: Sequence[float],
    tol: float = DEFAULT_FEASIBILITY_TOL,
) -> FeasibilityReport:
    """Check load balance and per-unit limits at relative tolerance ``tol``.

    The load is met iff |sum of ON powers - L| <= tol*L.  ON units must sit
    inside [p_min, p_max]; OFF units must hold p = 0 (within tol*L).
    Every commitment entry must be 0 or 1 and every power finite.
    """
    on = _check_commitment(inst, commit)
    powers = _check_powers(inst, powers).tolist()
    violations: list[LimitViolation] = []
    on_total = 0.0
    slack = tol * inst.load
    for i, (u, y) in enumerate(zip(inst.units, on.tolist())):
        p = powers[i]
        if y:
            on_total += p
            if p < u.p_min - slack:
                violations.append(LimitViolation(i, "below_min", p, u.p_min))
            elif p > u.p_max + slack:
                violations.append(LimitViolation(i, "above_max", p, u.p_max))
        elif abs(p) > slack:
            violations.append(LimitViolation(i, "off_nonzero", p, 0.0))
    load_met = abs(on_total - inst.load) <= slack
    return FeasibilityReport(load_met=load_met, limit_violations=tuple(violations))


# ---------------------------------------------------------------------------
# instance document I/O (JSON; see README for the schema)

_UNIT_KEYS = ("p_min", "p_max", "a", "b", "c")


def _reject_constant(value: str) -> float:
    raise ValidationError(f"non-finite number {value!r} not permitted in instance documents")


def _require_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {value!r}")
    return float(value)


def load_instance(text: str) -> UcInstance:
    """Parse an instance document; errors name the offending field path."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed instance document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("instance document must be a JSON object")
    unknown = set(doc) - {"name", "load", "units"}
    if unknown:
        raise ValidationError(f"unknown top-level keys: {sorted(unknown)}")
    if "load" not in doc or "units" not in doc:
        raise ValidationError("instance document requires 'load' and 'units'")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ValidationError(f"name: expected a string, got {name!r}")
    load = _require_number(doc["load"], "load")
    raw_units = doc["units"]
    if not isinstance(raw_units, list) or not raw_units:
        raise ValidationError("units: expected a non-empty array")
    units = []
    for i, raw in enumerate(raw_units):
        path = f"units[{i}]"
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: expected an object")
        unknown = set(raw) - set(_UNIT_KEYS)
        if unknown:
            raise ValidationError(f"{path}: unknown keys {sorted(unknown)}")
        missing = [k for k in _UNIT_KEYS if k not in raw]
        if missing:
            raise ValidationError(f"{path}: missing keys {missing}")
        fields = {k: _require_number(raw[k], f"{path}.{k}") for k in _UNIT_KEYS}
        try:
            units.append(UnitSpec(**fields))
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    return UcInstance(units=tuple(units), load=load, name=name)


def serialize_instance(inst: UcInstance) -> str:
    """Inverse of load_instance; floats round-trip bit-exactly via repr."""
    doc = {
        "name": inst.name,
        "load": inst.load,
        "units": [
            {k: getattr(u, k) for k in _UNIT_KEYS} for u in inst.units
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_instance_file(path: str) -> UcInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return load_instance(fh.read())


# ---------------------------------------------------------------------------
# builtin 10-unit system

_TEN_UNIT_ROWS: tuple[tuple[float, float, float, float, float], ...] = (
    # (p_max, p_min, a, b, c)
    (455.0, 150.0, 1000.0, 16.19, 0.00048),
    (455.0, 150.0, 970.0, 17.26, 0.00031),
    (130.0, 20.0, 700.0, 16.60, 0.002),
    (130.0, 20.0, 680.0, 16.50, 0.00211),
    (162.0, 25.0, 450.0, 19.70, 0.00398),
    (80.0, 20.0, 370.0, 22.26, 0.00712),
    (85.0, 25.0, 480.0, 27.74, 0.0079),
    (55.0, 10.0, 660.0, 25.92, 0.00413),
    (55.0, 10.0, 665.0, 27.27, 0.00222),
    (55.0, 10.0, 670.0, 27.79, 0.00173),
)


def builtin_ten_unit(load: float = 700.0) -> UcInstance:
    """The standard 10-unit benchmark system (load configurable, default 700 MW)."""
    units = tuple(
        UnitSpec(p_min=p_min, p_max=p_max, a=a, b=b, c=c)
        for (p_max, p_min, a, b, c) in _TEN_UNIT_ROWS
    )
    return UcInstance(units=units, load=load, name="ten-unit")
