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
import os
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError

Commitment = tuple[int, ...]

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _warn(message: str) -> None:
    """A UserWarning attributed to the first caller outside this package,
    past a dataclass's generated ``__init__`` (file ``<string>``)."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and (frame.f_code.co_filename == "<string>"
                                        or frame.f_code.co_filename.startswith(_PACKAGE_DIR)):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


@dataclass(frozen=True, slots=True)
class UnitSpec:
    """One generating unit: cost coefficients and generation limits.

    Cost of running the unit at power p (MW) is ``a*y + b*p + c*p**2``
    dollars, with y the ON/OFF bit.  Requires 0 <= p_min <= p_max,
    non-negative cost coefficients and a finite cost at p_max, so that
    every dispatch cost is finite and an infinite one can only mean infeasible.
    """

    p_min: float
    p_max: float
    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name in ("p_min", "p_max", "a", "b", "c"):
            object.__setattr__(self, name, _finite_float(getattr(self, name), name, 0))
        if self.p_min > self.p_max:
            raise ValidationError(f"p_min ({self.p_min}) exceeds p_max ({self.p_max})")
        if not math.isfinite(_cost_at_p_max(self)):
            raise ValidationError(
                f"cost a + b*p_max + c*p_max**2 at p_max {self.p_max!r} is not finite")


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
        object.__setattr__(self, "load", _finite_float(self.load, "load"))
        if self.load <= 0:
            raise ValidationError(f"load must be positive, got {self.load}")
        if not math.isfinite(sum(_cost_at_p_max(u) for u in self.units)):
            raise ValidationError("the units' summed cost at p_max is not finite")
        cap = sum(u.p_max for u in self.units)
        if self.load > cap:
            _warn(f"load {self.load} MW exceeds total capacity {cap} MW; "
                  "no feasible commitment exists")

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


def _cost_at_p_max(unit: UnitSpec) -> float:
    # p_max * p_max, not p_max ** 2: a float power past the largest float
    # raises OverflowError, a product is inf
    return unit.a + unit.b * unit.p_max + unit.c * unit.p_max * unit.p_max


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
# input checks shared by the package

def _finite_float(value, name: str, least: Optional[float] = None) -> float:
    """`value` as a finite Python float, so that it serializes as one, and
    >= `least` when that is given.  numbers.Real admits numpy floats and
    ints; a bool is an int, not a number here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:
        raise ValidationError(f"{name} is too large for a float") from None
    if not math.isfinite(result) or (least is not None and result < least):
        floor = "" if least is None else f" and >= {least:g}"
        raise ValidationError(f"{name} must be finite{floor}, got {value!r}")
    return result


def _count(value, name: str, least: int) -> int:
    """`value` as a Python int >= `least`.  numbers.Integral admits numpy
    integers and refuses 2.5, "3" and None; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _finite_vector(value, name: str, size: Optional[int] = None,
                   least: Optional[float] = None) -> np.ndarray:
    """`value` as a 1-D float array, `size` long and every entry finite and
    >= `least` where those are given.  Bools and numpy numbers are numbers
    here, as commitments need; a float64 vector, a view too, comes back as
    itself.  Errors quote a few offending entries, not a 2**n-entry vector."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged, as [[1], [1, 1]]: numpy finds no shape
        arr = None
    if arr is not None and arr.ndim != 1:
        got = repr(value) if arr.ndim == 0 else f"shape {arr.shape}"
        raise ValidationError(f"{name} must be a vector, got {got}")
    if arr is not None and arr.dtype == object and all(isinstance(e, numbers.Real) for e in value):
        # an int past int64 or a Fraction; a bool beside them is 0 or 1, as elsewhere
        arr = np.array([_finite_float(int(e) if isinstance(e, bool) else e, name) for e in value])
    if arr is None or arr.dtype.kind not in "biuf":  # ragged, or a str, complex or object entry
        bad = [e for e in value if not isinstance(e, numbers.Real)] or list(value)
        rule = "a vector of real numbers"
    else:
        arr = np.asarray(arr, dtype=float)
        if size is not None and arr.size != size:
            raise ValidationError(f"{name} has length {arr.size}, expected length {size}")
        ok = np.isfinite(arr) if least is None else np.isfinite(arr) & (arr >= least)
        bad = [] if ok.all() else arr[~ok].tolist()
        rule = "finite" if least is None else f"finite and >= {least:g}"
    if bad:
        raise ValidationError(f"{name} must be {rule}, got {_quote(bad)}")
    return arr


def _quote(entries: list) -> str:
    """At most five entries, and how many more, for a one-line error message."""
    more = f" and {len(entries) - 5} more" if len(entries) > 5 else ""
    return f"{entries[:5]!r}{more}"


def _check_commitment(inst: UcInstance, commit: Sequence[int]) -> np.ndarray:
    """The ON mask of a length-n commitment whose every entry is 0 or 1
    (numpy integers and bools included)."""
    y = _finite_vector(commit, "commitment of 0 or 1 entries", inst.n)
    binary = (y == 0) | (y == 1)
    if not binary.all():
        raise ValidationError(f"commitment entries must be 0 or 1, got {y[~binary].tolist()}")
    return y == 1


# ---------------------------------------------------------------------------
# instance document reading (JSON; see README for the schema)

_UNIT_KEYS = ("p_min", "p_max", "a", "b", "c")


def _reject_constant(value: str) -> float:
    raise ValidationError(f"non-finite number {value!r} not permitted in instance documents")


def load_instance(text: str) -> UcInstance:
    """Parse an instance document; errors name the offending field path."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # bad syntax, a NaN token, or an integer past int's digit limit
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
        try:
            units.append(UnitSpec(**raw))
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    return UcInstance(units=tuple(units), load=doc["load"], name=name)


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
