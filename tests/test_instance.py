import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import instances, unit_specs
from oracles import all_commitments, check_feasible, serialize_instance, total_cost, unit_cost
from ucqaoa.errors import ValidationError
from ucqaoa.instance import (
    UcInstance,
    UnitSpec,
    bits_to_index,
    bits_to_string,
    builtin_ten_unit,
    index_to_bits,
    index_to_string,
    load_instance,
    string_to_bits,
)


# ---------------------------------------------------------------------------
# UnitSpec / UcInstance validation


def test_unit_spec_rejects_inverted_box():
    with pytest.raises(ValidationError):
        UnitSpec(p_min=20.0, p_max=10.0, a=1.0, b=1.0, c=1.0)


def test_unit_spec_rejects_negative_coefficients():
    for bad in ({"a": -1.0}, {"b": -0.5}, {"c": -1e-9}, {"p_min": -1.0}):
        kw = dict(p_min=0.0, p_max=10.0, a=1.0, b=1.0, c=1.0)
        kw.update(bad)
        with pytest.raises(ValidationError):
            UnitSpec(**kw)


def test_unit_spec_rejects_non_finite():
    with pytest.raises(ValidationError):
        UnitSpec(p_min=0.0, p_max=float("inf"), a=1.0, b=1.0, c=1.0)
    with pytest.raises(ValidationError):
        UnitSpec(p_min=0.0, p_max=10.0, a=float("nan"), b=1.0, c=1.0)


def test_instance_requires_units_and_positive_load():
    u = UnitSpec(p_min=0.0, p_max=10.0, a=1.0, b=1.0, c=1.0)
    with pytest.raises(ValidationError):
        UcInstance(units=(), load=5.0)
    with pytest.raises(ValidationError):
        UcInstance(units=(u,), load=0.0)
    with pytest.raises(ValidationError):
        UcInstance(units=(u,), load=-3.0)


def test_instance_load_must_be_a_number():
    u = UnitSpec(p_min=0.0, p_max=10.0, a=1.0, b=1.0, c=1.0)
    # True would be stored as 1 MW and serialized as a bool load_instance rejects
    for bad in (True, np.bool_(True), "7", None):
        with pytest.raises(ValidationError, match=re.escape(repr(bad))):
            UcInstance(units=(u,), load=bad)
    for good in (7, 7.0, np.float64(7.0), np.float32(7.0), np.int64(7)):
        inst = UcInstance(units=(u,), load=good)
        assert type(inst.load) is float and inst.load == 7.0
        assert load_instance(serialize_instance(inst)).load == 7.0


def test_unit_spec_takes_numpy_numbers_as_floats():
    u = UnitSpec(np.float32(1.0), np.int64(10), np.float64(2.5), 3, 0.5)
    for name in ("p_min", "p_max", "a", "b", "c"):
        assert type(getattr(u, name)) is float
    assert (u.p_min, u.p_max, u.a, u.b) == (1.0, 10.0, 2.5, 3.0)
    with pytest.raises(ValidationError, match="a must be a number"):
        UnitSpec(p_min=0.0, p_max=10.0, a=np.bool_(True), b=1.0, c=1.0)


def test_integers_past_float_range_are_rejected():
    u = UnitSpec(p_min=0.0, p_max=10.0, a=1.0, b=1.0, c=1.0)
    with pytest.raises(ValidationError, match="p_max is too large"):
        UnitSpec(p_min=0.0, p_max=10**400, a=1.0, b=1.0, c=1.0)
    with pytest.raises(ValidationError, match="load is too large"):
        UcInstance(units=(u,), load=10**400)
    doc = {"load": 5.0, "units": [{"p_min": 0, "p_max": int("1" * 400), "a": 0, "b": 0, "c": 0}]}
    with pytest.raises(ValidationError, match=r"units\[0\]: p_max is too large"):
        load_instance(json.dumps(doc))
    # past the interpreter's digit limit json itself refuses the integer
    with pytest.raises(ValidationError, match="malformed"):
        load_instance('{"load": ' + "1" * 5000 + ', "units": []}')


@pytest.mark.parametrize("kw", [
    dict(p_max=1e200, b=1e200, c=0.0),
    dict(p_max=1e200, b=1.0, c=1.0),
    dict(p_max=1.0, a=1.7e308, b=1e308, c=0.0),
], ids=["b*p_max", "c*p_max*p_max", "sum"])
def test_unit_spec_rejects_overflowing_cost(kw):
    # with a, b, c >= 0 a finite cost at p_max bounds every dispatch cost,
    # so an infinite cost can only mean infeasible
    with pytest.raises(ValidationError, match="cost a \\+ b\\*p_max .* is not finite"):
        UnitSpec(**{"p_min": 0.0, "a": 1.0, **kw})
    doc = {"load": 1.0, "units": [{"p_min": 0.0, "a": 1.0, **kw}]}
    with pytest.raises(ValidationError, match=r"^units\[0\]: cost"):
        load_instance(json.dumps(doc))


def test_instance_rejects_overflowing_fleet_cost():
    u = UnitSpec(p_min=0.0, p_max=1.0, a=1e308, b=0.0, c=0.0)
    assert UcInstance(units=(u,), load=1.0).n == 1
    with pytest.raises(ValidationError, match="summed cost at p_max is not finite"):
        UcInstance(units=(u, u), load=1.0)


def test_instance_warns_when_load_exceeds_capacity():
    u = UnitSpec(p_min=0.0, p_max=10.0, a=1.0, b=1.0, c=1.0)
    with pytest.warns(UserWarning, match="exceeds total capacity"):
        UcInstance(units=(u,), load=11.0)


def test_capacity_warning_points_at_the_callers_line():
    # it pointed into the dataclass's generated __init__, "<string>:6"
    u = UnitSpec(p_min=0.0, p_max=10.0, a=1.0, b=1.0, c=1.0)
    for build in (lambda: UcInstance(units=(u,), load=11.0),
                  lambda: builtin_ten_unit(5000.0),
                  lambda: builtin_ten_unit().with_load(5000.0)):
        with pytest.warns(UserWarning, match="exceeds total capacity") as caught:
            build()
        where = [(w.filename, w.lineno) for w in caught]
        assert where == [(__file__, build.__code__.co_firstlineno)]


# ---------------------------------------------------------------------------
# bit order: unit 0 is the least significant bit, strings unit-0-first


def test_bit_order_convention():
    assert bits_to_index((1, 0, 0)) == 1
    assert bits_to_index((0, 0, 1)) == 4
    assert index_to_bits(6, 3) == (0, 1, 1)
    assert bits_to_string((1, 0, 0)) == "100"
    assert index_to_string(1, 3) == "100"
    assert string_to_bits("011") == (0, 1, 1)


def test_string_to_bits_rejects_junk():
    for bad in ("", "012", "1 0", "ab"):
        with pytest.raises(ValidationError):
            string_to_bits(bad)


@given(st.integers(1, 12), st.data())
def test_index_bits_round_trip(n, data):
    k = data.draw(st.integers(0, (1 << n) - 1))
    bits = index_to_bits(k, n)
    assert len(bits) == n
    assert bits_to_index(bits) == k
    assert string_to_bits(bits_to_string(bits)) == bits


def test_all_commitments_order():
    got = list(all_commitments(2))
    assert got == [(0, 0), (1, 0), (0, 1), (1, 1)]


# ---------------------------------------------------------------------------
# cost evaluation


def test_unit_cost_hand_values():
    ten = builtin_ten_unit()
    # unit 3 of the builtin table at p=100
    assert unit_cost(ten.units[2], 1, 100.0) == pytest.approx(2380.0, abs=1e-9)
    # unit 1 at p=300
    assert unit_cost(ten.units[0], 1, 300.0) == pytest.approx(5900.2, abs=1e-9)
    assert unit_cost(ten.units[5], 0, 0.0) == 0.0


def test_total_cost_all_off_is_zero():
    ten = builtin_ten_unit()
    assert total_cost(ten, (0,) * 10, (50.0,) * 10) == 0.0


def test_total_cost_hand_value():
    ten = builtin_ten_unit()
    commit = (1, 1) + (0,) * 8
    powers = (455.0, 245.0) + (0.0,) * 8
    expected = (1000 + 16.19 * 455 + 0.00048 * 455**2
                + 970 + 17.26 * 245 + 0.00031 * 245**2)
    assert total_cost(ten, commit, powers) == pytest.approx(expected, rel=1e-12)


def test_total_cost_ignores_off_unit_powers():
    ten = builtin_ten_unit()
    commit = (1,) + (0,) * 9
    base = total_cost(ten, commit, (300.0,) + (0.0,) * 9)
    spoofed = total_cost(ten, commit, (300.0,) + (99.0,) * 9)
    assert base == spoofed


def test_total_cost_length_mismatch():
    ten = builtin_ten_unit()
    with pytest.raises(ValueError):
        total_cost(ten, (1, 0), (10.0, 10.0))


@pytest.mark.parametrize("commit", [(-1, 1) + (0,) * 8, (2, 1) + (0,) * 8],
                         ids=["minus-one", "two"])
def test_total_cost_rejects_non_binary_commitment(commit):
    # unchecked, (-1, 1, 0, ...) priced at -3049.77 and (2, 1, 0, ...)
    # charged unit 0's fixed cost twice
    ten = builtin_ten_unit(700.0)
    with pytest.raises(ValidationError, match="0 or 1"):
        total_cost(ten, commit, (455.0, 245.0) + (0.0,) * 8)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("unit", [0, 3], ids=["on-unit", "off-unit"])
def test_total_cost_rejects_non_finite_power(unit, bad):
    # unchecked, a nan power on an OFF unit priced the commitment at nan
    ten = builtin_ten_unit(700.0)
    powers = [455.0, 245.0] + [0.0] * 8
    powers[unit] = bad
    with pytest.raises(ValidationError, match=f"unit {unit} has {bad}"):
        total_cost(ten, (1, 1) + (0,) * 8, powers)


def test_total_cost_accepts_numpy_ints_and_bools():
    ten = builtin_ten_unit(700.0)
    commit, powers = (1, 1) + (0,) * 8, (455.0, 245.0) + (0.0,) * 8
    want = total_cost(ten, commit, powers)
    for same in (np.array(commit), np.array(commit, dtype=np.uint8), np.array(commit, dtype=bool)):
        assert total_cost(ten, same, powers) == want


@given(instances(min_units=2, max_units=6), st.data())
def test_total_cost_permutation_invariant(inst, data):
    perm = data.draw(st.permutations(range(inst.n)))
    commit = tuple(data.draw(st.integers(0, 1)) for _ in range(inst.n))
    powers = tuple(float(u.p_max) / 2 for u in inst.units)
    permuted = UcInstance(
        units=tuple(inst.units[i] for i in perm), load=inst.load, name=inst.name
    )
    y2 = tuple(commit[i] for i in perm)
    p2 = tuple(powers[i] for i in perm)
    assert total_cost(inst, commit, powers) == pytest.approx(
        total_cost(permuted, y2, p2), rel=1e-12
    )


@given(unit_specs(), st.floats(0.0, 1.0))
def test_unit_cost_at_least_fixed_cost_when_on(u, t):
    p = u.p_min + t * (u.p_max - u.p_min)
    assert unit_cost(u, 1, p) >= u.a


# ---------------------------------------------------------------------------
# feasibility checking


def _one_unit_inst(p_min=10.0, p_max=50.0, load=30.0):
    return UcInstance(
        units=(UnitSpec(p_min=p_min, p_max=p_max, a=1.0, b=1.0, c=0.001),),
        load=load,
    )


def test_check_feasible_all_off_misses_load():
    rep = check_feasible(_one_unit_inst(), (0,), (0.0,))
    assert not rep.load_met
    assert not rep.limit_violations
    assert not rep.feasible


def test_check_feasible_interior_point():
    rep = check_feasible(_one_unit_inst(), (1,), (30.0,))
    assert rep.feasible


def test_check_feasible_below_min_violation():
    rep = check_feasible(_one_unit_inst(load=5.0), (1,), (5.0,))
    assert rep.load_met
    assert len(rep.limit_violations) == 1
    v = rep.limit_violations[0]
    assert v.unit == 0 and v.kind == "below_min" and v.bound == 10.0


def test_check_feasible_off_unit_power_flagged():
    inst = UcInstance(
        units=(
            UnitSpec(p_min=10.0, p_max=50.0, a=1.0, b=1.0, c=0.001),
            UnitSpec(p_min=10.0, p_max=50.0, a=1.0, b=1.0, c=0.001),
        ),
        load=30.0,
    )
    rep = check_feasible(inst, (1, 0), (30.0, 25.0))
    assert rep.load_met
    assert [v.kind for v in rep.limit_violations] == ["off_nonzero"]


def test_check_feasible_zero_tol_is_exact():
    inst = _one_unit_inst()
    assert check_feasible(inst, (1,), (30.0,), tol=0.0).feasible
    assert not check_feasible(inst, (1,), (30.0 + 1e-9,), tol=0.0).load_met


@pytest.mark.parametrize("commit", [(-1,), (2,), (0.5,)], ids=["minus-one", "two", "half"])
def test_check_feasible_rejects_non_binary_commitment(commit):
    with pytest.raises(ValidationError, match="0 or 1"):
        check_feasible(_one_unit_inst(), commit, (30.0,))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("commit", [(1, 0), (1, 1)], ids=["off-unit", "on-unit"])
def test_check_feasible_rejects_non_finite_power(commit, bad):
    # unchecked, a nan power on an OFF unit passed as feasible, since
    # abs(nan) > slack is False
    inst = UcInstance(
        units=(
            UnitSpec(p_min=10.0, p_max=50.0, a=1.0, b=1.0, c=0.001),
            UnitSpec(p_min=10.0, p_max=50.0, a=1.0, b=1.0, c=0.001),
        ),
        load=30.0,
    )
    with pytest.raises(ValidationError, match=f"unit 1 has {bad}"):
        check_feasible(inst, commit, (30.0, bad))


def test_check_feasible_accepts_numpy_ints_and_bools():
    inst = _one_unit_inst()
    for commit in (np.array([1]), np.array([1], dtype=np.int16), np.array([True]), (np.True_,)):
        assert check_feasible(inst, commit, (30.0,)).feasible
    assert not check_feasible(inst, np.array([False]), (30.0,)).feasible


# ---------------------------------------------------------------------------
# instance document I/O


def test_load_instance_table_values():
    ten = builtin_ten_unit()
    doc = serialize_instance(ten)
    back = load_instance(doc)
    assert back == ten
    u5 = back.units[4]
    assert (u5.p_max, u5.p_min, u5.a, u5.b, u5.c) == (162.0, 25.0, 450.0, 19.70, 0.00398)
    # slotted units: an instance keeps only the five floats of each
    assert not hasattr(u5, "__dict__")


@given(instances())
def test_serialize_round_trip_bit_exact(inst):
    assert load_instance(serialize_instance(inst)) == inst


def test_load_instance_rejects_empty_units():
    with pytest.raises(ValidationError, match="units"):
        load_instance(json.dumps({"load": 10.0, "units": []}))


def test_load_instance_names_bad_unit():
    doc = {
        "load": 10.0,
        "units": [
            {"p_min": 0.0, "p_max": 10.0, "a": 1.0, "b": 1.0, "c": 0.0},
            {"p_min": 20.0, "p_max": 10.0, "a": 1.0, "b": 1.0, "c": 0.0},
        ],
    }
    with pytest.raises(ValidationError, match=r"units\[1\]"):
        load_instance(json.dumps(doc))


def test_load_instance_rejects_unknown_keys():
    doc = {"load": 10.0, "units": [{"p_min": 0, "p_max": 1, "a": 0, "b": 0, "c": 0}],
           "extra": 1}
    with pytest.raises(ValidationError, match="unknown top-level"):
        load_instance(json.dumps(doc))
    doc = {"load": 10.0,
           "units": [{"p_min": 0, "p_max": 1, "a": 0, "b": 0, "c": 0, "d": 9}]}
    with pytest.raises(ValidationError, match=r"units\[0\]"):
        load_instance(json.dumps(doc))


def test_load_instance_rejects_nan_inf_tokens():
    text = '{"load": 10.0, "units": [{"p_min": 0, "p_max": NaN, "a": 0, "b": 0, "c": 0}]}'
    with pytest.raises(ValidationError):
        load_instance(text)
    text = '{"load": Infinity, "units": [{"p_min": 0, "p_max": 1, "a": 0, "b": 0, "c": 0}]}'
    with pytest.raises(ValidationError):
        load_instance(text)


def test_load_instance_rejects_malformed_json():
    with pytest.raises(ValidationError, match="malformed"):
        load_instance("{not json")


# ---------------------------------------------------------------------------
# builtin table


def test_builtin_ten_unit_table():
    ten = builtin_ten_unit()
    assert ten.n == 10
    assert ten.load == 700.0
    assert ten.units[0].p_max == 455.0
    assert ten.units[9].c == 0.00173
    assert sum(u.p_max for u in ten.units) == pytest.approx(1662.0)
    assert builtin_ten_unit(450.0).load == 450.0


def test_coeff_arrays_match_units():
    ten = builtin_ten_unit()
    a, b, c, lo, hi = ten.coeff_arrays
    assert np.array_equal(a, [u.a for u in ten.units])
    assert np.array_equal(hi, [u.p_max for u in ten.units])
    assert np.array_equal(lo, [u.p_min for u in ten.units])
