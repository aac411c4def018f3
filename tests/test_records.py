"""The records' range checks run on every construction path.

A record is an immutable ``typing.NamedTuple``.  Its ``_replace`` builds
the copy through ``_make``, which skips ``__new__``, so a record with a
check must run it there too: ``runner`` copies the geometry of each
thickness-sweep point with ``_replace``, and the tests move a system onto
another photon comb with it.
"""

import math
import warnings

import numpy as np
import pytest

from transducer_sim import (
    CircuitParams,
    ConfigError,
    ElectrostaticEnvironment,
    EmitterParams,
    MembraneGeometry,
    OperatingPoint,
    SimulationSettings,
    SweepSettings,
    TransferSystem,
    elastic_force,
    electromechanical_coupling,
    integrate,
    membrane_capacitance,
    operating_point_at_deflection,
    pull_in_deflection,
    stark_coupling,
    thermal_occupation,
    tune_capacitor,
)
from transducer_sim.constants import wavelength_to_angular_frequency
from transducer_sim.dynamics import step_plan
from transducer_sim.mechanics import bias_for_deflection
from transducer_sim.records import _TYPE_TESTS

TWO_PI = 2.0 * math.pi

#: record, fields of a valid one, the field set to a bad value and that
#: value, and the exception type and message the check raises
CASES = {
    "MembraneGeometry": (
        MembraneGeometry,
        dict(length=110e-9, width=1e-6, thickness=1.1e-9, youngs_modulus=1e12),
        ("thickness", -1.1e-9),
        ValueError,
        "thickness must be positive",
    ),
    "ElectrostaticEnvironment": (
        ElectrostaticEnvironment,
        dict(gap=10e-9, bias_voltage=3.3),
        ("gap", 0.0),
        ValueError,
        "gap must be positive",
    ),
    "EmitterParams": (
        EmitterParams,
        dict(),
        ("optical_decay", -1.0),
        ValueError,
        "optical_decay must be positive",
    ),
    "SimulationSettings": (
        SimulationSettings,
        dict(g_c=TWO_PI * 50e6, duration=150e-9),
        ("temperature", -0.05),
        ValueError,
        "temperature must be nonnegative",
    ),
    "SweepSettings": (
        SweepSettings,
        dict(variable="bias_voltage", start=0.0, stop=1.0, points=2),
        ("points", 0),
        ValueError,
        "points must be >= 1",
    ),
    "TransferSystem": (
        TransferSystem,
        dict(
            g_om=TWO_PI * 50e6,
            g_em=TWO_PI * 50e6,
            kappa=TWO_PI * 50e6,
            gamma_m=TWO_PI * 100e3,
            gamma_lc=TWO_PI * 100e3,
            mode_spacing=TWO_PI * 1e6,
            mode_count=500,
        ),
        ("mode_count", 1),
        ConfigError,
        "mode_count must be even and at least 2",
    ),
}


# the stepping core pairs every photon mode with its conjugate partner
CASES["TransferSystem, odd comb"] = (
    *CASES["TransferSystem"][:2],
    ("mode_count", 501),
    ConfigError,
    "mode_count must be even and at least 2",
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_runs_on_construction_and_replace(name):
    record, fields, (field, bad), error, message = CASES[name]
    valid = record(**fields)
    assert valid._replace() == valid
    with pytest.raises(error) as built:
        record(**{**fields, field: bad})
    assert str(built.value) == message
    with pytest.raises(error) as copied:
        valid._replace(**{field: bad})
    assert str(copied.value) == message


SHEET = MembraneGeometry(**CASES["MembraneGeometry"][1])
BIASED = ElectrostaticEnvironment(gap=10e-9, bias_voltage=3.3)
#: an operating point whose deflection is NaN; the other fields are valid
NAN_DEFLECTION = OperatingPoint(math.nan, 0.0, TWO_PI * 5e9, 1e-12)

#: a range check written ``x < 0`` takes NaN, since every comparison with
#: NaN is false, and one written ``x > 0`` takes inf; each of these refuses
#: NaN (or inf) with its own error and message (a record, as not finite,
#: before its range checks)
NAN_REFUSALS = {
    "SimulationSettings.duration": (
        lambda: SimulationSettings(g_c=1.0, duration=math.nan),
        ValueError,
        "duration must be finite, not nan",
    ),
    "SimulationSettings.temperature": (
        lambda: SimulationSettings(temperature=math.nan),
        ValueError,
        "temperature must be finite, not nan",
    ),
    "ElectrostaticEnvironment.bias_voltage": (
        lambda: ElectrostaticEnvironment(1e-8, math.nan),
        ValueError,
        "bias_voltage must be finite, not nan",
    ),
    "MembraneGeometry.pre_tension": (
        lambda: MembraneGeometry(110e-9, 1e-6, 1.1e-9, 1e12, pre_tension=math.nan),
        ValueError,
        "pre_tension must be finite, not nan",
    ),
    "step_plan": (
        lambda: step_plan(TransferSystem(**CASES["TransferSystem"][1]), math.nan),
        ConfigError,
        "duration must be nonnegative",
    ),
    "thermal_occupation": (
        lambda: thermal_occupation(TWO_PI * 5e9, math.nan),
        ValueError,
        "temperature must be nonnegative",
    ),
    "elastic_force": (
        lambda: elastic_force(SHEET, math.nan),
        ValueError,
        "deflection is measured toward the electrode; must be >= 0",
    ),
    "operating_point_at_deflection": (
        lambda: operating_point_at_deflection(SHEET, math.nan),
        ValueError,
        "deflection must be nonnegative",
    ),
    "membrane_capacitance": (
        lambda: membrane_capacitance(SHEET, 1e-8, math.nan),
        ValueError,
        "deflection must be nonnegative",
    ),
    "membrane_capacitance.gap": (
        lambda: membrane_capacitance(SHEET, math.nan, 1e-9),
        ValueError,
        "deflection reaches the electrode (contact)",
    ),
    "electromechanical_coupling": (
        lambda: electromechanical_coupling(
            NAN_DEFLECTION, CircuitParams(1e-15, 1e-18), SHEET, BIASED
        ),
        ValueError,
        "deflection must be nonnegative",
    ),
    "tune_capacitor": (
        lambda: tune_capacitor(1e-6, TWO_PI * 5e9, math.nan),
        ValueError,
        "membrane capacitance must be nonnegative",
    ),
    "bias_for_deflection": (
        lambda: bias_for_deflection(SHEET, math.nan, 1e-9),
        ValueError,
        "deflection reaches the electrode (contact)",
    ),
    "pull_in_deflection": (
        lambda: pull_in_deflection(SHEET, math.nan),
        ValueError,
        "gap must be positive and finite",
    ),
    "stark_coupling": (
        lambda: stark_coupling(NAN_DEFLECTION, BIASED, EmitterParams()),
        ValueError,
        "deflection reaches the electrode (contact)",
    ),
    "wavelength_to_angular_frequency": (
        lambda: wavelength_to_angular_frequency(math.nan),
        ValueError,
        "wavelength must be positive",
    ),
    "thermal_occupation.inf": (
        lambda: thermal_occupation(TWO_PI * 5e9, math.inf),
        ValueError,
        "temperature must be finite",
    ),
    "membrane_capacitance.inf_gap": (
        lambda: membrane_capacitance(SHEET, math.inf, 1e-9),
        ValueError,
        "gap must be finite",
    ),
    "bias_for_deflection.inf_gap": (
        lambda: bias_for_deflection(SHEET, math.inf, 1e-9),
        ValueError,
        "gap must be finite",
    ),
    "pull_in_deflection.inf_gap": (
        lambda: pull_in_deflection(SHEET, math.inf),
        ValueError,
        "gap must be positive and finite",
    ),
}


@pytest.mark.parametrize("name", NAN_REFUSALS)
def test_nan_is_refused_by_the_nonnegativity_checks(name):
    build, error, message = NAN_REFUSALS[name]
    with pytest.raises(error) as refusal:
        build()
    assert type(refusal.value) is error
    assert str(refusal.value) == message


#: the six checked records, by their names in CASES
RECORDS = ["MembraneGeometry", "ElectrostaticEnvironment", "EmitterParams",
           "SimulationSettings", "SweepSettings", "TransferSystem"]


def field_tests(record):
    """field -> the entry of ``checked``'s table for its annotation, read as ``checked`` reads it."""
    kinds = [getattr(kind, "__forward_arg__", kind) for kind in record.__annotations__.values()]
    return {name: _TYPE_TESTS[kind] for name, kind in zip(record._fields, kinds)}


def float_fields(record):
    """The fields that must be a number, or a number or None: ``float``, ``Positive`` and
    ``NonNegative``, with or without ``| None``."""
    return [name for name, (_, kind, _) in field_tests(record).items() if kind.startswith("a number")]


FLOAT_FIELDS = [(name, field) for name in RECORDS for field in float_fields(CASES[name][0])]

#: (record name, field, "positive" or "nonnegative") of each signed field
SIGNED_FIELDS = [
    (name, field, sign)
    for name in RECORDS
    for field, (_, _, sign) in field_tests(CASES[name][0]).items()
    if sign
]


def test_every_float_field_is_found():
    # 8 geometry, 3 environment, 4 emitter, 7 settings, 2 sweep, 6 system
    assert len(FLOAT_FIELDS) == 30
    assert ("TransferSystem", "kappa") in FLOAT_FIELDS
    assert ("SimulationSettings", "g_c") in FLOAT_FIELDS


def test_every_signed_field_is_found():
    signs = [sign for _, _, sign in SIGNED_FIELDS]
    # Positive: 6 geometry, 2 environment, 2 emitter, 1 settings, 1 system field;
    # NonNegative: 1 geometry, 1 environment, 6 settings, 1 sweep, 5 system fields
    assert (signs.count("positive"), signs.count("nonnegative")) == (12, 14)
    assert ("ElectrostaticEnvironment", "gap", "positive") in SIGNED_FIELDS
    assert ("SimulationSettings", "g_c", "nonnegative") in SIGNED_FIELDS
    assert ("TransferSystem", "mode_spacing", "positive") in SIGNED_FIELDS


#: per sign, the values a field of it refuses and those it accepts
SIGN_VALUES = {
    "positive": ([0.0, -0.0, -1.0], []),
    "nonnegative": ([-1e-300, -1.0], [0.0, -0.0]),
}


@pytest.mark.parametrize("name, field, sign", SIGNED_FIELDS)
def test_signed_field_refuses_the_wrong_sign(name, field, sign):
    record, fields, _, error, _ = CASES[name]
    valid = record(**fields)
    refused, accepted = SIGN_VALUES[sign]
    for bad in refused:
        with pytest.raises(error) as built:
            record(**{**fields, field: bad})
        with pytest.raises(error) as copied:
            valid._replace(**{field: bad})
        for refusal in (built, copied):
            assert type(refusal.value) is error
            assert str(refusal.value) == f"{field} must be {sign}"
    for good in accepted:
        assert getattr(record(**{**fields, field: good}), field) == good
        assert getattr(valid._replace(**{field: good}), field) == good


@pytest.mark.parametrize("name", ["MembraneGeometry", "ElectrostaticEnvironment", "EmitterParams"])
def test_least_positive_float_is_positive(name):
    # a record of numbers passes its signs in one comparison with the least
    # float of each field's sign, the least positive float for a Positive one
    record, fields = CASES[name][:2]
    for field, (_, _, sign) in field_tests(record).items():
        if sign == "positive":
            assert getattr(record(**{**fields, field: math.ulp(0.0)}), field) == math.ulp(0.0)


@pytest.mark.parametrize("name, field, sign", SIGNED_FIELDS)
def test_signed_field_takes_numpy_scalars(name, field, sign):
    # a sign test must compare a numpy scalar, not give NotImplemented for it
    record, fields = CASES[name][:2]
    value = getattr(record(**fields), field)
    # rounded up if positive and down if nonnegative, which keeps the comb
    # above its bandwidth floor of 5 kappa
    whole = math.ceil(value) if sign == "positive" else math.floor(value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scalar in (np.float64(value), np.int64(whole)):
            assert getattr(record(**{**fields, field: scalar}), field) == scalar
            assert getattr(record(**fields)._replace(**{field: scalar}), field) == scalar


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name, field", FLOAT_FIELDS)
def test_float_field_must_be_finite(name, field, bad):
    record, fields, _, error, _ = CASES[name]
    valid = record(**fields)
    with pytest.raises(error) as built:
        record(**{**fields, field: bad})
    with pytest.raises(error) as copied:
        valid._replace(**{field: bad})
    for refusal in (built, copied):
        assert type(refusal.value) is error
        assert str(refusal.value) == f"{field} must be finite, not {bad!r}"


#: a field of a record, a value of the wrong type for it, and the record's
#: message: the check that ``checked`` takes from the field annotations
#: raises the record's own error, naming the field
WRONG_TYPES = [
    ("MembraneGeometry", "thickness", "1.1e-9", "thickness must be a number, not '1.1e-9'"),
    ("ElectrostaticEnvironment", "bias_voltage", "3.3", "bias_voltage must be a number, not '3.3'"),
    # a field that no range check compares
    ("EmitterParams", "stark_shift_coefficient", "1", "stark_shift_coefficient must be a number, not '1'"),
    ("SimulationSettings", "temperature", "0.05", "temperature must be a number, not '0.05'"),
    ("SimulationSettings", "g_c", "1", "g_c must be a number or None, not '1'"),
    ("SweepSettings", "variable", 1, "variable must be a string, not 1"),
    ("TransferSystem", "mode_count", 500.0, "mode_count must be an integer, not 500.0"),
    ("TransferSystem", "mode_count", "500", "mode_count must be an integer, not '500'"),
    ("TransferSystem", "g_om", "1", "g_om must be a number, not '1'"),
    ("TransferSystem", "mode_spacing", None, "mode_spacing must be a number, not None"),
    ("SweepSettings", "points", 10.0, "points must be an integer, not 10.0"),
    ("SweepSettings", "points", "3", "points must be an integer, not '3'"),
    ("SweepSettings", "start", "0", "start must be a number, not '0'"),
    ("SweepSettings", "stop", "1", "stop must be a number, not '1'"),
]


@pytest.mark.parametrize("name, field, bad, message", WRONG_TYPES)
def test_wrong_type_is_refused_on_construction_and_replace(name, field, bad, message):
    record, fields, _, error, _ = CASES[name]
    valid = record(**fields)
    with pytest.raises(error) as built:
        record(**{**fields, field: bad})
    with pytest.raises(error) as copied:
        valid._replace(**{field: bad})
    for refusal in (built, copied):
        assert type(refusal.value) is error
        assert str(refusal.value) == message


def test_numpy_integer_counts_are_accepted():
    record, fields = CASES["TransferSystem"][:2]
    system = record(**{**fields, "mode_count": np.int64(500)})
    assert integrate(system, 1e-9).final_amplitudes.size == 503
    assert SweepSettings("bias_voltage", 0.0, 1.0, np.int64(3)).values() == [0.0, 0.5, 1.0]


@pytest.mark.parametrize(
    "start, stop, message",
    [(math.nan, 1.0, "start must be finite, not nan"),
     (0.0, math.inf, "stop must be finite, not inf"),
     (0.0, math.nan, "stop must be finite, not nan")],
)
def test_sweep_range_must_be_finite(start, stop, message):
    # the parser refuses such a value first; a sweep built in Python is checked too
    with pytest.raises(ValueError) as refusal:
        SweepSettings("bias_voltage", start, stop, 3)
    assert type(refusal.value) is ValueError
    assert str(refusal.value) == message
