"""The records' range checks run on every construction path.

A record is an immutable ``typing.NamedTuple``.  Its ``_replace`` builds
the copy through ``_make``, which skips ``__new__``, so a record with a
check must run it there too: ``runner`` copies the geometry of each
thickness-sweep point with ``_replace``, and the tests move a system onto
another photon comb with it.
"""

import math

import pytest

from transducer_sim import (
    ConfigError,
    ElectrostaticEnvironment,
    EmitterParams,
    MembraneGeometry,
    SimulationSettings,
    SweepSettings,
    TransferSystem,
    parse_config,
)

from test_harness import MINIMAL

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
        "temperature_k must be nonnegative",
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
        "mode_count must be at least 2",
    ),
}


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


@pytest.mark.parametrize("start, stop", [(math.nan, 1.0), (0.0, math.inf), (0.0, math.nan)])
def test_sweep_range_must_be_finite(start, stop):
    # the parser refuses such a value first; a sweep built in Python is checked too
    with pytest.raises(ValueError, match="start and stop must be finite"):
        SweepSettings("bias_voltage", start, stop, 3)


def test_config_equality_ignores_hash():
    # the same experiment from two documents: only the hash differs
    plain, commented = parse_config(MINIMAL), parse_config("# a comment\n" + MINIMAL)
    assert plain.config_hash != commented.config_hash
    assert plain == commented
    assert not plain != commented
    assert hash(plain) == hash(commented)
