"""Every config key moves an output, and no value of a key crashes a run.

For each key of ``config._SCHEMA`` a small document runs twice through the
CLI: as written, and with that key set to another value.  Some row or
header line other than ``# config_sha256=`` must differ between the two
CSVs.  A key that the parser accepts but no run reads then fails here
instead of lingering as a setting that does nothing; the exceptions are
named in ``UNREAD_BY_DESIGN``, each with its reason.

README's "Config schema" table lists exactly these keys, and each
default it gives is the one a document that leaves the key out gets.

Every number key is also set, one at a time, to values across the float
range (zero, negatives, the extremes, nan and inf) in a document of each
command: the CLI exits 0 or 2, never with a traceback, and a run that
succeeds writes only known statuses and finite ``ok`` rows.  A Hypothesis
property makes the same claims for several keys set at once, with values
across orders of magnitude and signs, and a drawn sweep.
"""

import math
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from transducer_sim import ConfigError, dynamics, runner
from transducer_sim.cli import EXIT_CONFIG, EXIT_OK, main
from transducer_sim.config import _RECORDS, _SCHEMA, SWEEP_VARIABLES, parse_config
from transducer_sim.records import _TYPE_TESTS

README = Path(__file__).resolve().parent.parent / "README.md"

DEVICE = """
[geometry]
length_m = 110e-9
width_m = 1e-6
thickness_m = 1.1e-9
youngs_modulus_pa = 1000e9

[circuit]
gap_m = 10e-9
bias_voltage_v = 3.3
"""


def sweep(variable, start, stop):
    return (
        f"\n[sweep]\nvariable = {variable}\nstart = {start}\nstop = {stop}\n"
        "points = 3\nspacing = linear\n"
    )


MECHANICS_BIAS = DEVICE + sweep("bias_voltage", 1.0, 3.0)
MECHANICS_THICKNESS = DEVICE + sweep("thickness", 1e-9, 3e-9)
COUPLINGS = DEVICE + sweep("bias_voltage", 1.0, 3.0)
TRANSFER = DEVICE + "\n[simulation]\ng_c_hz = 50e6\nduration_s = 10e-9\n"
#: the optical occupation is zero below ~30 K; at 1e4 K it enhances kappa
HOT_TRANSFER = TRANSFER + "temperature_k = 1e4\n"
SCAN = TRANSFER + sweep("temperature", 0.05, 1.0)

#: (section, key) -> (command, document, another value than the document's)
CASES = {
    ("geometry", "length_m"): ("mechanics", MECHANICS_BIAS, "120e-9"),
    ("geometry", "width_m"): ("mechanics", MECHANICS_BIAS, "2e-6"),
    ("geometry", "thickness_m"): ("mechanics", MECHANICS_BIAS, "2.2e-9"),
    ("geometry", "youngs_modulus_pa"): ("mechanics", MECHANICS_BIAS, "500e9"),
    ("geometry", "mass_density_kg_m3"): ("mechanics", MECHANICS_BIAS, "3000"),
    ("geometry", "pre_tension_n"): ("mechanics", MECHANICS_BIAS, "20e-9"),
    ("geometry", "clamping_coefficient"): ("mechanics", MECHANICS_BIAS, "1.2"),
    ("geometry", "mode_mass_fraction"): ("couplings", COUPLINGS, "0.4"),
    ("circuit", "gap_m"): ("mechanics", MECHANICS_BIAS, "12e-9"),
    ("circuit", "bias_voltage_v"): ("mechanics", MECHANICS_THICKNESS, "2.0"),
    ("circuit", "inductance_h"): ("couplings", COUPLINGS, "2e-6"),
    ("emitter", "zpl_wavelength_m"): ("transfer", HOT_TRANSFER, "700e-9"),
    ("emitter", "strain_shift_mev_per_percent"): ("couplings", COUPLINGS, "10.0"),
    ("emitter", "stark_shift_mev_per_v_per_m"): ("couplings", COUPLINGS, "1e-7"),
    ("simulation", "g_c_hz"): ("transfer", TRANSFER, "40e6"),
    ("simulation", "kappa_hz"): ("transfer", TRANSFER, "40e6"),
    ("simulation", "gamma_m_hz"): ("transfer", TRANSFER, "1e6"),
    ("simulation", "gamma_lc_hz"): ("transfer", TRANSFER, "1e6"),
    ("simulation", "temperature_k"): ("transfer", TRANSFER, "1.0"),
    ("simulation", "mode_frequency_hz"): ("transfer", TRANSFER, "1e9"),
    ("simulation", "duration_s"): ("transfer", TRANSFER, "12e-9"),
    ("sweep", "variable"): ("couplings", DEVICE + sweep("bias_voltage", 0.0, 1e-9), "displacement"),
    ("sweep", "start"): ("scan", SCAN, "0.5"),
    ("sweep", "stop"): ("mechanics", MECHANICS_BIAS, "2.0"),
    ("sweep", "points"): ("mechanics", MECHANICS_BIAS, "4"),
    ("sweep", "spacing"): ("mechanics", MECHANICS_BIAS, "log"),
}

#: (section, key) -> why no run reads it yet
UNREAD_BY_DESIGN = {
    ("emitter", "optical_decay_hz"): (
        "the benchmark's statics documents set it, so it cannot be refused; "
        "it waits for the end-to-end device run to read it"
    ),
}


def with_key(text, section, key, value):
    """``text`` with ``[section] key = value``, replacing the key's line if it has one."""
    line = re.compile(rf"^{key} = .*$", re.MULTILINE)
    start = text.find(f"[{section}]")
    if start < 0:
        return text + f"\n[{section}]\n{key} = {value}\n"
    end = text.find("\n[", start)
    end = len(text) if end < 0 else end
    body = text[start:end]
    if line.search(body):
        body = line.sub(f"{key} = {value}", body)
    else:
        body = body.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n", 1)
    return text[:start] + body + text[end:]


def output(tmp_path, name, command, text):
    """The CSV lines of one run, without the config hash."""
    cfg, out = tmp_path / f"{name}.ini", tmp_path / f"{name}.csv"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    return [
        line for line in out.read_text().splitlines() if not line.startswith("# config_sha256=")
    ]


def test_every_schema_key_has_a_case():
    keys = {(section, key) for section, names in _SCHEMA.items() for key in names}
    assert set(CASES) | set(UNREAD_BY_DESIGN) == keys
    assert not set(CASES) & set(UNREAD_BY_DESIGN)


@pytest.mark.parametrize("case", sorted(CASES), ids=".".join)
def test_key_moves_an_output(tmp_path, case):
    section, key = case
    command, text, value = CASES[case]
    changed = with_key(text, section, key, value)
    assert changed != text
    assert output(tmp_path, "changed", command, changed) != output(
        tmp_path, "base", command, text
    )


@pytest.mark.parametrize("case", sorted(UNREAD_BY_DESIGN), ids=".".join)
def test_unread_key_moves_nothing(tmp_path, case):
    # a key that got wired in leaves UNREAD_BY_DESIGN for CASES
    section, key = case
    for command, text in (("couplings", COUPLINGS), ("transfer", HOT_TRANSFER), ("scan", SCAN)):
        changed = with_key(text, section, key, "1e9")
        assert output(tmp_path, "changed", command, changed) == output(
            tmp_path, "base", command, text
        ), command


@pytest.mark.parametrize("key", ["g_c_hz", "kappa_hz", "gamma_m_hz", "gamma_lc_hz"])
def test_negative_simulation_rate_is_refused_at_parse(tmp_path, key):
    # refused where it is written, so a statics run that reads no rate refuses it too
    field = _SCHEMA["simulation"][key][0]
    text = with_key(MECHANICS_BIAS, "simulation", key, "-50e6")
    with pytest.raises(ConfigError) as refusal:
        parse_config(text)
    assert str(refusal.value) == f"[simulation] {key}: {field} must be nonnegative"
    cfg = tmp_path / "negative.ini"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["mechanics", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    zero = parse_config(with_key(MECHANICS_BIAS, "simulation", key, "0"))
    assert getattr(zero.simulation, field) == 0.0


#: field -> a value its record refuses that no sign or conversion gives
UNSIGNED_REFUSALS = {
    "mode_mass_fraction": "2",
    "points": "0",
    "variable": "gap",
    "spacing": "cubic",
    "stop": "-1",
}


def refused_values(section, key):
    """Values of ``key`` that its section's record refuses: -1 for a signed
    field, a finite text that converts to inf, and ``UNSIGNED_REFUSALS``."""
    name, convert = _SCHEMA[section][key]
    annotation = _RECORDS[section].__annotations__[name]
    values = [UNSIGNED_REFUSALS[name]] if name in UNSIGNED_REFUSALS else []
    if _TYPE_TESTS[getattr(annotation, "__forward_arg__", annotation)][2]:
        values.append("-1")
    if convert not in (float, int, str):
        values += [text for text in ("1e308", "1e-320") if math.isinf(convert(float(text)))]
    return values


REFUSALS = [
    (section, key, value)
    for section, keys in _SCHEMA.items()
    for key in keys
    for value in refused_values(section, key)
]


def test_every_key_has_a_refused_value():
    assert {(section, key) for section, key, _ in REFUSALS} == {
        (section, key) for section, keys in _SCHEMA.items() for key in keys
    }
    assert ("emitter", "zpl_wavelength_m", "1e-320") in REFUSALS
    assert ("simulation", "kappa_hz", "1e308") in REFUSALS


@pytest.mark.parametrize("section, key, value", REFUSALS)
def test_record_refusal_names_its_key(section, key, value):
    text = with_key(TRANSFER + sweep("bias_voltage", 0.0, 1.0), section, key, value)
    with pytest.raises(ConfigError) as refusal:
        parse_config(text)
    assert (refusal.value.section, refusal.value.key) == (section, key)
    assert str(refusal.value).startswith(f"[{section}] {key}: ")


def test_required_keys_are_the_fields_without_default():
    required = {
        (section, key)
        for section, keys in _SCHEMA.items()
        for key, (name, _) in keys.items()
        if name not in _RECORDS[section]._field_defaults
    }
    assert required == {
        ("geometry", "length_m"), ("geometry", "width_m"), ("geometry", "thickness_m"),
        ("geometry", "youngs_modulus_pa"), ("circuit", "gap_m"), ("circuit", "bias_voltage_v"),
        ("sweep", "variable"), ("sweep", "start"), ("sweep", "stop"), ("sweep", "points"),
    }
    for section, key in required:
        with pytest.raises(ConfigError) as refusal:
            parse_config(re.sub(rf"^{key} = .*\n", "", MECHANICS_BIAS, flags=re.MULTILINE))
        assert str(refusal.value) == f"[{section}] {key}: missing required field"


@pytest.mark.parametrize("section", ["geometry", "circuit"])
def test_missing_device_section_is_refused(section):
    text = re.sub(rf"\[{section}\]\n(\w+ = .*\n)*", "", DEVICE)
    assert f"[{section}]" not in text
    with pytest.raises(ConfigError) as refusal:
        parse_config(text)
    assert str(refusal.value) == f"[{section}] missing required section"


def test_left_out_sections_take_their_defaults():
    config = parse_config(DEVICE)
    assert config.sweep is None
    assert config.environment.inductance == 1e-6
    assert config.emitter == _RECORDS["emitter"]()
    assert config.simulation == _RECORDS["simulation"]()


@pytest.mark.parametrize("key", ["duration_s", "length_m", "gap_m"])
def test_default_section_with_keys_is_refused(key):
    # configparser would copy [DEFAULT]'s keys into every section, so a
    # refusal as a key would name a section the document never put it in
    with pytest.raises(ConfigError) as refusal:
        parse_config(f"[DEFAULT]\n{key} = 1e-9\n" + DEVICE)
    assert str(refusal.value) == "[DEFAULT] unknown section"
    # an empty [DEFAULT] is an unknown section too
    with pytest.raises(ConfigError) as refusal:
        parse_config("[DEFAULT]\n" + DEVICE)
    assert str(refusal.value) == "[DEFAULT] unknown section"


def test_sections_and_keys_are_matched_as_written():
    # a key in capitals is not read as the lower-case key it folds to
    with pytest.raises(ConfigError) as refusal:
        parse_config(DEVICE.replace("[circuit]\n", "[circuit]\nGAP_M = -1e-8\n"))
    assert str(refusal.value) == "[circuit] GAP_M: unknown key"
    with pytest.raises(ConfigError) as refusal:
        parse_config(DEVICE.replace("[circuit]", "[Circuit]"))
    assert str(refusal.value) == "[Circuit] unknown section"


@pytest.mark.parametrize(
    "section, key, value, kind",
    [
        ("geometry", "length_m", "1_10e-9", "a number"),
        ("geometry", "length_m", "\u0663", "a number"),  # an Arabic-Indic three
        ("geometry", "length_m", "0x10", "a number"),
        ("circuit", "gap_m", "nan", "a number"),
        ("circuit", "gap_m", ".5e-8", "a number"),
        ("sweep", "points", "\u0663", "an integer"),
        ("sweep", "points", "0x10", "an integer"),
        ("sweep", "points", "+3", "an integer"),
        ("sweep", "points", "3.0", "an integer"),
    ],
)
def test_only_plain_decimals_are_numbers(section, key, value, kind):
    # float() and int() take each of these, or parse them to another value
    with pytest.raises(ConfigError) as refusal:
        parse_config(with_key(MECHANICS_BIAS, section, key, value))
    assert str(refusal.value) == f"[{section}] {key}: not {kind}: {value!r}"


def test_plain_decimals_are_read():
    text = with_key(MECHANICS_BIAS, "geometry", "length_m", "+110.E-9")
    config = parse_config(with_key(text, "sweep", "points", "007"))
    assert config.geometry.length == 110e-9
    assert config.sweep.points == 7
    # a decimal past the float range still overflows
    with pytest.raises(ConfigError) as refusal:
        parse_config(with_key(MECHANICS_BIAS, "geometry", "length_m", "1e999"))
    assert str(refusal.value) == "[geometry] length_m: not a finite number: '1e999'"


def readme_schema():
    """section -> key -> the note in parentheses after it, from README's table."""
    text = README.read_text().split("## Config schema", 1)[1].split("\n## ", 1)[0]
    return {
        section: dict(re.findall(r"`(\w+)`(?: \(([^)]*)\))?", cell))
        for section, cell in re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", text, re.MULTILINE)
    }


def test_readme_lists_the_schema():
    assert {section: set(keys) for section, keys in readme_schema().items()} == {
        section: set(keys) for section, keys in _SCHEMA.items()
    }


def test_readme_defaults_are_applied():
    # the notes of [sweep] list its choices; every other note is a default
    written = DEVICE
    for section, keys in readme_schema().items():
        if section != "sweep":
            for key, default in keys.items():
                if default:
                    written = with_key(written, section, key, default)
    assert written.count("\n") - DEVICE.count("\n") >= 14
    # every field but the config hash
    assert parse_config(written)[:-1] == parse_config(DEVICE)[:-1]


#: a document of each command, with a short run
GRID_DOCUMENTS = {
    "mechanics_bias": ("mechanics", MECHANICS_BIAS),
    "mechanics_log_thickness": ("mechanics", MECHANICS_THICKNESS.replace("linear", "log")),
    "couplings_bias": ("couplings", COUPLINGS),
    "couplings_displacement": ("couplings", DEVICE + sweep("displacement", 0.0, 3e-9)),
    "transfer": ("transfer", TRANSFER),
    "scan_temperature": ("scan", SCAN),
    "scan_kappa": ("scan", TRANSFER + sweep("kappa", 20e6, 50e6)),
}

GRID_VALUES = ("0", "-1", "1e-300", "1e300", "-1e300", "nan", "inf")

#: every number key: the device keys, and the sweep range of a sweep document
GRID_KEYS = [
    (section, key) for section, keys in _SCHEMA.items() if section != "sweep" for key in keys
]

KNOWN_STATUSES = {"ok", "pull_in", "tuning_error", "unstable", "not_reached"}


def grid_fault(tmp_path, command, text):
    """Why one run breaks the exit-code claims, or None."""
    cfg, out = tmp_path / "grid.ini", tmp_path / "grid.csv"
    cfg.write_text(text)
    out.unlink(missing_ok=True)
    try:
        code = main([command, "--config", str(cfg), "--out", str(out)])
    except Exception as exc:  # the claim is that no value escapes as a traceback
        return f"raised {type(exc).__name__}: {exc}"
    if code not in (EXIT_OK, EXIT_CONFIG):
        return f"exit {code}"
    if code != EXIT_OK:
        return None
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    has_status = lines[0].endswith(",status")
    for line in lines[1:]:
        cells = line.split(",")
        status = cells.pop() if has_status else "ok"
        if status not in KNOWN_STATUSES:
            return f"status {status!r}"
        if status == "ok" and not all(math.isfinite(float(v)) for v in cells):
            return f"ok row not finite: {line}"
    return None


@pytest.mark.parametrize("name", sorted(GRID_DOCUMENTS))
def test_every_key_grid_exit_codes(tmp_path, name):
    command, text = GRID_DOCUMENTS[name]
    keys = GRID_KEYS + ([("sweep", "start"), ("sweep", "stop")] if "[sweep]" in text else [])
    faults = []
    for section, key in keys:
        for value in GRID_VALUES:
            fault = grid_fault(tmp_path, command, with_key(text, section, key, value))
            if fault:
                faults.append(f"[{section}] {key} = {value}: {fault}")
    assert not faults, "\n".join(faults)


#: values of any number key that no factor reaches
SPECIAL_VALUES = (
    "0", "-0", "nan", "inf", "-inf", "5e-324", "1e-300", "-1e300", "1.7976931348623157e308",
)

#: a number key's value over a typical one: 1..10 x 10^k over 24 decades,
#: three quarters positive
FACTORS = st.builds(
    lambda sign, mantissa, k: sign * mantissa * 10.0 ** k,
    st.sampled_from((1.0, 1.0, 1.0, -1.0)),
    st.floats(1.0, 10.0),
    st.integers(-12, 12),
)

#: a factor two times in three, so that many runs pass the parser, else a special value
VALUES = st.one_of(FACTORS, FACTORS, st.sampled_from(SPECIAL_VALUES))

#: a typical value of each sweep variable, in the document's unit
SWEEP_SCALES = {
    "thickness": 1e-9,
    "bias_voltage": 1.0,
    "displacement": 1e-9,
    "temperature": 0.1,
    "kappa": 50e6,
}

SWEEPS = st.tuples(
    st.sampled_from(SWEEP_VARIABLES),
    VALUES,
    VALUES,
    st.integers(1, 5),
    st.sampled_from(("linear", "log")),
)

#: most (steps + power-table rows) x modes that one drawn run may plan,
#: about 20 ms of stepping
WORK_BUDGET = 2e6


def written(value, scale):
    """A drawn value as a document writes it: a factor times ``scale``."""
    return value if isinstance(value, str) else repr(value * scale)


@st.composite
def documents(draw, text):
    """``text`` with one to four number keys drawn, and on a sweep document
    perhaps a drawn sweep."""
    defaults = readme_schema()
    keys = draw(st.lists(st.sampled_from(GRID_KEYS), min_size=1, max_size=4, unique=True))
    for section, key in keys:
        found = re.search(rf"^{key} = (.*)$", text, re.MULTILINE)
        typical = float(found.group(1) if found else defaults[section].get(key) or 1.0) or 1.0
        text = with_key(text, section, key, written(draw(VALUES), typical))
    if "[sweep]" in text and draw(st.booleans()):
        variable, start, stop, points, spacing = draw(SWEEPS)
        scale = SWEEP_SCALES[variable]
        for key, value in (
            ("variable", variable),
            ("start", written(start, scale)),
            ("stop", written(stop, scale)),
            ("points", points),
            ("spacing", spacing),
        ):
            text = with_key(text, "sweep", key, value)
    return text


def planned_work(command, text):
    """(steps + power-table rows) x modes of the run's trajectories, up to the
    first one the run refuses; 0 for a statics run."""
    work = 0
    if command not in ("transfer", "scan"):
        return work
    try:
        config = parse_config(text)
        sim = config.simulation
        points = []
        if command == "transfer":
            points = [(sim.g_c, sim.kappa, sim.temperature)]
        elif config.sweep.variable == "temperature":
            points = [(sim.g_c, sim.kappa, value) for value in config.sweep.values()]
        elif config.sweep.variable == "kappa":
            kappas = [2 * math.pi * value for value in config.sweep.values()]
            points = [(kappa, kappa, sim.temperature) for kappa in kappas]
        for point in points:
            system = runner._build_system(config, *point)
            steps = dynamics.step_plan(system, sim.duration)[0]
            work += (steps + 2 * dynamics._BLOCK + 1) * system.mode_count
    except (ConfigError, TypeError):
        pass  # the run refuses this point before it steps (TypeError: g_c_hz or duration_s unset)
    return work


@pytest.mark.parametrize("name", sorted(GRID_DOCUMENTS))
def test_config_surface_property(tmp_path, name):
    command, text = GRID_DOCUMENTS[name]

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(documents(text))
    def check(document):
        assume(planned_work(command, document) <= WORK_BUDGET)
        fault = grid_fault(tmp_path, command, document)
        assert fault is None, f"{fault}\n{document}"

    check()
