"""Every config key moves an output.

For each key of ``config._SCHEMA`` a small document runs twice through the
CLI: as written, and with that key set to another value.  Some row or
header line other than ``# config_sha256=`` must differ between the two
CSVs.  A key that the parser accepts but no run reads then fails here
instead of lingering as a setting that does nothing; the exceptions are
named in ``UNREAD_BY_DESIGN``, each with its reason.
"""

import re

import pytest

from transducer_sim.cli import EXIT_OK, main
from transducer_sim.config import _SCHEMA

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
