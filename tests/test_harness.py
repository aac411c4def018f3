import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from transducer_sim import (
    ConfigError,
    ResultTable,
    SweepSettings,
    dynamics,
    parse_config,
    run_coupling_sweep,
    run_environment_scan,
    run_mechanics_sweep,
    run_transfer,
)
from transducer_sim.cli import _COMMANDS, EXIT_CONFIG, EXIT_OK, _build_parser, main
from transducer_sim.config import _SCHEMA, MAX_SWEEP_POINTS
from transducer_sim.mechanics import _fold

from conftest import TWO_PI, pin_comb

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

MINIMAL = """
[geometry]
length_m = 110e-9
width_m = 1e-6
thickness_m = 1.1e-9
youngs_modulus_pa = 1000e9

[circuit]
gap_m = 10e-9
bias_voltage_v = 3.3
"""


def read_config(name):
    return (CONFIG_DIR / name).read_text()


def sweep(variable, start, stop, points=2):
    return (
        f"\n[sweep]\nvariable = {variable}\nstart = {start}\nstop = {stop}\n"
        f"points = {points}\n"
    )


#: (command, document) pairs whose values lie outside the physical range or
#: are incomplete
OUT_OF_RANGE = {
    "temperature_start": (
        "scan",
        MINIMAL
        + "\n[simulation]\ng_c_hz = 50e6\nduration_s = 5e-9\n"
        + sweep("temperature", -0.5, 0.1),
    ),
    "thickness_start": ("mechanics", MINIMAL + sweep("thickness", 0, 2e-9)),
    "bias_start_mechanics": ("mechanics", MINIMAL + sweep("bias_voltage", -1, 1)),
    "bias_start_couplings": ("couplings", MINIMAL + sweep("bias_voltage", -1, 1)),
    "displacement_start": ("couplings", MINIMAL + sweep("displacement", -1e-9, 1e-9)),
    "mode_frequency": (
        "transfer",
        read_config("paper_defaults.ini").replace(
            "mode_frequency_hz = 5e9", "mode_frequency_hz = 0"
        ),
    ),
    # dt_s left the schema, so this is now refused as an unknown key
    "negative_dt": ("transfer", read_config("paper_defaults.ini") + "dt_s = -1e-12\n"),
    # non-finite values, which comparisons such as temperature < 0 let through
    "temperature_nan": (
        "transfer",
        read_config("paper_defaults.ini").replace(
            "temperature_k = 0.05", "temperature_k = nan"
        ),
    ),
    "duration_nan": (
        "transfer",
        read_config("paper_defaults.ini").replace(
            "duration_s = 150e-9", "duration_s = nan"
        ),
    ),
    "kappa_inf": (
        "transfer",
        read_config("paper_defaults.ini").replace("kappa_hz = 50e6", "kappa_hz = inf"),
    ),
    "gap_nan": (
        "mechanics",
        MINIMAL.replace("gap_m = 10e-9", "gap_m = nan") + sweep("bias_voltage", 0, 1),
    ),
}


#: the rate keys of paper_defaults.ini and their values there
RATE_KEYS = {
    "g_c_hz": "50e6",
    "kappa_hz": "50e6",
    "gamma_m_hz": "100e3",
    "gamma_lc_hz": "100e3",
    "mode_frequency_hz": "5e9",
}

#: (command, document) pairs with a rate or comb spacing that overflows
OVERFLOWING = {
    "default_comb_kappa_1e307": (
        "transfer",
        read_config("paper_defaults.ini").replace("kappa_hz = 50e6", "kappa_hz = 1e307"),
    ),
    "default_comb_kappa_1e308": (
        "transfer",
        read_config("paper_defaults.ini").replace("kappa_hz = 50e6", "kappa_hz = 1e308"),
    ),
    "default_comb_g_c_1e308": (
        "transfer",
        read_config("paper_defaults.ini").replace("g_c_hz = 50e6", "g_c_hz = 1e308"),
    ),
    "scan_kappa_1e307_1e308": (
        "scan",
        read_config("scan_kappa.ini")
        .replace("start = 20e6", "start = 1e307")
        .replace("stop = 200e6", "stop = 1e308"),
    ),
    "explicit_comb_g_c_1e308": (
        "transfer",
        read_config("paper_defaults.ini").replace("g_c_hz = 50e6", "g_c_hz = 1e308"),
    ),
    "explicit_comb_spacing_1e307": ("transfer", read_config("paper_defaults.ini")),
    "explicit_comb_spacing_1e308": ("transfer", read_config("paper_defaults.ini")),
}

#: (command, bundled config, section, key, value) of a value that is finite
#: as written but not once converted to SI units
UNCONVERTIBLE = {
    "mode_frequency_1e308": (
        "scan", "scan_temperature.ini", "simulation", "mode_frequency_hz", "1e308"
    ),
    "zpl_wavelength_1e-320": (
        "transfer", "paper_defaults.ini", "emitter", "zpl_wavelength_m", "1e-320"
    ),
    "optical_decay_1e308": (
        "mechanics", "mechanics_voltage_sweep.ini", "emitter", "optical_decay_hz", "1e308"
    ),
    "g_c_1e308": ("transfer", "paper_defaults.ini", "simulation", "g_c_hz", "1e308"),
    "kappa_1e308": ("transfer", "paper_defaults.ini", "simulation", "kappa_hz", "1e308"),
}

#: the ``explicit_comb`` cases run on a comb pinned in process, (spacing Hz, count)
PINNED_COMBS = {
    "explicit_comb_g_c_1e308": (1e6, 500),
    "explicit_comb_spacing_1e307": (1e307, 500),
    "explicit_comb_spacing_1e308": (1e308, 500),
}

#: the bundled statics configs and the command that runs each
STATICS_CONFIGS = {
    "mechanics_voltage_sweep.ini": "mechanics",
    "mechanics_thickness_sweep.ini": "mechanics",
    "couplings_voltage_sweep.ini": "couplings",
    "couplings_displacement_sweep.ini": "couplings",
}

#: (section, key) of every device key and of the sweep's stop
STATICS_KEYS = sorted(
    [(section, key) for section in ("geometry", "circuit") for key in _SCHEMA[section]]
    + [("sweep", "stop")]
)


def set_key(text, section, key, value):
    """``text`` with ``key`` set to ``value``, added to ``section`` if absent."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.split("=")[0].strip() == key:
            lines[i] = f"{key} = {value}\n"
            return "".join(lines)
    return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n", 1)


class TestParseConfig:
    def test_paper_defaults_field_by_field(self):
        cfg = parse_config(read_config("paper_defaults.ini"))
        geom = cfg.geometry
        assert geom.length == 110e-9
        assert geom.width == 1e-6
        assert geom.thickness == 1.1e-9
        assert geom.youngs_modulus == 1000e9
        assert geom.density == 2260.0
        assert geom.pre_tension == 10e-9
        assert geom.clamping_coefficient == 1.03
        assert geom.mode_mass_fraction == 0.5
        assert cfg.environment.gap == 10e-9
        assert cfg.environment.bias_voltage == 3.3
        assert cfg.environment.inductance == 1e-6
        assert cfg.emitter.optical_decay == pytest.approx(TWO_PI * 53e6, rel=1e-12)
        sim = cfg.simulation
        assert sim.g_c == pytest.approx(TWO_PI * 50e6, rel=1e-12)
        assert sim.kappa == pytest.approx(TWO_PI * 50e6, rel=1e-12)
        assert sim.gamma_m == pytest.approx(TWO_PI * 100e3, rel=1e-12)
        assert sim.gamma_lc == pytest.approx(TWO_PI * 100e3, rel=1e-12)
        assert sim.temperature == 0.05
        assert sim.duration == 150e-9
        digest = hashlib.sha256((CONFIG_DIR / "paper_defaults.ini").read_bytes())
        assert cfg.config_hash == digest.hexdigest()

    def test_minimal_document(self):
        cfg = parse_config(MINIMAL)
        assert cfg.sweep is None
        assert cfg.simulation.g_c is None

    def test_missing_required_field_names_it(self):
        with pytest.raises(ConfigError, match="width_m"):
            parse_config(MINIMAL.replace("width_m = 1e-6\n", ""))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="lenght_m"):
            parse_config(MINIMAL.replace("length_m", "lenght_m"))

    def test_unknown_section_rejected(self):
        # a typo, and a drive section that no run would read
        for section in ("membrane", "drive"):
            with pytest.raises(ConfigError, match=section) as excinfo:
                parse_config(MINIMAL + f"\n[{section}]\nrabi_rate_hz = 1e9\n")
            assert excinfo.value.section == section

    def test_negative_thickness_rejected(self):
        with pytest.raises(ConfigError, match="thickness"):
            parse_config(MINIMAL.replace("thickness_m = 1.1e-9", "thickness_m = -1.1e-9"))

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigError, match="gap_m"):
            parse_config(MINIMAL.replace("gap_m = 10e-9", "gap_m = ten"))

    def test_unordered_sweep_rejected(self):
        text = MINIMAL + "\n[sweep]\nvariable = bias_voltage\nstart = 2.0\nstop = 1.0\npoints = 5\n"
        with pytest.raises(ConfigError, match="ordered"):
            parse_config(text)

    def test_log_range_up_to_the_float_max_has_exact_ends(self):
        # stop / start is finite, but start * ratio ** 198 would overflow: the
        # top point is stop itself
        text = MINIMAL + sweep("thickness", 1.0, 1.79769313486231e308, 199) + "spacing = log\n"
        values = parse_config(text).sweep.values()
        assert (values[0], values[-1], len(values)) == (1.0, 1.79769313486231e308, 199)
        assert all(math.isfinite(value) for value in values)
        text = text.replace("stop = 1.79769313486231e+308", "stop = 1e200")
        assert parse_config(text).sweep.values()[-1] == 1e200

    @pytest.mark.parametrize(
        "name", ["couplings_displacement_sweep.ini", "mechanics_thickness_sweep.ini"]
    )
    def test_bundled_sweep_ends_on_its_stop(self, name):
        # start + step * i and start * ratio ** i miss stop by rounding on these two
        settings = parse_config(read_config(name)).sweep
        values = settings.values()
        ends = (values[0], values[-1], len(values))
        assert ends == (settings.start, settings.stop, settings.points)

    def test_unknown_sweep_variable_rejected(self):
        text = MINIMAL + "\n[sweep]\nvariable = gap\nstart = 1e-9\nstop = 2e-9\npoints = 2\n"
        with pytest.raises(ConfigError, match="sweep variable"):
            parse_config(text)


class TestMechanicsSweep:
    def test_voltage_sweep_endpoints(self):
        table = run_mechanics_sweep(parse_config(read_config("mechanics_voltage_sweep.ini")))
        freqs = table.column("frequency")
        deflections = table.column("deflection")
        assert freqs[0] == pytest.approx(2.020e9, rel=1e-3)
        assert freqs[-1] == pytest.approx(4.388e9, rel=1e-3)
        assert all(a <= b for a, b in zip(deflections, deflections[1:]))
        assert all(s == "ok" for s in table.column("status"))

    def test_thickness_sweep_has_interior_minimum(self):
        table = run_mechanics_sweep(parse_config(read_config("mechanics_thickness_sweep.ini")))
        freqs = table.column("frequency")
        i_min = freqs.index(min(freqs))
        assert 0 < i_min < len(freqs) - 1

    def test_pull_in_rows_flagged_not_fatal(self):
        text = MINIMAL + "\n[sweep]\nvariable = bias_voltage\nstart = 4.0\nstop = 6.0\npoints = 5\n"
        table = run_mechanics_sweep(parse_config(text))
        status = table.column("status")
        assert status[0] == "ok"
        assert status[-1] == "pull_in"
        assert math.isnan(table.column("deflection")[-1])

    def test_requires_sweep_section(self):
        with pytest.raises(ConfigError, match="sweep"):
            run_mechanics_sweep(parse_config(MINIMAL))

    def test_rejects_foreign_sweep_variable(self):
        text = MINIMAL + "\n[sweep]\nvariable = temperature\nstart = 0.1\nstop = 1.0\npoints = 3\n"
        with pytest.raises(ConfigError, match="sweep variable"):
            run_mechanics_sweep(parse_config(text))


@pytest.fixture(scope="module")
def table():
    return run_coupling_sweep(parse_config(read_config("couplings_voltage_sweep.ini")))


class TestCouplingSweep:
    def test_zero_bias_row_is_all_zero(self, table):
        row = table.rows[0]
        assert row[0] == 0.0
        assert row[1] == row[2] == row[3] == 0.0

    def test_benchmark_bias_row(self, table):
        row = table.rows[-1]
        assert row[0] == pytest.approx(3.3)
        assert 125e6 < row[1] < 500e6       # g_em within a factor 2 of 250 MHz
        assert row[3] > 50e6                # Stark coupling past its threshold

    def test_electromechanical_rate_monotone(self, table):
        g_em = table.column("g_em")
        assert all(a < b for a, b in zip(g_em, g_em[1:]))

    def test_displacement_sweep(self):
        text = read_config("couplings_voltage_sweep.ini").replace(
            "variable = bias_voltage", "variable = displacement"
        ).replace("stop = 3.3", "stop = 4e-9")
        table = run_coupling_sweep(parse_config(text))
        assert table.column("g_om1")[-1] > 3e6
        g_om1 = table.column("g_om1")
        assert all(a < b for a, b in zip(g_om1, g_om1[1:]))

    def test_unstable_branch_flagged(self):
        # past ~5.35 nm the bias that balances the forces has negative net
        # stiffness: -1.08 N/m at 5.4 nm
        text = read_config("couplings_voltage_sweep.ini").replace(
            "variable = bias_voltage", "variable = displacement"
        ).replace("stop = 3.3", "stop = 5.5e-9").replace("points = 34", "points = 56")
        table = run_coupling_sweep(parse_config(text))
        rows = dict(zip(table.column("displacement"), table.column("status")))
        assert [rows[x] for x in sorted(rows) if x > 5.35e-9] == ["unstable"] * 2
        assert all(s == "ok" for x, s in rows.items() if x < 5.35e-9)
        unstable = [r for r in table.rows if r[-1] == "unstable"]
        assert all(math.isnan(v) for r in unstable for v in r[1:4])

    def test_displacement_at_gap_refused(self, tmp_path):
        # no bias holds the sheet on the electrode, so the whole run is refused
        text = MINIMAL + sweep("displacement", 0, 10e-9, 5)
        with pytest.raises(ConfigError, match="electrode gap"):
            run_coupling_sweep(parse_config(text))
        cfg, out = tmp_path / "cfg.ini", tmp_path / "out.csv"
        cfg.write_text(text)
        assert main(["couplings", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_displacement_below_gap_runs(self, tmp_path):
        cfg, out = tmp_path / "cfg.ini", tmp_path / "out.csv"
        cfg.write_text(MINIMAL + sweep("displacement", 0, 9.999e-9, 12))
        assert main(["couplings", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        statuses = [row.rsplit(",", 1)[1] for row in rows[1:]]
        assert len(statuses) == 12
        assert set(statuses) <= {"ok", "unstable"}

    def test_mechanics_and_couplings_share_verdicts(self):
        # both runs solve each bias through one operating-point path
        config = parse_config(MINIMAL + sweep("bias_voltage", 0, 6, 25))
        status = run_mechanics_sweep(config).column("status")
        assert status == ["ok"] * 20 + ["pull_in"] * 5
        assert run_coupling_sweep(config).column("status") == status

    def test_tuning_error_rows(self):
        # a 30 uH coil cannot reach the mode once the bias has tuned it up:
        # the mechanics hold at every point, the circuit match fails past 2 V
        config = parse_config(
            set_key(MINIMAL, "circuit", "inductance_h", "3e-5") + sweep("bias_voltage", 0, 4.5, 10)
        )
        table = run_coupling_sweep(config)
        assert table.column("status") == ["ok"] * 5 + ["tuning_error"] * 5
        for row in table.rows[5:]:
            assert all(math.isnan(v) for v in row[1:4]), row
        assert run_mechanics_sweep(config).column("status") == ["ok"] * 10

    def test_fold_solved_once_per_geometry(self):
        # the fold depends on a = k3 d^2 / k1 alone: one geometry and gap
        # share it across every bias and every displacement, while each
        # thickness has its own
        config = parse_config(MINIMAL + sweep("bias_voltage", 0, 6, 25))
        _fold.cache_clear()
        run_mechanics_sweep(config)
        run_coupling_sweep(config)
        assert _fold.cache_info().misses == 1
        displacement = parse_config(MINIMAL + sweep("displacement", 0, 9e-9, 37))
        run_coupling_sweep(displacement)
        assert _fold.cache_info().misses == 1
        # a displacement sweep alone solves its fold once, though every
        # point asks mechanics for it
        _fold.cache_clear()
        run_coupling_sweep(displacement)
        assert _fold.cache_info().misses == 1
        _fold.cache_clear()
        run_mechanics_sweep(parse_config(MINIMAL + sweep("thickness", 1e-9, 3e-9, 7)))
        assert _fold.cache_info().misses == 7

    def test_runs_in_one_process_match_fresh_processes(self, tmp_path):
        # the per-geometry factors and the fold are process state: bias on
        # device A, thickness, bias on device B, bias on A again, then
        # displacement on A each write what a fresh process writes
        device_b = set_key(read_config("couplings_voltage_sweep.ini"), "geometry", "length_m", "120e-9")
        runs = [
            ("mechanics", read_config("mechanics_voltage_sweep.ini")),
            ("mechanics", read_config("mechanics_thickness_sweep.ini")),
            ("couplings", device_b),
            ("couplings", read_config("couplings_voltage_sweep.ini")),
            ("couplings", read_config("couplings_displacement_sweep.ini")),
        ]
        fresh = "import sys; from transducer_sim.cli import main; sys.exit(main(sys.argv[1:]))"
        for i, (command, text) in enumerate(runs):
            cfg = tmp_path / f"{i}.ini"
            cfg.write_text(text)
            out = [str(tmp_path / f"{i}_{where}.csv") for where in ("fresh", "shared")]
            subprocess.run(
                [sys.executable, "-c", fresh, command, "--config", str(cfg), "--out", out[0]],
                env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                check=True,
            )
            assert main([command, "--config", str(cfg), "--out", out[1]]) == EXIT_OK
            assert Path(out[1]).read_bytes() == Path(out[0]).read_bytes(), i


class TestTransferRun:
    def test_zero_duration_single_row(self):
        text = read_config("paper_defaults.ini").replace(
            "duration_s = 150e-9", "duration_s = 0"
        )
        table = run_transfer(parse_config(text))
        assert len(table.rows) == 1
        assert table.rows[0][0] == 0.0
        assert table.rows[0][4] == 1.0    # survival
        assert table.rows[0][5] == 0.0    # fidelity

    def test_benchmark_run_saturates(self):
        table = run_transfer(parse_config(read_config("paper_defaults.ini")))
        fidelity = table.column("fidelity")
        assert max(fidelity) == pytest.approx(0.995, abs=0.01)
        survival = table.column("survival")
        assert all(a >= b - 1e-12 for a, b in zip(survival, survival[1:]))

    def test_missing_g_c_rejected(self):
        text = read_config("paper_defaults.ini").replace("g_c_hz = 50e6\n", "")
        with pytest.raises(ConfigError, match="g_c_hz"):
            run_transfer(parse_config(text))

    def test_missing_duration_rejected(self):
        text = read_config("paper_defaults.ini").replace("duration_s = 150e-9\n", "")
        with pytest.raises(ConfigError, match="duration_s"):
            run_transfer(parse_config(text))


class TestEnvironmentScan:
    def test_temperature_scan(self):
        table = run_environment_scan(parse_config(read_config("scan_temperature.ini")))
        fidelity = table.column("max_fidelity")
        temps = table.column("temperature")
        assert temps[-1] == 1.0
        assert fidelity[-1] > 0.95
        assert all(a > b for a, b in zip(fidelity, fidelity[1:]))  # hotter is worse

    def test_kappa_scan_speeds_up_with_decay(self):
        table = run_environment_scan(parse_config(read_config("scan_kappa.ini")))
        t95 = table.column("time_to_f95")
        assert all(s == "ok" for s in table.column("status"))
        assert all(a > b for a, b in zip(t95, t95[1:]))

    def test_not_reached_flagged(self):
        text = read_config("scan_kappa.ini").replace(
            "duration_s = 150e-9", "duration_s = 5e-9"
        )
        table = run_environment_scan(parse_config(text))
        assert table.column("status")[0] == "not_reached"
        assert math.isnan(table.column("time_to_f95")[0])

    def test_comb_tables_built_once_per_comb(self, monkeypatch):
        # the comb tables depend on the comb and the step alone: the points
        # of a temperature scan share both, while each decay of a kappa scan
        # has its own
        build, builds = dynamics._build_comb_tables, []

        def counted(system, dt):
            builds.append(dt)
            return build(system, dt)

        monkeypatch.setattr(dynamics, "_build_comb_tables", counted)
        monkeypatch.setattr(dynamics, "_held_tables", {})
        text = read_config("scan_temperature.ini").replace("points = 5", "points = 20")
        assert len(run_environment_scan(parse_config(text)).rows) == 20
        assert len(builds) == 1
        run_environment_scan(parse_config(read_config("scan_kappa.ini")))
        assert len(builds) == 5


class TestDeterminismAndFormat:
    def test_bit_identical_reruns(self):
        text = read_config("paper_defaults.ini").replace(
            "duration_s = 150e-9", "duration_s = 40e-9"
        )
        a = run_transfer(parse_config(text)).to_csv_text()
        b = run_transfer(parse_config(text)).to_csv_text()
        assert a == b

    def test_csv_layout(self):
        table = run_mechanics_sweep(parse_config(read_config("mechanics_voltage_sweep.ini")))
        lines = table.to_csv_text().splitlines()
        assert lines[0].startswith("# transducer-sim results")
        assert any(line.startswith("# config_sha256=") for line in lines)
        assert any(line.startswith("# columns:") for line in lines)
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "bias_voltage,deflection,tension,frequency,status"

    def test_csv_cells_pinned(self):
        table = ResultTable(
            columns=[("a", "-"), ("b", "s"), ("c", "-"), ("d", "-"), ("e", "-"), ("status", "-")],
            rows=[
                (math.nan, math.inf, -math.inf, np.float64(0.1), 3, "ok"),
                (np.float64(-0.0), 1e-300, 2 ** 60, np.float64(math.nan), -7, "pull_in"),
            ],
            meta={"run": "pinned"},
        )
        assert table.to_csv_text() == (
            "# transducer-sim results, schema v1\n"
            "# run=pinned\n"
            "# columns: a [-], b [s], c [-], d [-], e [-], status [-]\n"
            "a,b,c,d,e,status\n"
            "nan,inf,-inf,0.10000000000000001,3,ok\n"
            "-0,1e-300,1.152921504606847e+18,nan,-7,pull_in\n"
        )
        empty = ResultTable(columns=[("a", "-")], rows=[])
        assert empty.to_csv_text().endswith("# columns: a [-]\na\n")

    def test_trajectory_runs_report_step_plan_and_comb(self):
        transfer = read_config("paper_defaults.ini").replace(
            "duration_s = 150e-9", "duration_s = 20e-9"
        )
        scan = read_config("scan_kappa.ini").replace("points = 4", "points = 2").replace(
            "duration_s = 150e-9", "duration_s = 10e-9"
        )
        keys = ("dt_s", "steps", "mode_count", "mode_spacing_hz", "revival_margin")
        for run, text in ((run_transfer, transfer), (run_environment_scan, scan)):
            csv = run(parse_config(text)).to_csv_text()
            assert all(f"\n# {key}=" in csv for key in keys), csv
            assert csv == run(parse_config(text)).to_csv_text()
        # the transfer run: one 20 ns trajectory on the 500-mode, 1 MHz comb
        meta = run_transfer(parse_config(transfer)).meta
        assert meta["steps"] * meta["dt_s"] == pytest.approx(20e-9, rel=1e-12)
        assert meta["mode_count"] == 500
        assert meta["mode_spacing_hz"] == pytest.approx(1e6, rel=1e-12)
        assert meta["revival_margin"] == pytest.approx(0.02, rel=1e-12)


class TestCli:
    def test_transfer_roundtrip(self, tmp_path):
        out = tmp_path / "result.csv"
        text = read_config("paper_defaults.ini").replace(
            "duration_s = 150e-9", "duration_s = 20e-9"
        )
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        assert main(["transfer", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("# transducer-sim results")

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(MINIMAL.replace("gap_m = 10e-9", "gap_m = -1"))
        assert main(["mechanics", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
    def test_out_of_range_value_exits_2(self, tmp_path, case):
        command, text = OUT_OF_RANGE[case]
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["mechanics", "--config", str(tmp_path / "nope.ini")]) == EXIT_CONFIG

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.ini"
        cfg.write_bytes(MINIMAL.encode() + b"# \xff\n")
        assert main(["mechanics", "--config", str(cfg)]) == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(MINIMAL + sweep("bias_voltage", 0, 1))
        out = tmp_path / "missing_dir" / "o.csv"
        assert main(["mechanics", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "cannot write output" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_output_path_exits_2(self, tmp_path, capsys):
        # an empty --out names no file: it is refused, not taken for stdout
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(MINIMAL + sweep("bias_voltage", 0, 1))
        assert main(["mechanics", "--config", str(cfg), "--out", ""]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "cannot write output" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("gamma_m_hz", ["1e10", "1e12"])
    def test_loss_above_couplings_stays_bounded(self, tmp_path, gamma_m_hz):
        # a mechanical loss far above g_c = 50 MHz decays, it does not blow up
        text = (
            read_config("paper_defaults.ini")
            .replace("duration_s = 150e-9", "duration_s = 50e-9")
            .replace("gamma_m_hz = 100e3", f"gamma_m_hz = {gamma_m_hz}")
        )
        cfg, out = tmp_path / "cfg.ini", tmp_path / "out.csv"
        cfg.write_text(text)
        assert main(["transfer", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = [line for line in out.read_text().splitlines() if line[0] != "#"]
        populations = np.array([line.split(",")[1:] for line in lines[1:]], dtype=float)
        assert len(populations) > 100
        assert np.all(np.isfinite(populations))
        assert np.all((populations >= 0.0) & (populations <= 1.0 + 1e-8))

    def test_infinite_bias_for_displacement_exits_2(self, tmp_path, capsys):
        # a pre-tension of 1e300 N overflows the bias that holds any
        # displacement past 0; the first such point leaves the float range,
        # it is not a circuit that fails to tune
        text = read_config("couplings_displacement_sweep.ini").replace(
            "youngs_modulus_pa = 1000e9",
            "youngs_modulus_pa = 1000e9\npre_tension_n = 1e300\nclamping_coefficient = 1e-100",
        )
        cfg, out = tmp_path / "cfg.ini", tmp_path / "out.csv"
        cfg.write_text(text)
        assert main(["couplings", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "statics at displacement = 2.5e-10 leave the float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["g_c_hz", "kappa_hz"])
    def test_oversized_default_comb_exits_2(self, tmp_path, key):
        # the default comb for a rate of 1e300 Hz asks for ~1e295 modes
        text = read_config("paper_defaults.ini").replace(f"{key} = 50e6", f"{key} = 1e300")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        assert main(["transfer", "--config", str(cfg)]) == EXIT_CONFIG

    def test_oversized_step_plan_exits_2(self, tmp_path, monkeypatch, capsys):
        # the step guard refuses a plan before any step is taken, in a
        # transfer and in a scan; on the comb derived from the rates a
        # trajectory short of its revival stays below 1e8 steps, so the
        # guard is lowered here below the 1571 steps of the benchmark
        # trajectory and the 750 of the scan's first point
        monkeypatch.setattr(dynamics, "MAX_STEPS", 100)

        def no_steps(*args):
            raise AssertionError("a step was taken")

        with monkeypatch.context() as steps_barred:
            steps_barred.setattr(dynamics, "_advance", no_steps)
            for command, name in (("transfer", "paper_defaults.ini"), ("scan", "scan_kappa.ini")):
                cfg, out = tmp_path / name, tmp_path / f"{command}.csv"
                cfg.write_text(read_config(name))
                assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
                assert "more than 1e+02 steps" in capsys.readouterr().err
                assert not out.exists()
        # the guard's edge: 1570 steps refuse the benchmark trajectory, 1571 run it
        cfg = tmp_path / "paper_defaults.ini"
        monkeypatch.setattr(dynamics, "MAX_STEPS", 1570)
        assert main(["transfer", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "more than 2e+03 steps" in err
        monkeypatch.setattr(dynamics, "MAX_STEPS", 1571)
        assert main(["transfer", "--config", str(cfg)]) == EXIT_OK

    @pytest.mark.parametrize("duration", ["5e-6", "1"])
    def test_duration_past_revival_exits_2(self, tmp_path, capsys, duration):
        # the 500-mode, 1 MHz comb revives after 1 us; 1 s would also take
        # 1.0e10 steps, but the revival is checked before the steps are
        # counted, in the header's step plan as in the run's
        text = read_config("paper_defaults.ini").replace(
            "duration_s = 150e-9", f"duration_s = {duration}"
        )
        cfg, out = tmp_path / "cfg.ini", tmp_path / "out.csv"
        cfg.write_text(text)
        assert main(["transfer", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "runs into the discretization revival" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "dt_s = 1e-9",
            "dt_s = 1e-12",
            "sample_every = 3",
            "quality_factor = 50000",
            "mode_spacing_hz = 1e6",
            "mode_count = 500",
            "path = x.csv",
        ],
    )
    def test_removed_simulation_keys_exit_2(self, tmp_path, capsys, line):
        # the step, the recording stride and the photon comb are set by the
        # run, not the config; the circuit loss is [simulation] gamma_lc_hz,
        # not a Q; the output path is --out, not an [output] section
        text = read_config("paper_defaults.ini")
        if line.startswith("path"):
            text += f"\n[output]\n{line}\n"
            expected = "unknown section"
        else:
            section = "[circuit]" if line.startswith("quality_factor") else "[simulation]"
            text = text.replace(f"\n{section}\n", f"\n{section}\n{line}\n")
            expected = "unknown key"
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        assert main(["transfer", "--config", str(cfg)]) == EXIT_CONFIG
        assert expected in capsys.readouterr().err

    def test_sweep_points_bounded(self, tmp_path, monkeypatch, capsys):
        # a sweep's points are built as one list, so a huge count is refused
        # while parsing, before any value is built
        def no_values(self):
            raise AssertionError("the sweep values were built")

        monkeypatch.setattr(SweepSettings, "values", no_values)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(MINIMAL + sweep("bias_voltage", 0, 1, MAX_SWEEP_POINTS + 1))
        assert main(["mechanics", "--config", str(cfg)]) == EXIT_CONFIG
        assert "[sweep] points" in capsys.readouterr().err
        text = MINIMAL + sweep("bias_voltage", 0, 1, MAX_SWEEP_POINTS)
        assert parse_config(text).sweep.points == MAX_SWEEP_POINTS

    @pytest.mark.parametrize("case", sorted(UNCONVERTIBLE))
    def test_value_leaving_float_range_in_conversion_exits_2(self, tmp_path, capsys, case):
        # the first three exited 0: the scan wrote one row at every
        # temperature, its occupation reading 0 at an infinite mode
        # frequency; the rates exited 2 from the run, not the parser
        command, name, section, key, value = UNCONVERTIBLE[case]
        text = read_config(name)
        if f"[{section}]" not in text:
            text += f"\n[{section}]\n"
        cfg, out = tmp_path / "cfg.ini", tmp_path / "out.csv"
        cfg.write_text(set_key(text, section, key, value))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        field = _SCHEMA[section][key][0]
        assert f"config error: [{section}] {key}: {field} must be finite, not inf" in err
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    def test_overflowing_rates_exit_2(self, tmp_path, monkeypatch, capsys, case):
        # finite in the config, but overflowing once scaled by 2 pi or
        # summed over the comb; these ended in an OverflowError or "dt must
        # be positive"
        command, text = OVERFLOWING[case]
        if case in PINNED_COMBS:
            pin_comb(monkeypatch, *PINNED_COMBS[case])
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "losses, expected",
        [(("0", "0"), EXIT_OK), (("100e3", "0"), EXIT_CONFIG), (("0", "100e3"), EXIT_CONFIG)],
    )
    def test_zero_losses_at_infinite_occupation(self, tmp_path, capsys, losses, expected):
        # hbar w underflows at mode_frequency_hz = 1e-300, so n_bar is inf:
        # a zero loss stays 0 (it was 0 * inf = nan, exit 2), a nonzero one
        # becomes inf and is refused
        text = (
            read_config("paper_defaults.ini")
            .replace("duration_s = 150e-9", "duration_s = 20e-9")
            .replace("mode_frequency_hz = 5e9", "mode_frequency_hz = 1e-300")
            .replace("gamma_m_hz = 100e3", f"gamma_m_hz = {losses[0]}")
            .replace("gamma_lc_hz = 100e3", f"gamma_lc_hz = {losses[1]}")
        )
        cfg, out = tmp_path / "cfg.ini", tmp_path / "out.csv"
        cfg.write_text(text)
        assert main(["transfer", "--config", str(cfg), "--out", str(out)]) == expected
        if expected == EXIT_OK:
            lines = [line for line in out.read_text().splitlines() if line[0] != "#"]
            rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
            assert len(rows) > 1
            assert np.all(np.isfinite(rows))
        else:
            assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("comb", ["explicit", "default"])
    @pytest.mark.parametrize("value", ["0", "1e-300", "1e300", "1e308"])
    @pytest.mark.parametrize("key", sorted(RATE_KEYS))
    def test_rate_grid_exit_codes(self, tmp_path, monkeypatch, key, value, comb):
        # "explicit" pins the 500-mode, 1 MHz comb whatever the rates, so
        # its half reaches the step guard and the fixed comb's checks that
        # the comb derived from the rates ("default") refuses first
        if comb == "explicit":
            pin_comb(monkeypatch)
        text = read_config("paper_defaults.ini").replace(
            "duration_s = 150e-9", "duration_s = 20e-9"
        )
        cfg, out = tmp_path / "cfg.ini", tmp_path / "out.csv"
        cfg.write_text(text.replace(f"{key} = {RATE_KEYS[key]}", f"{key} = {value}"))
        code = main(["transfer", "--config", str(cfg), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG)
        if code == EXIT_OK:
            lines = [line for line in out.read_text().splitlines() if line[0] != "#"]
            rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
            assert len(rows) > 1
            assert np.all(np.isfinite(rows))

    @pytest.mark.parametrize("value", ["1e-300", "1e300"])
    @pytest.mark.parametrize("section, key", STATICS_KEYS)
    @pytest.mark.parametrize("name", sorted(STATICS_CONFIGS))
    def test_statics_grid_exit_codes(self, tmp_path, name, section, key, value):
        # finite values whose statics overflow or underflow the float range
        # exited 1 with a traceback, or wrote ok rows of inf
        command = STATICS_CONFIGS[name]
        cfg, out = tmp_path / "cfg.ini", tmp_path / "out.csv"
        cfg.write_text(set_key(read_config(name), section, key, value))
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG)
        if code == EXIT_OK:
            lines = [line for line in out.read_text().splitlines() if line[0] != "#"]
            rows = [line.split(",") for line in lines[1:]]
            assert rows
            assert {row[-1] for row in rows} <= {"ok", "pull_in", "tuning_error", "unstable"}
            for row in rows:
                if row[-1] == "ok":
                    assert all(math.isfinite(float(v)) for v in row[:-1]), row

    @pytest.mark.parametrize("name", ["mechanics_voltage_sweep.ini", "couplings_displacement_sweep.ini"])
    def test_overflowing_stiffness_exits_2(self, tmp_path, capsys, name):
        # a 1e100 m sheet overflows k1 to inf: the bias sweep wrote ok rows
        # at deflection 0, the displacement sweep tuning_error rows past
        # the fold
        cfg, out = tmp_path / "cfg.ini", tmp_path / "out.csv"
        cfg.write_text(set_key(read_config(name), "geometry", "thickness_m", "1e100"))
        assert main([STATICS_CONFIGS[name], "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "leave the float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, variable, value",
        [
            ("mechanics", "bias_voltage", 0.0),
            ("mechanics", "bias_voltage", 1e-3),
            ("couplings", "bias_voltage", 0.0),
            ("couplings", "bias_voltage", 1e-3),
            ("couplings", "displacement", 0.0),
        ],
    )
    def test_overflowing_stiffness_at_one_point_exits_2(
        self, tmp_path, capsys, command, variable, value
    ):
        # a 1e103 m sheet overflows its stiffness: 0 V is refused like 1 mV
        # and a 0 m displacement, where it wrote an ok row (mechanics) or a
        # tuning_error row (couplings)
        text = set_key(MINIMAL, "geometry", "thickness_m", "1e103")
        cfg, out = tmp_path / "cfg.ini", tmp_path / "out.csv"
        cfg.write_text(text + sweep(variable, value, value, points=1))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert f"statics at {variable} = {value:g} leave the float range" in capsys.readouterr().err
        assert not out.exists()

    def test_log_range_past_the_float_range_exits_2(self, tmp_path, capsys):
        # stop / start = 3.3e309 overflows; every point after the first was inf
        text = read_config("mechanics_thickness_sweep.ini").replace(
            "stop = 100e-9", "stop = 1e300"
        )
        cfg, out = tmp_path / "cfg.ini", tmp_path / "out.csv"
        cfg.write_text(text)
        assert main(["mechanics", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[sweep]" in err
        assert "inf" not in err
        assert not out.exists()

    def test_parser_built_once_per_process(self, tmp_path):
        parser = _build_parser()
        mech_cfg, coup_cfg = tmp_path / "mech.ini", tmp_path / "coup.ini"
        mech_cfg.write_text(MINIMAL + sweep("bias_voltage", 0, 1))
        coup_cfg.write_text(MINIMAL + sweep("bias_voltage", 0, 3))
        mech_out, coup_out = tmp_path / "mech.csv", tmp_path / "coup.csv"
        assert main(["mechanics", "--config", str(mech_cfg), "--out", str(mech_out)]) == EXIT_OK
        assert main(["couplings", "--config", str(coup_cfg), "--out", str(coup_out)]) == EXIT_OK
        assert "# run=mechanics" in mech_out.read_text()
        assert "# run=couplings" in coup_out.read_text()
        assert _build_parser() is parser

    @pytest.mark.parametrize(
        "order",
        [
            ("--config", "cmd", "--out"),
            ("--config", "--out", "cmd"),
            ("--out", "cmd", "--config"),
        ],
    )
    def test_options_before_or_after_command(self, tmp_path, order):
        cfg = CONFIG_DIR / "mechanics_voltage_sweep.ini"
        ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
        assert main(["mechanics", "--config", str(cfg), "--out", str(ref)]) == EXIT_OK
        words = {"cmd": ["mechanics"], "--config": ["--config", str(cfg)], "--out": ["--out", str(out)]}
        assert main([word for key in order for word in words[key]]) == EXIT_OK
        assert out.read_bytes() == ref.read_bytes()

    def test_help_names_commands_options_and_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        text = capsys.readouterr().out
        for word in [*_COMMANDS, "--config", "--out", "exit codes: 0 success, 2"]:
            assert word in text

    @pytest.mark.parametrize(
        "argv",
        [
            ["bogus", "--config", str(CONFIG_DIR / "paper_defaults.ini")],
            ["mechanics"],
            ["mechanics", "--out", "out.csv"],
            [],
        ],
    )
    def test_argument_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_byte_order_mark_is_not_part_of_the_document(self, tmp_path):
        # the header hash is of the decoded text, so both write the same bytes
        src = CONFIG_DIR / "mechanics_voltage_sweep.ini"
        cfg = tmp_path / "bom.ini"
        cfg.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
        assert main(["mechanics", "--config", str(src), "--out", str(ref)]) == EXIT_OK
        assert main(["mechanics", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == ref.read_bytes()

    def test_stdout_when_no_out_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(MINIMAL + "\n[sweep]\nvariable = bias_voltage\nstart = 0\nstop = 1\npoints = 2\n")
        assert main(["mechanics", "--config", str(cfg)]) == EXIT_OK
        assert "bias_voltage" in capsys.readouterr().out
