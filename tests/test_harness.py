import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from transducer_sim import (
    ConfigError,
    ResultTable,
    parse_config,
    run_coupling_sweep,
    run_environment_scan,
    run_mechanics_sweep,
    run_transfer,
)
from transducer_sim.cli import EXIT_CONFIG, EXIT_OK, EXIT_PHYSICS, _build_parser, main

from conftest import TWO_PI

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


#: (command, document) pairs whose values lie outside the physical range
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


def without_comb(text):
    """The document with its explicit photon comb removed."""
    return text.replace("mode_spacing_hz = 1e6\n", "").replace("mode_count = 500\n", "")


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
        without_comb(read_config("paper_defaults.ini")).replace(
            "kappa_hz = 50e6", "kappa_hz = 1e307"
        ),
    ),
    "default_comb_kappa_1e308": (
        "transfer",
        without_comb(read_config("paper_defaults.ini")).replace(
            "kappa_hz = 50e6", "kappa_hz = 1e308"
        ),
    ),
    "default_comb_g_c_1e308": (
        "transfer",
        without_comb(read_config("paper_defaults.ini")).replace(
            "g_c_hz = 50e6", "g_c_hz = 1e308"
        ),
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
    "explicit_comb_spacing_1e307": (
        "transfer",
        read_config("paper_defaults.ini").replace(
            "mode_spacing_hz = 1e6", "mode_spacing_hz = 1e307"
        ),
    ),
    "explicit_comb_spacing_1e308": (
        "transfer",
        read_config("paper_defaults.ini").replace(
            "mode_spacing_hz = 1e6", "mode_spacing_hz = 1e308"
        ),
    ),
}


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
        assert cfg.inductance == 1e-6
        assert cfg.quality_factor == 50_000.0
        assert cfg.emitter.optical_decay == pytest.approx(TWO_PI * 53e6, rel=1e-12)
        sim = cfg.simulation
        assert sim.g_c == pytest.approx(TWO_PI * 50e6, rel=1e-12)
        assert sim.kappa == pytest.approx(TWO_PI * 50e6, rel=1e-12)
        assert sim.gamma_m == pytest.approx(TWO_PI * 100e3, rel=1e-12)
        assert sim.gamma_lc == pytest.approx(TWO_PI * 100e3, rel=1e-12)
        assert sim.temperature == 0.05
        assert sim.mode_spacing == pytest.approx(TWO_PI * 1e6, rel=1e-12)
        assert sim.mode_count == 500
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

    def test_unknown_sweep_variable_rejected(self):
        text = MINIMAL + "\n[sweep]\nvariable = gap\nstart = 1e-9\nstop = 2e-9\npoints = 2\n"
        with pytest.raises(ConfigError, match="sweep variable"):
            parse_config(text)

    def test_partial_discretization_rejected(self):
        text = MINIMAL + "\n[simulation]\nmode_count = 500\n"
        with pytest.raises(ConfigError, match="mode_spacing"):
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


#: runs each argv through ``cli.main`` in a fresh process and prints the exit codes
CLI_CODES = """
import json, sys
sys.path.insert(0, sys.argv[1])
from transducer_sim import cli
print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[2])]))
"""


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

    @pytest.mark.parametrize("key", ["g_c_hz", "kappa_hz"])
    def test_oversized_default_comb_exits_2(self, tmp_path, key):
        # the default comb for a rate of 1e300 Hz asks for ~1e295 modes
        text = (
            read_config("paper_defaults.ini")
            .replace("mode_spacing_hz = 1e6\n", "")
            .replace("mode_count = 500\n", "")
            .replace(f"{key} = 50e6", f"{key} = 1e300")
        )
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        assert main(["transfer", "--config", str(cfg)]) == EXIT_CONFIG

    def test_oversized_step_plan_exits_3(self, tmp_path):
        # on the explicit 500-mode comb, g_c = 1e300 Hz plans 3e295 steps
        # and 2e13 Hz plans 6e8; a child process with a timeout turns a run
        # that would not return into a failure
        runs = []
        for g_c_hz in ("1e300", "2e13"):
            cfg = tmp_path / f"{g_c_hz}.ini"
            cfg.write_text(
                read_config("paper_defaults.ini").replace("g_c_hz = 50e6", f"g_c_hz = {g_c_hz}")
            )
            runs.append(["transfer", "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
        done = subprocess.run(
            [sys.executable, "-c", CLI_CODES, str(ROOT / "src"), json.dumps(runs)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert json.loads(done.stdout) == [EXIT_PHYSICS, EXIT_PHYSICS], done.stderr

    def test_physics_error_exits_3(self, tmp_path, capsys):
        # a step plan beyond MAX_STEPS is a physics-level refusal, made
        # before any step is taken (g_c = 1e15 Hz plans ~3e10 steps)
        text = read_config("paper_defaults.ini").replace("g_c_hz = 50e6", "g_c_hz = 1e15")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        assert main(["transfer", "--config", str(cfg)]) == EXIT_PHYSICS
        assert "physics error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["dt_s = 1e-9", "dt_s = 1e-12", "sample_every = 3"])
    def test_removed_simulation_keys_exit_2(self, tmp_path, capsys, line):
        # the step and the recording stride are set by the run, not the config
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(read_config("paper_defaults.ini") + line + "\n")
        assert main(["transfer", "--config", str(cfg)]) == EXIT_CONFIG
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    def test_overflowing_rates_exit_2(self, tmp_path, capsys, case):
        # finite in the config, but overflowing once scaled by 2 pi or
        # summed over the comb; these ended in an OverflowError or "dt must
        # be positive"
        command, text = OVERFLOWING[case]
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("comb", ["explicit", "default"])
    @pytest.mark.parametrize("value", ["0", "1e-300", "1e300", "1e308"])
    @pytest.mark.parametrize("key", sorted(RATE_KEYS))
    def test_rate_grid_exit_codes(self, tmp_path, key, value, comb):
        text = read_config("paper_defaults.ini").replace(
            "duration_s = 150e-9", "duration_s = 20e-9"
        )
        if comb == "default":
            text = without_comb(text)
        cfg, out = tmp_path / "cfg.ini", tmp_path / "out.csv"
        cfg.write_text(text.replace(f"{key} = {RATE_KEYS[key]}", f"{key} = {value}"))
        code = main(["transfer", "--config", str(cfg), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PHYSICS)
        if code == EXIT_OK:
            lines = [line for line in out.read_text().splitlines() if line[0] != "#"]
            rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
            assert len(rows) > 1
            assert np.all(np.isfinite(rows))

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

    def test_stdout_when_no_out_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(MINIMAL + "\n[sweep]\nvariable = bias_voltage\nstart = 0\nstop = 1\npoints = 2\n")
        assert main(["mechanics", "--config", str(cfg)]) == EXIT_OK
        assert "bias_voltage" in capsys.readouterr().out
