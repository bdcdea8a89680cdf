import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tegkit.cli
import tegkit.ecd
import tegkit.output
from tegkit.cli import main
from tegkit.output import report_text

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ANNEALED = str(CONFIGS / "bi2te3_annealed.json")
ASDEP = str(CONFIGS / "bi2te3_as_deposited.json")
CUNI = str(CONFIGS / "cu_ni.json")
ECD = str(CONFIGS / "ecd_pulse_train.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    return json.loads(out)


def digest(data: bytes):
    return hashlib.sha256(data).hexdigest(), len(data)


def mold_fill(tmp_path, **pulse):
    """The shipped plan's 15 h mold fill, 10 800 periods of 5 s recorded every
    5000 steps, with the given pulse fields changed."""
    doc = json.loads(Path(ECD).read_text())
    doc["ecd"]["pulse"].update(total_time_s=54_000, **pulse)
    doc["ecd"]["sim"]["record_every"] = 5000
    cfg = tmp_path / "fill.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


class TestEval:
    def test_reproduces_the_reference_density(self, capsys):
        code, out, _ = run(capsys, "eval", "--config", ANNEALED, "--dt", "40")
        assert code == 0
        report = report_of(out)
        density = report["outputs"]["power_density_uW_cm2"]
        assert density == pytest.approx(278.5, rel=5e-3)
        assert report["outputs"]["dt_gen"] == pytest.approx(21.4, abs=1e-6)

    def test_missing_config_exits_1(self, capsys):
        code, _, err = run(capsys, "eval", "--config", "/no/such.json",
                           "--dt", "40")
        assert code == 1
        assert "error" in err


class TestReportOut:
    """eval, optimize, calibrate and ecd sand-time take --out as a copy of the
    report; main serialises it once for the file and stdout."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--config", ANNEALED, "--dt", "40"],
        ["optimize", "--config", ANNEALED, "--dt", "40", "--from", "1e-5",
         "--to", "1e-3"],
        ["calibrate", "--config", ANNEALED, "--dt", "40", "--target", "278.5"],
        ["ecd", "sand-time", "--config", ECD, "--j", "1000"],  # with a warning
    ], ids=["eval", "optimize", "calibrate", "ecd-sand-time"])
    def test_out_file_matches_stdout(self, capsys, tmp_path, argv):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, *argv, "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == out

    def test_report_is_serialised_once(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counted(report):
            calls.append(report)
            return report_text(report)

        # every name the report serialiser is reached by
        monkeypatch.setattr(tegkit.cli, "report_text", counted)
        monkeypatch.setattr(tegkit.output, "report_text", counted)
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "eval", "--config", ANNEALED, "--dt", "40",
                           "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == out
        assert len(calls) == 1

    def test_unwritable_out_prints_nothing(self, capsys):
        code, out, err = run(capsys, "eval", "--config", ANNEALED, "--dt", "40",
                             "--out", "/no/such/dir/report.json")
        assert code == 1
        assert out == ""
        assert err.startswith("i/o error: ")


class TestCapturedBytes:
    # sha256 and size of stdout and of the --out file of criterion 9's seven
    # commands, each given an --out, captured when every command built and
    # wrote its own report. Relative paths keep argv, and so the report, fixed.
    CAPTURED = [
        (["eval", "--config", "annealed.json", "--dt", "40", "--out", "eval.json"],
         ("0a3b61af3d61a6c47cb00c09acbe5d6ae5e2eb26b045efa8f595817dbf54a1db", 1603),
         ("0a3b61af3d61a6c47cb00c09acbe5d6ae5e2eb26b045efa8f595817dbf54a1db", 1603)),
        (["sweep", "--config", "annealed.json", "--dt", "40", "--param",
          "leg_length", "--from", "1e-5", "--to", "1e-3", "--points", "30", "--log",
          "--out", "sweep.csv"],
         ("7090c19a222467b2af7a8c06f092a2a1ef631f0a571f9d3359aca320448d8378", 622),
         ("aba0811c9d3b30e20596469f98be3a72d3b8ec7dc93dd91cce1fc9c66cb4f978", 4700)),
        (["optimize", "--config", "annealed.json", "--dt", "40", "--from", "1e-5",
          "--to", "1e-3", "--out", "optimize.json"],
         ("be0b7c65696a28c2ec4192dab63b9882e9108a95bd9f801b5f5944c6009ad0fc", 934),
         ("be0b7c65696a28c2ec4192dab63b9882e9108a95bd9f801b5f5944c6009ad0fc", 934)),
        (["compare", "--config", "cu_ni.json", "--config", "as_deposited.json",
          "--config", "annealed.json", "--dt", "40", "--out", "compare.csv"],
         ("c3d2f1db8158a763864c2f45c0ecf4cd99695d869734066ec44c65d9e901f1ad", 2145),
         ("ac39a94ac7d5902c7ac47c17ba6c6431b4bafc4a59711722656b8a64aa0646fb", 481)),
        (["calibrate", "--config", "annealed.json", "--dt", "40", "--target",
          "278.5", "--out", "calibrate.json"],
         ("abe44b6b49538e633d01fe5a1db6e38b148fc9fefe8fcb0a62b7e8fc524730bb", 1416),
         ("abe44b6b49538e633d01fe5a1db6e38b148fc9fefe8fcb0a62b7e8fc524730bb", 1416)),
        (["ecd", "simulate", "--config", "ecd.json", "--out", "ecd.csv"],
         ("363eded0083d763e64c9f68a933cf73f96b255d8849c3a53dbcb82ab10ac4bdb", 637),
         ("ffe1070c3ae565c322ba438a31a368d93241d6b4e0257d333360abc25ab14b4c", 54255)),
        (["ecd", "sand-time", "--config", "ecd.json", "--out", "sand.json"],
         ("41ceea54a570a0aefa2091b9970c63f15cc85b314c89dfb28371a3c417719db5", 410),
         ("41ceea54a570a0aefa2091b9970c63f15cc85b314c89dfb28371a3c417719db5", 410)),
    ]

    def test_stdout_and_out_files_match_the_captured_bytes(self, capsys, tmp_path,
                                                           monkeypatch):
        for name, source in [("annealed", ANNEALED), ("as_deposited", ASDEP),
                             ("cu_ni", CUNI), ("ecd", ECD)]:
            shutil.copy(source, tmp_path / f"{name}.json")
        monkeypatch.chdir(tmp_path)
        for argv, stdout, artifact in self.CAPTURED:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv[0]
            assert digest(out.encode()) == stdout, argv[0]
            assert digest(Path(argv[-1]).read_bytes()) == artifact, argv[0]


class TestCellsRoundTrip:
    """Every numeric cell is its own "%.17g": 17 digits round-trip a double,
    so this checks the cell writer with no stored reference."""

    SWEEP = ["sweep", "--config", ANNEALED, "--dt", "40", "--param"]

    @pytest.mark.parametrize("argv, rows", [
        (SWEEP + ["contact_resistivity", "--from", "1e-12", "--to", "1e-8",
                  "--points", "3000", "--log"], 3000),
        # the integers 1 to 64: cells whose last 4 of 17 digits are 0000
        (SWEEP + ["dt_meas", "--from", "1", "--to", "64", "--points", "64"], 64),
        (SWEEP + ["fill_factor", "--from", "0.01", "--to", "1", "--points", "3000"],
         3000),
        (["ecd", "simulate", "--config", "{fill}"], 10_801),
    ], ids=["log-contact-resistivity", "dt-meas", "fill-factor", "mold-fill"])
    def test_every_numeric_cell_is_its_own_17g(self, capsys, tmp_path, argv, rows):
        fill = mold_fill(tmp_path)
        out_csv = tmp_path / "out.csv"
        code, _, err = run(capsys, *[a.format(fill=fill) for a in argv],
                           "--out", str(out_csv))
        assert (code, err) == (0, "")
        lines = out_csv.read_text().splitlines()[1:]
        if argv[0] == "sweep":  # the first column names the swept parameter
            lines = [line.split(",", 1)[1] for line in lines]
        bad = [c for line in lines for c in line.split(",") if "%.17g" % float(c) != c]
        assert len(lines) == rows
        assert bad == []


class TestSweep:
    def test_leg_length_sweep_peaks_in_the_optimal_window(self, capsys, tmp_path):
        out_csv = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys, "sweep", "--config", ANNEALED, "--dt", "40",
            "--param", "leg_length", "--from", "1e-5", "--to", "1e-3",
            "--points", "50", "--log", "--out", str(out_csv),
        )
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        best = max(rows, key=lambda r: float(r["p_density_uW_cm2"]))
        assert 100e-6 <= float(best["param_value_si"]) <= 300e-6

    def test_ties_report_the_first_maximum(self, capsys, tmp_path):
        # at dt 0 every power density is 0, so the first point is the best
        code, out, _ = run(
            capsys, "sweep", "--config", ANNEALED, "--dt", "0",
            "--param", "leg_length", "--from", "1e-5", "--to", "1e-3",
            "--points", "5", "--out", str(tmp_path / "curve.csv"),
        )
        assert code == 0
        outputs = report_of(out)["outputs"]
        assert outputs["best_param_value_si"] == 1e-5
        assert outputs["best_p_density_uW_cm2"] == 0.0
        assert outputs["rows"] == 5

    def test_single_point_sweep_is_a_validation_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--config", ANNEALED, "--dt", "40",
            "--param", "leg_length", "--from", "1e-5", "--to", "1e-3",
            "--points", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "n_points" in err

    def test_unwritable_output_exits_1(self, capsys):
        code, _, _ = run(
            capsys, "sweep", "--config", ANNEALED, "--dt", "40",
            "--param", "leg_length", "--from", "1e-5", "--to", "1e-3",
            "--points", "5", "--out", "/no/such/dir/out.csv",
        )
        assert code == 1

    @pytest.mark.parametrize("points", ["100000000000000000000", "9223372036854775807"])
    def test_too_many_points_is_a_validation_error(self, capsys, tmp_path, points):
        # numpy's linspace raised ValueError and IndexError tracebacks here
        out_csv = tmp_path / "curve.csv"
        code, out, err = run(
            capsys, "sweep", "--config", ANNEALED, "--dt", "40",
            "--param", "leg_length", "--from", "1e-5", "--to", "1e-3",
            "--points", points, "--out", str(out_csv),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: n_points must be <= 1000000, got {points}\n"
        assert not out_csv.exists()

    def test_a_sweep_at_the_limit_writes_every_row(self, capsys, tmp_path):
        # 10^6 points, a 150 MB CSV, removed once its lines are counted
        out_csv = tmp_path / "curve.csv"
        code, _, err = run(
            capsys, "sweep", "--config", ANNEALED, "--dt", "40",
            "--param", "leg_length", "--from", "1e-5", "--to", "1e-3",
            "--points", "1000000", "--out", str(out_csv),
        )
        assert (code, err) == (0, "")
        with open(out_csv, "rb") as fh:
            lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        out_csv.unlink()
        assert lines == 1_000_001


class TestOptimize:
    def test_reports_the_optimal_window(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--config", ANNEALED, "--dt", "40",
            "--from", "1e-5", "--to", "1e-3",
        )
        assert code == 0
        best_um = report_of(out)["outputs"]["best_leg_length_um"]
        assert 100 <= best_um <= 300

    def test_report_outputs_key_set(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--config", ANNEALED, "--dt", "40",
            "--from", "1e-5", "--to", "1e-3",
        )
        assert code == 0
        report = report_of(out)
        assert set(report["outputs"]) == {
            "best_leg_length_m", "best_leg_length_um", "iterations", "best_point",
        }
        assert report["outputs"]["iterations"] == 0
        assert report["warnings"] == []

    def test_tol_is_not_an_option(self, capsys):
        code, out, err = run(
            capsys, "optimize", "--config", ANNEALED, "--dt", "40",
            "--from", "1e-5", "--to", "1e-3", "--tol", "1e-8",
        )
        assert code == 1
        assert out == ""
        assert "--tol" in err


class TestCompare:
    def test_ratio_report(self, capsys, tmp_path):
        out_csv = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "compare", "--config", CUNI, "--config", ANNEALED,
            "--dt", "40", "--out", str(out_csv),
        )
        assert code == 0
        ratios = report_of(out)["outputs"]["p_density_ratios"]
        assert ratios["bi2te3_annealed/cu_ni"] > 60
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["design"] for r in rows] == ["cu_ni", "bi2te3_annealed"]

    def test_zero_power_density_is_a_validation_error(self, capsys, tmp_path):
        # at dt = 0 every density is 0, so no ratio exists
        out_csv = tmp_path / "table.csv"
        code, out, err = run(
            capsys, "compare", "--config", CUNI, "--config", ANNEALED,
            "--dt", "0", "--out", str(out_csv),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: design 'bi2te3_annealed' has zero power density")
        assert not out_csv.exists()

    def test_a_stem_that_is_not_utf8_keeps_its_bytes(self, capsys, tmp_path):
        # the file name's byte 0xff reaches Python as a surrogate escape
        bad = tmp_path / os.fsdecode(b"bad\xff.json")
        shutil.copy(CUNI, bad)
        tables = []
        for config in (CUNI, str(bad)):
            out_csv = tmp_path / "table.csv"
            code, _, err = run(capsys, "compare", "--config", config, "--config",
                               ANNEALED, "--dt", "40", "--out", str(out_csv))
            assert (code, err) == (0, "")
            tables.append(out_csv.read_bytes())
        assert tables[1] == tables[0].replace(b"\ncu_ni,", b"\nbad\xff,")

    def test_duplicate_names_rejected(self, capsys):
        code, _, _ = run(
            capsys, "compare", "--config", ANNEALED, "--config", ANNEALED,
            "--dt", "40",
        )
        assert code == 1


class TestCalibrate:
    def test_recovers_the_preset_coefficient(self, capsys):
        code, out, _ = run(
            capsys, "calibrate", "--config", ANNEALED, "--dt", "40",
            "--target", "278.5",
        )
        assert code == 0
        couple = report_of(out)["outputs"]["couple_seebeck_uV_K"]
        assert couple == pytest.approx(25.118, abs=0.001)


class TestEcdCommands:
    def test_simulate_writes_the_time_series(self, capsys, tmp_path):
        out_csv = tmp_path / "series.csv"
        code, out, _ = run(capsys, "ecd", "simulate", "--config", ECD,
                           "--out", str(out_csv))
        assert code == 0
        outputs = report_of(out)["outputs"]
        assert outputs["min_surface_conc_mol_m3"] > 0
        assert outputs["thickness_um"] > 0
        with open(out_csv, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
        assert header == ["t_s", "thickness_um", "surface_conc_mol_m3"]

    def test_unstable_time_step_exits_2(self, capsys, tmp_path):
        doc = json.loads(Path(ECD).read_text())
        doc["ecd"]["sim"]["dt_s"] = 1.0  # far beyond 0.5 dx^2 / D
        bad = tmp_path / "unstable.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "ecd", "simulate", "--config", str(bad),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "stability" in err or "dt" in err

    def test_depletion_exits_2(self, capsys, tmp_path):
        doc = json.loads(Path(ECD).read_text())
        doc["ecd"]["pulse"]["j_pulse_mA_cm2"] = 40_000.0  # 40 A/cm2
        doc["ecd"]["pulse"]["t_pause_s"] = 0.0
        bad = tmp_path / "deplete.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "ecd", "simulate", "--config", str(bad),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "deplet" in err

    def test_a_depleting_mold_fill_exits_2_naming_the_time(self, capsys, tmp_path):
        # ecd sand-time passes 550 mA/cm2 with a margin of 2.5, but the
        # pauses do not relax the layer fully
        out_csv = tmp_path / "fill.csv"
        code, out, err = run(capsys, "ecd", "simulate", "--config",
                             mold_fill(tmp_path, j_pulse_mA_cm2=550),
                             "--out", str(out_csv))
        assert code == 2
        assert out == ""
        assert "depleted at t = 125.2 s" in err
        assert err.count("\n") == 1
        assert not out_csv.exists()

    @pytest.mark.parametrize("section, key, value, field", [
        ("pulse", "t_pulse_ms", 200.5, "t_pulse"),
        ("pulse", "t_pause_s", 4.8005, "t_pause"),
        ("pulse", "total_time_s", 25.0004, "total_time"),
    ])
    def test_time_off_the_step_grid_exits_1(self, capsys, tmp_path, section, key,
                                            value, field):
        doc = json.loads(Path(ECD).read_text())
        doc["ecd"][section][key] = value  # not a whole number of 1 ms steps
        bad = tmp_path / "off_grid.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ecd", "simulate", "--config", str(bad),
                             "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert out == ""
        assert field in err and "dt" in err

    def test_pause_longer_than_the_run_is_cut_to_it(self, capsys, tmp_path):
        # 1e19 pause steps overflowed a C long in the schedule arithmetic
        csvs = []
        for t_pause in (1e16, 0.5):
            doc = json.loads(Path(ECD).read_text())
            doc["ecd"]["pulse"].update(t_pause_s=t_pause, total_time_s=0.5)
            doc["ecd"]["sim"]["record_every"] = 1
            cfg = tmp_path / "long_pause.json"
            cfg.write_text(json.dumps(doc))
            out_csv = tmp_path / f"series-{t_pause}.csv"
            code, _, err = run(capsys, "ecd", "simulate", "--config", str(cfg),
                               "--out", str(out_csv))
            assert code == 0, err
            csvs.append(out_csv.read_bytes())
        assert csvs[0] == csvs[1]
        # 200 pulse-on steps, then 300 paused: the thickness stops growing
        rows = list(csv.reader(csvs[0].decode().splitlines()))[1:]
        assert len(rows) == 501
        assert rows[200][1] == rows[-1][1] != rows[199][1]

    def test_record_every_past_the_run_records_its_ends(self, capsys, tmp_path):
        # 1e300 reached numpy as a Python int too large for any of its types
        csvs = []
        for record_every in (1e300, 1e19):
            doc = json.loads(Path(ECD).read_text())
            doc["ecd"]["sim"]["record_every"] = record_every
            cfg = tmp_path / "sparse.json"
            cfg.write_text(json.dumps(doc))
            out_csv = tmp_path / f"series-{record_every:g}.csv"
            code, _, err = run(capsys, "ecd", "simulate", "--config", str(cfg),
                               "--out", str(out_csv))
            assert code == 0, err
            csvs.append(out_csv.read_bytes())
        assert csvs[0] == csvs[1]
        assert [row.split(",")[0] for row in csvs[0].decode().splitlines()[1:]] == [
            "0", "25"]

    def test_run_too_long_to_simulate_exits_1(self, capsys, tmp_path):
        cases = [
            # 1e19 steps of 1 ms: the solver looped block after block, no end
            (0.001, {"total_time_s": 1e16}, "10000000000000000000", "1e+16"),
            # total_time / dt overflows to inf
            (1e-10, {"total_time_s": 1e300}, "inf", "1e+300"),
            # t_pause / dt overflows; the pause is cut to the 25 s run
            (1e-10, {"t_pause_s": 1e300}, "250000000000", "25.0"),
        ]
        for dt, pulse, steps, total in cases:
            doc = json.loads(Path(ECD).read_text())
            doc["ecd"]["pulse"].update(pulse)
            doc["ecd"]["sim"]["dt_s"] = dt
            bad = tmp_path / "long_run.json"
            bad.write_text(json.dumps(doc))
            out_csv = tmp_path / "x.csv"
            code, out, err = run(capsys, "ecd", "simulate", "--config", str(bad),
                                 "--out", str(out_csv))
            assert code == 1
            assert out == ""
            assert err == (
                f"error: total_time / dt = {steps} steps exceeds the 100000000 "
                f"steps one run may take (total_time = {total} s, dt = {dt!r} s)\n"
            )
            assert not out_csv.exists()

    def test_grid_beyond_the_bound_exits_1(self, capsys, tmp_path):
        doc = json.loads(Path(ECD).read_text())
        doc["ecd"]["sim"]["grid_points"] = tegkit.ecd.MAX_GRID + 1
        bad = tmp_path / "fine_grid.json"
        bad.write_text(json.dumps(doc))
        out_csv = tmp_path / "x.csv"
        code, out, err = run(capsys, "ecd", "simulate", "--config", str(bad),
                             "--out", str(out_csv))
        assert code == 1
        assert out == ""
        assert err == "error: grid must be <= 10001, got 10002\n"
        assert not out_csv.exists()

    def test_sand_time_margin(self, capsys):
        code, out, _ = run(capsys, "ecd", "sand-time", "--config", ECD)
        assert code == 0
        outputs = report_of(out)["outputs"]
        assert outputs["margin"] > 1
        assert outputs["sand_time_s"] == pytest.approx(2.805, abs=0.01)

    def test_missing_ecd_section_exits_1(self, capsys, tmp_path):
        code, _, _ = run(capsys, "ecd", "simulate", "--config", ANNEALED,
                         "--out", str(tmp_path / "x.csv"))
        assert code == 1


class TestNonFiniteInputs:
    @pytest.mark.parametrize("key, value, token", [
        ("interface_resistance_K_W", float("nan"), "NaN"),
        ("leg_length_um", float("inf"), "Infinity"),
    ])
    def test_non_finite_design_field_exits_1(self, capsys, tmp_path, key, value,
                                             token):
        doc = json.loads(Path(ANNEALED).read_text())
        doc["design"][key] = value
        bad = tmp_path / "non_finite.json"
        bad.write_text(json.dumps(doc))  # writes the bare NaN / Infinity token
        assert token in bad.read_text()
        code, out, err = run(capsys, "eval", "--config", str(bad), "--dt", "40")
        assert code == 1
        assert out == ""
        assert key in err

    @pytest.mark.parametrize("argv, name", [
        (["eval", "--config", ANNEALED, "--dt", "nan"], "dt_meas"),
        (["eval", "--config", ANNEALED, "--dt", "inf"], "dt_meas"),
        (["compare", "--config", CUNI, "--config", ANNEALED, "--dt", "nan"],
         "dt_meas"),
        (["optimize", "--config", ANNEALED, "--dt", "nan",
          "--from", "1e-5", "--to", "1e-3"], "dt_meas"),
        (["optimize", "--config", ANNEALED, "--dt", "40",
          "--from", "1e-5", "--to", "inf"], "bracket"),
        (["calibrate", "--config", ANNEALED, "--dt", "40", "--target", "inf"],
         "target_density"),
        (["calibrate", "--config", ANNEALED, "--dt", "inf", "--target", "278.5"],
         "dt_meas"),
    ], ids=["eval-dt-nan", "eval-dt-inf", "compare-dt-nan", "optimize-dt-nan",
            "optimize-to-inf", "calibrate-target-inf", "calibrate-dt-inf"])
    def test_non_finite_argument_exits_1(self, capsys, recwarn, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert name in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("dt, hi, name", [
        ("nan", "1e-3", "dt_meas"),
        ("40", "inf", "bounds"),
    ], ids=["dt-nan", "to-inf"])
    def test_non_finite_sweep_argument_writes_no_csv(self, capsys, recwarn,
                                                      tmp_path, dt, hi, name):
        out_csv = tmp_path / "curve.csv"
        code, out, err = run(
            capsys, "sweep", "--config", ANNEALED, "--dt", dt,
            "--param", "leg_length", "--from", "1e-5", "--to", hi,
            "--points", "5", "--out", str(out_csv),
        )
        assert code == 1
        assert out == ""
        assert name in err
        assert not out_csv.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestOverflow:
    """An input near the float range squares past it, or a result underflows
    or overflows: a named error, one stderr line, no traceback, no CSV."""

    @staticmethod
    def annealed_with(tmp_path, **design):
        doc = json.loads(Path(ANNEALED).read_text())
        doc["design"].update(design)
        cfg = tmp_path / "extreme.json"
        cfg.write_text(json.dumps(doc))
        return str(cfg)

    def test_eval_exits_2_naming_the_quantity(self, capsys):
        code, out, err = run(capsys, "eval", "--config", ANNEALED,
                             "--dt", "1e300")
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: p_matched overflows")
        assert err.count("\n") == 1

    def test_compare_exits_2_and_writes_no_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "table.csv"
        code, out, err = run(capsys, "compare", "--config", CUNI, "--config",
                             ANNEALED, "--dt", "1e300", "--out", str(out_csv))
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: design 'cu_ni': p_matched overflows")
        assert err.count("\n") == 1
        assert not out_csv.exists()

    def test_compare_ratio_beyond_the_float_range_exits_2_and_writes_no_csv(
            self, capsys, tmp_path):
        # one density is about 6e-316 uW/cm2, so a ratio over it overflows
        cfg = self.annealed_with(tmp_path, contact_resistivity_ohm_cm2=1e300,
                                 interface_resistance_K_W=1.83e7, device_area_cm2=0.77)
        out_csv = tmp_path / "table.csv"
        code, out, err = run(capsys, "compare", "--config", cfg, "--config",
                             ANNEALED, "--dt", "40", "--out", str(out_csv))
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: power density ratio")
        assert err.count("\n") == 1
        assert not out_csv.exists()

    def test_optimize_r_gen_underflow_exits_1(self, capsys, tmp_path):
        # L / (A_dev lambda) underflows to 0, as eval and calibrate report it
        cfg = self.annealed_with(tmp_path, device_area_cm2=1e300, leg_length_um=1e-300)
        code, out, err = run(capsys, "optimize", "--config", cfg, "--dt", "40",
                             "--from", "1e-6", "--to", "1e-3")
        assert code == 1
        assert out == ""
        assert err == "error: r_gen must be > 0\n"

    def test_calibrate_divider_underflow_exits_2(self, capsys, tmp_path):
        # N is about 1e303 and dt_gen underflows to 0 at dt_meas = 1e-300 K
        cfg = self.annealed_with(tmp_path, device_area_cm2=1e300,
                                 contact_resistivity_ohm_cm2=2e-14)
        out_path = tmp_path / "report.json"
        code, out, err = run(capsys, "calibrate", "--config", cfg, "--dt", "1e-300",
                             "--target", "278.5", "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: calibration: N dt_gen underflows")
        assert err.count("\n") == 1
        assert not out_path.exists()

    def test_calibrate_coefficient_beyond_the_float_range_exits_2(self, capsys, tmp_path):
        # sqrt(4 R_i A_dev target) / (N dt_gen) is about 6e435 V/K at dt_meas = 1e-290 K
        out_path = tmp_path / "report.json"
        code, out, err = run(capsys, "calibrate", "--config", ANNEALED, "--dt", "1e-290",
                             "--target", "1e300", "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err == ("numerical failure: calibration: couple coefficient = inf V/K "
                       "is beyond the float range\n")
        assert not out_path.exists()

    def test_sweep_exits_2_and_writes_no_csv(self, capsys, recwarn, tmp_path):
        out_csv = tmp_path / "curve.csv"
        code, out, err = run(
            capsys, "sweep", "--config", ANNEALED, "--dt", "40",
            "--param", "dt_meas", "--from", "1", "--to", "1e300",
            "--points", "3", "--out", str(out_csv),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(
            "numerical failure: dt_meas = 5e+299: p_matched overflows")
        assert err.count("\n") == 1
        assert not out_csv.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    # A value that overflows only in a display unit (uW/cm2, um/h, uV/K) or
    # in a ratio of the report, or a growth rate past the float range: main
    # writes --out only once the report serialises, so no file is left
    # behind. The design leads the message in compare, the point in sweep;
    # a value that only the report holds is named by its key path.
    @pytest.mark.parametrize("argv, lead", [
        (["sweep", "--config", "{thin}", "--dt", "40", "--param", "dt_meas",
          "--from", "1e-3", "--to", "2e-3", "--points", "3"],
         "dt_meas = 0.001: eff_factor in uW/cm2/K2 = inf at dt_meas = 0.001 K"),
        (["eval", "--config", "{thin}", "--dt", "1e-3"],
         "eff_factor in uW/cm2/K2 = inf at dt_meas = 0.001 K"),
        (["compare", "--config", "{thin}", "--config", "{thin2}", "--dt", "1e-3"],
         "design 'thin': eff_factor in uW/cm2/K2 = inf"),
        (["sweep", "--config", "{hot}", "--dt", "1.3e154", "--param", "leg_length",
          "--from", "2e-5", "--to", "3e-5", "--points", "3"],
         "leg_length = 2e-05: power_density in uW/cm2 = inf"),
        (["ecd", "simulate", "--config", "{heavy}"], "growth rate = inf m/s"),
        (["ecd", "simulate", "--config", "{heavy2}"],
         "report holds a non-finite number: outputs.avg_growth_rate_um_h = inf"),
        # the coefficient is 6e305 V/K, finite; in uV/K it is not
        (["calibrate", "--config", ANNEALED, "--dt", "1e-160", "--target", "1e300"],
         "report holds a non-finite number: outputs.couple_seebeck_uV_K = inf"),
        # tau = 4.4e196 s over t_pulse = 1e-303 s
        (["ecd", "sand-time", "--config", "{brief}"],
         "report holds a non-finite number: outputs.margin = inf"),
    ], ids=["sweep-eff-factor", "eval-eff-factor", "compare-eff-factor",
            "sweep-density", "simulate-growth-rate", "simulate-growth-rate-um-h",
            "calibrate-couple-uv-k", "sand-time-margin"])
    def test_display_unit_overflow_exits_2_and_writes_no_file(self, capsys, tmp_path,
                                                             argv, lead):
        thin = dict(leg_length_um=8e-307, interface_resistance_K_W=0,
                    contact_resistivity_ohm_cm2=0)
        configs = {}
        for name, source, update in [
            ("thin", ANNEALED, lambda doc: doc["design"].update(thin)),
            ("thin2", ANNEALED, lambda doc: doc["design"].update(thin)),
            ("hot", ANNEALED, lambda doc: doc["design"].update(thin, leg_length_um=25)),
            ("heavy", ECD, lambda doc: doc["ecd"]["bath"].update(
                molar_mass_g_mol=1e200, density_g_cm3=1e-200)),
            ("heavy2", ECD, lambda doc: doc["ecd"]["bath"].update(
                molar_mass_g_mol=1e155, density_g_cm3=1e-155)),
            ("brief", ECD, lambda doc: (doc["ecd"]["pulse"].update(t_pulse_ms=1e-300),
                                        doc["ecd"]["bath"].update(c_teo2_mol_m3=1e100))),
        ]:
            doc = json.loads(Path(source).read_text())
            update(doc)
            configs[name] = tmp_path / f"{name}.json"  # compare names it "thin"
            configs[name].write_text(json.dumps(doc))
        out_path = tmp_path / "fresh.out"
        code, out, err = run(capsys, *[a.format(**configs) for a in argv],
                             "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: " + lead)
        assert err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("j", ["1e-200", "1e200"])
    def test_sand_time_current_exits_2_naming_the_quantity(self, capsys, j):
        code, out, err = run(capsys, "ecd", "sand-time", "--config", ECD,
                             "--j", j)
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: sand_time is beyond")
        assert err.count("\n") == 1

    def test_sand_time_bath_concentration_exits_2(self, capsys, tmp_path):
        doc = json.loads(Path(ECD).read_text())
        doc["ecd"]["bath"]["c_teo2_mol_m3"] = 1e300
        cfg = tmp_path / "huge_bath.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ecd", "sand-time", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: sand_time is beyond")
        assert err.count("\n") == 1


class TestUsage:
    def test_unknown_flag_is_a_validation_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--config", ANNEALED, "--dt", "40",
                         "--frobnicate")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == 1

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tegkit", "eval", "--config", ANNEALED,
             "--dt", "40"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "power_density_uW_cm2" in proc.stdout


class TestReproducibility:
    def test_stdout_and_artifacts_are_byte_stable(self, capsys, tmp_path):
        jobs = [
            ("eval", ["eval", "--config", ANNEALED, "--dt", "40"], None),
            (
                "sweep",
                ["sweep", "--config", ANNEALED, "--dt", "40", "--param",
                 "leg_length", "--from", "1e-5", "--to", "1e-3",
                 "--points", "20", "--log"],
                "curve.csv",
            ),
            (
                "compare",
                ["compare", "--config", CUNI, "--config", ASDEP, "--dt", "40"],
                "table.csv",
            ),
            ("ecd", ["ecd", "simulate", "--config", ECD], "series.csv"),
        ]
        for name, argv, artifact in jobs:
            args = list(argv)
            if artifact:
                path = tmp_path / f"{name}-{artifact}"
                args += ["--out", str(path)]
            outputs, blobs = [], []
            for _ in range(2):
                code, out, _ = run(capsys, *args)
                assert code == 0, name
                outputs.append(out)
                if artifact:
                    blobs.append(path.read_bytes())
            assert outputs[0] == outputs[1], name
            if blobs:
                assert blobs[0] == blobs[1], name
