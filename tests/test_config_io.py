import copy
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tegkit import constants
from tegkit.cli import main
from tegkit.config import (
    CM2_TO_M2,
    G_CM3_TO_KG_M3,
    G_MOL_TO_KG_MOL,
    MA_CM2_TO_A_M2,
    MS_TO_S,
    OHM_CM2_TO_OHM_M2,
    UM2_TO_M2,
    UM_TO_M,
    UV_K_TO_V_K,
    UW_CM2_TO_W_M2,
    parse_config_dict,
    parse_design,
)
from tegkit.device import OperatingPoint
from tegkit.ecd import BathSpec, DepositState
from tegkit.errors import (
    ConfigFieldError,
    ConfigFileError,
    ConfigSyntaxError,
    NumericalError,
    ParameterError,
)
from tegkit.materials import lookup_material
from tegkit.optimize import SweepCurve, compare_designs, sweep
from tegkit.output import emit_comparison, emit_curve, emit_deposit_series, report_text

REPO = Path(__file__).resolve().parent.parent


def digest(path):
    data = Path(path).read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)

MINIMAL = {
    "design": {
        "leg_length_um": 200.0,
        "leg_area_um2": 10000.0,
        "fill_factor": 0.2,
        "p_material": "bi2te3_p_annealed",
        "n_material": "bi2te3_n_annealed",
        "matrix_material": "su8",
        "contact_resistivity_ohm_cm2": 1e-6,
        "interface_resistance_K_W": 3.9,
    }
}


def doc(**design_overrides):
    out = copy.deepcopy(MINIMAL)
    out["design"].update(design_overrides)
    return out


class TestDesignParsing:
    def test_minimal_config_yields_a_realizable_design(self):
        cfg = parse_config_dict(MINIMAL)
        assert cfg.design.couples >= 1
        assert cfg.design.leg_length == pytest.approx(200e-6)
        assert cfg.design.device_area == pytest.approx(1e-4)  # documented default
        assert cfg.design.contact_resistivity == pytest.approx(1e-10)
        assert cfg.pulse is None and cfg.bath is None and cfg.sim is None

    def test_negative_leg_length_names_the_field(self):
        with pytest.raises(ConfigFieldError) as err:
            parse_config_dict(doc(leg_length_um=-5.0))
        assert "design.leg_length_um" in str(err.value)

    @pytest.mark.parametrize("key", ["interface_resistance_K_W", "leg_length_um",
                                     "contact_resistivity_ohm_cm2", "fill_factor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_number_names_the_field(self, key, value):
        with pytest.raises(ConfigFieldError) as err:
            parse_config_dict(doc(**{key: value}))
        assert f"design.{key}" in str(err.value)

    def test_unknown_key_is_rejected_and_named(self):
        with pytest.raises(ConfigFieldError) as err:
            parse_config_dict(doc(leg_colour="blue"))
        assert "leg_colour" in str(err.value)

    def test_unknown_top_level_section_rejected(self):
        bad = copy.deepcopy(MINIMAL)
        bad["designs"] = bad["design"]
        with pytest.raises(ConfigFieldError):
            parse_config_dict(bad)

    def test_missing_required_field_is_named(self):
        bad = copy.deepcopy(MINIMAL)
        del bad["design"]["interface_resistance_K_W"]
        with pytest.raises(ConfigFieldError) as err:
            parse_config_dict(bad)
        assert "interface_resistance_K_W" in str(err.value)

    def test_unknown_material_preset_is_named(self):
        with pytest.raises(ConfigFieldError) as err:
            parse_config_dict(doc(p_material="adamantium"))
        assert "design.p_material" in str(err.value)

    def test_wrong_carrier_in_a_slot_is_rejected(self):
        with pytest.raises(ConfigFieldError):
            parse_config_dict(doc(p_material="nickel"))
        with pytest.raises(ConfigFieldError):
            parse_config_dict(doc(n_material="copper"))
        with pytest.raises(ConfigFieldError):
            parse_config_dict(doc(matrix_material="gold"))

    def test_metals_are_valid_when_the_sign_matches(self):
        cfg = parse_config_dict(
            doc(p_material="copper", n_material="nickel",
                contact_resistivity_ohm_cm2=1e-7)
        )
        assert cfg.design.p_material.name == "copper"

    def test_inline_material_round_trip(self):
        mat = lookup_material("bi2te3_p_annealed")
        inline = {
            "name": mat.name,
            "seebeck_uV_K": mat.seebeck / UV_K_TO_V_K,
            "resistivity_ohm_m": mat.resistivity,
            "thermal_conductivity_W_mK": mat.thermal_conductivity,
            "carrier": mat.carrier,
        }
        cfg = parse_config_dict(doc(p_material=inline))
        parsed = cfg.design.p_material
        assert parsed.seebeck == pytest.approx(mat.seebeck, rel=1e-12)
        assert parsed.resistivity == mat.resistivity
        assert parsed.thermal_conductivity == mat.thermal_conductivity
        assert parsed.carrier == mat.carrier

    def test_inline_insulator_may_omit_seebeck(self):
        cfg = parse_config_dict(
            doc(matrix_material={
                "carrier": "insulator",
                "resistivity_ohm_m": 1e14,
                "thermal_conductivity_W_mK": 0.2,
            })
        )
        assert cfg.design.matrix_material.seebeck == 0.0

    def test_non_numeric_value_is_rejected(self):
        with pytest.raises(ConfigFieldError):
            parse_config_dict(doc(leg_length_um="long"))


class TestFileHandling:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigFileError):
            parse_design(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigSyntaxError):
            parse_design(path)

    @pytest.mark.parametrize("content, error, names", [
        (b'{"design": {"leg_length_um": ' + b"1" * 5000 + b"}}",
         ConfigSyntaxError, "bad.json"),  # past Python's int-digits limit
        (b"[" * 100_000, ConfigSyntaxError, "bad.json"),  # deeper than recursion
        (b"\xff\xfe{}", ConfigSyntaxError, "bad.json"),  # not UTF-8
        (json.dumps(MINIMAL).replace('"leg_length_um": 200.0',
                                     '"leg_length_um": ' + "1" * 401).encode(),
         ConfigFieldError, "design.leg_length_um: must be finite"),
    ], ids=["5000-digit-int", "deep-nesting", "not-utf8", "int-beyond-float"])
    def test_undecodable_input_is_a_named_error(self, tmp_path, capsys, content,
                                                error, names):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(error, match=names):
            parse_design(path)
        assert main(["eval", "--config", str(path), "--dt", "40"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and names in captured.err
        assert captured.err.count("\n") == 1

    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(MINIMAL))
        assert parse_config_dict(MINIMAL) == parse_design(path)


ECD_DOC = {
    "design": MINIMAL["design"],
    "ecd": {
        "pulse": {
            "t_pulse_ms": 200.0,
            "t_pause_s": 4.8,
            "j_pulse_mA_cm2": 232.5,
            "total_time_s": 25.0,
        },
        "bath": {"c_teo2_mol_m3": 80.0, "c_bi2o3_mol_m3": 40.0},
        "sim": {"mold_depth_um": 300.0, "grid_points": 151, "dt_s": 1e-3},
    },
}


class TestEcdParsing:
    def test_units_convert_to_si(self):
        cfg = parse_config_dict(ECD_DOC)
        assert cfg.pulse.t_pulse == pytest.approx(0.2)
        assert cfg.pulse.j_pulse == pytest.approx(2325.0)
        assert cfg.bath.c_teo2 == 80.0
        assert cfg.bath.diffusivity == constants.DEFAULT_DIFFUSIVITY  # default
        assert cfg.bath.molar_mass == pytest.approx(0.80076)
        assert cfg.sim.mold_depth == pytest.approx(300e-6)
        assert cfg.sim.record_every == 1

    @pytest.mark.parametrize("section, key", [
        ("pulse", "t_pulse_ms"), ("pulse", "j_pulse_mA_cm2"), ("bath", "c_teo2_mol_m3"),
        ("bath", "diffusivity_m2_s"), ("sim", "dt_s"), ("sim", "mold_depth_um")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_ecd_field_rejected(self, section, key, value):
        bad = copy.deepcopy(ECD_DOC)
        bad["ecd"][section][key] = value
        with pytest.raises(ConfigFieldError) as err:
            parse_config_dict(bad)
        assert key in str(err.value)

    def test_fractional_grid_rejected(self):
        bad = copy.deepcopy(ECD_DOC)
        bad["ecd"]["sim"]["grid_points"] = 150.5
        with pytest.raises(ConfigFieldError) as err:
            parse_config_dict(bad)
        assert "grid_points" in str(err.value)

    def test_unknown_pulse_key_rejected(self):
        bad = copy.deepcopy(ECD_DOC)
        bad["ecd"]["pulse"]["shape"] = "square"
        with pytest.raises(ConfigFieldError):
            parse_config_dict(bad)


INLINE_P = {"seebeck_uV_K": 200.0, "resistivity_ohm_m": 1e-5,
            "thermal_conductivity_W_mK": 1.2, "carrier": "p"}
DELETE = object()


class TestErrorMessages:
    # The exact message of each error branch. Ranges are checked on the SI
    # value, so a unit conversion that underflows to 0 or overflows to inf is
    # refused at its key (the last four rows).
    @pytest.mark.parametrize("section, key, value, message", [
        (("ecd",), "pulse", [], "ecd.pulse: expected an object"),
        (("design",), "contact_resistivity_ohm_cm2", -1.0,
         "design.contact_resistivity_ohm_cm2: must be >= 0"),
        (("design",), "p_material", {**INLINE_P, "carrier": 5},
         "design.p_material.carrier: required string field"),
        (("design",), "p_material", {**INLINE_P, "name": 3},
         "design.p_material.name: expected a string"),
        (("design",), "p_material", {**INLINE_P, "carrier": "q"},
         "design.p_material: carrier must be one of "
         "('p', 'n', 'metal', 'insulator'), got 'q'"),
        (("design",), "n_material", DELETE,
         "design.n_material: required field is missing"),
        (("design",), "fill_factor", 1.5, "design.fill_factor: must be <= 1"),
        (("ecd", "sim"), "record_every", 0,
         "ecd.sim.record_every: must be an integer >= 1"),
        ((), "design", DELETE, "design: required section is missing"),
        # a unit conversion underflows to 0 or overflows to inf
        (("design",), "leg_length_um", 1e-320, "design.leg_length_um: must be > 0"),
        (("ecd", "pulse"), "t_pulse_ms", 5e-324, "ecd.pulse.t_pulse_ms: must be > 0"),
        (("ecd", "pulse"), "j_pulse_mA_cm2", 1e308,
         "ecd.pulse.j_pulse_mA_cm2: must be finite, got inf"),
        (("ecd", "sim"), "mold_depth_um", 1e-320, "ecd.sim.mold_depth_um: must be > 0"),
    ], ids=["non-object-section", "negative-contact-resistivity",
            "non-string-carrier", "non-string-name", "unknown-carrier",
            "missing-n-material", "fill-factor-above-1", "record-every-0",
            "missing-design", "leg-length-underflow", "t-pulse-underflow",
            "j-pulse-overflow", "mold-depth-underflow"])
    def test_message_names_the_field(self, section, key, value, message):
        bad = copy.deepcopy(ECD_DOC)
        obj = bad
        for name in section:
            obj = obj[name]
        if value is DELETE:
            del obj[key]
        else:
            obj[key] = value
        with pytest.raises(ConfigFieldError) as err:
            parse_config_dict(bad)
        assert str(err.value) == message

    def test_bath_defaults_are_the_bath_records(self):
        # the display-unit defaults of the field table give BathSpec's own
        cfg = parse_config_dict(ECD_DOC)
        assert cfg.bath == BathSpec(c_teo2=80.0, c_bi2o3=40.0)
        assert type(cfg.bath.electrons_per_formula) is int


class TestUnitConversions:
    @given(st.floats(1e-12, 1e12))
    def test_round_trips_are_tight(self, x):
        for factor in (
            UM_TO_M, UM2_TO_M2, CM2_TO_M2, MS_TO_S, UW_CM2_TO_W_M2,
            MA_CM2_TO_A_M2, OHM_CM2_TO_OHM_M2, UV_K_TO_V_K, G_MOL_TO_KG_MOL,
            G_CM3_TO_KG_M3,
        ):
            assert (x * factor) / factor == pytest.approx(x, rel=1e-12)
            assert (x / factor) * factor == pytest.approx(x, rel=1e-12)


class TestCurveEmission:
    def test_two_point_curve_is_header_plus_two_rows(self, tmp_path, annealed):
        curve = sweep(annealed, 40.0, "leg_length", 1e-5, 1e-3, 2)
        path = tmp_path / "curve.csv"
        emit_curve(curve, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("param_name,param_value_si,")

    def test_re_emission_is_byte_identical(self, tmp_path, annealed):
        curve = sweep(annealed, 40.0, "leg_length", 1e-5, 1e-3, 7, spacing="log")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_curve(curve, p1)
        emit_curve(curve, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_numeric_columns_round_trip_exactly(self, tmp_path, annealed):
        curve = sweep(annealed, 40.0, "leg_length", 1e-5, 1e-3, 9, spacing="log")
        path = tmp_path / "curve.csv"
        emit_curve(curve, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for (value, op), row in zip(curve.points, rows):
            assert float(row["param_value_si"]) == value
            assert float(row["v_oc_V"]) == op.v_oc
            assert float(row["p_matched_W"]) == op.p_matched
            assert float(row["p_density_uW_cm2"]) == op.power_density / UW_CM2_TO_W_M2

    def test_empty_curve_rejected(self, tmp_path):
        empty = SweepCurve(parameter="leg_length", values=(), columns=((),) * 9)
        with pytest.raises(ParameterError):
            emit_curve(empty, tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    # sha256 and size of each CSV as csv.writer wrote it from the
    # point-by-point sweep, before the array kernel and one-format rows. The
    # log leg_length sweep holds a cell whose square numpy's x * x rounds
    # differently from Python's float ** 2.
    @pytest.mark.parametrize("parameter, lo, hi, n, spacing, captured", [
        ("leg_length", 10e-6, 1e-3, 300, "log",
         ("02ea78eda692b17af7be6068446720ae6511ee549ac4029988967654384ce48e", 46237)),
        ("fill_factor", 0.01, 1.0, 3000, "linear",
         ("7750faed98dbd58b96e083102bbe4a03b94548fc6bf1af467eff80d5b715af39", 452891)),
        ("contact_resistivity", 0.0, 1e-8, 3000, "linear",
         ("c7105f68e137abe22d07b5fd6860c20990fab7953e7b7a505216c9d4d4907e69", 490224)),
        ("interface_resistance", 0.0, 20.0, 3000, "linear",
         ("ecfbd203eb43b3e1c0be81a6f1eb76a58494c14171e8bc3aae37253f014accc4", 480211)),
        ("dt_meas", 0.0, 80.0, 3000, "linear",
         ("f18d063b107de9002bfaebadb76953d4a6ee87d4c9d47d679cd8d8af01aebafc", 439632)),
    ])
    def test_bytes_match_the_captured_output(
        self, tmp_path, annealed, parameter, lo, hi, n, spacing, captured
    ):
        path = tmp_path / "curve.csv"
        emit_curve(sweep(annealed, 40.0, parameter, lo, hi, n, spacing=spacing), path)
        assert digest(path) == captured

    def test_sweep_to_csv_builds_no_operating_point(
        self, tmp_path, capsys, annealed, monkeypatch
    ):
        # The columns go from the kernel to the CSV and the CLI report with no
        # per-point record; `points` is the only place one is built.
        def refuse(self, *args, **kwargs):
            raise AssertionError("an OperatingPoint was built")

        monkeypatch.setattr(OperatingPoint, "__init__", refuse)
        captured = (
            "02ea78eda692b17af7be6068446720ae6511ee549ac4029988967654384ce48e", 46237)
        path = tmp_path / "api.csv"
        emit_curve(sweep(annealed, 40.0, "leg_length", 10e-6, 1e-3, 300, spacing="log"),
                   path)
        assert digest(path) == captured

        path = tmp_path / "cli.csv"
        argv = ["sweep", "--config", str(REPO / "configs" / "bi2te3_annealed.json"),
                "--dt", "40", "--param", "leg_length", "--from", "10e-6",
                "--to", "1e-3", "--points", "300", "--log", "--out", str(path)]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert digest(path) == captured
        # as the per-point report wrote them
        assert report["outputs"] == {
            "best_p_density_uW_cm2": 280.4328917536062,
            "best_param_value_si": 0.00023149866718511609,
            "csv": str(path),
            "rows": 300,
        }


class TestComparisonEmission:
    def test_names_with_separators_and_quotes_are_quoted(self, tmp_path, annealed, cuni):
        names = ['cu,ni', 'say "annealed"']
        path = tmp_path / "table.csv"
        emit_comparison(compare_designs(dict(zip(names, (cuni, annealed))), 40.0), path)
        text = path.read_text()
        assert '\n"cu,ni",' in text
        assert '\n"say ""annealed""",' in text
        with open(path, newline="") as fh:
            assert [row["design"] for row in csv.DictReader(fh)] == names


class TestReferenceStudy:
    # sha256 and size of the design-side CSVs of scripts/run_reference_study.py,
    # captured from the point-by-point sweep and csv.writer emission
    CAPTURED = {
        "design_comparison.csv":
            ("613bb0f8074f0a5d995e47f72336775a622d0fb3739e1c461043a972f9740a02", 495),
        "leg_length_sweep_bi2te3.csv":
            ("09080903a80149255bcf0df9ef4b31c89c4f370737b590813613851a720e8455", 9308),
        "leg_length_sweep_cu_ni.csv":
            ("07e7dd8fb3bf8c908215ca25855ee6c4f8f181ef8c9e2fb6de8c5a04ddb5b7ca", 9631),
    }

    def test_csvs_match_the_captured_bytes(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        subprocess.run(
            [sys.executable, str(REPO / "scripts" / "run_reference_study.py"),
             "--outdir", str(tmp_path)],
            check=True, env=env, capture_output=True,
        )
        assert {name: digest(tmp_path / name) for name in self.CAPTURED} == self.CAPTURED


def series_state() -> DepositState:
    """1207 records: a regular run plus zero, subnormal, huge and inexact cells."""
    k = np.arange(1201)
    extra = [0.0, 1e-300, 5e-324, 1.2345678901234567e300, 0.1, 1 / 3]
    times = np.concatenate([k * 1e-3, extra])
    thickness = np.concatenate([k * 3.3e-10 / 7.0, extra])
    surface = np.concatenate([80.0 * (1 - (k % 97) / 131.0), extra])
    empty = np.empty(0)
    return DepositState(thickness=float(thickness[-1]), growth_rate=0.0,
                        composition=None, min_surface_conc=float(surface.min()),
                        profile=empty, times=times,
                        thickness_series=thickness, surface_conc_series=surface)


class TestDepositSeriesEmission:
    # sha256 and size of the series_state() CSV as csv.writer wrote it
    # (one writerow per record) before emission became a single write.
    CAPTURED = ("9001cfa3d9e5fb6943daddc028044433cff9328757704ea67fe123c0ea450cd5",
                67950)

    def test_bytes_match_the_captured_csv_writer_output(self, tmp_path):
        path = tmp_path / "series.csv"
        emit_deposit_series(series_state(), path)
        data = path.read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == self.CAPTURED


class TestReportText:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_number_is_a_numerical_error(self, value):
        with pytest.raises(NumericalError):
            report_text({"outputs": {"p_matched": value}})
