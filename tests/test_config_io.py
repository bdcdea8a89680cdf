import copy
import csv
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
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
from tegkit.device import OperatingPoint, evaluate
from tegkit.ecd import BathSpec, DepositState, PulsePlan, simulate_diffusion
from tegkit.errors import (
    ConfigFieldError,
    ConfigFileError,
    ConfigSyntaxError,
    NumericalError,
    ParameterError,
)
from tegkit.materials import lookup_material
from tegkit.optimize import ComparisonTable, SweepCurve, compare_designs, sweep
from tegkit.output import (
    BLOCK_CELLS,
    SWEEP_COLUMNS,
    _csv_rows,
    emit_comparison,
    emit_curve,
    emit_deposit_series,
    report_text,
    write_file,
)

REPO = Path(__file__).resolve().parent.parent
#: Rows per block of the seven-cell curve and the three-cell series.
CURVE_BLOCK_ROWS = BLOCK_CELLS // 7
SERIES_BLOCK_ROWS = BLOCK_CELLS // 3


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
        # the field table's defaults are BathSpec's and SimSettings' own, and
        # an ecd section without a bath gets the standard bath
        cfg = parse_config_dict(ECD_DOC)
        assert cfg.bath == BathSpec(c_teo2=80.0, c_bi2o3=40.0)
        assert type(cfg.bath.electrons_per_formula) is int
        assert cfg.sim.record_every == 1 and type(cfg.sim.record_every) is int
        no_bath = copy.deepcopy(ECD_DOC)
        del no_bath["ecd"]["bath"]
        assert parse_config_dict(no_bath).bath == BathSpec()
        # the shipped plan's bath restates the standard one, so leaving it out
        # changes nothing
        shipped = json.loads((REPO / "configs" / "ecd_pulse_train.json").read_text())
        parsed = parse_config_dict(shipped)
        del shipped["ecd"]["bath"]
        assert parse_config_dict(shipped) == parsed


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
        empty = SweepCurve(parameter="leg_length", values=np.empty(0),
                           columns=(np.empty(0),) * 9)
        with pytest.raises(ParameterError):
            emit_curve(empty, tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("rows", [2 * CURVE_BLOCK_ROWS, 2 * CURVE_BLOCK_ROWS + 1])
    def test_lengths_at_the_block_edges(self, rows, tmp_path, annealed):
        curve = sweep(annealed, 40.0, "contact_resistivity", 0.0, 1e-8, rows)
        path = tmp_path / "curve.csv"
        emit_curve(curve, path)
        columns = [curve.values] + [curve.column(name) for name in (
            "dt_gen", "v_oc", "r_internal", "p_matched")] + [
            [x / UW_CM2_TO_W_M2 for x in curve.column(name)]
            for name in ("power_density", "eff_factor")]
        row = "contact_resistivity" + ",%.17g" * 7 + "\n"
        assert path.read_text() == ",".join(SWEEP_COLUMNS) + "\n" + "".join(
            row % cells for cells in zip(*columns))

    # sha256 and size of each CSV, squares taken as IEEE products. The
    # contact_resistivity sweep is still the point-by-point sweep's csv.writer
    # output; the other four differ from it in the last digit of 3 to 14
    # power cells, where glibc 2.36's pow(v_oc, 2) was an ulp off v_oc * v_oc.
    @pytest.mark.parametrize("parameter, lo, hi, n, spacing, captured", [
        ("leg_length", 10e-6, 1e-3, 300, "log",
         ("a90032ffab647a9f45a434a913f9fd4994e2175f7764164f0ab4990daf10ccf7", 46237)),
        ("fill_factor", 0.01, 1.0, 3000, "linear",
         ("a45d2ad12d371a8ebdd0a02a1fdf1d6e67c21cb3f5e1641f7a8aa0d71718e7ab", 452895)),
        ("contact_resistivity", 0.0, 1e-8, 3000, "linear",
         ("c7105f68e137abe22d07b5fd6860c20990fab7953e7b7a505216c9d4d4907e69", 490224)),
        ("interface_resistance", 0.0, 20.0, 3000, "linear",
         ("3118d3bce37ed44f4956d28415e3b809da4ba07d488fb73c68d9e07568954cb6", 480212)),
        ("dt_meas", 0.0, 80.0, 3000, "linear",
         ("96509a3cced2c2eb0fff3f55434b3958063c2b0102e602d976b00f9abd203ac9", 439632)),
    ])
    def test_bytes_match_the_captured_output(
        self, tmp_path, annealed, parameter, lo, hi, n, spacing, captured
    ):
        curve = sweep(annealed, 40.0, parameter, lo, hi, n, spacing=spacing)
        # each p_matched holds its row's correctly rounded square
        for v, r, p in zip(curve.column("v_oc"), curve.column("r_internal"),
                           curve.column("p_matched")):
            assert p == v * v / (4 * r)
        path = tmp_path / "curve.csv"
        emit_curve(curve, path)
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
            "a90032ffab647a9f45a434a913f9fd4994e2175f7764164f0ab4990daf10ccf7", 46237)
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
        names = ['cu,ni', 'say "annealed"', 'a\rb']
        path = tmp_path / "table.csv"
        emit_comparison(compare_designs(dict(zip(names, (cuni, annealed, cuni))), 40.0), path)
        text = path.read_bytes().decode()
        assert '\n"cu,ni",' in text
        assert '\n"say ""annealed""",' in text
        assert '\n"a\rb",' in text
        with open(path, newline="") as fh:
            assert [row["design"] for row in csv.DictReader(fh)] == names

    # Config file stems hold no NUL, and a stem that is not UTF-8 reaches
    # Python as surrogate escapes, such as "\udcff" for the byte 0xff.
    @given(st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                          blacklist_characters="\0")
                            | st.sampled_from(',"\r\n\u00e9\u03a9\U0001d538\udcff')),
                    min_size=1, max_size=4))
    def test_bytes_equal_csv_writer_on_a_utf8_text_file(self, tmp_path_factory, cuni,
                                                        names):
        # csv.reader recovers every name. csv.writer with a "\n" terminator
        # leaves a "\r" unquoted, which csv.reader reads as a line end, so it
        # is the byte oracle only for tables without "\r"; each example
        # overwrites the last one's table in place
        op = evaluate(cuni, 40.0)
        table = ComparisonTable(40.0, tuple((name, op) for name in names))
        path = tmp_path_factory.getbasetemp() / "compare"
        path.mkdir(exist_ok=True)
        emit_comparison(table, path / "table.csv")
        utf8 = {"newline": "", "encoding": "utf-8", "errors": "surrogateescape"}
        with open(path / "table.csv", **utf8) as handle:
            assert [row[0] for row in csv.reader(handle)] == ["design"] + names
        if any("\r" in name for name in names):
            return
        with open(path / "oracle.csv", "w", **utf8) as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["design", "dt_gen_K", "v_oc_V", "r_internal_ohm",
                             "p_matched_W", "p_density_uW_cm2", "eff_factor_uW_cm2_K2"])
            for name in names:
                writer.writerow([name] + ["%.17g" % x for x in (
                    op.dt_gen, op.v_oc, op.r_internal, op.p_matched,
                    op.power_density / UW_CM2_TO_W_M2, op.eff_factor / UW_CM2_TO_W_M2)])
        assert (path / "table.csv").read_bytes() == (path / "oracle.csv").read_bytes()


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


def deposit_state(times, thickness, surface) -> DepositState:
    """A DepositState holding only the given series."""
    empty = np.empty(0)
    return DepositState(thickness=float(thickness[-1]), growth_rate=0.0,
                        composition=None, min_surface_conc=float(np.min(surface)),
                        profile=empty, times=np.asarray(times),
                        thickness_series=np.asarray(thickness),
                        surface_conc_series=np.asarray(surface))


def series_state() -> DepositState:
    """1207 records: a regular run plus zero, subnormal, huge and inexact cells."""
    k = np.arange(1201)
    extra = [0.0, 1e-300, 5e-324, 1.2345678901234567e300, 0.1, 1 / 3]
    return deposit_state(np.concatenate([k * 1e-3, extra]),
                         np.concatenate([k * 3.3e-10 / 7.0, extra]),
                         np.concatenate([80.0 * (1 - (k % 97) / 131.0), extra]))


def row_by_row_bytes(state: DepositState) -> bytes:
    """The series CSV written one format per record."""
    rows = zip(state.times.tolist(), (state.thickness_series / 1e-6).tolist(),
               state.surface_conc_series.tolist())
    return ("t_s,thickness_um,surface_conc_mol_m3\n"
            + "".join("%.17g,%.17g,%.17g\n" % row for row in rows)).encode()


class TestDepositSeriesEmission:
    # sha256 and size of the series_state() CSV as csv.writer wrote it, one
    # writerow per record; block emission must keep these bytes.
    CAPTURED = ("9001cfa3d9e5fb6943daddc028044433cff9328757704ea67fe123c0ea450cd5",
                67950)

    def test_bytes_match_the_captured_csv_writer_output(self, tmp_path):
        path = tmp_path / "series.csv"
        emit_deposit_series(series_state(), path)
        data = path.read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == self.CAPTURED

    def assert_row_by_row_bytes(self, state, tmp_path):
        path = tmp_path / "series.csv"
        emit_deposit_series(state, path)
        data = path.read_bytes()
        assert data == row_by_row_bytes(state)
        return data

    def test_plated_series_with_repeated_thickness(self, tmp_path):
        # 20 pulse steps in 200: most thickness cells repeat the one before,
        # and 12 001 records span 24 blocks.
        dt = 1e-3
        plan = PulsePlan(t_pulse=20 * dt, t_pause=180 * dt, j_pulse=300.0,
                         total_time=12_000 * dt)
        state = simulate_diffusion(300e-6, BathSpec(), plan, 151, dt)
        thickness = state.thickness_series
        assert thickness.size > 2 * SERIES_BLOCK_ROWS
        assert np.unique(thickness).size < thickness.size / 5
        self.assert_row_by_row_bytes(state, tmp_path)

    @pytest.mark.parametrize("rows", [1, 2 * SERIES_BLOCK_ROWS, 2 * SERIES_BLOCK_ROWS + 1,
                                      8 * SERIES_BLOCK_ROWS, 8 * SERIES_BLOCK_ROWS + 1])
    def test_lengths_at_the_block_edges(self, rows, tmp_path):
        k = np.arange(rows)
        state = deposit_state(k * 1e-3, (k // 7) * 3.3e-10 / 7.0,
                              80.0 * (1 - (k % 97) / 131.0))
        self.assert_row_by_row_bytes(state, tmp_path)

    def test_signed_zeros_and_nan_print_apart(self, tmp_path):
        # Equal as values, 0.0 and -0.0 differ in their bits and their cells.
        thickness = [0.0, -0.0, float("nan"), -0.0, 0.0, float("nan"), 1e-6]
        state = deposit_state(np.arange(7) * 1e-3, thickness, np.full(7, 80.0))
        data = self.assert_row_by_row_bytes(state, tmp_path)
        rows = data.decode().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["0", "-0", "nan", "-0", "0", "nan", "1"]


class TestEmissionMemory:
    """A curve or series is written a block at a time through one reused
    buffer, so emission allocates about a block's worth of memory, not a
    table's: a whole 10^5-point curve table alone is 5.6 MB."""

    @pytest.mark.parametrize("kind", ["curve", "series"])
    def test_peak_at_10_5_rows_stays_under_1_5_MB(self, kind, tmp_path, annealed):
        rows = 10**5
        if kind == "curve":
            source = sweep(annealed, 40.0, "leg_length", 1e-5, 1e-3, rows)
            emit = emit_curve
        else:
            k = np.arange(rows)
            source = deposit_state(k * 1e-3, k * 3.3e-10 / 7.0,
                                   80.0 * (1 - (k % 97) / 131.0))
            emit = emit_deposit_series
        emit(source, tmp_path / "warm.csv")  # builds the kernel's tables once
        tracemalloc.start()
        try:
            emit(source, tmp_path / "table.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6
        assert len((tmp_path / "table.csv").read_bytes().splitlines()) == rows + 1


def percent_rows(table: np.ndarray, lead: bytes = b"") -> bytes:
    """The CSV lines of `table` as Python's `%` writes them, one row at a time."""
    row = (lead + b"," if lead else b"") + b",".join([b"%.17g"] * table.shape[1]) + b"\n"
    return b"".join(row % tuple(cells) for cells in table.tolist())


def last_group_is_0000(x: float) -> bool:
    """Whether the last 4 of x's 17 significant digits are 0000."""
    return ("%.16e" % x).partition("e")[0].endswith("0000")


class TestCellKernel:
    """`_csv_rows` writes every float64 as Python's `b"%.17g" % x`."""

    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_float(self, values):
        table = np.array(values)[:, None]
        assert _csv_rows(table) == percent_rows(table)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(18)
        bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
        table = bits.view(np.float64).reshape(-1, 4)
        assert _csv_rows(table, b"leg_length") == percent_rows(table, b"leg_length")

    def test_random_values_in_the_kernel_range(self):
        # most random bit patterns lie outside [1e-30, 1e30] and go through %
        rng = np.random.default_rng(18)
        values = rng.standard_normal(200_001) * 10.0 ** rng.integers(-32, 32, 200_001)
        table = values.reshape(-1, 3)
        assert _csv_rows(table) == percent_rows(table)

    def test_edges(self):
        # exact decimal ties at 17 digits, M 2^-(s + 1) * 10^s = M 5^s / 2 with
        # M odd, which % rounds to even: 2^50 + 1/4 prints ...624.2
        ties = [m * 2.0 ** -(s + 1) for s in range(1, 47)
                for m in [-(-2 * 10**16 // 5**s) | 1] if m * 5**s < 2 * 10**17]
        tens = np.array([float("1e%d" % k) for k in range(-320, 309)])
        values = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), ties, [
            1e16, 1e17, 99999999999999999.0, 0.0001, np.nextafter(0.0001, 0),
            5e-324, 0.0, -0.0, float("nan"), float("inf"), -float("inf"),
            2.0**50 + 0.25, 2.0**50 + 0.75]])
        table = np.concatenate([values, -values]).reshape(-1, 1)
        assert _csv_rows(table) == percent_rows(table)

    @pytest.mark.parametrize("which", ["every", "some", "no"])
    def test_cells_whose_digits_end_in_a_0000_group(self, which):
        # The count of significant digits comes from the last 4-digit group
        # of the 17, and from the groups before it only where that one is
        # 0000: integers, k / 1024 and 40.0 end in 0000, and 10^d + 1 and
        # 5 10^d end their digits in each group in turn.
        rng = np.random.default_rng(20)
        k = np.arange(1.0, 2049.0)
        short = np.concatenate([10.0 ** np.arange(16) + 1, 5 * 10.0 ** np.arange(16)])
        noise = rng.standard_normal(k.size) * 10.0 ** rng.integers(-20, 20, k.size)
        table = {
            "every": np.column_stack((k, k / 1024, np.full(k.size, 40.0))),
            "some": np.column_stack((noise, np.resize(short, k.size), k / 1024,
                                     np.resize([1e16, 99999999999999999.0], k.size))),
            "no": noise[[not last_group_is_0000(x) for x in noise.tolist()]][:, None],
        }[which]
        ends = [last_group_is_0000(x) for x in table.reshape(-1).tolist()]
        assert (any(ends), all(ends)) == {
            "every": (True, True), "some": (True, False), "no": (False, False)}[which]
        assert _csv_rows(table) == percent_rows(table)
        assert _csv_rows(table, b"fill_factor") == percent_rows(table, b"fill_factor")


class TestOverwriteInPlace:
    """Every writer overwrites an existing file in place and cuts it to the
    new length: the bytes are those of a write to a new path."""

    @pytest.fixture(params=["curve", "comparison", "series", "report"])
    def write(self, request, annealed, cuni):
        if request.param == "curve":
            curve = sweep(annealed, 40.0, "leg_length", 1e-5, 1e-3, 50)
            return lambda path: emit_curve(curve, path)
        if request.param == "comparison":
            table = compare_designs({"cu_ni": cuni, "annealed": annealed}, 40.0)
            return lambda path: emit_comparison(table, path)
        if request.param == "series":
            return lambda path: emit_deposit_series(series_state(), path)
        argv = ["eval", "--config", str(REPO / "configs" / "bi2te3_annealed.json"),
                "--dt", "40", "--out"]

        def write_report(path):
            with redirect_stdout(io.StringIO()):
                assert main(argv + [str(path)]) == 0
        return write_report

    @staticmethod
    def fresh_bytes(write, path):
        """What `write` puts in `path` when no file is there (the report
        names its own path)."""
        write(path)
        data = path.read_bytes()
        path.unlink()
        return data

    @pytest.mark.parametrize("scale", [3, 0.5], ids=["over-longer", "over-shorter"])
    def test_bytes_equal_a_fresh_write(self, write, tmp_path, scale):
        path = tmp_path / "old"
        fresh = self.fresh_bytes(write, path)
        path.write_bytes(b"#" * int(scale * len(fresh)))
        write(path)
        assert path.read_bytes() == fresh

    def test_inode_mode_and_hard_links_are_kept(self, write, tmp_path):
        path, link = tmp_path / "old", tmp_path / "link"
        fresh = self.fresh_bytes(write, path)
        path.write_bytes(b"#" * (2 * len(fresh)))
        path.chmod(0o600)
        os.link(path, link)
        inode = path.stat().st_ino
        write(path)
        after = path.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (inode, 0o600)
        assert link.read_bytes() == fresh

    def test_a_new_file_gets_the_mode_open_gives(self, write, tmp_path):
        with open(tmp_path / "reference", "w"):
            pass
        write(tmp_path / "new")
        modes = [stat.S_IMODE((tmp_path / name).stat().st_mode)
                 for name in ("new", "reference")]
        assert modes[0] == modes[1]

    def test_no_writer_truncates_at_open(self, write, tmp_path, monkeypatch):
        flags = []

        def recording_open(path, flag, *args):
            flags.append(flag)
            return os_open(path, flag, *args)

        os_open = os.open
        monkeypatch.setattr(os, "open", recording_open)
        write(tmp_path / "out")
        assert flags and not any(flag & os.O_TRUNC for flag in flags)

    def test_short_writes_are_resumed(self, write, tmp_path, monkeypatch):
        path = tmp_path / "out"
        fresh = self.fresh_bytes(write, path)
        os_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: os_write(fd, data[:7]))
        write(path)
        assert path.read_bytes() == fresh

    def test_dev_null_is_a_target(self, write):
        write(os.devnull)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    # "w": one chunk encoded from text, as the report and comparison writers
    # give; "wb": many bytearray chunks, as a block writer gives.
    @pytest.mark.parametrize("mode", ["w", "wb"])
    def test_an_exception_leaves_a_prefix_of_the_new_bytes(self, tmp_path, mode):
        new = b"t_s,thickness_um\n" + b"0.5,1.25\n" * 400
        path = tmp_path / "old"
        path.write_bytes(b"#" * (3 * len(new)))
        part = new[: len(new) // 2]

        def interrupted():
            if mode == "w":
                yield part.decode().encode()
            else:
                for start in range(0, len(part), 100):
                    yield bytearray(part[start:start + 100])
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            write_file(path, interrupted())
        data = path.read_bytes()
        assert data and new.startswith(data)

    def test_an_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_file(tmp_path / "no" / "such.csv", [b"design\n"])


class TestReportText:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_number_is_a_numerical_error(self, value):
        with pytest.raises(NumericalError, match=f"outputs.p_matched = {value}$"):
            report_text({"outputs": {"p_matched": value}})

    def test_the_first_non_finite_number_in_key_order_is_named(self):
        report = {"outputs": {"rows": {"b": [1.0, float("inf")], "a": [float("nan")]},
                              "bracket_si": [2.0, float("-inf")]}}
        with pytest.raises(NumericalError, match=r"outputs\.bracket_si\[1\] = -inf$"):
            report_text(report)
        del report["outputs"]["bracket_si"]
        with pytest.raises(NumericalError, match=r"outputs\.rows\.a\[0\] = nan$"):
            report_text(report)
