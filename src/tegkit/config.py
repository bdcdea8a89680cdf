"""JSON design-config ingestion with explicit units in the key names.

All config values carry their unit as a key suffix (leg_length_um,
j_pulse_mA_cm2, ...). Each section's numbers are read from one field table
whose rows give the record field, the display-to-SI factor, the default and
the range. A number is converted to SI before its finite and range checks,
so a conversion that underflows to 0 or overflows to inf is refused too.
Unknown keys are rejected, JSON NaN and Infinity are refused, and every
diagnostic names the offending field path. Defaults apply only to
device_area_cm2 (1), the bath's diffusivity_m2_s (1e-9),
electrons_per_formula (18), molar_mass_g_mol (800.76) and density_g_cm3
(7.7), an inline material's name ("inline") and an insulator's
seebeck_uV_K (0), and record_every (1).
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .device import GeneratorDesign
from .ecd import BathSpec, PulsePlan
from .errors import ConfigFieldError, ConfigFileError, ConfigSyntaxError, InvariantError
from .materials import MaterialProps, lookup_material, preset_names

# Display unit -> SI factors.
UM_TO_M = 1e-6
UM2_TO_M2 = 1e-12
CM2_TO_M2 = 1e-4
MS_TO_S = 1e-3
UW_CM2_TO_W_M2 = 1e-2
MA_CM2_TO_A_M2 = 10.0
OHM_CM2_TO_OHM_M2 = 1e-4
UV_K_TO_V_K = 1e-6
G_MOL_TO_KG_MOL = 1e-3
G_CM3_TO_KG_M3 = 1e3
# Factor of a key already in SI. An int, so that a float value is unchanged
# and an int default (electrons_per_formula's 18) stays an int in reports.
_SI = 1


@dataclass(frozen=True)
class SimSettings:
    """Numerical settings for the deposition simulator."""

    mold_depth: float  # m
    grid: int
    dt: float  # s
    record_every: int = 1


@dataclass(frozen=True)
class ParsedConfig:
    design: GeneratorDesign
    pulse: PulsePlan | None = None
    bath: BathSpec | None = None
    sim: SimSettings | None = None


# Range checks on an SI value: each returns the value the record stores.
def _any(value: float, where: str) -> float:
    return value


def _positive(value: float, where: str) -> float:
    if not value > 0:
        raise ConfigFieldError("must be > 0", where)
    return value


def _nonnegative(value: float, where: str) -> float:
    if value < 0:
        raise ConfigFieldError("must be >= 0", where)
    return value


def _fraction(value: float, where: str) -> float:
    if _positive(value, where) > 1:
        raise ConfigFieldError("must be <= 1", where)
    return value


def _count(least: int):
    def check(value: float, where: str) -> int:
        if value != int(value) or int(value) < least:
            raise ConfigFieldError(f"must be an integer >= {least}", where)
        return int(value)

    return check


# Field tables: config key, in checking order -> (record field, display-to-SI
# factor, default in display units or None if required, check on the SI value).
_DESIGN = {
    "fill_factor": ("fill_factor", _SI, None, _fraction),
    "leg_length_um": ("leg_length", UM_TO_M, None, _positive),
    "leg_area_um2": ("leg_area", UM2_TO_M2, None, _positive),
    "device_area_cm2": ("device_area", CM2_TO_M2, 1.0, _positive),
    "contact_resistivity_ohm_cm2": (
        "contact_resistivity", OHM_CM2_TO_OHM_M2, None, _nonnegative,
    ),
    "interface_resistance_K_W": ("interface_resistance", _SI, None, _nonnegative),
}
_MATERIAL = {
    "seebeck_uV_K": ("seebeck", UV_K_TO_V_K, None, _any),
    "resistivity_ohm_m": ("resistivity", _SI, None, _positive),
    "thermal_conductivity_W_mK": ("thermal_conductivity", _SI, None, _positive),
}
# An insulator conducts no thermoelectric current: its Seebeck defaults to 0.
_INSULATOR = {**_MATERIAL, "seebeck_uV_K": ("seebeck", UV_K_TO_V_K, 0.0, _any)}
_PULSE = {
    "t_pulse_ms": ("t_pulse", MS_TO_S, None, _positive),
    "t_pause_s": ("t_pause", _SI, None, _nonnegative),
    "j_pulse_mA_cm2": ("j_pulse", MA_CM2_TO_A_M2, None, _nonnegative),
    "total_time_s": ("total_time", _SI, None, _positive),
}
_BATH = {
    "c_teo2_mol_m3": ("c_teo2", _SI, None, _positive),
    "c_bi2o3_mol_m3": ("c_bi2o3", _SI, None, _positive),
    # Transport and bulk Bi2Te3 data: BathSpec's defaults in display units.
    "diffusivity_m2_s": ("diffusivity", _SI, 1e-9, _positive),
    "electrons_per_formula": ("electrons_per_formula", _SI, 18, _positive),
    "molar_mass_g_mol": ("molar_mass", G_MOL_TO_KG_MOL, 800.76, _positive),
    "density_g_cm3": ("density", G_CM3_TO_KG_M3, 7.7, _positive),
}
_SIM = {
    "grid_points": ("grid", _SI, None, _count(16)),
    "record_every": ("record_every", _SI, 1, _count(1)),
    "mold_depth_um": ("mold_depth", UM_TO_M, None, _positive),
    "dt_s": ("dt", _SI, None, _positive),
}
_ECD = {"pulse": (PulsePlan, _PULSE), "bath": (BathSpec, _BATH),
        "sim": (SimSettings, _SIM)}
_SLOTS = ("p_material", "n_material", "matrix_material")


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigFieldError("expected an object", path)
    return value


def _reject_unknown(obj: dict, allowed, path: str) -> None:
    unknown = sorted(set(obj).difference(allowed))
    if unknown:
        raise ConfigFieldError(
            f"unknown key(s) {', '.join(unknown)}; allowed: {', '.join(sorted(allowed))}",
            path,
        )


def _read_fields(obj: dict, table: dict, path: str) -> dict:
    """Record fields from the numbers `table` names, in SI and checked."""
    fields = {}
    for key, (field, factor, default, check) in table.items():
        where = f"{path}.{key}"
        if key in obj:
            value = obj[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigFieldError("expected a number", where)
            try:
                value = float(value)
            except OverflowError:
                raise ConfigFieldError(
                    "must be finite, got an integer beyond the float range", where
                ) from None
            value *= factor
        elif default is None:
            raise ConfigFieldError("required field is missing", where)
        else:
            value = default * factor
        if not math.isfinite(value):
            raise ConfigFieldError(f"must be finite, got {value!r}", where)
        fields[field] = check(value, where)
    return fields


def _parse_material(value, path: str) -> MaterialProps:
    if isinstance(value, str):
        try:
            return lookup_material(value)
        except KeyError:
            raise ConfigFieldError(
                f"unknown preset {value!r}; valid: {', '.join(preset_names())}",
                path,
            ) from None
    obj = _expect_mapping(value, path)
    _reject_unknown(obj, {"name", "carrier", *_MATERIAL}, path)
    carrier = obj.get("carrier")
    if not isinstance(carrier, str):
        raise ConfigFieldError("required string field", f"{path}.carrier")
    name = obj.get("name", "inline")
    if not isinstance(name, str):
        raise ConfigFieldError("expected a string", f"{path}.name")
    table = _INSULATOR if carrier == "insulator" else _MATERIAL
    # The carrier rules (a known carrier, the Seebeck sign it implies) live
    # only in MaterialProps.
    try:
        return MaterialProps(name=name, carrier=carrier,
                             **_read_fields(obj, table, path))
    except InvariantError as exc:
        raise ConfigFieldError(str(exc), path) from exc


def _check_slot_carrier(mat: MaterialProps, slot: str, sign: int) -> None:
    # Strict slot rule at the config boundary: the p slot must produce a
    # positive Seebeck leg, the n slot a negative one.
    if not (mat.carrier == slot or (mat.carrier == "metal" and sign * mat.seebeck > 0)):
        raise ConfigFieldError(
            f"{slot}_material must be {slot}-type or a "
            f"{'positive' if sign > 0 else 'negative'}-Seebeck metal, got "
            f"{mat.name!r} ({mat.carrier})",
            f"design.{slot}_material",
        )


def _parse_design_section(obj: dict) -> GeneratorDesign:
    _reject_unknown(obj, {*_SLOTS, *_DESIGN}, "design")
    for key in _SLOTS:
        if key not in obj:
            raise ConfigFieldError("required field is missing", f"design.{key}")
    p_mat, n_mat, matrix = [_parse_material(obj[key], f"design.{key}")
                            for key in _SLOTS]
    _check_slot_carrier(p_mat, "p", 1)
    _check_slot_carrier(n_mat, "n", -1)
    if matrix.carrier != "insulator":
        raise ConfigFieldError(
            "matrix_material must be an insulator", "design.matrix_material"
        )
    return GeneratorDesign(p_material=p_mat, n_material=n_mat,
                           matrix_material=matrix,
                           **_read_fields(obj, _DESIGN, "design"))


def parse_config_dict(data: dict) -> ParsedConfig:
    """Validate an already-decoded config document."""
    root = _expect_mapping(data, "<root>")
    _reject_unknown(root, {"design", "ecd"}, "<root>")
    if "design" not in root:
        raise ConfigFieldError("required section is missing", "design")
    design = _parse_design_section(_expect_mapping(root["design"], "design"))
    records = {}
    if "ecd" in root:
        ecd_obj = _expect_mapping(root["ecd"], "ecd")
        _reject_unknown(ecd_obj, _ECD, "ecd")
        for name, (record, table) in _ECD.items():
            if name in ecd_obj:
                path = f"ecd.{name}"
                obj = _expect_mapping(ecd_obj[name], path)
                _reject_unknown(obj, table, path)
                records[name] = record(**_read_fields(obj, table, path))
    return ParsedConfig(design=design, **records)


def parse_design(path: str | Path) -> ParsedConfig:
    """Load and validate a design config file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigFileError(f"cannot read config file {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigSyntaxError(f"config file {p} is not UTF-8: {exc}") from exc
    # ValueError: bad JSON, or an integer past Python's int-digits limit;
    # RecursionError: nesting deeper than the decoder recurses
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigSyntaxError(f"malformed JSON in {p}: {exc}") from exc
    return parse_config_dict(data)
