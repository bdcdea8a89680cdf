"""JSON design-config ingestion with explicit units in the key names.

All config values carry their unit as a key suffix (leg_length_um,
j_pulse_mA_cm2, ...) and are converted to SI on load. Unknown keys are
rejected, numbers must be finite (JSON NaN and Infinity are refused), and
every diagnostic names the offending field path. Defaults are
applied only where documented: device_area_cm2 (1 cm2), the bath transport
block (diffusivity and the Bi2Te3 bulk data), and record_every.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .device import GeneratorDesign
from .ecd import BathSpec, PulsePlan
from .errors import (
    ConfigFieldError,
    ConfigFileError,
    ConfigSyntaxError,
    InvariantError,
)
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


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigFieldError("expected an object", path)
    return value


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigFieldError(
            f"unknown key(s) {', '.join(unknown)}; allowed: {', '.join(sorted(allowed))}",
            path,
        )


def _number(obj: dict, key: str, path: str, default=None):
    if key not in obj:
        if default is not None:
            return default
        raise ConfigFieldError("required field is missing", f"{path}.{key}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigFieldError("expected a number", f"{path}.{key}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigFieldError(
            "must be finite, got an integer beyond the float range", f"{path}.{key}"
        ) from None
    if not math.isfinite(value):
        raise ConfigFieldError(f"must be finite, got {value!r}", f"{path}.{key}")
    return value


def _positive(obj: dict, key: str, path: str, default=None) -> float:
    value = _number(obj, key, path, default)
    if not value > 0:
        raise ConfigFieldError("must be > 0", f"{path}.{key}")
    return value


def _nonnegative(obj: dict, key: str, path: str, default=None) -> float:
    value = _number(obj, key, path, default)
    if value < 0:
        raise ConfigFieldError("must be >= 0", f"{path}.{key}")
    return value


_MATERIAL_KEYS = {
    "name",
    "seebeck_uV_K",
    "resistivity_ohm_m",
    "thermal_conductivity_W_mK",
    "carrier",
}


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
    _reject_unknown(obj, _MATERIAL_KEYS, path)
    carrier = obj.get("carrier")
    if not isinstance(carrier, str):
        raise ConfigFieldError("required string field", f"{path}.carrier")
    name = obj.get("name", "inline")
    if not isinstance(name, str):
        raise ConfigFieldError("expected a string", f"{path}.name")
    seebeck = _number(obj, "seebeck_uV_K", path, default=None if carrier != "insulator" else 0.0)
    try:
        return MaterialProps(
            name=name,
            seebeck=seebeck * UV_K_TO_V_K,
            resistivity=_positive(obj, "resistivity_ohm_m", path),
            thermal_conductivity=_positive(obj, "thermal_conductivity_W_mK", path),
            carrier=carrier,
        )
    except InvariantError as exc:
        raise ConfigFieldError(str(exc), path) from exc


_DESIGN_KEYS = {
    "leg_length_um",
    "leg_area_um2",
    "fill_factor",
    "device_area_cm2",
    "p_material",
    "n_material",
    "matrix_material",
    "contact_resistivity_ohm_cm2",
    "interface_resistance_K_W",
}


def _check_slot_carrier(mat: MaterialProps, slot: str, path: str) -> None:
    # Strict slot rule at the config boundary: the p slot must produce a
    # positive Seebeck leg, the n slot a negative one.
    if slot == "p" and not (
        mat.carrier == "p" or (mat.carrier == "metal" and mat.seebeck > 0)
    ):
        raise ConfigFieldError(
            f"p_material must be p-type or a positive-Seebeck metal, got "
            f"{mat.name!r} ({mat.carrier})",
            path,
        )
    if slot == "n" and not (
        mat.carrier == "n" or (mat.carrier == "metal" and mat.seebeck < 0)
    ):
        raise ConfigFieldError(
            f"n_material must be n-type or a negative-Seebeck metal, got "
            f"{mat.name!r} ({mat.carrier})",
            path,
        )


def _parse_design_section(obj: dict, path: str = "design") -> GeneratorDesign:
    _reject_unknown(obj, _DESIGN_KEYS, path)
    for key in ("p_material", "n_material", "matrix_material"):
        if key not in obj:
            raise ConfigFieldError("required field is missing", f"{path}.{key}")
    p_mat = _parse_material(obj["p_material"], f"{path}.p_material")
    n_mat = _parse_material(obj["n_material"], f"{path}.n_material")
    matrix = _parse_material(obj["matrix_material"], f"{path}.matrix_material")
    _check_slot_carrier(p_mat, "p", f"{path}.p_material")
    _check_slot_carrier(n_mat, "n", f"{path}.n_material")
    if matrix.carrier != "insulator":
        raise ConfigFieldError(
            "matrix_material must be an insulator", f"{path}.matrix_material"
        )
    fill = _positive(obj, "fill_factor", path)
    if fill > 1:
        raise ConfigFieldError("must be <= 1", f"{path}.fill_factor")
    try:
        return GeneratorDesign(
            leg_length=_positive(obj, "leg_length_um", path) * UM_TO_M,
            leg_area=_positive(obj, "leg_area_um2", path) * UM2_TO_M2,
            fill_factor=fill,
            device_area=_positive(obj, "device_area_cm2", path, default=1.0)
            * CM2_TO_M2,
            p_material=p_mat,
            n_material=n_mat,
            matrix_material=matrix,
            contact_resistivity=_nonnegative(
                obj, "contact_resistivity_ohm_cm2", path
            )
            * OHM_CM2_TO_OHM_M2,
            interface_resistance=_nonnegative(obj, "interface_resistance_K_W", path),
        )
    except InvariantError as exc:
        raise ConfigFieldError(str(exc), path) from exc


_PULSE_KEYS = {"t_pulse_ms", "t_pause_s", "j_pulse_mA_cm2", "total_time_s"}
_BATH_KEYS = {
    "c_teo2_mol_m3",
    "c_bi2o3_mol_m3",
    "diffusivity_m2_s",
    "electrons_per_formula",
    "molar_mass_g_mol",
    "density_g_cm3",
}
_SIM_KEYS = {"mold_depth_um", "grid_points", "dt_s", "record_every"}


def _parse_pulse(obj: dict, path: str) -> PulsePlan:
    _reject_unknown(obj, _PULSE_KEYS, path)
    try:
        return PulsePlan(
            t_pulse=_positive(obj, "t_pulse_ms", path) * MS_TO_S,
            t_pause=_nonnegative(obj, "t_pause_s", path),
            j_pulse=_nonnegative(obj, "j_pulse_mA_cm2", path) * MA_CM2_TO_A_M2,
            total_time=_positive(obj, "total_time_s", path),
        )
    except InvariantError as exc:
        raise ConfigFieldError(str(exc), path) from exc


def _parse_bath(obj: dict, path: str) -> BathSpec:
    _reject_unknown(obj, _BATH_KEYS, path)
    defaults = BathSpec()
    try:
        return BathSpec(
            c_teo2=_positive(obj, "c_teo2_mol_m3", path),
            c_bi2o3=_positive(obj, "c_bi2o3_mol_m3", path),
            diffusivity=_positive(
                obj, "diffusivity_m2_s", path, default=defaults.diffusivity
            ),
            electrons_per_formula=_positive(
                obj, "electrons_per_formula", path,
                default=defaults.electrons_per_formula,
            ),
            molar_mass=_positive(
                obj, "molar_mass_g_mol", path,
                default=defaults.molar_mass / G_MOL_TO_KG_MOL,
            )
            * G_MOL_TO_KG_MOL,
            density=_positive(
                obj, "density_g_cm3", path,
                default=defaults.density / G_CM3_TO_KG_M3,
            )
            * G_CM3_TO_KG_M3,
        )
    except InvariantError as exc:
        raise ConfigFieldError(str(exc), path) from exc


def _parse_sim(obj: dict, path: str) -> SimSettings:
    _reject_unknown(obj, _SIM_KEYS, path)
    grid = _number(obj, "grid_points", path)
    if grid != int(grid) or int(grid) < 16:
        raise ConfigFieldError("must be an integer >= 16", f"{path}.grid_points")
    record = _number(obj, "record_every", path, default=1)
    if record != int(record) or int(record) < 1:
        raise ConfigFieldError("must be an integer >= 1", f"{path}.record_every")
    return SimSettings(
        mold_depth=_positive(obj, "mold_depth_um", path) * UM_TO_M,
        grid=int(grid),
        dt=_positive(obj, "dt_s", path),
        record_every=int(record),
    )


def parse_config_dict(data: dict) -> ParsedConfig:
    """Validate an already-decoded config document."""
    root = _expect_mapping(data, "<root>")
    _reject_unknown(root, {"design", "ecd"}, "<root>")
    if "design" not in root:
        raise ConfigFieldError("required section is missing", "design")
    design = _parse_design_section(_expect_mapping(root["design"], "design"))
    pulse = bath = sim = None
    if "ecd" in root:
        ecd_obj = _expect_mapping(root["ecd"], "ecd")
        _reject_unknown(ecd_obj, {"pulse", "bath", "sim"}, "ecd")
        if "pulse" in ecd_obj:
            pulse = _parse_pulse(_expect_mapping(ecd_obj["pulse"], "ecd.pulse"),
                                 "ecd.pulse")
        if "bath" in ecd_obj:
            bath = _parse_bath(_expect_mapping(ecd_obj["bath"], "ecd.bath"),
                               "ecd.bath")
        if "sim" in ecd_obj:
            sim = _parse_sim(_expect_mapping(ecd_obj["sim"], "ecd.sim"), "ecd.sim")
    return ParsedConfig(design=design, pulse=pulse, bath=bath, sim=sim)


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
