"""Coupled thermal-electrical generator model.

Steady state and linear: the device is a thermal voltage divider (generator
resistance against the lumped interface resistance) feeding a Seebeck source
with ohmic internal resistance. No Peltier/Joule back-coupling, so the same
heat flow crosses the hot and cold faces and matched-load power scales with
the square of the applied temperature difference.

Every square is an IEEE product (`v_oc * v_oc`), which is correctly rounded,
so outputs do not depend on the platform's libm `pow`.

One body, one guard table: `_model` holds each formula, on floats and numpy
arrays alike, and `_GUARDS` each guard. `evaluate` raises the first guard
that fails; `evaluate_columns`, the same model at many values of one swept
input, ANDs them into its mask and alone imports numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce
from math import inf, sqrt
from operator import and_
from types import SimpleNamespace

from .errors import (
    CalibrationError,
    DegenerateDesignError,
    InvariantError,
    NumericalError,
    ParameterError,
)
from .materials import MaterialProps

#: uW/cm2 -> W/m2, the display unit of the power density and efficiency
#: factor; `evaluate` refuses a point at which either overflows in it.
UW_CM2_TO_W_M2 = 1e-2

#: (error class, message) per guard in check order, last the overflows (to
#: inf, or NaN after) of inputs near the float range. `_field_oks` tests the
#: four swept design fields, `_model` the rest, `_MODEL_GUARDS`.
_GUARDS = (
    (InvariantError, "leg_length must be finite and > 0"),
    (InvariantError, "fill_factor must be in (0, 1]"),
    (InvariantError, "contact_resistivity must be finite and >= 0"),
    (InvariantError, "interface_resistance must be finite and >= 0"),
    (ParameterError, "dt_meas must be finite and >= 0"),
    (DegenerateDesignError, "no thermal conduction path through device"),
    (DegenerateDesignError, "r_gen must be > 0"),
    (DegenerateDesignError, "couple count N = {n:.3g} < 1; not a realizable device"),
    (ParameterError, "r_internal must be > 0"),
    (NumericalError, "p_matched overflows: a term is beyond the float range "
                     "(v_oc = {v_oc:g} V, r_internal = {r_internal:g} ohm)"),
    *((NumericalError, "%s = {%s:g} at dt_meas = {dt_meas:g} K: the model "
       "overflows the float range" % quantity) for quantity in (
        ("r_internal", "r_internal"), ("power_density", "power_density"),
        ("q_hot", "q_hot"), ("dt_meas^2", "dt_sq"), ("eff_factor", "eff_factor"),
        ("power_density in uW/cm2", "density_uw"),
        ("eff_factor in uW/cm2/K2", "eff_uw"))),
)
_MODEL_GUARDS = _GUARDS[4:]


@dataclass(frozen=True)
class GeneratorDesign:
    """Full device geometry, materials, and interface parasitics (SI).

    fill_factor is the thermoactive fraction of the device area; with A_V
    the insulating-to-thermoactive area ratio, fill_factor = 1 / (1 + A_V).
    contact_resistivity applies per metal-semiconductor contact (two per
    leg). interface_resistance lumps both mounting faces.
    """

    leg_length: float  # m
    leg_area: float  # m2, one leg cross section
    fill_factor: float
    device_area: float  # m2
    p_material: MaterialProps
    n_material: MaterialProps
    matrix_material: MaterialProps
    contact_resistivity: float  # ohm m2
    interface_resistance: float  # K/W

    def __post_init__(self):
        oks = _field_oks(self)
        _raise_first(oks[:1])  # leg_length before the two areas
        if not 0 < self.leg_area < inf:
            raise InvariantError("leg_area must be finite and > 0")
        if not 0 < self.device_area < inf:
            raise InvariantError("device_area must be finite and > 0")
        _raise_first(oks)
        if self.matrix_material.carrier != "insulator":
            raise InvariantError("matrix_material must be an insulator")
        # Leg slots are conventionally p (positive Seebeck) and n (negative),
        # but metal legs and deliberate swaps are evaluable; only insulating
        # legs are rejected.
        for slot, mat in (("p_material", self.p_material),
                          ("n_material", self.n_material)):
            if mat.carrier == "insulator":
                raise InvariantError(f"{slot} must be thermoelectrically active")

    @property
    def couples(self) -> float:
        """Thermocouple count N = F * A_dev / (2 * A_leg), continuous."""
        return _model(self, 0.0, _div)[2][0]  # n


@dataclass(frozen=True)
class OperatingPoint:
    """Derived performance at one measured temperature difference."""

    dt_meas: float  # K, between the external sensors
    dt_gen: float  # K, across the generator
    v_oc: float  # V
    r_internal: float  # ohm
    p_matched: float  # W
    power_density: float  # W/m2
    q_hot: float  # W
    q_cold: float  # W
    eff_factor: float  # W m^-2 K^-2, power_density / dt_meas^2


_NAMES = (*(f.name for f in fields(OperatingPoint)),  # what messages name
          "n", "r_gen", "dt_sq", "density_uw", "eff_uw")


def _raise_first(oks, rows=_GUARDS, **values):
    for ok, (error, message) in zip(oks, rows):
        if not ok:
            raise error(message.format(**values))


def _div(a, b):  # the float path's; the array path passes its own
    return a / b if b else 0.0


def _field_oks(d):
    return ((0 < d.leg_length) & (d.leg_length < inf),
            (0 < d.fill_factor) & (d.fill_factor <= 1),
            (0 <= d.contact_resistivity) & (d.contact_resistivity < inf),
            (0 <= d.interface_resistance) & (d.interface_resistance < inf))


def _divider(dt, r_gen, k_if, div):
    # the ratio first, so dt_gen never exceeds dt by an ulp (r / (r + 0) is 1)
    return dt * div(r_gen, r_gen + k_if), (0 <= dt) & (dt < inf), r_gen > 0


def _matched(v_oc, r_i, div):
    return (p := div(v_oc * v_oc, 4 * r_i)), r_i > 0, p < inf


def _efficiency(density, dt, div):
    return (dt_sq := dt * dt), div(density, dt_sq)


def _model(design, dt, div):
    """The `OperatingPoint` fields, one ok per `_MODEL_GUARDS` row and the rest
    of `_NAMES` at dt_meas dt, each of dt and the design's four swept fields a
    float or a numpy array, and with div(a, b) = a / b, 0 where b is 0."""
    L, F = design.leg_length, design.fill_factor
    rho_c, k_if = design.contact_resistivity, design.interface_resistance
    p_mat, n_mat = design.p_material, design.n_material
    lam = (F * (p_mat.thermal_conductivity + n_mat.thermal_conductivity) / 2
           + (1 - F) * design.matrix_material.thermal_conductivity)
    # the product, not lam alone: it can underflow to 0 for a positive lam
    area_lam = design.device_area * lam
    r_gen = div(L, area_lam)  # can underflow to 0 too
    dt_gen, dt_ok, r_gen_ok = _divider(dt, r_gen, k_if, div)
    n = F * design.device_area / (2 * design.leg_area)
    v_oc = n * (p_mat.seebeck - n_mat.seebeck) * dt_gen
    r_i = n * (((p_mat.resistivity + n_mat.resistivity) * L + 4 * rho_c)
               / design.leg_area)
    p, r_i_ok, p_ok = _matched(v_oc, r_i, div)
    q = div(dt_gen, r_gen)
    density = p / design.device_area
    dt_sq, eff = _efficiency(density, dt, div)
    density_uw, eff_uw = density / UW_CM2_TO_W_M2, eff / UW_CM2_TO_W_M2
    oks = (dt_ok, area_lam > 0, r_gen_ok, n >= 1, r_i_ok, p_ok, r_i < inf,
           density < inf, q < inf, dt_sq < inf, eff < inf, density_uw < inf,
           eff_uw < inf)
    return ((dt, dt_gen, v_oc, r_i, p, density, q, q, eff), oks,
            (n, r_gen, dt_sq, density_uw, eff_uw))


def generator_thermal_resistance(design: GeneratorDesign) -> float:
    """Thermal resistance of the generator body, K/W.

    Legs and SU-8 matrix conduct in parallel across the full device area:
    R_G = L / (A_dev * (F * lambda_te_avg + (1 - F) * lambda_matrix)).
    """
    _, oks, (_, r_gen, *_) = _model(design, 0.0, _div)
    _raise_first(oks[:3], _MODEL_GUARDS)  # dt_meas = 0, conduction, r_gen
    return r_gen


def thermal_divider(dt_meas: float, r_gen: float, k_if: float) -> float:
    """Temperature difference across the generator, K.

    The measured difference divides between the generator body and the
    interface resistance: dt_gen = dt_meas * r_gen / (r_gen + k_if).
    """
    dt_gen, *oks = _divider(dt_meas, r_gen, k_if, _div)
    _raise_first(oks, _MODEL_GUARDS[:3:2])  # the dt_meas and r_gen rows
    if k_if < 0:
        raise ParameterError("k_if must be >= 0")
    return dt_gen


def calibrate_r_gen(dt_meas: float, dt_gen: float, k_if: float) -> float:
    """Invert the divider: generator resistance from observed dt_gen, K/W."""
    if not k_if > 0:
        raise ParameterError("k_if must be > 0")
    if not dt_gen > 0:
        raise ParameterError("dt_gen must be > 0")
    if dt_gen >= dt_meas:
        raise CalibrationError(
            f"dt_gen = {dt_gen} K must be smaller than dt_meas = {dt_meas} K"
        )
    r_gen = k_if * dt_gen / (dt_meas - dt_gen)
    if not 0 < r_gen < inf:
        raise NumericalError(f"r_gen = {r_gen:g} K/W is beyond the float range")
    return r_gen


def internal_resistance(design: GeneratorDesign) -> float:
    """Series resistance of all couples, ohm.

    Per couple: two legs in series plus four metal-semiconductor contacts;
    interconnect metal resistance is neglected.
    """
    return _model(design, 0.0, _div)[0][3]  # r_internal


def load_power(v_oc: float, r_internal: float, r_load: float) -> float:
    """Power delivered into r_load, W."""
    if not r_internal > 0:
        raise ParameterError("r_internal must be > 0")
    if r_load < 0:
        raise ParameterError("r_load must be >= 0")
    r_sq = (r_internal + r_load) * (r_internal + r_load)
    p = v_oc * v_oc * r_load / r_sq if r_sq > 0 else inf
    if not p < inf:
        raise NumericalError(
            f"load power: a term is beyond the float range (v_oc = {v_oc:g} V, "
            f"r_internal = {r_internal:g} ohm, r_load = {r_load:g} ohm)"
        )
    return p


def matched_load_power(v_oc: float, r_internal: float) -> float:
    """Maximum deliverable power, W: v_oc^2 / (4 r_internal)."""
    p, *oks = _matched(v_oc, r_internal, _div)
    _raise_first(oks, _MODEL_GUARDS[4:6], v_oc=v_oc, r_internal=r_internal)
    return p


def efficiency_factor(power_density: float, dt_meas: float) -> float:
    """Area benchmark power_density / dt_meas^2, W m^-2 K^-2.

    Not the dimensionless thermoelectric figure of merit; this is the
    device-level quantity commonly quoted in uW cm^-2 K^-2.
    """
    if not dt_meas > 0:
        raise ParameterError("dt_meas must be > 0")
    dt_sq, eff = _efficiency(power_density, dt_meas, _div)
    if dt_sq == 0.0:
        raise ParameterError("dt_meas too small: dt_meas^2 underflows")
    if not abs(eff) < inf:
        raise NumericalError(f"eff_factor = {eff:g} is beyond the float range")
    return eff


def evaluate(design: GeneratorDesign, dt_meas: float) -> OperatingPoint:
    """Full model evaluation at one measured temperature difference."""
    point, oks, named = _model(design, dt_meas, _div)
    if not all(oks):
        _raise_first(oks, _MODEL_GUARDS, **dict(zip(_NAMES, (*point, *named))))
    return OperatingPoint(*point)


def evaluate_columns(
    design: GeneratorDesign, dt_meas: float, parameter: str, values
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """`evaluate` at each of `values` (a 1-D float array) of one parameter.

    `parameter` is `dt_meas` or a design field (`leg_length`, `fill_factor`,
    `contact_resistivity`, `interface_resistance`); every other input stays
    a float, so a quantity that depends on none of the swept values is
    computed once. Returns (valid, columns), one float64 array of the values'
    shape per `OperatingPoint` field: the `_model` that `evaluate` runs, bit
    for bit, and the same `_GUARDS` rows, False where `evaluate` would raise.
    """
    import numpy as np

    if parameter == "dt_meas":
        dt_meas = values
    elif parameter in ("leg_length", "fill_factor", "contact_resistivity",
                       "interface_resistance"):  # that field holds the values
        design = SimpleNamespace(**{**vars(design), parameter: values})
    else:
        raise ParameterError(f"unknown sweep parameter {parameter!r}")

    def div(a, b):
        return np.divide(a, b, out=np.zeros(np.broadcast(a, b).shape), where=b != 0)

    # invalid points may overflow; valid says which points those are
    with np.errstate(all="ignore"):
        point, oks, _ = _model(design, dt_meas, div)
    dt, dt_gen, v_oc, r_i, p, density, q, _, eff = (
        np.full(values.shape, x, float) if np.ndim(x) == 0 else x for x in point
    )
    valid = reduce(and_, (*_field_oks(design), *oks))
    return valid, (dt, dt_gen, v_oc, r_i, p, density, q, q, eff)


def calibrate_seebeck(
    design: GeneratorDesign, dt_meas: float, target_density: float
) -> float:
    """Couple coefficient alpha_p - alpha_n that reproduces target_density.

    Closed form: alpha = sqrt(4 R_i A_dev target) / (N dt_gen). The design's
    own Seebeck values are ignored; geometry, resistivities, and interfaces
    are taken as given. An N dt_gen that underflows to 0, or a coefficient
    beyond the float range, raises NumericalError.
    """
    if not 0 < target_density < inf:
        raise ParameterError("target_density must be finite and > 0")
    if not 0 < dt_meas < inf:
        raise ParameterError("dt_meas must be finite and > 0")
    (_, dt_gen, _, r_i, *_), oks, (n, *_) = _model(design, dt_meas, _div)
    if not oks[3]:  # the N >= 1 row, with calibration's own error
        raise CalibrationError(f"couple count N = {n:.3g} < 1; geometry cannot "
                               "be calibrated")
    _raise_first(oks[:3], _MODEL_GUARDS)  # conduction and r_gen
    if not n * dt_gen > 0:
        raise NumericalError(f"calibration: N dt_gen underflows to 0 (dt_gen = {dt_gen:g} "
                             "K); the couple coefficient is beyond the float range")
    couple = sqrt(4 * r_i * design.device_area * target_density) / (n * dt_gen)
    if not couple < inf:
        raise NumericalError(f"calibration: couple coefficient = {couple:g} V/K is "
                             "beyond the float range")
    return couple
