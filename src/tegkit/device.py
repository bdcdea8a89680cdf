"""Coupled thermal-electrical generator model.

Steady state and linear: the device is a thermal voltage divider (generator
resistance against the lumped interface resistance) feeding a Seebeck source
with ohmic internal resistance. No Peltier/Joule back-coupling, so the same
heat flow crosses the hot and cold faces and matched-load power scales with
the square of the applied temperature difference.

Every square is an IEEE product (`v_oc * v_oc`), which is correctly rounded,
so outputs do not depend on the platform's libm `pow`.

The scalar model is plain `math`; numpy is imported only inside
`evaluate_columns`, the same model at many values of one swept input, so a
process that evaluates single points never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

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
        if not 0 < self.leg_length < inf:
            raise InvariantError("leg_length must be finite and > 0")
        if not 0 < self.leg_area < inf:
            raise InvariantError("leg_area must be finite and > 0")
        if not 0 < self.device_area < inf:
            raise InvariantError("device_area must be finite and > 0")
        if not 0 < self.fill_factor <= 1:
            raise InvariantError("fill_factor must be in (0, 1]")
        if not 0 <= self.contact_resistivity < inf:
            raise InvariantError("contact_resistivity must be finite and >= 0")
        if not 0 <= self.interface_resistance < inf:
            raise InvariantError("interface_resistance must be finite and >= 0")
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
        return self.fill_factor * self.device_area / (2 * self.leg_area)


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


def generator_thermal_resistance(design: GeneratorDesign) -> float:
    """Thermal resistance of the generator body, K/W.

    Legs and SU-8 matrix conduct in parallel across the full device area:
    R_G = L / (A_dev * (F * lambda_te_avg + (1 - F) * lambda_matrix)).
    """
    lam = (
        design.fill_factor
        * (
            design.p_material.thermal_conductivity
            + design.n_material.thermal_conductivity
        )
        / 2
        + (1 - design.fill_factor) * design.matrix_material.thermal_conductivity
    )
    # the product, not lam alone: it can underflow to 0 for a positive lam
    area_lam = design.device_area * lam
    if not area_lam > 0:
        raise DegenerateDesignError("no thermal conduction path through device")
    r_gen = design.leg_length / area_lam  # can underflow to 0 too
    if not r_gen > 0:
        raise DegenerateDesignError("r_gen must be > 0")
    return r_gen


def thermal_divider(dt_meas: float, r_gen: float, k_if: float) -> float:
    """Temperature difference across the generator, K.

    The measured difference divides between the generator body and the
    interface resistance: dt_gen = dt_meas * r_gen / (r_gen + k_if).
    """
    if not 0 <= dt_meas < inf:
        raise ParameterError("dt_meas must be finite and >= 0")
    if not r_gen > 0:
        raise DegenerateDesignError("r_gen must be > 0")
    if k_if < 0:
        raise ParameterError("k_if must be >= 0")
    # evaluate the ratio first so dt_gen can never exceed dt_meas by a
    # rounding ulp (r / (r + 0) is exactly 1.0)
    return dt_meas * (r_gen / (r_gen + k_if))


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
    per_couple = (
        (design.p_material.resistivity + design.n_material.resistivity)
        * design.leg_length
        + 4 * design.contact_resistivity
    ) / design.leg_area
    return design.couples * per_couple


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
    if not r_internal > 0:
        raise ParameterError("r_internal must be > 0")
    p = v_oc * v_oc / (4 * r_internal)
    if not p < inf:
        raise NumericalError(
            f"p_matched overflows: a term is beyond the float range (v_oc = "
            f"{v_oc:g} V, r_internal = {r_internal:g} ohm)"
        )
    return p


def efficiency_factor(power_density: float, dt_meas: float) -> float:
    """Area benchmark power_density / dt_meas^2, W m^-2 K^-2.

    Not the dimensionless thermoelectric figure of merit; this is the
    device-level quantity commonly quoted in uW cm^-2 K^-2.
    """
    if not dt_meas > 0:
        raise ParameterError("dt_meas must be > 0")
    dt_sq = dt_meas * dt_meas
    if dt_sq == 0.0:
        raise ParameterError("dt_meas too small: dt_meas^2 underflows")
    eff = power_density / dt_sq
    if not abs(eff) < inf:
        raise NumericalError(f"eff_factor = {eff:g} is beyond the float range")
    return eff


def evaluate(design: GeneratorDesign, dt_meas: float) -> OperatingPoint:
    """Full model evaluation at one measured temperature difference."""
    if not 0 <= dt_meas < inf:
        raise ParameterError("dt_meas must be finite and >= 0")
    r_gen = generator_thermal_resistance(design)
    dt_gen = thermal_divider(dt_meas, r_gen, design.interface_resistance)
    n = design.couples
    if n < 1:
        raise DegenerateDesignError(
            f"couple count N = {n:.3g} < 1; not a realizable device"
        )
    v_oc = n * (design.p_material.seebeck - design.n_material.seebeck) * dt_gen
    r_i = internal_resistance(design)
    p = matched_load_power(v_oc, r_i)
    q = dt_gen / r_gen
    density = p / design.device_area
    dt_sq = dt_meas * dt_meas
    eff = density / dt_sq if dt_sq > 0 else 0.0
    # Inputs near the float range can overflow a derived quantity (to inf,
    # or NaN downstream); `evaluate_columns` marks the same points invalid.
    for name, value in (("r_internal", r_i), ("power_density", density),
                        ("q_hot", q), ("dt_meas^2", dt_sq), ("eff_factor", eff),
                        ("power_density in uW/cm2", density / UW_CM2_TO_W_M2),
                        ("eff_factor in uW/cm2/K2", eff / UW_CM2_TO_W_M2)):
        if not value < inf:
            raise NumericalError(
                f"{name} = {value:g} at dt_meas = {dt_meas:g} K: the model "
                f"overflows the float range"
            )
    # in field order, as `evaluate_columns` returns its columns
    return OperatingPoint(dt_meas, dt_gen, v_oc, r_i, p, density, q, q, eff)


def evaluate_columns(
    design: GeneratorDesign, dt_meas: float, parameter: str, values
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """`evaluate` at each of `values` (a 1-D float array) of one parameter.

    `parameter` is `dt_meas` or a design field (`leg_length`, `fill_factor`,
    `contact_resistivity`, `interface_resistance`); every other input is the
    design's own or dt_meas, held as one float64 scalar, so a quantity that
    depends on none of the swept values is computed once. Returns
    (valid, columns): valid is a bool array of the values' shape, and
    columns holds one float64 array of that shape per `OperatingPoint`
    field, in field order; a column that came out a scalar is filled with
    `np.full` at the end. The columns take the same IEEE operations in the
    same order as `evaluate` (squares are products on both), so every value
    equals its scalar counterpart bit for bit. valid is False exactly where
    `GeneratorDesign` or `evaluate` would raise for that point; the columns
    there hold whatever the formulas give.
    """
    import numpy as np

    fixed = {
        "leg_length": design.leg_length,
        "fill_factor": design.fill_factor,
        "contact_resistivity": design.contact_resistivity,
        "interface_resistance": design.interface_resistance,
        "dt_meas": dt_meas,
    }
    if parameter not in fixed:
        raise ParameterError(f"unknown sweep parameter {parameter!r}")
    # numpy scalars, not Python floats: a division by zero among them gives
    # inf or nan under the errstate below, as an array's would, not an error
    L, F, rho_c, k_if, dt = (
        values if name == parameter else np.float64(x)
        for name, x in fixed.items()
    )
    p_mat, n_mat = design.p_material, design.n_material
    # invalid points may divide by zero; valid says which points those are
    with np.errstate(all="ignore"):
        lam = (
            F * (p_mat.thermal_conductivity + n_mat.thermal_conductivity) / 2
            + (1 - F) * design.matrix_material.thermal_conductivity
        )
        area_lam = design.device_area * lam
        r_gen = L / area_lam
        dt_gen = dt * (r_gen / (r_gen + k_if))
        n = F * design.device_area / (2 * design.leg_area)
        v_oc = n * (p_mat.seebeck - n_mat.seebeck) * dt_gen
        r_i = n * (
            ((p_mat.resistivity + n_mat.resistivity) * L + 4 * rho_c)
            / design.leg_area
        )
        p = v_oc * v_oc / (4 * r_i)
        q = dt_gen / r_gen
        density = p / design.device_area
        dt_sq = dt * dt
        eff = np.divide(density, dt_sq, out=np.zeros_like(density),
                        where=dt_sq > 0)
        # both must stay finite in uW/cm2 too, as `evaluate` checks
        in_uw = (density / UW_CM2_TO_W_M2 < inf) & (eff / UW_CM2_TO_W_M2 < inf)
    valid = (
        (0 < L) & (L < inf) & (0 < F) & (F <= 1)
        & (0 <= rho_c) & (rho_c < inf) & (0 <= k_if) & (k_if < inf)
        & (0 <= dt) & (dt < inf)
        & (area_lam > 0) & (r_gen > 0) & np.logical_not(n < 1) & (r_i > 0)
        & (r_i < inf) & (density < inf) & (q < inf) & (dt_sq < inf)
        & (eff < inf) & in_uw
    )
    dt, dt_gen, v_oc, r_i, q = (
        np.full(values.shape, x) if np.ndim(x) == 0 else x
        for x in (dt, dt_gen, v_oc, r_i, q)
    )
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
    n = design.couples
    if n < 1:
        raise CalibrationError(
            f"couple count N = {n:.3g} < 1; geometry cannot be calibrated"
        )
    r_gen = generator_thermal_resistance(design)
    dt_gen = thermal_divider(dt_meas, r_gen, design.interface_resistance)
    r_i = internal_resistance(design)
    if not n * dt_gen > 0:
        raise NumericalError(f"calibration: N dt_gen underflows to 0 (dt_gen = {dt_gen:g} "
                             "K); the couple coefficient is beyond the float range")
    couple = sqrt(4 * r_i * design.device_area * target_density) / (n * dt_gen)
    if not couple < inf:
        raise NumericalError(f"calibration: couple coefficient = {couple:g} V/K is "
                             "beyond the float range")
    return couple
