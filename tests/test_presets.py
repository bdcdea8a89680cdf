"""The shipped presets are fixed points of the calibration operations."""

from dataclasses import replace

import pytest

from tegkit import constants
from tegkit.device import (
    calibrate_r_gen,
    calibrate_seebeck,
    evaluate,
    generator_thermal_resistance,
)
from tegkit.materials import lookup_material
from tegkit.optimize import compare_designs, optimize_leg_length
from tegkit.presets import annealed_design, cu_ni_design, with_couple_seebeck


def test_reference_fill_factor_reproduces_the_divider_anchor(annealed):
    assert generator_thermal_resistance(annealed) == pytest.approx(
        constants.GENERATOR_RESISTANCE_REF, rel=1e-12
    )
    assert evaluate(annealed, 40.0).dt_gen == pytest.approx(21.4, abs=1e-9)


def test_annealed_preset_reproduces_its_measured_density(annealed):
    op = evaluate(annealed, 40.0)
    assert op.power_density == pytest.approx(
        constants.POWER_DENSITY_ANNEALED, rel=1e-12
    )


def test_as_deposited_preset_reproduces_its_measured_density(asdep):
    op = evaluate(asdep, 40.0)
    assert op.power_density == pytest.approx(
        constants.POWER_DENSITY_AS_DEP, rel=1e-12
    )


def test_preset_seebeck_matches_the_calibration_operation(annealed, asdep):
    # constants.py derives the preset coefficients with its own closed form;
    # the device-level operation must agree.
    for design, target, name in (
        (annealed, constants.POWER_DENSITY_ANNEALED, "bi2te3_p_annealed"),
        (asdep, constants.POWER_DENSITY_AS_DEP, "bi2te3_p_asdep"),
    ):
        couple = calibrate_seebeck(design, constants.DT_MEAS_REF, target)
        assert couple == pytest.approx(
            2 * lookup_material(name).seebeck, rel=1e-12
        )


def test_cu_ni_reference_performance(cuni):
    # Metal legs collapse the thermal divider and the Seebeck budget; the
    # result sits below the 60x comparison bound.
    op = evaluate(cuni, 40.0)
    assert op.power_density <= (
        constants.POWER_DENSITY_ANNEALED / constants.CU_NI_POWER_RATIO_MIN
    )
    assert op.dt_gen < 1.0


def test_leg_aspect_ratio_meets_the_mold_capability(annealed):
    width = annealed.leg_area**0.5
    assert annealed.leg_length / width >= 1.5


def recalibrated(dt_gen, k_if):
    """The annealed and Cu/Ni designs calibrated again under another assumed
    dT_G or K: the fill factor that gives dT_G through the divider at the
    reference leg length, then the couple coefficient that gives the
    annealed density at 40 K."""
    r_gen = calibrate_r_gen(constants.DT_MEAS_REF, dt_gen, k_if)
    lam_matrix = constants.SU8_THERMAL_CONDUCTIVITY
    fill = (constants.LEG_LENGTH_REF / (constants.DEVICE_AREA_REF * r_gen) - lam_matrix) / (
        constants.BI2TE3_THERMAL_CONDUCTIVITY - lam_matrix)
    annealed = replace(annealed_design(), fill_factor=fill, interface_resistance=k_if)
    couple = calibrate_seebeck(annealed, constants.DT_MEAS_REF,
                               constants.POWER_DENSITY_ANNEALED)
    cu_ni = replace(cu_ni_design(), fill_factor=fill, interface_resistance=k_if)
    return with_couple_seebeck(annealed, couple), cu_ni


@pytest.mark.parametrize("dt_gen, k_if, best_um", [
    (21.4, 3.51, 232.2), (21.4, 3.9, 232.2), (21.4, 4.29, 232.2),
    (20.4, 3.9, 251.7), (22.4, 3.9, 214.3)])
def test_optimum_leg_length_moves_with_dt_gen_not_with_k(dt_gen, k_if, best_um):
    # under the calibration a = K A_dev lam_eff = L_ref (dT_meas - dT_G) / dT_G
    # holds no K, and L* is a function of a and b
    annealed, _ = recalibrated(dt_gen, k_if)
    dt_meas = constants.DT_MEAS_REF
    a = k_if * annealed.leg_length / generator_thermal_resistance(annealed)
    assert a == pytest.approx(
        constants.LEG_LENGTH_REF * (dt_meas - dt_gen) / dt_gen, rel=1e-12)
    best = optimize_leg_length(annealed, dt_meas, 1e-6, 1e-2).best_value
    assert best == pytest.approx(best_um * 1e-6, abs=0.05e-6)
    if dt_gen == constants.DT_GEN_REF:
        shipped = optimize_leg_length(annealed_design(), dt_meas, 1e-6, 1e-2)
        assert best == pytest.approx(shipped.best_value, rel=1e-12)


@pytest.mark.parametrize("dt_gen", [20.4, 20.9, 21.4, 21.9, 22.4])
def test_cu_ni_ratio_holds_its_floor_across_the_assumed_dt_gen(dt_gen):
    annealed, cu_ni = recalibrated(dt_gen, constants.K_INTERFACE_REF)
    table = compare_designs({"annealed": annealed, "cu_ni": cu_ni}, constants.DT_MEAS_REF)
    assert table.point("annealed").power_density == pytest.approx(
        constants.POWER_DENSITY_ANNEALED, rel=1e-12)
    assert table.density_ratio("annealed", "cu_ni") >= constants.CU_NI_POWER_RATIO_MIN
