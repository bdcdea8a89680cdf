import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tegkit import constants
from tegkit.device import (
    GeneratorDesign,
    calibrate_r_gen,
    calibrate_seebeck,
    efficiency_factor,
    evaluate,
    evaluate_columns,
    generator_thermal_resistance,
    internal_resistance,
    load_power,
    matched_load_power,
    thermal_divider,
)
from tegkit.errors import (
    CalibrationError,
    DegenerateDesignError,
    InvariantError,
    NumericalError,
    ParameterError,
)
from tegkit.materials import MaterialProps, lookup_material
from tegkit.optimize import sweep
from tegkit.presets import with_couple_seebeck

SU8 = lookup_material("su8")


def make_design(
    leg_length=200e-6,
    leg_area=1e-8,
    fill_factor=0.2,
    device_area=1e-4,
    seebeck_leg=1e-4,
    rho=2e-5,
    lam=1.5,
    rho_c=0.0,
    k_if=3.9,
):
    return GeneratorDesign(
        leg_length=leg_length,
        leg_area=leg_area,
        fill_factor=fill_factor,
        device_area=device_area,
        p_material=MaterialProps("p", +seebeck_leg, rho, lam, "p"),
        n_material=MaterialProps("n", -seebeck_leg, rho, lam, "n"),
        matrix_material=SU8,
        contact_resistivity=rho_c,
        interface_resistance=k_if,
    )


def design_strategy(draw):
    leg_area = draw(st.floats(1e-10, 1e-7))
    device_area = draw(st.floats(1e-5, 1e-2))
    fill = draw(st.floats(0.02, 1.0))
    assume(fill * device_area / (2 * leg_area) >= 1)
    return make_design(
        leg_length=draw(st.floats(1e-6, 2e-3)),
        leg_area=leg_area,
        fill_factor=fill,
        device_area=device_area,
        seebeck_leg=draw(st.floats(1e-6, 5e-4)),
        rho=draw(st.floats(1e-8, 1e-4)),
        lam=draw(st.floats(0.1, 400.0)),
        rho_c=draw(st.floats(0.0, 1e-9)),
        k_if=draw(st.floats(0.0, 100.0)),
    )


designs = st.composite(design_strategy)()


class TestDesignInvariants:
    def test_rejects_nonpositive_geometry(self):
        with pytest.raises(InvariantError):
            make_design(leg_length=0.0)
        with pytest.raises(InvariantError):
            make_design(leg_area=-1e-8)
        with pytest.raises(InvariantError):
            make_design(fill_factor=0.0)
        with pytest.raises(InvariantError):
            make_design(fill_factor=1.2)
        with pytest.raises(InvariantError):
            make_design(rho_c=-1e-10)
        with pytest.raises(InvariantError):
            make_design(k_if=-1.0)

    @pytest.mark.parametrize("field", [
        "leg_length", "leg_area", "device_area", "rho_c", "k_if"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_fields(self, field, value):
        name = {"rho_c": "contact_resistivity", "k_if": "interface_resistance"}.get(
            field, field)
        with pytest.raises(InvariantError, match=f"^{name} must be finite and >=? 0$"):
            make_design(**{field: value})

    def test_matrix_must_be_insulating(self):
        with pytest.raises(InvariantError):
            dataclasses.replace(
                make_design(), matrix_material=lookup_material("copper")
            )

    def test_legs_must_be_thermoelectrically_active(self):
        with pytest.raises(InvariantError):
            dataclasses.replace(make_design(), p_material=SU8)

    def test_couple_count(self):
        # N = F A_dev / (2 A_leg) = 0.2 * 1e-4 / 2e-8
        assert make_design().couples == pytest.approx(1000.0, rel=1e-15)


class TestThermalResistance:
    def test_full_fill_reference_value(self):
        # Hand oracle: R = L / (lambda A) = 1e-4 / (1.5 * 1e-4) = 2/3 K/W.
        design = make_design(leg_length=100e-6, fill_factor=1.0, lam=1.5)
        assert generator_thermal_resistance(design) == pytest.approx(
            2.0 / 3.0, rel=1e-12
        )

    def test_linear_in_leg_length(self):
        design = make_design()
        doubled = dataclasses.replace(design, leg_length=2 * design.leg_length)
        assert generator_thermal_resistance(doubled) == pytest.approx(
            2 * generator_thermal_resistance(design), rel=1e-15
        )

    def test_vanishing_fill_leaves_the_matrix_path(self):
        design = make_design(fill_factor=1e-9)
        expected = design.leg_length / (
            design.device_area * SU8.thermal_conductivity
        )
        assert generator_thermal_resistance(design) == pytest.approx(
            expected, rel=1e-6
        )

    def test_underflowing_conductance_is_degenerate(self):
        # device_area * lambda_eff = 1e-300 * 1e-30 underflows to 0
        design = dataclasses.replace(
            make_design(lam=1e-30, device_area=1e-300, leg_area=1e-302),
            matrix_material=MaterialProps("m", 0.0, 1e10, 1e-30, "insulator"))
        with pytest.raises(DegenerateDesignError, match="conduction"):
            evaluate(design, 40.0)
        valid, _ = evaluate_columns(design, 40.0, "leg_length",
                                    np.array([design.leg_length]))
        assert valid.tolist() == [False]


class TestDomainGuards:
    # (function, arguments, the error's exact class, its message)
    GUARDS = [
        # L / (A_dev lambda) = 1e-320 / 3e9 underflows to 0
        (generator_thermal_resistance,
         (make_design(leg_length=1e-320, device_area=1e10),),
         DegenerateDesignError, "r_gen must be > 0"),
        (thermal_divider, (40.0, 4.5, -1.0), ParameterError, "k_if must be >= 0"),
        (calibrate_r_gen, (40.0, 21.4, 0.0), ParameterError, "k_if must be > 0"),
        (calibrate_r_gen, (40.0, 0.0, 3.9), ParameterError, "dt_gen must be > 0"),
        (load_power, (1.0, 0.0, 1.0), ParameterError, "r_internal must be > 0"),
        (load_power, (1.0, 1.0, -1.0), ParameterError, "r_load must be >= 0"),
        (matched_load_power, (1.0, 0.0), ParameterError, "r_internal must be > 0"),
        # dt_meas^2 = 1e-340 underflows to 0
        (efficiency_factor, (1.0, 1e-170), ParameterError,
         "dt_meas too small: dt_meas^2 underflows"),
    ]

    @pytest.mark.parametrize("function, args, error, message", GUARDS, ids=[
        "r_gen-underflow", "divider-k_if", "calibrate-k_if", "calibrate-dt_gen",
        "load-r_internal", "load-r_load", "matched-r_internal", "eff-dt_sq-underflow"])
    def test_refuses_with_a_named_error(self, function, args, error, message):
        with pytest.raises(error) as err:
            function(*args)
        assert (type(err.value), str(err.value)) == (error, message)


def insulated(design, lam):
    """design in a matrix of thermal conductivity lam."""
    return dataclasses.replace(
        design, matrix_material=MaterialProps("m", 0.0, 1e10, lam, "insulator"))


class TestGuardOrder:
    """A point that fails several guards is refused by the first of them.

    One case per guard, in the order `evaluate` checks them; in each, the
    named guard is the first to fail, and the comment names the later ones
    that fail too. Scalar `evaluate` (`GeneratorDesign` for the four design
    fields) and a sweep's refused point name the same error, and the
    kernel marks the point invalid without a warning.
    """

    OVERFLOW = " at dt_meas = {} K: the model overflows the float range"
    # (design, dt_meas, swept parameter, failing value, a value past it or
    # valid, error, message)
    CASES = [
        # also r_gen < 0 and r_internal < 0
        (make_design(), 40.0, "leg_length", -1e-4, 1e-4,
         InvariantError, "leg_length must be finite and > 0"),
        # also no conduction (lambda < 0) and N < 1
        (make_design(), 40.0, "fill_factor", -0.5, 0.2,
         InvariantError, "fill_factor must be in (0, 1]"),
        # also r_internal < 0
        (make_design(), 40.0, "contact_resistivity", -1.0, 0.0,
         InvariantError, "contact_resistivity must be finite and >= 0"),
        # also v_oc^2 and dt_meas^2 overflow
        (make_design(), 1e300, "interface_resistance", -4.0, 5.0,
         InvariantError, "interface_resistance must be finite and >= 0"),
        # also no conduction: A_dev lambda = 1e-300 * 1e-30 underflows to 0
        (insulated(make_design(lam=1e-30, device_area=1e-300, leg_area=1e-302),
                   1e-30), 40.0, "dt_meas", -1.0, 40.0,
         ParameterError, "dt_meas must be finite and >= 0"),
        # also N = 0.01 < 1
        (insulated(make_design(lam=1e-30, device_area=1e-300, leg_area=1e-299),
                   1e-30), 40.0, "leg_length", 1e-4, 2e-4,
         DegenerateDesignError, "no thermal conduction path through device"),
        # L / (A_dev lambda) underflows to 0; so does r_internal
        (make_design(leg_length=1e-320, device_area=1e10), 40.0, "leg_length",
         1e-320, 1e-4, DegenerateDesignError, "r_gen must be > 0"),
        # also v_oc^2 and dt_meas^2 overflow
        (make_design(fill_factor=1e-7), 1e300, "fill_factor", 1e-7, 0.2,
         DegenerateDesignError,
         "couple count N = 0.0005 < 1; not a realizable device"),
        # (rho_p + rho_n) L underflows to 0; also dt_meas^2 overflows
        (make_design(rho=1e-200, leg_length=1e-130), 1e200, "contact_resistivity",
         0.0, 1e-9, ParameterError, "r_internal must be > 0"),
        # also dt_meas^2 and the density overflow
        (make_design(), 40.0, "dt_meas", 1e300, 1.0, NumericalError,
         "p_matched overflows: a term is beyond the float range "
         "(v_oc = 1.0543e+299 V, r_internal = 800 ohm)"),
        # also q_hot and dt_meas^2 overflow
        (make_design(leg_length=1e-6, device_area=1e4, seebeck_leg=1e-200,
                     k_if=0.0), 1e300, "contact_resistivity", 1e300, 2e300,
         NumericalError, "r_internal = inf" + OVERFLOW.format("1e+300")),
        # also dt_meas^2 overflows
        (make_design(), 40.0, "dt_meas", 1e155, 1.0, NumericalError,
         "power_density = inf" + OVERFLOW.format("1e+155")),
        # also dt_meas^2 overflows
        (make_design(leg_length=1e-6, device_area=1e4, seebeck_leg=1e-200,
                     k_if=0.0), 40.0, "dt_meas", 1e300, 1.0,
         NumericalError, "q_hot = inf" + OVERFLOW.format("1e+300")),
        # also the density overflows in uW/cm2
        (make_design(), 40.0, "dt_meas", 2e154, 1.0, NumericalError,
         "dt_meas^2 = inf" + OVERFLOW.format("2e+154")),
        # density 2.5e8 W/m2 over dt_meas^2 = 1e-300; also in uW/cm2/K2
        (make_design(leg_length=1e-313, k_if=0.0), 1e-150, "leg_length", 1e-313,
         1e-4, NumericalError, "eff_factor = inf" + OVERFLOW.format("1e-150")),
        # about 2.5e306 W/m2 and W/m2/K2: both overflow in uW/cm2
        (insulated(make_design(leg_length=1e-311, k_if=0.0, lam=1e-10), 1e-10),
         1.0, "leg_length", 1e-311, 1e-4, NumericalError,
         "power_density in uW/cm2 = inf" + OVERFLOW.format("1")),
        (make_design(leg_length=1e-311, k_if=0.0), 1e-3, "leg_length", 1e-311,
         1e-4, NumericalError,
         "eff_factor in uW/cm2/K2 = inf" + OVERFLOW.format("0.001")),
    ]

    @pytest.mark.parametrize("design, dt, parameter, value, other, error, message",
                             CASES, ids=[
        "leg_length", "fill_factor", "contact_resistivity", "interface_resistance",
        "dt_meas", "conduction", "r_gen", "couples", "r_internal-zero", "p_matched",
        "r_internal-inf", "power_density", "q_hot", "dt_meas-squared", "eff_factor",
        "power_density-uw", "eff_factor-uw"])
    def test_the_first_failing_guard_names_the_error(
        self, design, dt, parameter, value, other, error, message
    ):
        with pytest.raises(error) as err:
            if parameter == "dt_meas":
                evaluate(design, value)
            else:
                evaluate(dataclasses.replace(design, **{parameter: value}), dt)
        assert (type(err.value), str(err.value)) == (error, message)
        with pytest.raises(error) as err:
            sweep(design, dt, parameter, *sorted((value, other)), 2)
        assert (type(err.value), str(err.value)) == (
            error, f"{parameter} = {value:g}: {message}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no OverflowError, no RuntimeWarning
            valid, _ = evaluate_columns(design, dt, parameter, np.array([value]))
        assert valid.tolist() == [False]


class TestThermalDivider:
    def test_reference_fixed_point(self):
        r_gen = calibrate_r_gen(40.0, 21.4, 3.9)
        assert r_gen == pytest.approx(83.46 / 18.6, rel=1e-12)
        assert thermal_divider(40.0, r_gen, 3.9) == pytest.approx(21.4, abs=1e-12)

    def test_perfect_interface_passes_everything(self):
        assert thermal_divider(40.0, 4.5, 0.0) == 40.0

    def test_equal_resistances_split_in_half(self):
        assert thermal_divider(40.0, 3.9, 3.9) == pytest.approx(20.0, rel=1e-15)

    def test_degenerate_generator_rejected(self):
        with pytest.raises(DegenerateDesignError):
            thermal_divider(40.0, 0.0, 3.9)

    def test_half_split_calibration(self):
        assert calibrate_r_gen(40.0, 20.0, 3.9) == pytest.approx(3.9, rel=1e-15)

    def test_infeasible_calibration_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_r_gen(40.0, 40.0, 3.9)
        with pytest.raises(CalibrationError):
            calibrate_r_gen(40.0, 41.0, 3.9)

    def test_overflowing_calibration_is_a_numerical_error(self):
        # k_if * dt_gen overflows to inf
        with pytest.raises(NumericalError, match="r_gen"):
            calibrate_r_gen(40.0, 21.4, 1e308)

    @settings(max_examples=200)
    @given(
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 0.999),
        st.floats(1e-3, 1e3),
    )
    def test_divider_and_calibration_are_inverse(self, dt_meas, frac, k_if):
        dt_gen = dt_meas * frac
        r_gen = calibrate_r_gen(dt_meas, dt_gen, k_if)
        assert thermal_divider(dt_meas, r_gen, k_if) == pytest.approx(
            dt_gen, rel=1e-12
        )

    @settings(max_examples=200)
    @given(
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
    )
    def test_divider_bounds_and_monotonicity(self, dt_meas, r_gen, k_if):
        dt_gen = thermal_divider(dt_meas, r_gen, k_if)
        assert 0 < dt_gen < dt_meas
        # strictly increasing in r_gen, strictly decreasing in k_if
        assert thermal_divider(dt_meas, r_gen * 1.01, k_if) > dt_gen
        assert thermal_divider(dt_meas, r_gen, k_if * 1.01) < dt_gen


class TestHeatFlow:
    def test_reference_value(self):
        # A full-fill design whose body resistance L / (lambda A_dev) splits
        # 40 K into 21.4 K across the generator against 3.9 K/W;
        # q = 21.4 / (3.9 * 21.4 / 18.6) simplifies to 18.6 / 3.9 W.
        r_gen = calibrate_r_gen(40.0, 21.4, 3.9)
        design = make_design(leg_length=r_gen * 1.5 * 1e-4, fill_factor=1.0,
                             lam=1.5, k_if=3.9)
        assert generator_thermal_resistance(design) == pytest.approx(
            r_gen, rel=1e-15)
        op = evaluate(design, 40.0)
        assert op.dt_gen == pytest.approx(21.4, rel=1e-12)
        assert op.q_hot == op.q_cold == pytest.approx(18.6 / 3.9, rel=1e-12)

    def test_linearity(self):
        design = make_design()
        assert evaluate(design, 42.8).q_hot == pytest.approx(
            2 * evaluate(design, 21.4).q_hot, rel=1e-15
        )


class TestVoltageAndResistance:
    def test_open_circuit_reference_value(self):
        # N = 100 couples at 200 uV/K and 21.4 K: 0.428 V. With no interface
        # resistance the whole measured difference is across the generator.
        design = make_design(fill_factor=0.02, seebeck_leg=1e-4, k_if=0.0)
        assert design.couples == pytest.approx(100.0)
        op = evaluate(design, 21.4)
        assert op.dt_gen == op.dt_meas == 21.4
        assert op.v_oc == pytest.approx(0.428, rel=1e-12)

    def test_swapping_legs_negates_the_voltage(self):
        design = make_design()
        swapped = dataclasses.replace(
            design, p_material=design.n_material, n_material=design.p_material
        )
        assert evaluate(swapped, 21.4).v_oc == pytest.approx(
            -evaluate(design, 21.4).v_oc, rel=1e-15
        )

    def test_fractional_couple_rejected(self):
        design = make_design(fill_factor=1e-7)
        with pytest.raises(DegenerateDesignError, match=(
                r"^couple count N = 0\.0005 < 1; not a realizable device$")):
            evaluate(design, 21.4)

    def test_internal_resistance_reference_value(self):
        # N = 100, rho_p = rho_n = 2e-5 ohm m, L = 200 um, A = 1e-7 m2.
        design = make_design(fill_factor=0.2, leg_area=1e-7)
        assert design.couples == pytest.approx(100.0)
        assert internal_resistance(design) == pytest.approx(8.0, rel=1e-12)

    def test_contact_free_closed_form(self):
        design = make_design()
        n = design.couples
        expected = 2 * n * 2e-5 * design.leg_length / design.leg_area
        assert internal_resistance(design) == pytest.approx(expected, rel=1e-12)

    def test_contact_dominated_limit(self):
        design = make_design(leg_length=1e-12, rho_c=1e-9)
        n = design.couples
        assert internal_resistance(design) == pytest.approx(
            4 * n * 1e-9 / design.leg_area, rel=1e-6
        )


class TestPowerTransfer:
    def test_load_power_reference_value(self):
        assert load_power(1.0, 1.0, 3.0) == pytest.approx(0.1875, rel=1e-15)

    def test_short_circuit_delivers_nothing(self):
        assert load_power(1.0, 1.0, 0.0) == 0.0

    def test_matched_case_agrees_with_the_closed_form(self):
        assert load_power(1.0, 1.0, 1.0) == pytest.approx(0.25, rel=1e-15)
        assert matched_load_power(1.0, 1.0) == pytest.approx(0.25, rel=1e-15)

    def test_matched_power_reference_value(self):
        assert matched_load_power(0.428, 8.0) == pytest.approx(
            0.428**2 / 32.0, rel=1e-15
        )

    def test_matched_power_dominates_a_load_sweep(self):
        # Brute-force oracle: 100 log-spaced loads around the internal
        # resistance never beat v^2 / (4 R).
        v, r = 0.428, 8.0
        p_max = matched_load_power(v, r)
        for r_load in np.geomspace(r * 1e-3, r * 1e3, 100):
            assert load_power(v, r, float(r_load)) <= p_max * (1 + 1e-12)

    def test_overflowing_square_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="p_matched"):
            matched_load_power(1e200, 1.0)
        with pytest.raises(NumericalError, match="load power"):
            load_power(1e200, 1.0, 1.0)
        # a finite square over a tiny resistance overflows the quotient
        with pytest.raises(NumericalError, match="p_matched"):
            matched_load_power(1e150, 1e-300)
        # (r_internal + r_load)^2 underflows to 0
        with pytest.raises(NumericalError, match="load power"):
            load_power(1e150, 1e-300, 1e-300)

    @pytest.mark.parametrize("v", [
        0.5544446274919765, 1.0740296698856315, 0.7473837106259238])
    def test_matched_power_squares_correctly_rounded(self, v):
        # values at which glibc 2.36's pow(v, 2) is an ulp off the true square
        assert matched_load_power(v, 0.25) == float(Fraction(v) ** 2)

    @settings(max_examples=200)
    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e6))
    def test_matched_dominance_property(self, v, r):
        p_max = matched_load_power(v, r)
        loads = np.geomspace(r * 1e-3, r * 1e3, 100)
        assert all(
            load_power(v, r, float(rl)) <= p_max * (1 + 1e-12) for rl in loads
        )


class TestEfficiencyFactor:
    def test_best_measurement_value(self):
        # 344.1 uW/cm2 at 44.4 K: 0.17455 uW cm^-2 K^-2 (rounds to 0.18).
        phi = efficiency_factor(3.441, 44.4)
        assert phi / 1e-2 == pytest.approx(0.174550, abs=5e-6)

    def test_reference_measurement_value(self):
        phi = efficiency_factor(2.785, 40.0)
        assert phi / 1e-2 == pytest.approx(0.174063, abs=5e-6)

    def test_zero_power(self):
        assert efficiency_factor(0.0, 40.0) == 0.0

    def test_zero_temperature_rejected(self):
        with pytest.raises(ParameterError):
            efficiency_factor(2.785, 0.0)

    def test_overflowing_quotient_is_a_numerical_error(self):
        # dt_meas^2 is a subnormal 1e-320, and 1 / 1e-320 overflows
        with pytest.raises(NumericalError, match="eff_factor"):
            efficiency_factor(1.0, 1e-160)


class TestEvaluate:
    def test_zero_temperature_gives_zero_electrical_outputs(self):
        op = evaluate(make_design(), 0.0)
        assert op.dt_gen == 0.0
        assert op.v_oc == 0.0
        assert op.p_matched == 0.0
        assert op.power_density == 0.0
        assert op.q_hot == 0.0
        assert op.eff_factor == 0.0
        assert op.r_internal > 0

    def test_negative_temperature_rejected(self):
        for dt_meas in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="dt_meas"):
                evaluate(make_design(), dt_meas)
            with pytest.raises(ParameterError, match="dt_meas"):
                thermal_divider(dt_meas, 4.487, 3.9)

    def test_efficiency_factor_is_temperature_invariant(self):
        design = make_design()
        phi_40 = evaluate(design, 40.0).eff_factor
        phi_444 = evaluate(design, 44.4).eff_factor
        assert phi_40 == pytest.approx(phi_444, rel=1e-12)

    @settings(max_examples=200)
    @given(designs, st.floats(0.1, 100.0), st.floats(0.1, 10.0))
    def test_power_is_quadratic_in_the_applied_difference(self, design, dt, k):
        p1 = evaluate(design, dt).p_matched
        p2 = evaluate(design, k * dt).p_matched
        assert p2 == pytest.approx(k * k * p1, rel=1e-10)

    # (design, dt_meas, the quantity the error names); near the float range
    # v_oc^2, dt_meas^2, the density (in W/m2 or only in uW/cm2) or the
    # heat flow overflow first
    OVERFLOWS = [
        (make_design(), 1e300, "p_matched"),
        (make_design(), 2e154, "dt_meas^2"),
        (make_design(), 1e155, "power_density"),
        (make_design(leg_length=1e-6, device_area=1e4, seebeck_leg=1e-200,
                     k_if=0.0), 1e300, "q_hot"),
        (make_design(), 1.3e154, "power_density in uW/cm2"),
    ]

    @pytest.mark.parametrize("design, dt, name", OVERFLOWS)
    def test_overflow_is_a_numerical_error_naming_the_quantity(
        self, design, dt, name
    ):
        with pytest.raises(NumericalError) as err:
            evaluate(design, dt)
        assert str(err.value).startswith(name)

    @pytest.mark.parametrize("design, dt, name", OVERFLOWS)
    def test_columns_mark_an_overflow_invalid(self, design, dt, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no OverflowError, no RuntimeWarning
            valid, _ = evaluate_columns(design, 40.0, "dt_meas",
                                        np.array([40.0, dt]))
        assert valid.tolist() == [True, False]

    def test_eff_factor_beyond_the_float_range_in_uw_cm2_is_refused(self):
        # eff_factor is about 2.5e306 W/m2/K2 at any dt_meas: finite in SI,
        # past the float range in uW/cm2/K2
        design = make_design(leg_length=1e-311, k_if=0.0)
        with pytest.raises(NumericalError,
                           match=r"^eff_factor in uW/cm2/K2 = inf at dt_meas = 0\.001 K"):
            evaluate(design, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            valid, _ = evaluate_columns(make_design(k_if=0.0), 1e-3, "leg_length",
                                        np.array([200e-6, 1e-311]))
        assert valid.tolist() == [True, False]

    def test_columns_refuse_an_unknown_parameter(self):
        with pytest.raises(ParameterError, match="leg_area"):
            evaluate_columns(make_design(), 40.0, "leg_area", np.array([1e-8]))

    @settings(max_examples=200)
    @given(designs, st.floats(0.0, 100.0))
    def test_operating_point_invariants(self, design, dt):
        op = evaluate(design, dt)
        assert 0 <= op.dt_gen <= op.dt_meas
        assert op.q_hot == op.q_cold
        assert op.p_matched >= 0
        for value in dataclasses.astuple(op):
            assert math.isfinite(value)
        assert op.r_internal > 0
        assert op.power_density >= 0
        assert op.eff_factor >= 0


class TestCalibrateSeebeck:
    def test_round_trip_reproduces_the_target(self):
        design = make_design()
        target = 2.785
        couple = calibrate_seebeck(design, 40.0, target)
        calibrated = with_couple_seebeck(design, couple)
        assert evaluate(calibrated, 40.0).power_density == pytest.approx(
            target, rel=1e-10
        )

    @settings(max_examples=200)
    @given(designs, st.floats(0.5, 80.0), st.floats(1e-3, 1e2))
    def test_round_trip_property(self, design, dt, target):
        couple = calibrate_seebeck(design, dt, target)
        calibrated = with_couple_seebeck(design, couple)
        assert evaluate(calibrated, dt).power_density == pytest.approx(
            target, rel=1e-10
        )

    def test_doubling_the_target_scales_by_sqrt_two(self):
        design = make_design()
        a1 = calibrate_seebeck(design, 40.0, 1.0)
        a2 = calibrate_seebeck(design, 40.0, 2.0)
        assert a2 == pytest.approx(a1 * math.sqrt(2), rel=1e-12)

    def test_as_deposited_and_annealed_targets_agree_without_contacts(self):
        # Annealing divides resistivity by 3.9 and multiplied the measured
        # power by 3.9, so the implied couple coefficient should match
        # between the two calibrations when contacts are absent.
        asdep = make_design(rho=constants.BI2TE3_RESISTIVITY_AS_DEP, rho_c=0.0)
        annealed = make_design(
            rho=constants.BI2TE3_RESISTIVITY_ANNEALED, rho_c=0.0
        )
        a1 = calibrate_seebeck(asdep, 40.0, constants.POWER_DENSITY_AS_DEP)
        a2 = calibrate_seebeck(annealed, 40.0, constants.POWER_DENSITY_ANNEALED)
        assert abs(a2 / a1 - 1) < 0.002

    def test_infeasible_geometry_rejected(self):
        design = make_design(fill_factor=1e-7)
        with pytest.raises(CalibrationError):
            calibrate_seebeck(design, 40.0, 2.785)

    def test_nonpositive_target_rejected(self):
        for target in (0.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="target_density"):
                calibrate_seebeck(make_design(), 40.0, target)
        for dt_meas in (0.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="dt_meas"):
                calibrate_seebeck(make_design(), dt_meas, 2.785)
