import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tegkit.device import OperatingPoint, evaluate, evaluate_columns
from tegkit.errors import (
    DegenerateDesignError,
    NumericalError,
    ParameterError,
    TegkitError,
)
from tegkit.optimize import (
    SWEEPABLE_PARAMETERS,
    compare_designs,
    optimize_leg_length,
    sweep,
)

from test_device import designs, make_design


def grid_argmax(design, dt, lo, hi, n=10_000):
    # Dense-grid oracle for the leg-length optimum, in one kernel pass;
    # TestSweepKernel pins the kernel to scalar `evaluate` bit for bit.
    grid = np.linspace(lo, hi, n)
    valid, columns = evaluate_columns(design, dt, "leg_length", grid)
    assert valid.all()
    powers = OperatingPoint(*columns).p_matched
    return float(grid[int(np.argmax(powers))]), (hi - lo) / (n - 1)


def scalar_sweep(design, dt, parameter, values):
    """Point-by-point sweep through scalar `evaluate`: the kernel's oracle.

    Returns (points, None), or (None, (class, message)) of the error that
    `sweep` must raise: the first failing point's own, led by that point.
    """
    points = []
    for v in values.tolist():  # Python floats, as the CLI passes them
        try:
            if parameter == "dt_meas":
                op = evaluate(design, v)
            else:
                op = evaluate(dataclasses.replace(design, **{parameter: v}), dt)
        except TegkitError as exc:
            return None, (type(exc), f"{parameter} = {v:g}: {exc}")
        points.append((v, op))
    return tuple(points), None


def grid(lo, hi, n, spacing):
    return np.geomspace(lo, hi, n) if spacing == "log" else np.linspace(lo, hi, n)


def bits(points):
    # float.hex tells -0.0 from 0.0, which == does not
    return [(v.hex(), *map(float.hex, dataclasses.astuple(op))) for v, op in points]


def assert_sweep_matches_the_scalar_path(design, dt, parameter, lo, hi, n, spacing):
    expected, failure = scalar_sweep(design, dt, parameter, grid(lo, hi, n, spacing))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        try:
            curve = sweep(design, dt, parameter, lo, hi, n, spacing=spacing)
        except TegkitError as err:
            assert failure is not None, f"unexpected error: {err!r}"
            assert (type(err), str(err)) == failure  # the exact class, not a subclass
            return err
    assert failure is None, f"no error, expected: {failure}"
    assert curve.parameter == parameter
    assert bits(curve.points) == bits(expected)
    return curve


@st.composite
def sweep_cases(draw):
    design = draw(designs)
    parameter = draw(st.sampled_from(SWEEPABLE_PARAMETERS))
    spacing = draw(st.sampled_from(["linear", "log"]))
    u = draw(st.floats(0.0, 1.0))
    span = draw(st.floats(1e-3, 1.0))
    if parameter == "fill_factor":
        # from the smallest fill factor with N >= 1 up to 1
        f_min = 2 * design.leg_area / design.device_area
        lo = f_min + (1 - f_min) * 0.9 * u
        hi = lo + (1 - lo) * span
    else:
        scale = {"leg_length": 1e-3, "contact_resistivity": 1e-9,
                 "interface_resistance": 50.0, "dt_meas": 100.0}[parameter]
        # linear sweeps may start at 0, except leg_length, which must be > 0
        lo = scale * u
        if spacing == "log" or parameter == "leg_length":
            lo += scale * 1e-4
        hi = lo + scale * span
    n = draw(st.integers(2, 60))
    dt = draw(st.floats(0.0, 100.0))
    return design, dt, parameter, lo, hi, n, spacing


class TestSweepKernel:
    """The array pass against scalar `evaluate`, bit for bit."""

    @settings(max_examples=150)
    @given(sweep_cases())
    def test_every_point_equals_the_scalar_model(self, case):
        assert_sweep_matches_the_scalar_path(*case)

    @pytest.mark.parametrize("parameter", SWEEPABLE_PARAMETERS)
    def test_each_parameter_on_the_presets(self, annealed, cuni, parameter):
        lo, hi = {"leg_length": (1e-5, 1e-3), "fill_factor": (0.05, 1.0),
                  "contact_resistivity": (0.0, 1e-8),
                  "interface_resistance": (0.0, 20.0),
                  "dt_meas": (0.0, 80.0)}[parameter]
        for design in (annealed, cuni):
            assert_sweep_matches_the_scalar_path(
                design, 40.0, parameter, lo, hi, 200, "linear")

    def test_dt_meas_sweep_from_zero(self, annealed):
        curve = assert_sweep_matches_the_scalar_path(
            annealed, 40.0, "dt_meas", 0.0, 50.0, 11, "linear")
        first = curve.points[0][1]
        assert first.eff_factor == 0.0 and first.p_matched == 0.0

    @pytest.mark.parametrize("parameter, lo, hi, n, spacing, index", [
        ("fill_factor", 0.5, 1.5, 11, "linear", 6),  # crosses 1 mid-grid
        ("fill_factor", 1e-7, 0.5, 4, "log", 0),  # couple count N < 1
        ("leg_length", -1e-4, 1e-3, 12, "linear", 0),
        ("contact_resistivity", -1e-9, 1e-9, 5, "linear", 0),
        ("interface_resistance", -5.0, 5.0, 5, "linear", 0),
        ("dt_meas", -10.0, 50.0, 7, "linear", 0),
        ("dt_meas", 1.0, 1e300, 3, "linear", 1),  # v_oc^2 overflows
        ("dt_meas", 1e154, 2e154, 3, "linear", 1),  # dt_meas^2 overflows
    ])
    def test_failure_matches_the_scalar_path(
        self, annealed, parameter, lo, hi, n, spacing, index
    ):
        err = assert_sweep_matches_the_scalar_path(
            annealed, 40.0, parameter, lo, hi, n, spacing)
        value = grid(lo, hi, n, spacing)[index]
        assert str(err).startswith(f"{parameter} = {value:g}: ")

    @pytest.mark.parametrize("fault", ["couples", "conduction"])
    @pytest.mark.parametrize("parameter", SWEEPABLE_PARAMETERS)
    def test_fixed_inputs_alone_make_every_point_invalid(
        self, annealed, parameter, fault
    ):
        # couples: N < 1 at fill factor 1e-7 whatever the swept value; where
        # the fill factor is swept, v_oc^2 overflows at dt_meas 1e300.
        # conduction: at device_area 5e-324, A_dev lambda underflows to 0,
        # and where no swept value enters it, L / (A_dev lambda) is a scalar
        # division by zero. valid must stay a bool array, and no error may
        # escape the kernel, when the quantity that fails is a scalar.
        lo, hi = {"leg_length": (1e-5, 1e-3), "fill_factor": (0.05, 1.0),
                  "contact_resistivity": (0.0, 1e-8),
                  "interface_resistance": (0.0, 20.0),
                  "dt_meas": (0.0, 80.0)}[parameter]
        design, dt = annealed, 40.0
        if fault == "conduction":
            design = dataclasses.replace(annealed, device_area=5e-324)
        elif parameter == "fill_factor":
            dt = 1e300
        else:
            design = dataclasses.replace(annealed, fill_factor=1e-7)
        values = grid(lo, hi, 7, "linear")
        valid, columns = evaluate_columns(design, dt, parameter, values)
        assert isinstance(valid, np.ndarray)
        assert (valid.dtype, valid.shape, valid.any()) == (np.dtype(bool), (7,), False)
        for column in columns:
            assert (type(column), column.dtype, column.shape) == (
                np.ndarray, np.dtype(np.float64), (7,))
        err = assert_sweep_matches_the_scalar_path(
            design, dt, parameter, lo, hi, 7, "linear")
        assert str(err).startswith(f"{parameter} = {values[0]:g}: ")


class TestSweep:
    def test_two_points_are_exactly_the_endpoints(self, annealed):
        curve = sweep(annealed, 40.0, "leg_length", 1e-5, 1e-3, 2)
        assert [v for v, _ in curve.points] == [1e-5, 1e-3]

    def test_values_strictly_increase(self, annealed):
        curve = sweep(annealed, 40.0, "leg_length", 1e-5, 1e-3, 40, spacing="log")
        values = [v for v, _ in curve.points]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_deterministic(self, annealed):
        a = sweep(annealed, 40.0, "leg_length", 1e-5, 1e-3, 25, spacing="log")
        b = sweep(annealed, 40.0, "leg_length", 1e-5, 1e-3, 25, spacing="log")
        assert bits(a.points) == bits(b.points)

    @pytest.mark.parametrize("parameter, lo, hi", [
        ("leg_length", 1e-5, 1e-3),
        ("dt_meas", 1.0, 80.0),  # the values are also the dt_meas column
    ])
    def test_columns_are_read_only_float64_arrays(self, annealed, parameter, lo, hi):
        curve = sweep(annealed, 40.0, parameter, lo, hi, 30)
        assert len(curve.columns) == len(dataclasses.fields(OperatingPoint))
        for array in (curve.values, *curve.columns):
            assert isinstance(array, np.ndarray)
            assert array.dtype == np.float64 and array.shape == (30,)
            with pytest.raises(ValueError):
                array[0] = 1.0
        values, ops = zip(*curve.points)
        rows = [values] + [[getattr(op, f.name) for op in ops]
                           for f in dataclasses.fields(OperatingPoint)]
        for row, array in zip(rows, (curve.values, *curve.columns)):
            assert all(type(x) is float for x in row)
            assert list(map(float.hex, row)) == list(map(float.hex, array.tolist()))

    def test_leg_length_sweep_is_unimodal(self, annealed):
        curve = sweep(annealed, 40.0, "leg_length", 1e-5, 1e-3, 50, spacing="log")
        powers = [op.power_density for _, op in curve.points]
        rises = [i for i in range(len(powers) - 1) if powers[i + 1] > powers[i]]
        falls = [i for i in range(len(powers) - 1) if powers[i + 1] < powers[i]]
        # single interior maximum: all rises happen before all falls
        assert rises and falls
        assert max(rises) < min(falls)

    def test_temperature_sweep_is_quadratic(self, annealed):
        curve = sweep(annealed, 40.0, "dt_meas", 10.0, 50.0, 9)
        base_v, base_op = curve.points[0]
        for v, op in curve.points:
            assert op.power_density == pytest.approx(
                base_op.power_density * (v / base_v) ** 2, rel=1e-10
            )

    def test_unknown_parameter_rejected(self, annealed):
        with pytest.raises(ParameterError):
            sweep(annealed, 40.0, "leg_color", 1e-5, 1e-3, 5)

    def test_unknown_spacing_rejected(self, annealed):
        with pytest.raises(ParameterError) as err:
            sweep(annealed, 40.0, "leg_length", 1e-5, 1e-3, 5, spacing="cubic")
        assert str(err.value) == "spacing must be 'linear' or 'log', got 'cubic'"

    def test_too_few_points_rejected(self, annealed):
        with pytest.raises(ParameterError):
            sweep(annealed, 40.0, "leg_length", 1e-5, 1e-3, 1)

    def test_non_finite_bounds_rejected(self, annealed):
        for lo, hi in ((1e-5, float("inf")), (float("-inf"), 1e-3),
                       (float("nan"), 1e-3)):
            with pytest.raises(ParameterError, match="bounds"):
                sweep(annealed, 40.0, "leg_length", lo, hi, 5)

    def test_non_finite_dt_meas_rejected(self, annealed):
        for dt_meas in (float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="dt_meas"):
                sweep(annealed, dt_meas, "leg_length", 1e-5, 1e-3, 5)

    def test_log_spacing_needs_a_positive_lower_bound(self, annealed):
        with pytest.raises(ParameterError):
            sweep(annealed, 40.0, "contact_resistivity", 0.0, 1e-8, 5,
                  spacing="log")

    def test_failure_carries_the_offending_value(self, annealed):
        # fill factors below ~2e-4 drop the couple count under one
        with pytest.raises(DegenerateDesignError) as err:
            sweep(annealed, 40.0, "fill_factor", 1e-7, 0.5, 4)
        assert str(err.value).startswith("fill_factor = 1e-07: couple count N = ")


class TestOptimizeLegLength:
    def test_reference_design_optimum_is_in_the_expected_window(self, annealed):
        result = optimize_leg_length(annealed, 40.0, 10e-6, 1e-3)
        assert 100e-6 <= result.best_value <= 300e-6

    def test_matches_the_dense_grid_oracle(self, annealed):
        result = optimize_leg_length(annealed, 40.0, 10e-6, 1e-3)
        oracle, spacing = grid_argmax(annealed, 40.0, 10e-6, 1e-3)
        assert abs(result.best_value - oracle) <= 0.1e-6

    def test_result_beats_the_bracket_ends(self, annealed):
        lo, hi = 10e-6, 1e-3
        result = optimize_leg_length(annealed, 40.0, lo, hi)
        for end in (lo, hi):
            end_power = evaluate(
                dataclasses.replace(annealed, leg_length=end), 40.0
            ).p_matched
            assert result.best_point.p_matched >= end_power
        assert lo <= result.best_value <= hi

    def test_monotone_decreasing_case_returns_the_lower_end(self):
        # With a perfect interface and no contacts, power falls as 1/L.
        design = make_design(k_if=0.0, rho_c=0.0)
        result = optimize_leg_length(design, 40.0, 10e-6, 1e-3)
        assert result.best_value == 10e-6

    def test_optimum_below_the_bracket_returns_exactly_lo(self, annealed):
        # the annealed optimum sits near 232 um
        result = optimize_leg_length(annealed, 40.0, 400e-6, 1e-3)
        assert result.best_value == 400e-6
        assert result.best_point == evaluate(
            dataclasses.replace(annealed, leg_length=400e-6), 40.0
        )

    def test_optimum_above_the_bracket_returns_exactly_hi(self, cuni):
        # metal legs have a negligible thermal resistance, so the optimum
        # leg is far longer than 1 mm
        result = optimize_leg_length(cuni, 40.0, 10e-6, 1e-3)
        assert result.best_value == 1e-3
        assert result.iterations == 0

    def test_contact_free_optimum_matches_the_calculus_solution(self):
        # dP/dL = 0 with rho_c = 0 reduces to R_G(L*) = K, i.e.
        # L* = K A_dev lambda for a fully filled device.
        design = make_design(fill_factor=1.0, rho_c=0.0, lam=1.5, k_if=3.9)
        result = optimize_leg_length(design, 40.0, 10e-6, 2e-3)
        l_star = 3.9 * design.device_area * 1.5
        assert result.best_value == pytest.approx(l_star, rel=1e-3)
        r_g = result.best_value / (design.device_area * 1.5)
        assert r_g == pytest.approx(design.interface_resistance, rel=1e-3)

    def test_bad_bracket_rejected(self, annealed):
        with pytest.raises(ParameterError):
            optimize_leg_length(annealed, 40.0, 1e-3, 1e-5)
        for lo, hi in ((0.0, 1e-3), (1e-5, float("inf")), (float("nan"), 1e-3)):
            with pytest.raises(ParameterError, match="bracket"):
                optimize_leg_length(annealed, 40.0, lo, hi)

    @settings(max_examples=50)
    @given(designs)
    def test_closed_form_matches_the_grid_on_random_designs(self, design):
        result = optimize_leg_length(design, 40.0, 10e-6, 1e-3)
        oracle, spacing = grid_argmax(design, 40.0, 10e-6, 1e-3, n=10_000)
        assert abs(result.best_value - oracle) <= 0.01e-6 + spacing / 2


class TestCompareDesigns:
    def test_self_comparison_is_unity(self, annealed):
        table = compare_designs({"a": annealed, "b": annealed}, 40.0)
        assert table.density_ratio("a", "b") == 1.0

    def test_annealing_gain_over_as_deposited(self, annealed, asdep):
        table = compare_designs(
            {"annealed": annealed, "as_deposited": asdep}, 40.0
        )
        ratio = table.density_ratio("annealed", "as_deposited")
        assert ratio == pytest.approx(3.89, abs=0.02)

    def test_metal_legged_design_is_far_behind(self, annealed, cuni):
        table = compare_designs({"annealed": annealed, "cu_ni": cuni}, 40.0)
        assert table.density_ratio("annealed", "cu_ni") > 60.0

    def test_ratios_are_invariant_under_geometric_area_scaling(
        self, annealed, cuni
    ):
        # Scale the device and leg areas together (fixed fill factor and
        # A_leg/A_dev) and the per-device interface as 1/area.
        def scaled(design, s):
            return dataclasses.replace(
                design,
                device_area=design.device_area * s,
                leg_area=design.leg_area * s,
                interface_resistance=design.interface_resistance / s,
            )

        base = compare_designs({"a": annealed, "b": cuni}, 40.0)
        for s in (0.25, 4.0):
            table = compare_designs(
                {"a": scaled(annealed, s), "b": scaled(cuni, s)}, 40.0
            )
            assert table.density_ratio("a", "b") == pytest.approx(
                base.density_ratio("a", "b"), rel=1e-12
            )

    def test_requires_at_least_two_designs(self, annealed):
        with pytest.raises(ParameterError):
            compare_designs({"only": annealed}, 40.0)

    def test_non_finite_dt_meas_is_not_blamed_on_a_design(self, annealed, cuni):
        for dt_meas in (float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="dt_meas"):
                compare_designs({"a": annealed, "b": cuni}, dt_meas)

    def test_unknown_design_name_is_a_key_error(self, annealed, cuni):
        table = compare_designs({"a": annealed, "b": cuni}, 40.0)
        with pytest.raises(KeyError) as err:
            table.point("c")
        assert (type(err.value), err.value.args) == (KeyError, ("c",))

    def test_ratio_over_a_zero_density_names_that_design(self, annealed, cuni):
        table = compare_designs({"a": annealed, "b": cuni}, 0.0)
        with pytest.raises(ParameterError) as err:
            table.ratios()
        assert str(err.value) == ("design 'b' has zero power density at dt_meas = 0 K; "
                                  "density ratios are undefined")

    def test_overflow_is_tagged_with_the_design_name(self, annealed, cuni):
        with pytest.raises(NumericalError) as err:
            compare_designs({"annealed": annealed, "cu_ni": cuni}, 1e300)
        assert type(err.value) is NumericalError  # exits 2, as from eval
        assert str(err.value).startswith("design 'annealed': p_matched overflows")

    def test_failures_are_tagged_with_the_design_name(self, annealed):
        broken = dataclasses.replace(annealed, fill_factor=1e-7)
        with pytest.raises(DegenerateDesignError) as err:
            compare_designs({"ok": annealed, "broken": broken}, 40.0)
        assert str(err.value).startswith("design 'broken': couple count N = ")
