import dataclasses
import math
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tegkit import constants
from tegkit.config import parse_design
from tegkit.ecd import (
    MAX_GRID,
    MAX_STEPS,
    BathSpec,
    DepositState,
    PulsePlan,
    _profile,
    diffusion_step,
    faraday_growth_rate,
    sand_time,
    simulate_diffusion,
    stoichiometry_from_bath,
    time_to_thickness,
)
from tegkit.errors import (
    DepletionError,
    ExtrapolationError,
    InvariantError,
    NumericalError,
    ParameterError,
    StabilityError,
)

BATH = BathSpec()
# Single-ion transport picture for depletion checks: HTeO2+ takes 4
# electrons, and the analytic Sand model tracks just that species.
ION_BATH = BathSpec(electrons_per_formula=constants.TE_ION_ELECTRONS)


def plan(t_pulse=0.2, t_pause=4.8, j_pulse=2325.0, total_time=25.0):
    return PulsePlan(t_pulse, t_pause, j_pulse, total_time)


class TestPulsePlan:
    def test_invariants(self):
        with pytest.raises(InvariantError):
            PulsePlan(0.0, 4.8, 2325.0, 25.0)
        with pytest.raises(InvariantError):
            PulsePlan(0.2, -1.0, 2325.0, 25.0)
        with pytest.raises(InvariantError):
            PulsePlan(0.2, 4.8, -1.0, 25.0)
        with pytest.raises(InvariantError):
            PulsePlan(0.2, 4.8, 2325.0, 0.0)

    def test_duty_examples(self):
        assert plan(0.2, 4.8).duty == pytest.approx(0.04, rel=1e-15)
        assert plan(0.2, 0.0).duty == 1.0
        assert plan(1e-3, 5.0).duty == pytest.approx(1 / 5001, rel=1e-12)

    @given(st.floats(1e-4, 10.0), st.floats(0.0, 10.0))
    def test_duty_is_a_fraction(self, t_pulse, t_pause):
        d = plan(t_pulse, t_pause).duty
        assert 0 < d <= 1

    @pytest.mark.parametrize("field", ["t_pulse", "t_pause", "j_pulse", "total_time"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_fields_rejected(self, field, value):
        fields = dict(t_pulse=0.2, t_pause=4.8, j_pulse=2325.0, total_time=25.0)
        with pytest.raises(InvariantError):
            PulsePlan(**{**fields, field: value})


class TestBathSpec:
    def test_defaults_describe_the_standard_bath(self):
        assert BATH.c_teo2 == 80.0
        assert BATH.electrons_per_formula == 18
        assert BATH.molar_mass == pytest.approx(0.80076)
        assert BATH.density == pytest.approx(7700.0)

    def test_invariants(self):
        with pytest.raises(InvariantError):
            BathSpec(c_teo2=0.0)
        with pytest.raises(InvariantError):
            BathSpec(diffusivity=-1e-9)
        with pytest.raises(InvariantError):
            BathSpec(c_teo2=math.nan)
        with pytest.raises(InvariantError):
            BathSpec(diffusivity=math.inf)


class TestFaradayGrowth:
    def test_zero_current_zero_growth(self):
        assert faraday_growth_rate(0.0, BATH) == 0.0

    def test_reference_rate(self):
        # 9.3 mA/cm2 with 18 e per formula unit, M = 800.76 g/mol and
        # rho = 7.7 g/cm3 lands within 1% of 20 um/h.
        v = faraday_growth_rate(93.0, BATH)
        assert v * 3600 / 1e-6 == pytest.approx(20.0, rel=0.01)

    def test_linearity(self):
        v = faraday_growth_rate(50.0, BATH)
        assert faraday_growth_rate(100.0, BATH) == pytest.approx(2 * v, rel=1e-15)

    @given(st.floats(0.0, 1e4), st.floats(0.1, 10.0))
    def test_linearity_property(self, j, k):
        assert faraday_growth_rate(k * j, BATH) == pytest.approx(
            k * faraday_growth_rate(j, BATH), rel=1e-12
        )

    def test_negative_current_rejected(self):
        with pytest.raises(ParameterError):
            faraday_growth_rate(-1.0, BATH)

    @pytest.mark.parametrize("bath", [
        BathSpec(molar_mass=1e197, density=1e-197),  # the quotient overflows
        BathSpec(electrons_per_formula=5e-324, density=5e-324),  # n_e F rho is 0
    ])
    def test_rate_beyond_the_float_range_is_a_numerical_error(self, bath):
        with pytest.raises(NumericalError, match="^growth rate = inf m/s is beyond"):
            faraday_growth_rate(93.0, bath)


class TestTimeToThickness:
    def test_reference_duration(self):
        # The shipped pulse plan averages 93 A/m2, so 300 um takes ~15 h.
        t = time_to_thickness(300e-6, plan(), BATH)
        assert t / 3600 == pytest.approx(15.0, rel=0.01)

    def test_zero_target(self):
        assert time_to_thickness(0.0, plan(), BATH) == 0.0

    def test_halving_the_duty_doubles_the_time(self):
        base = plan(t_pulse=0.2, t_pause=4.8)  # duty 0.04
        halved = plan(t_pulse=0.2, t_pause=9.8)  # duty 0.02
        assert time_to_thickness(300e-6, halved, BATH) == pytest.approx(
            2 * time_to_thickness(300e-6, base, BATH), rel=1e-12
        )

    def test_zero_rate_rejected(self):
        with pytest.raises(ParameterError):
            time_to_thickness(300e-6, plan(j_pulse=0.0), BATH)

    def test_negative_target_rejected(self):
        with pytest.raises(ParameterError, match="^target must be >= 0$"):
            time_to_thickness(-1e-6, plan(), BATH)

    def test_rate_beyond_the_float_range_is_not_zero_time(self):
        with pytest.raises(NumericalError, match="^growth rate = inf m/s"):
            time_to_thickness(300e-6, plan(), BathSpec(molar_mass=1e197, density=1e-197))


SAND_C = 80.0
SAND_D = 1e-9
SAND_NE = 4
SAND_J = 1000.0
SAND_CHARGE = SAND_NE * constants.FARADAY * SAND_C
SAND_TAU = math.pi * SAND_D * (SAND_CHARGE * SAND_CHARGE) / (
    4 * (SAND_J * SAND_J)
)  # = 0.74871 s


class TestSandTime:
    def test_reference_point(self):
        tau = sand_time(SAND_C, SAND_D, SAND_NE, SAND_J)
        assert tau == pytest.approx(0.7487, abs=5e-4)
        # the measurement pulses (1-200 ms) stay well below it
        assert 0.2 < tau

    def test_quartering_current_scales_sixteenfold(self):
        tau = sand_time(SAND_C, SAND_D, SAND_NE, SAND_J)
        assert sand_time(SAND_C, SAND_D, SAND_NE, SAND_J / 4) == pytest.approx(
            16 * tau, rel=1e-12
        )

    def test_doubling_concentration_quadruples(self):
        tau = sand_time(SAND_C, SAND_D, SAND_NE, SAND_J)
        assert sand_time(2 * SAND_C, SAND_D, SAND_NE, SAND_J) == pytest.approx(
            4 * tau, rel=1e-12
        )

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ParameterError):
            sand_time(0.0, SAND_D, SAND_NE, SAND_J)
        with pytest.raises(ParameterError):
            sand_time(SAND_C, SAND_D, SAND_NE, 0.0)

    def test_finite_result_is_the_formula_bit_for_bit(self):
        assert sand_time(SAND_C, SAND_D, SAND_NE, SAND_J) == SAND_TAU

    @pytest.mark.parametrize("c, d, j", [
        (SAND_C, SAND_D, 1e-199),  # j^2 underflows to 0
        (SAND_C, SAND_D, 1e-159),  # tau overflows to inf
        (SAND_C, SAND_D, 1e201),  # j^2 overflows
        (1e300, SAND_D, SAND_J),  # (n_e F c)^2 overflows
        (SAND_C, 1e-300, 1e150),  # tau underflows to 0
    ])
    def test_beyond_the_float_range_is_a_named_numerical_error(self, c, d, j):
        with pytest.raises(NumericalError, match="sand_time"):
            sand_time(c, d, SAND_NE, j)


class TestStoichiometryMap:
    def test_anchors(self):
        assert stoichiometry_from_bath(60.0).te_to_bi == pytest.approx(0.8)
        assert stoichiometry_from_bath(20.0).te_to_bi == pytest.approx(2.1)
        assert stoichiometry_from_bath(40.0).te_to_bi == pytest.approx(1.5)

    def test_equals_numpy_interp(self):
        # bit for bit on seeded points, the anchors and their neighbours
        xs = [constants.BATH_C_BI2O3_MIN, constants.BATH_C_BI2O3,
              constants.BATH_C_BI2O3_MAX]
        fs = [constants.STOICH_TE_RICH, constants.STOICH_BALANCED,
              constants.STOICH_BI_RICH]
        near = np.nextafter(np.repeat(xs, 2), [-np.inf, np.inf] * 3)
        c = np.concatenate([np.random.default_rng(7).uniform(xs[0], xs[-1], 100_000),
                            xs, near[1:-1]])
        got = [stoichiometry_from_bath(x).te_to_bi for x in c.tolist()]
        assert np.array_equal(got, np.interp(c, xs, fs))

    def test_outside_the_window_is_an_extrapolation_error(self):
        with pytest.raises(ExtrapolationError):
            stoichiometry_from_bath(19.0)
        with pytest.raises(ExtrapolationError):
            stoichiometry_from_bath(61.0)

    @settings(max_examples=200)
    @given(st.floats(20.0, 60.0), st.floats(20.0, 60.0))
    def test_monotone_decreasing(self, c1, c2):
        lo, hi = sorted((c1, c2))
        assert (
            stoichiometry_from_bath(hi).te_to_bi
            <= stoichiometry_from_bath(lo).te_to_bi
        )

    def test_recipes_produce_the_advertised_carrier_types(self):
        # Te-rich recipes (low Bi2O3) give n legs, Bi-rich give p legs: the
        # ratio clears a 0.05 band around stoichiometric Bi2Te3 on either
        # side of the 40 mol/m3 boundary.
        balanced = constants.STOICH_BALANCED
        for c in np.linspace(20.0, 38.0, 10):
            assert stoichiometry_from_bath(c).te_to_bi > balanced + 0.05
        for c in np.linspace(42.0, 60.0, 10):
            assert stoichiometry_from_bath(c).te_to_bi < balanced - 0.05


class TestDiffusionSimulation:
    def test_argument_validation(self):
        with pytest.raises(ParameterError):
            simulate_diffusion(0.0, BATH, plan(), 64, 1e-4)
        with pytest.raises(ParameterError):
            simulate_diffusion(300e-6, BATH, plan(), 8, 1e-4)
        with pytest.raises(ParameterError):
            simulate_diffusion(300e-6, BATH, plan(), 64, 0.0)
        with pytest.raises(ParameterError, match=f"grid must be <= {MAX_GRID}"):
            simulate_diffusion(300e-6, BATH, plan(), MAX_GRID + 1, 1e-4)
        with pytest.raises(ParameterError, match="^record_every must be >= 1$"):
            simulate_diffusion(300e-6, BATH, plan(), 64, 1e-4, record_every=0)

    def test_stability_gate(self):
        # grid 301 over 300 um: dx = 1 um, bound = 0.5 dx^2 / D = 5e-4 s
        with pytest.raises(StabilityError):
            simulate_diffusion(300e-6, BATH, plan(), 301, 1e-3)

    def test_thickness_beyond_the_float_range_is_a_numerical_error(self):
        # 1.3e305 m per pulse step is finite; 2000 pulse steps are not
        heavy = BathSpec(molar_mass=1e157, density=1e-154)
        with pytest.raises(NumericalError,
                           match=r"^thickness = inf m is beyond the float range \(2000 pulse"):
            simulate_diffusion(300e-6, heavy, plan(total_time=50.0), 151, 1e-3)

    def test_zero_current_profile_is_bit_exact(self):
        quiet = plan(j_pulse=0.0, total_time=0.5)
        state = simulate_diffusion(300e-6, BATH, quiet, 64, 1e-3)
        assert np.all(state.profile == BATH.c_teo2)
        assert np.all(state.surface_conc_series == BATH.c_teo2)
        assert state.thickness == 0.0
        assert state.min_surface_conc == BATH.c_teo2

    def test_constant_current_depletion_matches_the_analytic_time(self):
        # Sand's solution is the oracle: tau = pi D (n F c)^2 / (4 j^2).
        constant = PulsePlan(
            t_pulse=10.0, t_pause=0.0, j_pulse=SAND_J, total_time=2.0
        )
        with pytest.raises(DepletionError) as err:
            simulate_diffusion(300e-6, ION_BATH, constant, 601, 1e-4)
        assert err.value.time_s == pytest.approx(SAND_TAU, rel=0.05)

    def test_depletion_traceback_holds_no_power_table(self):
        # The 257 x (grid - 1) power table must not outlive the solver: a
        # kept DepletionError would otherwise hold it through its frames.
        constant = PulsePlan(
            t_pulse=10.0, t_pause=0.0, j_pulse=SAND_J, total_time=2.0
        )
        grid = 601
        with pytest.raises(DepletionError) as err:
            simulate_diffusion(300e-6, ION_BATH, constant, grid, 1e-4)
        frames = [frame for frame, _ in traceback.walk_tb(err.value.__traceback__)]
        assert any(f.f_code.co_name == "simulate_diffusion" for f in frames)
        sizes = [value.size for frame in frames for value in frame.f_locals.values()
                 if isinstance(value, np.ndarray)]
        assert sizes and max(sizes) <= 4 * grid

    def test_depletion_estimate_is_grid_converged(self):
        constant = PulsePlan(
            t_pulse=10.0, t_pause=0.0, j_pulse=SAND_J, total_time=2.0
        )
        times = []
        for grid, dt in ((301, 1e-4), (601, 2.5e-5)):
            with pytest.raises(DepletionError) as err:
                simulate_diffusion(300e-6, ION_BATH, constant, grid, dt)
            times.append(err.value.time_s)
        assert abs(times[0] - times[1]) / times[1] < 0.02

    def test_pulse_train_recovers_during_every_pause(self):
        # Ten cycles at the growth-consistent average current: the surface
        # dips during each pulse and relaxes toward the bulk in each pause.
        cycles = PulsePlan(
            t_pulse=0.05, t_pause=4.5, j_pulse=93.0 * 4.55 / 0.05,
            total_time=45.5,
        )
        state = simulate_diffusion(300e-6, BATH, cycles, 151, 1e-3)
        assert state.min_surface_conc > 0
        period = cycles.period
        for t, c_now, c_next in zip(
            state.times, state.surface_conc_series, state.surface_conc_series[1:]
        ):
            phase = t % period
            if cycles.t_pulse + 1e-9 < phase < period - 1e-9:
                assert c_next >= c_now - 1e-9 * BATH.c_teo2

    def test_profile_stays_within_physical_bounds(self):
        state = simulate_diffusion(300e-6, BATH, plan(total_time=10.0), 151, 1e-3)
        assert np.all(state.profile >= 0)
        assert np.all(state.profile <= BATH.c_teo2 * (1 + 1e-12))
        assert np.all(np.diff(state.thickness_series) >= 0)

    def test_profile_matches_the_dense_cosine_sum(self):
        # The FFT profile against the n x n cosine basis (angles reduced
        # exactly in integers) at grid 2001, every mode excited.
        n = 2000
        a = np.random.default_rng(7).uniform(-1.0, 1.0, n) * BATH.c_teo2
        i = np.arange(n)
        angles = (np.outer(i, 2 * i + 1) % (4 * n)) * (math.pi / (2 * n))
        expected = BATH.c_teo2 + np.cos(angles) @ a
        profile = _profile(a, BATH.c_teo2)
        assert profile.shape == (n + 1,) and profile[-1] == BATH.c_teo2
        np.testing.assert_allclose(profile[:n], expected, rtol=0,
                                   atol=1e-11 * BATH.c_teo2)

    def test_deposited_thickness_follows_faraday(self):
        ten_cycles = plan(total_time=50.0)
        state = simulate_diffusion(300e-6, BATH, ten_cycles, 151, 1e-3)
        # 10 full cycles of 0.2 s pulses at j_pulse
        expected = faraday_growth_rate(ten_cycles.j_pulse, BATH) * 2.0
        assert state.thickness == pytest.approx(expected, rel=0.01)

    def test_record_every_thins_the_series_but_keeps_the_end(self):
        state = simulate_diffusion(300e-6, BATH, plan(total_time=1.0), 64, 1e-3,
                                   record_every=100)
        assert state.times[0] == 0.0
        assert state.times[-1] == pytest.approx(1.0, rel=1e-9)
        assert len(state.times) < 30

    def test_composition_comes_from_the_bath_map(self):
        state = simulate_diffusion(300e-6, BATH, plan(total_time=0.5), 64, 1e-3)
        assert state.composition is not None
        assert state.composition.te_to_bi == pytest.approx(1.5)
        rich = BathSpec(c_bi2o3=100.0)
        state = simulate_diffusion(300e-6, rich, plan(total_time=0.5), 64, 1e-3)
        assert state.composition is None
        # the solver's window is the map's, inclusive at both ends
        for c_bi2o3, te_to_bi in ((20.0, 2.1), (60.0, 0.8), (19.9, None),
                                  (60.1, None)):
            state = simulate_diffusion(300e-6, BathSpec(c_bi2o3=c_bi2o3),
                                       plan(total_time=0.5), 64, 1e-3)
            if te_to_bi is None:
                assert state.composition is None
            else:
                assert state.composition.te_to_bi == pytest.approx(te_to_bi)


class TestDiffusionStepCore:
    @settings(max_examples=200)
    @given(
        st.integers(16, 48),
        st.floats(0.05, 0.5),
        st.lists(st.floats(0.0, 100.0), min_size=16, max_size=48),
    )
    def test_closed_cell_conserves_mass(self, grid, r, values):
        # Zero-flux walls on both sides: the trapezoid-weighted ion content
        # is conserved exactly by the ghost-node scheme.
        profile = np.resize(np.asarray(values), grid)
        dx = 1e-6
        dt = 1.0  # only the product r = D dt / dx^2 matters here

        def mass(p):
            # trapezoid weights: the quantity the ghost-node scheme conserves
            return dx * (p[0] / 2 + p[1:-1].sum() + p[-1] / 2)
        m0 = mass(profile)
        p = profile
        for _ in range(50):
            p = diffusion_step(p, r, dx, dt, 0.0, None)
        scale = max(abs(m0), 1e-30)
        assert abs(mass(p) - m0) / scale < 1e-12

    @settings(max_examples=200)
    @given(
        st.integers(16, 64),
        st.floats(1.0, 500.0),
        st.floats(0.01, 0.5),
        st.integers(1, 30),
    )
    def test_zero_source_reservoir_cell_is_bit_exact(self, grid, c0, r, steps):
        p = np.full(grid, c0)
        for _ in range(steps):
            p = diffusion_step(p, r, 1e-6, 1.0, 0.0, c0)
        assert np.all(p == c0)


SHIPPED_ECD = Path(__file__).resolve().parent.parent / "configs" / "ecd_pulse_train.json"


def step_growth(plan_, bath, dt):
    """Deposit thickness one pulse-on step adds."""
    return faraday_growth_rate(plan_.j_pulse, bath) * dt


class TestIntegerSchedule:
    def test_shipped_plan_gets_exactly_1000_pulse_steps(self):
        cfg = parse_design(SHIPPED_ECD)
        sim = cfg.sim
        state = simulate_diffusion(sim.mold_depth, cfg.bath, cfg.pulse, sim.grid,
                                   sim.dt, sim.record_every)
        # 5 periods of 5000 steps, each with 200 pulse steps
        expected = 1000 * step_growth(cfg.pulse, cfg.bath, sim.dt)
        assert state.thickness == pytest.approx(expected, rel=1e-12)

    def test_three_tenths_pulse_gets_exactly_300_steps(self):
        # 0.3 s on / 0.7 s off at dt = 0.1 s for 100 s: 100 periods of
        # 3 pulse steps. A float-modulo phase test miscounts this plan.
        p = PulsePlan(t_pulse=0.3, t_pause=0.7, j_pulse=310.0, total_time=100.0)
        state = simulate_diffusion(300e-6, BATH, p, 16, 0.1)
        expected = 300 * step_growth(p, BATH, 0.1)
        assert state.thickness == pytest.approx(expected, rel=1e-12)
        assert state.growth_rate == pytest.approx(expected / 100.0, rel=1e-12)

    @pytest.mark.parametrize("field, value", [
        ("t_pulse", 0.25), ("t_pause", 0.75), ("total_time", 100.05)])
    def test_time_off_the_step_grid_is_rejected(self, field, value):
        fields = dict(t_pulse=0.3, t_pause=0.7, j_pulse=310.0, total_time=100.0)
        p = PulsePlan(**{**fields, field: value})
        with pytest.raises(ParameterError) as err:
            simulate_diffusion(300e-6, BATH, p, 16, 0.1)
        assert field in str(err.value)

    def test_pause_past_the_float_range_is_cut_to_the_run(self):
        # 1e300 / 1e-10 overflows to inf; 10**4 steps of 1e-10 s, 100 on
        fields = dict(t_pulse=1e-8, j_pulse=2325.0, total_time=1e-6)
        states = [
            simulate_diffusion(300e-6, BATH, PulsePlan(t_pause=t_pause, **fields),
                               151, 1e-10)
            for t_pause in (1e300, 1e-6)
        ]
        for field in dataclasses.fields(DepositState):
            long, cut = (getattr(state, field.name) for state in states)
            if isinstance(long, np.ndarray):
                assert long.tobytes() == cut.tobytes(), field.name
            else:
                assert long == cut, field.name
        assert states[0].times.size == 10**4 + 1

    def test_shorter_than_one_step_is_rejected(self):
        with pytest.raises(ParameterError):
            simulate_diffusion(300e-6, BATH, plan(t_pulse=0.04), 16, 0.1)


def step_loop(depth, bath, plan_, grid, dt, record_every=1):
    """Reference: the FTCS step loop on the integer pulse schedule.

    Returns (times, thickness series, surface series, profile, min surface)
    or, on depletion, the 1-based step at which the surface went negative.
    """
    n_on = round(plan_.t_pulse / dt)
    n_period = n_on + round(plan_.t_pause / dt)
    n_steps = round(plan_.total_time / dt)
    dx = depth / (grid - 1)
    r = bath.diffusivity * dt / (dx * dx)
    consumption = plan_.j_pulse / (bath.electrons_per_formula * constants.FARADAY)
    per_step = step_growth(plan_, bath, dt)
    profile = np.full(grid, bath.c_teo2)
    on_steps, min_surface = 0, bath.c_teo2
    times, thickness, surface = [0.0], [0.0], [bath.c_teo2]
    for k in range(1, n_steps + 1):
        on = (k - 1) % n_period < n_on
        profile = diffusion_step(profile, r, dx, dt, consumption if on else 0.0,
                                 bath.c_teo2)
        if profile[0] < 0:
            return k
        on_steps += on
        min_surface = min(min_surface, profile[0])
        if k % record_every == 0 or k == n_steps:
            times.append(k * dt)
            thickness.append(on_steps * per_step)
            surface.append(profile[0])
    return times, thickness, surface, profile, min_surface


def r_half_dt(depth, grid, diffusivity):
    """The largest stable step: D dt / dx^2 = 0.5, where modes near -1 live."""
    dx = depth / (grid - 1)
    return 0.5 * dx * dx / diffusivity


_R_HALF = r_half_dt(300e-6, 31, BATH.diffusivity)
# (grid, dt, n_on, n_off, n_steps, j_pulse A/m2, record_every)
EQUIVALENCE_CASES = {
    "cfl_limit_r_half": (31, _R_HALF, 3, 7, 2000, 800.0, 1),
    "one_pulse_step": (41, 2e-3, 1, 9, 2500, 8000.0, 7),
    "no_pause": (41, 2e-3, 50, 0, 1500, 150.0, 1),
    "run_ends_mid_period": (61, 1e-3, 40, 160, 2130, 1500.0, 1),
    "record_every_not_dividing_period": (61, 1e-3, 30, 97, 2000, 1500.0, 13),
    "grid_16": (16, 0.1, 3, 7, 1000, 310.0, 1),
    "long_sparse_record": (151, 1e-3, 200, 1300, 3000, 900.0, 250),
    "pulse_across_blocks": (61, 1e-3, 600, 400, 2600, 1500.0, 7),
    "run_within_first_period": (61, 1e-3, 300, 2000, 1100, 1500.0, 9),
}


def equivalence_plan(n_on, n_off, n_steps, j_pulse, dt):
    return PulsePlan(t_pulse=n_on * dt, t_pause=n_off * dt, j_pulse=j_pulse,
                     total_time=n_steps * dt)


class TestStepLoopEquivalence:
    """The modal propagator against the FTCS step loop it replaces."""

    TOL = 1e-10 * BATH.c_teo2

    def assert_equivalent(self, grid, dt, p, record_every):
        state = simulate_diffusion(300e-6, BATH, p, grid, dt, record_every)
        times, thickness, surface, profile, min_surface = step_loop(
            300e-6, BATH, p, grid, dt, record_every)
        assert state.times.tolist() == times
        np.testing.assert_allclose(state.thickness_series, thickness, rtol=1e-12, atol=0)
        np.testing.assert_allclose(state.surface_conc_series, surface, rtol=0, atol=self.TOL)
        np.testing.assert_allclose(state.profile, profile, rtol=0, atol=self.TOL)
        assert state.profile[-1] == BATH.c_teo2
        assert abs(state.min_surface_conc - min_surface) <= self.TOL
        assert state.thickness == state.thickness_series[-1]

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_matches_the_step_loop(self, case):
        grid, dt, n_on, n_off, n_steps, j, record_every = EQUIVALENCE_CASES[case]
        p = equivalence_plan(n_on, n_off, n_steps, j, dt)
        self.assert_equivalent(grid, dt, p, record_every)

    @settings(max_examples=25)
    @given(st.integers(16, 40), st.floats(0.05, 1.0), st.integers(1, 60),
           st.integers(0, 120), st.integers(1, 700), st.integers(1, 50),
           st.floats(0.0, 1.0))
    def test_matches_the_step_loop_on_random_schedules(
            self, grid, r_fraction, n_on, n_off, n_steps, record_every, load):
        dt = r_fraction * r_half_dt(300e-6, grid, BATH.diffusivity)
        # up to a few times the Sand current of one pulse, so some deplete
        sand_j = BATH.electrons_per_formula * constants.FARADAY * BATH.c_teo2 \
            * math.sqrt(math.pi * BATH.diffusivity / (n_on * dt)) / 2
        p = equivalence_plan(n_on, n_off, n_steps, 3 * load * sand_j, dt)
        ref = step_loop(300e-6, BATH, p, grid, dt, record_every)
        if isinstance(ref, int):
            with pytest.raises(DepletionError) as err:
                simulate_diffusion(300e-6, BATH, p, grid, dt, record_every)
            assert abs(err.value.time_s - ref * dt) <= dt * (1 + 1e-9)
        else:
            self.assert_equivalent(grid, dt, p, record_every)

    @pytest.mark.parametrize("grid, dt, n_on", [(31, _R_HALF, 400), (101, 1e-3, 300)])
    def test_depletes_at_the_step_the_loop_does(self, grid, dt, n_on):
        p = equivalence_plan(n_on, 100, 3 * (n_on + 100), 40_000.0, dt)
        step = step_loop(300e-6, ION_BATH, p, grid, dt)
        assert isinstance(step, int)
        with pytest.raises(DepletionError) as err:
            simulate_diffusion(300e-6, ION_BATH, p, grid, dt)
        assert abs(err.value.time_s - step * dt) <= dt * (1 + 1e-9)


class TestPeriodMap:
    """Runs of many periods, solved from the periodic steady state."""

    TOL = TestStepLoopEquivalence.TOL

    def test_mold_fill_matches_the_block_solver(self):
        # The shipped plan's 15 h mold fill, 10 800 periods of 5 s: figures
        # captured from the 256-step block solver that stepped every period.
        cfg = parse_design(SHIPPED_ECD)
        fill = dataclasses.replace(cfg.pulse, total_time=54_000.0)
        state = simulate_diffusion(cfg.sim.mold_depth, cfg.bath, fill, 151, 1e-3, 5000)
        assert state.times.size == 10_801
        assert abs(state.min_surface_conc - 45.760719284763255) <= self.TOL
        for i, c in [(1, 77.84185877682674), (2, 76.3239705364398),
                     (10, 70.09190616482528), (5400, 66.99857886513712),
                     (10_800, 66.99857886513712)]:
            assert abs(state.surface_conc_series[i] - c) <= self.TOL, i
        for i, c in [(0, 66.99857886513712), (10, 67.11137020356188),
                     (75, 71.9606582122639), (149, 79.8928552095444)]:
            assert abs(state.profile[i] - c) <= self.TOL, i
        assert state.profile[-1] == cfg.bath.c_teo2

    @pytest.mark.parametrize("record_every", [25, 2500, 5000, 7, 4999, 5001, 123_457])
    def test_minimum_covers_every_record(self, record_every):
        # 400 periods are about 55 time constants of the slowest mode, so
        # the run ends in the periodic steady state, where one phase can
        # come out an ulp apart in different periods. record_every 25, 2500
        # and 5000 divide the 5000-step period; the others do not.
        cfg = parse_design(SHIPPED_ECD)
        long = dataclasses.replace(cfg.pulse, total_time=2000.0)
        state = simulate_diffusion(cfg.sim.mold_depth, cfg.bath, long, 151, 1e-3,
                                   record_every)
        assert state.min_surface_conc <= state.surface_conc_series.min()
        assert state.profile[-1] == cfg.bath.c_teo2

    @pytest.mark.parametrize("j_pulse, total_time", [
        (8000.0, 100.0), (7000.0, 100.0), (7000.0, 25.5),
        (8000.0, 54_000.0), (7000.0, 54_000.0)])
    def test_depletes_in_a_later_period_at_the_step_the_loop_does(
            self, j_pulse, total_time):
        # The shipped plan between the currents at which a 40-period run and
        # a 1-period run deplete (5.44 and 8.71 kA/m2): the surface gives
        # out only after some periods, here at grid 31 in periods 2 and 5.
        # The 25.5 s run ends in the period that depletes; the 15 h fills
        # search 10 800 periods for it.
        p = PulsePlan(t_pulse=0.2, t_pause=4.8, j_pulse=j_pulse, total_time=total_time)
        step = step_loop(300e-6, BATH, p, 31, 1e-3)
        assert isinstance(step, int) and step > 2 * 5000
        with pytest.raises(DepletionError) as err:
            simulate_diffusion(300e-6, BATH, p, 31, 1e-3)
        assert abs(err.value.time_s - step * 1e-3) <= 1e-3 * (1 + 1e-9)

    @pytest.mark.parametrize("depth, j_pulse", [(1e4, 0.0), (1e4, 5e8), (1.0, 1e5)])
    def test_steady_state_beyond_the_period_map_is_refused(self, depth, j_pulse):
        # In a 10 km column the slowest mode's lambda rounds to 1, and a
        # 1 m column drained at 1e5 A/m2 would settle about 2e5 c_bulk below
        # the bulk: the steady-state series would lose its digits.
        p = equivalence_plan(2, 3, 40, j_pulse, 1.0)
        with pytest.raises(NumericalError, match="periodic steady state"):
            simulate_diffusion(depth, BATH, p, 16, 1.0)

    def test_refused_run_still_reports_depletion_in_its_first_period(self):
        p = equivalence_plan(2, 3, 40, 1e7, 1.0)
        step = step_loop(1.0, BATH, p, 16, 1.0)
        with pytest.raises(DepletionError) as err:
            simulate_diffusion(1.0, BATH, p, 16, 1.0)
        assert err.value.time_s == step * 1.0


def continuum_pulse_end_depletion(depth, bath, t_on, period, modes=10**5):
    """Ibl's finite-layer pulse series: the depletion c_bulk - c(0) per unit
    surface ion flux at the end of a pulse, in the periodic steady state.

    u_t = D u_xx on (0, depth) with D u_x(0) = J while the pulse is on and
    u(depth) = 0 has modes cos(k_j x), k_j = (j + 1/2) pi / depth, and
    a_j' = -D k_j^2 a_j - 2 J / depth. At the end of the pulse each mode is
    -(2 J / (depth D k_j^2)) (1 - e^(-D k_j^2 t_on)) / (1 - e^(-D k_j^2 T));
    beyond `modes` the exponentials vanish and the modes sum to the tail
    -2 J depth / (pi^2 D modes). The depletion is minus the sum of all modes.
    """
    d = bath.diffusivity
    k = (np.arange(modes) + 0.5) * (math.pi / depth)
    rate = d * k * k
    amplitude = (2 / (depth * rate)) * np.expm1(-rate * t_on) / np.expm1(-rate * period)
    return math.fsum(amplitude.tolist()) + 2 * depth / (math.pi**2 * d * modes)


class TestContinuumOracle:
    """The solver against the continuum pulse problem, not its own algebra:
    at fixed r = D dt / dx^2 its error is O(dx^2 + dt) = O(dx^2)."""

    def test_pulse_end_depletion_converges_at_second_order(self):
        depth, t_on, t_off, j = 300e-6, 0.2, 4.8, 2325.0
        flux = j / (BATH.electrons_per_formula * constants.FARADAY)
        exact = continuum_pulse_end_depletion(depth, BATH, t_on, t_on + t_off)
        # 300 periods settle the slowest mode (time constant 36 s) to 1e-18,
        # and the run ends on the last pulse step of period 301.
        total = 300 * (t_on + t_off) + t_on
        errors = []
        for grid, dt in [(76, 4e-3), (151, 1e-3), (301, 2.5e-4)]:
            assert BATH.diffusivity * dt / (depth / (grid - 1)) ** 2 == pytest.approx(0.25)
            n_steps = round(total / dt)
            assert n_steps % round((t_on + t_off) / dt) == round(t_on / dt)
            assert n_steps <= MAX_STEPS
            state = simulate_diffusion(depth, BATH, PulsePlan(t_on, t_off, j, total),
                                       grid, dt, record_every=n_steps)
            assert state.times[-1] == pytest.approx(total)
            depletion = (BATH.c_teo2 - state.surface_conc_series[-1]) / flux
            errors.append(abs(depletion - exact) / exact)
        # 1.54e-3, 3.86e-4 and 9.64e-5: ratios 3.99 and 4.00
        assert errors[1] <= 5e-4
        assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.05)
        assert errors[1] / errors[2] == pytest.approx(4.0, abs=0.05)
