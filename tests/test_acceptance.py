"""Acceptance suite: the device-level anchors, property suites, and CLI
round trips that define this package's exit criteria. Each test prints one
pass/fail line (run with -s to see them on success)."""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from tegkit import constants
from tegkit.cli import main
from tegkit.device import (
    GeneratorDesign,
    calibrate_r_gen,
    calibrate_seebeck,
    efficiency_factor,
    evaluate,
    generator_thermal_resistance,
    load_power,
    matched_load_power,
    thermal_divider,
)
from tegkit.ecd import (
    BathSpec,
    PulsePlan,
    diffusion_step,
    faraday_growth_rate,
    sand_time,
    simulate_diffusion,
    stoichiometry_from_bath,
    time_to_thickness,
)
from tegkit.errors import DepletionError
from tegkit.materials import MaterialProps, lookup_material
from tegkit.optimize import compare_designs, optimize_leg_length
from tegkit.presets import (
    annealed_design,
    as_deposited_design,
    cu_ni_design,
    with_couple_seebeck,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
UW_CM2 = 1e-2  # W/m2 per uW/cm2


def criterion(number, description, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance criterion {number}] {status}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _design(seebeck_leg=1e-4, rho=2e-5, lam=1.5, fill=0.2, rho_c=0.0,
            k_if=3.9, leg_length=200e-6, leg_area=1e-8, device_area=1e-4):
    return GeneratorDesign(
        leg_length=leg_length,
        leg_area=leg_area,
        fill_factor=fill,
        device_area=device_area,
        p_material=MaterialProps("p", +seebeck_leg, rho, lam, "p"),
        n_material=MaterialProps("n", -seebeck_leg, rho, lam, "n"),
        matrix_material=lookup_material("su8"),
        contact_resistivity=rho_c,
        interface_resistance=k_if,
    )


def test_criterion_1_thermal_divider_fixed_point():
    r_gen = calibrate_r_gen(40.0, 21.4, 3.9)
    forward = thermal_divider(40.0, r_gen, 3.9)
    criterion(
        1,
        f"calibrate_r_gen(40, 21.4, 3.9) = {r_gen:.4f} K/W (4.487 +/- 0.001), "
        f"forward divider = {forward:.4f} K (21.4 +/- 0.01)",
        abs(r_gen - 4.487) <= 1e-3 and abs(forward - 21.4) <= 1e-2,
    )


def test_criterion_2_efficiency_factor():
    phi_best = efficiency_factor(3.441, 44.4) / UW_CM2
    phi_ref = efficiency_factor(2.785, 40.0) / UW_CM2
    criterion(
        2,
        f"eff(344.1 uW/cm2, 44.4 K) = {phi_best:.4f} (0.1746 +/- 0.0005), "
        f"eff(278.5, 40) = {phi_ref:.4f} (0.1741 +/- 0.0005)",
        abs(phi_best - 0.1746) <= 5e-4 and abs(phi_ref - 0.1741) <= 5e-4,
    )


def test_criterion_3_calibration_fixed_points():
    results = {}
    for label, resistivity, target in (
        ("annealed", constants.BI2TE3_RESISTIVITY_ANNEALED,
         constants.POWER_DENSITY_ANNEALED),
        ("as_deposited", constants.BI2TE3_RESISTIVITY_AS_DEP,
         constants.POWER_DENSITY_AS_DEP),
    ):
        base = _design(
            rho=resistivity,
            fill=constants.FILL_FACTOR_REF,
            rho_c=constants.CONTACT_RESISTIVITY_REF,
        )
        couple = calibrate_seebeck(base, 40.0, target)
        op = evaluate(with_couple_seebeck(base, couple), 40.0)
        results[label] = op.power_density / UW_CM2
    ratio = results["annealed"] / results["as_deposited"]
    ok = (
        abs(results["annealed"] - 278.5) / 278.5 <= 5e-3
        and abs(results["as_deposited"] - 71.6) / 71.6 <= 5e-3
        and abs(ratio - 3.89) <= 0.02
    )
    criterion(
        3,
        f"calibrated densities {results['annealed']:.2f} / "
        f"{results['as_deposited']:.2f} uW/cm2 (278.5 / 71.6 within 0.5%), "
        f"ratio {ratio:.3f} (3.89 +/- 0.02)",
        ok,
    )
    # the shipped presets are the same fixed points
    assert evaluate(annealed_design(), 40.0).power_density / UW_CM2 == (
        pytest.approx(278.5, rel=5e-3)
    )
    assert evaluate(as_deposited_design(), 40.0).power_density / UW_CM2 == (
        pytest.approx(71.6, rel=5e-3)
    )


def test_criterion_4_metal_leg_comparison():
    table = compare_designs(
        {"cu_ni": cu_ni_design(), "annealed": annealed_design()}, 40.0
    )
    cuni = table.point("cu_ni").power_density / UW_CM2
    ratio = table.density_ratio("annealed", "cu_ni")
    criterion(
        4,
        f"Cu/Ni density {cuni:.3f} uW/cm2 (<= 278.5/60 = 4.642), "
        f"annealed/Cu-Ni ratio {ratio:.1f} (> 60)",
        cuni <= 278.5 / 60.0 and ratio > 60.0,
    )


def test_criterion_5_optimizer():
    start = time.monotonic()
    result = optimize_leg_length(annealed_design(), 40.0, 10e-6, 1e-3)
    grid = np.linspace(10e-6, 1e-3, 10_000)
    design = annealed_design()
    powers = [
        evaluate(dataclasses.replace(design, leg_length=float(x)), 40.0).p_matched
        for x in grid
    ]
    oracle = float(grid[int(np.argmax(powers))])

    closed = _design(fill=1.0, rho=constants.BI2TE3_RESISTIVITY_ANNEALED,
                     rho_c=0.0, lam=1.5)
    closed_result = optimize_leg_length(closed, 40.0, 10e-6, 2e-3)
    r_g_star = generator_thermal_resistance(
        dataclasses.replace(closed, leg_length=closed_result.best_value)
    )
    elapsed = time.monotonic() - start

    ok = (
        100e-6 <= result.best_value <= 300e-6
        and abs(result.best_value - oracle) <= 0.1e-6
        and abs(r_g_star - 3.9) / 3.9 <= 1e-3
        and elapsed < 5.0
    )
    criterion(
        5,
        f"L* = {result.best_value * 1e6:.2f} um in [100, 300], "
        f"|closed form - grid| = {abs(result.best_value - oracle) * 1e6:.4f} um "
        f"(<= 0.1), closed-form R_G(L*) = {r_g_star:.5f} K/W "
        f"(K within 0.1%), runtime {elapsed:.2f} s (< 5)",
        ok,
    )


def test_criterion_6_faraday_anchors():
    bath = BathSpec()
    rate_um_h = faraday_growth_rate(93.0, bath) * 3600 / 1e-6
    plan = PulsePlan(t_pulse=0.2, t_pause=4.8, j_pulse=2325.0, total_time=1.0)
    hours = time_to_thickness(300e-6, plan, bath) / 3600
    # the current density that yields exactly 20 um/h sits inside 9.3 +/- 0.1
    j_exact = (
        20e-6 / 3600 * bath.electrons_per_formula * constants.FARADAY
        * bath.density / bath.molar_mass
    )
    ok = (
        abs(rate_um_h - 20.0) / 20.0 <= 0.01
        and abs(hours - 15.0) / 15.0 <= 0.01
        and 92.0 <= j_exact <= 94.0
    )
    criterion(
        6,
        f"9.3 mA/cm2 gives {rate_um_h:.3f} um/h (20 within 1%), 300 um takes "
        f"{hours:.3f} h (15 within 1%), exact-rate current "
        f"{j_exact / 10:.3f} mA/cm2 in 9.3 +/- 0.1",
        ok,
    )


def test_criterion_7_diffusion_depletion():
    # Sand-time check: constant current on the single-ion bath.
    ion_bath = BathSpec(electrons_per_formula=constants.TE_ION_ELECTRONS)
    tau = sand_time(ion_bath.c_teo2, ion_bath.diffusivity,
                    ion_bath.electrons_per_formula, 1000.0)
    start = time.monotonic()
    with pytest.raises(DepletionError) as err:
        simulate_diffusion(
            300e-6, ion_bath,
            PulsePlan(t_pulse=10.0, t_pause=0.0, j_pulse=1000.0, total_time=2.0),
            601, 1e-4,
        )
    sand_run = time.monotonic() - start
    sand_err = abs(err.value.time_s - tau) / tau

    # Pulse-train endurance across the measurement window at the average
    # current that sustains 20 um/h.
    bath = BathSpec()
    max_run = 0.0
    min_conc = bath.c_teo2
    for t_pulse in (0.05, 0.1, 0.2):
        for t_pause in (4.0, 4.5, 5.0):
            duty = t_pulse / (t_pulse + t_pause)
            plan = PulsePlan(
                t_pulse=t_pulse, t_pause=t_pause, j_pulse=93.0 / duty,
                total_time=5 * (t_pulse + t_pause),
            )
            start = time.monotonic()
            state = simulate_diffusion(300e-6, bath, plan, 151, 1e-3,
                                       record_every=50)
            max_run = max(max_run, time.monotonic() - start)
            min_conc = min(min_conc, state.min_surface_conc)
    ok = sand_err <= 0.05 and min_conc > 0 and sand_run < 10 and max_run < 10
    criterion(
        7,
        f"depletion at {err.value.time_s:.4f} s vs Sand {tau:.4f} s "
        f"({sand_err * 100:.2f}% <= 5%); window pulse trains never deplete "
        f"(min surface conc {min_conc:.1f} mol/m3); runtimes "
        f"{sand_run:.2f} s / {max_run:.2f} s per run (< 10)",
        ok,
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(20260810)
    cases = 200

    # divider bounds, monotonicity, inverse round-trip
    divider_ok = True
    for _ in range(cases):
        dt_meas = rng.uniform(1.0, 100.0)
        r_gen = 10.0 ** rng.uniform(-2, 2)
        k_if = 10.0 ** rng.uniform(-2, 2)
        dt_gen = thermal_divider(dt_meas, r_gen, k_if)
        divider_ok &= 0 < dt_gen < dt_meas
        divider_ok &= thermal_divider(dt_meas, r_gen * 1.1, k_if) > dt_gen
        divider_ok &= thermal_divider(dt_meas, r_gen, k_if * 1.1) < dt_gen
        back = calibrate_r_gen(dt_meas, dt_gen, k_if)
        divider_ok &= math.isclose(back, r_gen, rel_tol=1e-9)

    # matched-load dominance over 100-point log sweeps
    dominance_ok = True
    for _ in range(cases):
        v = 10.0 ** rng.uniform(-2, 1)
        r = 10.0 ** rng.uniform(-1, 4)
        p_max = matched_load_power(v, r)
        loads = np.geomspace(r * 1e-3, r * 1e3, 100)
        dominance_ok &= all(
            load_power(v, r, float(rl)) <= p_max * (1 + 1e-12) for rl in loads
        )

    # quadratic temperature scaling
    homogeneity_ok = True
    for _ in range(cases):
        design = _design(
            seebeck_leg=10.0 ** rng.uniform(-5, -3.3),
            rho=10.0 ** rng.uniform(-7, -4),
            lam=10.0 ** rng.uniform(-0.5, 2.0),
            fill=rng.uniform(0.05, 1.0),
            rho_c=10.0 ** rng.uniform(-12, -9),
            k_if=10.0 ** rng.uniform(-1, 1.5),
        )
        dt = rng.uniform(1.0, 60.0)
        k = rng.uniform(0.2, 4.0)
        p1 = evaluate(design, dt).p_matched
        p2 = evaluate(design, k * dt).p_matched
        homogeneity_ok &= math.isclose(p2, k * k * p1, rel_tol=1e-10)

    # diffusion: zero-current bit-exactness and closed-cell conservation
    diffusion_ok = True
    for _ in range(cases):
        grid = int(rng.integers(16, 49))
        c0 = rng.uniform(1.0, 200.0)
        r = rng.uniform(0.01, 0.5)
        profile = np.full(grid, c0)
        for _ in range(20):
            profile = diffusion_step(profile, r, 1e-6, 1.0, 0.0, c0)
        diffusion_ok &= bool(np.all(profile == c0))

        dx = rng.uniform(0.5e-6, 3e-6)
        diffusivity = 1e-9
        dt = 0.4 * dx * dx / diffusivity  # inside the stability bound
        steps = int(rng.integers(20, 120))
        profile = rng.uniform(0.0, 100.0, grid)

        def mass(p):
            return dx * (p[0] / 2 + p[1:-1].sum() + p[-1] / 2)

        m0 = mass(profile)
        for _ in range(steps):
            profile = diffusion_step(
                profile, diffusivity * dt / (dx * dx), dx, dt, 0.0, None
            )
        drift = abs(mass(profile) - m0) / max(abs(m0), 1e-30)
        sim_hours = steps * dt / 3600.0
        diffusion_ok &= drift <= 1e-8 * sim_hours

    # stoichiometry map: monotone with anchored endpoints
    stoich_ok = (
        math.isclose(stoichiometry_from_bath(20.0).te_to_bi, 2.1)
        and math.isclose(stoichiometry_from_bath(60.0).te_to_bi, 0.8)
    )
    for _ in range(cases):
        a, b = sorted(rng.uniform(20.0, 60.0, size=2))
        stoich_ok &= (
            stoichiometry_from_bath(b).te_to_bi
            <= stoichiometry_from_bath(a).te_to_bi
        )

    names = {
        "divider": divider_ok,
        "matched-load dominance": dominance_ok,
        "dT^2 homogeneity": homogeneity_ok,
        "diffusion conservation/invariance": diffusion_ok,
        "stoichiometry monotonicity": stoich_ok,
    }
    criterion(
        8,
        f"{cases} randomized cases per suite: "
        + ", ".join(f"{k} {'ok' if v else 'FAILED'}" for k, v in names.items()),
        all(names.values()),
    )


def test_criterion_9_cli_end_to_end(capsys, tmp_path):
    annealed = str(CONFIGS / "bi2te3_annealed.json")
    asdep = str(CONFIGS / "bi2te3_as_deposited.json")
    cuni = str(CONFIGS / "cu_ni.json")
    ecd = str(CONFIGS / "ecd_pulse_train.json")
    jobs = [
        ["eval", "--config", annealed, "--dt", "40"],
        ["sweep", "--config", annealed, "--dt", "40", "--param", "leg_length",
         "--from", "1e-5", "--to", "1e-3", "--points", "30", "--log",
         "--out", str(tmp_path / "sweep.csv")],
        ["optimize", "--config", annealed, "--dt", "40",
         "--from", "1e-5", "--to", "1e-3"],
        ["compare", "--config", cuni, "--config", asdep, "--config", annealed,
         "--dt", "40", "--out", str(tmp_path / "compare.csv")],
        ["calibrate", "--config", annealed, "--dt", "40", "--target", "278.5"],
        ["ecd", "simulate", "--config", ecd, "--out", str(tmp_path / "ecd.csv")],
        ["ecd", "sand-time", "--config", ecd],
    ]
    all_ok = True
    for argv in jobs:
        outputs = []
        artifacts = []
        for _ in range(2):
            code = main(list(argv))
            outputs.append(capsys.readouterr().out)
            all_ok &= code == 0
            out_flag = [a for a in argv if str(a).endswith(".csv")]
            if out_flag:
                artifacts.append(Path(out_flag[0]).read_bytes())
        all_ok &= outputs[0] == outputs[1]
        if artifacts:
            all_ok &= artifacts[0] == artifacts[1]
    criterion(
        9,
        f"{len(jobs)} subcommands on shipped configs: exit 0 and "
        "byte-identical stdout/artifacts across repeat runs",
        all_ok,
    )
