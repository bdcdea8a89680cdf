"""The benchmark's reference model, checked against the shipped anchors."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import common
import layers
import oracle
import run

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def material():
    return common.material_lookup()


def design(name, material):
    return oracle.design_from_doc(common.load_doc(ROOT, name), material)


def density_uw_cm2(d, dt=40.0):
    return float(oracle.operating_points(d, dt)["power_density"]) / 1e-2


def test_shipped_anchors(material):
    annealed = density_uw_cm2(design("bi2te3_annealed", material))
    as_dep = density_uw_cm2(design("bi2te3_as_deposited", material))
    cu_ni = density_uw_cm2(design("cu_ni", material))
    assert annealed == pytest.approx(278.5, rel=1e-9)
    assert as_dep == pytest.approx(71.6, rel=1e-9)
    assert annealed / cu_ni > 60


def test_heat_balance_and_square_law(material):
    d = design("bi2te3_annealed", material)
    a, b = oracle.operating_points(d, 20.0), oracle.operating_points(d, 40.0)
    assert a["q_hot"] == a["q_cold"]
    assert float(b["p_matched"] / a["p_matched"]) == pytest.approx(4.0, rel=1e-12)
    assert float(a["dt_gen"]) < 20.0


def test_dense_grid_optimum_matches_closed_form(material):
    rng = __import__("random").Random(7)
    bases = [common.load_doc(ROOT, n) for n in common.SHIPPED_DESIGNS]
    for i in range(12):
        d = oracle.design_from_doc(common.variant_doc(rng, bases[i % 3]), material)
        lo, hi = 10e-6, 3000e-6
        exact = min(max(oracle.closed_form_optimum(d), lo), hi)
        assert abs(oracle.optimum_leg_length(d, 30.0, lo, hi) - exact) < 0.01e-6


def test_annealed_optimum_is_the_roadmap_value(material):
    d = design("bi2te3_annealed", material)
    assert oracle.closed_form_optimum(d) == pytest.approx(232.2199e-6, abs=1e-10)


def test_couple_seebeck_reaches_its_target(material):
    d = design("bi2te3_as_deposited", material)
    couple = oracle.couple_seebeck(d, 40.0, 2.785)
    hit = oracle.operating_points({**d, "alpha_p": couple / 2, "alpha_n": -couple / 2}, 40.0)
    assert float(hit["power_density"]) == pytest.approx(2.785, rel=1e-12)


def test_pulse_on_steps_counts_the_integer_schedule():
    for n_on, n_off in ((1, 9), (3, 7), (5, 0), (16, 300)):
        period = n_on + n_off
        on = 0
        for k in range(1, 4 * period + 3):
            on += (k - 1) % period < n_on
            assert oracle.pulse_on_steps(k, n_on, period) == on


def test_faraday_matches_tegkit_on_a_binary_exact_schedule():
    from tegkit.ecd import BathSpec, PulsePlan, simulate_diffusion

    bath = BathSpec()
    # Every time is a binary fraction, so even a float schedule is exact.
    plan = PulsePlan(t_pulse=0.25, t_pause=0.75, j_pulse=50.0, total_time=4.5)
    state = simulate_diffusion(300e-6, bath, plan, 16, 0.125)
    on = oracle.pulse_on_steps(36, 2, 8)
    expected = oracle.faraday_thickness(on, 0.125, 50.0, bath.molar_mass,
                                        bath.electrons_per_formula, bath.density)
    assert on == 10
    assert state.thickness == pytest.approx(expected, rel=1e-12)


def test_surface_deficit_depletes_near_sand_time():
    # Criterion 7's constant-current case on the single-ion bath.
    c, d, n_e, j, dt = 80.0, 1e-9, 4, 1000.0, 1e-4
    tau = oracle.sand_time(c, d, n_e, j)
    g = oracle.surface_deficit(601, 300e-6, d, dt, int(1.2 * tau / dt))
    step = oracle.depletion_step(c, j / (n_e * oracle.FARADAY), g)
    assert abs(step * dt - tau) / tau < 0.05


def test_depletion_step_matches_tegkit():
    from tegkit.ecd import BathSpec, PulsePlan, simulate_diffusion
    from tegkit.errors import DepletionError

    bath = BathSpec()
    j, dt = 40000.0, 1e-3
    g = oracle.surface_deficit(151, 300e-6, bath.diffusivity, dt, 200)
    step = oracle.depletion_step(bath.c_teo2, j / (18 * oracle.FARADAY), g)
    with pytest.raises(DepletionError) as err:
        simulate_diffusion(300e-6, bath, PulsePlan(0.2, 1.0, j, 2.4), 151, dt)
    assert step is not None
    assert err.value.time_s == pytest.approx(step * dt, rel=1e-12)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in layers.METRICS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_a_directory_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "plating", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src/tegkit" in proc.stderr
