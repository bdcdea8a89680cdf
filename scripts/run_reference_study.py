#!/usr/bin/env python3
"""Desk-scale reproduction of the reference device study.

Produces, under --outdir (default out/):
  leg_length_sweep_bi2te3.csv   log-spaced leg-length sweep, annealed legs
  leg_length_sweep_cu_ni.csv    same sweep with Cu/Ni legs
  design_comparison.csv         Cu/Ni vs as-deposited vs annealed at 40 K
  ecd_pulse_train.csv           surface-concentration time series, 10 cycles
  summary.json                  headline numbers

Run: python scripts/run_reference_study.py
"""

import argparse
import json
from pathlib import Path

from tegkit import constants
from tegkit.ecd import BathSpec, PulsePlan, sand_time, simulate_diffusion
from tegkit.optimize import compare_designs, optimize_leg_length, sweep
from tegkit.output import emit_comparison, emit_curve, emit_deposit_series
from tegkit.presets import annealed_design, as_deposited_design, cu_ni_design


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", type=Path)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    dt = constants.DT_MEAS_REF
    annealed = annealed_design()
    asdep = as_deposited_design()
    cuni = cu_ni_design()

    # Leg-length study, 10 um to 1 mm on log axes.
    for design, fname in ((annealed, "leg_length_sweep_bi2te3.csv"),
                          (cuni, "leg_length_sweep_cu_ni.csv")):
        curve = sweep(design, dt, "leg_length", 10e-6, 1e-3, 60, spacing="log")
        emit_curve(curve, args.outdir / fname)

    best = optimize_leg_length(annealed, dt, 10e-6, 1e-3)

    table = compare_designs(
        {"cu_ni": cuni, "bi2te3_as_deposited": asdep, "bi2te3_annealed": annealed},
        dt,
    )
    emit_comparison(table, args.outdir / "design_comparison.csv")

    # Ten plating cycles at the growth-rate-consistent average current.
    plan = PulsePlan(t_pulse=0.2, t_pause=4.8, j_pulse=2325.0, total_time=50.0)
    bath = BathSpec()
    state = simulate_diffusion(300e-6, bath, plan, grid=151, dt=1e-3,
                               record_every=10)
    emit_deposit_series(state, args.outdir / "ecd_pulse_train.csv")

    summary = {
        "dt_meas_K": dt,
        "power_density_uW_cm2": {
            name: op.power_density / 1e-2 for name, op in table.rows
        },
        "annealed_over_as_deposited": table.density_ratio(
            "bi2te3_annealed", "bi2te3_as_deposited"
        ),
        "annealed_over_cu_ni": table.density_ratio("bi2te3_annealed", "cu_ni"),
        "optimal_leg_length_um": best.best_value / 1e-6,
        "optimal_power_density_uW_cm2": best.best_point.power_density / 1e-2,
        "ecd": {
            "duty": plan.duty,
            "avg_current_mA_cm2": plan.j_pulse * plan.duty / 10.0,
            "growth_rate_um_h": state.growth_rate * 3600 / 1e-6,
            "min_surface_conc_mol_m3": state.min_surface_conc,
            "single_pulse_sand_time_s": sand_time(
                bath.c_teo2, bath.diffusivity, bath.electrons_per_formula,
                plan.j_pulse,
            ),
        },
    }
    (args.outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(summary, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
