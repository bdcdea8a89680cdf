#!/usr/bin/env python3
"""Regenerate the shipped example configs from the calibrated presets.

Run from the repository root:

    python scripts/write_example_configs.py [--outdir configs]

Committed outputs; rerun whenever the calibration constants change so the
JSON stays in sync with the package.
"""

import argparse
import json
from pathlib import Path

from tegkit import constants
from tegkit.config import CM2_TO_M2, OHM_CM2_TO_OHM_M2, UM2_TO_M2, UM_TO_M


def design_section(p_name: str, n_name: str, contact_ohm_cm2: float) -> dict:
    return {
        "leg_length_um": constants.LEG_LENGTH_REF / UM_TO_M,
        "leg_area_um2": constants.LEG_AREA_REF / UM2_TO_M2,
        "fill_factor": constants.FILL_FACTOR_REF,
        "device_area_cm2": constants.DEVICE_AREA_REF / CM2_TO_M2,
        "p_material": p_name,
        "n_material": n_name,
        "matrix_material": "su8",
        "contact_resistivity_ohm_cm2": contact_ohm_cm2,
        "interface_resistance_K_W": constants.K_INTERFACE_REF,
    }


def ecd_section() -> dict:
    # 200 ms pulses at 232.5 mA/cm2 with 4.8 s pauses average 9.3 mA/cm2,
    # the current density matching the observed 20 um/h growth.
    return {
        "pulse": {
            "t_pulse_ms": 200.0,
            "t_pause_s": 4.8,
            "j_pulse_mA_cm2": 232.5,
            "total_time_s": 25.0,
        },
        "bath": {
            "c_teo2_mol_m3": constants.BATH_C_TEO2,
            "c_bi2o3_mol_m3": constants.BATH_C_BI2O3,
            "diffusivity_m2_s": constants.DEFAULT_DIFFUSIVITY,
        },
        "sim": {
            "mold_depth_um": 300.0,
            "grid_points": 151,
            "dt_s": 1e-3,
            "record_every": 25,
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="configs", type=Path)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    contact_semi = constants.CONTACT_RESISTIVITY_REF / OHM_CM2_TO_OHM_M2
    contact_metal = constants.CONTACT_RESISTIVITY_METAL / OHM_CM2_TO_OHM_M2

    files = {
        "bi2te3_annealed.json": {
            "design": design_section(
                "bi2te3_p_annealed", "bi2te3_n_annealed", contact_semi
            )
        },
        "bi2te3_as_deposited.json": {
            "design": design_section(
                "bi2te3_p_asdep", "bi2te3_n_asdep", contact_semi
            )
        },
        "cu_ni.json": {
            "design": design_section("copper", "nickel", contact_metal)
        },
        "ecd_pulse_train.json": {
            "design": design_section(
                "bi2te3_p_annealed", "bi2te3_n_annealed", contact_semi
            ),
            "ecd": ecd_section(),
        },
    }
    for name, doc in files.items():
        path = args.outdir / name
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
