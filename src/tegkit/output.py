"""CSV artifacts and machine-readable run reports.

Numeric CSV cells are written with 17 significant digits so a reader
recovers the exact binary values; emission is deterministic byte for byte.
"""

import csv
import json
from dataclasses import asdict
from pathlib import Path

from .config import UW_CM2_TO_W_M2
from .device import OperatingPoint
from .ecd import DepositState
from .errors import NumericalError, ParameterError
from .optimize import ComparisonTable, SweepCurve

SWEEP_COLUMNS = [
    "param_name",
    "param_value_si",
    "dt_gen_K",
    "v_oc_V",
    "r_internal_ohm",
    "p_matched_W",
    "p_density_uW_cm2",
    "eff_factor_uW_cm2_K2",
]

ECD_COLUMNS = ["t_s", "thickness_um", "surface_conc_mol_m3"]

COMPARE_COLUMNS = ["design"] + SWEEP_COLUMNS[2:]


def fmt(x: float) -> str:
    return f"{x:.17g}"


def _point_cells(op: OperatingPoint) -> list[str]:
    return [
        fmt(op.dt_gen),
        fmt(op.v_oc),
        fmt(op.r_internal),
        fmt(op.p_matched),
        fmt(op.power_density / UW_CM2_TO_W_M2),
        fmt(op.eff_factor / UW_CM2_TO_W_M2),
    ]


def _open_writer(path: str | Path):
    handle = open(path, "w", newline="")
    return handle, csv.writer(handle, lineterminator="\n")


def emit_curve(curve: SweepCurve, path: str | Path) -> None:
    """Write a sweep curve as plot-ready CSV (one row per parameter value)."""
    if not curve.points:
        raise ParameterError("cannot emit an empty curve")
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(SWEEP_COLUMNS)
        for value, op in curve.points:
            writer.writerow([curve.parameter, fmt(value)] + _point_cells(op))


def emit_comparison(table: ComparisonTable, path: str | Path) -> None:
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(COMPARE_COLUMNS)
        for name, op in table.rows:
            writer.writerow([name] + _point_cells(op))


def emit_deposit_series(state: DepositState, path: str | Path) -> None:
    """Write the deposit time series as CSV, all rows in one call.

    The cells hold no quote or separator characters, so joining them gives
    the bytes csv.writer would write.
    """
    rows = (
        f"{fmt(t)},{fmt(th)},{fmt(conc)}\n"
        for t, th, conc in zip(
            state.times.tolist(),
            (state.thickness_series / 1e-6).tolist(),
            state.surface_conc_series.tolist(),
        )
    )
    with open(path, "w", newline="") as handle:
        handle.write(",".join(ECD_COLUMNS) + "\n")
        handle.writelines(rows)


def operating_point_dict(op: OperatingPoint) -> dict:
    """Report form of an operating point: SI fields plus display units."""
    out = asdict(op)
    out["power_density_uW_cm2"] = op.power_density / UW_CM2_TO_W_M2
    out["eff_factor_uW_cm2_K2"] = op.eff_factor / UW_CM2_TO_W_M2
    return out


def run_report(
    command: str,
    argv: list[str],
    inputs: dict,
    outputs: dict,
    warnings: list[str] | None = None,
) -> dict:
    return {
        "command": command,
        "argv": list(argv),
        "inputs": inputs,
        "outputs": outputs,
        "warnings": list(warnings or []),
    }


def report_text(report: dict) -> str:
    """Canonical serialization; identical inputs give identical bytes.

    Strict JSON: a NaN or infinite number raises NumericalError (CLI exit 2)
    instead of reaching the report as a bare NaN or Infinity token.
    """
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"report holds a non-finite number: {exc}") from exc


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(report_text(report))
