"""Command line front end.

Subcommands: eval, sweep, optimize, compare, calibrate, ecd simulate,
ecd sand-time. Every run prints a machine-readable report (JSON) to stdout.
The --out of eval, optimize, calibrate and ecd sand-time gets the same report
bytes; the --out of sweep, compare and ecd simulate is a CSV artifact, and
either is written only once the report serialises. Exit codes: 0 success, 1
configuration or validation error, 2 numerical failure (depletion,
instability, a value beyond the float range).
"""

import argparse
import sys
from functools import partial
from pathlib import Path

from .config import MA_CM2_TO_A_M2, UV_K_TO_V_K, UW_CM2_TO_W_M2, parse_design
from .device import calibrate_seebeck, evaluate
from .ecd import sand_time, simulate_diffusion
from .errors import ConfigFieldError, NumericalError, TegkitError, UsageError
from .materials import MaterialProps
from .optimize import SWEEPABLE_PARAMETERS, compare_designs, optimize_leg_length, sweep
from .output import (
    emit_comparison,
    emit_curve,
    emit_deposit_series,
    operating_point_dict,
    report_text,
    write_file,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; map them to the
    # validation exit code instead.
    def error(self, message):
        raise UsageError(message)


def _material_dict(mat: MaterialProps) -> dict:
    return {
        "name": mat.name,
        "seebeck_V_K": mat.seebeck,
        "resistivity_ohm_m": mat.resistivity,
        "thermal_conductivity_W_mK": mat.thermal_conductivity,
        "carrier": mat.carrier,
    }


def _design_dict(design) -> dict:
    return {
        "leg_length_m": design.leg_length,
        "leg_area_m2": design.leg_area,
        "fill_factor": design.fill_factor,
        "device_area_m2": design.device_area,
        "contact_resistivity_ohm_m2": design.contact_resistivity,
        "interface_resistance_K_W": design.interface_resistance,
        "couples": design.couples,
        "p_material": _material_dict(design.p_material),
        "n_material": _material_dict(design.n_material),
        "matrix_material": _material_dict(design.matrix_material),
    }


def _cmd_eval(args):
    cfg = parse_design(args.config)
    op = evaluate(cfg.design, args.dt)
    return {
        "inputs": {"config": args.config, "dt_meas_K": args.dt,
                   "design": _design_dict(cfg.design)},
        "outputs": operating_point_dict(op),
    }, None


def _cmd_sweep(args):
    cfg = parse_design(args.config)
    spacing = "log" if args.log else "linear"
    curve = sweep(
        cfg.design,
        args.dt,
        args.param,
        args.lo,
        args.hi,
        args.points,
        spacing=spacing,
    )
    densities = curve.column("power_density")
    best_idx = int(densities.argmax())  # the first maximum on ties
    return {
        "inputs": {"config": args.config, "dt_meas_K": args.dt, "param": args.param,
                   "from_si": args.lo, "to_si": args.hi, "points": args.points,
                   "spacing": spacing},
        "outputs": {"csv": str(args.out), "rows": len(curve.values),
                    "best_param_value_si": curve.values.item(best_idx),
                    "best_p_density_uW_cm2": densities.item(best_idx) / UW_CM2_TO_W_M2},
    }, partial(emit_curve, curve)


def _cmd_optimize(args):
    cfg = parse_design(args.config)
    result = optimize_leg_length(cfg.design, args.dt, args.lo, args.hi)
    return {
        "inputs": {"config": args.config, "dt_meas_K": args.dt,
                   "bracket_si": [args.lo, args.hi]},
        "outputs": {"best_leg_length_m": result.best_value,
                    "best_leg_length_um": result.best_value / 1e-6,
                    "iterations": result.iterations,
                    "best_point": operating_point_dict(result.best_point)},
    }, None


def _cmd_compare(args):
    names = [Path(c).stem for c in args.config]
    if len(set(names)) != len(names):
        raise UsageError("config file stems must be distinct design names")
    designs = {n: parse_design(c).design for n, c in zip(names, args.config)}
    table = compare_designs(designs, args.dt)
    return {
        "inputs": {"configs": list(args.config), "dt_meas_K": args.dt},
        "outputs": {"csv": str(args.out) if args.out else None,
                    "rows": {name: operating_point_dict(op) for name, op in table.rows},
                    "p_density_ratios": table.ratios()},
    }, partial(emit_comparison, table) if args.out else None


def _cmd_calibrate(args):
    cfg = parse_design(args.config)
    target_si = args.target * UW_CM2_TO_W_M2
    couple = calibrate_seebeck(cfg.design, args.dt, target_si)
    return {
        "inputs": {"config": args.config, "dt_meas_K": args.dt,
                   "target_density_uW_cm2": args.target,
                   "design": _design_dict(cfg.design)},
        "outputs": {"couple_seebeck_V_K": couple,
                    "couple_seebeck_uV_K": couple / UV_K_TO_V_K,
                    "leg_seebeck_uV_K": couple / 2 / UV_K_TO_V_K},
    }, None


def _require_section(value, name: str):
    if value is None:
        raise ConfigFieldError("section required by this command is missing", name)
    return value


def _cmd_ecd_simulate(args):
    cfg = parse_design(args.config)
    plan = _require_section(cfg.pulse, "ecd.pulse")
    sim = _require_section(cfg.sim, "ecd.sim")
    bath = cfg.bath
    state = simulate_diffusion(
        sim.mold_depth, bath, plan, sim.grid, sim.dt, sim.record_every
    )
    return {
        "inputs": {"config": args.config, "mold_depth_m": sim.mold_depth,
                   "grid": sim.grid, "dt_s": sim.dt,
                   "j_pulse_A_m2": plan.j_pulse, "t_pulse_s": plan.t_pulse,
                   "t_pause_s": plan.t_pause, "total_time_s": plan.total_time,
                   "c_teo2_mol_m3": bath.c_teo2, "diffusivity_m2_s": bath.diffusivity},
        "outputs": {"csv": str(args.out),
                    "thickness_um": state.thickness / 1e-6,
                    "avg_growth_rate_um_h": state.growth_rate * 3600 / 1e-6,
                    "min_surface_conc_mol_m3": state.min_surface_conc,
                    "te_to_bi":
                        state.composition.te_to_bi if state.composition else None,
                    "duty": plan.duty},
    }, partial(emit_deposit_series, state)


def _cmd_ecd_sand_time(args):
    cfg = parse_design(args.config)
    plan = _require_section(cfg.pulse, "ecd.pulse")
    bath = cfg.bath
    j = args.j * MA_CM2_TO_A_M2 if args.j is not None else plan.j_pulse
    tau = sand_time(bath.c_teo2, bath.diffusivity, bath.electrons_per_formula, j)
    warnings = []
    if plan.t_pulse >= tau:
        warnings.append(
            f"t_pulse = {plan.t_pulse:g} s is not below the depletion time "
            f"{tau:g} s; the surface will deplete mid-pulse"
        )
    return {
        "inputs": {"config": args.config, "j_A_m2": j,
                   "c_bulk_mol_m3": bath.c_teo2, "diffusivity_m2_s": bath.diffusivity,
                   "n_e": bath.electrons_per_formula},
        "outputs": {"sand_time_s": tau, "t_pulse_s": plan.t_pulse,
                    "margin": tau / plan.t_pulse},
        "warnings": warnings,
    }, None


def build_parser() -> _Parser:
    parser = _Parser(prog="tegkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, csv_help=None):
        # --out is the CSV that csv_help names, or else a copy of the report
        p.add_argument("--config", required=True, help="design config JSON")
        p.add_argument("--out", required=bool(csv_help),
                       help=csv_help or "also write the report JSON here")

    p = sub.add_parser("eval", help="evaluate a design at one dt_meas")
    common(p)
    p.add_argument("--dt", type=float, required=True, help="dt_meas in K")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="sweep one parameter, emit CSV")
    common(p, csv_help="CSV output path")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--param", required=True, choices=SWEEPABLE_PARAMETERS)
    p.add_argument("--from", dest="lo", type=float, required=True,
                   help="lower bound, SI units")
    p.add_argument("--to", dest="hi", type=float, required=True,
                   help="upper bound, SI units")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--log", action="store_true", help="log-spaced points")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", help="optimize leg length for power")
    common(p)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--from", dest="lo", type=float, required=True)
    p.add_argument("--to", dest="hi", type=float, required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("compare", help="compare two or more designs")
    p.add_argument("--config", action="append", required=True,
                   help="repeat for each design; file stem names the design")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("calibrate", help="couple Seebeck hitting a target density")
    common(p)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--target", type=float, required=True,
                   help="target power density, uW/cm2")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("ecd", help="deposition process commands")
    ecd_sub = p.add_subparsers(dest="ecd_command", required=True)

    p2 = ecd_sub.add_parser("simulate", help="run the pulse-train diffusion model")
    common(p2, csv_help="time-series CSV path")
    p2.set_defaults(func=_cmd_ecd_simulate)

    p2 = ecd_sub.add_parser("sand-time", help="analytic depletion time")
    common(p2)
    p2.add_argument("--j", type=float, default=None,
                    help="current density in mA/cm2 (default: pulse current)")
    p2.set_defaults(func=_cmd_ecd_sand_time)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        name = f"ecd {args.ecd_command}" if args.command == "ecd" else args.command
        body, write_csv = args.func(args)
        text = report_text({"command": name, "argv": argv, "warnings": [], **body})
        # --out once the report serialises, so a failure leaves no file, and
        # before stdout, so an unwritable path prints nothing
        if write_csv:
            write_csv(args.out)
        elif args.out:
            write_file(args.out, [text.encode()])
        sys.stdout.write(text)
        return 0
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except TegkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
