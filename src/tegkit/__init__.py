"""tegkit: micro thermoelectric generator design and process toolkit.

Evaluates a coupled thermal-electrical generator model (temperature
divider, Seebeck source, matched-load power), optimizes thermocouple
geometry, and simulates pulsed electrochemical deposition of
Bi(2+x)Te(3-x) thermolegs.
"""

from .device import (
    GeneratorDesign,
    OperatingPoint,
    calibrate_r_gen,
    calibrate_seebeck,
    efficiency_factor,
    evaluate,
    generator_thermal_resistance,
    heat_flow,
    internal_resistance,
    load_power,
    matched_load_power,
    open_circuit_voltage,
    thermal_divider,
)
from .ecd import (
    BathSpec,
    DepositState,
    PulsePlan,
    faraday_growth_rate,
    sand_time,
    simulate_diffusion,
    stoichiometry_from_bath,
    time_to_thickness,
)
from .materials import (
    MaterialProps,
    StoichiometryRatio,
    apply_annealing,
    classify_carrier,
    lookup_material,
    preset_names,
)
from .optimize import (
    ComparisonTable,
    OptimizationResult,
    SweepCurve,
    compare_designs,
    optimize_leg_length,
    sweep,
)
from .presets import (
    annealed_design,
    as_deposited_design,
    cu_ni_design,
    reference_design,
    with_couple_seebeck,
)

__version__ = "0.1.0"

__all__ = [
    "BathSpec",
    "ComparisonTable",
    "DepositState",
    "GeneratorDesign",
    "MaterialProps",
    "OperatingPoint",
    "OptimizationResult",
    "PulsePlan",
    "StoichiometryRatio",
    "SweepCurve",
    "annealed_design",
    "apply_annealing",
    "as_deposited_design",
    "calibrate_r_gen",
    "calibrate_seebeck",
    "classify_carrier",
    "compare_designs",
    "cu_ni_design",
    "efficiency_factor",
    "evaluate",
    "faraday_growth_rate",
    "generator_thermal_resistance",
    "heat_flow",
    "internal_resistance",
    "load_power",
    "lookup_material",
    "matched_load_power",
    "open_circuit_voltage",
    "optimize_leg_length",
    "preset_names",
    "reference_design",
    "sand_time",
    "simulate_diffusion",
    "stoichiometry_from_bath",
    "sweep",
    "thermal_divider",
    "time_to_thickness",
    "with_couple_seebeck",
]
