"""Parameter sweeps, leg-length optimization, and design comparison.

A sweep is one array pass of the model (`device.evaluate_columns`, given
`_evaluate_at`'s arguments with the grid as the value), and its `SweepCurve`
keeps that pass's float64 columns, read-only: no per-point object or Python
float is built between the kernel and the CSV; `SweepCurve.points` converts
the columns to Python floats on each access. The leg-length optimum is
closed form (see `optimize_leg_length`), with no search. Comparisons and
the optimum evaluate one to a few points, so they call scalar `evaluate`,
which costs less than an array pass there.
Only `sweep` builds arrays, so only `sweep` imports numpy, once its
arguments are accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from math import inf, sqrt
from typing import Mapping

from .device import (
    GeneratorDesign,
    OperatingPoint,
    evaluate,
    evaluate_columns,
    generator_thermal_resistance,
)
from .errors import NumericalError, ParameterError, TegkitError

SWEEPABLE_PARAMETERS = (
    "leg_length",
    "fill_factor",
    "contact_resistivity",
    "interface_resistance",
    "dt_meas",
)
#: Most points one sweep may hold. The curve keeps nine float64 arrays (the
#: values and eight distinct columns; q_hot and q_cold are one array), 72
#: bytes per point; `emit_curve` writes a block of rows at a time, so a
#: 10^6-point CLI sweep peaks at 107 MB RSS (2-CPU Xeon, numpy 2.4).
MAX_POINTS = 10**6

_POINT_FIELDS = tuple(f.name for f in fields(OperatingPoint))


@dataclass(frozen=True, eq=False)  # == on arrays would not give a bool
class SweepCurve:
    """One evaluated parameter sweep, as columns ordered by parameter value.

    values holds the swept parameter's values; columns holds one column per
    `OperatingPoint` field, in field order, as `evaluate_columns` returns
    them. Each is a read-only float64 array. `points` converts the same
    numbers to Python floats, as (value, OperatingPoint) records, on each
    access.
    """

    parameter: str
    values: np.ndarray
    columns: tuple[np.ndarray, ...]

    def column(self, name: str) -> np.ndarray:
        """The `OperatingPoint` field `name` at every point."""
        return self.columns[_POINT_FIELDS.index(name)]

    @property
    def points(self) -> tuple[tuple[float, OperatingPoint], ...]:
        columns = (column.tolist() for column in self.columns)
        return tuple(zip(self.values.tolist(), map(OperatingPoint, *columns)))


@dataclass(frozen=True)
class OptimizationResult:
    best_value: float
    best_point: OperatingPoint
    iterations: int  # always 0: the optimum is closed form


@dataclass(frozen=True)
class ComparisonTable:
    """Per-design operating points plus pairwise power-density ratios."""

    dt_meas: float
    rows: tuple[tuple[str, OperatingPoint], ...]

    def point(self, name: str) -> OperatingPoint:
        for row_name, op in self.rows:
            if row_name == name:
                return op
        raise KeyError(name)

    def density_ratio(self, a: str, b: str) -> float:
        """a's power density over b's: ParameterError names b if its density is 0
        (as at dt_meas = 0); a ratio beyond the float range raises NumericalError."""
        denominator = self.point(b).power_density
        if denominator == 0:
            raise ParameterError(
                f"design {b!r} has zero power density at dt_meas = "
                f"{self.dt_meas:g} K; density ratios are undefined"
            )
        ratio = self.point(a).power_density / denominator
        if not ratio < inf:
            raise NumericalError(f"power density ratio {a}/{b} is beyond the float range")
        return ratio

    def ratios(self) -> dict[str, float]:
        out = {}
        for a, _ in self.rows:
            for b, _ in self.rows:
                if a != b:
                    out[f"{a}/{b}"] = self.density_ratio(a, b)
        return out


def _check_dt_meas(dt_meas: float) -> None:
    # once up front, so the error does not blame a sweep point or a design
    if not 0 <= dt_meas < inf:
        raise ParameterError("dt_meas must be finite and >= 0")


def _evaluate_at(
    design: GeneratorDesign, dt_meas: float, parameter: str, value: float
) -> OperatingPoint:
    if parameter == "dt_meas":
        return evaluate(design, value)
    return evaluate(replace(design, **{parameter: value}), dt_meas)


def sweep(
    design: GeneratorDesign,
    dt_meas: float,
    parameter: str,
    lo: float,
    hi: float,
    n_points: int,
    spacing: str = "linear",
) -> SweepCurve:
    """Evaluate the design at n_points (2 to MAX_POINTS) values of one parameter.

    All other parameters, including dt_meas unless it is the swept one, are
    held at the supplied values. Deterministic: identical inputs give
    identical curves.
    """
    if parameter not in SWEEPABLE_PARAMETERS:
        raise ParameterError(
            f"unknown sweep parameter {parameter!r}; "
            f"choose from {', '.join(SWEEPABLE_PARAMETERS)}"
        )
    if not -inf < lo < hi < inf:
        raise ParameterError("sweep requires finite bounds with lo < hi")
    _check_dt_meas(dt_meas)
    if n_points < 2:
        raise ParameterError("n_points must be >= 2")
    if n_points > MAX_POINTS:
        raise ParameterError(f"n_points must be <= {MAX_POINTS}, got {n_points}")
    if spacing not in ("linear", "log"):
        raise ParameterError(f"spacing must be 'linear' or 'log', got {spacing!r}")
    if spacing == "log" and not lo > 0:
        raise ParameterError("log spacing requires lo > 0")
    import numpy as np

    if spacing == "log":
        values = np.geomspace(lo, hi, n_points)
    else:
        values = np.linspace(lo, hi, n_points)
    valid, columns = evaluate_columns(design, dt_meas, parameter, values)
    # The scalar path raises at the first point the model rejects, with the
    # error and message that point has always produced, led by the point.
    for v in values[~valid].tolist():
        try:
            _evaluate_at(design, dt_meas, parameter, v)
        except TegkitError as exc:
            exc.args = (f"{parameter} = {v:g}: {exc}",)
            raise
    for array in (values, *columns):
        array.flags.writeable = False
    return SweepCurve(parameter, values, columns)


def optimize_leg_length(
    design: GeneratorDesign, dt_meas: float, lo: float, hi: float
) -> OptimizationResult:
    """Maximize matched-load power over leg length in [lo, hi], exactly.

    Matched power goes as L^2 / ((L + a)^2 (L + b)), with a = K A_dev
    lambda_eff and b = 4 rho_c / (rho_p + rho_n). Derivation:
    d ln P / dL = 2/L - 2/(L + a) - 1/(L + b) = 0 gives L^2 - a L - 2 a b = 0,
    whose only positive root is L* = (a + sqrt(a^2 + 8 a b)) / 2.
    Power rises below L* and falls above it, so the bracketed optimum is L*
    clipped to [lo, hi]. With b = 0, L* = a is the thermal match R_G = K.
    """
    if not 0 < lo < hi < inf:
        raise ParameterError("bracket requires 0 < lo < hi < inf")
    # A_dev lambda_eff = L / R_G, so the conduction formula stays in device.py
    r_gen = generator_thermal_resistance(design)
    a = design.interface_resistance * design.leg_length / r_gen
    b = 4 * design.contact_resistivity / (
        design.p_material.resistivity + design.n_material.resistivity
    )
    best = min(max((a + sqrt(a * a + 8 * a * b)) / 2, lo), hi)
    return OptimizationResult(
        best_value=best,
        best_point=_evaluate_at(design, dt_meas, "leg_length", best),
        iterations=0,
    )


def compare_designs(
    designs: Mapping[str, GeneratorDesign], dt_meas: float
) -> ComparisonTable:
    """Evaluate named designs at a common dt_meas; an error is led by its design."""
    if len(designs) < 2:
        raise ParameterError("compare_designs requires at least 2 designs")
    _check_dt_meas(dt_meas)
    rows = []
    for name, design in designs.items():
        try:
            rows.append((name, evaluate(design, dt_meas)))
        except TegkitError as exc:
            exc.args = (f"design {name!r}: {exc}",)
            raise
    return ComparisonTable(dt_meas=dt_meas, rows=tuple(rows))
