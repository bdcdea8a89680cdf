"""Input generation and checks shared by the workloads.

Every input comes from a `random.Random(seed)` stream. Continuous draws are
stratified within each cycle of tasks (one draw per equal-width stratum,
in seeded order), so that two seeds give different inputs with nearly the
same distribution of task sizes.
"""

import copy
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

SHIPPED_DESIGNS = ("bi2te3_annealed", "bi2te3_as_deposited", "cu_ni")
SHIPPED_ECD = "ecd_pulse_train"
#: Device-model quantities compared against the oracle.
POINT_FIELDS = ("dt_gen", "v_oc", "r_internal", "p_matched", "power_density",
                "q_hot", "q_cold", "eff_factor")
#: Relative tolerance for closed-form outputs.
MODEL_RTOL = 1e-9
#: The optimizer is held to criterion 5's distance from the grid oracle.
OPTIMUM_TOL_M = 0.1e-6


def strata(rng, n: int) -> list:
    """n uniforms in [0, 1), one in each of n equal strata, seeded order."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def log_between(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def child_env(root: Path) -> dict:
    """Environment of a child interpreter that imports tegkit from ./src."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def load_doc(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / f"{name}.json").read_text())


def write_doc(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def variant_doc(rng, base: dict) -> dict:
    """A shipped design with L, F, rho_C, K and leg area redrawn."""
    doc = copy.deepcopy(base)
    d = doc["design"]
    d["leg_length_um"] = log_between(rng.random(), 50.0, 600.0)
    d["fill_factor"] = 0.05 + 0.55 * rng.random()
    d["contact_resistivity_ohm_cm2"] *= 10 ** (2 * rng.random() - 1)
    d["interface_resistance_K_W"] = log_between(rng.random(), 0.5, 10.0)
    d["leg_area_um2"] = log_between(rng.random(), 2500.0, 40000.0)
    return doc


def material_lookup():
    """Preset data for the oracle: name -> (seebeck, resistivity, conductivity)."""
    from tegkit.materials import lookup_material

    def material(name):
        m = lookup_material(name)
        return m.seebeck, m.resistivity, m.thermal_conductivity

    return material


@dataclass
class Outcome:
    """What the check of one task found.

    `layer` carries the work a task did (rows, steps, bytes, ...) for the
    per-layer metrics of a traced run.
    """

    problems: list = field(default_factory=list)
    rel_err: float = 0.0
    points: int = 0  # operating points returned to the caller
    plated_s: float = 0.0  # simulated plating time, up to an abort
    tags: tuple = ()
    layer: dict = field(default_factory=dict)


@dataclass
class Bath:
    """Bath and mold numbers the deposition oracle needs (SI)."""

    c_bulk: float
    diffusivity: float
    n_e: float
    molar_mass: float
    density: float
    mold_depth: float


@dataclass
class PlanSpec:
    """A pulse plan on an integer schedule; every time is a multiple of dt."""

    grid: int
    dt: float
    n_on: int
    n_off: int
    n_steps: int
    j_pulse: float  # A/m2
    record_every: int
    depletes: bool
    depletion_step: int | None = None

    @property
    def n_period(self) -> int:
        return self.n_on + self.n_off


# (grid points, dt) pairs on the 300 um mold, all inside the CFL bound.
GRID_DT = ((61, 5e-3), (61, 2e-3), (101, 2e-3), (101, 1e-3),
           (151, 1e-3), (151, 5e-4), (201, 5e-4), (201, 2e-4))


def cfl_ratio(bath: Bath, grid: int, dt: float) -> float:
    dx = bath.mold_depth / (grid - 1)
    return bath.diffusivity * dt / (dx * dx)


def safe_pulse_current(rng, bath: Bath, t_pulse: float, duty: float) -> float:
    """A pulse current that keeps the surface well away from depletion.

    Both the drop of one pulse on a semi-infinite layer, 2 phi
    sqrt(t / (pi D)), and the steady drop of the mean flux across the mold,
    phi duty L / D, stay below 30% of the bulk concentration.
    """
    c, d = bath.c_bulk, bath.diffusivity
    by_pulse = (0.15 + 0.15 * rng.random()) * c * math.sqrt(math.pi * d / t_pulse) / 2
    by_mean = (0.1 + 0.2 * rng.random()) * c * d / (bath.mold_depth * duty)
    return min(by_pulse, by_mean) * bath.n_e * oracle.FARADAY


def depleting_pulse_current(rng, bath: Bath, t_pulse: float) -> float:
    """A pulse current whose Sand time is 1/4 to 1/9 of t_pulse."""
    m = 2.0 + rng.random()
    phi = m * bath.c_bulk * math.sqrt(math.pi * bath.diffusivity / t_pulse) / 2
    return phi * bath.n_e * oracle.FARADAY


def flux(bath: Bath, j: float) -> float:
    return j / (bath.n_e * oracle.FARADAY)


def check_deposit(spec: PlanSpec, bath: Bath, times, thickness, surface,
                  final_thickness, min_surface, problems: list) -> float:
    """Check a completed run against the integer-schedule reference.

    `times`, `thickness` and `surface` are the recorded series. Returns the
    relative deviation of the final thickness from Faraday's law on the
    integer pulse-on step count. A run fails when a record is off by more
    than one step per pulse edge, or the series are inconsistent.
    """
    dt, per_step = spec.dt, oracle.faraday_thickness(
        1, spec.dt, spec.j_pulse, bath.molar_mass, bath.n_e, bath.density)
    steps = list(range(0, spec.n_steps + 1, spec.record_every))
    if steps[-1] != spec.n_steps:
        steps.append(spec.n_steps)
    if len(times) != len(steps):
        problems.append(f"{len(times)} records, expected {len(steps)}")
        return math.inf
    before = len(problems)
    for k, t, th, cs in zip(steps, times, thickness, surface):
        if not all(math.isfinite(x) for x in (t, th, cs)):
            problems.append(f"non-finite record at step {k}")
            return math.inf
        ref = per_step * oracle.pulse_on_steps(k, spec.n_on, spec.n_period)
        edges = 2 * -(-k // spec.n_period)
        if abs(th - ref) > edges * per_step * (1 + 1e-9):
            problems.append(f"thickness at step {k} is {abs(th - ref) / per_step:.3g} "
                            "pulse steps off, more than one per pulse edge")
        if abs(t - k * dt) > 1e-9 * max(k * dt, dt):
            problems.append(f"record time {t!r} is not {k} dt")
        if not 0 <= cs <= bath.c_bulk * (1 + 1e-12):
            problems.append(f"surface concentration {cs!r} outside [0, c_bulk]")
        if len(problems) > before:
            return math.inf
    if any(b < a for a, b in zip(thickness, thickness[1:])):
        problems.append("thickness series decreases")
    if final_thickness != thickness[-1]:
        problems.append("final thickness differs from the last record")
    if not 0 <= min_surface <= min(surface):
        problems.append(f"min surface concentration {min_surface!r} inconsistent")
    return oracle.rel_err(final_thickness, ref)


def check_abort(spec: PlanSpec, time_s: float, problems: list) -> float:
    """Check a DepletionError time against the reference step."""
    if not 0 < time_s <= spec.n_steps * spec.dt * (1 + 1e-12):
        problems.append(f"abort at {time_s!r} s lies outside the run")
        return math.inf
    ref = spec.depletion_step * spec.dt
    if abs(time_s - ref) > spec.dt * (1 + 1e-9):
        problems.append(f"abort at {time_s!r} s, reference {ref!r} s")
    return oracle.rel_err(time_s, ref)


def compare_points(rows: list, ref: dict, problems: list, label: str) -> float:
    """Largest relative deviation of operating points from the oracle.

    `rows` are mappings with the POINT_FIELDS keys; `ref` holds the oracle
    values, scalars or arrays aligned with `rows`.
    """
    worst = 0.0
    for name in POINT_FIELDS:
        got = np.array([row[name] for row in rows], dtype=float)
        if not np.all(np.isfinite(got)):
            problems.append(f"{label}: non-finite {name}")
            return math.inf
        expected = np.broadcast_to(np.asarray(ref[name], dtype=float), got.shape)
        err = np.abs(got - expected) / np.maximum(np.abs(expected), 1e-300)
        w = float(err.max())
        worst = max(worst, w)
        if w > MODEL_RTOL:
            i = int(err.argmax())
            problems.append(f"{label}: {name} = {got[i]!r}, reference {expected[i]!r}")
    return worst


def csv_rows(path: Path) -> tuple:
    """(data rows, bytes) of an emitted CSV; the header is not a row."""
    data = path.read_bytes()
    return data.count(b"\n") - 1, len(data)
