"""Reference model behind the benchmark's correctness checks.

An independent numpy implementation of the formulas in PAPER.md: the
thermal divider, Seebeck source and matched load of the generator model,
Faraday growth from the integer count of pulse-on steps, Sand's time, and
the surface response of the explicit diffusion scheme. It imports nothing
from tegkit; material data and bath constants arrive as plain numbers.
"""

import math

import numpy as np

FARADAY = 96485.33212  # C/mol, CODATA 2018

# Display unit of a config key -> SI factor, as the key suffix names it.
UM, UM2, CM2, OHM_CM2, UV_K, MS, MA_CM2 = 1e-6, 1e-12, 1e-4, 1e-4, 1e-6, 1e-3, 10.0

#: Sweepable tegkit parameter -> key of the design dict below.
SWEEP_KEYS = {
    "leg_length": "leg_length",
    "fill_factor": "fill_factor",
    "contact_resistivity": "rho_c",
    "interface_resistance": "k_if",
}


def design_from_doc(doc: dict, material) -> dict:
    """SI design dict from a config document.

    `material(name)` returns (seebeck V/K, resistivity ohm m, thermal
    conductivity W/(m K)) of a preset.
    """
    d = doc["design"]
    p, n, m = (material(d[k]) for k in ("p_material", "n_material", "matrix_material"))
    return {
        "leg_length": d["leg_length_um"] * UM,
        "leg_area": d["leg_area_um2"] * UM2,
        "fill_factor": d["fill_factor"],
        "device_area": d.get("device_area_cm2", 1.0) * CM2,
        "alpha_p": p[0], "alpha_n": n[0],
        "rho_p": p[1], "rho_n": n[1],
        "lam_p": p[2], "lam_n": n[2], "lam_m": m[2],
        "rho_c": d["contact_resistivity_ohm_cm2"] * OHM_CM2,
        "k_if": d["interface_resistance_K_W"],
    }


def operating_points(d: dict, dt_meas) -> dict:
    """Model outputs; any entry of `d`, and `dt_meas`, may be an array."""
    f = d["fill_factor"]
    lam = f * (d["lam_p"] + d["lam_n"]) / 2 + (1 - f) * d["lam_m"]
    r_gen = d["leg_length"] / (d["device_area"] * lam)
    dt_gen = dt_meas * r_gen / (r_gen + d["k_if"])
    couples = f * d["device_area"] / (2 * d["leg_area"])
    v_oc = couples * (d["alpha_p"] - d["alpha_n"]) * dt_gen
    r_i = couples * ((d["rho_p"] + d["rho_n"]) * d["leg_length"] + 4 * d["rho_c"]) / d["leg_area"]
    p = v_oc**2 / (4 * r_i)
    density = p / d["device_area"]
    q = dt_gen / r_gen
    return {
        "dt_gen": dt_gen, "v_oc": v_oc, "r_internal": r_i, "p_matched": p,
        "power_density": density, "q_hot": q, "q_cold": q,
        "eff_factor": density / np.square(dt_meas),
    }


def sweep_values(lo: float, hi: float, n: int, spacing: str) -> np.ndarray:
    return np.geomspace(lo, hi, n) if spacing == "log" else np.linspace(lo, hi, n)


def sweep(d: dict, dt_meas: float, parameter: str, values: np.ndarray) -> dict:
    if parameter == "dt_meas":
        return operating_points(d, values)
    return operating_points({**d, SWEEP_KEYS[parameter]: values}, dt_meas)


def optimum_leg_length(d: dict, dt_meas: float, lo: float, hi: float) -> float:
    """Leg length of maximum matched power on [lo, hi], by dense grid.

    A 20001-point grid, refined once around its best point, so the grid
    step ends far below the 0.1 um the optimizer is held to.
    """
    for _ in range(2):
        grid = np.linspace(lo, hi, 20001)
        i = int(np.argmax(operating_points({**d, "leg_length": grid}, dt_meas)["p_matched"]))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    return float(grid[i])


def closed_form_optimum(d: dict) -> float:
    """Unconstrained optimum L* = (a + sqrt(a^2 + 8ab)) / 2.

    Matched power goes as L^2 / ((L + a)^2 (L + b)) with a = K A_dev lam_eff
    and b = 4 rho_c / (rho_p + rho_n).
    """
    f = d["fill_factor"]
    lam = f * (d["lam_p"] + d["lam_n"]) / 2 + (1 - f) * d["lam_m"]
    a = d["k_if"] * d["device_area"] * lam
    b = 4 * d["rho_c"] / (d["rho_p"] + d["rho_n"])
    return (a + math.sqrt(a * a + 8 * a * b)) / 2


def couple_seebeck(d: dict, dt_meas: float, target_density: float) -> float:
    """alpha_p - alpha_n that gives `target_density` at `dt_meas`."""
    unit = operating_points({**d, "alpha_p": 0.5, "alpha_n": -0.5}, dt_meas)
    return math.sqrt(target_density / unit["power_density"])


def pulse_on_steps(n_steps: int, n_on: int, n_period: int) -> int:
    """Pulse-on steps among the first n_steps of an integer schedule."""
    full, rest = divmod(n_steps, n_period)
    return full * n_on + min(rest, n_on)


def faraday_thickness(on_steps, dt, j_pulse, molar_mass, n_e, density):
    """Deposit thickness, m, after `on_steps` pulse steps at 100% efficiency."""
    return on_steps * dt * j_pulse * molar_mass / (n_e * FARADAY * density)


def sand_time(c_bulk, diffusivity, n_e, j):
    """tau = pi D (n_e F c)^2 / (4 j^2)."""
    return math.pi * diffusivity * (n_e * FARADAY * c_bulk) ** 2 / (4 * j * j)


def surface_deficit(grid: int, depth: float, diffusivity: float, dt: float, n: int) -> np.ndarray:
    """Surface concentration drop per unit flux after k = 0..n steps.

    The explicit scheme is linear: from a uniform bulk profile held at the
    mold mouth, a constant surface flux phi lowers the surface node by
    exactly phi * g[k] after k steps. g is computed on the deviation from
    bulk, with the mouth deviation held at zero.
    """
    dx = depth / (grid - 1)
    r = diffusivity * dt / (dx * dx)
    u = np.zeros(grid)
    g = np.zeros(n + 1)
    for k in range(1, n + 1):
        lap = np.empty(grid)
        lap[1:-1] = u[2:] - 2 * u[1:-1] + u[:-2]
        lap[0] = 2 * (u[1] - u[0])
        lap[-1] = 0.0
        u = u + r * lap
        u[0] += 2 * dt / dx
        g[k] = u[0]
    return g


def depletion_step(c_bulk: float, flux: float, deficit: np.ndarray):
    """First step k at which c_bulk - flux * g[k] < 0, or None."""
    hit = np.nonzero(c_bulk - flux * deficit < 0)[0]
    return int(hit[0]) if hit.size else None


def rel_err(value: float, reference: float) -> float:
    if value == reference:
        return 0.0
    return abs(value - reference) / max(abs(reference), 1e-300)
