"""Pulsed electrochemical deposition of Bi(2+x)Te(3-x) into SU-8 molds.

Galvanostatic pulse trains only. Growth follows Faraday's law at 100%
current efficiency; ion transport inside the high-aspect-ratio mold is pure
1-D diffusion (convection reaches only the mold mouth, which a stirred
reservoir holds at the bulk concentration). Pulses draw a fixed ion flux at
the deposit surface; pauses let the depleted layer relax.

electrons_per_formula converts charge both to deposited formula units
(default 18 e per Bi2Te3) and to ion flux at the surface. When tracking the
depletion of a single species, set it to that ion's electron count (4 for
HTeO2+); the two uses are not simultaneously exact for a compound deposit.

The pulse schedule is integer: t_pulse, t_pause and total_time must each be
a whole number of time steps dt (to a relative 1e-9), or simulate_diffusion
raises a ParameterError naming the field. Step k (from 0) is a pulse step
when k mod (n_on + n_off) < n_on, and the deposit grows by one step's
Faraday thickness per pulse step, so a run delivers exactly the charge
j_pulse * dt per pulse step.

The solver is the explicit FTCS scheme of diffusion_step, propagated in
closed form rather than step by step. On the deviation u from the bulk
concentration, the n = grid - 1 nodes below the mouth evolve under a fixed
tridiagonal operator (ghost-node flux condition at the deposit, Dirichlet
at the mouth) whose eigenpairs are known exactly: theta_j = (j + 1/2) pi / n,
lambda_j = 1 - 4 r sin^2(theta_j / 2), eigenvector cos(theta_j i), with
r = D dt / dx^2. A pulse step adds sigma = -2 dt phi / dx to node 0 alone
(phi the surface ion flux), which is sigma / n on every mode. In modal
coordinates each step is therefore the diagonal affine map
a <- lambda * a + on_k sigma / n, and the surface value is sum_j a_j. Over
a block of up to B = _BLOCK steps the surface series is one matvec against
the power table lambda^1..lambda^B plus the convolution of the block's
on/off pattern with g(q) = sum_j lambda_j^q; the final profile is the
inverse cosine transform of the modal state. The results equal the step
loop's up to rounding, depletion included: the first block row below zero
gives the same DepletionError step. diffusion_step stays as the reference
the tests hold this solver to.

Only the functions that build arrays import numpy, and simulate_diffusion
only once its arguments are accepted, so the analytic helpers (sand_time,
faraday_growth_rate, time_to_thickness), the plan and bath records and
every rejected run need no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isqrt, pi

from . import constants
from .errors import (
    DepletionError,
    ExtrapolationError,
    InvariantError,
    NumericalError,
    ParameterError,
    StabilityError,
)
from .materials import StoichiometryRatio


@dataclass(frozen=True)
class PulsePlan:
    """Galvanostatic pulse train. j_pulse is the magnitude during pulses."""

    t_pulse: float  # s
    t_pause: float  # s
    j_pulse: float  # A/m2
    total_time: float  # s

    def __post_init__(self):
        if not 0 < self.t_pulse < inf:
            raise InvariantError("t_pulse must be finite and > 0")
        if not 0 <= self.t_pause < inf:
            raise InvariantError("t_pause must be finite and >= 0")
        if not 0 <= self.j_pulse < inf:
            raise InvariantError("j_pulse must be finite and >= 0")
        if not 0 < self.total_time < inf:
            raise InvariantError("total_time must be finite and > 0")

    @property
    def period(self) -> float:
        return self.t_pulse + self.t_pause

    @property
    def duty(self) -> float:
        return self.t_pulse / self.period


@dataclass(frozen=True)
class BathSpec:
    """Electrolyte composition and transport (acidic nitrate bath)."""

    c_teo2: float = constants.BATH_C_TEO2  # mol/m3, HTeO2+ from dissolved O2Te
    c_bi2o3: float = 40.0  # mol/m3 dissolved Bi2O3
    diffusivity: float = constants.DEFAULT_DIFFUSIVITY  # m2/s
    electrons_per_formula: float = constants.BI2TE3_ELECTRONS_PER_FORMULA
    molar_mass: float = constants.BI2TE3_MOLAR_MASS  # kg/mol
    density: float = constants.BI2TE3_DENSITY  # kg/m3

    def __post_init__(self):
        for field_name in (
            "c_teo2",
            "c_bi2o3",
            "diffusivity",
            "electrons_per_formula",
            "molar_mass",
            "density",
        ):
            if not 0 < getattr(self, field_name) < inf:
                raise InvariantError(f"{field_name} must be finite and > 0")


@dataclass(frozen=True)
class DepositState:
    """Result of one deposition simulation."""

    thickness: float  # m, final deposit thickness
    growth_rate: float  # m/s, average over the run
    composition: StoichiometryRatio | None  # None if bath outside the map
    min_surface_conc: float  # mol/m3, minimum seen at the deposit surface
    profile: np.ndarray  # mol/m3, final concentration on the grid, surface first
    times: np.ndarray  # s, recorded instants
    thickness_series: np.ndarray  # m, thickness at `times`
    surface_conc_series: np.ndarray  # mol/m3, surface concentration at `times`


def faraday_growth_rate(j_avg: float, bath: BathSpec) -> float:
    """Deposit growth speed, m/s, for an average current density j_avg."""
    if j_avg < 0:
        raise ParameterError("j_avg must be >= 0")
    return j_avg * bath.molar_mass / (
        bath.electrons_per_formula * constants.FARADAY * bath.density
    )


def time_to_thickness(target: float, plan: PulsePlan, bath: BathSpec) -> float:
    """Seconds of pulsed plating needed to reach `target` thickness."""
    if target < 0:
        raise ParameterError("target must be >= 0")
    if target == 0:
        return 0.0
    rate = faraday_growth_rate(plan.j_pulse * plan.duty, bath)
    if not rate > 0:
        raise ParameterError("effective growth rate is zero")
    return target / rate


def sand_time(c_bulk: float, diffusivity: float, n_e: float, j: float) -> float:
    """Depletion time of a constant-current, semi-infinite diffusion layer.

    tau = pi D (n_e F c)^2 / (4 j^2); a pulse shorter than tau keeps the
    surface concentration positive in the analytic model. A tau beyond the
    float range (a square overflows or underflows, or tau rounds to 0 or
    inf) raises NumericalError.
    """
    for name, v in (("c_bulk", c_bulk), ("diffusivity", diffusivity),
                    ("n_e", n_e), ("j", j)):
        if not v > 0:
            raise ParameterError(f"{name} must be > 0")
    try:
        tau = pi * diffusivity * (n_e * constants.FARADAY * c_bulk) ** 2 / (4 * j**2)
    except (OverflowError, ZeroDivisionError):
        tau = inf
    if not 0 < tau < inf:
        raise NumericalError(
            f"sand_time is beyond the float range (c_bulk = {c_bulk:g} mol/m3, "
            f"diffusivity = {diffusivity:g} m2/s, n_e = {n_e:g}, j = {j:g} A/m2)"
        )
    return tau


def stoichiometry_from_bath(c_bi2o3: float) -> StoichiometryRatio:
    """Deposit Te:Bi ratio from the bath's Bi2O3 concentration, mol/m3.

    Piecewise-linear through the measured anchors: 20 -> 2.1 (Te rich),
    40 -> 1.5 (recipe boundary), 60 -> 0.8 (Bi rich). Monotone decreasing.
    """
    if not constants.BATH_C_BI2O3_MIN <= c_bi2o3 <= constants.BATH_C_BI2O3_MAX:
        raise ExtrapolationError(
            f"c_bi2o3 = {c_bi2o3:g} mol/m3 outside the mapped window "
            f"[{constants.BATH_C_BI2O3_MIN:g}, {constants.BATH_C_BI2O3_MAX:g}]"
        )
    import numpy as np

    ratio = float(
        np.interp(
            c_bi2o3,
            [constants.BATH_C_BI2O3_MIN, 40.0, constants.BATH_C_BI2O3_MAX],
            [constants.STOICH_TE_RICH, constants.STOICH_BALANCED,
             constants.STOICH_BI_RICH],
        )
    )
    return StoichiometryRatio(ratio)


def diffusion_step(
    profile: np.ndarray,
    r: float,
    dx: float,
    dt: float,
    surface_consumption: float,
    mouth_concentration: float | None,
) -> np.ndarray:
    """One explicit FTCS step on a 1-D concentration profile.

    Index 0 is the deposit surface with a ghost-node flux condition drawing
    `surface_consumption` mol/(m2 s). The last node is held at
    `mouth_concentration` (stirred reservoir) or, when None, is a zero-flux
    wall (closed test cell; conserves trapezoid mass exactly).
    """
    import numpy as np

    new = np.empty_like(profile)
    new[1:-1] = profile[1:-1] + r * (
        profile[2:] - 2 * profile[1:-1] + profile[:-2]
    )
    new[0] = (
        profile[0]
        + 2 * r * (profile[1] - profile[0])
        - 2 * dt * surface_consumption / dx
    )
    if mouth_concentration is None:
        new[-1] = profile[-1] + 2 * r * (profile[-2] - profile[-1])
    else:
        new[-1] = mouth_concentration
    return new


#: Steps per block of the modal propagation, the rows of its power table.
_BLOCK = 256
#: Relative tolerance for a plan time to count as a whole number of steps.
_SCHEDULE_RTOL = 1e-9
#: Most steps one run may take. At about 0.4 us per step a run this long
#: takes about 40 s; it is about twice the 15 h mold fill at dt = 1 ms. A
#: longer run would look like a hang, so it is refused before it starts.
MAX_STEPS = 10**8


def _step_counts(plan: PulsePlan, dt: float) -> tuple[int, int, int]:
    """(n_on, n_off, n_steps): the plan's times as whole numbers of steps."""
    counts = []
    for name in ("t_pulse", "t_pause", "total_time"):
        t = getattr(plan, name)
        n = round(t / dt)
        if abs(n * dt - t) > _SCHEDULE_RTOL * t:
            raise ParameterError(
                f"{name} = {t!r} s is not a whole number of time steps "
                f"dt = {dt!r} s"
            )
        counts.append(n)
    n_on, n_off, n_steps = counts
    # A pulse or pause longer than the run changes no step's pulse flag once
    # cut to the run (n_on >= 1), and keeps the period a machine-size int.
    return min(n_on, n_steps), min(n_off, n_steps), n_steps


def _pulse_steps(steps: np.ndarray, n_on: int, n_period: int) -> np.ndarray:
    """Pulse-on steps among the first `steps` of the integer schedule."""
    import numpy as np

    full, rest = np.divmod(steps, n_period)
    return full * n_on + np.minimum(rest, n_on)


def _propagate(lam, source, c_bulk, n_on, n_period, n_steps, record_every):
    """Run the modal recursion a <- lam * a + on_k * source from a = 0.

    Returns (a, min_surface, recorded surface values, None) for a run that
    ends, or (None, None, None, step) for one whose surface concentration
    first goes negative at `step` (1-based). The power table lives only in
    this frame, so a caller that raises DepletionError holds no large array.
    """
    import numpy as np

    n = lam.size
    rows = min(_BLOCK, n_steps)
    powers = np.empty((rows + 1, n))  # powers[k] = lam**k
    powers[0] = 1.0
    np.cumprod(np.broadcast_to(lam, (rows, n)), axis=0, out=powers[1:])
    # Surface response q steps after one unit source step: sum_j lam_j**q.
    response = powers[:rows].sum(axis=1)
    offsets = np.arange(rows)
    a = np.zeros(n)
    min_surface = c_bulk
    records = []
    start = 0
    while start < n_steps:
        m = min(rows, n_steps - start)
        # Pulse flags of steps start + m - 1 down to start, newest first.
        on_rev = ((start + m - 1 - offsets[:m]) % n_period < n_on).astype(float)
        # surface[k] is the surface concentration after step start + k + 1.
        free = powers[1 : m + 1] @ a
        if on_rev.any():
            forced = np.convolve(on_rev[::-1], response[:m])[:m]
            surface = c_bulk + (free + source * forced)
            a = powers[m] * a + source * (on_rev @ powers[:m])
        else:
            surface = c_bulk + free
            a = powers[m] * a
        low = surface.min()
        if low < 0:
            return None, None, None, start + 1 + int(np.argmax(surface < 0))
        min_surface = min(min_surface, float(low))
        records.append(surface[-(start + 1) % record_every :: record_every])
        if m == n_steps - start and n_steps % record_every:
            records.append(surface[-1:])
        start += m
    return a, min_surface, records, None


def _profile(a: np.ndarray, c_bulk: float) -> np.ndarray:
    """Concentration on all grid nodes from the modal state, mouth included.

    Node i of n is sum_j a_j cos((2j + 1) i pi / (2n)). With i = i0 + d,
    i0 a multiple of w ~ sqrt(n) and 0 <= d < w, the angle-sum identity
    turns the n x n cosine basis into two products of (n / w) x n and
    n x w factors; the coarse angles are reduced exactly in integers.
    """
    import numpy as np

    n = a.size
    w = isqrt(n)
    odd = 2 * np.arange(n) + 1
    scale = pi / (2 * n)
    coarse = (np.outer(np.arange(0, n, w), odd) % (4 * n)) * scale
    fine = np.outer(np.arange(w), odd) * scale
    u = (np.cos(coarse) * a) @ np.cos(fine).T - (np.sin(coarse) * a) @ np.sin(fine).T
    out = np.full(n + 1, c_bulk)
    out[:n] += u.ravel()[:n]
    return out


def simulate_diffusion(
    mold_depth: float,
    bath: BathSpec,
    plan: PulsePlan,
    grid: int,
    dt: float,
    record_every: int = 1,
) -> DepositState:
    """Run the pulse train and return the deposit state.

    Explicit scheme; dt must satisfy dt <= 0.5 dx^2 / D or the run is
    rejected, the plan's times must be whole numbers of steps, and the run
    may take at most MAX_STEPS steps. The surface concentration is never
    clamped: a step that would drive it negative aborts with a
    DepletionError carrying that time.
    """
    if not 0 < mold_depth < inf:
        raise ParameterError("mold_depth must be finite and > 0")
    if grid < 16:
        raise ParameterError("grid must be >= 16")
    if not 0 < dt < inf:
        raise ParameterError("dt must be finite and > 0")
    if record_every < 1:
        raise ParameterError("record_every must be >= 1")

    dx = mold_depth / (grid - 1)
    dt_limit = 0.5 * dx * dx / bath.diffusivity
    if dt > dt_limit:
        raise StabilityError(
            f"dt = {dt:g} s exceeds the stability bound 0.5 dx^2 / D = "
            f"{dt_limit:g} s (grid {grid}, depth {mold_depth:g} m)"
        )
    n_on, n_off, n_steps = _step_counts(plan, dt)
    if n_steps > MAX_STEPS:
        raise ParameterError(
            f"total_time / dt = {n_steps} steps exceeds the {MAX_STEPS} steps "
            f"one run may take (total_time = {plan.total_time!r} s, dt = {dt!r} s)"
        )
    import numpy as np

    r = bath.diffusivity * dt / (dx * dx)
    n = grid - 1
    lam = 1.0 - 4.0 * r * np.sin((np.arange(n) + 0.5) * (pi / (2 * n))) ** 2
    consumption = plan.j_pulse / (bath.electrons_per_formula * constants.FARADAY)
    source = -2 * dt * consumption / dx / n
    a, min_surface, records, depleted = _propagate(
        lam, source, bath.c_teo2, n_on, n_on + n_off, n_steps, record_every
    )
    if depleted is not None:
        raise DepletionError(depleted * dt)

    steps = np.arange(0, n_steps + 1, record_every)
    if n_steps % record_every:
        steps = np.append(steps, n_steps)
    thickness_series = _pulse_steps(steps, n_on, n_on + n_off) * (
        faraday_growth_rate(plan.j_pulse, bath) * dt
    )
    thickness = float(thickness_series[-1])
    c = bath.c_bi2o3
    composition = (
        stoichiometry_from_bath(c)
        if constants.BATH_C_BI2O3_MIN <= c <= constants.BATH_C_BI2O3_MAX
        else None
    )
    return DepositState(
        thickness=thickness,
        growth_rate=thickness / (n_steps * dt),
        composition=composition,
        min_surface_conc=min_surface,
        profile=_profile(a, bath.c_teo2),
        times=steps * dt,
        thickness_series=thickness_series,
        surface_conc_series=np.concatenate([[bath.c_teo2], *records]),
    )
