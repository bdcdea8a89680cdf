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
a <- lambda * a + on_k sigma / n, and the surface value is sum_j a_j.

The pulse train is periodic, so one period of P = n_on + n_off steps is the
affine map a <- mu * a + b with mu = lambda^P, the discrete form of the
pulse-plating analysis of N. Ibl, Surface Technology 10 (1980) 81. Period p
begins in a* (1 - mu^p), a* = b / (1 - mu) being the periodic steady state.
A sweep over the phases of one period, in blocks of up to _BLOCK steps,
gives the surface at each phase from any state at the period's start: a
matvec against the power table lambda^1..lambda^B plus the cumulated pulse
response sum_j lambda_j^q. Step t at phase k has the surface
c_bulk + S*(k) - sum_j a*_j lambda_j^t, S* being the steady state's surface,
so one sweep from a* gives S* at the recorded phases and the records every
R steps are one power series in lambda^R, O(n) each.

For r <= 1/2 the FTCS matrix is entrywise non-negative (the discrete maximum
principle) and a pulse only removes ions, so the surface at a fixed phase
falls from period to period. Hence the lowest surface value of a run lies
in its last P steps, which two sweeps cover (the last full period and the
partial one after it), and the periods holding a negative value are all
those from the first one on: the first is found by bisecting over the
periods before the last, and its sweep gives the DepletionError step, the
one the step loop depletes at. Any other run ends in the sweep of its final
partial period; a run shorter than one period is that sweep alone, which
also gives its records. The reported minimum also covers every recorded value,
which can come out an ulp apart from a sweep's value at the same phase.
A run costs O(n P log M + n * records) for M periods, with no term for the
step count. The results equal the step loop's up to rounding, and
diffusion_step stays as the reference the tests hold this solver to. The
steady-state series carries a rounding error of about 2^-52 times the sum
of |a*_j|, so a run for which that sum exceeds _STEADY_LIMIT c_bulk is
refused with a NumericalError, unless it depletes in its first period. The
final profile is the inverse cosine transform of the modal state, taken by
one FFT.

The mold fill needs no option: it is the run whose total_time is
time_to_thickness(mold_depth) in whole periods, 10 775 of 5 s for the shipped
plan (5.4e7 steps). At grid 151 and record_every 5000 it takes 5.5-6 ms on a
2-CPU Xeon, the median of 20 warm simulate_diffusion calls. By the comparison
principle a shallower remaining mold only raises the surface, so that run
bounds the fill.

Only the functions that build arrays import numpy, and simulate_diffusion
only once its arguments are accepted, so the analytic helpers (sand_time,
faraday_growth_rate, time_to_thickness), the plan and bath records and
every rejected run need no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import gcd, inf, pi

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
    c_bi2o3: float = constants.BATH_C_BI2O3  # mol/m3 dissolved Bi2O3
    diffusivity: float = constants.DEFAULT_DIFFUSIVITY  # m2/s
    electrons_per_formula: float = constants.BI2TE3_ELECTRONS_PER_FORMULA
    molar_mass: float = constants.BI2TE3_MOLAR_MASS  # kg/mol
    density: float = constants.BI2TE3_DENSITY  # kg/m3

    def __post_init__(self):
        for field in fields(self):
            if not 0 < getattr(self, field.name) < inf:
                raise InvariantError(f"{field.name} must be finite and > 0")


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
    """Deposit growth speed, m/s, for an average current density j_avg.

    A speed beyond the float range raises NumericalError.
    """
    if j_avg < 0:
        raise ParameterError("j_avg must be >= 0")
    denominator = bath.electrons_per_formula * constants.FARADAY * bath.density
    rate = j_avg * bath.molar_mass / denominator if denominator else inf
    if not rate < inf:
        raise NumericalError(
            f"growth rate = {rate:g} m/s is beyond the float range (j_avg = "
            f"{j_avg:g} A/m2, molar_mass = {bath.molar_mass:g} kg/mol, density = "
            f"{bath.density:g} kg/m3, n_e = {bath.electrons_per_formula:g})"
        )
    return rate


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
    charge = n_e * constants.FARADAY * c_bulk
    denominator = 4 * (j * j)
    tau = pi * diffusivity * (charge * charge) / denominator if denominator else inf
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
    # np.interp's formula, bit for bit; an anchor gives its own value
    if c_bi2o3 < constants.BATH_C_BI2O3:
        x0, x1 = constants.BATH_C_BI2O3_MIN, constants.BATH_C_BI2O3
        f0, f1 = constants.STOICH_TE_RICH, constants.STOICH_BALANCED
    else:
        x0, x1 = constants.BATH_C_BI2O3, constants.BATH_C_BI2O3_MAX
        f0, f1 = constants.STOICH_BALANCED, constants.STOICH_BI_RICH
    if c_bi2o3 == x1:
        return StoichiometryRatio(f1)
    return StoichiometryRatio((f1 - f0) / (x1 - x0) * (c_bi2o3 - x0) + f0)


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


#: Phases per block of a period sweep and records per block of the record
#: series: the rows of their power table.
_BLOCK = 256
#: Largest sum of the periodic steady state's modal amplitudes, in units of
#: c_bulk, that the period map accepts. Its surface values carry a rounding
#: error of about 2**-52 times that sum: 1e4 keeps it near 1e-12 c_bulk.
_STEADY_LIMIT = 1e4
#: Relative tolerance for a plan time to count as a whole number of steps.
_SCHEDULE_RTOL = 1e-9
#: Most steps one run may take, about twice the 15 h mold fill at dt = 1 ms.
#: Cost no longer grows with the step count, but a run this long may record
#: every step (a 100-million-row series, about 4 GB) or sweep a period as
#: long as itself, so it is refused until a bound on those two replaces this.
MAX_STEPS = 10**8
#: Most grid points one run may use: dx = 30 nm in the 300 um mold. The
#: power table of `_propagate` holds up to 257 x (grid - 1) floats, about
#: 20 MB here, and each swept phase or record costs O(grid); a larger grid
#: is refused.
MAX_GRID = 10_001


def _step_counts(plan: PulsePlan, dt: float) -> tuple[int, int, int]:
    """(n_on, n_off, n_steps): the plan's times as whole numbers of steps.

    n_steps is inf when total_time / dt overflows the float range.
    """
    counts = []
    for name in ("t_pulse", "t_pause", "total_time"):
        t = getattr(plan, name)
        ratio = t / dt
        # A ratio past the float range is longer than any run: a pulse or
        # pause is cut to the run below, and MAX_STEPS refuses such a run.
        n = round(ratio) if ratio < inf else inf
        if n < inf and abs(n * dt - t) > _SCHEDULE_RTOL * t:
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


def _powers(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the rows of `out` with x**0, x**1, ... by doubling.

    Each row is the product of two earlier ones, so a table of B rows takes
    log2(B) products. The last row, which carries a state from one block to
    the next, comes from pow instead.
    """
    import numpy as np

    last = len(out) - 1  # >= 1
    out[0] = 1.0
    out[1] = x
    done = 1
    while done < last:
        m = min(done, last - done)
        np.multiply(out[1 : m + 1], out[done], out=out[done + 1 : done + 1 + m])
        done += m
    out[last] = x**last
    return out


def _decay(lam: np.ndarray, q: int) -> np.ndarray:
    """1 - lam**q, accurate also where lam**q is within rounding of 1."""
    import numpy as np

    power = lam**q
    out = 1.0 - power
    near = power > 0.5
    out[near] = -np.expm1(q * np.log(np.abs(lam[near])))
    return out


def _propagate(lam, source, c_bulk, n_on, n_period, n_steps, record_every):
    """Run the modal recursion a <- lam * a + on_k * source from a = 0.

    Returns (a, min_surface, series, None) for a run that ends, `series`
    being the surface concentration at steps 0, R, 2R, ... (R = record_every)
    and at the last step, or (None, None, None, step) for one whose surface
    concentration first goes negative at `step` (1-based). The power table
    lives only in this frame, so a caller that raises DepletionError holds no
    large array. A run of more than one period whose steady state the period
    map cannot resolve (see _STEADY_LIMIT) raises NumericalError, unless it
    depletes in its first period. If the last full period holds a negative
    value, bisection finds the first period that does; otherwise the run ends
    in a scan of its final partial period, which for a run of one period is
    the whole run.
    """
    import numpy as np

    if n_on in (n_period, n_steps):
        n_on = n_period = 1  # every step pulses
    last, end = divmod(n_steps - 1, n_period)  # period and phase of the last step
    # Records at steps record_every * i, i >= 1: a power series gives them in
    # a run of more than one period, the final scan in a run of one.
    count = n_steps // record_every if last else 0
    rows = min(_BLOCK, n_period, n_steps)
    # The record series reuses this table; its own would add up to 20 MB at MAX_GRID.
    table = np.empty((max(rows, min(_BLOCK, count)) + 1, lam.size))
    _powers(lam, table[: rows + 1])
    # cum_response[i]: surface response after i + 1 steps of a pulse.
    cum_response = np.cumsum(table[:rows].sum(axis=1))

    def scan(a, length, picks, watch=True):
        """Sweep phases 0 .. length - 1 of a period begun in state a, in
        blocks of `rows`: (state after them, lowest surface value, surface
        deviations at the sorted phases `picks`, None), or, watching for
        depletion, (None, None, None, phase) where the surface first goes
        negative."""
        low, picked = c_bulk, []
        for q0 in range(0, length, rows):
            m = min(rows, length - q0)
            dev = table[1 : m + 1] @ a
            a = table[m] * a
            on = min(max(n_on - q0, 0), m)  # the block's first `on` steps pulse
            if on:
                forced = cum_response[:m].copy()
                forced[on:] -= cum_response[: m - on]
                dev += source * forced
                a += source * table[m - on : m].sum(axis=0)
            if watch:
                surface = c_bulk + dev
                low = min(low, float(surface.min()))
                if low < 0:
                    return None, None, None, q0 + int(np.argmax(surface < 0))
            lo, hi = np.searchsorted(picks, (q0, q0 + m))
            picked.append(dev[picks[lo:hi] - q0])
        return a, low, np.concatenate(picked), None

    nothing = np.empty(0, int)
    a, low = np.zeros(lam.size), c_bulk
    if last:
        # One period from state a is a <- mu * a + b, mu = lam**n_period, so
        # period p begins in a* (1 - mu**p), a* = b / (1 - mu) being the
        # periodic steady state.
        with np.errstate(divide="ignore", invalid="ignore"):
            b = source * lam ** (n_period - n_on) * _decay(lam, n_on) / (1.0 - lam)
            a_star = b / _decay(lam, n_period)
        steady_sum = float(np.abs(a_star).sum())
        if not steady_sum <= _STEADY_LIMIT * c_bulk:
            below = scan(a, n_period, nothing)[3]
            if below is not None:
                return None, None, None, below + 1
            raise NumericalError(
                f"the pulse train's periodic steady state is beyond the period "
                f"map: its modes sum to {steady_sum:.3g} mol/m3, over "
                f"{_STEADY_LIMIT:g} times c_bulk = {c_bulk:g} mol/m3 (the mean "
                "current drains far more than the mold holds, or dt is too short "
                "for the slowest mode to decay in floating point)"
            )

        def start(p):
            return a_star * _decay(lam, p * n_period)

        # The surface at a fixed phase only falls from period to period, so
        # the lowest value of the run lies in its last n_period steps, and
        # the periods holding a negative value are all those from the first
        # one on: bisect for the first.
        a, low, _, below = scan(start(last - 1), n_period, nothing)
        if below is not None:
            clean, at = -1, last - 1  # no value of period `clean` is negative, one of `at` is
            while at - clean > 1:
                mid = (clean + at) // 2
                found = scan(start(mid), n_period, nothing)[3]
                if found is None:
                    clean = mid
                else:
                    at, below = mid, found
            return None, None, None, at * n_period + below + 1
    # The final scan picks what the power series does not give: every record
    # of a one-period run, and the last step when no record falls on it.
    picks = nothing if last else np.arange(record_every - 1, n_steps, record_every)
    if n_steps % record_every:
        picks = np.append(picks, end)
    a, low_end, tail, below = scan(a, end + 1, picks)
    if below is not None:
        return None, None, None, last * n_period + below + 1

    series = np.full(1 + count + tail.size, c_bulk)
    series[1 + count :] += tail
    if count:
        # Step t at phase k has the surface deviation S*(k) - sum_j a*_j
        # lam_j**t, S*(k) being the deviation of the steady state.
        # Record phases repeat after n_period / gcd(n_period, record_every).
        # A period no longer than the series, or than 4096 steps, is swept
        # whole; a longer one up to its sorted record phases.
        cycle = min(count, n_period // gcd(n_period, record_every))
        phases = (np.arange(1, cycle + 1) * record_every - 1) % n_period
        picks = (np.arange(n_period) if n_period <= max(count, 4096)
                 else np.sort(phases))
        steady = scan(a_star, int(picks[-1]) + 1, picks, watch=False)[2]
        steady = steady[np.searchsorted(picks, phases)]
        # series[i] is the surface after step record_every * i.
        series[1 : count + 1] = np.resize(steady, count)
        rho = lam**record_every
        powers = _powers(rho, table[: min(_BLOCK, count) + 1])
        coef = a_star * rho
        for i0 in range(1, count + 1, len(powers) - 1):
            m = min(len(powers) - 1, count + 1 - i0)
            series[i0 : i0 + m] -= powers[:m] @ coef
            coef *= powers[m]
        series[1 : count + 1] += c_bulk
    return a, min(low, low_end, float(series.min())), series, None


def _profile(a: np.ndarray, c_bulk: float) -> np.ndarray:
    """Concentration on all grid nodes from the modal state, mouth included.

    Node i of n is sum_j a_j cos((2j + 1) i pi / (2n)), the real part of
    exp(i pi i / (2n)) sum_j a_j exp(i pi j i / n): one inverse FFT of
    length 2n, so O(n log n) time and O(n) memory.
    """
    import numpy as np
    from numpy.fft import ifft

    n = a.size
    sums = ifft(a, 2 * n, norm="forward")[:n]
    u = (np.exp(1j * (pi / (2 * n)) * np.arange(n)) * sums).real
    out = np.full(n + 1, c_bulk)
    out[:n] += u
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
    may take at most MAX_STEPS steps on at most MAX_GRID points. The surface
    concentration is never clamped: a step that would drive it negative
    aborts with a DepletionError carrying that time. A pulse train whose
    periodic steady state lies beyond _STEADY_LIMIT c_bulk, in the sum of
    its modal amplitudes, or whose deposit thickness lies beyond the float
    range, raises NumericalError.
    """
    if not 0 < mold_depth < inf:
        raise ParameterError("mold_depth must be finite and > 0")
    if grid < 16:
        raise ParameterError("grid must be >= 16")
    if grid > MAX_GRID:
        raise ParameterError(f"grid must be <= {MAX_GRID}, got {grid}")
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
    # Any record_every past the last step records steps 0 and n_steps alone;
    # clamped, it stays a machine-size int for numpy.
    record_every = min(record_every, n_steps + 1)
    import numpy as np

    r = bath.diffusivity * dt / (dx * dx)
    n = grid - 1
    lam = 1.0 - 4.0 * r * np.sin((np.arange(n) + 0.5) * (pi / (2 * n))) ** 2
    consumption = plan.j_pulse / (bath.electrons_per_formula * constants.FARADAY)
    source = -2 * dt * consumption / dx / n
    a, min_surface, series, depleted = _propagate(
        lam, source, bath.c_teo2, n_on, n_on + n_off, n_steps, record_every
    )
    if depleted is not None:
        raise DepletionError(depleted * dt)

    steps = np.arange(0, n_steps + 1, record_every)
    if n_steps % record_every:
        steps = np.append(steps, n_steps)
    pulse_steps = _pulse_steps(steps, n_on, n_on + n_off)
    per_step = faraday_growth_rate(plan.j_pulse, bath) * dt
    # The last count is the largest: a thickness past the float range is
    # refused before numpy multiplies out the series.
    thickness = pulse_steps.item(-1) * per_step
    if not thickness < inf:
        raise NumericalError(
            f"thickness = {thickness:g} m is beyond the float range "
            f"({pulse_steps.item(-1)} pulse steps of {per_step:g} m)"
        )
    thickness_series = pulse_steps * per_step
    try:
        composition = stoichiometry_from_bath(bath.c_bi2o3)
    except ExtrapolationError:
        composition = None
    return DepositState(
        thickness=thickness,
        growth_rate=thickness / (n_steps * dt),
        composition=composition,
        min_surface_conc=min_surface,
        profile=_profile(a, bath.c_teo2),
        times=steps * dt,
        thickness_series=thickness_series,
        surface_conc_series=series,
    )
