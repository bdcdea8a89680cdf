"""plating: pulsed deposition plans on the shipped 300 um mold.

Each task runs `simulate_diffusion` and writes the deposit series with
`emit_deposit_series`. `ecd` does nearly all the work and `device` none;
plans with dense records put `output` on the path. One plan in each cycle
pulses longer than its Sand time and must end in a DepletionError at the
step the reference gives.
"""

import random
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import common
import oracle
from common import Bath, Outcome, PlanSpec, log_between, strata

CYCLE = 8  # 7 plans that run to the end, 1 that depletes
#: Run lengths (strata of steps, shortest 0) whose plans record every step.
DENSE_STRATA = (1, 5)
POOL_CYCLES = 150
TRACE_TASKS = 16


@dataclass
class State:
    bath: Bath
    tegkit_bath: object  # tegkit BathSpec parsed from the shipped config
    tasks: list
    inputs: dict
    csv: Path


def bath_from_doc(doc: dict) -> Bath:
    from tegkit import constants

    b, sim = doc["ecd"]["bath"], doc["ecd"]["sim"]
    return Bath(c_bulk=b["c_teo2_mol_m3"], diffusivity=b["diffusivity_m2_s"],
                n_e=constants.BI2TE3_ELECTRONS_PER_FORMULA,
                molar_mass=constants.BI2TE3_MOLAR_MASS,
                density=constants.BI2TE3_DENSITY,
                mold_depth=sim["mold_depth_um"] * oracle.UM)


def running_plan(rng, bath: Bath, u_steps: float, u_period: float, u_duty: float,
                 grid_dt: tuple, dense: bool) -> PlanSpec:
    grid, dt = grid_dt
    n_period = round(log_between(u_period, 20, 2000))
    n_on = max(1, round(log_between(u_duty, 0.01, 0.5) * n_period))
    return PlanSpec(
        grid=grid, dt=dt, n_on=n_on, n_off=n_period - n_on,
        n_steps=round(log_between(u_steps, 1500, 12000)),
        j_pulse=common.safe_pulse_current(rng, bath, n_on * dt, n_on / n_period),
        record_every=1 if dense else round(log_between(rng.random(), 3, 3000)),
        depletes=False,
    )


def depleting_plan(rng, bath: Bath, deficits: dict) -> PlanSpec:
    grid, dt = rng.choice(common.GRID_DT)
    n_on = round(log_between(rng.random(), 16, 400))
    n_off = round(n_on * log_between(rng.random(), 1, 20))
    spec = PlanSpec(grid=grid, dt=dt, n_on=n_on, n_off=n_off,
                    n_steps=3 * (n_on + n_off) + rng.randrange(n_on + n_off),
                    j_pulse=common.depleting_pulse_current(rng, bath, n_on * dt),
                    record_every=round(log_between(rng.random(), 1, 100)),
                    depletes=True)
    if (grid, dt) not in deficits:
        deficits[grid, dt] = oracle.surface_deficit(grid, bath.mold_depth,
                                                    bath.diffusivity, dt, 400)
    # The discrete scheme departs from Sand's law on coarse grids; raise the
    # current until the reference depletes inside the first pulse.
    g = deficits[grid, dt][: n_on + 1]
    while True:
        spec.depletion_step = oracle.depletion_step(
            bath.c_bulk, common.flux(bath, spec.j_pulse), g)
        if spec.depletion_step is not None:
            return spec
        spec.j_pulse *= 1.5


def setup(seed: int, root: Path, work: Path, api) -> State:
    from tegkit.ecd import PulsePlan

    rng = random.Random(f"plating:{seed}")
    doc = common.load_doc(root, common.SHIPPED_ECD)
    bath = bath_from_doc(doc)
    shipped = api.parse_design(root / "configs" / f"{common.SHIPPED_ECD}.json")
    deficits = {}
    specs = []
    # The tail of the task times comes from the longest plans on the finest
    # grids. So that it does not move with the seed, plan s of a cycle runs
    # for a length in stratum s, and cycle c pairs stratum s with grid
    # (s + c) mod 8: every 8 cycles hold each pairing once. Period, duty and
    # current stay stratified in seeded order.
    for c in range(POOL_CYCLES):
        u = [strata(rng, CYCLE - 1) for _ in range(2)]
        cycle = [running_plan(rng, bath, (s + rng.random()) / (CYCLE - 1), u[0][s], u[1][s],
                              common.GRID_DT[(s + c) % len(common.GRID_DT)],
                              dense=s in DENSE_STRATA)
                 for s in range(CYCLE - 1)]
        cycle.append(depleting_plan(rng, bath, deficits))
        rng.shuffle(cycle)
        specs += cycle
    tasks = []
    for spec in specs:
        plan = PulsePlan(t_pulse=spec.n_on * spec.dt, t_pause=spec.n_off * spec.dt,
                         j_pulse=spec.j_pulse, total_time=spec.n_steps * spec.dt)
        tasks.append({"kind": "deplete" if spec.depletes else "plate",
                      "spec": spec, "plan": plan})
    return State(bath, shipped.bath, tasks,
                 {"bath": asdict(bath), "plans": [asdict(s) for s in specs]},
                 work / "series.csv")


def run(api, task: dict, state: State):
    from tegkit.errors import DepletionError

    spec = task["spec"]
    try:
        result = api.simulate_diffusion(state.bath.mold_depth, state.tegkit_bath,
                                        task["plan"], spec.grid, spec.dt,
                                        spec.record_every)
    except DepletionError as exc:
        return exc
    api.emit_deposit_series(result, state.csv)
    return result


def check(task: dict, result, state: State) -> Outcome:
    from tegkit.errors import DepletionError

    spec, bath = task["spec"], state.bath
    out = Outcome()
    layer = {"cfl": common.cfl_ratio(bath, spec.grid, spec.dt)}
    if isinstance(result, DepletionError):
        if not spec.depletes:
            out.problems.append(f"unexpected depletion at {result.time_s!r} s")
        else:
            out.rel_err = common.check_abort(spec, result.time_s, out.problems)
        steps = round(result.time_s / spec.dt)
        layer["depleted"] = 1
    else:
        if spec.depletes:
            out.problems.append("plan ran to the end; the reference depletes at "
                                f"step {spec.depletion_step}")
        out.rel_err = common.check_deposit(
            spec, bath, result.times.tolist(), result.thickness_series.tolist(),
            result.surface_conc_series.tolist(), result.thickness,
            result.min_surface_conc, out.problems)
        profile = result.profile
        if profile.shape != (spec.grid,) or not np.all(np.isfinite(profile)):
            out.problems.append("final profile has the wrong shape or non-finite values")
        elif profile[-1] != bath.c_bulk:
            out.problems.append("mouth concentration differs from bulk")
        growth = result.thickness / (spec.n_steps * spec.dt)
        if oracle.rel_err(result.growth_rate, growth) > 1e-12:
            out.problems.append(f"growth rate {result.growth_rate!r}, expected {growth!r}")
        rows, size = common.csv_rows(state.csv)
        if rows != len(result.times):
            out.problems.append(f"series CSV has {rows} rows, expected {len(result.times)}")
        steps = spec.n_steps
        layer.update(charge_err=out.rel_err, series_rows=rows, bytes=size)
    out.plated_s = steps * spec.dt
    layer.update(steps=steps, periods=steps / spec.n_period)
    out.layer = layer
    return out
