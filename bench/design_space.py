"""design_space: sweeps, leg-length optimization and design comparisons.

Designs are the three shipped configs plus seeded variants of them, written
as config files and parsed during set-up. `device` and `optimize` do nearly
all the work and `ecd` none. Sweeps (many points, one design) sit beside
comparisons (many designs, one point each), so a kernel that speeds one and
slows the other shows.
"""

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import common
import oracle
from common import Outcome, log_between, strata

CYCLE = 12  # 4 sweeps, 5 optimizations, 3 comparisons
POOL_CYCLES = 600
TRACE_TASKS = 120
VARIANTS = 45

SWEEPABLE = ("leg_length", "fill_factor", "contact_resistivity",
             "interface_resistance", "dt_meas")
# Parameter -> (range of lo, range of hi), SI.
SWEEP_RANGES = {
    "leg_length": ((10e-6, 50e-6), (500e-6, 2000e-6)),
    "fill_factor": ((0.02, 0.1), (0.5, 1.0)),
    "contact_resistivity": ((1e-12, 1e-11), (1e-9, 1e-8)),
    "interface_resistance": ((0.1, 1.0), (5.0, 20.0)),
    "dt_meas": ((1.0, 5.0), (40.0, 80.0)),
}


@dataclass
class State:
    designs: list  # tegkit GeneratorDesign, parsed from the written configs
    refs: list  # oracle design dicts, from the same documents
    tasks: list
    inputs: dict
    sweep_csv: Path
    compare_csv: Path


def sweep_task(rng, cycle: int, slot: int, u_points: float, n_designs: int) -> dict:
    param = SWEEPABLE[(4 * cycle + slot) % len(SWEEPABLE)]
    lo_range, hi_range = SWEEP_RANGES[param]
    return {
        "kind": "sweep", "design": rng.randrange(n_designs),
        "dt": 10.0 + 50.0 * rng.random(), "param": param,
        "lo": log_between(rng.random(), *lo_range),
        "hi": log_between(rng.random(), *hi_range),
        "points": round(log_between(u_points, 20, 3000)),
        "spacing": "log" if (cycle + slot) % 2 else "linear",
    }


def make_tasks(rng, n_designs: int, cycles: int) -> list:
    tasks = []
    for c in range(cycles):
        u_points, u_designs = strata(rng, 4), strata(rng, 3)
        cycle = [sweep_task(rng, c, s, u_points[s], n_designs) for s in range(4)]
        cycle += [{"kind": "optimize", "design": rng.randrange(n_designs),
                   "dt": 10.0 + 50.0 * rng.random(),
                   "lo": log_between(rng.random(), 10e-6, 100e-6),
                   "hi": log_between(rng.random(), 400e-6, 2000e-6)}
                  for _ in range(5)]
        cycle += [{"kind": "compare", "dt": 10.0 + 50.0 * rng.random(),
                   "designs": rng.sample(range(n_designs), 2 + int(7 * u))}
                  for u in u_designs]
        rng.shuffle(cycle)
        tasks += cycle
    return tasks


def setup(seed: int, root: Path, work: Path, api) -> State:
    rng = random.Random(f"design_space:{seed}")
    material = common.material_lookup()
    paths = [root / "configs" / f"{name}.json" for name in common.SHIPPED_DESIGNS]
    docs = [common.load_doc(root, name) for name in common.SHIPPED_DESIGNS]
    for i in range(VARIANTS):
        docs.append(common.variant_doc(rng, docs[i % 3]))
        paths.append(work / f"variant_{i}.json")
        common.write_doc(paths[-1], docs[-1])
    designs = [api.parse_design(p).design for p in paths]
    refs = [oracle.design_from_doc(doc, material) for doc in docs]
    tasks = make_tasks(rng, len(docs), POOL_CYCLES)
    return State(designs, refs, tasks, {"docs": docs, "tasks": tasks},
                 work / "sweep.csv", work / "compare.csv")


def run(api, task: dict, state: State):
    kind = task["kind"]
    if kind == "sweep":
        curve = api.sweep(state.designs[task["design"]], task["dt"], task["param"],
                          task["lo"], task["hi"], task["points"], spacing=task["spacing"])
        api.emit_curve(curve, state.sweep_csv)
        return curve
    if kind == "optimize":
        return api.optimize_leg_length(state.designs[task["design"]], task["dt"],
                                       task["lo"], task["hi"])
    table = api.compare_designs(
        {f"d{i}": state.designs[i] for i in task["designs"]}, task["dt"])
    api.emit_comparison(table, state.compare_csv)
    return table


def check(task: dict, result, state: State) -> Outcome:
    out = Outcome()
    kind = task["kind"]
    if kind == "sweep":
        values = oracle.sweep_values(task["lo"], task["hi"], task["points"], task["spacing"])
        got = np.array([v for v, _ in result.points])
        if got.shape != values.shape or np.any(np.abs(got - values) > 1e-12 * np.abs(values)):
            out.problems.append("sweep values differ from the requested grid")
        ref = oracle.sweep(state.refs[task["design"]], task["dt"], task["param"], values)
        out.rel_err = common.compare_points([vars(op) for _, op in result.points], ref,
                                            out.problems, "sweep")
        rows, size = common.csv_rows(state.sweep_csv)
        if rows != task["points"]:
            out.problems.append(f"curve CSV has {rows} rows, expected {task['points']}")
        out.points = len(result.points)
        out.layer = {"sweep_points": out.points, "curve_rows": rows, "bytes": size}
    elif kind == "optimize":
        ref = state.refs[task["design"]]
        best = oracle.optimum_leg_length(ref, task["dt"], task["lo"], task["hi"])
        if not abs(result.best_value - best) <= common.OPTIMUM_TOL_M:
            out.problems.append(f"optimum {result.best_value!r} m, grid oracle {best!r} m")
        at_best = oracle.operating_points({**ref, "leg_length": result.best_value}, task["dt"])
        out.rel_err = common.compare_points([vars(result.best_point)], at_best,
                                            out.problems, "optimum")
        out.points = 1
        out.layer = {"optimizes": 1, "iterations": result.iterations}
    else:
        names = [f"d{i}" for i in task["designs"]]
        if [name for name, _ in result.rows] != names:
            out.problems.append("comparison rows out of order")
        stacked = {k: np.array([state.refs[i][k] for i in task["designs"]])
                   for k in state.refs[0]}
        ref = oracle.operating_points(stacked, task["dt"])
        out.rel_err = common.compare_points([vars(op) for _, op in result.rows], ref,
                                            out.problems, "compare")
        rows, size = common.csv_rows(state.compare_csv)
        if rows != len(names):
            out.problems.append(f"comparison CSV has {rows} rows, expected {len(names)}")
        out.points = len(result.rows)
        out.layer = {"bytes": size}
    return out
