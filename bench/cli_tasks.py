"""cli: one `python -m tegkit` process per task, one at a time.

A seeded mix of all seven subcommands on the shipped configs and on
variants written during set-up. Interpreter start, `import tegkit` and
config and report handling dominate; compute is small except in `ecd
simulate`. One task in nineteen gets a malformed config (an unknown key or
a negative length) and must exit 1 with a message on stderr and no
non-finite number on stdout.

Configs with NaN or Infinity must be rejected the same way, but at seed
the CLI accepts them. They are not in the timed loop, where their share of
failed tasks would vary with the number of tasks a run gets through; each
run checks a fixed set of them once, after the loop (`probes`), and
reports how many failed.
"""

import csv
import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import common
import oracle
import speed
from common import Outcome, PlanSpec, log_between
from design_space import SWEEP_RANGES, SWEEPABLE
from plating import bath_from_doc

CYCLE = 38
POOL_CYCLES = 10
TRACE_TASKS = 38  # one full cycle, so a traced pass runs every subcommand
DESIGN_VARIANTS = 9
ECD_VARIANTS = 5
RECORD_EVERY = (5, 25, 100, 250)  # of the variants, in turn
MIX = (("eval", 6), ("sweep", 5), ("optimize", 5), ("compare", 4),
       ("calibrate", 4), ("ecd simulate", 8), ("ecd sand-time", 4))
MALFORMED = ("unknown_key", "negative_length")
NON_FINITE = ("nan", "infinity")
PROBES_PER_KIND = 2  # per NON_FINITE kind, on different shipped designs
TIMEOUT_S = 60  # per command
SPEED = speed.STARTUP  # calibrates a command's time


@dataclass
class State:
    root: Path
    work: Path
    tasks: list
    inputs: dict
    env: dict
    designs: dict  # config path -> oracle design dict
    plans: dict  # ecd config path -> (PlanSpec, bath)
    probes: list  # non-finite config tasks, run once per run after the loop
    spawner: subprocess.Popen | None = None
    peak_rss_kb: int = 0  # largest child


def ecd_variant(rng, doc: dict, bath, record_every: int) -> tuple:
    """The shipped plan with a redrawn pulse, on its own grid and 1 ms step."""
    n_on = round(log_between(rng.random(), 50, 400))
    n_off = round(log_between(rng.random(), 1000, 5000))
    spec = PlanSpec(grid=151, dt=1e-3, n_on=n_on, n_off=n_off, n_steps=25000,
                    j_pulse=common.safe_pulse_current(rng, bath, n_on * 1e-3,
                                                      n_on / (n_on + n_off)),
                    record_every=record_every, depletes=False)
    j_ma_cm2 = spec.j_pulse / oracle.MA_CM2
    spec.j_pulse = j_ma_cm2 * oracle.MA_CM2  # the current the config states
    doc = json.loads(json.dumps(doc))
    doc["ecd"]["pulse"] = {"t_pulse_ms": float(n_on), "t_pause_s": n_off * spec.dt,
                           "j_pulse_mA_cm2": j_ma_cm2,
                           "total_time_s": spec.n_steps * spec.dt}
    doc["ecd"]["sim"]["record_every"] = spec.record_every
    return doc, spec


def shipped_plan(doc: dict) -> PlanSpec:
    pulse, sim = doc["ecd"]["pulse"], doc["ecd"]["sim"]
    dt = sim["dt_s"]
    return PlanSpec(grid=sim["grid_points"], dt=dt,
                    n_on=round(pulse["t_pulse_ms"] * oracle.MS / dt),
                    n_off=round(pulse["t_pause_s"] / dt),
                    n_steps=round(pulse["total_time_s"] / dt),
                    j_pulse=pulse["j_pulse_mA_cm2"] * oracle.MA_CM2,
                    record_every=sim.get("record_every", 1), depletes=False)


def malformed_doc(kind: str, doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    d = doc["design"]
    if kind == "unknown_key":
        d["leg_width_um"] = 100.0
    elif kind == "negative_length":
        d["leg_length_um"] = -d["leg_length_um"]
    elif kind == "nan":
        d["interface_resistance_K_W"] = math.nan
    else:
        d["leg_length_um"] = math.inf
    return doc


def make_task(rng, kind: str, slot: int, designs: list, ecds: list, work: str) -> dict:
    """Task `slot` of its kind in the pool; `ecd simulate`, the longest
    command, takes the ecd configs in turn so that every seed's tail holds
    the same mix of them."""
    dt = 10.0 + 50.0 * rng.random()
    if kind == "ecd simulate":
        return {"kind": kind, "argv": ["ecd", "simulate", "--config", ecds[slot % len(ecds)],
                         "--out", f"{work}/series.csv"]}
    if kind == "ecd sand-time":
        argv = ["ecd", "sand-time", "--config", rng.choice(ecds)]
        if rng.random() < 0.5:
            argv += ["--j", repr(log_between(rng.random(), 10.0, 500.0))]
        return {"kind": kind, "argv": argv}
    if kind == "compare":
        chosen = rng.sample(designs, rng.randint(2, 4))
        argv = ["compare", *[a for c in chosen for a in ("--config", c)], "--dt", repr(dt)]
        if rng.random() < 0.5:
            argv += ["--out", f"{work}/compare.csv"]
        return {"kind": kind, "argv": argv}
    argv = [kind, "--config", rng.choice(designs), "--dt", repr(dt)]
    if kind == "sweep":
        param = rng.choice(SWEEPABLE)
        lo_range, hi_range = SWEEP_RANGES[param]
        argv += ["--param", param,
                 "--from", repr(log_between(rng.random(), *lo_range)),
                 "--to", repr(log_between(rng.random(), *hi_range)),
                 "--points", str(round(log_between(rng.random(), 20, 500))),
                 "--out", f"{work}/sweep.csv"]
        if rng.random() < 0.5:
            argv.append("--log")
    elif kind == "optimize":
        argv += ["--from", repr(log_between(rng.random(), 10e-6, 100e-6)),
                 "--to", repr(log_between(rng.random(), 400e-6, 2000e-6))]
    elif kind == "calibrate":
        argv += ["--target", repr(log_between(rng.random(), 10.0, 400.0))]
    return {"kind": kind, "argv": argv}


def setup(seed: int, root: Path, work: Path, api) -> State:
    rng = random.Random(f"cli:{seed}")
    material = common.material_lookup()
    rel = work.relative_to(root).as_posix()
    written = {}  # relative path -> document
    shipped = {f"configs/{n}.json": common.load_doc(root, n) for n in common.SHIPPED_DESIGNS}
    bases = list(shipped.values())
    for i in range(DESIGN_VARIANTS):
        written[f"{rel}/variant_{i}.json"] = common.variant_doc(rng, bases[i % 3])
    ecd_doc = common.load_doc(root, common.SHIPPED_ECD)
    bath = bath_from_doc(ecd_doc)
    plans = {f"configs/{common.SHIPPED_ECD}.json": (shipped_plan(ecd_doc), bath)}
    for i in range(ECD_VARIANTS):
        doc, spec = ecd_variant(rng, ecd_doc, bath, RECORD_EVERY[i % len(RECORD_EVERY)])
        written[f"{rel}/pulse_{i}.json"] = doc
        plans[f"{rel}/pulse_{i}.json"] = (spec, bath)
    designs = list(shipped) + [p for p in written if "/variant_" in p]
    tasks = []
    for c in range(POOL_CYCLES):
        cycle = [make_task(rng, kind, c * count + n, designs, list(plans), rel)
                 for kind, count in MIX for n in range(count)]
        for kind in MALFORMED:
            path = f"{rel}/bad_{c}_{kind}.json"
            written[path] = malformed_doc(kind, rng.choice(bases))
            cycle.append({"kind": "malformed", "fault": kind, "argv":
                          ["eval", "--config", path, "--dt", repr(10.0 + 50.0 * rng.random())]})
        rng.shuffle(cycle)
        tasks += cycle
    probes = []
    for kind in NON_FINITE:
        for i, base in enumerate(rng.sample(bases, PROBES_PER_KIND)):
            path = f"{rel}/probe_{i}_{kind}.json"
            written[path] = malformed_doc(kind, base)
            probes.append({"kind": "malformed", "fault": kind, "argv":
                           ["eval", "--config", path, "--dt", repr(10.0 + 50.0 * rng.random())]})
    for path, doc in written.items():
        common.write_doc(root / path, doc)
    for path in designs + list(plans):
        api.parse_design(root / path)
    valid = {**shipped, **written, f"configs/{common.SHIPPED_ECD}.json": ecd_doc}
    refs = {p: oracle.design_from_doc(doc, material)
            for p, doc in valid.items() if "/bad_" not in p and "/probe_" not in p}

    def portable(task_list):
        return [{**t, "argv": [a.replace(rel, "<work>") for a in t["argv"]]}
                for t in task_list]

    inputs = {"docs": {p.replace(rel, "<work>"): d for p, d in sorted(written.items())},
              "tasks": portable(tasks), "probes": portable(probes)}
    return State(root, work, tasks, inputs, common.child_env(root), refs, plans, probes)


def run(api, task: dict, state: State):
    """Run one command; returns (exit code, stdout, stderr, wall s, child spans)."""
    tracer = api.tracer
    if tracer is None:
        cmd = [sys.executable, "-m", "tegkit", *task["argv"]]
    else:
        spans_file = state.work / "child_spans.json"
        cmd = [sys.executable, str(Path(__file__).with_name("child.py")),
               str(spans_file), f"{tracer.task}.", tracer.current(), "--", *task["argv"]]
    if state.spawner is None:
        state.spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    request = {"cmd": cmd, "cwd": str(state.root), "env": state.env,
               "tmp": str(state.work), "timeout": TIMEOUT_S}
    state.spawner.stdin.write(json.dumps(request) + "\n")
    state.spawner.stdin.flush()
    reply = json.loads(state.spawner.stdout.readline())
    state.peak_rss_kb = max(state.peak_rss_kb, reply["maxrss_kb"])
    child = json.loads(spans_file.read_text()) if tracer is not None else None
    return reply["code"], reply["stdout"], reply["stderr"], reply["wall_s"], child


def close(state: State) -> None:
    """Stop the spawner process and wait for it."""
    if state.spawner is not None:
        state.spawner.stdin.close()
        state.spawner.wait(timeout=TIMEOUT_S)
        state.spawner.stdout.close()
        state.spawner = None


def peak_rss_mb(state: State) -> float:
    return state.peak_rss_kb / 1024


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return True


def check(task: dict, result, state: State) -> Outcome:
    code, stdout, stderr, wall, child = result
    kind = task["kind"]
    out = Outcome()
    out.layer = {"subcommand": kind, "wall_ms": wall * 1e3,
                 "stdout_bytes": len(stdout.encode())}
    if child is not None:
        out.layer["import_ms"] = child["import_ns"] / 1e6
        out.layer["spans"] = child["spans"]
    if kind == "malformed":
        out.tags = ("invalid_input",)
        if task["fault"] in NON_FINITE:
            out.tags += ("non_finite_input",)
        if code != 1:
            out.problems.append(f"{task['fault']} config: exit {code}, expected 1")
        if not stderr.strip():
            out.problems.append("no message on stderr")
        if stdout.strip():
            try:
                if not _finite(json.loads(stdout, parse_constant=_reject_constant)):
                    out.problems.append("non-finite number on stdout")
            except ValueError as exc:
                out.problems.append(f"stdout is not strict JSON: {exc}")
        return out
    if code != 0:
        out.problems.append(f"exit {code}: {stderr.strip()[-200:]}")
        return out
    try:
        report = json.loads(stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        out.problems.append(f"stdout is not strict JSON: {exc}")
        return out
    if not _finite(report):
        out.problems.append("non-finite number in the report")
        return out
    args = _options(task["argv"])
    outputs = report["outputs"]
    if kind == "ecd simulate":
        _check_simulate(args, outputs, state, out)
    elif kind == "ecd sand-time":
        _check_sand_time(args, outputs, state, out)
    else:
        _check_design(kind, args, outputs, state, out)
    return out


def _options(argv: list) -> dict:
    """--name value pairs of an argv; repeated options collect into lists."""
    opts = {}
    for a, b in zip(argv, argv[1:] + ["--"]):
        if a.startswith("--"):
            value = True if b.startswith("--") else b
            if a == "--config":
                opts.setdefault("configs", []).append(value)
            opts[a[2:]] = value
    return opts


def _check_design(kind: str, args: dict, outputs: dict, state: State, out: Outcome) -> None:
    dt = float(args["dt"])
    ref = state.designs.get(args["config"])
    if kind == "eval":
        out.rel_err = common.compare_points([outputs], oracle.operating_points(ref, dt),
                                            out.problems, "eval")
    elif kind == "sweep":
        spacing = "log" if args.get("log") else "linear"
        values = oracle.sweep_values(float(args["from"]), float(args["to"]),
                                     int(args["points"]), spacing)
        density = oracle.sweep(ref, dt, args["param"], values)["power_density"]
        best = float(density.max())
        at_reported = oracle.sweep(ref, dt, args["param"],
                                   np.array([outputs["best_param_value_si"]]))["power_density"]
        for label, value in (("best density", outputs["best_p_density_uW_cm2"] * 1e-2),
                             ("density at the best value", float(at_reported[0]))):
            if oracle.rel_err(value, best) > common.MODEL_RTOL:
                out.problems.append(f"sweep {label} {value!r}, reference maximum {best!r}")
        rows, size = common.csv_rows(state.root / args["out"])
        if outputs["rows"] != len(values) or rows != len(values):
            out.problems.append(f"sweep rows {outputs['rows']}, CSV rows {rows}, "
                                f"expected {len(values)}")
        out.points = rows
        out.layer.update(sweep_points=len(values), curve_rows=rows, bytes=size)
    elif kind == "optimize":
        lo, hi = float(args["from"]), float(args["to"])
        best = oracle.optimum_leg_length(ref, dt, lo, hi)
        got = outputs["best_leg_length_m"]
        if not abs(got - best) <= common.OPTIMUM_TOL_M:
            out.problems.append(f"optimum {got!r} m, grid oracle {best!r} m")
        out.rel_err = common.compare_points(
            [outputs["best_point"]], oracle.operating_points({**ref, "leg_length": got}, dt),
            out.problems, "optimum")
        out.points = 1
        out.layer.update(optimizes=1, iterations=outputs["iterations"])
    elif kind == "compare":
        configs = args["configs"]
        names = [Path(c).stem for c in configs]
        refs = {n: oracle.operating_points(state.designs[c], dt) for n, c in zip(names, configs)}
        rows = outputs["rows"]
        if sorted(rows) != sorted(names):
            out.problems.append("comparison rows do not match the configs")
            return
        out.rel_err = max(common.compare_points([rows[n]], refs[n], out.problems, n)
                          for n in names)
        for pair, ratio in outputs["p_density_ratios"].items():
            a, b = pair.split("/")
            expected = refs[a]["power_density"] / refs[b]["power_density"]
            out.rel_err = max(out.rel_err, oracle.rel_err(ratio, expected))
            if oracle.rel_err(ratio, expected) > common.MODEL_RTOL:
                out.problems.append(f"ratio {pair} = {ratio!r}, reference {expected!r}")
        if "out" in args:
            csv_rows, size = common.csv_rows(state.root / args["out"])
            if csv_rows != len(names):
                out.problems.append(f"comparison CSV has {csv_rows} rows")
            out.layer["bytes"] = size
        out.points = len(names)
    else:  # calibrate
        target = float(args["target"]) * 1e-2
        expected = oracle.couple_seebeck(ref, dt, target)
        out.rel_err = oracle.rel_err(outputs["couple_seebeck_V_K"], expected)
        if out.rel_err > common.MODEL_RTOL:
            out.problems.append(f"couple Seebeck {outputs['couple_seebeck_V_K']!r}, "
                                f"reference {expected!r}")


def _check_simulate(args: dict, outputs: dict, state: State, out: Outcome) -> None:
    spec, bath = state.plans[args["config"]]
    path = state.root / args["out"]
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    series = [[float(x) for x in row] for row in rows]
    times = [r[0] for r in series]
    thickness = [r[1] * oracle.UM for r in series]
    surface = [r[2] for r in series]
    out.rel_err = common.check_deposit(spec, bath, times, thickness, surface,
                                       outputs["thickness_um"] * oracle.UM,
                                       outputs["min_surface_conc_mol_m3"], out.problems)
    out.plated_s = spec.n_steps * spec.dt
    out.layer.update(steps=spec.n_steps, periods=spec.n_steps / spec.n_period,
                     cfl=common.cfl_ratio(bath, spec.grid, spec.dt),
                     charge_err=out.rel_err, series_rows=len(rows),
                     bytes=path.stat().st_size)


def _check_sand_time(args: dict, outputs: dict, state: State, out: Outcome) -> None:
    spec, bath = state.plans[args["config"]]
    j = float(args["j"]) * oracle.MA_CM2 if "j" in args else spec.j_pulse
    expected = oracle.sand_time(bath.c_bulk, bath.diffusivity, bath.n_e, j)
    out.rel_err = oracle.rel_err(outputs["sand_time_s"], expected)
    if out.rel_err > common.MODEL_RTOL:
        out.problems.append(f"Sand time {outputs['sand_time_s']!r}, reference {expected!r}")
