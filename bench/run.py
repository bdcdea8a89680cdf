#!/usr/bin/env python3
"""tegkit benchmark: one workload, one process, a closed loop of tasks.

    python3 bench/run.py --workload {design_space,plating,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; tegkit is imported from ./src.
With --trace 0 it measures the end-to-end metrics for S seconds: the next
task starts only after the previous one returns, and the clock stops while
the benchmark checks a task's outputs against its reference. Times are
scaled to a reference host speed measured between tasks (speed.py). With
--trace 1 it alternates untraced and traced passes over a fixed set of
tasks and reports per-layer metrics, the per-layer self times and the
tracing overhead. The last line of stdout is the result as one JSON
object; the line before it is the full record (machine, input fingerprint,
every metric, raw times). Both are also written under bench/results/,
with each task's raw and scaled time and the slice times (--trace 0) or
the spans (--trace 1).
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORKLOAD_MODULES = {"design_space": "design_space", "plating": "plating", "cli": "cli_tasks"}
WORKLOADS = tuple(WORKLOAD_MODULES)
#: Seed reserved for confirming a claim made on other seeds.
CONFIRM_SEED = 90937
IMPORT_REPEATS = 5  # fresh interpreters timing `import tegkit`
SETUP_REPEATS = 3
WARMUP_TASKS = 4

END_TO_END = {
    "setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms",
    "task_tail_ms": "ms", "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def cap_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def bind(tracer=None):
    """The public tegkit functions the in-process workloads call."""
    from spans import span_name
    from tegkit import config, ecd, optimize, output

    fns = (config.parse_design, optimize.sweep, optimize.optimize_leg_length,
           optimize.compare_designs, ecd.simulate_diffusion, output.emit_curve,
           output.emit_comparison, output.emit_deposit_series)
    return SimpleNamespace(tracer=tracer, **{
        f.__name__: tracer.wrap(span_name(f), f) if tracer else f for f in fns})


def import_seconds() -> float:
    """`import tegkit` in a fresh interpreter, timed inside it."""
    from common import child_env

    code = ("import time; t = time.perf_counter(); import tegkit; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(ROOT),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def python_start_ms() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, timeout=60, check=True)
    return (time.perf_counter() - start) * 1e3


def execute(module, api, task, state):
    """Run one task; returns (seconds, result, error message or None)."""
    start = time.perf_counter()
    try:
        result, error = module.run(api, task, state), None
    except Exception as exc:  # any unexpected exception fails the task
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, error


def judge(module, task, result, error, state):
    from common import Outcome

    if error is not None:
        return Outcome(problems=[f"unexpected exception {error}"])
    try:
        return module.check(task, result, state)
    except Exception as exc:  # output too malformed to check
        return Outcome(problems=[f"output could not be checked: {type(exc).__name__}: {exc}"])


def run_probes(module, api, state):
    """Run a workload's fixed probes of a known seed defect once; a Tally.

    Probes are outside the timed loop and outside the result line's
    attempted and failed counts, which cover the loop's tasks.
    """
    from stats import Tally

    tally = Tally()
    for index, task in enumerate(getattr(state, "probes", ())):
        _, result, error = execute(module, api, task, state)
        out = judge(module, task, result, error, state)
        tally.add(f"probe {index} ({task['fault']})", out.problems, out.tags)
    return tally


def peak_rss_mb(module, state) -> float:
    """Peak RSS of the process doing the work; a workload that runs child
    processes reports its largest child."""
    if hasattr(module, "peak_rss_mb"):
        return module.peak_rss_mb(state)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def close(module, state) -> None:
    """Stop what a workload started, such as the cli workload's spawner."""
    if hasattr(module, "close"):
        module.close(state)


def timed_setup(module, args, work, api):
    """(state, setup seconds at the reference speed, raw figures)."""
    import speed
    from stats import median

    def setup():
        start = time.perf_counter()
        state = module.setup(args.seed, ROOT, work, api)
        return time.perf_counter() - start, state

    import_factor, imports = speed.around(
        speed.STARTUP, lambda: [import_seconds() for _ in range(IMPORT_REPEATS)])
    setup_factor, setups = speed.around(
        speed.COMPUTE, lambda: [setup() for _ in range(SETUP_REPEATS)])
    seconds = [s for s, _ in setups]
    raw = {"import_s": imports, "setup_body_s": seconds,
           "speed_factors": [import_factor, setup_factor]}
    setup_s = import_factor * median(imports) + setup_factor * median(seconds)
    return setups[-1][1], setup_s, raw


def timed_run(module, args, work):
    import speed
    from stats import TAIL_BEYOND, Tally, median, tail

    api = bind()
    state, setup_s, raw_setup = timed_setup(module, args, work, api)
    tally, times, kinds = Tally(), [], []
    points = plated = worst = 0.0
    try:
        for task in state.tasks[:WARMUP_TASKS]:
            execute(module, api, task, state)
        clock = speed.Clock(getattr(module, "SPEED", speed.COMPUTE))
        start = time.perf_counter()
        while True:
            task = state.tasks[len(times) % len(state.tasks)]
            seconds, result, error = execute(module, api, task, state)
            clock.task_done(seconds)
            out = judge(module, task, result, error, state)
            times.append(seconds)
            kinds.append(task["kind"])
            tally.add(f"task {len(times)} ({task['kind']})", out.problems, out.tags)
            points += out.points
            plated += out.plated_s
            if out.rel_err != float("inf"):
                worst = max(worst, out.rel_err)
            if time.perf_counter() - start >= args.seconds and len(times) > TAIL_BEYOND:
                break
        scaled = clock.scaled(times)
        probes = run_probes(module, api, state)
        peak = peak_rss_mb(module, state)
    finally:
        close(module, state)

    busy, raw_busy = sum(scaled), sum(times)
    tail_s, tail_pct, n = tail(scaled)
    metrics = {
        "setup_s": setup_s,
        "tasks_per_s": len(times) / busy,
        "task_p50_ms": median(scaled) * 1e3,
        "task_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak,
    }
    extra = {"error_rate": (tally.error_rate, "ratio")}
    if args.workload in ("design_space", "cli"):
        extra["design_points_per_s"] = (points / busy, "1/s")
    if args.workload == "plating":
        extra["plated_s_per_wall_s"] = (plated / busy, "s/s")
    if args.workload in ("design_space", "plating"):
        extra["max_rel_err"] = (worst, "ratio")
    if probes.attempted:
        extra["nonfinite_probes_failed"] = (probes.failed, "count")
    by_kind = {}
    for kind, seconds in zip(kinds, scaled):
        by_kind.setdefault(kind, []).append(seconds)
    detail = {
        "tail_percentile": tail_pct, "samples": n, "busy_s": busy,
        "raw": {"busy_s": raw_busy, "tasks_per_s": len(times) / raw_busy,
                "task_p50_ms": median(times) * 1e3, "task_tail_ms": tail(times)[0] * 1e3,
                **raw_setup},
        "speed": clock.summary(),
        "p50_ms_by_kind": {k: median(v) * 1e3 for k, v in sorted(by_kind.items())},
        "tasks_by_kind": {k: len(v) for k, v in sorted(by_kind.items())},
        "tags": dict(tally.tagged), "failed_by_tag": dict(tally.failed_tagged),
        "failures": tally.examples,
        "probes": probes.attempted, "probe_failures": probes.examples,
    }
    trail = {"kind": kinds, "raw_s": times, "scaled_s": scaled,
             "window": clock.window_of, "slice_s": clock.slices}
    return state, tally, metrics, extra, detail, ("tasks", trail)


def traced_run(module, args, work):
    import layers
    from spans import Tracer, install, self_times
    from stats import Tally, median

    tracer = Tracer()
    tracer.task = "setup"
    restore = install(tracer)
    try:
        state = module.setup(args.seed, ROOT, work, bind(tracer))
    finally:
        restore()
    setup_spans, tracer.spans = tracer.spans, []
    start_ms = (median([python_start_ms() for _ in range(IMPORT_REPEATS)])
                if module.__name__ == "cli_tasks" else 0.0)
    try:
        tasks = state.tasks[: module.TRACE_TASKS]
        plain, traced = bind(), bind(tracer)
        for task in tasks[:WARMUP_TASKS]:
            execute(module, plain, task, state)

        untraced_busy, traced_busy, untraced_infos, per_pass = [], [], [], []
        first = None
        start = time.perf_counter()
        while True:
            busy = 0.0
            for task in tasks:
                seconds, result, error = execute(module, plain, task, state)
                busy += seconds
                untraced_infos.append(judge(module, task, result, error, state).layer)
            untraced_busy.append(busy)

            tracer.spans, tally, infos, busy = [], Tally(), [], 0.0
            restore = install(tracer)
            try:
                for index, task in enumerate(tasks):
                    tracer.task = index
                    end_span = tracer.open("bench.task")
                    seconds, result, error = execute(module, traced, task, state)
                    end_span()
                    busy += seconds
                    out = judge(module, task, result, error, state)
                    tracer.spans += [(*s[:5], index) for s in out.layer.pop("spans", [])]
                    tally.add(f"task {index} ({task['kind']})", out.problems, out.tags)
                    infos.append(out.layer)
            finally:
                restore()
            traced_busy.append(busy)
            spans = setup_spans + tracer.spans
            per_pass.append(layers.compute(spans, infos, untraced_infos, start_ms))
            if first is None:
                first = (tally, spans)
            if time.perf_counter() - start >= args.seconds:
                break
        probes = run_probes(module, plain, state)
    finally:
        close(module, state)
    # Counts repeat exactly from pass to pass; times are medians over passes.
    metrics = {name: per_pass[0][name] if layers.UNITS[name] == "count"
               else median([p[name] for p in per_pass]) for name in per_pass[0]}
    overhead = median(traced_busy) - median(untraced_busy)
    metrics["trace.overhead_ms"] = overhead * 1e3
    metrics["trace.overhead_pct"] = 100 * overhead / median(untraced_busy)
    metrics["cli.nonfinite_probes_failed"] = probes.failed
    tally, spans = first
    fields = ["id", "name", "start_ns", "end_ns", "parent", "task"]
    detail = {
        "passes": len(per_pass), "tasks_per_pass": len(tasks),
        "untraced_busy_s": untraced_busy, "traced_busy_s": traced_busy,
        "self_ms_first_pass": {k: v / 1e6 for k, v in sorted(self_times(spans).items())},
        "failures": tally.examples, "probe_failures": probes.examples,
    }
    return state, tally, metrics, {}, detail, ("spans", {"fields": fields, "spans": spans})


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_state():
    """(commit, dirty tree) of a git checkout; (None, None) outside one."""
    if not (ROOT / ".git").exists():
        return None, None

    def git(*a):
        return subprocess.run(["git", *a], cwd=ROOT, capture_output=True, text=True,
                              timeout=60).stdout.strip()
    try:
        return git("rev-parse", "HEAD") or None, bool(git("status", "--porcelain"))
    except OSError:
        return None, None


def machine(blas_threads: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit, dirty = git_state()
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas_threads": blas_threads,
        "git_commit": commit, "git_dirty": dirty, "source_sha256": source_digest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tegkit" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"bench: no tegkit source tree (src/tegkit, configs) under {ROOT}", file=sys.stderr)
        return 2
    blas_threads = cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import layers
    import tegkit

    if Path(tegkit.__file__).resolve().parent != ROOT / "src" / "tegkit":
        print(f"bench: imported tegkit from {tegkit.__file__}, not ./src", file=sys.stderr)
        return 2
    module = importlib.import_module(WORKLOAD_MODULES[args.workload])
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        state, tally, metrics, extra, detail, (trail_name, trail) = run(module, args, work)
        units = layers.UNITS if args.trace else END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fingerprint = hashlib.sha256(
        json.dumps(state.inputs, sort_keys=True).encode()).hexdigest()
    result = {
        "correct": tally.valid_failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "confirm_seed": CONFIRM_SEED,
        "seconds": args.seconds, "trace": args.trace, "input_sha256": fingerprint,
        "machine": machine(blas_threads),
        "metrics": {**result["metrics"],
                    **{k: {"value": v, "unit": u} for k, (v, u) in extra.items()}},
        "detail": detail,
    }
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1))
    (out_dir / f"{stem}-{trail_name}.json").write_text(json.dumps(trail))

    for name, m in record["metrics"].items():
        print(f"{args.workload:>12}  {name:<32} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
