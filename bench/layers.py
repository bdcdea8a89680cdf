"""Per-layer metrics of a traced pass.

Times come from spans; work counts (rows, steps, iterations, bytes) come
from what each task's check saw. A metric of a layer that a workload does
not reach reads 0.
"""

from collections import defaultdict

from spans import LAYERS, descendants_named, self_times
from stats import median

CLI_COMMANDS = ("eval", "sweep", "optimize", "compare", "calibrate",
                "ecd simulate", "ecd sand-time")

#: (name, unit, better), in BENCHMARK.json order.
METRICS = [
    ("device.evaluate_us", "us", "lower"),
    ("device.evaluate_calls", "count", "lower"),
    ("optimize.sweep_point_us", "us", "lower"),
    ("optimize.sweep_ms", "ms", "lower"),
    ("optimize.optimize_ms", "ms", "lower"),
    ("optimize.evals_per_optimize", "count", "lower"),
    ("optimize.iterations", "count", "lower"),
    ("optimize.compare_ms", "ms", "lower"),
    ("ecd.simulate_ms", "ms", "lower"),
    ("ecd.step_us", "us", "lower"),
    ("ecd.period_ms", "ms", "lower"),
    ("ecd.steps", "count", "higher"),
    ("ecd.depleted_runs", "count", "lower"),
    ("ecd.charge_err_rel", "ratio", "lower"),
    ("ecd.cfl_ratio", "ratio", "lower"),
    ("ecd.sand_time_us", "us", "lower"),
    ("output.emit_curve_us_per_row", "us", "lower"),
    ("output.emit_series_us_per_row", "us", "lower"),
    ("output.emit_comparison_us", "us", "lower"),
    ("output.bytes_written", "bytes", "lower"),
    ("output.report_text_us", "us", "lower"),
    ("config.parse_design_us", "us", "lower"),
    ("config.parse_calls", "count", "lower"),
    ("cli.python_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    *[(f"cli.{c.replace('ecd ', 'ecd_').replace('-', '_')}_ms", "ms", "lower")
      for c in CLI_COMMANDS],
    ("cli.nonfinite_probes_failed", "count", "lower"),
    *[(f"{layer}.self_ms", "ms", "lower") for layer in ("bench",) + LAYERS],
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]
UNITS = {name: unit for name, unit, _ in METRICS}


def compute(spans, infos, untraced_infos, python_start_ms: float) -> dict:
    """Metrics of one traced pass, without the two trace.* entries and
    cli.nonfinite_probes_failed, which the caller adds.

    `infos` are the `layer` dicts of the traced pass's outcomes and
    `untraced_infos` those of untraced passes, which give the CLI wall
    times per subcommand.
    """
    ns = defaultdict(list)
    for _, name, start, end, _, _ in spans:
        ns[name].append(end - start)

    def med(name, scale):
        return median(ns[name]) / scale

    def total(name, scale):
        return sum(ns[name]) / scale

    def work(key):
        return sum(info.get(key, 0) for info in infos)

    def per(num, den):
        return num / den if den else 0.0

    optimizes = len(ns["optimize.optimize_leg_length"])
    m = {
        "device.evaluate_us": med("device.evaluate", 1e3),
        "device.evaluate_calls": len(ns["device.evaluate"]),
        "optimize.sweep_point_us": per(total("optimize.sweep", 1e3), work("sweep_points")),
        "optimize.sweep_ms": med("optimize.sweep", 1e6),
        "optimize.optimize_ms": med("optimize.optimize_leg_length", 1e6),
        "optimize.evals_per_optimize": per(descendants_named(
            spans, "optimize.optimize_leg_length", "device.evaluate"), optimizes),
        "optimize.iterations": per(work("iterations"), work("optimizes")),
        "optimize.compare_ms": med("optimize.compare_designs", 1e6),
        "ecd.simulate_ms": med("ecd.simulate_diffusion", 1e6),
        "ecd.step_us": per(total("ecd.simulate_diffusion", 1e3), work("steps")),
        "ecd.period_ms": per(total("ecd.simulate_diffusion", 1e6), work("periods")),
        "ecd.steps": work("steps"),
        "ecd.depleted_runs": work("depleted"),
        "ecd.charge_err_rel": max((i.get("charge_err", 0.0) for i in infos), default=0.0),
        "ecd.cfl_ratio": max((i.get("cfl", 0.0) for i in infos), default=0.0),
        "ecd.sand_time_us": med("ecd.sand_time", 1e3),
        "output.emit_curve_us_per_row": per(total("output.emit_curve", 1e3), work("curve_rows")),
        "output.emit_series_us_per_row": per(total("output.emit_deposit_series", 1e3),
                                             work("series_rows")),
        "output.emit_comparison_us": med("output.emit_comparison", 1e3),
        "output.bytes_written": work("bytes") + work("stdout_bytes"),
        "output.report_text_us": med("output.report_text", 1e3),
        "config.parse_design_us": med("config.parse_design", 1e3),
        "config.parse_calls": len(ns["config.parse_design"]),
        "cli.python_start_ms": python_start_ms,
        "cli.import_ms": median([i["import_ms"] for i in infos if "import_ms" in i]),
    }
    for command in CLI_COMMANDS:
        walls = [i["wall_ms"] for i in untraced_infos if i.get("subcommand") == command]
        m[f"cli.{command.replace('ecd ', 'ecd_').replace('-', '_')}_ms"] = median(walls)
    busy = self_times(spans)
    for layer in ("bench",) + LAYERS:
        m[f"{layer}.self_ms"] = busy.get(layer, 0) / 1e6
    return m
