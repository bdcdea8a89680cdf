"""Which commands load numpy, and that none loads csv.

The scalar model is plain `math`; only `sweep` and `ecd simulate` build
arrays. Every CSV is formatted by `tegkit.output` itself, so no command
loads the `csv` module. Each case runs one command in a fresh interpreter
and reports whether numpy and csv ended up in `sys.modules`. Module
presence only, no timing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
ANNEALED = str(CONFIGS / "bi2te3_annealed.json")
CUNI = str(CONFIGS / "cu_ni.json")
ECD = str(CONFIGS / "ecd_pulse_train.json")

# Runs tegkit.cli.main on argv (or only imports tegkit when argv is empty)
# and prints the exit code and whether numpy and csv were loaded as the last
# line of stderr.
PROBE = """
import io, json, sys
from contextlib import redirect_stdout
argv = sys.argv[1:]
code = None
if argv:
    from tegkit.cli import main
    with redirect_stdout(io.StringIO()):
        code = main(argv)
else:
    import tegkit
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "csv": "csv" in sys.modules}), file=sys.stderr)
"""


def run(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def probe(*argv):
    return json.loads(run(PROBE, *argv).stderr.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    [],
    ["eval", "--config", ANNEALED, "--dt", "40"],
    ["optimize", "--config", ANNEALED, "--dt", "40",
     "--from", "1e-5", "--to", "1e-3"],
    ["compare", "--config", CUNI, "--config", ANNEALED, "--dt", "40"],
    # the comparison CSV keeps Python's % for its few rows, and no csv.writer
    ["compare", "--config", CUNI, "--config", ANNEALED, "--dt", "40",
     "--out", "{tmp}/compare.csv"],
    ["calibrate", "--config", ANNEALED, "--dt", "40", "--target", "278.5"],
    ["ecd", "sand-time", "--config", ECD],
], ids=["import", "eval", "optimize", "compare", "compare-out", "calibrate",
        "sand-time"])
def test_scalar_commands_run_without_numpy(argv, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert probe(*argv) == {"code": None if not argv else 0, "numpy": False,
                            "csv": False}


def test_importing_the_writers_builds_no_formatter_table():
    # The first kernel call builds every table, the trailing-zero table of
    # the 10^4 4-digit groups among them; importing the module builds none.
    code = ("import sys, tegkit.output as o; "
            "print(o._cell_tables.cache_info().currsize, 'numpy' in sys.modules); "
            "import numpy as np; o._csv_rows(np.ones((1, 1))); "
            "print(o._cell_tables.cache_info().currsize, sum(t.dtype == np.int8 "
            "and t.shape == (10**4,) for t in o._cell_tables()))")
    assert run(code).stdout.split() == ["0", "False", "1", "1"]


def test_a_malformed_config_is_rejected_without_numpy(tmp_path):
    doc = json.loads(Path(ANNEALED).read_text())
    doc["design"]["leg_colour"] = "blue"
    bad = tmp_path / "unknown_key.json"
    bad.write_text(json.dumps(doc))
    assert probe("eval", "--config", str(bad), "--dt", "40") == {
        "code": 1, "numpy": False, "csv": False}


def test_a_run_too_long_to_simulate_is_refused_without_numpy(tmp_path):
    for section, key, value in [
        ("pulse", "total_time_s", 1e16),  # 1e19 steps of 1 ms
        ("sim", "grid_points", 10_002),  # one more than ecd.MAX_GRID
    ]:
        doc = json.loads(Path(ECD).read_text())
        doc["ecd"][section][key] = value
        bad = tmp_path / "long_run.json"
        bad.write_text(json.dumps(doc))
        assert probe("ecd", "simulate", "--config", str(bad), "--out",
                     str(tmp_path / "out.csv")) == {
            "code": 1, "numpy": False, "csv": False}


def test_a_rejected_sweep_argument_needs_no_numpy(tmp_path):
    assert probe("sweep", "--config", ANNEALED, "--dt", "40", "--param",
                 "leg_length", "--from", "1e-5", "--to", "1e-3", "--points",
                 "1", "--out", str(tmp_path / "out.csv")) == {
        "code": 1, "numpy": False, "csv": False}


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", ANNEALED, "--dt", "40", "--param", "leg_length",
     "--from", "1e-5", "--to", "1e-3", "--points", "5"],
    ["ecd", "simulate", "--config", ECD],
], ids=["sweep", "ecd-simulate"])
def test_array_commands_load_numpy(argv, tmp_path):
    # the probe can see numpy when it is there; numpy loads no csv either
    assert probe(*argv, "--out", str(tmp_path / "out.csv")) == {
        "code": 0, "numpy": True, "csv": False}
