"""The CLI's failure contract as a property of every run, not a list of cases.

`cli.main` runs in process on the shipped configs, with the ECD bath's
defaulted keys written out and one to three numeric leaves mutated, over all
seven subcommands, with the numeric arguments drawn the same way. A mutated
number is kept, scaled by 10^U(-8, 8), or replaced by one of SPECIALS.
Whatever the inputs, a run returns 0, 1 or 2; on 0 its stdout is strict
JSON, and on 1 or 2 its stderr is one named line and no file exists at its
fresh --out path.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tegkit.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DESIGNS = ["bi2te3_annealed", "bi2te3_as_deposited", "cu_ni", "ecd_pulse_train"]
SPECIALS = [0.0, -1.0, 5e-324, 1e-300, 1e-12, 1e12, 1e300, 1.7e308]
# Bath keys the shipped config leaves at the standard bath's values; written
# out, so that the fuzz mutates them too.
BATH_DEFAULTS = {"molar_mass_g_mol": 800.76, "density_g_cm3": 7.7,
                 "electrons_per_formula": 18}
# The shipped plan's 25 s run; a longer one only costs the test time.
TOTAL_TIME_CAP_S = 25.0
# Sweep bounds in SI around each parameter's working range.
SWEEP_BOUNDS = {
    "leg_length": (1e-5, 1e-3),
    "fill_factor": (0.05, 1.0),
    "contact_resistivity": (1e-12, 1e-8),
    "interface_resistance": (0.1, 20.0),
    "dt_meas": (1.0, 80.0),
}
PREFIXES = ("error: ", "i/o error: ", "numerical failure: ")


def numeric_leaves(doc, path=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from numeric_leaves(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,)


def number(base):
    return st.one_of(
        st.just(base),
        st.floats(-8.0, 8.0).map(lambda u: base * 10.0 ** u),
        st.sampled_from(SPECIALS),
    )


def refuse(token):
    raise AssertionError(f"non-finite {token} in a report")


@st.composite
def runs(draw):
    """(argv with {0}, {1}, ... for config paths and {out}, the config docs)."""
    command = draw(st.sampled_from(
        ["eval", "sweep", "optimize", "compare", "calibrate", "simulate", "sand-time"]))
    if command in ("simulate", "sand-time"):
        names = ["ecd_pulse_train"]
    elif command == "compare":
        names = draw(st.lists(st.sampled_from(DESIGNS), min_size=2, max_size=3))
    else:
        names = [draw(st.sampled_from(DESIGNS))]
    docs = [json.loads((CONFIGS / f"{name}.json").read_text()) for name in names]
    for doc in docs:
        if "ecd" in doc:
            doc["ecd"]["bath"] = {**BATH_DEFAULTS, **doc["ecd"]["bath"]}
    leaves = [(i, path) for i, doc in enumerate(docs) for path in numeric_leaves(doc)]
    for i, path in draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=3,
                                 unique=True)):
        *parents, key = path
        node = docs[i]
        for parent in parents:
            node = node[parent]
        node[key] = draw(number(float(node[key])))
    for doc in docs:
        pulse = doc.get("ecd", {}).get("pulse")
        if pulse is not None:
            pulse["total_time_s"] = min(pulse["total_time_s"], TOTAL_TIME_CAP_S)

    dt = ["--dt", repr(draw(number(40.0)))]
    if command == "eval":
        argv = ["eval", "--config", "{0}", *dt]
    elif command == "sweep":
        param = draw(st.sampled_from(sorted(SWEEP_BOUNDS)))
        lo, hi = SWEEP_BOUNDS[param]
        argv = ["sweep", "--config", "{0}", *dt, "--param", param,
                "--from", repr(draw(number(lo))), "--to", repr(draw(number(hi))),
                "--points", str(draw(st.integers(2, 64)))]
        if draw(st.booleans()):
            argv.append("--log")
    elif command == "optimize":
        argv = ["optimize", "--config", "{0}", *dt,
                "--from", repr(draw(number(1e-5))), "--to", repr(draw(number(1e-3)))]
    elif command == "compare":
        configs = (a for i in range(len(docs)) for a in ("--config", f"{{{i}}}"))
        argv = ["compare", *configs, *dt]
    elif command == "calibrate":
        argv = ["calibrate", "--config", "{0}", *dt,
                "--target", repr(draw(number(278.5)))]
    elif command == "simulate":
        argv = ["ecd", "simulate", "--config", "{0}"]
    else:
        argv = ["ecd", "sand-time", "--config", "{0}"]
        if draw(st.booleans()):
            argv += ["--j", repr(draw(number(232.5)))]
    return argv + ["--out", "{out}"], docs


@settings(max_examples=300, derandomize=True, database=None)
@given(runs())
def test_every_run_keeps_the_failure_contract(run):
    template, docs = run
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            # distinct stems: compare names each design after its file
            path = Path(tmp) / f"design{i}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        out_path = Path(tmp) / "fresh" / "out.csv"
        out_path.parent.mkdir()
        argv = [a.format(*paths, out=out_path) for a in template]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        out, err = stdout.getvalue(), stderr.getvalue()
        assert code in (0, 1, 2), argv
        if code == 0:
            json.loads(out, parse_constant=refuse)  # strict: no NaN or Infinity
        else:
            assert out == "", argv
            assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
            assert err.startswith(PREFIXES), (argv, err)
            assert not out_path.exists(), argv

