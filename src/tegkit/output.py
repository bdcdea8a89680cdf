"""CSV artifacts and machine-readable run reports.

All three CSV writers format numeric cells as `%.17g` so a reader recovers
the exact binary values; emission is deterministic byte for byte.
A deposit series is written in blocks of rows, one format and one write per
block, with the same bytes as one row at a time; a sweep curve is written
row by row, which is already at the cost of its 17-digit cells.

Every file is written through `overwrite`: an existing file is overwritten
in place and then cut to the new length, never truncated to 0 first, and
ends up with the bytes a fresh write gives. On ext4 (default
`auto_da_alloc`) the close of a file that was truncated to 0 and rewritten
starts write-back of the whole file in the writer's thread, about 1 ms per
700 KB; writing in place skips that, and on any file system reuses the
file's page-cache pages. The trade-off: a machine crash in the middle of a
write can leave new bytes followed by old ones; tegkit promises no crash
consistency for its outputs, and no run that exits normally can tell.
"""

import contextlib
import csv
import json
import os
import stat
from dataclasses import asdict
from pathlib import Path

from .config import UW_CM2_TO_W_M2
from .device import OperatingPoint
from .ecd import DepositState
from .errors import NumericalError, ParameterError
from .optimize import ComparisonTable, SweepCurve

SWEEP_COLUMNS = [
    "param_name",
    "param_value_si",
    "dt_gen_K",
    "v_oc_V",
    "r_internal_ohm",
    "p_matched_W",
    "p_density_uW_cm2",
    "eff_factor_uW_cm2_K2",
]

ECD_COLUMNS = ["t_s", "thickness_um", "surface_conc_mol_m3"]

COMPARE_COLUMNS = ["design"] + SWEEP_COLUMNS[2:]


@contextlib.contextmanager
def overwrite(path: str | Path, mode: str = "w", **kwargs):
    """`open(path, mode, **kwargs)` for writing, over an existing file in place.

    The file is opened without O_TRUNC (a new one gets mode 0o666 & ~umask,
    as with `open`) and, on every exit, success or exception, a regular file
    is cut at the end of what was written. It keeps its inode, hard links
    and permission bits; /dev/null, a FIFO or a tty is never cut.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), mode, **kwargs) as handle:
        try:
            yield handle
        finally:
            try:
                handle.flush()
            finally:
                fd = handle.fileno()
                info = os.fstat(fd)
                if stat.S_ISREG(info.st_mode):
                    end = os.lseek(fd, 0, os.SEEK_CUR)
                    if info.st_size > end:
                        os.ftruncate(fd, end)


def emit_curve(curve: SweepCurve, path: str | Path) -> None:
    """Write a sweep curve as plot-ready CSV (one row per parameter value)."""
    if not curve.values:
        raise ParameterError("cannot emit an empty curve")
    # One format per row; the parameter name (one of SWEEPABLE_PARAMETERS)
    # and the numbers hold no quote or separator character, so the bytes are
    # those csv.writer would write.
    row = curve.parameter + ",%.17g" * 7 + "\n"
    rows = map(row.__mod__, zip(
        curve.values,
        curve.column("dt_gen"),
        curve.column("v_oc"),
        curve.column("r_internal"),
        curve.column("p_matched"),
        [x / UW_CM2_TO_W_M2 for x in curve.column("power_density")],
        [x / UW_CM2_TO_W_M2 for x in curve.column("eff_factor")],
    ))
    with overwrite(path, newline="") as handle:
        handle.write(",".join(SWEEP_COLUMNS) + "\n")
        handle.writelines(rows)


def emit_comparison(table: ComparisonTable, path: str | Path) -> None:
    """Write one row per design. Names are config file stems and may hold a
    separator or quote character, so csv.writer quotes them."""
    with overwrite(path, newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COMPARE_COLUMNS)
        for name, op in table.rows:
            writer.writerow([name] + ["%.17g" % x for x in (
                op.dt_gen, op.v_oc, op.r_internal, op.p_matched,
                op.power_density / UW_CM2_TO_W_M2, op.eff_factor / UW_CM2_TO_W_M2)])


#: Rows per block of a deposit series: one format and one write per block,
#: so the Python objects held at once are bounded by the block, not the run.
SERIES_BLOCK_ROWS = 4096


def emit_deposit_series(state: DepositState, path: str | Path) -> None:
    """Write the deposit time series as CSV, one block of rows per write.

    The cells hold no quote or separator characters, so `%.17g` cells joined
    by commas are the bytes csv.writer would write. Each block is one bytes
    `%` of the row format repeated over the block's cells, written with no
    text layer (the cells are ASCII). The deposit does not grow during a
    pause, so a block's thickness cells are formatted once per distinct
    value. Values are told apart by bit pattern: a comparison of values
    would merge 0.0 and -0.0, which print apart.
    """
    import numpy as np

    with overwrite(path, "wb") as handle:
        handle.write((",".join(ECD_COLUMNS) + "\n").encode())
        for start in range(0, state.times.size, SERIES_BLOCK_ROWS):
            block = slice(start, start + SERIES_BLOCK_ROWS)
            times = state.times[block].tolist()
            bits, which = np.unique(
                (state.thickness_series[block] / 1e-6).view(np.uint64),
                return_inverse=True,
            )
            distinct = [b"%.17g" % x for x in bits.view(np.float64).tolist()]
            cells = [None] * (3 * len(times))
            cells[0::3] = times
            cells[1::3] = map(distinct.__getitem__, which.tolist())
            cells[2::3] = state.surface_conc_series[block].tolist()
            handle.write((b"%.17g,%s,%.17g\n" * len(times)) % tuple(cells))


def operating_point_dict(op: OperatingPoint) -> dict:
    """Report form of an operating point: SI fields plus display units."""
    out = asdict(op)
    out["power_density_uW_cm2"] = op.power_density / UW_CM2_TO_W_M2
    out["eff_factor_uW_cm2_K2"] = op.eff_factor / UW_CM2_TO_W_M2
    return out


def report_text(report: dict) -> str:
    """Canonical serialization; identical inputs give identical bytes.

    Strict JSON: a NaN or infinite number raises NumericalError (CLI exit 2)
    instead of reaching the report as a bare NaN or Infinity token.
    """
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"report holds a non-finite number: {exc}") from exc

