"""CSV artifacts and machine-readable run reports.

All three CSV writers format numeric cells as `%.17g` so a reader recovers
the exact binary values; emission is deterministic byte for byte.
A sweep curve and a deposit series share one block generator: each block of
rows, in display units, fills one reused buffer of BLOCK_CELLS cells, which
one vectorised kernel (`_csv_rows`) formats with the bytes of `%.17g`. A
comparison table keeps `%` for its few rows, so `compare` never loads numpy.

Every file is UTF-8 bytes with "\n" line ends, written by `write_file` with
one `os.write` per chunk and no file object: an existing file is overwritten
in place and then cut to the new length, never truncated to 0 first, and
ends up with the bytes a fresh write gives. On ext4 (default
`auto_da_alloc`) the close of a file that was truncated to 0 and rewritten
starts write-back of the whole file in the writer's thread, about 1 ms per
700 KB; writing in place skips that, and on any file system reuses the
file's page-cache pages. The trade-off: a machine crash in the middle of a
write can leave new bytes followed by old ones; tegkit promises no crash
consistency for its outputs, and no run that exits normally can tell.
"""

import functools
import json
import math
import os
import stat
from dataclasses import asdict
from pathlib import Path

from .config import UW_CM2_TO_W_M2
from .device import OperatingPoint
from .ecd import DepositState
from .errors import NumericalError, ParameterError
from .optimize import ComparisonTable, SweepCurve

#: Operating-point cells of the sweep and comparison CSVs: (field, header, divisor)
_POINT_CELLS = (
    ("dt_gen", "dt_gen_K", 1.0),
    ("v_oc", "v_oc_V", 1.0),
    ("r_internal", "r_internal_ohm", 1.0),
    ("p_matched", "p_matched_W", 1.0),
    ("power_density", "p_density_uW_cm2", UW_CM2_TO_W_M2),
    ("eff_factor", "eff_factor_uW_cm2_K2", UW_CM2_TO_W_M2),
)

SWEEP_COLUMNS = ["param_name", "param_value_si"] + [h for _, h, _ in _POINT_CELLS]

ECD_COLUMNS = ["t_s", "thickness_um", "surface_conc_mol_m3"]

COMPARE_COLUMNS = ["design"] + [h for _, h, _ in _POINT_CELLS]
_COMPARE_ROW = ",%.17g" * len(_POINT_CELLS) + "\n"
_QUOTED = frozenset(',"\r\n')  # a design name holding one of these is quoted


def write_file(path: str | Path, chunks) -> None:
    """Write the bytes `chunks` to `path`, over an existing file in place.

    The file is opened without O_TRUNC (a new one gets mode 0o666 & ~umask,
    as with `open`) and, on every exit, success or exception, a regular file
    is cut at the end of the last whole chunk written. It keeps its inode,
    hard links and permission bits; /dev/null, a FIFO or a tty is never cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    end = 0
    try:
        for chunk in chunks:
            view = memoryview(chunk)
            while view:  # a short write leaves the rest of the chunk
                view = view[os.write(fd, view):]
            end += len(chunk)
    finally:
        try:
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode) and info.st_size > end:
                os.ftruncate(fd, end)
        finally:
            os.close(fd)


def emit_curve(curve: SweepCurve, path: str | Path) -> None:
    """Write a sweep curve as plot-ready CSV: one row per parameter value,
    led by the parameter's name (one of SWEEPABLE_PARAMETERS)."""
    if len(curve.values) == 0:
        raise ParameterError("cannot emit an empty curve")
    write_file(path, _csv_blocks(SWEEP_COLUMNS, [(curve.values, 1.0)] + [
        (curve.column(field), divisor) for field, _, divisor in _POINT_CELLS
    ], curve.parameter.encode()))


def emit_comparison(table: ComparisonTable, path: str | Path) -> None:
    r"""One row per design, one `%` per row. A name holding `,`, `"`, `\r` or `\n`
    is quoted, inner `"` doubled; a non-UTF-8 config stem keeps its bytes."""
    lines = [",".join(COMPARE_COLUMNS) + "\n"]
    for name, op in table.rows:
        if not _QUOTED.isdisjoint(name):
            name = '"%s"' % name.replace('"', '""')
        cells = [getattr(op, field) / divisor for field, _, divisor in _POINT_CELLS]
        lines.append(name + _COMPARE_ROW % tuple(cells))
    write_file(path, ["".join(lines).encode("utf-8", "surrogateescape")])


def emit_deposit_series(state: DepositState, path: str | Path) -> None:
    """Write the deposit time series as CSV, one row per recorded instant."""
    write_file(path, _csv_blocks(ECD_COLUMNS, [
        (state.times, 1.0),
        (state.thickness_series, 1e-6),
        (state.surface_conc_series, 1.0),
    ]))


def _csv_blocks(header: list[str], columns, lead: bytes = b""):
    """Yield `header`, then the `_csv_rows` lines of `columns` block by block,
    (float64 array, divisor) pairs of one length, each array over its divisor.
    No cell holds a quote, separator or line-end character, so none is quoted."""
    import numpy as np

    n = len(columns[0][0])
    buffer = np.empty((BLOCK_CELLS // len(columns), len(columns)))
    yield (",".join(header) + "\n").encode()
    for start in range(0, n, len(buffer)):
        block = buffer[:n - start]  # C order, so `_csv_rows` views it flat
        for i, (column, divisor) in enumerate(columns):
            part = column[start:start + len(block)]
            block[:, i] = part if divisor == 1 else part / divisor  # a copy costs less
        yield _csv_rows(block, lead)


#: Cells per block of a sweep curve or deposit series (219 curve rows, 512
#: series rows). Each block is one call of `_csv_rows` and one write, so the
#: memory it touches is bounded by the block, not the table: about 0.5 MB
#: of arrays and buffers at 1536 cells, 1 MB at 3072. The size is the best
#: of the design_space benchmark (seed 7, 10 s runs, tasks/s): 1024 cells
#: 1707-1728, 1536 1837-2002, 2048 1775-1930, 3072 1570-1826. A kernel
#: timed alone in a warm loop favours 3072, but in the benchmark other
#: work runs between blocks and glibc trims the heap a larger block grew,
#: so the next one faults its pages in again: minor faults per sweep task
#: were 110 at 3072 cells, 10 at 2048 and 2-3 at 1536 (2-CPU Xeon, numpy 2.4).
BLOCK_CELLS = 1536

# `_csv_rows` formats 1e-30 <= |x| <= 1e30 itself, the range of the
# quantities tegkit writes, and hands other values to `%`; its power table
# covers the exponents that a rounded-down log10 of that range gives.
_K_LOW, _K_HIGH = -31, 29

# A cell's slot in `_csv_rows`: six little-endian 64-bit words,
#   word 0     sign (NUL or "-"), "0.000", the first digit, "."
#   words 1-4  digits 2 to 17, each followed by "."
#   word 5     "e", exponent sign, two exponent digits, separator, 3 NULs
_SLOT = 48
_CELL = bytes(40) + b"e+00,\0\0\0"


@functools.cache
def _cell_tables():
    """Lookup tables of `_csv_rows`, built on its first call.

    powers   (6, 61) float64 by exponent k: hi + lo = 10^(16 - k) as a
             double-double to 2^-106 relative (from Python ints), hi's two
             26-bit halves for Dekker's product, the mask row of k's
             layout with 17 significant digits, and k's exponent word
             "e+dd" as an integer
    groups   the word "d.d.d.d." of each 4-digit group
    zeros    int8 count of a 4-digit group's trailing zeros, 4 for 0000
    first    word 0 by first digit + 10 * sign
    mask     slot masks by layout and count of significant digits (1-17);
             layouts 0-22 are exponents -5 to 17, where -5 and 17 stand for
             %g's exponent form and the rest for its fixed form
    """
    import numpy as np

    def power(k):  # hi + lo = 10^(16 - k), each correctly rounded
        if k <= 16:
            p = 10 ** (16 - k)
            return float(p), float(p - int(float(p)))
        q = 10 ** (k - 16)
        m, d = (1 / q).as_integer_ratio()  # int / int is correctly rounded
        return 1 / q, (d - m * q) / (q * d)

    k = range(_K_LOW, _K_HIGH + 1)
    hi, lo = np.array([power(e) for e in k]).T
    c = hi * 134217729.0  # 2^27 + 1, Dekker's split
    hi_high = c - (c - hi)
    # less a digit for each trailing zero of N gives N's mask row
    offset = [(min(max(e, -5), 17) + 5) * 17 + 16 for e in k]
    exponent = np.frombuffer(b"".join(b"e%+03d" % e for e in k), np.uint32)
    powers = np.array([hi, hi_high, hi - hi_high, lo, offset, exponent])

    chars = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)
    for i in range(4):
        chars[..., 2 * i] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - i))
    groups = chars.view(np.uint64).ravel()
    zeros = np.zeros(10**4, np.int8)
    for step in (10, 100, 1000, 10**4):
        zeros[::step] += 1
    first = np.frombuffer(
        b"".join(sign + b"0.000%d." % i for sign in (b"\0", b"-") for i in range(10)),
        np.uint64)

    x = np.arange(-5, 18)[:, None, None]
    digits = np.arange(1, 18)[:, None]
    pos = np.arange(_SLOT)
    exp_form = (x < -4) | (x > 16)
    shown = np.maximum(digits, np.where(exp_form, 0, x + 1))  # digits printed
    dot = np.where(exp_form, 0, x)  # "." follows this digit if a digit follows it
    dot = np.where((dot >= 0) & (digits > dot + 1), dot, -2)
    # the digit at each position, and the digit a "." there follows
    digit_at = np.where((pos >= 6) & (pos < 40) & (pos % 2 == 0), (pos - 6) // 2, 99)
    dot_at = np.where((pos >= 7) & (pos < 39) & (pos % 2 == 1), (pos - 7) // 2, -1)
    keep = ((pos == 0) | (pos == 44)
            | ((pos >= 1) & (pos < 2 - x) & (x < 0) & ~exp_form)  # "0.000"
            | ((pos >= 40) & (pos < 44) & exp_form)
            | (digit_at < shown) | (dot_at == dot))
    mask = (keep.view(np.uint8) * np.uint8(255)).reshape(-1, _SLOT).view(np.uint64)
    divisors = np.array([10**16, 10**12, 10**8, 10**4, 1])[:, None]
    return powers, groups, zeros, first, mask, divisors


def _csv_rows(table, lead: bytes = b"") -> bytes:
    """CSV lines of a float64 (rows, columns) array: `lead` (ASCII with no
    NUL) and a comma if it is given, then each cell as `b"%.17g" % x`,
    comma-separated.

    Every byte equals Python's. For 1e-30 <= |x| <= 1e30, with
    k = floor(log10|x| - 1e-12), the decimal exponent or one below it,
    y = |x| * 10^(16 - k) is Dekker's exact product of |x| and hi
    (T. J. Dekker, Numer. Math. 18 (1971) 224) plus |x| * lo, where
    hi + lo = 10^(16 - k) to 2^-106 relative. Each of the three rounding
    errors is at most 2^-49 on a y below 2^57, so y is found to 2^-47, and
    N = round(y) is exact when y's fraction is more than 2^-30 from 1/2.
    A cell goes through Python's `%` instead when:
    - it is 0, -0, nan or inf, or |x| lies outside [1e-30, 1e30];
    - y's fraction is within 2^-30 of 1/2;
    - N >= 10^17: k was one low, or y rounds up to 10^17.
    Otherwise N holds the 17 significant digits and k the exponent. The
    digits go into the cell's slot from the group tables. N's count of
    significant digits is 17 less its trailing zeros, read from the zeros
    table for its last 4-digit group; only where that group is 0000 (an
    integer, a short decimal) are the groups before it read too. The slot
    mask of %g's layout for k and that count zeroes the bytes the cell does
    not print, and the zero bytes are deleted.
    """
    import numpy as np

    powers, groups, zeros, first, mask, divisors = _cell_tables()
    rows, columns = table.shape
    head = (lead + b",") if lead else b""
    head += bytes(-len(head) % 8)
    buf = bytearray((head + _CELL * columns)[:-4] + b"\n\0\0\0")  # a "\n" ends the row
    buf *= rows
    words = np.frombuffer(buf, np.uint64).reshape(rows, -1)[:, len(head) // 8:]
    cells = words.reshape(rows, columns, _SLOT // 8)

    x = table.reshape(-1)
    a = np.abs(x)
    b = np.fmin(np.fmax(a, 1e-30), 1e30)
    ok = a == b
    j = np.log10(b)
    j += -_K_LOW - 1e-12
    hi, hi_high, hi_low, lo, offset, exponent = np.take(powers, j.astype(np.intp), axis=1)
    c = b * 134217729.0
    b_high = c - (c - b)
    b_low = b - b_high
    p = b * hi
    e = b_high * hi_high
    e -= p
    t = b_high * hi_low
    e += t
    np.multiply(b_low, hi_high, out=t)
    e += t
    np.multiply(b_low, hi_low, out=t)
    e += t
    np.multiply(b, lo, out=t)
    e += t  # y = p + e
    r = np.rint(e)
    e -= r
    n = p.astype(np.int64)
    n += r.astype(np.int64)  # N
    ok &= np.abs(e) < 0.5 - 2.0**-30
    ok &= n < 10**17

    q = n // divisors  # first digit, then the four 4-digit groups
    q[1:] -= q[:-1] * 10000
    q[0] += np.signbit(x) * 10
    cells[..., 0] = np.take(first, q[0], mode="clip").reshape(rows, columns)
    cells[..., 1:5] = groups[q[1:]].T.reshape(rows, columns, 4)
    row = offset.astype(np.intp)
    row -= zeros[q[4]]
    rare = np.flatnonzero(q[4] == 0)
    if rare.size:  # N ends in 0000: count the zeros of the groups before
        more = zeros[q[1, rare]]
        for group in q[2:4, rare]:
            more = np.where(group == 0, more + 4, zeros[group])
        row[rare] -= more
    np.copyto(words.view(np.uint32).reshape(rows, columns, _SLOT // 4)[..., 10],
              exponent.reshape(rows, columns), casting="unsafe")  # bytes 40-43
    cells &= np.take(mask, row.reshape(rows, columns), axis=0)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        text = b"".join((b"%.17g" % v).ljust(44, b"\0") for v in x[bad].tolist())
        cells.view(np.uint8)[bad // columns, bad % columns, :44] = (  # up to the separator
            np.frombuffer(text, np.uint8).reshape(-1, 44))
    return bytes(buf).translate(None, b"\0")


def operating_point_dict(op: OperatingPoint) -> dict:
    """Report form of an operating point: SI fields plus display units."""
    out = asdict(op)
    out["power_density_uW_cm2"] = op.power_density / UW_CM2_TO_W_M2
    out["eff_factor_uW_cm2_K2"] = op.eff_factor / UW_CM2_TO_W_M2
    return out


def report_text(report: dict) -> str:
    """Canonical serialization; identical inputs give identical bytes.

    Strict JSON: a NaN or infinite number raises NumericalError (CLI exit 2)
    naming its key path, instead of reaching the report as a bare NaN or
    Infinity token.
    """
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        where = _non_finite(report, "")
        raise NumericalError(f"report holds a non-finite number: {where or exc}") from exc


def _non_finite(node, path: str) -> str | None:
    """`path = value` of the first NaN or infinite float in `node`, in the
    order of `json.dumps(sort_keys=True)`, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else f"{path} = {node}"
    items = (sorted(node.items()) if isinstance(node, dict)
             else enumerate(node) if isinstance(node, (list, tuple)) else ())
    for key, value in items:
        key = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key
        if where := _non_finite(value, key):
            return where
    return None
