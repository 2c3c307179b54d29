"""Command-line front end.

Every subcommand reads the same parameter JSON object
{"alpha": r, "beta": r, "gamma": r, "delta": r, "theta": r, "mass": r}
and writes either a JSON object or a CSV table to standard output
(`verify` also writes a human-readable table to standard error).
Floats are always rendered as "%.17g" renders them and field order is
fixed, so repeated runs are byte-identical. Objects and state lists go
through _write_records, as JSON by _json_dumps or as CSV lines of its own.
Every other table (CSV, or JSON {"columns", "rows"}) goes through
_write_table, which takes the CSV text of whole rows, a block at a time,
from a generator and writes it as it is or lays it out as JSON:
_float_blocks writes a float array _BLOCK_ROWS rows at a time with
_float_text, in whole-array integer arithmetic; _grid_blocks writes a
phase-diagram grid one alpha line at a time, each line one str.join.
Only _write_table knows the JSON layout. Every number outside a float
table (records, the verify document, axis labels) goes through
_json_scalar. A result that is inf or NaN is never written: the command
fails with NonFiniteResult, naming its column or key. Ranges,
phase-diagram grids and the coordinates of an nbody-eval points file are
capped at core.SIZE_CAP values; the library caps --samples by the same
rule (core.validate_count).
Exit codes: 0 on success, 1 on usage or validation errors, a non-finite
result or a closed standard output, 2 when a verification suite fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, diffraction, many_body, one_body, scattering, suites
from .core import SIZE_CAP, params_from_dict
from .errors import InputError, NonFiniteResult, OnBoundary, PointFamError, UsageError


# Tables are formatted and written, and points files parsed, this many rows at
# a time. That bounds the text held in memory, and a reader that closed
# standard output is noticed at the next block.
_BLOCK_ROWS = 1024


# _float_text writes a float array as "%.17g" writes each cell. A cell's 17
# digits are d = round(|x| * 10**(16 - e)) with e = floor(log10|x|). Dekker's
# exact product of |x| and hi, the float nearest 10**(16 - e), plus |x| times
# lo = 10**(16 - e) - hi (rounded) gives |x| * 10**(16 - e) within ~1e-14, so
# the rounding to d is certain unless the fraction lies within _TIE_BAND of
# 1/2. Such cells, cells with |x| outside [1e-270, 1e270], where a product
# would leave the float range, and cells whose log10 rounds across a power of
# ten take d and e from "%.16e" % x instead, the 17 digits "%.17g" prints.
#
# Each cell then fills a 48-byte row, six 8-byte words:
#   byte  0      "-"
#         1-5    "0.000", the lead of 0.0001 <= |x| < 0.1 in fixed notation
#         6-39   digit 1, ".", digit 2, ".", ..., digit 17, "."
#         40-44  "e", the exponent's sign and three digits
#         45     the separator
#         46-47  padding
# _KEEP[class] zeroes the bytes that the cell's text does not use, and one
# bytes.translate deletes them. The class fixes which bytes those are: the
# sign, the notation (fixed for e in -4..16, else scientific with a 2- or
# 3-digit exponent) and the number of digits left after trailing zeros.
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for 53-bit floats
_TIE_BAND = 1e-6
_K_MIN, _K_MAX = -254, 287  # 16 - e for every |x| in [1e-270, 1e270]
_E_MIN, _E_MAX = -324, 308  # the decimal exponents of finite floats
_ROW = 48


def _pow10_table() -> np.ndarray:
    """Rows (hi, lo, high, low) for 10**k, k = _K_MIN.._K_MAX.

    With 10**k = num / den, hi = num / den and lo = 10**k - hi, both
    correctly rounded by int / int division. high + low = hi is Veltkamp's
    split of hi.
    """
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi, lo = np.array(hi), np.array(lo)
    high = hi * _SPLIT - (hi * _SPLIT - hi)
    return np.stack((hi, lo, high, hi - high))


def _word_tables():
    """The words of a row, and what a cell's digits and exponent add to its class.

    lead[d]: bytes 0-7 for first digit d; quad[g]: "d.d.d.d." for the four
    digits of g; expo[e - _E_MIN]: bytes 40-47 for exponent e, separator
    ","; last[j, g]: the place among digits 1-17 of the last nonzero digit
    of g as group j = 0..3 (digits 2-5, ..., 14-17), 0 if g is 0, but 1 for
    group 0, since digit 1 is kept; notation[e - _E_MIN]: e's notation * 17 - 1.
    """
    quad = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)
    place = np.zeros((10, 10, 10, 10), np.uint8)  # of g's last nonzero digit among its four
    for i in range(4):
        digit = np.arange(10).reshape((10,) + (1,) * (3 - i))
        quad[..., 2 * i] = digit + ord("0")
        place = np.where(digit != 0, i + 1, place)
    place = place.ravel()
    last = np.where(place > 0, place + np.arange(1, 17, 4, dtype=np.uint8)[:, None], 0)
    last[0, 0] = 1
    lead = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), np.uint8)
    e = np.arange(_E_MIN, _E_MAX + 1)
    expo = np.zeros((e.size, 8), np.uint8)
    expo[:, 0] = ord("e")
    expo[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    expo[:, 2:5] = np.abs(e)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
    expo[:, 5] = ord(",")
    notation = np.where((e >= -4) & (e <= 16), e + 4, np.where(np.abs(e) >= 100, 22, 21)) * 17 - 1
    return lead.view(np.uint64), quad.view(np.uint64).ravel(), expo.view(np.uint64).ravel(), last, notation


def _keep_table() -> np.ndarray:
    """_KEEP[class]: six words whose bytes are 0xff where a row's byte is kept, else 0.

    class = (negative * 23 + notation) * 17 + digits - 1, where notation is
    e + 4 in fixed notation and 21 or 22 in scientific notation with a 2- or
    3-digit exponent, and digits (1..17) is the count left after trailing
    zeros.
    """
    byte = np.arange(_ROW)
    negative = np.arange(2)[:, None, None, None]
    notation = np.arange(23)[:, None, None]
    digits = np.arange(1, 18)[:, None]
    e = notation - 4
    fixed = notation <= 20
    place = (byte - 4) // 2  # of the digit at this byte, or of the digit the "." here follows
    in_digits = (byte >= 6) & (byte < 40)
    before = np.where(fixed, e + 1, 1)  # digits before the point; fixed notation keeps them all
    keep = (byte == 0) & (negative == 1)
    keep = keep | in_digits & (byte % 2 == 0) & (place <= np.maximum(digits, before))
    keep = keep | in_digits & (byte % 2 == 1) & (place == before) & (digits > before)
    keep = keep | fixed & (e < 0) & (byte >= 1) & (byte < 2 - e)
    keep = keep | ~fixed & (byte >= 40) & (byte < 45) & ((byte != 42) | (notation == 22))
    keep = keep | (byte == 45)
    return (keep.reshape(-1, _ROW) * np.uint8(0xFF)).view(np.uint64)


_POW10 = _pow10_table()
_LEAD, _QUAD, _EXPO, _LAST, _NOTATION = _word_tables()
_KEEP = _keep_table()


# XOR-ed into the last cell of a row, it turns that cell's "," into a newline.
_ROW_END = np.frombuffer(bytes(5) + bytes([ord(",") ^ ord("\n")]) + bytes(2), np.uint64)[0]


def _float_text(block: np.ndarray) -> str:
    """The CSV text of a 2-D finite float64 array, each cell as "%.17g" writes it.

    Every cell is followed by ",", the last cell of a row by a newline instead.
    """
    rows, cols = block.shape
    v = block.ravel()
    a = np.abs(v)
    inside = (a >= 1e-270) & (a <= 1e270)
    x = np.where(inside, a, 1.0)
    e = np.floor(np.log10(x)).astype(np.int64)
    hi, lo, high, low = np.take(_POW10, 16 - _K_MIN - e, axis=1)
    p = x * hi
    s = x * _SPLIT
    x_high = s - (s - x)
    x_low = x - x_high
    # x * hi - p exactly (Dekker), plus x * lo: x * 10**(16 - e) = p + t
    t = (((x_high * high - p) + x_high * low) + x_low * high) + x_low * low + x * lo
    r = np.rint(t)
    d = p.astype(np.int64) + r.astype(np.int64)
    proven = inside & (np.abs(np.abs(t - r) - 0.5) > _TIE_BAND) & (d >= 10**16) & (d <= 10**17)
    proven &= (d != 10**16) | (p - 1e16 + t >= 0)  # not below 10**16, where e is one too large
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    zero = a == 0
    d[zero] = 0
    e[zero] = 0
    for i in np.flatnonzero(~(proven | zero)).tolist():
        mantissa, _, exponent = ("%.16e" % v[i]).lstrip("-").partition("e")
        d[i], e[i] = int(mantissa.replace(".", "")), int(exponent)
    lead = d // 10**16
    rest = d - lead * 10**16
    upper = (rest // 10**8).astype(np.int32)  # digits 2-9
    lower = (rest - upper * 10**8).astype(np.int32)  # digits 10-17
    first, third = upper // 10**4, lower // 10**4
    groups = [first, upper - first * 10**4, third, lower - third * 10**4]
    e -= _E_MIN
    digits = functools.reduce(np.maximum, map(np.take, _LAST, groups))
    text = np.take(_KEEP, np.take(_NOTATION, e) + np.signbit(v) * (23 * 17) + digits, axis=0)
    text[:, 0] &= np.take(_LEAD, lead)
    for j, group in enumerate(groups, 1):
        text[:, j] &= np.take(_QUAD, group)
    ends = np.take(_EXPO, e)
    ends.reshape(rows, cols)[:, -1] ^= _ROW_END
    text[:, 5] &= ends
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _json_scalar(value, name: str) -> str:
    if isinstance(value, (float, np.floating)):  # first: axis labels call this for every value
        value = float(value)  # a numpy float's repr would read np.float64(...)
        if not math.isfinite(value):
            raise NonFiniteResult(f"{name} is {value!r}, not a finite number; nothing written")
        return "%.17g" % value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _json_dumps(obj, indent: int = 0, name: str = "a result") -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(k)}: {_json_dumps(v, indent + 1, k)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_json_dumps(v, indent + 1, name)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _json_scalar(obj, name)


def _write_records(columns: list[str], rows: list[tuple], output: str, key: str | None = None) -> None:
    """Write records as JSON, or as CSV lines.

    In JSON, with key None the one row is an object, with a key {key: [one
    object per row]}; in CSV, strings go as they are, other values as in
    JSON. All text is made first: a non-finite float, refused naming its
    column, leaves nothing written.
    """
    if output == "json":
        objects = [dict(zip(columns, r)) for r in rows]
        text = _json_dumps(objects[0] if key is None else {key: objects})
    else:
        lines = [",".join(v if isinstance(v, str) else _json_scalar(v, c) for c, v in zip(columns, r)) for r in rows]
        text = "\n".join([",".join(columns), *lines])
    sys.stdout.write(text + "\n")


def _write_table(columns: list[str], output: str, blocks) -> None:
    """Write a table as CSV, or as JSON {"columns": [...], "rows": [[...], ...]}.

    blocks yields the CSV text of whole rows, at least one block of them,
    each row its cells with "," between them and a newline after the last.
    CSV writes the blocks as they are; JSON lays each row out as an
    indented array, which is safe because no cell's text holds ",", ";" or
    a newline. The head goes out with the first block, so a producer that
    refuses its data before its first yield leaves nothing written.
    """
    if output == "csv":
        head, sep, tail = ",".join(columns) + "\n", "", ""
    else:
        head = '{\n  "columns": ' + _json_dumps(columns, 1) + ',\n  "rows": [\n'
        sep, tail = ",\n", "\n  ]\n}\n"
    lead = head
    for text in blocks:
        if output == "json":  # ";" ends a row until the cells are laid out
            text = text[:-1].replace("\n", ";").replace(",", ",\n      ").replace(";", "\n    ],\n    [\n      ")
            text = "    [\n      " + text + "\n    ]"
        sys.stdout.write(lead + text)
        lead = sep
    sys.stdout.write(tail)


def _float_blocks(table: np.ndarray, columns: list[str]):
    """The CSV text of each _BLOCK_ROWS rows of a 2-D float array, every cell as "%.17g" writes it.

    A non-finite cell raises NonFiniteResult, naming its column, before the first block.
    """
    finite = np.isfinite(table)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFiniteResult(f"{columns[col]} is {float(table[row, col])!r}, not a finite number; nothing written")
    for start in range(0, len(table), _BLOCK_ROWS):
        yield _float_text(table[start:start + _BLOCK_ROWS])


def _grid_blocks(outer: list[str], inner: list[str], table: np.ndarray):
    """The CSV rows outer[i],inner[j],table[i, j] of a grid of small non-negative ints.

    The text of a row after its outer cell is made once per (j, int) pair
    that occurs. Each line of fixed i, or each _BLOCK_ROWS rows of a longer
    line, is one str.join with the outer cell as the separator.
    """
    width = len(inner)
    rests = np.empty((int(table.max()) + 1, width), dtype=object)
    for count, rest in enumerate(rests):
        for j in np.flatnonzero((table == count).any(axis=0)).tolist():
            rest[j] = f",{inner[j]},{count}\n"
    for label, line in zip(outer, rests[table, np.arange(width)].tolist()):
        for start in range(0, width, _BLOCK_ROWS):
            yield label + label.join(line[start:start + _BLOCK_ROWS])


def _parse_range(text: str) -> np.ndarray:
    """lo:hi:step, inclusive of lo; the upper end uses a step/2 rounding guard.

    At most SIZE_CAP finite values; a longer range, or one whose span or
    last value overflows to inf, raises InputError before any is made.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"range must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"range must be numeric, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise InputError(f"range must be finite, got {text!r}")
    if step <= 0.0 or hi < lo:
        raise InputError(f"range needs hi >= lo and step > 0, got {text!r}")
    if math.isinf(hi - lo):
        raise InputError(f"range {text!r} overflows: hi - lo is past the largest float")
    steps = (hi - lo) / step + 0.5
    if not steps < SIZE_CAP:
        raise InputError(f"range {text!r} has more than {SIZE_CAP} values")
    if not math.isfinite(lo + int(steps) * step):  # the last value, as numpy rounds it
        raise InputError(f"range {text!r} overflows past the largest float")
    return lo + np.arange(int(steps) + 1) * step


def _load_params(path: str):
    try:
        data = json.loads("".join(itertools.chain.from_iterable(_line_blocks(path))))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path!r} is not valid JSON: {exc}") from exc
    return params_from_dict(data)


def _load_points(path: str, n: int) -> np.ndarray:
    """The (P, n) points of a CSV file, one point per line.

    Line 1 is a header if it is not all numbers. Blank lines and text from
    "#" to the end of a line are skipped; spaces around cells and CRLF
    endings are allowed. The file is read _BLOCK_ROWS lines at a time and
    numpy's C reader parses each block; a block it refuses, or one with a
    NaN or infinite coordinate, is read again line by line to name the
    line. Once the points so far hold more than SIZE_CAP coordinates, the
    file is refused and the rest goes unread.
    """
    tables, size = [], 0
    for first, block in _point_blocks(path):
        table = _read_numbers(block)
        if table is None or table.size and (table.shape[1] != n or not np.isfinite(table).all()):
            for line_no, line in enumerate(block, first):
                row = _read_numbers([line])
                if row is None:
                    raise InputError(f"{path!r} line {line_no}: bad number")
                if row.size and row.shape[1] != n:
                    raise InputError(f"{path!r} line {line_no}: expected {n} coordinates, got {row.shape[1]}")
                if not np.isfinite(row).all():
                    raise InputError(f"{path!r} line {line_no}: {float(row[~np.isfinite(row)][0])!r} is not finite")
        size += table.size
        if size > SIZE_CAP:
            raise InputError(f"{path!r} has more than {SIZE_CAP} coordinates")
        tables.append(table.reshape(-1, n))
    if not size:
        raise InputError(f"{path!r} contains no points")
    return np.concatenate(tables)


def _point_line(path: str, row: int) -> int:
    """The line number of the 0-based point row of a points file as _load_points reads it."""
    for first, block in _point_blocks(path):
        for line_no, line in enumerate(block, first):
            if line.split("#", 1)[0].strip():
                if not row:
                    return line_no
                row -= 1
    raise InputError(f"{path!r} changed while it was read")


def _point_blocks(path: str):
    """(number of its first line, lines) for each block of a points file, line 1 blanked if it is a header."""
    for k, block in enumerate(_line_blocks(path)):
        if k == 0 and _read_numbers(block[:1]) is None:
            block[0] = ""  # header row
        yield k * _BLOCK_ROWS + 1, block


def _line_blocks(path: str):
    """The lines of a UTF-8 text file, _BLOCK_ROWS at a time, without a leading byte-order mark."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            try:
                while block := list(itertools.islice(fh, _BLOCK_ROWS)):
                    yield block
            except UnicodeDecodeError as exc:
                where = "a byte"  # a pipe cannot tell how far it was read
                if fh.seekable():  # exc.object holds the decoder's last input, which ends where the file was read to
                    where = f"the byte at offset {fh.buffer.tell() - len(exc.object) + exc.start}"
                raise InputError(f"cannot read {path!r}: {where} is not UTF-8 ({exc.reason})") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc


def _read_numbers(lines: list[str]) -> np.ndarray | None:
    """The comma-separated numbers on these lines as a 2-D array, or None if one is not a number."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # lines with no numbers on them
        try:
            return np.loadtxt(map(str.strip, lines), delimiter=",", comments="#", ndmin=2)
        except ValueError:
            return None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


@functools.cache  # parse_args leaves the parser as it found it, so one per process serves every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pointfam",
        description=(
            "Exact bound states, scattering amplitudes, and diffraction tests "
            "for the four-parameter family of point interactions in one dimension."
        ),
    )
    parser.add_argument("--version", action="version", version=f"pointfam {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def add(run, help_text: str, params: bool = True, output: str | None = None):
        """Declare the subcommand that run handles: _cmd_nbody_eval is "nbody-eval"."""
        p = sub.add_parser(run.__name__.removeprefix("_cmd_").replace("_", "-"), help=help_text)
        p.set_defaults(run=run)
        if params:
            p.add_argument("--params", required=True, metavar="FILE", help="parameter JSON file")
        if output is not None:
            p.add_argument(
                "--output", choices=("json", "csv"), default=output, help="output format"
            )
        return p

    add(_cmd_params_check, "validate a parameter file and echo it back", output="json")

    add(_cmd_bound, "bound-state spectrum", output="json")

    p = add(_cmd_scatter, "transmission/reflection sweep over wavenumbers", output="csv")
    p.add_argument("--k-range", required=True, metavar="K0:K1:STEP")

    p = add(_cmd_phase_diagram, "bound-state count over an (alpha, gamma) grid", params=False, output="csv")
    p.add_argument("--delta", required=True, type=float)
    p.add_argument("--alpha", required=True, metavar="A0:A1:STEP")
    p.add_argument("--gamma", required=True, metavar="G0:G1:STEP")
    p.add_argument("--beta", type=float, default=None, help="required when delta = 0, refused otherwise")

    p = add(_cmd_nbody, "N-body bound states", output="json")
    p.add_argument("--n", required=True, type=int)

    p = add(_cmd_nbody_eval, "evaluate an N-body state on points from a CSV file", output="csv")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--state-index", required=True, type=int, help="0 = ground state")
    p.add_argument("--points", required=True, metavar="FILE")

    p = add(_cmd_diffraction, "outgoing ray amplitudes at one (k, phi)", output="json")
    p.add_argument("--k", required=True, type=float)
    p.add_argument("--phi", required=True, type=float)
    p.add_argument(
        "--middle-reflection", choices=("minus", "plus"), default="minus",
        help="incidence suffix of the middle reflection on the transmitted two-segment path",
    )

    p = add(_cmd_diffraction_scan, "max diffraction residual over a quasi-random sweep", output="json")
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--middle-reflection", choices=("minus", "plus"), default="minus")

    p = add(_cmd_verify, "run first-principles verification suites (exit 2 on failure)", params=False)
    p.add_argument("--suite", required=True, choices=suites.SUITE_NAMES + ("all",))

    p = add(
        _cmd_mcguire,
        "reference decay constant and energy for the attractive contact "
        "potential with bare pair strength g0; for the canonical families, "
        "'delta' takes beta = -g and 'anti_delta' takes beta = +g",
        params=False,
        output="json",
    )
    p.add_argument("--g0", required=True, type=float)
    p.add_argument("--mass", required=True, type=float)
    p.add_argument("--n", required=True, type=int)

    return parser


def _cmd_params_check(args) -> int:
    record = args.params.to_dict()
    _write_records(list(record), [tuple(record.values())], args.output)
    return 0


def _cmd_bound(args) -> int:
    rows = [
        (st.kappa, st.energy, st.eta.real, st.eta.imag)
        for st in one_body.bound_spectrum(args.params)
    ]
    _write_records(["kappa", "energy", "eta_re", "eta_im"], rows, args.output, "states")
    return 0


def _cmd_scatter(args) -> int:
    columns = ["k", "|T|^2", "|R|^2", "re(T+)", "im(T+)", "re(R+)", "im(R+)", "re(R-)", "im(R-)"]
    ks = _parse_range(args.k_range)
    amps = scattering.amplitudes(args.params, ks)
    t, r, r_minus = amps.t_plus, amps.r_plus, amps.r_minus
    moduli = [np.hypot(z.real, z.imag) ** 2 for z in (t, r)]
    table = np.column_stack([ks, *moduli, t.real, t.imag, r.real, r.imag, r_minus.real, r_minus.imag])
    _write_table(columns, args.output, _float_blocks(table, columns))
    return 0


def _cmd_phase_diagram(args) -> int:
    alphas = _parse_range(args.alpha)
    gammas = _parse_range(args.gamma)
    if len(alphas) * len(gammas) > SIZE_CAP:
        raise InputError(f"the grid has more than {SIZE_CAP} points")
    counts = one_body.phase_diagram_count(alphas[:, None], gammas[None, :], args.delta, args.beta)
    labels = [[_json_scalar(v, name) for v in axis.tolist()] for name, axis in (("alpha", alphas), ("gamma", gammas))]
    _write_table(["alpha", "gamma", "count"], args.output, _grid_blocks(*labels, counts))
    return 0


def _cmd_nbody(args) -> int:
    rows = [
        (st.kappa, st.energy, st.eta.real, st.eta.imag, st.c_even.real, st.c_even.imag,
         st.c_odd.real, st.c_odd.imag, many_body.symmetry_class(st))
        for st in many_body.nbody_bound_states(args.params, args.n)
    ]
    columns = [
        "kappa", "energy", "eta_re", "eta_im", "c_even_re", "c_even_im", "c_odd_re", "c_odd_im", "symmetry"
    ]
    _write_records(columns, rows, args.output, "states")
    return 0


def _cmd_nbody_eval(args) -> int:
    states = many_body.nbody_bound_states(args.params, args.n)
    if not 0 <= args.state_index < len(states):
        raise InputError(f"state index {args.state_index} out of range; {len(states)} state(s) available")
    points = _load_points(args.points, args.n)
    try:
        psi = many_body.eval_nbody_wavefunction(states[args.state_index], points)
    except OnBoundary as exc:
        raise OnBoundary(f"{args.points!r} line {_point_line(args.points, exc.row)}: {exc.detail}") from exc
    columns = [f"x{i}" for i in range(1, args.n + 1)] + ["re(psi)", "im(psi)"]
    _write_table(columns, args.output, _float_blocks(np.column_stack((points, psi.real, psi.imag)), columns))
    return 0


def _cmd_diffraction(args) -> int:
    kin = diffraction.ray_kinematics(args.k, args.phi)
    report = diffraction.outgoing_amplitudes(args.params, kin, args.middle_reflection)
    record = {
        "k": kin.k, "phi": kin.phi, "k1": kin.k1, "k2": kin.k2, "k3": kin.k3,
        "amp_two_path_re": report.amp_two_path.real, "amp_two_path_im": report.amp_two_path.imag,
        "amp_one_path_re": report.amp_one_path.real, "amp_one_path_im": report.amp_one_path.imag,
        "residual_re": report.residual.real, "residual_im": report.residual.imag,
        "residual_norm": report.residual_norm, "middle_reflection": args.middle_reflection,
    }
    _write_records(list(record), [tuple(record.values())], args.output)
    return 0


def _cmd_diffraction_scan(args) -> int:
    max_residual, verdict = diffraction.no_diffraction_scan(args.params, args.samples, args.middle_reflection)
    record = {
        "samples": args.samples,
        "max_residual": max_residual,
        "verdict": verdict,
        "middle_reflection": args.middle_reflection,
    }
    _write_records(list(record), [tuple(record.values())], args.output)
    return 0


def _cmd_verify(args) -> int:
    reports, notes = suites.run_suite(args.suite)
    name_width = max(len(r.check_name) for r in reports)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"{rep.check_name:<{name_width}}  max={rep.max_residual:.3e}  "
            f"tol={rep.tolerance:.1e}  n={rep.samples:<6d} {status}",
            file=sys.stderr,
        )
    all_passed = all(r.passed for r in reports)
    payload = {
        "suite": args.suite,
        "checks": [dataclasses.asdict(r) for r in reports],
        "notes": list(notes),
        "all_passed": all_passed,
    }
    sys.stdout.write(_json_dumps(payload) + "\n")
    return 0 if all_passed else 2


def _cmd_mcguire(args) -> int:
    kappa, energy = many_body.mcguire_reference(args.g0, args.mass, args.n)
    record = {
        "g0": args.g0, "mass": args.mass, "n": args.n, "kappa": kappa, "energy": energy,
        "g": many_body.coupling_from_pair_strength(args.g0),
        "g_mcguire": -args.g0 * math.sqrt(2.0), "g_cd": -args.g0,
    }
    _write_records(list(record), [tuple(record.values())], args.output)
    return 0


def main(argv: list[str] | None = None) -> int:
    stdout = sys.stdout
    if stdout is sys.__stdout__ and isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        # Unbuffered (PYTHONUNBUFFERED), the text layer drops the count of a short write to
        # a closing pipe; a BufferedWriter writes the rest or raises BrokenPipeError.
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(stdout.buffer), stdout.encoding, stdout.errors)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"pointfam: usage error: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_help()
        return 1
    try:
        if "params" in args:  # add(params=True) declares it; read here, before the handler runs
            args.params = _load_params(args.params)
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
        return code
    except PointFamError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader is gone; what is still buffered goes to devnull, not to a second error at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
