"""Command-line front end.

Every subcommand reads the same parameter JSON object
{"alpha": r, "beta": r, "gamma": r, "delta": r, "theta": r, "mass": r}
and writes either a JSON object or a CSV table to standard output
(`verify` also writes a human-readable table to standard error).
Floats are always rendered with 17 significant digits and field order is
fixed, so repeated runs are byte-identical. Objects and state lists go
through _write_records, as JSON by _json_dumps or as CSV lines of its own;
every other table (CSV, or JSON {"columns", "rows"}) is a float array or a
_Grid and goes to _write_table, which formats each row with one %-template
and writes blocks of rows. A phase-diagram grid goes out one alpha line at
a time, each line one str.join of pieces cut from the row template and
separator that _write_table builds from _Grid's cell templates.
A result that is inf or NaN is never written: the command fails with
NonFiniteResult instead. Ranges, phase-diagram grids and --samples are
capped at SIZE_CAP values. Exit codes: 0 on success, 1 on usage or
validation errors, a non-finite result or a closed standard output,
2 when a verification suite fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, diffraction, many_body, one_body, scattering, suites
from .core import params_from_dict
from .errors import InputError, NonFiniteResult, PointFamError, UsageError


# Largest number of values one lo:hi:step range, one phase-diagram grid or
# one --samples may ask for. Larger requests are refused before anything is
# allocated: a million scatter rows are already ~0.2 GB of CSV.
SIZE_CAP = 1_000_000

_FLOAT = "%.17g"

# Tables are formatted and written, and points files parsed, this many rows at
# a time. That bounds the text held in memory, and a reader that closed
# standard output is noticed at the next block.
_BLOCK_ROWS = 1024


def _fmt(value: float) -> str:
    return _FLOAT % value


def _json_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)  # a numpy float's repr would read np.float64(...)
        if not math.isfinite(value):
            raise NonFiniteResult(f"a result is {value!r}, not a finite number; nothing written")
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _json_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(k)}: {_json_dumps(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _json_scalar(obj)


def _write_records(columns: list[str], rows: list[tuple], output: str, key: str | None = None) -> None:
    """Write records as JSON, or as CSV lines.

    A non-finite float raises NonFiniteResult, naming its column, before
    anything is written. In JSON, with key None the one row goes out as an
    object, and with a key as {key: [one object per row]}. In CSV, strings
    are written as they are and every other value as in JSON.
    """
    for row in rows:
        for column, value in zip(columns, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise NonFiniteResult(f"{column} is {float(value)!r}, not a finite number; nothing written")
    if output == "json":
        objects = [dict(zip(columns, r)) for r in rows]
        sys.stdout.write(_json_dumps(objects[0] if key is None else {key: objects}) + "\n")
    else:
        lines = [",".join(v if isinstance(v, str) else _json_scalar(v) for v in r) for r in rows]
        sys.stdout.write("\n".join([",".join(columns), *lines]) + "\n")


def _write_table(columns: list[str], rows, output: str) -> None:
    """Write a table as CSV, or as JSON {"columns": [...], "rows": [[...], ...]}.

    rows is a non-empty 2-D float array, every cell written with "%.17g",
    or a _Grid, written with its cell templates. One %-template formats a
    row. A non-finite float raises NonFiniteResult before anything is written.
    """
    grid = isinstance(rows, _Grid)
    if not grid:
        finite = np.isfinite(rows)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise NonFiniteResult(
                f"{columns[col]} is {float(rows[row, col])!r}, not a finite number; nothing written"
            )
    cells = _Grid.cells if grid else [_FLOAT] * rows.shape[1]
    if output == "csv":
        head, template, sep, tail = ",".join(columns) + "\n", ",".join(cells) + "\n", "", ""
    else:
        head = '{\n  "columns": ' + _json_dumps(columns, 1) + ',\n  "rows": [\n'
        template, sep, tail = "    [\n      " + ",\n      ".join(cells) + "\n    ]", ",\n", "\n  ]\n}\n"
    blocks = rows.blocks(template, sep) if grid else _row_blocks(rows, template, sep)
    sys.stdout.write(head)
    lead = ""
    for text in blocks:
        sys.stdout.write(lead + text)
        lead = sep
    sys.stdout.write(tail)


def _row_blocks(rows: np.ndarray, template: str, sep: str):
    """The text of each _BLOCK_ROWS rows."""
    for start in range(0, len(rows), _BLOCK_ROWS):
        yield sep.join([template % tuple(r) for r in rows[start:start + _BLOCK_ROWS].tolist()])


class _Grid:
    """The rows (outer[i], inner[j], table[i, j]) of a grid, written a line of fixed i at a time.

    Both text columns come formatted and table holds small non-negative ints,
    so a row's text after its outer cell is formatted once per (j, int) pair
    and a line is one str.join with the outer cell in the separator.
    """

    cells = ("%s", "%s", "%d")

    def __init__(self, outer: list[str], inner: list[str], table: np.ndarray):
        self.outer, self.inner, self.table = outer, inner, table

    def blocks(self, template: str, sep: str):
        """The text of each line, or of each _BLOCK_ROWS rows of a longer line."""
        lead = template[:template.index("%")]  # the row text before the outer cell
        width = len(self.inner)
        rests = np.empty((int(self.table.max()) + 1, width), dtype=object)
        for count, rest in enumerate(rests):  # only the pairs that occur
            for j in np.flatnonzero((self.table == count).any(axis=0)).tolist():
                rest[j] = (template % ("", self.inner[j], count))[len(lead):]
        for outer, line in zip(self.outer, rests[self.table, np.arange(width)].tolist()):
            prefix = lead + outer
            for start in range(0, width, _BLOCK_ROWS):
                yield prefix + (sep + prefix).join(line[start:start + _BLOCK_ROWS])


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


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc


def _load_params(path: str):
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path!r} is not valid JSON: {exc}") from exc
    return params_from_dict(data)


def _load_points(path: str, n: int) -> np.ndarray:
    """The (P, n) points of a CSV file, one point per line.

    Line 1 is a header if it is not all numbers. Blank lines and text from
    "#" to the end of a line are skipped; spaces around cells and CRLF
    endings are allowed. numpy's C reader parses _BLOCK_ROWS lines at a
    time, and a block it refuses is read again line by line to name the line.
    """
    lines = _read_text(path).split("\n")
    if _read_numbers(lines[:1]) is None:
        lines[0] = ""  # header row
    blocks = [lines[start:start + _BLOCK_ROWS] for start in range(0, len(lines), _BLOCK_ROWS)]
    tables = [_read_numbers(block) for block in blocks]
    for k, table in enumerate(tables):
        if table is None or table.size and table.shape[1] != n:
            for line_no, line in enumerate(blocks[k], k * _BLOCK_ROWS + 1):
                row = _read_numbers([line])
                if row is None:
                    raise InputError(f"{path!r} line {line_no}: bad number")
                if row.size and row.shape[1] != n:
                    raise InputError(f"{path!r} line {line_no}: expected {n} coordinates, got {row.shape[1]}")
    points = np.concatenate([table.reshape(-1, n) for table in tables])
    if not len(points):
        raise InputError(f"{path!r} contains no points")
    return points


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

    def add(name: str, help_text: str, params: bool = True, output: str | None = None):
        p = sub.add_parser(name, help=help_text)
        if params:
            p.add_argument("--params", required=True, metavar="FILE", help="parameter JSON file")
        if output is not None:
            p.add_argument(
                "--output", choices=("json", "csv"), default=output, help="output format"
            )
        return p

    add("params-check", "validate a parameter file and echo it back", output="json")

    add("bound", "bound-state spectrum", output="json")

    p = add("scatter", "transmission/reflection sweep over wavenumbers", output="csv")
    p.add_argument("--k-range", required=True, metavar="K0:K1:STEP")

    p = add("phase-diagram", "bound-state count over an (alpha, gamma) grid", params=False, output="csv")
    p.add_argument("--delta", required=True, type=float)
    p.add_argument("--alpha", required=True, metavar="A0:A1:STEP")
    p.add_argument("--gamma", required=True, metavar="G0:G1:STEP")
    p.add_argument("--beta", type=float, default=None, help="required when delta = 0")

    p = add("nbody", "N-body bound states", output="json")
    p.add_argument("--n", required=True, type=int)

    p = add("nbody-eval", "evaluate an N-body state on points from a CSV file", output="csv")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--state-index", required=True, type=int, help="0 = ground state")
    p.add_argument("--points", required=True, metavar="FILE")

    p = add("diffraction", "outgoing ray amplitudes at one (k, phi)", output="json")
    p.add_argument("--k", required=True, type=float)
    p.add_argument("--phi", required=True, type=float)
    p.add_argument(
        "--middle-reflection", choices=("minus", "plus"), default="minus",
        help="incidence suffix of the middle reflection on the transmitted two-segment path",
    )

    p = add("diffraction-scan", "max diffraction residual over a quasi-random sweep", output="json")
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--middle-reflection", choices=("minus", "plus"), default="minus")

    p = add("verify", "run first-principles verification suites (exit 2 on failure)", params=False)
    p.add_argument("--suite", required=True, choices=suites.SUITE_NAMES + ("all",))

    p = add(
        "mcguire",
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
    record = _load_params(args.params).to_dict()
    _write_records(list(record), [tuple(record.values())], args.output)
    return 0


def _cmd_bound(args) -> int:
    params = _load_params(args.params)
    rows = [
        (st.kappa, st.energy, st.eta.real, st.eta.imag)
        for st in one_body.bound_spectrum(params)
    ]
    _write_records(["kappa", "energy", "eta_re", "eta_im"], rows, args.output, "states")
    return 0


def _cmd_scatter(args) -> int:
    params = _load_params(args.params)
    columns = ["k", "|T|^2", "|R|^2", "re(T+)", "im(T+)", "re(R+)", "im(R+)", "re(R-)", "im(R-)"]
    ks = _parse_range(args.k_range)
    if not np.all(ks > 0.0):
        raise InputError("k-range must stay strictly positive")
    amps = scattering.amplitudes(params, ks)
    t, r, r_minus = amps.t_plus, amps.r_plus, amps.r_minus
    moduli = [np.hypot(z.real, z.imag) ** 2 for z in (t, r)]
    table = np.column_stack([ks, *moduli, t.real, t.imag, r.real, r.imag, r_minus.real, r_minus.imag])
    _write_table(columns, table, args.output)
    return 0


def _cmd_phase_diagram(args) -> int:
    if not math.isfinite(args.delta) or not math.isfinite(args.beta or 0.0):
        raise InputError("delta and beta must be finite")
    alphas = _parse_range(args.alpha)
    gammas = _parse_range(args.gamma)
    if len(alphas) * len(gammas) > SIZE_CAP:
        raise InputError(f"the grid has more than {SIZE_CAP} points")
    counts = one_body.phase_diagram_count(alphas[:, None], gammas[None, :], args.delta, args.beta)
    grid = _Grid(list(map(_fmt, alphas.tolist())), list(map(_fmt, gammas.tolist())), counts)
    _write_table(["alpha", "gamma", "count"], grid, args.output)
    return 0


def _cmd_nbody(args) -> int:
    params = _load_params(args.params)
    rows = [
        (st.kappa, st.energy, st.eta.real, st.eta.imag, st.c_even.real, st.c_even.imag,
         st.c_odd.real, st.c_odd.imag, many_body.symmetry_class(st))
        for st in many_body.nbody_bound_states(params, args.n)
    ]
    columns = [
        "kappa", "energy", "eta_re", "eta_im", "c_even_re", "c_even_im", "c_odd_re", "c_odd_im", "symmetry"
    ]
    _write_records(columns, rows, args.output, "states")
    return 0


def _cmd_nbody_eval(args) -> int:
    params = _load_params(args.params)
    states = many_body.nbody_bound_states(params, args.n)
    if not 0 <= args.state_index < len(states):
        raise InputError(f"state index {args.state_index} out of range; {len(states)} state(s) available")
    points = _load_points(args.points, args.n)
    psi = many_body.eval_nbody_wavefunction(states[args.state_index], points)
    columns = [f"x{i}" for i in range(1, args.n + 1)] + ["re(psi)", "im(psi)"]
    _write_table(columns, np.column_stack((points, psi.real, psi.imag)), args.output)
    return 0


def _cmd_diffraction(args) -> int:
    params = _load_params(args.params)
    kin = diffraction.ray_kinematics(args.k, args.phi)
    report = diffraction.outgoing_amplitudes(params, kin, args.middle_reflection)
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
    if args.samples > SIZE_CAP:
        raise InputError(f"--samples is capped at {SIZE_CAP}")
    params = _load_params(args.params)
    max_residual, verdict = diffraction.no_diffraction_scan(params, args.samples, args.middle_reflection)
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


_HANDLERS = {
    "params-check": _cmd_params_check,
    "bound": _cmd_bound,
    "scatter": _cmd_scatter,
    "phase-diagram": _cmd_phase_diagram,
    "nbody": _cmd_nbody,
    "nbody-eval": _cmd_nbody_eval,
    "diffraction": _cmd_diffraction,
    "diffraction-scan": _cmd_diffraction_scan,
    "verify": _cmd_verify,
    "mcguire": _cmd_mcguire,
}


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
        code = _HANDLERS[args.command](args)
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
