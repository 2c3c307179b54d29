import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pointfam import cli, many_body, one_body, scattering, verify
from pointfam.cli import _parse_range, main
from pointfam.core import params_from_dict
from pointfam.errors import InputError, NonFiniteResult


@pytest.fixture
def delta_file(tmp_path):
    path = tmp_path / "delta.json"
    path.write_text(
        json.dumps(
            {
                "alpha": -1.0,
                "beta": 2.0,
                "gamma": -1.0,
                "delta": 0.0,
                "theta": math.pi,
                "mass": 0.5,
            }
        )
    )
    return str(path)


@pytest.fixture
def two_state_file(tmp_path):
    path = tmp_path / "two_state.json"
    path.write_text(
        json.dumps(
            {
                "alpha": -2.0,
                "beta": 3.0,
                "gamma": -2.0,
                "delta": 1.0,
                "theta": 0.0,
                "mass": 0.5,
            }
        )
    )
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = str(Path(__file__).resolve().parents[1] / "src")


def python_child(*args, env=None, **kwargs):
    """Popen of a fresh interpreter that imports pointfam from this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC, **(env or {}))
    return subprocess.Popen([sys.executable, *args], env=env, text=True, **kwargs)


def test_parse_range():
    assert _parse_range("0:1:0.5").tolist() == [0.0, 0.5, 1.0]
    assert _parse_range("1:1:1").tolist() == [1.0]
    values = _parse_range("-4:4:0.1")
    assert len(values) == 81
    with pytest.raises(InputError):
        _parse_range("1:2")
    with pytest.raises(InputError):
        _parse_range("1:0:1")
    with pytest.raises(InputError):
        _parse_range("a:b:c")
    with pytest.raises(InputError, match="overflows"):
        _parse_range("0:1.7e308:1e308")
    assert _parse_range("0:1.7e308:8.5e307").tolist() == [0.0, 8.5e307, 1.7e308]


def test_params_check_round_trip(capsys, tmp_path, delta_file):
    code, out, _ = run_cli(capsys, "params-check", "--params", delta_file)
    assert code == 0
    echoed = tmp_path / "echoed.json"
    echoed.write_text(out)
    code2, out2, _ = run_cli(capsys, "params-check", "--params", str(echoed))
    assert code2 == 0
    assert out2 == out
    payload = json.loads(out)
    assert list(payload) == ["alpha", "beta", "gamma", "delta", "theta", "mass"]


def test_params_check_rejects_invalid(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alpha": 1, "beta": 1, "gamma": 1, "delta": 1, "theta": 0, "mass": 1}))
    code, out, err = run_cli(capsys, "params-check", "--params", str(bad))
    assert code == 1
    assert "params-check" in err


def test_bound_subcommand(capsys, delta_file):
    code, out, _ = run_cli(capsys, "bound", "--params", delta_file)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["states"]) == 1
    state = payload["states"][0]
    assert abs(state["kappa"] - 1.0) <= 1e-15
    assert abs(state["energy"] + 1.0) <= 1e-15
    assert list(state) == ["kappa", "energy", "eta_re", "eta_im"]


def test_bound_output_is_byte_deterministic(capsys, two_state_file):
    code1, out1, _ = run_cli(capsys, "bound", "--params", two_state_file)
    code2, out2, _ = run_cli(capsys, "bound", "--params", two_state_file)
    assert code1 == code2 == 0
    assert out1 == out2


def test_bound_csv_output(capsys, two_state_file):
    code, out, _ = run_cli(capsys, "bound", "--params", two_state_file, "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kappa,energy,eta_re,eta_im"
    assert len(lines) == 3
    assert lines[1].startswith("3,")


def test_scatter_subcommand(capsys, delta_file):
    code, out, _ = run_cli(capsys, "scatter", "--params", delta_file, "--k-range", "0.5:2:0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,|T|^2,|R|^2,re(T+),im(T+),re(R+),im(R+),re(R-),im(R-)"
    assert len(lines) == 5
    row = lines[2].split(",")
    assert abs(float(row[0]) - 1.0) <= 1e-15
    assert abs(float(row[1]) - 0.5) <= 1e-12
    assert abs(float(row[2]) - 0.5) <= 1e-12


def test_scatter_rejects_nonpositive_range(capsys, delta_file):
    code, _, err = run_cli(capsys, "scatter", "--params", delta_file, "--k-range", "0:2:0.5")
    assert code == 1
    assert err == "scatter: wavenumber must be finite and positive, got 0.0\n"


def test_phase_diagram_subcommand(capsys):
    # values starting with a dash need the --flag=value spelling
    code, out, _ = run_cli(
        capsys, "phase-diagram", "--delta", "1", "--alpha=-3:3:3", "--gamma=-3:3:3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,gamma,count"
    assert len(lines) == 10
    counts = {}
    for line in lines[1:]:
        a, g, c = line.split(",")
        counts[(float(a), float(g))] = int(c)
    assert counts[(-3.0, -3.0)] == 2
    assert counts[(3.0, 3.0)] == 0
    assert counts[(0.0, 0.0)] == 1


def test_nbody_subcommand(capsys, two_state_file):
    code, out, _ = run_cli(capsys, "nbody", "--params", two_state_file, "--n", "4")
    assert code == 0
    payload = json.loads(out)
    states = payload["states"]
    assert len(states) == 2
    assert abs(states[0]["kappa"] - 3.0) <= 1e-15
    # -kappa^2 * 4 * 15 / (12 * 0.5)
    assert abs(states[0]["energy"] + 90.0) <= 1e-12
    assert states[0]["symmetry"] == "symmetric"
    assert states[1]["symmetry"] == "antisymmetric"


def test_nbody_eval_subcommand(capsys, delta_file, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,x3\n1.0,0.0,-1.0\n2.0,0.5,-0.5\n")
    code, out, _ = run_cli(
        capsys,
        "nbody-eval", "--params", delta_file, "--n", "3",
        "--state-index", "0", "--points", str(pts),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2,x3,re(psi),im(psi)"
    first = lines[1].split(",")
    assert abs(float(first[3]) - math.exp(-2.0 * math.sqrt(2.0))) <= 1e-12


def test_nbody_eval_far_apart_points_give_zero_without_a_warning(capsys, delta_file, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n-1.7e308,1.7e308\n")
    code, out, err = run_cli(
        capsys, "nbody-eval", "--params", delta_file, "--n", "2", "--state-index", "0", "--points", str(pts)
    )
    assert (code, err) == (0, "")
    assert out == "x1,x2,re(psi),im(psi)\n-1.6999999999999999e+308,1.6999999999999999e+308,0,0\n"


def test_bound_refuses_an_overflowing_determinant_in_one_line(capsys, tmp_path):
    path = tmp_path / "huge.json"
    huge = dict(alpha=1.7e308, beta=1.7e308, gamma=1.7e308, delta=1.0, theta=0.0, mass=1.0)
    path.write_text(json.dumps(huge))
    code, out, err = run_cli(capsys, "bound", "--params", str(path))
    assert (code, out, err) == (1, "", "bound: alpha*gamma - beta*delta = inf, must equal 1 within 1e-12\n")


def test_bound_refusal_names_the_finite_level_in_one_line(capsys, tmp_path):
    # One root past the float range, the other at kappa = 1.04e5.
    path = tmp_path / "half.json"
    half = dict(alpha=-7.354233193540967e-146, beta=9.624116741751103e163, gamma=-2.4264951175299004e159,
                delta=1.8541972646579197e-150, theta=0.0, mass=1.3114032036155718)
    path.write_text(json.dumps(half))
    code, out, err = run_cli(capsys, "bound", "--params", str(path))
    message = "kappa is inf, not a finite number; the minus level, kappa = 104027.38860608592, is finite"
    assert (code, out, err) == (1, "", f"bound: {message}\n")


@pytest.mark.parametrize("samples", ["0", "-1", "1000001"])
def test_diffraction_scan_refuses_a_bad_sample_count_in_one_line(capsys, delta_file, samples):
    code, out, err = run_cli(capsys, "diffraction-scan", "--params", delta_file, "--samples", samples)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("diffraction-scan: samples must be an integer")


def test_nbody_eval_bad_state_index(capsys, delta_file, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("1.0,0.0,-1.0\n")
    code, _, err = run_cli(
        capsys,
        "nbody-eval", "--params", delta_file, "--n", "3",
        "--state-index", "5", "--points", str(pts),
    )
    assert code == 1
    assert "state index" in err


def test_diffraction_subcommand(capsys, delta_file):
    code, out, _ = run_cli(capsys, "diffraction", "--params", delta_file, "--k", "1.0", "--phi", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual_norm"] <= 1e-12
    assert abs(payload["k1"] + payload["k3"] - payload["k2"]) <= 1e-15
    assert payload["middle_reflection"] == "minus"


def test_diffraction_scan_subcommand(capsys, delta_file, two_state_file):
    code, out, _ = run_cli(capsys, "diffraction-scan", "--params", delta_file, "--samples", "300")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["max_residual"] <= 1e-10
    code, out, _ = run_cli(capsys, "diffraction-scan", "--params", two_state_file, "--samples", "300")
    payload = json.loads(out)
    assert payload["verdict"] is False


def test_mcguire_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "mcguire", "--g0", str(-math.sqrt(2.0)), "--mass", "1.0", "--n", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["kappa"] - 1.0) <= 1e-12
    assert abs(payload["energy"] + 2.0) <= 1e-12
    assert abs(payload["g"] + 1.0) <= 1e-12
    # McGuire's convention (m = 1) and the m = 1/2 convention
    assert abs(payload["g_mcguire"] - 2.0) <= 1e-12
    assert abs(payload["g_cd"] - math.sqrt(2.0)) <= 1e-15


def test_mcguire_nonbinding_exit(capsys):
    code, _, err = run_cli(capsys, "mcguire", "--g0", "1.0", "--mass", "1.0", "--n", "3")
    assert code == 1
    assert "mcguire" in err


@pytest.mark.parametrize("g0, mass, n, message", [
    ("-2", "-1", "3", "mass must be positive, got -1.0"),
    ("-2", "0", "3", "mass must be positive, got 0.0"),
    ("-2", "1", "9" * 300, "energy is -inf, not a finite number"),  # N too large for a float
    ("nan", "1", "3", "g0 must be finite, got nan"),
    ("-inf", "1", "3", "g0 must be finite, got -inf"),
    ("-2", "inf", "3", "mass must be finite, got inf"),
], ids=["negative-mass", "zero-mass", "300-digit-n", "nan-g0", "minus-inf-g0", "inf-mass"])
def test_mcguire_refuses_non_physical_input(capsys, g0, mass, n, message):
    code, out, err = run_cli(capsys, "mcguire", f"--g0={g0}", "--mass", mass, "--n", n)
    assert code == 1
    assert out == ""
    assert err == f"mcguire: {message}\n"


def test_verify_subcommand_bound(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "bound")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert list(payload["checks"][0]["worst_at"]) == ["draw", "params"]
    assert "PASS" in err


def test_verify_subcommand_reports_worst_input(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "nbody-boundary")
    assert code == 0
    checks = json.loads(out)["checks"]
    orderings = [c["worst_at"]["ordering"] for c in checks if "boundary-condition" in c["check_name"]]
    assert len(orderings) == 9 and all(sorted(o) == [1, 2, 3] for o in orderings)


@pytest.mark.parametrize("argv, env", [
    (["verify", "--suite", "scatter"], {}),  # may finish writing before the pipe closes
    # ~1 MB of CSV: the writer blocks on the full pipe until the reader closes it
    (["scatter", "--params", None, "--k-range", "0.001:10:0.001"], {}),
    (["scatter", "--params", None, "--k-range", "0.001:10:0.001"], {"PYTHONUNBUFFERED": "1"}),
], ids=["argv0", "argv1", "argv1-unbuffered"])
def test_closed_stdout_pipe_exits_quietly(argv, env, delta_file):
    argv = [delta_file if a is None else a for a in argv]
    entry = "import sys; from pointfam.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = python_child("-c", entry, *argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    code = proc.wait(timeout=120)
    proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    if argv[0] == "scatter":
        assert code == 1


class _ShortWrites(io.RawIOBase):
    """A raw stream that takes at most 5 bytes of each write, as a pipe may."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.data += bytes(b[:5])
        return min(len(b), 5)


def test_unbuffered_stdout_loses_no_short_write(monkeypatch):
    argv = ["mcguire", "--g0", "-2", "--mass", "1", "--n", "3", "--output", "csv"]
    expected = io.StringIO()
    with contextlib.redirect_stdout(expected):
        assert main(argv) == 0
    raw = _ShortWrites()
    unbuffered = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)  # as PYTHONUNBUFFERED sets up
    monkeypatch.setattr(sys, "stdout", unbuffered)
    monkeypatch.setattr(sys, "__stdout__", unbuffered)
    assert main(argv) == 0
    assert raw.data.decode() == expected.getvalue()


def test_import_loads_no_scipy():
    code = (
        "import sys, pointfam, pointfam.cli; "
        "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])"
    )
    proc = python_child("-c", code, stdout=subprocess.PIPE)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert out.strip() == "[]"


def test_verify_all_loads_no_scipy():
    code = (
        "import sys; from pointfam.suites import run_suite; run_suite('all'); "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    proc = python_child("-c", code, stdout=subprocess.PIPE)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert out.strip() == "[]"


def test_params_check_rejects_non_finite(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"alpha": -1, "beta": 2, "gamma": -1, "delta": 0, "theta": NaN, "mass": 0.5}')
    code, out, err = run_cli(capsys, "params-check", "--params", str(path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "theta" in err


@pytest.mark.parametrize("token", ["true", '"1e0"', '"1_0"', "null", "[]", "1" + "0" * 400],
                         ids=["bool", "string-float", "string-underscore", "null", "list", "int-past-float"])
def test_params_field_must_be_a_json_number(capsys, tmp_path, token):
    # Only a JSON int or float that a float holds is a number; float() alone took the first
    # three and raised an uncaught OverflowError on the last.
    path = tmp_path / "p.json"
    path.write_text('{"alpha": -1, "beta": 2, "gamma": -1, "delta": 0, "theta": 0, "mass": %s}' % token)
    for command in ("params-check", "bound"):
        code, out, err = run_cli(capsys, command, "--params", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"{command}: parameter field 'mass' ") and err.count("\n") == 1


def test_subcommands_and_their_handlers():
    # Each subcommand's name comes from its handler's: _cmd_nbody_eval runs "nbody-eval".
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == [
        "params-check", "bound", "scatter", "phase-diagram", "nbody", "nbody-eval",
        "diffraction", "diffraction-scan", "verify", "mcguire",
    ]
    for name, parser in sub.choices.items():
        assert parser.get_default("run") is getattr(cli, "_cmd_" + name.replace("-", "_"))


def test_verify_refuses_an_output_format(capsys):
    # verify always writes JSON and takes no --output; the refusal is one line and nothing else.
    code, out, err = run_cli(capsys, "verify", "--suite", "bound", "--output", "json")
    assert (code, out, err) == (1, "", "pointfam: usage error: unrecognized arguments: --output json\n")


def test_usage_errors_exit_one(capsys, delta_file):
    code, _, err = run_cli(capsys, "bound", "--params", delta_file, "--bogus")
    assert code == 1
    assert "usage error" in err
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 1
    code, _, _ = run_cli(capsys)
    assert code == 1


def test_back_to_back_mains_behave_as_fresh_ones(capsys, delta_file):
    # main builds its parser once per process; no call may leave anything behind for the next.
    def sequence(fresh):
        results = []
        for argv in (["bound", "--params", delta_file, "--bogus"], ["bound", "--params", delta_file], ["--version"]):
            if fresh:
                cli._build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's --version exits
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    cached = sequence(fresh=False) + sequence(fresh=False)
    assert cli._build_parser() is cli._build_parser()
    assert cached == sequence(fresh=True) * 2
    assert [code for code, _, _ in cached[:3]] == [1, 0, 0]
    assert "usage error" in cached[0][2] and '"states"' in cached[1][1] and cached[2][1].startswith("pointfam ")


def test_missing_params_file(capsys):
    code, _, err = run_cli(capsys, "bound", "--params", "/nonexistent/p.json")
    assert code == 1
    assert "cannot read" in err


def test_params_file_not_utf8_is_refused(capsys, tmp_path):
    # The bad byte sits past the text decoder's first 8 KiB chunk; the message names its offset in the file.
    head = b'{"alpha": -1, "beta": 2, "gamma": -1, "delta": 0, "theta": 0, "mass": 1, "note": "'
    path = tmp_path / "p.json"
    path.write_bytes(head + b"x" * (10082 - len(head)) + b'\xff"}')
    code, out, err = run_cli(capsys, "bound", "--params", str(path))
    assert (code, out) == (1, "")
    assert err == f"bound: cannot read {str(path)!r}: the byte at offset 10082 is not UTF-8 (invalid start byte)\n"


def test_params_file_with_a_byte_order_mark_is_read(capsys, two_state_file, tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + Path(two_state_file).read_bytes())
    assert run_cli(capsys, "bound", "--params", str(path)) == run_cli(capsys, "bound", "--params", two_state_file)


def test_params_from_a_pipe_not_utf8_is_refused_in_one_line(capsys):
    read_end, write_end = os.pipe()
    os.write(write_end, b'{"alpha": \xff}')
    os.close(write_end)
    try:
        code, out, err = run_cli(capsys, "bound", "--params", f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert (code, out) == (1, "")
    assert err == f"bound: cannot read '/dev/fd/{read_end}': a byte is not UTF-8 (invalid start byte)\n"


def test_points_file_not_utf8_names_the_offset_in_the_file(tmp_path):
    # CRLF endings, notes with multi-byte characters, and a truncated sequence two chunks in.
    head = ("x1,x2,x3\r\n" + "1,2,3 # é\r\n" * 1500).encode()
    path = tmp_path / "points.csv"
    path.write_bytes(head + b"4,5,\xe2\x82\n")
    with pytest.raises(InputError) as info:
        cli._load_points(str(path), 3)
    at = len(head) + 4
    assert str(info.value) == f"cannot read {str(path)!r}: the byte at offset {at} is not UTF-8 (invalid continuation byte)"


def test_scan_determinism_across_runs(capsys, two_state_file):
    args = ("diffraction-scan", "--params", two_state_file, "--samples", "400")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_float_formatting_has_17_significant_digits(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(
        json.dumps(
            {"alpha": 1 / 3, "beta": 0.0, "gamma": 3.0, "delta": 0.0, "theta": 0.1, "mass": 1.0}
        )
    )
    code, out, _ = run_cli(capsys, "params-check", "--params", str(path))
    assert code == 0
    assert "0.33333333333333331" in out


# ---------------------------------------------------------------- byte layout

# The number of values in each range the byte tests use, written out here
# so that the reference rows do not come from the range parser under test.
_RANGE_COUNTS = {
    "0.01:25:0.01": 2500,
    "-3:3:0.1": 61,
    "-3:3:0.2": 31,
    "-4:4:0.25": 33,
    "-4:4:0.125": 65,
    "-1:-1:1": 1,
    "0.5:0.5:1": 1,
    "-0.25:-0.25:1": 1,
    "-3:2.996:0.004": 1500,
}


def _ref_range(text):
    lo, _, step = map(float, text.split(":"))
    return [lo + i * step for i in range(_RANGE_COUNTS[text])]


def _ref_cell(value) -> str:
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _ref_table(columns, rows, output) -> str:
    """Tables as the former per-cell writers printed them."""
    if output == "csv":
        lines = [",".join(columns)] + [",".join(_ref_cell(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"

    def array(items, indent):
        if not items:
            return "[]"
        pad = "  " * indent
        return "[\n" + ",\n".join(pad + "  " + item for item in items) + "\n" + pad + "]"

    rows_text = array([array([_ref_cell(v) for v in row], 2) for row in rows], 1)
    return '{\n  "columns": ' + array([json.dumps(c) for c in columns], 1) + ',\n  "rows": ' + rows_text + "\n}\n"


@pytest.mark.parametrize("output", ["csv", "json"])
def test_scatter_bytes_match_per_cell_reference(capsys, two_state_file, output):
    # 2500 rows: the writer's blocks of rows meet several times.
    code, out, _ = run_cli(
        capsys, "scatter", "--params", two_state_file, "--k-range", "0.01:25:0.01", "--output", output
    )
    assert code == 0
    ks = _ref_range("0.01:25:0.01")
    amps = scattering.amplitudes(params_from_dict(json.loads(Path(two_state_file).read_text())), np.array(ks))
    t2 = (np.hypot(amps.t_plus.real, amps.t_plus.imag) ** 2).tolist()
    r2 = (np.hypot(amps.r_plus.real, amps.r_plus.imag) ** 2).tolist()
    rows = [
        [k, a, b, t.real, t.imag, r.real, r.imag, rm.real, rm.imag]
        for k, a, b, t, r, rm in zip(ks, t2, r2, amps.t_plus.tolist(), amps.r_plus.tolist(), amps.r_minus.tolist())
    ]
    columns = ["k", "|T|^2", "|R|^2", "re(T+)", "im(T+)", "re(R+)", "im(R+)", "re(R-)", "im(R-)"]
    assert out == _ref_table(columns, rows, output)


@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("argv, delta, beta", [
    (["--delta=-0.7", "--alpha=-3:3:0.1", "--gamma=-3:3:0.2"], -0.7, None),
    (["--delta", "1", "--alpha=-4:4:0.25", "--gamma=-4:4:0.125"], 1.0, None),
    (["--delta", "0", "--beta=-2", "--alpha=-1:-1:1", "--gamma=-1:-1:1"], 0.0, -2.0),
    (["--delta", "0", "--beta", "2", "--alpha=-1:-1:1", "--gamma=-1:-1:1"], 0.0, 2.0),
    # 1 x 1, and one line longer than a block of rows, across and down
    (["--delta", "1", "--alpha=0.5:0.5:1", "--gamma=-0.25:-0.25:1"], 1.0, None),
    (["--delta=-0.7", "--alpha=0.5:0.5:1", "--gamma=-3:2.996:0.004"], -0.7, None),
    (["--delta=-0.7", "--alpha=-3:2.996:0.004", "--gamma=0.5:0.5:1"], -0.7, None),
])
def test_phase_diagram_bytes_match_per_cell_reference(capsys, argv, delta, beta, output):
    code, out, _ = run_cli(capsys, "phase-diagram", *argv, "--output", output)
    assert code == 0
    alphas = _ref_range(argv[-2].split("=")[1])
    gammas = _ref_range(argv[-1].split("=")[1])
    rows = [[a, g, one_body.phase_diagram_count(a, g, delta, beta)] for a in alphas for g in gammas]
    assert out == _ref_table(["alpha", "gamma", "count"], rows, output)


@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("n, count", [(2, 50), (3, 1500), (8, 40)])
def test_nbody_eval_bytes_match_per_point_reference(capsys, two_state_file, tmp_path, n, count, output):
    rng = np.random.default_rng(n)
    points = rng.uniform(-1.0, 1.0, size=(count, n)).tolist()
    path = tmp_path / "points.csv"
    path.write_text(",".join(f"x{i}" for i in range(1, n + 1)) + "\n"
                    + "".join(",".join(map(repr, pt)) + "\n" for pt in points))
    code, out, _ = run_cli(
        capsys, "nbody-eval", "--params", two_state_file, "--n", str(n),
        "--state-index", "1", "--points", str(path), "--output", output,
    )
    assert code == 0
    params = params_from_dict(json.loads(Path(two_state_file).read_text()))
    state = many_body.nbody_bound_states(params, n)[1]
    rows = []
    for pt in points:
        value = many_body.eval_nbody_wavefunction(state, pt)
        rows.append(pt + [value.real, value.imag])
    columns = [f"x{i}" for i in range(1, n + 1)] + ["re(psi)", "im(psi)"]
    assert out == _ref_table(columns, rows, output)


def _template_table(columns, table, output) -> str:
    """A float table as the former writer printed it: one %-template per row, 1024 rows a block."""
    cells = ["%.17g"] * table.shape[1]
    if output == "csv":
        head, template, sep, tail = ",".join(columns) + "\n", ",".join(cells) + "\n", "", ""
    else:
        names = ",\n".join(f"    {json.dumps(c)}" for c in columns)
        head = '{\n  "columns": [\n' + names + '\n  ],\n  "rows": [\n'
        template, sep, tail = "    [\n      " + ",\n      ".join(cells) + "\n    ]", ",\n", "\n  ]\n}\n"
    blocks = [sep.join([template % tuple(r) for r in table[start:start + 1024].tolist()])
              for start in range(0, len(table), 1024)]
    return head + sep.join(blocks) + tail


@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("command", ["scatter", "nbody-eval"])
def test_float_tables_match_the_template_writer(capsys, monkeypatch, two_state_file, tmp_path, command, output):
    tables = []
    float_blocks = cli._float_blocks

    def spy(table, columns):
        tables.append((columns, table))
        return float_blocks(table, columns)

    monkeypatch.setattr(cli, "_float_blocks", spy)
    if command == "scatter":
        argv = ["--k-range", "0.01:25:0.01"]  # 2500 rows: blocks of rows meet twice
    else:
        points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(1500, 3))
        points[:4] = [[1.0, -0.0, 0.5], [2.0, 3.0, -4.0], [1e-5, -1e-5, 0.0], [0.1, 0.2, 0.30000000000000004]]
        path = tmp_path / "points.csv"
        path.write_text("".join(",".join(map(repr, pt)) + "\n" for pt in points.tolist()))
        argv = ["--n", "3", "--state-index", "1", "--points", str(path)]
    code, out, _ = run_cli(capsys, command, "--params", two_state_file, *argv, "--output", output)
    assert code == 0
    (columns, table), = tables
    assert out == _template_table(columns, table, output)


def test_nbody_eval_names_the_coincident_row(capsys, delta_file, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,x3\n1.0,0.0,-1.0\n2.0,0.5,-0.5\n0.25,-3.0,0.25\n1.0,1.0,1.0\n")
    code, out, err = run_cli(
        capsys, "nbody-eval", "--params", delta_file, "--n", "3",
        "--state-index", "0", "--points", str(pts),
    )
    assert code == 1
    assert out == ""
    assert err == f"nbody-eval: {str(pts)!r} line 4: coordinates 1 and 3 coincide within {many_body.COINCIDENCE_TOL}\n"


@pytest.mark.parametrize("block_rows", [1024, 2])
def test_nbody_eval_names_the_coincident_point_by_file_line(capsys, monkeypatch, delta_file, tmp_path, block_rows):
    # Header, comment and blank lines hold no point, so the point's row (2) is not its line (5);
    # read two lines at a time, the point sits in the third block.
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,x3\n# note\n\n1,2,3\n4,4,6  # here\n7,8,9\n")
    code, out, err = run_cli(
        capsys, "nbody-eval", "--params", delta_file, "--n", "3", "--state-index", "0", "--points", str(pts),
    )
    assert (code, out) == (1, "")
    assert err == f"nbody-eval: {str(pts)!r} line 5: coordinates 1 and 2 coincide within {many_body.COINCIDENCE_TOL}\n"


def test_nbody_eval_names_a_coincident_point_past_the_first_block(capsys, delta_file, tmp_path):
    # The loader and the line lookup share one numbering: header, comments and
    # blank lines count as lines, and the point sits in the second block.
    pts = tmp_path / "pts.csv"
    points = "".join(f"{i},{i + 0.5},{-i - 1}\n" for i in range(cli._BLOCK_ROWS))
    pts.write_text("x1,x2,x3\n# first\n\n# second\n" + points + "\n# near the end\n3,7,3\n1,2,3\n")
    line = 4 + cli._BLOCK_ROWS + 3
    code, out, err = run_cli(
        capsys, "nbody-eval", "--params", delta_file, "--n", "3", "--state-index", "0", "--points", str(pts),
    )
    assert (code, out) == (1, "")
    assert err == f"nbody-eval: {str(pts)!r} line {line}: coordinates 1 and 3 coincide within {many_body.COINCIDENCE_TOL}\n"


@pytest.mark.parametrize("command", ["nbody", "nbody-eval"])
def test_nbody_refuses_an_n_whose_energy_overflows(capsys, delta_file, tmp_path, command):
    extra = ["--state-index", "0", "--points", str(tmp_path / "unread.csv")] if command == "nbody-eval" else []
    code, out, err = run_cli(capsys, command, "--params", delta_file, "--n", "1" + "0" * 160, *extra)
    assert (code, out, err) == (1, "", f"{command}: energy is -inf, not a finite number\n")


def test_nbody_eval_points_are_capped(capsys, monkeypatch, delta_file, tmp_path):
    monkeypatch.setattr(cli, "SIZE_CAP", 9)
    path = tmp_path / "pts.csv"
    argv = ("nbody-eval", "--params", delta_file, "--n", "3", "--state-index", "0", "--points", str(path))
    path.write_text("1,2,3\n4,5,6\n7,8,9\n")
    assert run_cli(capsys, *argv)[0] == 0
    path.write_text("1,2,3\n4,5,6\n7,8,9\n10,11,12\n")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"nbody-eval: {str(path)!r} has more than 9 coordinates\n")


def test_points_file_over_the_cap_is_refused_after_one_block(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "SIZE_CAP", 9)
    calls = []
    read_numbers = cli._read_numbers

    def counting(lines):
        calls.append(len(lines))
        return read_numbers(lines)

    monkeypatch.setattr(cli, "_read_numbers", counting)
    path = tmp_path / "pts.csv"
    path.write_text("x1,x2,x3\n" + "1,2,3\n" * 4999)
    with pytest.raises(InputError) as info:
        cli._load_points(str(path), 3)
    assert str(info.value) == f"{str(path)!r} has more than 9 coordinates"
    assert calls == [1, cli._BLOCK_ROWS]  # the header line, then the first block only


# ---------------------------------------------------------------- points files


@pytest.mark.parametrize("text, expected", [
    ("x1,x2,x3\n1,2,3\n", [[1, 2, 3]]),
    ("1,2,3\nx1,x2,x3\n", "line 2: bad number"),
    ("\n  \n# a note\n  # an indented note\n1,2,3\n\t\n4,5,6", [[1, 2, 3], [4, 5, 6]]),
    ("x1,x2,x3\r\n 1 , 2 ,3 \r\n\r\n4,5,6\r\n", [[1, 2, 3], [4, 5, 6]]),
    ("1,2,3\n1,2\n", "line 2: expected 3 coordinates, got 2"),
    ("x1,x2,x3\n1,2,3,4\n", "line 2: expected 3 coordinates, got 4"),
    ("1,2,3\n4,x,6\n", "line 2: bad number"),
    ("1,2,3\n4,,6\n", "line 2: bad number"),
    ("1,2,3 # a trailing note\n", [[1, 2, 3]]),
    ("1,2,3\n1_0,2,3\n", "line 2: bad number"),
    ("", "contains no points"),
    ("x1,x2,x3\n\n# only notes\n", "contains no points"),
    # more lines than one parsed block: a block with no point, line numbers past it
    ("# a note\n" * 1100 + "1,2,3\n", [[1, 2, 3]]),
    ("1,2,3\n" * 1500 + "1,2\n", "line 1501: expected 3 coordinates, got 2"),
    ("1,2,3\n" * 2100 + "4,5,6e\n", "line 2101: bad number"),
    (b"\xff1,2,3\n", "cannot read"),
    (b"\xef\xbb\xbf1,2,3\n4,5,7\n", [[1, 2, 3], [4, 5, 7]]),
    ("1,2,3\n4,nan,6\n", "line 2: nan is not finite"),
    ("x1,x2,x3\ninf,5,6\n", "line 2: inf is not finite"),
    ("4,5,-inf\n", "line 1: -inf is not finite"),
    ("1,2,3\n" * 1100 + "4,5,nan\n", "line 1101: nan is not finite"),
], ids=[
    "header", "header-on-line-1-only", "blank-and-comment-lines", "crlf-and-spaces",
    "too-few-cells", "too-many-cells", "bad-number", "empty-cell", "trailing-comment",
    "underscore-digits", "empty-file", "header-only", "comment-block", "count-past-blocks",
    "number-past-blocks", "not-utf8", "byte-order-mark", "nan", "inf", "minus-inf", "non-finite-past-blocks",
])
def test_points_file_rules(tmp_path, text, expected):
    path = tmp_path / "points.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    if isinstance(expected, list):
        points = cli._load_points(str(path), 3)
        assert points.dtype == np.float64 and points.tolist() == expected
        return
    with pytest.raises(InputError) as info:
        cli._load_points(str(path), 3)
    message = str(info.value)
    if expected == "cannot read":
        assert message.startswith(f"cannot read {str(path)!r}: ")
    else:
        assert message == f"{str(path)!r} {expected}"


@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_coordinates_are_refused(capsys, delta_file, tmp_path, cell, output):
    path = tmp_path / "points.csv"
    path.write_text("1,2,3\n" * cli._BLOCK_ROWS + f"4,{cell},6\n")
    code, out, err = run_cli(capsys, "nbody-eval", "--params", delta_file, "--n", "3", "--state-index", "0",
                             "--points", str(path), "--output", output)
    line = cli._BLOCK_ROWS + 1
    assert (code, out, err) == (1, "", f"nbody-eval: {str(path)!r} line {line}: {cell} is not finite\n")


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unreadable_points_file(tmp_path, where):
    path = str(tmp_path / "missing.csv") if where == "missing" else str(tmp_path)
    with pytest.raises(InputError) as info:
        cli._load_points(path, 3)
    assert str(info.value).startswith(f"cannot read {path!r}: ")


# ---------------------------------------------------------------- refused results


@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("command, params, extra", [
    ("nbody", dict(alpha=-1.0, beta=2.0, gamma=-1.0, delta=0.0, theta=math.pi, mass=1e308), ["--n", "4"]),
    ("bound", dict(alpha=-1.0, beta=-2.0, gamma=-1.0, delta=1e-300, theta=math.pi, mass=1.0), []),
])
def test_non_finite_results_are_refused(capsys, tmp_path, command, params, extra, output):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    code, out, err = run_cli(capsys, command, "--params", str(path), *extra, "--output", output)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "not a finite number" in err and err.startswith(f"{command}: ")


@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_float_table_with_a_nan_cell_writes_nothing(capsys, monkeypatch, delta_file, column, output):
    # The NaN sits in the second block of rows, so a check made block by block would already have written the first.
    points = np.random.default_rng(5).uniform(-1.0, 1.0, size=(2 * cli._BLOCK_ROWS, 3))
    points[cli._BLOCK_ROWS + 7, column] = np.nan
    monkeypatch.setattr(cli, "_load_points", lambda path, n: points)  # the loader itself refuses a NaN coordinate
    psi = np.ones(len(points), dtype=complex)  # and so does the evaluator
    monkeypatch.setattr(cli.many_body, "eval_nbody_wavefunction", lambda state, coords: psi)
    code, out, err = run_cli(capsys, "nbody-eval", "--params", delta_file, "--n", "3", "--state-index", "0",
                             "--points", "points.csv", "--output", output)
    assert (code, out, err) == (1, "", f"nbody-eval: x{column + 1} is nan, not a finite number; nothing written\n")


def test_verify_document_names_a_nested_nan_and_writes_nothing(capsys, monkeypatch):
    report = verify.ResidualReport("bound: oracle vs closed form", math.nan, 3, False, 1e-9, {"params": [1.0, 2.0]})
    monkeypatch.setattr(cli.suites, "run_suite", lambda name: ([report], ["a note"]))
    code, out, err = run_cli(capsys, "verify", "--suite", "bound")
    assert (code, out) == (1, "")
    assert err.endswith("\nverify: max_residual is nan, not a finite number; nothing written\n")


@pytest.mark.parametrize("output", ["csv", "json"])
def test_record_refusal_names_its_column_and_writes_nothing(capsys, output):
    # The NaN sits in the second row, so writing row by row would already have written the first.
    rows = [(1.0, 2.0, "symmetric"), (3.0, -math.inf, "none")]
    with pytest.raises(NonFiniteResult) as info:
        cli._write_records(["kappa", "energy", "symmetry"], rows, output, "states")
    assert str(info.value) == "energy is -inf, not a finite number; nothing written"
    assert capsys.readouterr().out == ""


_AMP_REFUSAL = "diffraction: amp_two_path_re is nan, not a finite number; nothing written\n"
_SCATTER_REFUSAL = "scatter: |R|^2 is nan, not a finite number; nothing written\n"


@pytest.mark.parametrize("argv, message", [
    (["scatter", "--k-range", "1e300:1e300:1"], _SCATTER_REFUSAL),
    (["scatter", "--k-range", "1e300:1e300:1", "--output", "json"], _SCATTER_REFUSAL),
    (["diffraction", "--k", "1e308", "--phi", "0.5"], _AMP_REFUSAL),
    (["diffraction", "--k", "1e308", "--phi", "0.5", "--output", "csv"], _AMP_REFUSAL),
], ids=["scatter", "scatter-json", "diffraction", "diffraction-csv"])
def test_amplitude_overflow_is_refused_in_one_line(capsys, two_state_file, argv, message):
    # d*k*k overflows for |k| above about 1e154; a numpy warning would raise here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv[0], "--params", two_state_file, *argv[1:])
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("command, text", [
    ("phase-diagram", "0:1.7e308:1e308"),  # the third value, 2e308, overflows to inf
    ("scatter", "1:1.7e308:1e308"),
], ids=["phase-diagram", "scatter"])
def test_overflowing_range_is_refused_in_one_line(capsys, two_state_file, command, text, output):
    argv = {
        "phase-diagram": ["--delta", "1", f"--alpha={text}", "--gamma=0:1:1"],
        "scatter": ["--params", two_state_file, f"--k-range={text}"],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, command, *argv, "--output", output)
    assert (code, out, err) == (1, "", f"{command}: range {text!r} overflows past the largest float\n")


@pytest.mark.parametrize("text", ["-1e308:1e308:1e308", "-1e308:1e308:1"])
def test_overflowing_span_is_refused_in_one_line(capsys, text):
    # hi - lo overflows; the first range has only three values, all finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "phase-diagram", "--delta", "1", f"--alpha={text}", "--gamma=0:1:1")
    assert (code, out, err) == (1, "", f"phase-diagram: range {text!r} overflows: hi - lo is past the largest float\n")


@pytest.mark.parametrize("output", ["csv", "json"])
def test_phase_diagram_refuses_beta_off_the_delta_zero_slice(capsys, output):
    # For delta != 0 the constraint alpha*gamma - beta*delta = 1 fixes beta, so a given one would go unused.
    code, out, err = run_cli(capsys, "phase-diagram", "--delta", "1", "--beta", "5", "--alpha=-3:3:1",
                             "--gamma=-3:3:1", "--output", output)
    assert (code, out) == (1, "")
    assert err == ("phase-diagram: beta applies only to delta = 0; "
                   "for delta != 0 alpha*gamma - beta*delta = 1 fixes it\n")


def test_phase_diagram_counts_the_cancelling_root(capsys):
    single = ("--alpha=64.08464466908028:64.08464466908028:1", "--gamma=0.015604362092725817:0.015604362092725817:1")
    code, out, err = run_cli(capsys, "phase-diagram", "--delta=-0.01196575703236477", *single)
    assert (code, out, err) == (0, "alpha,gamma,count\n64.084644669080276,0.015604362092725817,1\n", "")


def test_phase_diagram_counts_a_cell_past_the_float_range(capsys):
    # 4*(alpha*gamma - 1) overflows here, so the cell is counted in rationals.
    code, out, err = run_cli(capsys, "phase-diagram", "--delta=-1", "--alpha=1e308:1e308:1", "--gamma=1:1:1")
    assert (code, out, err) == (0, "alpha,gamma,count\n1e+308,1,2\n", "")


def test_phase_diagram_subnormal_delta_is_quiet(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "phase-diagram", "--delta", "1e-320", "--alpha=-1:1:1", "--gamma=-1:1:1")
    assert (code, err) == (0, "")
    assert out == "alpha,gamma,count\n-1,-1,1\n-1,0,1\n-1,1,1\n0,-1,1\n0,0,1\n0,1,1\n1,-1,1\n1,0,1\n1,1,0\n"


def test_json_refusal_names_numpy_floats_plainly():
    for value in (np.float64("nan"), np.float32("inf")):
        with pytest.raises(NonFiniteResult, match=r"^energy is (nan|inf), not"):
            cli._json_scalar(value, "energy")
    assert cli._json_scalar(np.float32(0.5), "energy") == "0.5"


# ---------------------------------------------------------------- size cap


def test_size_cap_refuses_before_allocating(capsys, delta_file):
    # 1e18 values: building the list first would never finish.
    with pytest.raises(InputError, match="more than"):
        _parse_range("0:1e9:1e-9")
    for bad in ("0:inf:1", "nan:1:1", "0:1:nan", "-1e308:1e308:1"):
        with pytest.raises(InputError):
            _parse_range(bad)
    code, _, err = run_cli(capsys, "scatter", "--params", delta_file, "--k-range", "0:1e9:1e-9")
    assert code == 1 and "more than" in err
    side = f"0:{cli.SIZE_CAP // 1000}:1"  # each side passes, the grid does not
    code, _, err = run_cli(capsys, "phase-diagram", "--delta", "1", f"--alpha={side}", f"--gamma={side}")
    assert code == 1 and "grid" in err
    code, _, err = run_cli(
        capsys, "diffraction-scan", "--params", delta_file, "--samples", str(cli.SIZE_CAP + 1)
    )
    assert code == 1 and "samples" in err
    code, _, err = run_cli(capsys, "phase-diagram", "--delta", "nan", "--alpha=0:1:1", "--gamma=0:1:1")
    assert code == 1 and "finite" in err


def test_size_cap_boundary(monkeypatch):
    monkeypatch.setattr(cli, "SIZE_CAP", 10)
    assert len(_parse_range("1:10:1")) == 10
    with pytest.raises(InputError):
        _parse_range("1:11:1")


def test_size_cap_admits_documented_sizes():
    assert cli.SIZE_CAP >= max(10_000, 201 * 201, 6000)  # the benchmark sizes
    assert len(_parse_range("0.1:10:0.1")) == 100
    assert len(_parse_range("-4:4:0.05")) == 161

