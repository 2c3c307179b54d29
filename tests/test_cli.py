import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pointfam.cli import _parse_range, main
from pointfam.errors import InputError


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


def python_child(*args, **kwargs):
    """Popen of a fresh interpreter that imports pointfam from this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, *args], env=env, text=True, **kwargs)


def test_parse_range():
    assert _parse_range("0:1:0.5") == [0.0, 0.5, 1.0]
    assert _parse_range("1:1:1") == [1.0]
    values = _parse_range("-4:4:0.1")
    assert len(values) == 81
    with pytest.raises(InputError):
        _parse_range("1:2")
    with pytest.raises(InputError):
        _parse_range("1:0:1")
    with pytest.raises(InputError):
        _parse_range("a:b:c")


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
    assert "scatter" in err


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


def test_mcguire_nonbinding_exit(capsys):
    code, _, err = run_cli(capsys, "mcguire", "--g0", "1.0", "--mass", "1.0", "--n", "3")
    assert code == 1
    assert "mcguire" in err


def test_verify_subcommand_bound(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "bound")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert "PASS" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "scatter"],  # may finish writing before the pipe closes
    # ~1 MB of CSV: the writer blocks on the full pipe until the reader closes it
    ["scatter", "--params", None, "--k-range", "0.001:10:0.001"],
])
def test_closed_stdout_pipe_exits_quietly(argv, delta_file):
    argv = [delta_file if a is None else a for a in argv]
    entry = "import sys; from pointfam.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = python_child("-c", entry, *argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    code = proc.wait(timeout=120)
    proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    if argv[0] == "scatter":
        assert code == 1


def test_import_loads_no_scipy():
    code = (
        "import sys, pointfam, pointfam.cli; "
        "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])"
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


def test_usage_errors_exit_one(capsys, delta_file):
    code, _, err = run_cli(capsys, "bound", "--params", delta_file, "--bogus")
    assert code == 1
    assert "usage error" in err
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 1
    code, _, _ = run_cli(capsys)
    assert code == 1


def test_missing_params_file(capsys):
    code, _, err = run_cli(capsys, "bound", "--params", "/nonexistent/p.json")
    assert code == 1
    assert "cannot read" in err


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
