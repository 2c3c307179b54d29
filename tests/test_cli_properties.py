"""Properties of the table and record writers over small random inputs.

Every table (phase-diagram, nbody-eval, scatter) parses, as CSV into finite
floats and as JSON with json.loads, and the two formats carry the same
numbers to the bit. So does every record of params-check, bound, nbody,
diffraction, diffraction-scan and mcguire, whose words (symmetry labels,
verdicts) also agree.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointfam import one_body
from pointfam.cli import main
from pointfam.verify import random_params


_PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _reject_constant(name):
    raise ValueError(f"{name} in JSON output")


def _table_numbers(argv):
    """The cells of a table command's output as float64, checked finite and alike in CSV and JSON."""
    lines = _stdout([*argv, "--output", "csv"]).split("\n")
    assert lines[-1] == ""
    csv = np.array([[float(c) for c in line.split(",")] for line in lines[1:-1]])
    # parse_int=float: "%.17g" writes -0.0 as -0, which an int would read as 0
    payload = json.loads(_stdout([*argv, "--output", "json"]), parse_int=float, parse_constant=_reject_constant)
    assert list(payload) == ["columns", "rows"] and payload["columns"] == lines[0].split(",")
    rows = np.array(payload["rows"], dtype=float)
    assert np.isfinite(csv).all()
    assert csv.shape == rows.shape and csv.tobytes() == rows.tobytes()
    return csv


_SPAN = st.tuples(st.floats(-5.0, 5.0), st.floats(0.01, 2.0), st.integers(1, 30))


def _span_text(lo, step, count):
    return f"{lo!r}:{lo + (count - 1) * step!r}:{step!r}"


@_PROPERTY
@given(alpha=_SPAN, gamma=_SPAN, delta=st.floats(-3.0, 3.0).filter(lambda d: abs(d) > 1e-3))
def test_phase_diagram_output_is_finite_and_alike_in_both_formats(alpha, gamma, delta):
    argv = ["phase-diagram", f"--delta={delta!r}", f"--alpha={_span_text(*alpha)}", f"--gamma={_span_text(*gamma)}"]
    table = _table_numbers(argv)
    assert len(table) == alpha[2] * gamma[2]
    counts = one_body.phase_diagram_count(table[:, 0], table[:, 1], delta)
    assert table[:, 2].tolist() == counts.tolist()


def _point_sets(n):
    row = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n).filter(
        lambda xs: min(abs(a - b) for i, a in enumerate(xs) for b in xs[i + 1:]) > 1e-6
    )
    return st.tuples(st.just(n), st.lists(row, min_size=1, max_size=25))


@_PROPERTY
@given(case=st.sampled_from([2, 3, 4]).flatmap(_point_sets), header=st.booleans())
def test_nbody_eval_output_is_finite_and_alike_in_both_formats(tmp_path_factory, case, header):
    n, points = case
    folder = tmp_path_factory.mktemp("nbody-eval")
    params = folder / "params.json"
    params.write_text(json.dumps(dict(alpha=-2.0, beta=3.0, gamma=-2.0, delta=1.0, theta=0.0, mass=0.5)))
    path = folder / "points.csv"
    path.write_text("x1,x2\n" * header + "".join(",".join(map(repr, pt)) + "\n" for pt in points))
    argv = ["nbody-eval", "--params", str(params), "--n", str(n), "--state-index", "0", "--points", str(path)]
    table = _table_numbers(argv)
    assert table[:, :n].tolist() == points


def _record_objects(argv, key=None):
    """The records of a record command as JSON objects, checked finite and alike in CSV and JSON.

    A number is compared by its bits, a bool with CSV's true/false, a string as it is.
    """
    lines = _stdout([*argv, "--output", "csv"]).split("\n")
    assert lines[-1] == ""
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:-1]]
    payload = json.loads(_stdout([*argv, "--output", "json"]), parse_int=float, parse_constant=_reject_constant)
    if key is not None:
        assert list(payload) == [key]
    objects = [payload] if key is None else payload[key]
    assert [list(obj) for obj in objects] == [header] * len(rows)
    for obj, cells in zip(objects, rows):
        for value, cell in zip(obj.values(), cells):
            if isinstance(value, float):
                assert math.isfinite(float(cell)) and float(cell).hex() == value.hex()
            else:
                assert cell == (json.dumps(value) if isinstance(value, bool) else value)
    return objects


def _params_file(folder, seed):
    p = random_params(np.random.default_rng(seed))
    path = folder / "params.json"
    path.write_text(json.dumps(p.to_dict()))
    return p, str(path)


_SEED = st.integers(0, 2**32 - 1)
_MIDDLE = st.sampled_from(["minus", "plus"])


@_PROPERTY
@given(seed=_SEED, span=st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 2.0), st.integers(1, 30)))
def test_scatter_output_is_finite_and_alike_in_both_formats(tmp_path_factory, seed, span):
    _, path = _params_file(tmp_path_factory.mktemp("scatter"), seed)
    table = _table_numbers(["scatter", "--params", path, f"--k-range={_span_text(*span)}"])
    lo, step, count = span
    assert table[:, 0].tolist() == [lo + i * step for i in range(count)]


@_PROPERTY
@given(seed=_SEED)
def test_params_check_and_bound_records_are_alike_in_both_formats(tmp_path_factory, seed):
    p, path = _params_file(tmp_path_factory.mktemp("records"), seed)
    [echo] = _record_objects(["params-check", "--params", path])
    assert echo == p.to_dict()
    states = _record_objects(["bound", "--params", path], "states")
    assert [s["kappa"] for s in states] == [s.kappa for s in one_body.bound_spectrum(p)]


@_PROPERTY
@given(seed=_SEED, n=st.integers(2, 6))
def test_nbody_records_are_alike_in_both_formats(tmp_path_factory, seed, n):
    _, path = _params_file(tmp_path_factory.mktemp("records"), seed)
    for state in _record_objects(["nbody", "--params", path, "--n", str(n)], "states"):
        assert isinstance(state["symmetry"], str)


@_PROPERTY
@given(seed=_SEED, k=st.floats(0.01, 10.0), phi=st.floats(0.01, 1.0), middle=_MIDDLE)
def test_diffraction_record_is_alike_in_both_formats(tmp_path_factory, seed, k, phi, middle):
    _, path = _params_file(tmp_path_factory.mktemp("records"), seed)
    argv = ["diffraction", "--params", path, f"--k={k!r}", f"--phi={phi!r}", "--middle-reflection", middle]
    [record] = _record_objects(argv)
    assert (record["k"], record["phi"], record["middle_reflection"]) == (k, phi, middle)


@_PROPERTY
@given(seed=_SEED, samples=st.integers(1, 40), middle=_MIDDLE)
def test_diffraction_scan_record_is_alike_in_both_formats(tmp_path_factory, seed, samples, middle):
    _, path = _params_file(tmp_path_factory.mktemp("records"), seed)
    argv = ["diffraction-scan", "--params", path, "--samples", str(samples), "--middle-reflection", middle]
    [record] = _record_objects(argv)
    assert isinstance(record["verdict"], bool) and record["samples"] == samples


@_PROPERTY
@given(g0=st.floats(-3.0, -0.01), mass=st.floats(0.1, 3.0), n=st.integers(2, 12))
def test_mcguire_record_is_alike_in_both_formats(g0, mass, n):
    [record] = _record_objects(["mcguire", f"--g0={g0!r}", f"--mass={mass!r}", "--n", str(n)])
    assert (record["g0"], record["mass"], record["n"]) == (g0, mass, n)


@pytest.mark.parametrize("command, header", [
    ("bound", "kappa,energy,eta_re,eta_im"),
    ("nbody", "kappa,energy,eta_re,eta_im,c_even_re,c_even_im,c_odd_re,c_odd_im,symmetry"),
])
def test_empty_spectrum_outputs_are_pinned(tmp_path, command, header):
    # The repulsive contact potential binds nothing.
    path = tmp_path / "repulsive.json"
    path.write_text(json.dumps(dict(alpha=-1.0, beta=-1.0, gamma=-1.0, delta=0.0, theta=math.pi, mass=1.0)))
    argv = [command, "--params", str(path)] + (["--n", "3"] if command == "nbody" else [])
    assert _stdout([*argv, "--output", "csv"]) == header + "\n"
    assert _stdout([*argv, "--output", "json"]) == '{\n  "states": []\n}\n'
