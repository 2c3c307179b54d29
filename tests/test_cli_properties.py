"""Properties of the table writers over small random grids and point sets.

Every table parses, as CSV into finite floats and as JSON with json.loads,
and the two formats carry the same numbers to the bit.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from pointfam import one_body
from pointfam.cli import main


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
