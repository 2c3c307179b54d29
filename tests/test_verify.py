import json
import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies

from conftest import stack_params
from pointfam import suites, verify
from pointfam.core import PARAM_FIELDS, InteractionParams, canonical_interaction, validate_params
from pointfam.errors import InputError, NonFiniteResult, SingularDenominator, SingularSystem
from pointfam.many_body import nbody_bound_states
from pointfam.one_body import bound_spectrum, phase_diagram_count
from pointfam.scattering import amplitudes, unitarity_defect
from pointfam.suites import SUITE_NAMES, run_nbody_interior_suite, run_suite
from pointfam.verify import (
    ResidualReport,
    _eval_state_local,
    boundary_residual_nbody,
    interior_residual,
    oracle_bound_kappas,
    random_params,
    scattering_matching_oracle,
)

DELTA = canonical_interaction("delta", -2.0, 0.5)
TWO_STATE = validate_params(-2.0, 3.0, -2.0, 1.0, 0.0, 0.5)
TWO_STATE_TILTED = validate_params(-2.0, 3.0, -2.0, 1.0, 0.7, 0.5)
BOUND_SUITE_SEED = 20240901


def test_report_build_consistency():
    good = ResidualReport.build("x", 1e-12, 10, 1e-10)
    assert good.passed
    bad = ResidualReport.build("x", 1e-8, 10, 1e-10)
    assert not bad.passed


# ------------------------------------------------------------- bound oracle


def _found(pair):
    """The roots of one oracle pair, dropping its NaN padding."""
    return pair[~np.isnan(pair)].tolist()


def test_oracle_kappas_delta():
    kappas = oracle_bound_kappas(DELTA)
    assert kappas.shape == (2,)
    assert _found(kappas) == [1.0]


def test_oracle_kappas_two_state():
    roots = _found(oracle_bound_kappas(TWO_STATE))
    assert len(roots) == 2
    assert abs(roots[0] - 1.0) <= 1e-10
    assert abs(roots[1] - 3.0) <= 1e-10


def test_oracle_kappas_empty():
    p = validate_params(2.0, 3.0, 2.0, 1.0, 0.0, 0.5)
    assert np.isnan(oracle_bound_kappas(p)).all()


def test_oracle_handles_wide_quadratic():
    # zero-trace member whose root escapes the coefficient-based bound;
    # the Cauchy bound keeps it inside the bracketing interval
    p = validate_params(10.0, -1.0, -10.0, 101.0, 0.0, 1.0)
    roots = _found(oracle_bound_kappas(p))
    assert len(roots) == 1
    expected = math.sqrt(404.0) / 101.0
    assert abs(roots[0] - expected) <= 1e-9
    closed = sorted(st.kappa for st in bound_spectrum(p))
    assert len(closed) == 1
    assert abs(roots[0] - closed[0]) <= 1e-10


def test_oracle_agrees_with_closed_form(rng):
    p = random_params(rng, 1000)
    for i, pair in enumerate(oracle_bound_kappas(p)):
        oracle = _found(pair)
        member = InteractionParams(*(float(getattr(p, f)[i]) for f in PARAM_FIELDS))
        kappas = sorted(st.kappa for st in bound_spectrum(member))
        assert len(oracle) == len(kappas)
        for a, b in zip(oracle, kappas):
            assert abs(a - b) <= 1e-10 * max(1.0, b)


def _exact_positive_roots(params):
    """Positive roots of the decay-rate polynomial at 50 digits, ascending."""
    import mpmath

    with mpmath.workdps(50):
        a, b, g, d, m = (
            mpmath.mpf(v) for v in (params.alpha, params.beta, params.gamma, params.delta, params.mass)
        )
        c1, c0 = 2 * (a + g) * m, 4 * b * m * m
        if d == 0:
            roots = [-c0 / c1]
        else:
            disc = c1 * c1 - 4 * d * c0
            roots = [] if disc < 0 else [(-c1 + s * mpmath.sqrt(disc)) / (2 * d) for s in (1, -1)]
        return sorted(r for r in roots if r > 1e-12)


def test_oracle_roots_against_mpmath():
    # One-at-a-time draws from the bound suite's seed; the 4-ulp bound is fitted to
    # these inputs, test_oracle_roots_within_condition_bound holds for any draws.
    rng = np.random.default_rng(BOUND_SUITE_SEED)
    batch = stack_params([_scalar_random_params(rng) for _ in range(1000)])
    worst_ulps = 0.0
    for i, pair in enumerate(oracle_bound_kappas(batch)):
        roots = _found(pair)
        p = InteractionParams(*(float(getattr(batch, f)[i]) for f in PARAM_FIELDS))
        exact = _exact_positive_roots(p)
        assert len(roots) == len(exact), p
        for r, e in zip(roots, exact):
            worst_ulps = max(worst_ulps, float(abs(r - e)) / np.spacing(float(e)))
    assert worst_ulps <= 4.0


def _root_condition(p, kappa):
    """sum |a_i| kappa^i / (|p'(kappa)| kappa) for the decay-rate polynomial with coefficients a_i, at least 1."""
    a2, a1, a0 = p.delta, 2.0 * (p.alpha + p.gamma) * p.mass, 4.0 * p.beta * p.mass * p.mass
    return (abs(a2) * kappa * kappa + abs(a1) * kappa + abs(a0)) / (abs(2.0 * a2 * kappa + a1) * kappa)


@pytest.mark.parametrize("seed", range(8))
def test_oracle_roots_within_condition_bound(seed):
    # Evaluating delta*k*k + 2*(alpha+gamma)*k*m + 4*beta*m*m rounds at most 3 times
    # in a term and twice in the sums, so the computed sign is right wherever
    # |p(k)| > 5u * sum |a_i| k^i; a root that far from a sign change lies within
    # 5*cond ulps, and returning an end of the final bracket adds at most one
    # ulp, no more than cond >= 1. Hence 6*cond ulps for any draw.
    batch = random_params(np.random.default_rng(seed), 1000)
    for i, pair in enumerate(oracle_bound_kappas(batch)):
        roots = _found(pair)
        p = InteractionParams(*(float(getattr(batch, f)[i]) for f in PARAM_FIELDS))
        exact = _exact_positive_roots(p)
        assert len(roots) == len(exact), p
        for r, e in zip(roots, exact):
            e = float(e)
            assert abs(r - e) / np.spacing(e) <= 6.0 * _root_condition(p, e), p


@pytest.mark.parametrize("alpha", [-5000.0, -1e6])
def test_oracle_separates_close_roots(alpha):
    # alpha = gamma, delta = 1, m = 1: the roots -2*alpha -+ 2 lie 4 apart near
    # 1e4 and 2e6, so a sign-change scan with cells wider than 4 sees neither.
    p = validate_params(alpha, alpha * alpha - 1.0, alpha, 1.0, 0.0, 1.0)
    exact = _exact_positive_roots(p)
    assert exact == [-2.0 * alpha - 2.0, -2.0 * alpha + 2.0]
    roots = _found(oracle_bound_kappas(p))
    assert len(roots) == 2
    for r, e in zip(roots, exact):
        assert abs(r - e) <= 1e-10 * e
    closed = sorted(state.kappa for state in bound_spectrum(p))
    assert len(closed) == 2
    for r, c in zip(roots, closed):
        assert abs(r - c) <= 1e-10 * c


_COEFF = strategies.floats(-3.0, 3.0)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(alpha=_COEFF, gamma=_COEFF, delta=_COEFF, beta=_COEFF)
def test_root_counts_match_phase_diagram(alpha, gamma, delta, beta):
    # Drawn as random_params draws: beta from the constraint when |delta| > 0.1,
    # else projected to the delta = 0 family with gamma = 1/alpha and beta drawn.
    if abs(delta) > 0.1:
        beta = (alpha * gamma - 1.0) / delta
        count = phase_diagram_count(alpha, gamma, delta)
    else:
        assume(abs(alpha) >= 0.2)
        gamma, delta = 1.0 / alpha, 0.0
        count = phase_diagram_count(alpha, gamma, delta, beta)
    p = validate_params(alpha, beta, gamma, delta, 0.0, 1.0)
    assert len(_found(oracle_bound_kappas(p))) == len(bound_spectrum(p)) == count


def _scalar_random_params(rng):
    """One draw at a time, five rng.uniform calls (six when projected), from random_params' distribution."""
    while True:
        alpha = rng.uniform(-3.0, 3.0)
        gamma = rng.uniform(-3.0, 3.0)
        delta = rng.uniform(-3.0, 3.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        mass = rng.uniform(0.2, 2.0)
        if abs(delta) > 0.1:
            beta = (alpha * gamma - 1.0) / delta
        else:
            if abs(alpha) < 0.2:
                continue
            delta = 0.0
            gamma = 1.0 / alpha
            beta = rng.uniform(-3.0, 3.0)
        return validate_params(alpha, beta, gamma, delta, theta, mass)


@pytest.mark.parametrize("seed", range(4))
def test_random_params_draws(seed):
    batch = random_params(np.random.default_rng(seed), 2000)
    a, b, g, d, theta, mass = (getattr(batch, f) for f in PARAM_FIELDS)
    assert a.shape == (2000,)
    # On the constraint: beta = (alpha*gamma - 1)/delta rounds three times, gamma = 1/alpha once.
    for row in zip(a.tolist(), b.tolist(), g.tolist(), d.tolist()):
        x, y, z, w = map(Fraction, row)
        assert abs(x * z - y * w - 1) <= Fraction(2.0**-52) * (2 * abs(x * z) + 2), row
    projected = d == 0.0
    assert 30 < projected.sum() < 100  # 62 expected: 1/30 of the rows, less those drawn again
    assert (g[projected] == 1.0 / a[projected]).all()
    assert (np.abs(a[projected]) >= 0.2).all() and (np.abs(b[projected]) <= 3.0).all()
    assert (np.abs(d[~projected]) > 0.1).all()
    # Each uniform field fills its range: 2000 draws miss its last 1% with probability 2e-9.
    for values, lo, hi in ((a, -3.0, 3.0), (g[~projected], -3.0, 3.0), (d, -3.0, 3.0),
                           (theta, 0.0, 2.0 * math.pi), (mass, 0.2, 2.0)):
        assert lo <= values.min() <= lo + 0.01 * (hi - lo)
        assert hi - 0.01 * (hi - lo) <= values.max() < hi
    one = random_params(np.random.default_rng(seed))
    assert all(type(getattr(one, f)) is float for f in PARAM_FIELDS)


def _scalar_bisect(f, lo, hi):
    f_lo, f_hi = f(lo), f(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if abs(f_lo) <= abs(f_hi) else hi
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


def _scalar_oracle(p):
    """The bracketing oracle one set at a time: brackets split at the vertex, scalar bisection."""
    a, b, g, d, m = p.alpha, p.beta, p.gamma, p.delta, p.mass
    c1 = 2.0 * (a + g)

    def poly(k):
        return d * k * k + c1 * k * m + 4.0 * b * m * m

    if d == 0.0:
        root = -2.0 * b * m / (a + g)
        return [root] if root > 1e-12 else []
    k_max = 2.0 * (1.0 + abs(a + g) * 2.0 * m + math.sqrt(4.0 * abs(b)) * 2.0 * m)
    k_max /= max(abs(d), 1e-30)
    k_max = max(k_max, 1.0 + max(abs(c1 * m), abs(4.0 * b * m * m)) / abs(d))
    vertex = min(max(-c1 * m / (2.0 * d), 1e-12), k_max)
    roots = [vertex] if poly(vertex) == 0.0 else []
    for lo, hi in ((1e-12, vertex), (vertex, k_max)):
        if min(poly(lo), poly(hi)) < 0.0 < max(poly(lo), poly(hi)):
            roots.append(_scalar_bisect(poly, lo, hi))
    return [r for r in roots if r > 1e-12]


def _nearest_below(x):
    return math.nextafter(x, 0.0)


# (d, c1, m, c0, lo, hi) of _decay_poly brackets with one sign change each.
BISECT_CASES = [
    (1.0, 0.0, 1.0, -1.0, 0.0, 2.0),  # an exact zero at the first midpoint
    (-1.0, 0.0, 1.0, 1.0, 0.0, 16.0),  # poly(lo) > 0, an exact zero at the fourth midpoint
    (2.0, -3.0, 0.5, 0.25, 0.0, 0.4),  # roots 0.25 and 0.5: the zero 0.25 is the third midpoint
    (1.0, 0.0, 1.0, -2.0, 1e-12, 1e6),  # sqrt(2) from a wide bracket
    (1.0, 0.0, 1.0, -2.0, 1.4, 1.5),  # and from a narrow one, done many steps sooner
    (-1.0, 0.0, 1.0, 2.0, _nearest_below(math.sqrt(2.0)), math.sqrt(2.0)),  # adjacent ends from the start
    (1.0, 0.0, 1.0, -2.0, 1.0, _nearest_below(2.0)),
    (0.3, 1.7, 0.9, -5.0, 1e-12, 30.0),
    (-2.5, 0.4, 1.3, 7.0, 1.0, 3.0),
    (1e-308, 0.0, 1.0, -1e308, 0.5e308, 1.5e308),  # the first midpoint is past the float range, poly NaN there
]


def test_bisect_equals_one_bracket_at_a_time():
    d, c1, m, c0, lo, hi = (np.array(column) for column in zip(*BISECT_CASES))
    expected, calls = [], []
    for case in BISECT_CASES:
        evaluations = []

        def poly(k, case=case):
            evaluations.append(k)
            cd, cc1, cm, cc0 = case[:4]
            return cd * k * k + cc1 * k * cm + cc0

        expected.append(_scalar_bisect(poly, *case[4:]))
        calls.append(len(evaluations))
    with np.errstate(over="ignore", invalid="ignore"):
        got = verify._bisect((d, c1, m, c0), lo, hi)
    assert got.tolist() == expected
    assert expected[:3] == [1.0, 1.0, 0.25]
    # The brackets finish on many different steps, most of them not on a step that looks for finished ones.
    assert len(set(calls)) >= 8
    assert lo.tolist() == [case[4] for case in BISECT_CASES]  # the input arrays are left as they are


def test_batched_oracle_equals_one_set_at_a_time():
    rng = np.random.default_rng(BOUND_SUITE_SEED)
    sets = [_scalar_random_params(rng) for _ in range(1000)]
    expected = [_scalar_oracle(p) for p in sets]
    batch = oracle_bound_kappas(stack_params(sets))
    assert batch.shape == (1000, 2)
    assert [_found(pair) for pair in batch] == expected
    assert [_found(oracle_bound_kappas(p)) for p in sets[:20]] == expected[:20]
    # NaN pads the end of a pair only.
    assert not (np.isnan(batch[:, 0]) & ~np.isnan(batch[:, 1])).any()


def test_bound_and_scatter_reports_pinned():
    (bound,), _ = run_suite("bound")
    assert bound.max_residual == 6.143345392245229e-16
    assert bound.worst_at == {
        "draw": 517,
        "params": {
            "alpha": 2.8442665438502948,
            "beta": -60.501328810540706,
            "gamma": 2.9946398961720417,
            "delta": -0.12425436292651693,
            "theta": 1.1339094434402188,
            "mass": 1.1247337828565747,
        },
    }
    match, flux, _ = run_suite("scatter")[0]
    assert match.max_residual == 4.8959247286759285e-15
    assert match.worst_at == {
        "draw": 670,
        "k": 1.9287690678615064,
        "params": {
            "alpha": 2.6121063829690687,
            "beta": 41.78349681729011,
            "gamma": -2.3629398971885642,
            "delta": -0.17165270823026546,
            "theta": 4.63082182853438,
            "mass": 0.671984006923062,
        },
    }
    assert flux.max_residual == 8.881784197001252e-16
    assert flux.worst_at == {
        "draw": 128,
        "k": 5.622016374336875,
        "params": {
            "alpha": -1.8226146022632184,
            "beta": 4.568837331243363,
            "gamma": -2.8108270235146966,
            "delta": 0.9024296727088545,
            "theta": 0.004715632591627108,
            "mass": 1.3401620432879104,
        },
    }
    for value in [match.worst_at["k"], *match.worst_at["params"].values()]:
        assert type(value) is float


# --------------------------------------------------------- matching oracle


def test_matching_oracle_delta():
    t, r = scattering_matching_oracle(DELTA, 1.0, "minus")
    assert abs(t - (1 + 1j) / 2) <= 1e-12
    assert abs(r - (-1 / (1 + 1j))) <= 1e-12


def test_matching_oracle_free_particle():
    p = validate_params(1.0, 0.0, 1.0, 0.0, 0.0, 1.0)
    for k in (0.1, 1.0, 7.3):
        for inc in ("minus", "plus"):
            t, r = scattering_matching_oracle(p, k, inc)
            assert abs(t - 1.0) <= 1e-12
            assert abs(r) <= 1e-12


def test_matching_oracle_agrees_with_closed_form(rng):
    worst = 0.0
    for _ in range(1000):
        p = random_params(rng)
        k = float(rng.uniform(1e-3, 10.0))
        amps = amplitudes(p, k)
        tm, rm = scattering_matching_oracle(p, k, "minus")
        tp, rp = scattering_matching_oracle(p, k, "plus")
        worst = max(
            worst,
            abs(amps.t_minus - tm),
            abs(amps.r_minus - rm),
            abs(amps.t_plus - tp),
            abs(amps.r_plus - rp),
        )
    assert worst <= 1e-12


def test_matching_oracle_input_checks():
    with pytest.raises(InputError):
        scattering_matching_oracle(DELTA, -1.0, "minus")
    with pytest.raises(InputError):
        scattering_matching_oracle(DELTA, 1.0, "left")
    with pytest.raises(InputError, match="'left'"):
        scattering_matching_oracle(stack_params([DELTA, TWO_STATE]), np.array([1.0, 2.0]), "left")
    with pytest.raises(ValueError, match="cannot be broadcast"):
        scattering_matching_oracle(stack_params([DELTA, TWO_STATE]), np.array([1.0, 2.0, 3.0]), "minus")


def _reference_matching(p, k, incidence):
    """The matching system built from Python complex numbers, solved alone."""
    a, b, g, d, m, ph = p.alpha, p.beta, p.gamma, p.delta, p.mass, p.phase
    ik = 1j * k
    if incidence == "minus":
        system = [[ik, ph * (ik * a - 2.0 * m * b)], [2.0 * m, ph * (ik * d - 2.0 * m * g)]]
        rhs = [ph * (ik * a + 2.0 * m * b), ph * (ik * d + 2.0 * m * g)]
    else:
        system = [[ph * (ik * a - 2.0 * m * b), ik], [ph * (ik * d - 2.0 * m * g), 2.0 * m]]
        rhs = [ik, -2.0 * m]
    t, r = np.linalg.solve(np.array(system, dtype=complex), np.array(rhs, dtype=complex))
    return complex(t), complex(r)


def test_matching_oracle_batch_equals_batch_of_one():
    rng = np.random.default_rng(7)
    batch = [random_params(rng) for _ in range(200)]
    ks = rng.uniform(1e-3, 10.0, size=200)
    for incidence in ("minus", "plus"):
        t, r = scattering_matching_oracle(stack_params(batch), ks, incidence)
        assert t.shape == r.shape == (200,)
        for i, (p, k) in enumerate(zip(batch, ks.tolist())):
            one = scattering_matching_oracle(p, k, incidence)
            assert (complex(t[i]), complex(r[i])) == one == _reference_matching(p, k, incidence)


@pytest.mark.parametrize("bad", [0.0, -2.5, float("nan")])
def test_matching_oracle_rejects_bad_k_anywhere(bad):
    ks = np.array([1.0, 2.0, bad, 3.0])
    with pytest.raises(InputError, match=re.escape(f"got {bad!r}")):
        scattering_matching_oracle(DELTA, ks, "minus")


@pytest.mark.parametrize("incidence", ["minus", "plus"])
def test_matching_oracle_singular_entry(incidence):
    # Off the constraint surface on purpose: alpha + gamma = 0 and
    # delta k^2 = 4 m^2 beta at k = 0.5 make the determinant vanish.
    singular = InteractionParams(0.0, 1.0, 0.0, 4.0, 0.0, 0.5)
    with pytest.raises(SingularSystem, match="0.5"):
        scattering_matching_oracle(stack_params([DELTA, singular]), np.array([1.0, 0.5]), incidence)


# ------------------------------------------------------- boundary residual


def test_boundary_residual_delta_state():
    state = nbody_bound_states(DELTA, 3)[0]
    rep = boundary_residual_nbody(DELTA, state, 1, 2, 50)
    assert rep.passed
    assert rep.max_residual <= 1e-12
    assert rep.samples == 50


def test_boundary_residual_all_lines_both_states():
    for theta in (0.0, 0.7):
        params = validate_params(-2.0, 3.0, -2.0, 1.0, theta, 0.5)
        for state in nbody_bound_states(params, 3):
            for i, j in ((1, 2), (2, 3), (3, 1)):
                rep = boundary_residual_nbody(params, state, i, j, 50)
                assert rep.max_residual <= 1e-10, (theta, state.branch, i, j)


def test_boundary_residual_detects_corruption():
    state = nbody_bound_states(TWO_STATE, 3)[0]
    corrupted = replace(state, c_odd=state.c_odd * 1.1)
    rep = boundary_residual_nbody(TWO_STATE, corrupted, 1, 2, 50)
    assert not rep.passed
    assert rep.max_residual > 1e-2


def test_boundary_residual_rejects_unknown_line():
    state = nbody_bound_states(DELTA, 3)[0]
    with pytest.raises(InputError):
        boundary_residual_nbody(DELTA, state, 1, 4, 10)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("params", [DELTA, TWO_STATE], ids=["contact", "two-state"])
def test_boundary_residual_every_pair_when_eta_squared_is_one(params, n):
    # eta = +-1: the parity rule meets every pair's boundary condition in either orientation.
    for state in nbody_bound_states(params, n):
        assert state.eta ** 2 == pytest.approx(1.0, abs=1e-12)
        for i, j in permutations(range(1, n + 1), 2):
            rep = boundary_residual_nbody(params, state, i, j, 50)
            assert rep.max_residual <= 1e-10, (n, state.branch, i, j, rep.max_residual)
            assert rep.check_name == f"boundary-condition x{i}{j}" and rep.samples == 50


@pytest.mark.parametrize("n, passing", [
    (3, [(1, 2), (2, 3), (3, 1)]),  # the cyclic orientation of c07
    (4, []),
    (5, []),
])
def test_boundary_residual_pairs_that_hold_when_eta_squared_is_not_one(n, passing):
    # eta^2 != 1: with N >= 4 the parity rule meets no pair's boundary condition in a fixed orientation.
    for state in nbody_bound_states(TWO_STATE_TILTED, n):
        assert abs(state.eta ** 2 - 1.0) > 0.1
        reports = {(i, j): boundary_residual_nbody(TWO_STATE_TILTED, state, i, j, 50)
                   for i, j in permutations(range(1, n + 1), 2)}
        assert [pair for pair, rep in reports.items() if rep.passed] == passing
        assert min(rep.max_residual for pair, rep in reports.items() if pair not in passing) > 1.0


@pytest.mark.parametrize("n", [4, 5])
def test_boundary_residual_detects_corruption_beyond_three_bodies(n):
    state = nbody_bound_states(TWO_STATE, n)[0]
    corrupted = replace(state, c_odd=state.c_odd * 1.1)
    for i, j in permutations(range(1, n + 1), 2):
        rep = boundary_residual_nbody(TWO_STATE, corrupted, i, j, 50)
        assert not rep.passed
        assert rep.max_residual == pytest.approx(1.0 / 11.0, rel=1e-12)


@pytest.mark.parametrize("n, v", [(9, 7.6875), (21, 0.8125), (22, 0.5)])
def test_boundary_residual_refuses_an_underflowed_wavefunction(n, v):
    # The spectators sit at -sqrt(1.5)*v*(1..N-2), so psi falls with |v| and N:
    # below 1e-300 at the largest |v| from N = 9 on and at every v at N = 22.
    # The first such sample is named.
    state = nbody_bound_states(DELTA, n)[0]
    corrupted = replace(state, c_odd=state.c_odd * 1.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResult, match=(
            rf"^boundary-condition x1,?2: the column magnitude is 0\.0 at v = {v!r}, below 1e-300: "
            "psi has underflowed there$"
        )):
            boundary_residual_nbody(DELTA, corrupted, 1, 2, 50)


def test_boundary_residual_checks_every_sample_up_to_eight_bodies():
    state = nbody_bound_states(DELTA, 8)[0]
    rep = boundary_residual_nbody(DELTA, replace(state, c_odd=state.c_odd * 1.1), 1, 2, 50)
    assert not rep.passed
    assert rep.max_residual == pytest.approx(1.0 / 11.0, rel=1e-12)


@pytest.mark.parametrize("i, j, samples", [
    (1, 1, 10), (0, 2, 10), (2, 4, 10), (1.5, 2, 10), (1, 2.0, 10), (1, 2, 0), (1, 2, -3),
])
def test_boundary_residual_refuses_a_bad_pair_or_sample_count(i, j, samples):
    state = nbody_bound_states(DELTA, 3)[0]
    with pytest.raises(InputError, match="^(pair|i|j|samples) must be"):
        boundary_residual_nbody(DELTA, state, i, j, samples)


@pytest.mark.parametrize("samples", [1, 2, 3])
def test_boundary_residual_takes_few_samples(samples):
    state = nbody_bound_states(DELTA, 3)[0]
    rep = boundary_residual_nbody(DELTA, state, 3, 1, samples)
    assert rep.samples == samples and rep.passed


def test_boundary_check_names_tell_every_ordered_pair_apart():
    nine = nbody_bound_states(DELTA, 9)[0]
    assert boundary_residual_nbody(DELTA, nine, 1, 2, 1).check_name == "boundary-condition x12"
    state = nbody_bound_states(DELTA, 11)[0]
    names = {(i, j): boundary_residual_nbody(DELTA, state, i, j, 1).check_name
             for i, j in permutations(range(1, 12), 2)}
    assert len(set(names.values())) == 110
    assert names[1, 11] == "boundary-condition x1,11" and names[11, 1] == "boundary-condition x11,1"


# -------------------------------------------------------- interior residual


def _reference_eval(state, coords):
    """One point: argsort ordering, inversion count, i < j distance sum, math.exp."""
    order = np.argsort(-coords, kind="stable")
    inversions = sum(order[i] > order[j] for i, j in combinations(range(len(order)), 2))
    coeff = state.c_even if inversions % 2 == 0 else state.c_odd
    total = 0.0
    for i, j in combinations(range(len(coords)), 2):
        total += abs(coords[i] - coords[j])
    return coeff * math.exp(-state.kappa * total / math.sqrt(2.0))


def _reference_interior_residual(params, state, coords, h):
    psi0 = _reference_eval(state, coords)
    lap = 0.0 + 0.0j
    for axis in range(len(coords)):
        bumped = coords.copy()
        bumped[axis] += h
        up = _reference_eval(state, bumped)
        bumped[axis] -= 2.0 * h
        down = _reference_eval(state, bumped)
        lap += (up - 2.0 * psi0 + down) / (h * h)
    return abs(-lap / (2.0 * params.mass) - state.energy * psi0) / abs(state.energy * psi0)


def test_batched_evaluator_matches_point_by_point():
    rng = np.random.default_rng(3)
    checked = 0
    for params in (TWO_STATE, TWO_STATE_TILTED):
        for n in range(2, 7):
            for state in nbody_bound_states(params, n):
                h = 1e-4 / state.kappa
                base = rng.normal(scale=2.0 / state.kappa, size=(20, n))
                up = base.copy()
                axes = rng.integers(0, n, size=20)
                up[np.arange(20), axes] += h
                down = up.copy()
                down[np.arange(20), axes] -= 2.0 * h
                points = np.concatenate([base, up, down])
                values = _eval_state_local(state, points)
                for point, value in zip(points, values.tolist()):
                    assert value == _reference_eval(state, point), (n, point)
                checked += len(points)
    assert checked >= 500


def test_interior_residual_matches_point_by_point():
    # Same draws as interior_residual makes, each point's residual taken
    # with Python complex arithmetic; the batched maximum must match exactly.
    # With this parameter set, unlike the suite's, rounding the division by
    # h^2 as numpy's complex division does changes the maximum.
    params = validate_params(-1.3, 2.0, -2.0, 0.8, 1.1, 0.7)
    for seed in range(8):
        for n in (2, 3, 4):
            for state in nbody_bound_states(params, n):
                h = 1e-4 / state.kappa
                rng = np.random.default_rng(seed)
                ranks = np.argsort(rng.random((30, n)), axis=1)
                all_gaps = 10.0 * h + rng.exponential(1.0 / state.kappa, (30, n - 1))
                worst = 0.0
                for order, gaps in zip(ranks, all_gaps):
                    coords = np.empty(n)
                    coords[order] = np.concatenate([[0.0], -np.cumsum(gaps)])
                    resid = _reference_interior_residual(params, state, coords, h)
                    worst = max(worst, resid)
                rep = interior_residual(params, state, points=30, seed=seed)
                assert rep.max_residual == worst, (seed, n, state.branch)


INTERIOR_MAX_RESIDUALS = {
    "delta n=2 single interior-eigenvalue": 1.566564068783032e-07,
    "delta n=3 single interior-eigenvalue": 9.422417740398529e-08,
    "delta n=4 single interior-eigenvalue": 9.213233875507308e-08,
    "delta n=5 single interior-eigenvalue": 3.264192241732344e-07,
    "two-state n=2 plus interior-eigenvalue": 1.1476090816195056e-07,
    "two-state n=2 minus interior-eigenvalue": 1.566564068783032e-07,
    "two-state n=3 plus interior-eigenvalue": 1.420266576079538e-07,
    "two-state n=3 minus interior-eigenvalue": 9.422417740398529e-08,
    "two-state n=4 plus interior-eigenvalue": 3.590187427888602e-07,
    "two-state n=4 minus interior-eigenvalue": 9.213233875507308e-08,
    "two-state n=5 plus interior-eigenvalue": 3.492958984071902e-07,
    "two-state n=5 minus interior-eigenvalue": 3.264192241732344e-07,
}


def test_interior_suite_residuals_pinned():
    reports, _ = run_suite("nbody-interior")
    assert {r.check_name: r.max_residual for r in reports} == INTERIOR_MAX_RESIDUALS


def test_interior_suite_equals_one_call_per_state():
    # Every report must be the one-call report, worst_at included.
    reports, _ = run_nbody_interior_suite()
    alone = []
    for label, params in (("delta", DELTA), ("two-state", TWO_STATE)):
        for n in range(2, 6):
            for state in nbody_bound_states(params, n):
                rep = interior_residual(params, state, 100)
                alone.append(replace(rep, check_name=f"{label} n={n} {state.branch} {rep.check_name}"))
    assert reports == alone


@pytest.mark.parametrize("seed", range(3))
def test_interior_sample_points(monkeypatch, seed):
    # The points interior_residual evaluates (the first row of each stencil):
    # the top particle at 0, every gap at least 10h with mean 10h + 1/kappa,
    # and the particles in every order.
    evaluated = []

    def recording(state, coords):
        evaluated.append(coords)
        return _eval_state_local(state, coords)

    monkeypatch.setattr(verify, "_eval_state_local", recording)
    for n in (2, 3, 4, 5):
        state = nbody_bound_states(TWO_STATE, n)[0]
        h = 1e-4 / state.kappa
        evaluated.clear()
        interior_residual(TWO_STATE, state, points=500, seed=seed)
        (stencil,) = evaluated
        base = stencil.reshape(500, 2 * n + 1, n)[:, 0]
        order = np.argsort(-base, axis=1)
        placed = np.take_along_axis(base, order, axis=1)
        assert (placed[:, 0] == 0.0).all()
        gaps = -np.diff(placed, axis=1)
        assert (gaps >= 10.0 * h).all()
        mean, sigma = 10.0 * h + 1.0 / state.kappa, 1.0 / state.kappa / math.sqrt(gaps.size)
        assert abs(gaps.mean() - mean) <= 6.0 * sigma
        if n <= 4:  # 500 points show all 24 orders of 4 but not all 120 of 5
            assert len({tuple(row) for row in order.tolist()}) == math.factorial(n)


@pytest.mark.parametrize("params", [TWO_STATE, TWO_STATE_TILTED])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_interior_worst_at_reproduces_max(params, n):
    for state in nbody_bound_states(params, n):
        rep = interior_residual(params, state, points=100)
        coords = np.array(rep.worst_at["coords"])
        assert coords.shape == (n,)
        h = 1e-4 / state.kappa
        assert _reference_interior_residual(params, state, coords, h) == rep.max_residual


def test_interior_residual_at_fifteen_bodies():
    # psi stays above 1e-300 at every stencil point (the smallest is about 5.8e-285).
    rep = interior_residual(DELTA, nbody_bound_states(DELTA, 15)[0], 100)
    assert rep.max_residual == 5.737980537729981e-07 and rep.passed


def test_interior_residual_refuses_an_underflowed_wavefunction():
    # From N = 16 psi underflows to 0 at sample points far apart, where the
    # relative residual would be 0/0.
    state = nbody_bound_states(DELTA, 16)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResult) as info:
            interior_residual(DELTA, state, 100)
    named = re.fullmatch(
        r"interior-eigenvalue: \|E psi\| is 0\.0 at coordinates (\[.*\]), below 1e-300: psi has underflowed there",
        str(info.value),
    )
    coords = np.array(json.loads(named[1]))
    assert coords.shape == (16,) and _eval_state_local(state, coords[None, :]).tolist() == [0j]


def test_interior_residual_delta_three_body():
    state = nbody_bound_states(DELTA, 3)[0]
    rep = interior_residual(DELTA, state, points=100)
    assert rep.passed
    assert rep.max_residual <= 1e-6


def test_interior_residual_up_to_five_bodies():
    for n in (2, 3, 4, 5):
        for state in nbody_bound_states(TWO_STATE, n):
            rep = interior_residual(TWO_STATE, state, points=50)
            assert rep.max_residual <= 1e-6, (n, state.branch)


def test_interior_residual_detects_wrong_energy():
    state = nbody_bound_states(DELTA, 3)[0]
    wrong = replace(state, energy=state.energy * 1.01)
    rep = interior_residual(DELTA, wrong, points=20)
    assert rep.max_residual > 1e-3


@pytest.mark.parametrize("points", [0, -1])
def test_interior_residual_refuses_no_points(points):
    state = nbody_bound_states(DELTA, 3)[0]
    message = f"^points must be an integer of at least 1 and at most 1000000, got {points}$"
    with pytest.raises(InputError, match=message):
        interior_residual(DELTA, state, points=points)


def test_interior_residual_detects_wrong_mass():
    # the kinetic prefactor must come from the interaction parameters
    state = nbody_bound_states(DELTA, 4)[0]
    heavier = validate_params(
        DELTA.alpha, DELTA.beta, DELTA.gamma, DELTA.delta, DELTA.theta, DELTA.mass * 1.05
    )
    rep = interior_residual(heavier, state, points=20)
    assert rep.max_residual > 1e-3


# ------------------------------------------------------------------- suites


def test_singular_system_is_a_singular_denominator():
    assert issubclass(SingularSystem, SingularDenominator)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes(name):
    reports, _ = run_suite(name)
    assert reports
    for rep in reports:
        assert rep.passed, rep


def _one_element(worst_at):
    """The parameter set and wavenumber of a worst_at as one-element arrays."""
    fields = {f: np.array([v]) for f, v in worst_at["params"].items()}
    return InteractionParams(**fields), np.array([worst_at["k"]])


def test_scatter_worst_at_reproduces_max():
    # Re-evaluated from one-element arrays: numpy's array loops (which may fuse
    # a multiply and an add) round some complex products differently from its
    # scalar arithmetic, but give the same bits at any length.
    match, flux = run_suite("scatter")[0][:2]
    p, k = _one_element(match.worst_at)
    amps = amplitudes(p, k)
    t_minus, r_minus = scattering_matching_oracle(p, k, "minus")
    t_plus, r_plus = scattering_matching_oracle(p, k, "plus")
    gaps = (amps.t_minus - t_minus, amps.r_minus - r_minus, amps.t_plus - t_plus, amps.r_plus - r_plus)
    assert max(abs(complex(z[0])) for z in gaps) == match.max_residual
    p, k = _one_element(flux.worst_at)
    assert unitarity_defect(amplitudes(p, k))[0] == flux.max_residual
    assert 0 <= match.worst_at["draw"] < match.samples


@pytest.mark.parametrize("seed", range(10))
def test_seeded_suites_pass(monkeypatch, seed):
    # No tolerance may rest on one lucky stream.
    monkeypatch.setattr(suites, "_SEED", 7919 * seed + 1)
    for name in ("bound", "scatter", "diffraction"):
        for rep in run_suite(name)[0]:
            assert rep.passed, (seed, rep)


def test_worst_at_is_finite_and_deterministic():
    first, _ = run_suite("all")
    second, _ = run_suite("all")
    assert repr(first) == repr(second)

    def leaves(value):
        if isinstance(value, dict):
            return [x for v in value.values() for x in leaves(v)]
        if isinstance(value, list):
            return [x for v in value for x in leaves(v)]
        return [value]

    for rep in first:
        has_input = "interior" in rep.check_name or "boundary-condition" in rep.check_name
        has_input |= rep.check_name in (
            "bound-spectrum vs bracketing oracle", "amplitudes vs matching oracle", "flux conservation"
        )
        assert (rep.worst_at is not None) == has_input, rep.check_name
        if rep.worst_at is not None:
            assert all(math.isfinite(x) for x in leaves(rep.worst_at)), rep


def test_diffraction_suite_notes_momentum_convention():
    _, notes = run_suite("diffraction")
    assert any("k1 + k3 = k2" in note for note in notes)
