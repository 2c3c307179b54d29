import ast
import inspect
import math
import re
import struct
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies

from conftest import exact_positive_roots, extreme_sets, stack_params
from pointfam import diffraction, one_body, suites, verify
from pointfam.core import (
    CONSTRAINT_TOL,
    PARAM_FIELDS,
    InteractionParams,
    boundary_matrix,
    canonical_interaction,
    validate_params,
)
from pointfam.errors import InputError, SingularDenominator, SingularSystem
from pointfam.many_body import nbody_bound_states
from pointfam.one_body import bound_spectrum, phase_diagram_count
from pointfam.scattering import amplitudes, unitarity_defect
from pointfam.suites import SUITE_NAMES, run_nbody_interior_suite, run_suite
from pointfam.verify import (
    ResidualReport,
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
_FLOAT_MAX = sys.float_info.max


def test_report_build_consistency():
    good = ResidualReport.build("x", 1e-12, 10, 1e-10)
    assert good.passed
    bad = ResidualReport.build("x", 1e-8, 10, 1e-10)
    assert not bad.passed


@pytest.mark.parametrize("residuals, index", [
    ([1.0, 3.0, 3.0, 0.5], 1),  # the first of tied maxima
    ([1.0, math.nan, 3.0, math.nan], 1),  # the first NaN, as np.argmax takes it
    ([2e-11], 0),
])
def test_report_worst_names_the_first_maximum(residuals, index):
    residuals = np.array(residuals)
    assert np.argmax(residuals) == index
    report = ResidualReport.worst("x", residuals, 1e-10, lambda i: {"at": i})
    assert report.worst_at == {"at": index} and report.samples == len(residuals)
    assert report.max_residual == residuals[index] or math.isnan(report.max_residual)
    assert report.passed == (residuals[index] <= 1e-10)


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
    # zero-trace member: with alpha + gamma = 0 the vertex is 0 and clips to KAPPA_MIN,
    # so one bracket up to the largest float holds the one positive root sqrt(|4*beta*m^2/delta|)
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


def test_oracle_roots_against_mpmath():
    # One-at-a-time draws from the bound suite's seed; the 4-ulp bound is fitted to
    # these inputs, test_oracle_roots_within_condition_bound holds for any draws.
    rng = np.random.default_rng(BOUND_SUITE_SEED)
    batch = stack_params([_scalar_random_params(rng) for _ in range(1000)])
    worst_ulps = 0.0
    for i, pair in enumerate(oracle_bound_kappas(batch)):
        roots = _found(pair)
        p = InteractionParams(*(float(getattr(batch, f)[i]) for f in PARAM_FIELDS))
        exact = exact_positive_roots(p)
        assert len(roots) == len(exact), p
        for r, e in zip(roots, exact):
            worst_ulps = max(worst_ulps, float(abs(r - e)) / np.spacing(float(e)))
    assert worst_ulps <= 4.0


@pytest.mark.parametrize("delta", [1e-160, 1e-290, 1e-300])
def test_oracle_finds_a_root_past_an_overflowing_bound(delta):
    # beta = -1/delta: the one root is 0.5/delta, where |4*beta*m^2/delta| = 0.25/delta^2
    # overflows; 4*beta*m/k is -inf at KAPPA_MIN for delta = 1e-300, which keeps its sign.
    p = validate_params(0.0, -1.0 / delta, 0.0, delta, 0.0, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = _found(oracle_bound_kappas(p))
    exact = [float(e) for e in exact_positive_roots(p)]
    assert len(roots) == len(exact) == 1
    assert abs(roots[0] - exact[0]) <= np.spacing(exact[0])
    assert roots[0] == pytest.approx(0.5 / delta, rel=1e-15)


def _wide_range_sets(seed, draws):
    """Valid sets with |alpha|, |gamma|, |delta| log-uniform in 1e-160..1e160, mass in 1e-3..1e3.

    beta solves the constraint; one set in ten is put on the delta = 0
    family with gamma = 1/alpha and a log-uniform beta. Sets that miss the
    constraint by more than CONSTRAINT_TOL, as most with |alpha*gamma|
    above about 1e4 do, are dropped.
    """
    rng = np.random.default_rng(seed)
    a, g, d, b0 = rng.choice([-1.0, 1.0], (4, draws)) * 10.0 ** rng.uniform(-160.0, 160.0, (4, draws))
    m = 10.0 ** rng.uniform(-3.0, 3.0, draws)
    zero = rng.uniform(size=draws) < 0.1
    g[zero], d[zero] = 1.0 / a[zero], 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        b = np.where(zero, b0, (a * g - 1.0) / d)
        valid = np.abs(a * g - b * d - 1.0) <= CONSTRAINT_TOL
    return [validate_params(*row, 0.0, mass) for *row, mass in zip(*(x[valid].tolist() for x in (a, b, g, d, m)))]


def _normal_coefficients(p):
    """Whether delta/m, 2*(alpha+gamma) and 4*beta*m, formed as the oracle forms them, are zero or normal floats."""
    coefficients = (p.delta / p.mass, 2.0 * (p.alpha + p.gamma), 4.0 * p.beta * p.mass)
    return all(c == 0.0 or np.finfo(float).tiny <= abs(c) <= _FLOAT_MAX for c in coefficients)


def test_oracle_roots_across_the_float_range():
    # Named sets first: a root 2.6e260 where delta*k^2 is about 1e406, a lower root
    # 1.04e5 beside an upper one near 3.4e309, and a set whose upper root 7e300 a
    # bound with inf - inf at its end missed. Then wide-range sets, all of them, and
    # the extreme sets whose three coefficients are zero or normal floats.
    named = [
        validate_params(
            2.7014412219917344e144, 5.342359694155892e114, 6.190125671915536e-159,
            -1.8718320316280878e-115, 0.0, 9.06816196801751,
        ),
        validate_params(
            -7.354233193540967e-146, 9.624116741751103e163, -2.4264951175299004e159,
            1.8541972646579197e-150, 0.0, 1.3114032036155718,
        ),
        validate_params(-2.5, 5.25e300, -2.5, 1e-300, 0.0, 1.0),
    ]
    wide, extreme = _wide_range_sets(7, 4000), extreme_sets(11, 6000)
    sets = named + wide + [p for p in extreme if _normal_coefficients(p)]
    assert len(wide) > 2000 and len(sets) - len(named) - len(wide) > 3000
    # only the roots below the largest float: the second named set's upper root is not one
    exact = [[e for e in exact_positive_roots(p) if e <= _FLOAT_MAX] for p in sets]
    assert {len(roots) for roots in exact} == {0, 1, 2} and sum(p.delta == 0.0 for p in sets) > 500
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = oracle_bound_kappas(stack_params(sets))
        oracle_bound_kappas(stack_params(extreme))  # no warning on the sets left out either
    for p, pair, roots in zip(sets, batch, exact):
        found = _found(pair)
        assert len(found) == len(roots), p
        for r, e in zip(found, roots):
            assert abs(r - e) <= 4.0 * np.spacing(float(e)), p
    for pair, roots in zip(batch[:3], exact):
        assert all(abs(r - e) <= np.spacing(float(e)) for r, e in zip(_found(pair), roots))


def _root_condition(p, kappa):
    """sum |a_i| kappa^i / (|p'(kappa)| kappa) for the decay-rate polynomial with coefficients a_i, at least 1."""
    a2, a1, a0 = p.delta, 2.0 * (p.alpha + p.gamma) * p.mass, 4.0 * p.beta * p.mass * p.mass
    return (abs(a2) * kappa * kappa + abs(a1) * kappa + abs(a0)) / (abs(2.0 * a2 * kappa + a1) * kappa)


@pytest.mark.parametrize("seed", range(8))
def test_oracle_roots_within_condition_bound(seed):
    # Evaluating (delta/m)*k + 2*(alpha+gamma) + 4*beta*m/k, which is p(k)/(m*k),
    # rounds at most twice in a term and twice in the sums, so the computed sign
    # is right wherever |p(k)| > 4u * sum |a_i| k^i; a root that far from a sign
    # change lies within 4*cond ulps, and returning an end of the final bracket
    # adds at most one ulp, no more than cond >= 1. Hence 6*cond ulps for any draw.
    batch = random_params(np.random.default_rng(seed), 1000)
    for i, pair in enumerate(oracle_bound_kappas(batch)):
        roots = _found(pair)
        p = InteractionParams(*(float(getattr(batch, f)[i]) for f in PARAM_FIELDS))
        exact = exact_positive_roots(p)
        assert len(roots) == len(exact), p
        for r, e in zip(roots, exact):
            e = float(e)
            assert abs(r - e) / np.spacing(e) <= 6.0 * _root_condition(p, e), p


@pytest.mark.parametrize("alpha", [-5000.0, -1e6])
def test_oracle_separates_close_roots(alpha):
    # alpha = gamma, delta = 1, m = 1: the roots -2*alpha -+ 2 lie 4 apart near
    # 1e4 and 2e6, so a sign-change scan with cells wider than 4 sees neither.
    p = validate_params(alpha, alpha * alpha - 1.0, alpha, 1.0, 0.0, 1.0)
    exact = exact_positive_roots(p)
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


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_bits(n):
    return struct.unpack("<d", struct.pack("<q", n))[0]


def _scalar_bisect(f, lo, hi):
    """Halve [lo, hi], 0 < lo <= hi, on the bit patterns of its ends until they are adjacent floats or hit a zero."""
    f_lo, f_hi = f(lo), f(hi)
    lo, hi = _bits(lo), _bits(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        f_mid = f(_from_bits(mid))
        if f_mid == 0.0:
            return _from_bits(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return _from_bits(lo) if abs(f_lo) <= abs(f_hi) else _from_bits(hi)


def _scalar_oracle(p):
    """The bracketing oracle one set at a time: brackets split at the vertex, scalar bisection."""
    d, c1, c0 = p.delta / p.mass, 2.0 * (p.alpha + p.gamma), 4.0 * p.beta * p.mass

    def poly(k):
        return d * k + c1 + c0 / k

    with np.errstate(divide="ignore"):  # -c1/(2*d) is +-inf where delta = 0
        vertex = min(max(float(np.divide(-c1, 2.0 * d)), 1e-12), _FLOAT_MAX)
    roots = [vertex] if poly(vertex) == 0.0 else []
    for lo, hi in ((1e-12, vertex), (vertex, _FLOAT_MAX)):
        if min(poly(lo), poly(hi)) < 0.0 < max(poly(lo), poly(hi)):
            roots.append(_scalar_bisect(poly, lo, hi))
    return [r for r in roots if r > 1e-12]


def _nearest_below(x):
    return math.nextafter(x, 0.0)


# (d, c1, c0, lo, hi) of _decay_poly brackets, 0 < lo <= hi, with one sign change each.
BISECT_CASES = [
    (1.0, 0.0, -1.0, 0.5, 2.0),  # an exact zero at the first midpoint: 1 lies halfway between their bit patterns
    (-1.0, 0.0, 1.0, 2.0**-7, 2.0**9),  # poly(lo) > 0, an exact zero at the fourth midpoint
    (4.0, -3.0, 0.5, 0.203125, 0.40625),  # roots 0.25 and 0.5: the zero 0.25 is the third midpoint
    (1.0, 0.0, -2.0, 1e-12, 1e6),  # sqrt(2) from a wide bracket
    (1.0, 0.0, -2.0, 1.4, 1.5),  # and from a narrow one, done many steps sooner
    (-1.0, 0.0, 2.0, _nearest_below(math.sqrt(2.0)), math.sqrt(2.0)),  # adjacent ends from the start
    (1.0, 0.0, -2.0, 1.0, _nearest_below(2.0)),
    (0.3, 1.7, -5.0, 1e-12, 30.0),
    (-2.5, 0.4, 7.0, 1.0, 3.0),
    # The widest brackets, up to the largest float: from the least positive float, where
    # c0/k is -inf (and d*k is inf at hi), and from KAPPA_MIN, with a root near 1e300.
    (1.5, -1.0, -1.0, 5e-324, _FLOAT_MAX),
    (1e-300, -1.0, -1.0, 1e-12, _FLOAT_MAX),
    # adjacent ends with an exact zero at one of them
    (1.0, 0.0, -1.0, 1.0, math.nextafter(1.0, 2.0)),
    (1.0, 0.0, -1.0, _nearest_below(1.0), 1.0),
    (-1.0, 0.0, 1.0, 1.0, math.nextafter(1.0, 2.0)),  # poly(lo) = 0 and poly(hi) < 0
]


def test_bisect_equals_one_bracket_at_a_time():
    d, c1, c0, lo, hi = (np.array(column) for column in zip(*BISECT_CASES))
    expected, halvings = [], []
    for case in BISECT_CASES:
        evaluations = []

        def poly(k, case=case):
            evaluations.append(k)
            cd, cc1, cc0 = case[:3]
            return cd * k + cc1 + cc0 / k

        expected.append(_scalar_bisect(poly, *case[3:]))
        halvings.append(len(evaluations) - 2)  # one evaluation per halving, besides the two ends
    with np.errstate(over="ignore"):
        got = verify._bisect((d, c1, c0), lo, hi)
    assert got.tolist() == expected
    assert expected[:3] == [1.0, 1.0, 0.25] and halvings[:3] == [1, 4, 3]
    # From the least positive float to the largest is 2**63 - 2**52 - 2 bit patterns:
    # that bracket takes every one of the 63 halvings to end on adjacent floats.
    assert halvings[9] == max(halvings) == 63
    assert lo.tolist() == [case[3] for case in BISECT_CASES]  # the input arrays are left as they are


def test_bisect_takes_an_empty_batch():
    empty = np.empty(0)
    assert verify._bisect((empty,) * 3, empty, empty).shape == (0,)


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


def _skew_delta_zero_root(params, plus, minus):
    return np.where(params.delta == 0.0, plus * (1.0 + 1e-9), plus), minus


def _skew_vieta_root(params, plus, minus):
    # The root of smaller magnitude of a delta != 0 pair is the one from 4*beta*m/q.
    smaller = np.abs(plus) < np.abs(minus)  # False at delta = 0, where minus is NaN
    larger = np.abs(minus) < np.abs(plus)
    return np.where(smaller, plus * (1.0 + 1e-9), plus), np.where(larger, minus * (1.0 + 1e-9), minus)


@pytest.mark.parametrize(
    "skew, on_delta_zero", [(_skew_delta_zero_root, True), (_skew_vieta_root, False)], ids=["delta-zero", "vieta"]
)
def test_bound_suite_catches_a_wrong_root(monkeypatch, skew, on_delta_zero):
    # About 1 in 30 of the suite's draws is projected onto delta = 0; the oracle
    # brackets every root the same way, so a closed form off by 1e-9 on either
    # family fails.
    kappa_roots = one_body.kappa_roots
    monkeypatch.setattr(one_body, "kappa_roots", lambda params: skew(params, *kappa_roots(params)))
    (bound,), _ = run_suite("bound")
    assert not bound.passed and bound.max_residual == pytest.approx(1e-9, rel=1e-5)
    assert (bound.worst_at["params"]["delta"] == 0.0) == on_delta_zero


def test_bound_and_scatter_reports_pinned():
    (bound,), _ = run_suite("bound")
    assert bound.max_residual == 3.8080989145326524e-16
    assert bound.worst_at == {
        "draw": 771,
        "params": {
            "alpha": -2.2777357138893333,
            "beta": 2.882385792169401,
            "gamma": -2.2456674357292297,
            "delta": 1.4276495988351376,
            "theta": 3.8547572934309136,
            "mass": 1.53124098582057,
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
    t, r, _, _ = scattering_matching_oracle(DELTA, 1.0)
    assert abs(t - (1 + 1j) / 2) <= 1e-12
    assert abs(r - (-1 / (1 + 1j))) <= 1e-12


def test_matching_oracle_free_particle():
    p = validate_params(1.0, 0.0, 1.0, 0.0, 0.0, 1.0)
    for k in (0.1, 1.0, 7.3):
        t_minus, r_minus, t_plus, r_plus = scattering_matching_oracle(p, k)
        for t, r in ((t_minus, r_minus), (t_plus, r_plus)):
            assert abs(t - 1.0) <= 1e-12
            assert abs(r) <= 1e-12


def test_matching_oracle_agrees_with_closed_form(rng):
    worst = 0.0
    for _ in range(1000):
        p = random_params(rng)
        k = float(rng.uniform(1e-3, 10.0))
        amps = amplitudes(p, k)
        tm, rm, tp, rp = scattering_matching_oracle(p, k)
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
        scattering_matching_oracle(DELTA, -1.0)
    with pytest.raises(InputError, match="do not broadcast"):
        scattering_matching_oracle(stack_params([DELTA, TWO_STATE]), np.array([1.0, 2.0, 3.0]))


def _reference_system(p, k, incidence):
    """One direction's matching system built from Python complex numbers."""
    a, b, g, d, m, ph = p.alpha, p.beta, p.gamma, p.delta, p.mass, p.phase
    ik = 1j * k
    if incidence == "minus":
        system = [[ik, ph * (ik * a - 2.0 * m * b)], [2.0 * m, ph * (ik * d - 2.0 * m * g)]]
        rhs = [ph * (ik * a + 2.0 * m * b), ph * (ik * d + 2.0 * m * g)]
    else:
        system = [[ph * (ik * a - 2.0 * m * b), ik], [ph * (ik * d - 2.0 * m * g), 2.0 * m]]
        rhs = [ik, -2.0 * m]
    return np.array(system, dtype=complex), np.array(rhs, dtype=complex)


def _reference_matching(p, k, incidence):
    """The matching system of one direction, solved alone."""
    t, r = np.linalg.solve(*_reference_system(p, k, incidence))
    return complex(t), complex(r)


def test_matching_oracle_batch_equals_batch_of_one():
    rng = np.random.default_rng(7)
    batch = [random_params(rng) for _ in range(200)]
    ks = rng.uniform(1e-3, 10.0, size=200)
    amps = scattering_matching_oracle(stack_params(batch), ks)
    assert [z.shape for z in amps] == [(200,)] * 4
    for i, (p, k) in enumerate(zip(batch, ks.tolist())):
        one = scattering_matching_oracle(p, k)
        reference = _reference_matching(p, k, "minus") + _reference_matching(p, k, "plus")
        assert tuple(complex(z[i]) for z in amps) == one == reference


@pytest.mark.parametrize("bad", [0.0, -2.5, float("nan")])
def test_matching_oracle_rejects_bad_k_anywhere(bad):
    ks = np.array([1.0, 2.0, bad, 3.0])
    with pytest.raises(InputError, match=re.escape(f"got {bad!r}")):
        scattering_matching_oracle(DELTA, ks)


@pytest.mark.parametrize("incidence", ["minus", "plus"])
def test_matching_oracle_singular_entry(incidence):
    # Off the constraint surface on purpose: alpha + gamma = 0 and
    # delta k^2 = 4 m^2 beta at k = 0.5 make the determinant vanish.
    singular = InteractionParams(0.0, 1.0, 0.0, 4.0, 0.0, 0.5)
    # this direction's own system is singular there, and the oracle's one
    # determinant check refuses it for both directions
    assert np.linalg.det(_reference_system(singular, 0.5, incidence)[0]) == 0
    with pytest.raises(SingularSystem, match="0.5"):
        scattering_matching_oracle(stack_params([DELTA, singular]), np.array([1.0, 0.5]))


# ------------------------------------------------------- boundary residual


def test_boundary_residual_delta_state():
    state = nbody_bound_states(DELTA, 3)[0]
    rep = boundary_residual_nbody(DELTA, state, 1, 2)
    assert rep.passed
    assert rep.max_residual <= 1e-12
    assert rep.samples == 1 and rep.worst_at == {"ordering": [1, 2, 3]}


def test_boundary_residual_all_lines_both_states():
    for theta in (0.0, 0.7):
        params = validate_params(-2.0, 3.0, -2.0, 1.0, theta, 0.5)
        for state in nbody_bound_states(params, 3):
            for i, j in ((1, 2), (2, 3), (3, 1)):
                rep = boundary_residual_nbody(params, state, i, j)
                assert rep.max_residual <= 1e-10, (theta, state.branch, i, j)


def test_boundary_residual_detects_corruption():
    state = nbody_bound_states(TWO_STATE, 3)[0]
    corrupted = replace(state, c_odd=state.c_odd * 1.1)
    rep = boundary_residual_nbody(TWO_STATE, corrupted, 1, 2)
    assert not rep.passed
    assert rep.max_residual > 1e-2


def test_boundary_residual_rejects_unknown_line():
    state = nbody_bound_states(DELTA, 3)[0]
    with pytest.raises(InputError):
        boundary_residual_nbody(DELTA, state, 1, 4)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("params", [DELTA, TWO_STATE], ids=["contact", "two-state"])
def test_boundary_residual_every_pair_when_eta_squared_is_one(params, n):
    # eta = +-1: the parity rule meets every pair's boundary condition in either orientation.
    for state in nbody_bound_states(params, n):
        assert state.eta ** 2 == pytest.approx(1.0, abs=1e-12)
        for i, j in permutations(range(1, n + 1), 2):
            rep = boundary_residual_nbody(params, state, i, j)
            assert rep.max_residual <= 1e-10, (n, state.branch, i, j, rep.max_residual)
            assert rep.check_name == f"boundary-condition x{i}{j}" and rep.samples == (1 if n <= 3 else 2)


@pytest.mark.parametrize("n, passing", [
    (3, [(1, 2), (2, 3), (3, 1)]),  # the cyclic orientation of c07
    (4, []),
    (5, []),
])
def test_boundary_residual_pairs_that_hold_when_eta_squared_is_not_one(n, passing):
    # eta^2 != 1: with N >= 4 the parity rule meets no pair's boundary condition in a fixed orientation.
    for state in nbody_bound_states(TWO_STATE_TILTED, n):
        assert abs(state.eta ** 2 - 1.0) > 0.1
        reports = {(i, j): boundary_residual_nbody(TWO_STATE_TILTED, state, i, j)
                   for i, j in permutations(range(1, n + 1), 2)}
        assert [pair for pair, rep in reports.items() if rep.passed] == passing
        assert min(rep.max_residual for pair, rep in reports.items() if pair not in passing) > 1.0


@pytest.mark.parametrize("n", [4, 5])
def test_boundary_residual_detects_corruption_beyond_three_bodies(n):
    state = nbody_bound_states(TWO_STATE, n)[0]
    corrupted = replace(state, c_odd=state.c_odd * 1.1)
    for i, j in permutations(range(1, n + 1), 2):
        rep = boundary_residual_nbody(TWO_STATE, corrupted, i, j)
        assert not rep.passed
        assert rep.max_residual == pytest.approx(1.0 / 11.0, rel=1e-12)


def test_boundary_residual_checks_every_sample_up_to_eight_bodies():
    state = nbody_bound_states(DELTA, 8)[0]
    rep = boundary_residual_nbody(DELTA, replace(state, c_odd=state.c_odd * 1.1), 1, 2)
    assert not rep.passed and rep.samples == 2
    assert rep.max_residual == pytest.approx(1.0 / 11.0, rel=1e-12)


@pytest.mark.parametrize("n", [9, 22, 64])
def test_boundary_residual_at_large_n(n):
    # The decay factor cancels, so nothing underflows however far apart the particles are.
    state = nbody_bound_states(DELTA, n)[0]
    corrupted = replace(state, c_odd=state.c_odd * 1.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, j in ((1, 2), (n, 1)):
            assert boundary_residual_nbody(DELTA, state, i, j).passed, (n, i, j)
            rep = boundary_residual_nbody(DELTA, corrupted, i, j)
            assert not rep.passed and rep.max_residual == pytest.approx(1.0 / 11.0, rel=1e-12), (n, i, j)


def test_boundary_residual_checks_one_ordering_per_parity():
    # i and j on top, the others in index order; from N = 4 on also with the first two others swapped.
    assert boundary_residual_nbody(DELTA, nbody_bound_states(DELTA, 2)[0], 2, 1).worst_at == {"ordering": [2, 1]}
    state = nbody_bound_states(TWO_STATE_TILTED, 5)[0]
    rep = boundary_residual_nbody(TWO_STATE_TILTED, state, 4, 2)
    assert rep.samples == 2 and rep.worst_at["ordering"] in ([4, 2, 1, 3, 5], [4, 2, 3, 1, 5])


def _column_residual(params, state, ordering, i, j):
    """The boundary residual where ordering (labels from the top down) has i directly above j."""
    inversions = sum(a > b for a, b in combinations(ordering, 2))
    above, below = (state.c_odd, state.c_even) if inversions % 2 else (state.c_even, state.c_odd)
    kappa, m2 = state.kappa, 2.0 * params.mass
    lhs = np.array([-kappa * above, m2 * above])
    rhs = boundary_matrix(params) @ np.array([kappa * below, m2 * below])
    return np.abs(lhs - rhs).max() / max(np.abs(lhs).max(), np.abs(rhs).max())


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("params", [DELTA, TWO_STATE, TWO_STATE_TILTED], ids=["contact", "two-state", "tilted"])
def test_boundary_residual_is_the_worst_over_every_ordering(params, n):
    # Brute force: every ordering with i directly above j, (N - 1)! per ordered pair.
    for state in nbody_bound_states(params, n):
        for i, j in permutations(range(1, n + 1), 2):
            others = [p for p in range(1, n + 1) if p not in (i, j)]
            worst = max(
                _column_residual(params, state, [*rest[:at], i, j, *rest[at:]], i, j)
                for rest in permutations(others) for at in range(n - 1)
            )
            assert boundary_residual_nbody(params, state, i, j).max_residual == worst, (n, state.branch, i, j)


@pytest.mark.parametrize("i, j", [(1, 1), (0, 2), (2, 4), (1.5, 2), (1, 2.0)])
def test_boundary_residual_refuses_a_bad_pair(i, j):
    state = nbody_bound_states(DELTA, 3)[0]
    with pytest.raises(InputError, match="^(pair|i|j) must be"):
        boundary_residual_nbody(DELTA, state, i, j)


def test_boundary_check_names_tell_every_ordered_pair_apart():
    nine = nbody_bound_states(DELTA, 9)[0]
    assert boundary_residual_nbody(DELTA, nine, 1, 2).check_name == "boundary-condition x12"
    state = nbody_bound_states(DELTA, 11)[0]
    names = {(i, j): boundary_residual_nbody(DELTA, state, i, j).check_name
             for i, j in permutations(range(1, 12), 2)}
    assert len(set(names.values())) == 110
    assert names[1, 11] == "boundary-condition x1,11" and names[11, 1] == "boundary-condition x11,1"


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("params", [DELTA, TWO_STATE, TWO_STATE_TILTED], ids=["contact", "two-state", "tilted"])
def test_boundary_batch_equals_one_call_per_pair(params, n):
    # Every ordered pair in one call, a corrupted state included so that residuals are not all round-off.
    states = nbody_bound_states(params, n)
    pairs = list(permutations(range(1, n + 1), 2))
    firsts, seconds = (list(column) for column in zip(*pairs))
    for state in states + [replace(states[0], c_odd=states[0].c_odd * 1.1)]:
        batch = boundary_residual_nbody(params, state, firsts, seconds)
        alone = [boundary_residual_nbody(params, state, i, j) for i, j in pairs]
        assert batch == alone and repr(batch) == repr(alone), (n, state.branch)


def test_boundary_batch_refuses_lists_of_different_lengths():
    state = nbody_bound_states(DELTA, 3)[0]
    with pytest.raises(InputError, match=r"^len\(j\) must be an integer of at least 2 and at most 2, got 1$"):
        boundary_residual_nbody(DELTA, state, [1, 2], [2])


@pytest.mark.parametrize("i, j, message", [
    ([1, 2], [2, 4], "j[1] must be an integer of at least 1 and at most 3, got 4"),
    ((1, 1.5), (2, 3), "i[1] must be an integer of at least 1 and at most 3, got 1.5"),
    ([1, 3], [True, 1], "j[0] must be an integer of at least 1 and at most 3, got True"),
    ([1, 2], [2, 2], "pair (i[1], j[1]) must be two different particles of 1..3, got (2, 2)"),
], ids=["index", "float", "bool", "same-particle"])
def test_boundary_batch_refuses_a_bad_entry(i, j, message):
    state = nbody_bound_states(DELTA, 3)[0]
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        boundary_residual_nbody(DELTA, state, i, j)


# -------------------------------------------------------- interior residual


def _reference_pair_sum(coords):
    """One point: the i < j distances added pair by pair."""
    total = 0.0
    for i, j in combinations(range(len(coords)), 2):
        total += abs(coords[i] - coords[j])
    return total


def _reference_ratio(state, coords, moved):
    """psi(moved)/psi(coords) for two points of one ordering, with math.exp."""
    return math.exp(-state.kappa * (_reference_pair_sum(moved) - _reference_pair_sum(coords)) / math.sqrt(2.0))


def _reference_interior_residual(params, state, coords, h):
    lap = 0.0
    for axis in range(len(coords)):
        bumped = coords.copy()
        bumped[axis] += h
        up = _reference_ratio(state, coords, bumped)
        bumped[axis] -= 2.0 * h
        down = _reference_ratio(state, coords, bumped)
        lap += (up - 2.0 + down) / (h * h)
    return abs(-lap / (2.0 * params.mass) - state.energy) / abs(state.energy)


def test_batched_evaluator_matches_point_by_point():
    # The pair sums of a batch equal those taken one point at a time, bit for bit.
    rng = np.random.default_rng(3)
    checked = 0
    for n in range(2, 9):
        h = 1e-4
        base = rng.normal(scale=2.0, size=(20, n))
        up = base.copy()
        axes = rng.integers(0, n, size=20)
        up[np.arange(20), axes] += h
        down = up.copy()
        down[np.arange(20), axes] -= 2.0 * h
        points = np.concatenate([base, up, down])
        for point, total in zip(points, verify._pair_sum(points).tolist()):
            assert total == _reference_pair_sum(point), (n, point)
        checked += len(points)
    assert checked >= 400


def test_interior_residual_matches_point_by_point():
    # Same draws as interior_residual makes, each point's residual taken
    # one point at a time in Python floats; the batched maximum must match exactly.
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
    "delta n=2 single interior-eigenvalue": 2.7229219767832546e-08,
    "delta n=3 single interior-eigenvalue": 9.384260124534194e-08,
    "delta n=4 single interior-eigenvalue": 8.940170914684131e-08,
    "delta n=5 single interior-eigenvalue": 2.0542001522017017e-07,
    "two-state n=2 plus interior-eigenvalue": 2.7229219570459563e-08,
    "two-state n=2 minus interior-eigenvalue": 2.7229219767832546e-08,
    "two-state n=3 plus interior-eigenvalue": 1.3652867656175101e-07,
    "two-state n=3 minus interior-eigenvalue": 9.384260124534194e-08,
    "two-state n=4 plus interior-eigenvalue": 3.369239324671172e-07,
    "two-state n=4 minus interior-eigenvalue": 8.940170914684131e-08,
    "two-state n=5 plus interior-eigenvalue": 2.5038404755959063e-07,
    "two-state n=5 minus interior-eigenvalue": 2.0542001522017017e-07,
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

    def recording(coords):
        evaluated.append(coords)
        return pair_sum(coords)

    pair_sum = verify._pair_sum
    monkeypatch.setattr(verify, "_pair_sum", recording)
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
    rep = interior_residual(DELTA, nbody_bound_states(DELTA, 15)[0], 100)
    assert rep.max_residual == 5.436415295077625e-07 and rep.passed


@pytest.mark.parametrize("n, passes", [(16, True), (30, None), (64, None)])
def test_interior_residual_at_large_n(n, passes):
    # Every stencil value is a ratio to its centre, so nothing underflows; psi itself
    # would be far below the smallest float at these points. The 1e-6 tolerance is
    # not meant for N = 30 and 64, whose residuals are only required to be finite.
    state = nbody_bound_states(DELTA, n)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = interior_residual(DELTA, state, 100)
    assert math.isfinite(rep.max_residual) and rep.max_residual < 1e-5, rep
    assert passes is None or rep.passed == passes
    coords = np.array(rep.worst_at["coords"])
    assert coords.shape == (n,) and -state.kappa * _reference_pair_sum(coords) / math.sqrt(2.0) < -745.0


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


@pytest.mark.parametrize("points", [1, 30, 100])
@pytest.mark.parametrize("seed", [0, 1234])
@pytest.mark.parametrize("n", range(2, 7))
def test_interior_batch_equals_one_call_per_state(n, seed, points):
    # Both suite cases' states at one N, in one call.
    sets, states = zip(*[(p, st) for p in (DELTA, TWO_STATE) for st in nbody_bound_states(p, n)])
    batch = interior_residual(sets, states, points, seed)
    alone = [interior_residual(p, st, points, seed) for p, st in zip(sets, states)]
    assert len(batch) == 3 and batch == alone and repr(batch) == repr(alone)


_EMPTY = "must be an integer of at least 1 and at most 1000000, got 0"


@pytest.mark.parametrize("call, name", [
    (lambda st: interior_residual([], []), "len(state)"),
    (lambda st: interior_residual([], [st]), "len(params)"),
    (lambda st: boundary_residual_nbody(DELTA, st, [], [2]), "len(i)"),
    (lambda st: boundary_residual_nbody(DELTA, st, [1], ()), "len(j)"),
], ids=["states", "params", "i", "j"])
def test_batch_refuses_an_empty_list(call, name):
    with pytest.raises(InputError, match=f"^{re.escape(name)} {_EMPTY}$"):
        call(nbody_bound_states(DELTA, 3)[0])


@pytest.mark.parametrize("params", [TWO_STATE, [TWO_STATE], (TWO_STATE, TWO_STATE, TWO_STATE)])
def test_interior_batch_refuses_lists_of_different_lengths(params):
    states = nbody_bound_states(TWO_STATE, 3)
    got = 1 if isinstance(params, InteractionParams) else len(params)
    message = f"len(params) must be an integer of at least 2 and at most 2, got {got}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        interior_residual(params, states)


def test_interior_batch_refuses_states_of_more_than_one_n():
    states = [nbody_bound_states(DELTA, 3)[0], nbody_bound_states(DELTA, 4)[0]]
    with pytest.raises(InputError, match=r"^state\[1\]\.n must be an integer of at least 3 and at most 3, got 4$"):
        interior_residual([DELTA, DELTA], states)


_NOT_A_BATCH = " takes one parameter set with float fields, not a batch"


@pytest.mark.parametrize("call, name", [
    (lambda batch, st: interior_residual(batch, st, 5), "interior_residual"),
    (lambda batch, st: interior_residual(batch, st, 2), "interior_residual"),
    (lambda batch, st: boundary_residual_nbody(batch, st, 1, 2), "boundary_residual_nbody"),
    (lambda batch, st: interior_residual([DELTA, batch], [st, st]), "interior_residual params[1]"),
], ids=["interior-5", "interior-2", "boundary", "interior-list"])
def test_n_body_checks_refuse_a_parameter_batch(call, name):
    batch = stack_params([DELTA, DELTA])
    with pytest.raises(InputError, match=f"^{re.escape(name + _NOT_A_BATCH)}$"):
        call(batch, nbody_bound_states(DELTA, 3)[0])


# ------------------------------------------------------------------- suites


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that records the arguments of each call."""
    calls, original = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_suites_check_each_batch_in_one_call(monkeypatch):
    interior = _counted(monkeypatch, verify, "interior_residual")
    boundary = _counted(monkeypatch, verify, "boundary_residual_nbody")
    scans = _counted(monkeypatch, diffraction, "no_diffraction_scan")
    matching = _counted(monkeypatch, verify, "scattering_matching_oracle")
    run_suite("scatter")
    # both incidence directions of the 1000 draws from one call
    assert [(np.shape(params.mass), np.shape(ks)) for params, ks in matching] == [((1000,), (1000,))]
    run_suite("nbody-interior")
    assert [args[1][0].n for args in interior] == [2, 3, 4, 5]  # one call per N, every state of it
    assert [len(args[1]) for args in interior] == [3, 3, 3, 3]
    run_suite("diffraction")
    # the contact family and its twin, then the 20 violating sets
    assert [(np.shape(params.mass), samples) for params, samples in scans] == [((2, 1), 2000), ((20, 1), 64)]
    called = {node.func.attr for node in ast.walk(ast.parse(inspect.getsource(suites)))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert not called & {"scan_points", "outgoing_amplitudes"}  # every sweep goes through no_diffraction_scan
    for calls in (interior, boundary, scans, matching):
        calls.clear()
    run_suite("all")
    three_body = [st for p in (DELTA, TWO_STATE_TILTED) for st in nbody_bound_states(p, 3)]
    assert (len(interior), len(scans), len(matching)) == (4, 2, 1)
    assert len(boundary) == len(three_body) + 1  # every state's cyclic pairs in one call, then the control


def test_negative_controls_share_one_report_form():
    controls = [rep for rep in run_suite("all")[0] if rep.check_name.startswith("negative control:")]
    assert len(controls) == 2
    for rep in controls:
        assert (rep.samples, rep.tolerance, rep.max_residual, rep.passed) == (1, 0.5, 0.0, True), rep
        assert list(rep.worst_at) == ["residual"] and type(rep.worst_at["residual"]) is float, rep


def test_unknown_suite_names_the_six_choices():
    choices = "('bound', 'scatter', 'nbody-boundary', 'nbody-interior', 'diffraction', 'all')"
    with pytest.raises(InputError, match=re.escape(f"unknown suite 'nope'; choose from {choices}")):
        run_suite("nope")


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
    t_minus, r_minus, t_plus, r_plus = scattering_matching_oracle(p, k)
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
        # Every check but the two sweeps and the momentum identity names an input or a measurement.
        has_input = not rep.check_name.endswith(("diffraction-free sweep", "normal-momentum additivity"))
        assert (rep.worst_at is not None) == has_input, rep.check_name
        if rep.worst_at is not None:
            assert all(math.isfinite(x) for x in leaves(rep.worst_at)), rep


def test_negative_controls_report_what_they_measured():
    # Each control keeps its 0/1 indicator and names the residual behind it.
    reports = {rep.check_name: rep for rep in run_suite("all")[0]}
    corrupted = reports["negative control: corrupted coefficients detected"]
    state = nbody_bound_states(TWO_STATE_TILTED, 3)[0]
    measured = boundary_residual_nbody(TWO_STATE_TILTED, replace(state, c_odd=state.c_odd * 1.1), 1, 2)
    assert corrupted.max_residual == 0.0 and corrupted.worst_at == {"residual": measured.max_residual}
    assert measured.max_residual == pytest.approx(1.0 / 11.0, rel=1e-12)
    broken = reports["negative control: constraint break detected"]
    defect = unitarity_defect(amplitudes(replace(TWO_STATE, beta=3.1), 1.0))
    assert broken.max_residual == 0.0 and broken.worst_at == {"residual": float(defect)} and defect > 1e-3
    violators = reports["violating parameter sets show diffraction"]
    assert violators.max_residual == 0.0 and list(violators.worst_at) == ["draw", "residual", "params"]
    weakest = violators.worst_at
    params = InteractionParams(**{f: np.array([[v]]) for f, v in weakest["params"].items()})
    points = diffraction.scan_points(64)
    kin = diffraction.ray_kinematics(points[:, 0], points[:, 1])
    assert diffraction.outgoing_amplitudes(params, kin).residual_norm.max() == weakest["residual"] > 1e-6


def test_diffraction_suite_notes_momentum_convention():
    _, notes = run_suite("diffraction")
    assert any("k1 + k3 = k2" in note for note in notes)
