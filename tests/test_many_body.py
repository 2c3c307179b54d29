import dataclasses
import math
import re
from itertools import combinations

import mpmath
import numpy as np
import pytest

from pointfam.core import canonical_interaction, validate_params
from pointfam.errors import InputError, NonBinding, NonFiniteResult, OnBoundary
from pointfam.many_body import (
    COINCIDENCE_TOL,
    _odd_permutations,
    coupling_from_pair_strength,
    eval_nbody_wavefunction,
    mcguire_reference,
    nbody_bound_states,
    nbody_energy,
    symmetry_class,
)
from pointfam.one_body import bound_spectrum
from pointfam.verify import random_params

DELTA = canonical_interaction("delta", -2.0, 0.5)
TWO_STATE = validate_params(-2.0, 3.0, -2.0, 1.0, 0.0, 0.5)
GENERIC = validate_params(-2.0, 7.0, -4.0, 1.0, 0.4, 0.8)  # |eta| != 1, kappa 7.06 and 2.54
SQRT2 = math.sqrt(2.0)
U = 2.0**-53  # unit roundoff


def inversion_parity(ordering):
    inv = sum(
        1 for i, j in combinations(range(len(ordering)), 2) if ordering[i] > ordering[j]
    )
    return "even" if inv % 2 == 0 else "odd"


def coefficient(state, ordering):
    """c_even or c_odd, by the inversion parity of the ordering."""
    return state.c_even if inversion_parity(ordering) == "even" else state.c_odd


# ------------------------------------------------------------- bound states


def test_delta_three_body_state():
    states = nbody_bound_states(DELTA, 3)
    assert len(states) == 1
    st = states[0]
    assert abs(st.kappa - 1.0) <= 1e-12
    assert abs(st.energy + 4.0) <= 1e-12  # -2 kappa^2 / m
    assert abs(st.c_even - 1.0) <= 1e-12
    assert abs(st.c_odd - 1.0) <= 1e-12


def test_two_state_three_body_states():
    states = nbody_bound_states(TWO_STATE, 3)
    assert [st.kappa for st in states] == [3.0, 1.0]
    assert [st.energy for st in states] == [-36.0, -4.0]
    assert abs(states[0].c_odd - 1.0) <= 1e-12
    assert abs(states[1].c_odd + 1.0) <= 1e-12


def test_two_body_states_reduce_to_spectrum():
    for params in (DELTA, TWO_STATE):
        pair_states = nbody_bound_states(params, 2)
        spectrum = bound_spectrum(params)
        assert len(pair_states) == len(spectrum)
        for nb, ob in zip(pair_states, spectrum):
            assert nb.kappa == ob.kappa
            assert nb.energy == ob.energy


def test_nbody_bad_n_and_uncapped_n():
    with pytest.raises(InputError):
        nbody_bound_states(DELTA, 1)
    for n in (9, 10**6):
        (state,) = nbody_bound_states(DELTA, n)
        assert state.n == n


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None, np.float64(3.0)])
def test_n_that_is_not_an_integer_is_refused(n):
    with pytest.raises(InputError, match=f"^n must be an integer of at least 2, got {re.escape(repr(n))}$"):
        nbody_bound_states(DELTA, n)
    with pytest.raises(InputError, match="^n must be an integer of at least 2"):
        mcguire_reference(-1.0, 1.0, n)


def test_numpy_integer_n_is_taken_as_an_int():
    (state,) = nbody_bound_states(DELTA, np.int64(4))
    assert type(state.n) is int and state == nbody_bound_states(DELTA, 4)[0]
    assert mcguire_reference(-1.0, 1.0, np.int32(4)) == mcguire_reference(-1.0, 1.0, 4)


@pytest.mark.parametrize("coords", [(1.7e308, 0.0, 1.0), (-1.7e308, 0.0, 1.0), (-1.7e308, 1.7e308)])
def test_a_gap_sum_past_the_float_range_gives_zero_without_a_warning(coords):
    # psi underflows long before the summed distance overflows; RuntimeWarnings are errors here.
    state = nbody_bound_states(DELTA, len(coords))[0]
    assert eval_nbody_wavefunction(state, coords) == 0
    assert eval_nbody_wavefunction(state, [coords, [0.5 * x for x in coords]]).tolist() == [0, 0]


def test_nbody_energies_match_exact_law():
    # energy = -kappa*kappa*n*(n*n-1)/(12*mass) rounds five times (n and n*n-1
    # are exact as floats here), so to first order its relative error is at
    # most 5u against kappa^2 N(N^2-1)/(12 m) taken exactly in the float kappa.
    # Measured worst ratio to that bound: 0.50.
    worst = 0.0
    with mpmath.workdps(40):
        mass = mpmath.mpf(GENERIC.mass)
        scales = [mpmath.mpf(st.kappa) ** 2 / (12 * mass) for st in nbody_bound_states(GENERIC, 2)]
        for n in np.unique(np.geomspace(2, 10_000, 400).round().astype(int)).tolist():
            for st, scale in zip(nbody_bound_states(GENERIC, n), scales, strict=True):
                exact = scale * (n * (n * n - 1))
                worst = max(worst, abs(st.energy + exact) / (5 * U * exact))
    assert worst <= 1.0


def test_energy_scaling_factor(rng):
    for _ in range(50):
        kappa = float(rng.uniform(0.1, 3.0))
        mass = float(rng.uniform(0.2, 2.0))
        for n in range(2, 9):
            expected = -kappa * kappa * n * (n * n - 1) / (12.0 * mass)
            assert nbody_energy(kappa, mass, n) == expected


# ---------------------------------------------------------------- evaluation


def test_eval_delta_state_value():
    st = nbody_bound_states(DELTA, 3)[0]
    value = eval_nbody_wavefunction(st, [1.0, 0.0, -1.0])
    assert abs(value - math.exp(-2.0 * SQRT2 * st.kappa)) <= 1e-12


def test_eval_translation_invariance(rng):
    st = nbody_bound_states(TWO_STATE, 4)[1]
    for _ in range(50):
        coords = sorted(rng.normal(scale=2.0, size=4), reverse=True)
        shift = float(rng.normal(scale=5.0))
        a = eval_nbody_wavefunction(st, coords)
        b = eval_nbody_wavefunction(st, [c + shift for c in coords])
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_eval_swap_multiplies_by_jump_ratio(rng):
    ground, excited = nbody_bound_states(TWO_STATE, 3)
    for _ in range(50):
        coords = list(rng.normal(scale=2.0, size=3))
        if min(abs(a - b) for a, b in combinations(coords, 2)) < 1e-6:
            continue
        swapped = [coords[1], coords[0], coords[2]]
        for st, sign in ((ground, 1.0), (excited, -1.0)):
            a = eval_nbody_wavefunction(st, coords)
            b = eval_nbody_wavefunction(st, swapped)
            assert abs(b - sign * a) <= 1e-12 * max(1.0, abs(a))


def test_eval_on_boundary_raises():
    st = nbody_bound_states(DELTA, 3)[0]
    with pytest.raises(OnBoundary, match="^coordinates 1 and 2 coincide"):
        eval_nbody_wavefunction(st, [1.0, 1.0, 0.0])
    with pytest.raises(OnBoundary, match="^coordinates 1 and 2 coincide"):
        eval_nbody_wavefunction(st, [0.0, 5e-15, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_eval_refuses_a_non_finite_coordinate(bad):
    st = nbody_bound_states(DELTA, 3)[0]
    with pytest.raises(InputError, match=f"^coordinates must be finite, got {bad!r}$"):
        eval_nbody_wavefunction(st, [0.0, bad, 1.0])
    with pytest.raises(InputError, match=f"^coordinates must be finite, got {bad!r}$"):
        eval_nbody_wavefunction(st, [[0.0, 2.0, 1.0], [0.0, 1.0, bad]])


def test_eval_wrong_arity():
    st = nbody_bound_states(DELTA, 3)[0]
    with pytest.raises(InputError, match=r"^expected 3 coordinates, got 2$"):
        eval_nbody_wavefunction(st, [1.0, 0.0])
    with pytest.raises(InputError, match=r"^expected 3 coordinates, got shape \(1, 1, 3\)$"):
        eval_nbody_wavefunction(st, np.zeros((1, 1, 3)))


def exact_modulus_ratio(state, coords, modulus):
    """|modulus - exp(-kappa S/sqrt2)| over its first-order bound, S the exact pair-distance sum.

    S is summed over all pairs i < j in integers, after scaling the
    coordinates by a common power of two. The kernel rounds each sorted gap,
    each weight times gap and N-2 running sums (at most N u on S, whose
    terms are all >= 0), then -kappa*S and the division by the rounded sqrt2
    (3u more), and math.exp (1 ulp, 2u): to first order the relative error
    is at most (N+3)|e| u + 2u for the exponent e.
    """
    ratios = [x.as_integer_ratio() for x in coords]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    pair_sum = sum(abs(a - b) for a, b in combinations(ints, 2))
    with mpmath.workdps(40):
        exponent = -mpmath.mpf(state.kappa) * pair_sum / scale / mpmath.sqrt(2)
        exact = mpmath.exp(exponent)
        bound = ((state.n + 3) * abs(exponent) + 2) * U
        return float(abs(modulus - exact) / (exact * bound))


@pytest.mark.parametrize("n", [2, 3, 8])
def test_eval_array_matches_per_point_exactly(rng, n):
    # Batch equals one at a time bit for bit; each value is the inversion-rule
    # coefficient times the modulus exactly; the modulus is within its
    # first-order bound of the exact pair sum (worst measured ratio 0.45).
    for params in (TWO_STATE, GENERIC):
        for st in nbody_bound_states(params, n):
            points = rng.normal(scale=1.5 / st.kappa, size=(500, n))
            values = eval_nbody_wavefunction(st, points)
            assert values.shape == (500,)
            assert [eval_nbody_wavefunction(st, pt) for pt in points.tolist()] == values.tolist()
            unit = dataclasses.replace(st, c_even=1.0 + 0.0j, c_odd=1.0 + 0.0j)
            moduli = eval_nbody_wavefunction(unit, points)
            assert not moduli.imag.any()
            for pt, value, modulus in zip(points.tolist(), values.tolist(), moduli.real.tolist()):
                ordering = tuple(np.argsort(-np.array(pt), kind="stable") + 1)
                assert value == coefficient(st, ordering) * modulus
            checked = zip(points.tolist()[:100], moduli.real.tolist())
            assert max(exact_modulus_ratio(st, pt, m) for pt, m in checked) <= 1.0


@pytest.mark.parametrize("n, count", [(64, 6), (1000, 2)])
def test_eval_large_n_against_exact_pair_sum(rng, n, count):
    # Uniform on [-w, w], the pairs' distances sum to about n^2 w/3, so the
    # exponent is about 300; worst measured ratio to the first-order bound:
    # 0.035 at N = 64 and 0.018 at N = 1000.
    st = nbody_bound_states(TWO_STATE, n)[1]
    width = 300.0 * 3.0 * SQRT2 / (st.kappa * n * n)
    points = rng.uniform(-width, width, size=(count, n))
    moduli = np.abs(eval_nbody_wavefunction(st, points))
    assert min(moduli) > 0.0
    assert max(exact_modulus_ratio(st, pt, m) for pt, m in zip(points.tolist(), moduli.tolist())) <= 1.0


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_odd_permutations_equal_an_inversion_count(rng, n):
    orders = np.argsort(rng.random((300, n)), axis=1)
    inversions = [sum(a > b for a, b in combinations(row, 2)) for row in orders.tolist()]
    assert _odd_permutations(orders).tolist() == [count % 2 == 1 for count in inversions]


def test_eval_array_names_the_coincident_row():
    st = nbody_bound_states(DELTA, 3)[0]
    points = np.array([[1.0, 0.0, -1.0], [2.0, 0.5, -0.5], [3.0, 0.0, 3.0 + 1e-15], [1.0, 1.0, 0.0]])
    with pytest.raises(OnBoundary, match="^row 3: coordinates 1 and 3 coincide"):
        eval_nbody_wavefunction(st, points)
    with pytest.raises(InputError):
        eval_nbody_wavefunction(st, points[:, :2])


@pytest.mark.parametrize("coords", [
    [3e-15, 5.0, 0.0, -2.0],  # particles 1 and 3 close, 2 between them in index order
    [1.6e-14, -5.0, 0.0, 8e-15],  # a cluster of 1, 3 and 4 in which 1 and 3 are not close
], ids=["non-adjacent-pair", "three-cluster"])
def test_eval_names_a_pair_that_is_close(coords):
    st = nbody_bound_states(DELTA, 4)[0]
    for points, where in ((coords, ""), ([[0.0, 1.0, 2.0, 3.0], coords], "row 2: ")):
        with pytest.raises(OnBoundary) as info:
            eval_nbody_wavefunction(st, points)
        named = re.fullmatch(rf"{where}coordinates (\d) and (\d) coincide within {COINCIDENCE_TOL}", str(info.value))
        i, j = int(named[1]), int(named[2])
        assert i < j and abs(coords[i - 1] - coords[j - 1]) < COINCIDENCE_TOL


@pytest.mark.parametrize("n", [3, 8, 40])
def test_eval_names_a_coinciding_pair_of_an_exact_three_way_tie(n):
    # The sort is not stable, so which two of three equal coordinates are named is open; both must coincide.
    st = nbody_bound_states(DELTA, n)[0]
    rng = np.random.default_rng(n)
    for _ in range(20):
        coords = rng.permutation(n) * 2.0
        tie = rng.choice(n, 3, replace=False)
        coords[tie] = coords[tie[0]]
        for points, where in ((coords, ""), (np.stack([np.arange(n, dtype=float), coords]), "row 2: ")):
            with pytest.raises(OnBoundary) as info:
                eval_nbody_wavefunction(st, points)
            named = re.fullmatch(rf"{where}coordinates (\d+) and (\d+) coincide within {COINCIDENCE_TOL}", str(info.value))
            i, j = int(named[1]), int(named[2])
            assert i < j and coords[i - 1] == coords[j - 1]


def test_probability_density_is_theta_free(rng):
    base = dict(alpha=-2.0, beta=3.0, gamma=-2.0, delta=1.0, mass=0.5)
    ref_states = nbody_bound_states(validate_params(theta=0.0, **base), 3)
    points = [list(rng.normal(scale=2.0, size=3)) for _ in range(100)]
    for theta in (0.4, math.pi):
        states = nbody_bound_states(validate_params(theta=theta, **base), 3)
        for st, ref in zip(states, ref_states):
            for pt in points:
                d1 = abs(eval_nbody_wavefunction(st, pt)) ** 2
                d0 = abs(eval_nbody_wavefunction(ref, pt)) ** 2
                assert abs(d1 - d0) <= 1e-12 * max(1.0, d0)


# ------------------------------------------------------ coefficient structure

# Cyclic orientation of the three pair coordinates; the oriented coordinate
# for the pair {1,3} is x3 - x1.
CYCLIC_PAIRS = {frozenset((1, 2)): (1, 2), frozenset((2, 3)): (2, 3), frozenset((1, 3)): (3, 1)}


def random_walk_coefficient(rng, n, eta, steps):
    """Propagate a coefficient along a random adjacent-transposition walk.

    Leaving an even ordering divides by eta, leaving an odd one multiplies.
    For three particles this is checked against the sign-change rule of the
    cyclically oriented pair coordinates at every step.
    """
    ordering = list(range(1, n + 1))
    coeff = 1.0 + 0.0j
    even = True
    for _ in range(steps):
        r = int(rng.integers(0, n - 1))
        a, b = ordering[r], ordering[r + 1]
        factor = 1.0 / eta if even else eta
        if n == 3:
            i, j = CYCLIC_PAIRS[frozenset((a, b))]
            sign_before = 1 if ordering.index(i) < ordering.index(j) else -1
            geometric = 1.0 / eta if sign_before == 1 else eta
            assert geometric == factor
        coeff *= factor
        ordering[r], ordering[r + 1] = b, a
        even = not even
    return tuple(ordering), coeff


def test_walks_reproduce_parity_rule(rng):
    params_list = [
        TWO_STATE,
        validate_params(-2.0, 3.0, -2.0, 1.0, 0.7, 0.5),
        validate_params(-2.0, 7.0, -4.0, 1.0, 0.4, 0.8),  # |eta| != 1
    ]
    for params in params_list:
        for n in (2, 3, 4, 5):
            for st in nbody_bound_states(params, n):
                for _ in range(20):
                    steps = int(rng.integers(1, 60))
                    ordering, coeff = random_walk_coefficient(rng, n, st.eta, steps)
                    expected = coefficient(st, ordering)
                    assert abs(coeff - expected) <= 1e-10 * max(1.0, abs(expected))


def test_adjacent_region_orthogonality():
    # Neighbouring wedges hold one even and one odd ordering, so the overlap
    # summed over any neighbouring pair is the same even-plus-odd sum.
    for theta in (0.0, 0.7):
        params = validate_params(-2.0, 3.0, -2.0, 1.0, theta, 0.5)
        plus, minus = nbody_bound_states(params, 3)
        total = plus.c_even.conjugate() * minus.c_even + plus.c_odd.conjugate() * minus.c_odd
        assert abs(total) <= 1e-12


def test_pair_overlap_quadrature():
    plus, minus = nbody_bound_states(TWO_STATE, 2)
    kappa_min = min(plus.kappa, minus.kappa)
    span = 20.0 / kappa_min
    # even point count keeps the coincidence point s = 0 off the grid
    s = np.linspace(-span, span, 40000)

    def values(state):
        return eval_nbody_wavefunction(state, np.column_stack((s / 2.0, -s / 2.0)))

    f, g = values(plus), values(minus)
    overlap = np.trapezoid(np.conj(f) * g, s)
    norm = math.sqrt(abs(np.trapezoid(np.abs(f) ** 2, s)) * abs(np.trapezoid(np.abs(g) ** 2, s)))
    assert abs(overlap) / norm <= 1e-8


# ------------------------------------------------------------------ symmetry


def test_delta_ground_state_is_symmetric():
    st = nbody_bound_states(DELTA, 3)[0]
    assert symmetry_class(st) == "symmetric"


def test_symmetry_labels_swap_with_phase():
    base = dict(alpha=-2.0, beta=3.0, gamma=-2.0, delta=1.0, mass=0.5)
    plus_phase = nbody_bound_states(validate_params(theta=0.0, **base), 3)
    assert [symmetry_class(s) for s in plus_phase] == ["symmetric", "antisymmetric"]
    minus_phase = nbody_bound_states(validate_params(theta=math.pi, **base), 3)
    assert [symmetry_class(s) for s in minus_phase] == ["antisymmetric", "symmetric"]


def test_asymmetric_member_has_no_symmetry_class(rng):
    found = 0
    while found < 20:
        p = random_params(rng)
        if p.delta == 0.0 or abs(p.alpha - p.gamma) < 1e-2:
            continue
        for st in nbody_bound_states(p, 3):
            assert symmetry_class(st) == "none"
            found += 1


# ------------------------------------------------------------------ reference


def test_mcguire_reference_values():
    kappa, energy = mcguire_reference(-SQRT2, 1.0, 3)
    assert abs(kappa - 1.0) <= 1e-12
    assert abs(energy + 2.0) <= 1e-12


def test_mcguire_two_body_consistency():
    g0, m = -1.3, 0.9
    kappa, energy = mcguire_reference(g0, m, 2)
    assert abs(energy - (-(g0 * g0) * m / 4.0)) <= 1e-14
    assert abs(energy - (-kappa * kappa / (2.0 * m))) <= 1e-14


def test_mcguire_matches_nbody_construction():
    g0, m = -2.0, 0.7
    params = canonical_interaction("delta", coupling_from_pair_strength(g0), m)
    for n in range(2, 7):
        kappa_ref, energy_ref = mcguire_reference(g0, m, n)
        states = nbody_bound_states(params, n)
        assert len(states) == 1
        assert abs(states[0].kappa - kappa_ref) <= 1e-12 * kappa_ref
        assert abs(states[0].energy - energy_ref) <= 1e-12 * abs(energy_ref)


@pytest.mark.parametrize("n", [2, 3, 8, 16, 30, 64])
def test_mcguire_law_at_large_n(n):
    # E_N = -kappa^2 N(N^2-1)/(12 m) = -g0^2 m N(N^2-1)/24, within 4 ulps of the reference and of mpmath.
    g0, m = -2.0, 0.7
    (state,) = nbody_bound_states(canonical_interaction("delta", coupling_from_pair_strength(g0), m), n)
    _, energy_ref = mcguire_reference(g0, m, n)
    with mpmath.workdps(50):
        exact = -mpmath.mpf(g0) ** 2 * mpmath.mpf(m) * n * (n * n - 1) / 24
        assert abs(state.energy - exact) <= 4 * math.ulp(state.energy)
    assert abs(state.energy - energy_ref) <= 4 * math.ulp(energy_ref)


def test_mcguire_rejects_repulsive():
    with pytest.raises(NonBinding):
        mcguire_reference(1.0, 1.0, 3)
    with pytest.raises(NonBinding):
        mcguire_reference(0.0, 1.0, 3)


def test_coupling_conversions():
    assert coupling_from_pair_strength(-SQRT2) == -1.0


def test_overflowing_nbody_state_is_refused():
    huge = validate_params(-1.0, 2.0, -1.0, 0.0, math.pi, 1e308)
    with pytest.raises(NonFiniteResult, match="kappa is inf, not a finite number"):
        nbody_bound_states(huge, 4)
    # kappa = 1e154 is finite; kappa^2 N(N^2-1)/(12 m) overflows
    large = validate_params(-1.0, 1e154, -1.0, 0.0, math.pi, 1.0)
    with pytest.raises(NonFiniteResult, match="energy is -inf, not a finite number"):
        nbody_bound_states(large, 8)
    # past about 1.3e154, N(N^2-1) no longer converts to a float
    with pytest.raises(NonFiniteResult, match="energy is -inf, not a finite number"):
        nbody_bound_states(DELTA, 10**400)
