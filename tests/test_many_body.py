import math
from itertools import combinations

import numpy as np
import pytest

from pointfam.core import canonical_interaction, validate_params
from pointfam.errors import InputError, NonBinding, NonFiniteResult, OnBoundary
from pointfam.many_body import (
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
SQRT2 = math.sqrt(2.0)


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


def test_nbody_cap_and_bad_n():
    with pytest.raises(InputError):
        nbody_bound_states(DELTA, 1)
    with pytest.raises(InputError):
        nbody_bound_states(DELTA, 9)
    assert len(nbody_bound_states(DELTA, 8)) == 1


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


def test_eval_wrong_arity():
    st = nbody_bound_states(DELTA, 3)[0]
    with pytest.raises(InputError):
        eval_nbody_wavefunction(st, [1.0, 0.0])


def _eval_per_point(state, coords):
    """The point-by-point evaluation the array kernel replaced."""
    total = 0.0
    for i, j in combinations(range(state.n), 2):
        total += abs(coords[i] - coords[j])
    ordering = tuple(np.argsort(-np.array(coords), kind="stable") + 1)
    return coefficient(state, ordering) * math.exp(-state.kappa * total / SQRT2)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_eval_array_matches_per_point_exactly(rng, n):
    for st in nbody_bound_states(TWO_STATE, n):
        points = rng.normal(scale=1.5 / st.kappa, size=(500, n))
        values = eval_nbody_wavefunction(st, points)
        assert values.shape == (500,)
        expected = [_eval_per_point(st, pt) for pt in points.tolist()]
        assert values.tolist() == expected
        assert [eval_nbody_wavefunction(st, pt) for pt in points.tolist()] == expected


def test_eval_array_names_the_coincident_row():
    st = nbody_bound_states(DELTA, 3)[0]
    points = np.array([[1.0, 0.0, -1.0], [2.0, 0.5, -0.5], [3.0, 0.0, 3.0 + 1e-15], [1.0, 1.0, 0.0]])
    with pytest.raises(OnBoundary, match="^row 3: coordinates 1 and 3 coincide"):
        eval_nbody_wavefunction(st, points)
    with pytest.raises(InputError):
        eval_nbody_wavefunction(st, points[:, :2])


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
