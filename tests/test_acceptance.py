"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a pass/fail line through the record_criterion fixture;
the collected lines are echoed in the terminal summary.
"""

import math
from dataclasses import replace
from itertools import combinations

import numpy as np

from conftest import brute_force_root_count
from pointfam import diffraction, many_body, one_body, scattering, suites, verify
from pointfam.core import canonical_interaction, validate_params

DELTA = canonical_interaction("delta", -2.0, 0.5)
DELTA_PRIME = canonical_interaction("delta_prime", -4.0, 1.0)
ANTI_DELTA = canonical_interaction("anti_delta", -2.0, 0.5)
TWO_STATE = validate_params(-2.0, 3.0, -2.0, 1.0, 0.0, 0.5)


def test_c01_delta_bound_state(record_criterion):
    states = one_body.bound_spectrum(DELTA)
    ok = (
        len(states) == 1
        and abs(states[0].kappa - 1.0) <= 1e-12
        and abs(states[0].energy + 1.0) <= 1e-12
    )
    record_criterion(1, "contact-potential bound state kappa = -g m", ok)
    assert ok, states


def test_c02_delta_prime_bound_state(record_criterion):
    states = one_body.bound_spectrum(DELTA_PRIME)
    ok = len(states) == 1 and abs(states[0].kappa - 1.0) <= 1e-12
    record_criterion(2, "delta-prime bound state kappa = -4 m / c", ok)
    assert ok, states


def test_c03_two_bound_state_family(record_criterion):
    states = one_body.bound_spectrum(TWO_STATE)
    oracle = verify.oracle_bound_kappas(TWO_STATE)
    checks = [
        len(states) == 2,
        np.count_nonzero(~np.isnan(oracle)) == 2,
        abs(states[0].kappa - 3.0) <= 1e-12,
        abs(states[1].kappa - 1.0) <= 1e-12,
        abs(oracle[0] - 1.0) <= 1e-10,
        abs(oracle[1] - 3.0) <= 1e-10,
        # ground state jumps by +phase, excited by -phase
        abs(states[0].eta - TWO_STATE.phase) <= 1e-12,
        abs(states[1].eta + TWO_STATE.phase) <= 1e-12,
        abs(one_body.orthogonality_sum(states[0], states[1])) <= 1e-12,
    ]
    ok = all(checks)
    record_criterion(3, "two-state family: roots, jump ratios, orthogonality", ok)
    assert ok, checks


def test_c04_flux_conservation(record_criterion):
    # 1000 draws, each at 10 wavenumbers: row j of ks holds the j-th wavenumber of every draw.
    rng = np.random.default_rng(40)
    params = verify.random_params(rng, 1000)
    ks = rng.uniform(1e-2, 10.0, (10, 1000))
    amps = scattering.amplitudes(params, ks)
    worst_defect = float(np.max(scattering.unitarity_defect(amps)))
    t_minus, r_minus = verify.scattering_matching_oracle(params, ks, "minus")
    t_plus, r_plus = verify.scattering_matching_oracle(params, ks, "plus")
    gaps = (amps.t_minus - t_minus, amps.r_minus - r_minus, amps.t_plus - t_plus, amps.r_plus - r_plus)
    worst_match = max(float(np.max(np.abs(z))) for z in gaps)
    ok = worst_defect <= 1e-12 and worst_match <= 1e-12
    record_criterion(4, "flux conservation and matching-oracle agreement", ok)
    assert ok, (worst_defect, worst_match)


def test_c05_theta_redundancy(record_criterion):
    rng = np.random.default_rng(50)
    base = dict(alpha=-2.0, beta=3.0, gamma=-2.0, delta=1.0, mass=0.5)
    thetas = (0.0, 0.3, math.pi / 2.0, math.pi, 4.0)
    k_values = [float(k) for k in np.linspace(0.3, 9.3, 10)]
    points = [list(rng.normal(scale=2.0, size=3)) for _ in range(100)]

    def observables(theta):
        params = validate_params(theta=theta, **base)
        states = one_body.bound_spectrum(params)
        rows = [(st.kappa, st.energy, abs(st.eta)) for st in states]
        moduli = []
        for k in k_values:
            amps = scattering.amplitudes(params, k)
            moduli.append((abs(amps.t_plus), abs(amps.t_minus), abs(amps.r_plus), abs(amps.r_minus)))
        densities = []
        for state in many_body.nbody_bound_states(params, 3):
            densities.append(
                [abs(many_body.eval_nbody_wavefunction(state, pt)) ** 2 for pt in points]
            )
        return rows, moduli, densities

    ref = observables(thetas[0])
    worst = 0.0
    for theta in thetas[1:]:
        rows, moduli, densities = observables(theta)
        for got, want in zip(rows, ref[0]):
            worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
        for got, want in zip(moduli, ref[1]):
            worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
        for got, want in zip(densities, ref[2]):
            for a, b in zip(got, want):
                worst = max(worst, abs(a - b) / max(1.0, b))
    ok = worst <= 1e-12
    record_criterion(5, "theta-redundancy of all observable quantities", ok)
    assert ok, worst


def test_c06_nbody_energies(record_criterion):
    g0, mass = -2.0, 0.7
    params = canonical_interaction("delta", many_body.coupling_from_pair_strength(g0), mass)
    worst_rel = 0.0
    for n in range(2, 7):
        kappa_ref, energy_ref = many_body.mcguire_reference(g0, mass, n)
        states = many_body.nbody_bound_states(params, n)
        if len(states) != 1:
            worst_rel = math.inf
            break
        worst_rel = max(worst_rel, abs(states[0].energy - energy_ref) / abs(energy_ref))
    interior_ok = True
    worst_interior = 0.0
    for n in range(2, 6):
        for state in many_body.nbody_bound_states(TWO_STATE, n):
            rep = verify.interior_residual(TWO_STATE, state, points=100)
            worst_interior = max(worst_interior, rep.max_residual)
            interior_ok = interior_ok and rep.passed
    ok = worst_rel <= 1e-12 and interior_ok and worst_interior <= 1e-6
    record_criterion(6, "N-body energies: reference match and interior residual", ok)
    assert ok, (worst_rel, worst_interior)


def test_c07_three_body_boundary_conditions(record_criterion):
    worst = 0.0
    for state in many_body.nbody_bound_states(TWO_STATE, 3):
        for i, j in ((1, 2), (2, 3), (3, 1)):
            rep = verify.boundary_residual_nbody(TWO_STATE, state, i, j)
            worst = max(worst, rep.max_residual)
    ground = many_body.nbody_bound_states(TWO_STATE, 3)[0]
    corrupted = replace(ground, c_odd=ground.c_odd * 1.1)
    control = verify.boundary_residual_nbody(TWO_STATE, corrupted, 1, 2)
    ok = worst <= 1e-10 and control.max_residual > 1e-2
    record_criterion(7, "three-body boundary conditions with negative control", ok)
    assert ok, (worst, control.max_residual)


def _walk_coefficient(rng, n, eta, steps):
    # leaving an even ordering divides by the jump ratio, leaving an odd
    # ordering multiplies; for n = 3 this equals the sign-change rule of the
    # cyclically oriented pair coordinates
    cyclic = {frozenset((1, 2)): (1, 2), frozenset((2, 3)): (2, 3), frozenset((1, 3)): (3, 1)}
    ordering = list(range(1, n + 1))
    coeff = 1.0 + 0.0j
    even = True
    for _ in range(steps):
        r = int(rng.integers(0, n - 1))
        a, b = ordering[r], ordering[r + 1]
        factor = 1.0 / eta if even else eta
        if n == 3:
            i, j = cyclic[frozenset((a, b))]
            sign_before = 1 if ordering.index(i) < ordering.index(j) else -1
            assert factor == (1.0 / eta if sign_before == 1 else eta)
        coeff *= factor
        ordering[r], ordering[r + 1] = b, a
        even = not even
    return tuple(ordering), coeff


def test_c08_coefficient_parity_rule(record_criterion):
    rng = np.random.default_rng(80)
    params_pool = [
        TWO_STATE,
        validate_params(-2.0, 3.0, -2.0, 1.0, 0.7, 0.5),
        validate_params(-2.0, 7.0, -4.0, 1.0, 0.4, 0.8),
        DELTA,
    ]
    discrepancies = 0
    walks = 0
    while walks < 1000:
        params = params_pool[walks % len(params_pool)]
        n = int(rng.integers(2, 6))
        states = many_body.nbody_bound_states(params, n)
        state = states[walks % len(states)]
        ordering, coeff = _walk_coefficient(rng, n, state.eta, int(rng.integers(1, 80)))
        inv = sum(
            1 for i, j in combinations(range(n), 2) if ordering[i] > ordering[j]
        )
        expected = state.c_even if inv % 2 == 0 else state.c_odd
        if abs(coeff - expected) > 1e-10 * max(1.0, abs(expected)):
            discrepancies += 1
        walks += 1
    ok = discrepancies == 0
    record_criterion(8, "coefficient parity rule over 1000 random walks", ok)
    assert ok, discrepancies


def test_c09_no_diffraction_iff(record_criterion):
    res_delta, verdict_delta = diffraction.no_diffraction_scan(DELTA, 10_000)
    res_anti, verdict_anti = diffraction.no_diffraction_scan(ANTI_DELTA, 10_000)
    rng = np.random.default_rng(90)
    violators = [DELTA_PRIME]
    while len(violators) < 100:
        params = verify.random_params(rng)
        off = max(
            abs(params.alpha - params.gamma),
            abs(params.delta),
            abs(math.sin(params.theta)),
        )
        if off >= 0.1:
            violators.append(params)
    all_detected = True
    for params in violators:
        detected = False
        for k, phi in diffraction.scan_points(64):
            rep = diffraction.outgoing_amplitudes(params, diffraction.ray_kinematics(k, phi))
            if rep.residual_norm > 1e-6:
                detected = True
                break
        all_detected = all_detected and detected
    ok = (
        verdict_delta
        and verdict_anti
        and res_delta <= 1e-10
        and res_anti <= 1e-10
        and all_detected
    )
    record_criterion(9, "diffraction-free exactly on the contact family", ok)
    assert ok, (res_delta, res_anti, all_detected)


def test_c10_momentum_identity(record_criterion):
    rng = np.random.default_rng(100)
    worst = 0.0
    for phi in rng.uniform(1e-9, math.pi / 3.0 - 1e-9, size=10_000):
        kin = diffraction.ray_kinematics(1.0, float(phi))
        worst = max(worst, abs(kin.k1 + kin.k3 - kin.k2))
    _, notes = suites.run_diffraction_suite()
    noted = any("k1 + k3 = k2" in note for note in notes)
    ok = worst <= 1e-15 and noted
    record_criterion(10, "normal-momentum additivity k1 + k3 = k2", ok)
    assert ok, (worst, notes)


def test_c11_phase_diagram_grid(record_criterion):
    grid = np.linspace(-4.0, 4.0, 160)
    mismatches = 0
    values = set()
    for alpha in grid:
        for gamma in grid:
            closed = one_body.phase_diagram_count(float(alpha), float(gamma), 1.0)
            brute = brute_force_root_count(float(alpha), float(gamma), 1.0)
            values.add(closed)
            if closed != brute:
                mismatches += 1
    ok = mismatches == 0 and values == {0, 1, 2}
    record_criterion(11, "phase diagram matches brute force on 160x160 grid", ok)
    assert ok, (mismatches, values)


def test_c12_symmetry_duality(record_criterion):
    rng = np.random.default_rng(120)
    base = dict(alpha=-2.0, beta=3.0, gamma=-2.0, delta=1.0, mass=0.5)
    expected = {
        0.0: ["symmetric", "antisymmetric"],
        math.pi: ["antisymmetric", "symmetric"],
    }
    ok = True
    for theta, labels in expected.items():
        params = validate_params(theta=theta, **base)
        states = many_body.nbody_bound_states(params, 3)
        ok = ok and [many_body.symmetry_class(s) for s in states] == labels
        for state, label in zip(states, labels):
            sign = 1.0 if label == "symmetric" else -1.0
            for _ in range(50):
                coords = list(rng.normal(scale=2.0, size=3))
                if min(abs(a - b) for a, b in combinations(coords, 2)) < 1e-8:
                    continue
                i, j = sorted(rng.choice(3, size=2, replace=False))
                swapped = list(coords)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                a = many_body.eval_nbody_wavefunction(state, coords)
                b = many_body.eval_nbody_wavefunction(state, swapped)
                ok = ok and abs(b - sign * a) <= 1e-12 * max(1.0, abs(a))
    record_criterion(12, "boson-fermion duality of the two-state labels", ok)
    assert ok
