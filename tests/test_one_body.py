import fractions
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_force_root_count
from pointfam.core import PARAM_FIELDS, InteractionParams, boundary_matrix, canonical_interaction, validate_params
from pointfam.errors import InputError, InvalidSlice, NonFiniteResult
from pointfam.one_body import bound_spectrum, orthogonality_sum, phase_diagram_count
from pointfam.verify import random_params

TWO_STATE = validate_params(-2.0, 3.0, -2.0, 1.0, 0.0, 0.5)


def test_delta_potential_single_bound_state():
    p = canonical_interaction("delta", -2.0, 0.5)
    states = bound_spectrum(p)
    assert len(states) == 1
    assert abs(states[0].kappa - 1.0) <= 1e-12
    assert abs(states[0].energy + 1.0) <= 1e-12


def test_delta_prime_single_bound_state():
    p = canonical_interaction("delta_prime", -4.0, 1.0)
    states = bound_spectrum(p)
    assert len(states) == 1
    assert abs(states[0].kappa - 1.0) <= 1e-12


def test_two_state_family_spectrum():
    states = bound_spectrum(TWO_STATE)
    assert [st.kappa for st in states] == [3.0, 1.0]
    assert [st.energy for st in states] == [-9.0, -1.0]
    assert abs(states[0].eta - 1.0) <= 1e-12
    assert abs(states[1].eta + 1.0) <= 1e-12
    assert [st.branch for st in states] == ["plus", "minus"]


def test_repulsive_delta_has_no_bound_state():
    p = canonical_interaction("delta", 2.0, 0.5)
    assert bound_spectrum(p) == []


def test_delta_kappa_scales_with_coupling(rng):
    for _ in range(25):
        g = -float(rng.uniform(0.1, 5.0))
        m = float(rng.uniform(0.2, 2.0))
        states = bound_spectrum(canonical_interaction("delta", g, m))
        assert len(states) == 1
        assert abs(states[0].kappa - (-g * m)) <= 1e-12 * max(1.0, abs(g * m))


def test_decay_rate_equation_residual(rng):
    for _ in range(400):
        p = random_params(rng)
        for st in bound_spectrum(p):
            k, m = st.kappa, p.mass
            residual = abs(
                p.delta * k * k + 2.0 * (p.alpha + p.gamma) * k * m + 4.0 * p.beta * m * m
            )
            assert residual <= 1e-10 * max(1.0, k * k)


def test_boundary_rows_map_left_column_to_right(rng):
    # psi = exp(kappa x) left of the origin and eta exp(-kappa x) right of it:
    # the boundary matrix must carry (psi', 2m psi) = (kappa, 2m) at -0 to
    # (-kappa eta, 2m eta) at +0. Row 1 is the first closed form of eta,
    # -e^{i theta}(alpha + 2 beta m / kappa); row 2 the second,
    # e^{i theta}(gamma + delta kappa / 2m).
    for _ in range(400):
        p = random_params(rng)
        for st in bound_spectrum(p):
            image = boundary_matrix(p) @ np.array([st.kappa, 2.0 * p.mass])
            expected = np.array([-st.kappa * st.eta, 2.0 * p.mass * st.eta])
            assert (np.abs(image - expected) <= 1e-12 * np.abs(expected)).all()


def test_jump_ratio_forms_agree(rng):
    # the two closed forms of eta agree at every root of the decay-rate
    # equation, and bound_spectrum reports the second one verbatim
    for _ in range(400):
        p = random_params(rng)
        for st in bound_spectrum(p):
            form_a = -p.phase * (p.alpha + 2.0 * p.beta * p.mass / st.kappa)
            form_b = p.phase * (p.gamma + p.delta * st.kappa / (2.0 * p.mass))
            assert abs(form_a - form_b) <= 1e-12
            assert abs(st.eta - form_b) == 0.0


def test_overflowing_spectrum_is_refused():
    # kappa = 4e300 is finite, its energy -8e600 is not
    p = validate_params(-1.0, -2.0, -1.0, 1e-300, math.pi, 1.0)
    with pytest.raises(NonFiniteResult, match="energy is -inf, not a finite number"):
        bound_spectrum(p)


def test_energy_kappa_relation(rng):
    # -kappa*kappa/(2m) rounds twice (2m is exact): within 2u + u^2 of the exact value.
    # The last set has kappa = -beta = 1.9794275506214905, whose kappa*kappa lies 0.4996 ulp
    # from the exact square; libm's pow, not correctly rounded, takes the other neighbour.
    near_tie = validate_params(1.0, -1.9794275506214905, 1.0, 0.0, 0.0, 1.0)
    assert [st.kappa for st in bound_spectrum(near_tie)] == [1.9794275506214905]
    for p in [random_params(rng) for _ in range(100)] + [near_tie]:
        for st in bound_spectrum(p):
            exact = -Fraction(st.kappa) ** 2 / (2 * Fraction(p.mass))
            assert abs(Fraction(st.energy) - exact) <= Fraction(2.0**-52 + 2.0**-106) * abs(exact)
            assert st.kappa > 0.0


def test_theta_only_rotates_eta():
    base = dict(alpha=-2.0, beta=3.0, gamma=-2.0, delta=1.0, mass=0.5)
    reference = bound_spectrum(validate_params(theta=0.0, **base))
    for theta in (0.3, math.pi / 2, math.pi):
        states = bound_spectrum(validate_params(theta=theta, **base))
        for st, ref in zip(states, reference):
            assert abs(st.kappa - ref.kappa) <= 1e-12
            assert abs(st.energy - ref.energy) <= 1e-12
            assert abs(abs(st.eta) - abs(ref.eta)) <= 1e-12
            phase = complex(math.cos(theta), math.sin(theta))
            assert abs(st.eta - ref.eta * phase) <= 1e-12


def test_unimodular_jump_ratio_iff_symmetric(rng):
    # alpha == gamma forces |eta| = 1; a generic asymmetric member breaks it
    count_eq = count_neq = 0
    while count_eq < 60 or count_neq < 60:
        p = random_params(rng)
        if p.delta == 0.0:
            continue
        alpha = p.alpha
        symmetric = validate_params(
            alpha, (alpha * alpha - 1.0) / p.delta, alpha, p.delta, p.theta, p.mass
        )
        for st in bound_spectrum(symmetric):
            assert abs(abs(st.eta) - 1.0) <= 1e-12
            count_eq += 1
        if abs(p.alpha - p.gamma) > 1e-3:
            for st in bound_spectrum(p):
                assert abs(abs(st.eta) - 1.0) > 1e-6
                count_neq += 1


def test_symmetric_deep_well_has_two_opposite_parity_states(rng):
    for _ in range(40):
        alpha = -float(rng.uniform(1.1, 4.0))
        delta = float(rng.uniform(0.1, 3.0))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        beta = (alpha * alpha - 1.0) / delta
        p = validate_params(alpha, beta, alpha, delta, theta, 1.0)
        states = bound_spectrum(p)
        assert len(states) == 2
        assert abs(states[0].eta - p.phase) <= 1e-12
        assert abs(states[1].eta + p.phase) <= 1e-12


def test_phase_diagram_count_examples():
    assert phase_diagram_count(-2.0, -2.0, 1.0) == 2
    assert phase_diagram_count(2.0, 2.0, 1.0) == 0
    assert phase_diagram_count(0.0, 0.0, 1.0) == 1


def test_phase_diagram_delta_zero_slice():
    assert phase_diagram_count(-1.0, -1.0, 0.0, beta=2.0) == 1
    assert phase_diagram_count(-1.0, -1.0, 0.0, beta=-2.0) == 0
    with pytest.raises(InvalidSlice):
        phase_diagram_count(-1.0, -2.0, 0.0, beta=1.0)
    with pytest.raises(InvalidSlice):
        phase_diagram_count(-1.0, -1.0, 0.0)


@pytest.mark.parametrize("beta", [5.0, 0.0])
def test_phase_diagram_refuses_beta_off_the_delta_zero_slice(beta):
    # For delta != 0 the constraint alpha*gamma - beta*delta = 1 fixes beta, so a given one would go unused.
    with pytest.raises(InvalidSlice, match=r"^beta applies only to delta = 0; "):
        phase_diagram_count(1.0, 2.0, 1.0, beta=beta)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["alpha", "gamma", "delta", "beta"])
def test_phase_diagram_refuses_a_non_finite_field(field, bad):
    # A NaN or inf is not a count of 0; delta = 0 with alpha = gamma = -1 is a valid slice, so beta is read too.
    args = dict(alpha=np.array([-1.0, -1.0]), gamma=-1.0, delta=0.0, beta=2.0)
    if field == "alpha":
        args["alpha"][1] = bad
    else:
        args[field] = bad
    with pytest.raises(InputError, match=f"^{field} must be finite, got {bad!r}$"):
        phase_diagram_count(**args)


def test_phase_diagram_matches_brute_force_grid():
    grid = np.linspace(-4.0, 4.0, 100)
    for alpha in grid:
        for gamma in grid:
            closed = phase_diagram_count(float(alpha), float(gamma), 1.0)
            brute = brute_force_root_count(float(alpha), float(gamma), 1.0, nk=1024)
            assert closed == brute


def _exact_root_count(alpha, gamma, delta):
    """Roots above KAPPA_MIN of delta^2 k^2 + 2(alpha+gamma) delta k + 4(alpha gamma - 1), in rationals.

    The quadratic opens upwards and its discriminant 4 delta^2 ((alpha-gamma)^2 + 4)
    is positive: negative at the threshold t, one root lies above t; positive, both
    lie on the side of the vertex; zero, t is a root and 2*vertex - t the other.
    """
    a, g, d, t = (Fraction(x) for x in (alpha, gamma, delta, 1e-12))
    at_t = d * d * t * t + 2 * (a + g) * d * t + 4 * (a * g - 1)
    vertex = -(a + g) / d
    if at_t < 0:
        return 1
    if at_t == 0:
        return int(2 * vertex - t > t)
    return 2 if vertex > t else 0


def test_phase_diagram_counts_the_cancelling_root():
    # (s - trace)/delta loses this root: it reads 2 states where mass 1 has one.
    alpha, gamma, delta = 64.08464466908028, 0.015604362092725817, -0.01196575703236477
    assert phase_diagram_count(alpha, gamma, delta) == _exact_root_count(alpha, gamma, delta) == 1
    p = validate_params(alpha, (alpha * gamma - 1.0) / delta, gamma, delta, 0.0, 1.0)
    assert len(bound_spectrum(p)) == 1


def test_phase_diagram_count_near_contact_is_exact():
    # alpha*gamma = 1 within ~1e-14, so one root is small and its sign and size hang on
    # the rounding of alpha*gamma - 1; |delta| from 6e-6 to 20 puts it on both sides of KAPPA_MIN.
    rng = np.random.default_rng(99)
    n = 5000
    alpha = np.exp(rng.uniform(-6.0, 6.0, n)) * rng.choice([-1.0, 1.0], n)
    gamma = (1.0 / alpha) * (1.0 + rng.uniform(-1e-14, 1e-14, n))
    delta = np.exp(rng.uniform(-12.0, 3.0, n)) * rng.choice([-1.0, 1.0], n)
    cases = zip(alpha.tolist(), gamma.tolist(), delta.tolist())
    wrong = [c for c in cases if phase_diagram_count(*c) != _exact_root_count(*c)]
    assert not wrong, f"{len(wrong)} of {n} miscounted, first {wrong[0]}"


def test_phase_diagram_count_is_exact_at_the_float_extremes():
    # Terms overflow or underflow across this grid; counting from the two root formulas got 147 of its cells wrong.
    values = [0.0] + [sign * x for x in (1e-300, 1e-150, 1.0, 1e150, 1e200, 1e300, 1e308) for sign in (1.0, -1.0)]
    wrong = []
    for delta in (-1e308, -1e-300, -1.0, 1e-320, 1.0, 1e150, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = phase_diagram_count(np.array(values)[:, None], np.array(values)[None, :], delta)
        wrong += [(alpha, gamma, delta) for i, alpha in enumerate(values) for j, gamma in enumerate(values)
                  if grid[i, j] != _exact_root_count(alpha, gamma, delta)]
    assert not wrong, f"{len(wrong)} of {7 * len(values) ** 2} miscounted, first {wrong[0]}"


@pytest.mark.parametrize("delta", [1.4e166, -1.4e166, 1e300, -1e300, 1.7e308, -1.7e308])
def test_phase_diagram_count_stays_in_floats_at_a_huge_delta(monkeypatch, delta):
    # (delta*KAPPA_MIN)^2 overflows from |delta| of about 1.3e166; scaled by a power of two first,
    # no cell of an ordinary grid needs rationals, and every count is still the exact one.
    grid = np.linspace(-4.5, 3.8, 41)
    expected = [[_exact_root_count(alpha, gamma, delta) for gamma in grid.tolist()] for alpha in grid.tolist()]

    def refuse(*args):
        raise AssertionError(f"a cell was counted in rationals at delta = {delta!r}")

    monkeypatch.setattr(fractions, "Fraction", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = phase_diagram_count(grid[:, None], grid[None, :], delta)
    assert counts.tolist() == expected


def test_phase_diagram_count_where_the_vertex_rounds_onto_kappa_min():
    # -(alpha+gamma)/delta rounds to KAPPA_MIN but lies above it, so both roots count.
    alpha, delta = -3.85e21, 7.7e33
    assert (alpha + alpha) / -delta == 1e-12
    assert phase_diagram_count(alpha, alpha, delta) == _exact_root_count(alpha, alpha, delta) == 2


def _count_per_cell(alpha, gamma, delta, beta=None):
    """The scalar classifier the array kernel replaced, one cell at a time."""
    if delta == 0.0:
        return 1 if -2.0 * beta / (alpha + gamma) > 1e-12 else 0
    s = math.hypot(alpha - gamma, 2.0)
    trace = alpha + gamma
    return sum(1 for signed in ((-trace + s) / delta, (-trace - s) / delta) if signed > 1e-12)


@pytest.mark.parametrize("delta", [1.0, -0.7, 2.5])
def test_phase_diagram_array_matches_per_cell(delta):
    # The grid contains the 0/1/2 boundaries (alpha*gamma = 1 and exact zeros).
    alphas = -4.0 + 0.05 * np.arange(161)
    gammas = np.concatenate((-4.0 + 0.125 * np.arange(65), [0.5, 2.0, 0.25, 4.0]))
    grid = phase_diagram_count(alphas[:, None], gammas[None, :], delta)
    assert grid.shape == (161, 69)
    assert set(np.unique(grid)) == {0, 1, 2}
    for i, alpha in enumerate(alphas.tolist()):
        for j, gamma in enumerate(gammas.tolist()):
            assert grid[i, j] == _count_per_cell(alpha, gamma, delta)
            assert grid[i, j] == phase_diagram_count(alpha, gamma, delta)


def test_phase_diagram_array_delta_zero():
    alphas = np.array([-4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0])
    for beta in (2.0, -2.0):
        counts = phase_diagram_count(alphas, 1.0 / alphas, 0.0, beta)
        assert counts.tolist() == [_count_per_cell(a, 1.0 / a, 0.0, beta) for a in alphas.tolist()]
    with pytest.raises(InvalidSlice, match=r"alpha\*gamma = 1"):
        phase_diagram_count(alphas, np.append(1.0 / alphas[:-1], 1.0), 0.0, 2.0)
    with pytest.raises(InvalidSlice, match="beta"):
        phase_diagram_count(alphas, 1.0 / alphas, 0.0)


def test_phase_diagram_count_matches_spectrum(rng):
    for _ in range(200):
        p = random_params(rng)
        count = phase_diagram_count(p.alpha, p.gamma, p.delta, None if p.delta else p.beta)
        assert count == len(bound_spectrum(p))


def test_orthogonality_of_two_state_pair():
    ground, excited = bound_spectrum(TWO_STATE)
    assert abs(orthogonality_sum(ground, excited)) <= 1e-12
    assert abs(orthogonality_sum(excited, ground)) <= 1e-12
    self_overlap = orthogonality_sum(ground, ground)
    assert self_overlap.real > 0.0
    assert abs(self_overlap - (1.0 + abs(ground.eta) ** 2)) <= 1e-12


def test_orthogonality_over_random_two_state_draws(rng):
    # The first 1000 two-state members of the stream, drawn one set at a time.
    pairs = 0
    while pairs < 1000:
        p = random_params(rng)
        states = bound_spectrum(validate_params(p.alpha, p.beta, p.gamma, p.delta, 0.7, p.mass))
        if len(states) == 2:
            assert abs(orthogonality_sum(*states)) <= 1e-12
            pairs += 1


def test_batch_is_refused():
    batch = random_params(np.random.default_rng(5), 3)
    with pytest.raises(InputError, match="one parameter set"):
        bound_spectrum(batch)
    one = InteractionParams(*(np.array([getattr(batch, f)[0]]) for f in PARAM_FIELDS))
    with pytest.raises(InputError, match="one parameter set"):
        bound_spectrum(one)


def test_eval_wavefunction_decay():
    # psi(x) = c_plus exp(-kappa x) for x > 0 and c_minus exp(kappa x) for x < 0
    st = bound_spectrum(canonical_interaction("delta", -2.0, 0.5))[0]
    assert st.kappa == 1.0 and st.c_minus == 1.0
    # symmetric state: equal values left and right
    assert abs(st.c_plus - st.c_minus) <= 1e-12


def test_eval_wavefunction_excited_state_is_odd():
    excited = bound_spectrum(TWO_STATE)[1]
    assert abs(excited.c_plus + excited.c_minus) <= 1e-12
