import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies

from pointfam.core import (
    CONSTRAINT_TOL, PARAM_FIELDS, InteractionParams, canonical_interaction, validate_params,
)
from pointfam.errors import InputError, SingularDenominator
from pointfam.many_body import nbody_bound_states
from pointfam.one_body import bound_spectrum
from pointfam.scattering import amplitudes, unitarity_defect
from pointfam.verify import random_params


def test_delta_potential_amplitudes():
    p = canonical_interaction("delta", -2.0, 0.5)
    amps = amplitudes(p, 1.0)
    assert abs(amps.t_plus - (1 + 1j) / 2) <= 1e-12
    assert abs(amps.r_plus - (-1 / (1 + 1j))) <= 1e-12
    assert abs(abs(amps.t_plus) ** 2 - 0.5) <= 1e-12
    assert abs(abs(amps.r_plus) ** 2 - 0.5) <= 1e-12


def test_delta_prime_amplitudes():
    p = canonical_interaction("delta_prime", -4.0, 1.0)
    amps = amplitudes(p, 2.0)
    expected_t = -8j / (16 - 8j)
    assert abs(amps.t_plus - expected_t) <= 1e-12
    assert abs(amps.t_minus - expected_t) <= 1e-12


def test_large_k_transmission_limits():
    # with a delta-prime style discontinuity the barrier wins at high energy
    p = canonical_interaction("delta_prime", -4.0, 1.0)
    amps = amplitudes(p, 1e6)
    assert abs(abs(amps.t_plus) - 4.0 * 1e6 / (4.0 * 1e12)) <= 1e-12
    # contact potential becomes transparent
    p = canonical_interaction("delta", -2.0, 0.5)
    assert abs(abs(amplitudes(p, 1e6).t_plus) - 1.0) <= 1e-6
    # generic continuous-derivative member tends to 2/|alpha+gamma|
    p = validate_params(2.0, 3.0, 0.5, 0.0, 0.0, 1.0)
    assert abs(abs(amplitudes(p, 1e6).t_plus) - 0.8) <= 1e-6


def test_rejects_nonpositive_wavenumber():
    p = canonical_interaction("delta", -2.0, 0.5)
    with pytest.raises(InputError):
        amplitudes(p, 0.0)
    with pytest.raises(InputError):
        amplitudes(p, -1.0)


def test_tiny_denominator_is_refused():
    # Pins today's refusal: each term of den is near 1e-320, below DENOMINATOR_MIN, though
    # the amplitudes depend on k/m only and so equal those at m = k = 1.
    tiny = validate_params(-2.0, 3.0, -2.0, 1.0, 0.0, 1e-160)
    with pytest.raises(SingularDenominator, match=r"^denominator vanished at k = 1e-160$"):
        amplitudes(tiny, 1e-160)


def python_complex_amplitudes(p, k):
    """The closed form in plain Python complex arithmetic, one wavenumber at a time."""
    a, b, g, d, m, ph = p.alpha, p.beta, p.gamma, p.delta, p.mass, p.phase
    den = d * k * k + 2j * k * m * (a + g) - 4.0 * b * m * m
    t_common = 4j * k * m / den
    cross = 2j * k * m * (a - g)
    r_num = d * k * k + 4.0 * b * m * m
    return dict(t_plus=t_common / ph, t_minus=t_common * ph, r_plus=(r_num - cross) / den,
                r_minus=(r_num + cross) / den)


def test_array_amplitudes_match_scalar_calls(rng):
    ulp = np.finfo(float).eps
    for _ in range(50):
        p = random_params(rng)
        ks = np.concatenate([rng.uniform(1e-3, 10.0, size=40), [1e-8, 1e-3, 1e3, 1e8]])
        batch = amplitudes(p, ks)
        assert batch.t_plus.shape == ks.shape
        for i, k in enumerate(ks.tolist()):
            one = amplitudes(p, k)
            for field, want in python_complex_amplitudes(p, k).items():
                got = getattr(batch, field)[i]
                assert abs(got - want) <= 4 * ulp * abs(want), (field, k)
                assert abs(got - getattr(one, field)) <= 4 * ulp * abs(want), (field, k)


def test_parameter_batch_matches_batch_of_one(rng):
    ulp = np.finfo(float).eps
    batch = random_params(rng, 1000)
    ks = rng.uniform(1e-3, 10.0, 1000)
    amps = amplitudes(batch, ks)
    assert amps.t_plus.shape == (1000,)
    for i, k in enumerate(ks.tolist()):
        one = amplitudes(InteractionParams(*(float(getattr(batch, f)[i]) for f in PARAM_FIELDS)), k)
        for field in ("t_plus", "t_minus", "r_plus", "r_minus"):
            want = getattr(one, field)
            assert abs(getattr(amps, field)[i] - want) <= 4 * ulp * abs(want), (i, field)
    grid = amplitudes(validate_params(*(getattr(batch, f)[:5, None] for f in PARAM_FIELDS)), ks[:7])
    assert grid.r_minus.shape == (5, 7)


def test_array_amplitudes_reject_any_bad_entry():
    p = canonical_interaction("delta", -2.0, 0.5)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(InputError):
            amplitudes(p, np.array([0.5, bad, 2.0]))
    with pytest.raises(InputError):
        amplitudes(p, math.nan)


def test_unitarity_exact_for_valid_params(rng):
    for _ in range(1000):
        p = random_params(rng)
        k = float(rng.uniform(1e-3, 10.0))
        assert unitarity_defect(amplitudes(p, k)) <= 1e-12


def test_unitarity_negative_control():
    # beta only enters the constraint when delta != 0, so perturb a member
    # with a genuine quadratic term
    p = replace(validate_params(-2.0, 3.0, -2.0, 1.0, 0.0, 0.5), beta=3.1)
    assert unitarity_defect(amplitudes(p, 1.0)) > 1e-3


def test_flux_identity_algebraic(rng):
    # (d k^2 + 4 b m^2)^2 + 4 k^2 m^2 (a-g)^2 + 16 k^2 m^2
    # == (d k^2 - 4 b m^2)^2 + 4 k^2 m^2 (a+g)^2 given the constraint
    for _ in range(300):
        p = random_params(rng)
        k = float(rng.uniform(1e-3, 10.0))
        m = p.mass
        lhs = (
            (p.delta * k * k + 4 * p.beta * m * m) ** 2
            + 4 * k * k * m * m * (p.alpha - p.gamma) ** 2
            + 16 * k * k * m * m
        )
        rhs = (p.delta * k * k - 4 * p.beta * m * m) ** 2 + 4 * k * k * m * m * (
            p.alpha + p.gamma
        ) ** 2
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_reflection_is_theta_free_and_transmission_rotates(rng):
    base = dict(alpha=-2.0, beta=7.0, gamma=-4.0, delta=1.0, mass=0.8)
    ref = amplitudes(validate_params(theta=0.0, **base), 1.3)
    for theta in (0.3, math.pi / 2, math.pi, 4.0):
        amps = amplitudes(validate_params(theta=theta, **base), 1.3)
        assert abs(amps.r_plus - ref.r_plus) <= 1e-12
        assert abs(amps.r_minus - ref.r_minus) <= 1e-12
        assert abs(abs(amps.t_plus) - abs(ref.t_plus)) <= 1e-12
        phase = complex(math.cos(theta), math.sin(theta))
        assert abs(amps.t_plus * phase - amps.t_minus / phase) <= 1e-12


# |t|^2 moves under theta only through the rounding of exp(i*theta) and of the product or quotient
# with it. Measured worst over 200,000 draws of this distribution: 12 ulp for |T+|^2 (t/phase),
# 6 ulp for |T-|^2 (t*phase).
THETA_ULPS = 16
_UNIT = strategies.floats(0.0, 1.0, exclude_max=True)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(u=strategies.tuples(*[_UNIT] * 6), theta=_UNIT, log_k=strategies.floats(-3.0, 3.0))
def test_theta_changes_no_observable(u, theta, log_k):
    # Drawn as random_params draws (alpha, gamma, delta, theta, mass, then beta when projected).
    alpha, gamma, delta = (-3.0 + 6.0 * v for v in u[:3])
    mass = 0.2 + 1.8 * u[4]
    if abs(delta) > 0.1:
        beta = (alpha * gamma - 1.0) / delta
    else:
        assume(abs(alpha) >= 0.2)
        beta, gamma, delta = -3.0 + 6.0 * u[5], 1.0 / alpha, 0.0
    p = validate_params(alpha, beta, gamma, delta, 2.0 * math.pi * u[3], mass)
    q = replace(p, theta=2.0 * math.pi * theta)
    k = 10.0**log_k
    a, b = amplitudes(p, k), amplitudes(q, k)
    assert (a.r_plus, a.r_minus) == (b.r_plus, b.r_minus)  # reflection never reads theta
    for x, y in ((a.t_plus, b.t_plus), (a.t_minus, b.t_minus)):
        x2, y2 = (float(np.hypot(z.real, z.imag) ** 2) for z in (x, y))
        assert abs(x2 - y2) <= THETA_ULPS * np.spacing(max(x2, y2)), (x2, y2)
    # kappa and energy never read theta, so their bits match
    assert [(s.kappa, s.energy) for s in bound_spectrum(p)] == [(s.kappa, s.energy) for s in bound_spectrum(q)]
    for n in (3, 8):
        assert [(s.kappa, s.energy) for s in nbody_bound_states(p, n)] == [
            (s.kappa, s.energy) for s in nbody_bound_states(q, n)
        ]


def _flux_defect_bound(p, k):
    """First-order rounding bound on unitarity_defect's error against the exact defect.

    den and the reflection numerator are each off by at most 3u times the sum
    of their terms' moduli (S_den, S_num): two roundings per product and one
    per sum. A complex division is within 11u of its quotient (Smith's
    algorithm), a product with the phase within 3u, the phase itself 1u, and
    each hypot(.)**2 within 3u. Summing |t|^2 and |r|^2 rounds once; the
    subtraction of 1 is exact. That makes at most 77u + (12 S_den + 6 S_num)u / |den|,
    taken here as (80 + 12 (S_den + S_num) / |den|) u.
    """
    a, b, g, d, m = p.alpha, p.beta, p.gamma, p.delta, p.mass
    den = abs(complex(d * k * k - 4.0 * b * m * m, 2.0 * k * m * (a + g)))
    terms = 2.0 * abs(d) * k * k + 8.0 * abs(b) * m * m + 2.0 * k * m * (abs(a + g) + abs(a - g))
    return (80.0 + 12.0 * terms / den) * 2.0**-53


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    u=strategies.tuples(*[_UNIT] * 6), push=strategies.floats(-0.99, 0.99), log_k=strategies.floats(-6.0, 6.0)
)
def test_flux_defect_matches_constraint_defect(u, push, log_k):
    # Off the constraint by eps = alpha*gamma - beta*delta - 1, both directions give
    # |t|^2 + |r|^2 - 1 = -16 k^2 m^2 eps / |den|^2 exactly. Measured worst over 40,000
    # draws of this distribution: 0.10 of the bound, 9.3u absolute.
    import mpmath

    alpha, gamma, delta = (-3.0 + 6.0 * v for v in u[:3])
    mass = 0.2 + 1.8 * u[4]
    eps = push * CONSTRAINT_TOL
    if abs(delta) > 0.1:
        beta = (alpha * gamma - 1.0 - eps) / delta
    else:
        assume(abs(alpha) >= 0.2)
        beta, gamma, delta = -3.0 + 6.0 * u[5], (1.0 + eps) / alpha, 0.0
    p = validate_params(alpha, beta, gamma, delta, 2.0 * math.pi * u[3], mass)
    k = 10.0**log_k
    with mpmath.workdps(60):
        a, b, g, d, m, kk = map(mpmath.mpf, (p.alpha, p.beta, p.gamma, p.delta, p.mass, k))
        den2 = (d * kk * kk - 4 * b * m * m) ** 2 + 4 * kk * kk * m * m * (a + g) ** 2
        exact = float(abs(16 * kk * kk * m * m * (a * g - b * d - 1) / den2))
    got = float(unitarity_defect(amplitudes(p, k)))
    assert abs(got - exact) <= _flux_defect_bound(p, k), (got, exact)


def test_symmetric_member_reflects_equally(rng):
    for _ in range(100):
        alpha = float(rng.uniform(-3.0, 3.0))
        delta = float(rng.uniform(0.2, 3.0))
        beta = (alpha * alpha - 1.0) / delta
        p = validate_params(alpha, beta, alpha, delta, 0.4, 1.0)
        amps = amplitudes(p, float(rng.uniform(0.1, 5.0)))
        assert abs(amps.r_plus - amps.r_minus) <= 1e-12


def test_moduli_equal_between_directions(rng):
    for _ in range(200):
        p = random_params(rng)
        amps = amplitudes(p, float(rng.uniform(1e-2, 10.0)))
        assert abs(abs(amps.t_plus) - abs(amps.t_minus)) <= 1e-12
        assert abs(abs(amps.r_plus) - abs(amps.r_minus)) <= 1e-12
