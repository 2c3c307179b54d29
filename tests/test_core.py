import math
from dataclasses import replace

import numpy as np
import pytest

from pointfam.core import (
    boundary_matrix,
    canonical_interaction,
    params_from_dict,
    validate_params,
)
from pointfam.diffraction import ray_kinematics
from pointfam.errors import ConstraintViolation, InputError, NonPositiveMass
from pointfam.scattering import amplitudes
from pointfam.verify import random_params, scattering_matching_oracle


def test_validate_accepts_constraint_members():
    for g in (-2.0, 0.5, 3.0):
        p = validate_params(-1.0, -g, -1.0, 0.0, math.pi, 1.0)
        assert abs(p.alpha * p.gamma - p.beta * p.delta - 1.0) <= 1e-12
    validate_params(1.0, 0.0, 1.0, 0.0, 0.0, 1.0)
    p = validate_params(-2.0, 3.0, -2.0, 1.0, 0.0, 0.5)
    assert p.alpha * p.gamma - p.beta * p.delta == 1.0


@pytest.mark.parametrize("k", [math.inf, math.nan, -1.0, 0.0])
@pytest.mark.parametrize("use", [
    lambda p, k: amplitudes(p, k),
    lambda p, k: scattering_matching_oracle(p, k, "minus"),
    lambda p, k: ray_kinematics(k, 0.5),
], ids=["amplitudes", "matching-oracle", "ray-kinematics"])
def test_one_wavenumber_rule(use, k):
    # The closed form, its oracle and the ray kinematics refuse the same k with the same message.
    p = canonical_interaction("delta", -2.0, 0.5)
    with pytest.raises(InputError, match=f"^wavenumber must be finite and positive, got {k!r}$"):
        use(p, k)
    with pytest.raises(InputError, match=f"got {k!r}$"):  # the first bad entry of an array is named
        use(p, np.array([1.0, k, -2.0]))


def test_validate_rejects_constraint_violation():
    with pytest.raises(ConstraintViolation):
        validate_params(-1.0, 2.0, -1.0, 0.1, 0.0, 1.0)
    # values are stored as given, never renormalized
    p = validate_params(-2.0, 3.0, -2.0, 1.0, 0.0, 0.5)
    assert p.beta == 3.0


def test_validate_rejects_bad_mass():
    with pytest.raises(NonPositiveMass):
        validate_params(1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(NonPositiveMass):
        validate_params(1.0, 0.0, 1.0, 0.0, 0.0, -2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "delta", "theta", "mass"])
def test_validate_rejects_non_finite(field, bad):
    values = dict(alpha=-1.0, beta=2.0, gamma=-1.0, delta=0.0, theta=math.pi, mass=0.5)
    values[field] = bad
    with pytest.raises(InputError, match=field):
        validate_params(**values)
    with pytest.raises(InputError, match=field):
        params_from_dict(values)


@pytest.mark.parametrize(
    "kind,strength,mass,expected",
    [
        ("delta", -2.0, 0.5, (-1.0, 2.0, -1.0, 0.0)),
        ("delta_prime", -4.0, 1.0, (-1.0, 0.0, -1.0, 4.0)),
        ("anti_delta", -2.0, 0.5, (1.0, -2.0, 1.0, 0.0)),
    ],
)
def test_canonical_interactions(kind, strength, mass, expected):
    p = canonical_interaction(kind, strength, mass)
    assert (p.alpha, p.beta, p.gamma, p.delta) == expected
    assert p.theta == math.pi
    assert p.mass == mass


def test_canonical_rejects_unknown_kind():
    with pytest.raises(InputError):
        canonical_interaction("gaussian", 1.0, 1.0)


def test_apply_boundary_identity_like():
    p = validate_params(1.0, 0.0, 1.0, 0.0, 0.0, 1.0)
    column = np.array([1.0, 2.0])  # (psi', 2m psi) with psi' = psi = 1
    assert (boundary_matrix(p) @ column).tolist() == [1.0 + 0j, 2.0 + 0j]


def test_apply_boundary_delta_derivative_jump():
    # contact potential with unit mass: psi continuous, derivative jumps by 2g
    g = -1.7
    p = canonical_interaction("delta", g, 1.0)
    dpsi, m2psi = boundary_matrix(p) @ np.array([0.0, 2.0])
    assert abs(dpsi - 2.0 * g) <= 1e-12
    assert abs(m2psi - 2.0) <= 1e-12


def test_apply_boundary_matches_bound_state_image():
    p = validate_params(-2.0, 3.0, -2.0, 1.0, 0.0, 0.5)
    kappa, eta = 3.0, 1.0
    # (psi', 2m psi) at -0 is (kappa, 1) for psi = exp(kappa x), m = 1/2
    dpsi, m2psi = boundary_matrix(p) @ np.array([kappa, 2.0 * p.mass])
    assert abs(dpsi - (-kappa * eta)) <= 1e-12
    assert abs(m2psi / (2.0 * p.mass) - eta) <= 1e-12


def test_boundary_matrix_unit_determinant(rng):
    for _ in range(200):
        p = random_params(rng)
        e = boundary_matrix(p)
        det = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
        assert abs(abs(det) - 1.0) <= 1e-12
        # determinant carries twice the phase angle
        assert abs(det - p.phase**2) <= 1e-12


def test_delta_zero_members_have_trace_at_least_two(rng):
    seen = 0
    while seen < 100:
        p = random_params(rng)
        if p.delta != 0.0:
            continue
        seen += 1
        assert abs(p.alpha + p.gamma) >= 2.0 - 1e-12


def test_params_dict_round_trip():
    p = canonical_interaction("delta", -2.0, 0.5)
    assert params_from_dict(p.to_dict()) == p
    with pytest.raises(InputError):
        params_from_dict({"alpha": 1.0})
    with pytest.raises(InputError):
        params_from_dict({k: "x" for k in ("alpha", "beta", "gamma", "delta", "theta", "mass")})
    with pytest.raises(InputError):
        params_from_dict([1, 2, 3])


def test_params_are_immutable():
    p = canonical_interaction("delta", -2.0, 0.5)
    with pytest.raises(AttributeError):
        p.alpha = 5.0
    # replace() builds perturbed copies for negative controls without mutation
    q = replace(p, beta=p.beta + 0.1)
    assert q.beta != p.beta and p.beta == 2.0


def test_boundary_matrix_entries_read_only():
    p = canonical_interaction("delta", -2.0, 0.5)
    entries = boundary_matrix(p)
    assert entries.shape == (2, 2)
    with pytest.raises(ValueError):
        entries[0, 0] = 0.0
    expected = p.phase * np.array([[p.alpha, p.beta], [p.delta, p.gamma]])
    assert np.allclose(entries, expected, atol=1e-15)
