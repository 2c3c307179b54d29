import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from pointfam.core import (
    SIZE_CAP,
    boundary_matrix,
    canonical_interaction,
    params_from_dict,
    validate_count,
    validate_params,
)
from pointfam.diffraction import no_diffraction_scan, outgoing_amplitudes, ray_kinematics, scan_points
from pointfam.errors import ConstraintViolation, InputError, NonFiniteResult, NonPositiveMass
from pointfam.many_body import mcguire_reference, nbody_bound_states
from pointfam.scattering import amplitudes
from pointfam.verify import (
    boundary_residual_nbody,
    interior_residual,
    random_params,
    scattering_matching_oracle,
)


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


_PAIR = random_params(np.random.default_rng(3), 2)


@pytest.mark.parametrize("call, shapes", [
    (lambda: validate_params(np.ones(2), 0.0, np.ones(3), 0.0, 0.0, 1.0), "alpha (2,), beta (), gamma (3,)"),
    (lambda: amplitudes(_PAIR, np.ones(3)), "mass (2,), k (3,)"),
    (lambda: scattering_matching_oracle(_PAIR, np.ones(3), "minus"), "mass (2,), k (3,)"),
    (lambda: outgoing_amplitudes(_PAIR, ray_kinematics(np.ones(3), 0.5)), "mass (2,), k (3,)"),
    (lambda: ray_kinematics(np.ones(2), np.full(3, 0.5)), "k (2,), phi (3,)"),
], ids=["validate-params", "amplitudes", "matching-oracle", "outgoing-amplitudes", "ray-kinematics"])
def test_shapes_that_do_not_broadcast_are_refused(call, shapes):
    with pytest.raises(InputError, match=re.escape("shapes do not broadcast together: ") + ".*" + re.escape(shapes)):
        call()


def test_count_rule():
    assert validate_count("k", 1, 1) == 1 and validate_count("k", SIZE_CAP, 1) == SIZE_CAP
    assert type(validate_count("k", np.uint8(7), 0, 7)) is int
    assert validate_count("k", 10**400, 2, None) == 10**400
    with pytest.raises(InputError, match="^k must be an integer of at least 1 and at most 7, got 8$"):
        validate_count("k", 8, 1, 7)
    with pytest.raises(InputError, match="^k must be an integer of at least 2, got 1$"):
        validate_count("k", 1, 2, None)


_P = canonical_interaction("delta", -2.0, 0.5)
_TRIMER = nbody_bound_states(_P, 3)[0]

# Every count the rule guards: (argument, call taking the count, least value, greatest or None).
_COUNTS = {
    "nbody_bound_states-n": ("n", lambda c: nbody_bound_states(_P, c), 2, None),
    "mcguire_reference-n": ("n", lambda c: mcguire_reference(-1.0, 1.0, c), 2, None),
    "scan_points-samples": ("samples", scan_points, 1, SIZE_CAP),
    "no_diffraction_scan-samples": ("samples", lambda c: no_diffraction_scan(_P, c), 1, SIZE_CAP),
    "boundary_residual_nbody-i": ("i", lambda c: boundary_residual_nbody(_P, _TRIMER, c, 2), 1, 3),
    "boundary_residual_nbody-j": ("j", lambda c: boundary_residual_nbody(_P, _TRIMER, 1, c), 1, 3),
    "interior_residual-points": ("points", lambda c: interior_residual(_P, _TRIMER, points=c), 1, SIZE_CAP),
    "interior_residual-seed": ("seed", lambda c: interior_residual(_P, _TRIMER, 5, seed=c), 0, None),
    "random_params-draws": ("draws", lambda c: random_params(np.random.default_rng(5), c), 1, SIZE_CAP),
}


def _bad_counts(name, low, high):
    """The values a count of least value low and greatest value high (None: no end) must refuse."""
    yield from (2.5, True, "3")
    if name != "draws":  # draws None asks for one float set
        yield None
    integers = (0, -1, low - 1) + (() if high is None else (10**400, SIZE_CAP + 1))
    yield from dict.fromkeys(v for v in integers if v < low or high is not None and v > high)


@pytest.mark.parametrize("use, value", [
    pytest.param(use, value, id=f"{use}-{'10**400' if value == 10**400 else repr(value)}")
    for use, (name, _, low, high) in _COUNTS.items() for value in _bad_counts(name, low, high)
])
def test_every_count_goes_through_the_rule(use, value):
    name, call, low, high = _COUNTS[use]
    cap = "" if high is None else f" and at most {high}"
    message = f"^{name} must be an integer of at least {low}{cap}, got {re.escape(repr(value))}$"
    with pytest.raises(InputError, match=message):
        call(value)


@pytest.mark.parametrize("use", _COUNTS)
def test_a_numpy_integer_count_acts_as_an_int(use):
    _, call, _, _ = _COUNTS[use]
    # pickle also tells a result that holds an np.int64 from one that holds an int.
    assert pickle.dumps(call(np.int64(3))) == pickle.dumps(call(3))


def test_uncapped_counts_take_a_huge_integer():
    # An N too large for a float ends in an infinite energy, not in the count rule.
    with pytest.raises(NonFiniteResult, match="^energy is -inf"):
        nbody_bound_states(_P, 10**400)
    with pytest.raises(NonFiniteResult, match="^energy is -inf"):
        mcguire_reference(-1.0, 1.0, 10**400)
    assert interior_residual(_P, _TRIMER, 5, seed=10**400).passed


def test_validate_rejects_constraint_violation():
    with pytest.raises(ConstraintViolation):
        validate_params(-1.0, 2.0, -1.0, 0.1, 0.0, 1.0)
    # values are stored as given, never renormalized
    p = validate_params(-2.0, 3.0, -2.0, 1.0, 0.0, 0.5)
    assert p.beta == 3.0


@pytest.mark.parametrize("delta, det", [(1.0, "inf"), (1.7e308, "nan")])
def test_an_overflowing_determinant_is_refused_without_a_warning(delta, det):
    # RuntimeWarnings are errors under the test configuration.
    message = rf"^alpha\*gamma - beta\*delta = {det}, must equal 1 within 1e-12$"
    with pytest.raises(ConstraintViolation, match=message):
        validate_params(1.7e308, 1.7e308, 1.7e308, delta, 0.0, 1.0)


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
