"""Parameters and boundary condition of a penetrable point interaction.

A point interaction at the origin is specified by four real constants
(alpha, beta, gamma, delta) subject to alpha*gamma - beta*delta = 1, an
overall phase angle theta, and the particle mass (units with hbar = 1).
The interaction acts through a 2x2 boundary matrix that links the column
(psi', 2*m*psi) on the right of the origin to the same column on the left.

All observable quantities are independent of theta; the wavefunction
itself carries the phase exp(i*theta). Both sign conventions for a real
phase are reachable through the theta field.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConstraintViolation, InputError, NonPositiveMass

# Absolute tolerance on the determinant constraint. Parameters are stored
# exactly as given, never projected back onto the constraint surface.
CONSTRAINT_TOL = 1e-12

PARAM_FIELDS = ("alpha", "beta", "gamma", "delta", "theta", "mass")


@dataclass(frozen=True)
class InteractionParams:
    """One member of the four-parameter family, plus phase angle and mass."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    theta: float
    mass: float

    @property
    def phase(self) -> complex:
        """exp(i*theta), the overall phase of the boundary matrix."""
        return cmath.exp(1j * self.theta)

    def to_dict(self) -> dict:
        """Plain dict with the JSON field names consumed by the CLI."""
        return asdict(self)


def validate_params(
    alpha: float,
    beta: float,
    gamma: float,
    delta: float,
    theta: float,
    mass: float,
) -> InteractionParams:
    """Check the inputs and return them packaged, or raise.

    Raises InputError when any value is NaN or infinite,
    ConstraintViolation when alpha*gamma - beta*delta strays from 1 by
    more than CONSTRAINT_TOL, and NonPositiveMass when mass <= 0. The
    values are never adjusted.
    """
    for name, value in zip(PARAM_FIELDS, (alpha, beta, gamma, delta, theta, mass)):
        if not math.isfinite(value):
            raise InputError(f"{name} must be finite, got {value!r}")
    defect = abs(alpha * gamma - beta * delta - 1.0)
    if not defect <= CONSTRAINT_TOL:
        raise ConstraintViolation(
            f"alpha*gamma - beta*delta = {alpha * gamma - beta * delta!r}, "
            f"must equal 1 within {CONSTRAINT_TOL}"
        )
    if not mass > 0.0:
        raise NonPositiveMass(f"mass must be positive, got {mass!r}")
    return InteractionParams(alpha, beta, gamma, delta, theta, mass)


def canonical_interaction(kind: str, strength: float, mass: float) -> InteractionParams:
    """One of the named special interactions, with phase fixed to exp(i*theta) = -1.

    kind "delta": the contact potential g*delta(x); alpha = gamma = -1,
    beta = -g, delta = 0.
    kind "delta_prime": continuous derivative, discontinuous wavefunction;
    alpha = gamma = -1, beta = 0, delta = -c. Despite the conventional
    name this is not the derivative of a delta function.
    kind "anti_delta": the sign-reversed contact potential, alpha = gamma = 1,
    beta = g, delta = 0. It differs from "delta" only through the phase
    convention, so the strength g plays the same role in both.
    """
    theta = math.pi
    if kind == "delta":
        return validate_params(-1.0, -strength, -1.0, 0.0, theta, mass)
    if kind == "delta_prime":
        return validate_params(-1.0, 0.0, -1.0, -strength, theta, mass)
    if kind == "anti_delta":
        return validate_params(1.0, strength, 1.0, 0.0, theta, mass)
    raise InputError(f"unknown interaction kind {kind!r}")


def boundary_matrix(params: InteractionParams) -> np.ndarray:
    """The phase times [[alpha, beta], [delta, gamma]], a read-only (2, 2) array."""
    ph = params.phase
    entries = np.array(
        [
            [ph * params.alpha, ph * params.beta],
            [ph * params.delta, ph * params.gamma],
        ],
        dtype=complex,
    )
    entries.setflags(write=False)
    return entries


def params_from_dict(data: dict) -> InteractionParams:
    """Parse and validate the CLI JSON object {alpha, beta, gamma, delta, theta, mass}."""
    if not isinstance(data, dict):
        raise InputError("parameter JSON must be an object")
    missing = [k for k in PARAM_FIELDS if k not in data]
    if missing:
        raise InputError(f"parameter JSON missing fields: {', '.join(missing)}")
    values = {}
    for key in PARAM_FIELDS:
        try:
            values[key] = float(data[key])
        except (TypeError, ValueError) as exc:
            raise InputError(f"parameter field {key!r} is not a number") from exc
    return validate_params(**values)
