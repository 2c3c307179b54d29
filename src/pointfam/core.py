"""Parameters and boundary condition of a penetrable point interaction.

A point interaction at the origin is specified by four real constants
(alpha, beta, gamma, delta) subject to alpha*gamma - beta*delta = 1, an
overall phase angle theta, and the particle mass (units with hbar = 1).
The interaction acts through a 2x2 boundary matrix that links the column
(psi', 2*m*psi) on the right of the origin to the same column on the left.

All observable quantities are independent of theta; the wavefunction
itself carries the phase exp(i*theta). Both sign conventions for a real
phase are reachable through the theta field. Array fields make a batch
of members, one per entry; a float set is a batch of one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation, InputError, NonPositiveMass

# Absolute tolerance on the determinant constraint. Parameters are stored
# exactly as given, never projected back onto the constraint surface.
CONSTRAINT_TOL = 1e-12

PARAM_FIELDS = ("alpha", "beta", "gamma", "delta", "theta", "mass")

# Largest count a caller may ask for: the samples of a scan, the points or
# draws of a check, and the values of one CLI range, phase-diagram grid or
# points file. Larger requests are refused before anything is allocated: a
# million scatter rows are already ~0.2 GB of CSV.
SIZE_CAP = 1_000_000


@dataclass(frozen=True)
class InteractionParams:
    """One member of the four-parameter family, plus phase angle and mass; array fields make a batch."""

    alpha: float | np.ndarray
    beta: float | np.ndarray
    gamma: float | np.ndarray
    delta: float | np.ndarray
    theta: float | np.ndarray
    mass: float | np.ndarray

    @property
    def phase(self) -> complex | np.ndarray:
        """exp(i*theta), the overall phase of the boundary matrix: complex, or an array for array theta."""
        ph = np.exp(1j * np.asarray(self.theta))
        return complex(ph) if ph.ndim == 0 else ph

    def to_dict(self) -> dict:
        """Plain dict of the fields with the JSON field names consumed by the CLI; array fields are not copied."""
        return {name: getattr(self, name) for name in PARAM_FIELDS}


def require_finite(**values) -> None:
    """Raise InputError naming the first keyword value, or entry of an array value, that is NaN or infinite."""
    for name, value in values.items():
        bad = np.extract(~np.isfinite(value), value)
        if bad.size:
            raise InputError(f"{name} must be finite, got {float(bad[0])!r}")


def broadcast_shape(**values) -> tuple[int, ...]:
    """The shape the keyword values broadcast to, or InputError naming the shape of each."""
    try:
        return np.broadcast(*values.values()).shape
    except ValueError:
        shapes = ", ".join(f"{name} {np.shape(value)}" for name, value in values.items())
        raise InputError(f"shapes do not broadcast together: {shapes}") from None


def validate_count(name: str, value, low: int, high: int | None = SIZE_CAP) -> int:
    """value as an int if it is an int or numpy integer, not a bool, of low..high, else InputError naming it.

    high None sets no upper end.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if low <= value and (high is None or value <= high):
            return int(value)
    cap = "" if high is None else f" and at most {high}"
    raise InputError(f"{name} must be an integer of at least {low}{cap}, got {value!r}")


def validate_params(alpha, beta, gamma, delta, theta, mass) -> InteractionParams:
    """Check the inputs and return them packaged, or raise.

    Floats give float fields; arrays broadcast together into array fields.
    Raises InputError when the shapes do not broadcast or any value is NaN
    or infinite, ConstraintViolation when alpha*gamma - beta*delta strays
    from 1 by more than CONSTRAINT_TOL, and NonPositiveMass when mass <= 0,
    each naming the first offending entry. The values are never adjusted.
    """
    fields = (alpha, beta, gamma, delta, theta, mass)
    broadcast_shape(**dict(zip(PARAM_FIELDS, fields)))
    table = np.array(np.broadcast_arrays(*fields), dtype=float)
    if not np.isfinite(table).all():  # one check, then field by field only to name the failure
        require_finite(**dict(zip(PARAM_FIELDS, table)))
    a, b, g, d, _, m = table
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN determinant is refused below
        det = a * g - b * d
    bad = ~(np.abs(det - 1.0) <= CONSTRAINT_TOL)
    if bad.any():
        raise ConstraintViolation(
            f"alpha*gamma - beta*delta = {np.extract(bad, det)[0].item()!r}, "
            f"must equal 1 within {CONSTRAINT_TOL}"
        )
    bad = ~(m > 0.0)
    if bad.any():
        raise NonPositiveMass(f"mass must be positive, got {np.extract(bad, m)[0].item()!r}")
    return InteractionParams(*(table.tolist() if m.ndim == 0 else table))


def validate_wavenumber(k: float | np.ndarray) -> float | np.ndarray:
    """k as a float or float array, or InputError naming the first entry that is not finite and positive."""
    k = np.asarray(k, dtype=float)[()]
    ok = (k > 0.0) & np.isfinite(k)
    if not ok.all():
        raise InputError(f"wavenumber must be finite and positive, got {float(np.extract(~ok, k)[0])!r}")
    return k


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
    theta = np.pi
    if kind == "delta":
        return validate_params(-1.0, -strength, -1.0, 0.0, theta, mass)
    if kind == "delta_prime":
        return validate_params(-1.0, 0.0, -1.0, -strength, theta, mass)
    if kind == "anti_delta":
        return validate_params(1.0, strength, 1.0, 0.0, theta, mass)
    raise InputError(f"unknown interaction kind {kind!r}")


def boundary_matrix(params: InteractionParams) -> np.ndarray:
    """The phase times [[alpha, beta], [delta, gamma]], a read-only (2, 2) array."""
    entries = params.phase * np.array([[params.alpha, params.beta], [params.delta, params.gamma]])
    entries.setflags(write=False)
    return entries


def params_from_dict(data: dict) -> InteractionParams:
    """Parse and validate the CLI JSON object {alpha, beta, gamma, delta, theta, mass} of JSON numbers."""
    if not isinstance(data, dict):
        raise InputError("parameter JSON must be an object")
    missing = [k for k in PARAM_FIELDS if k not in data]
    if missing:
        raise InputError(f"parameter JSON missing fields: {', '.join(missing)}")
    values = {}
    for key in PARAM_FIELDS:
        value = data[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):  # float() would take "1_0" or true
            raise InputError(f"parameter field {key!r} is not a number")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise InputError(f"parameter field {key!r} is too large for a float")
        values[key] = float(value)
    return validate_params(**values)
