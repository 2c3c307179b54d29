"""Transmission and reflection amplitudes of a point interaction.

The plus/minus suffixes label the direction of incidence: minus for a wave
coming in from the left, plus for a wave coming in from the right. Only
the transmission amplitudes carry the phase exp(-+i*theta); reflection is
theta-free. The determinant constraint makes |t|^2 + |r|^2 = 1 exact for
either direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InteractionParams, broadcast_shape, validate_wavenumber
from .errors import SingularDenominator

DENOMINATOR_MIN = 1e-300


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Amplitudes for both incidence directions, in the broadcast shape of k and the parameter fields."""

    t_plus: complex | np.ndarray
    t_minus: complex | np.ndarray
    r_plus: complex | np.ndarray
    r_minus: complex | np.ndarray


def amplitudes(params: InteractionParams, k: float | np.ndarray) -> ScatteringAmplitudes:
    """Closed-form amplitudes at a wavenumber k > 0, or at each entry of an array k.

    The parameter fields may be arrays that broadcast with k. Raises
    InputError if any k is not finite and positive or the shapes do not
    broadcast, and SingularDenominator if the common denominator vanishes
    anywhere, which cannot happen for a valid parameter set and real
    positive k. Where
    d*k*k overflows the amplitudes are NaN, with no warning.
    """
    k = validate_wavenumber(k)
    broadcast_shape(**vars(params), k=k)
    a, b, g, d, m = params.alpha, params.beta, params.gamma, params.delta, params.mass
    with np.errstate(all="ignore"):
        den = d * k * k + 2j * k * m * (a + g) - 4.0 * b * m * m
        small = np.abs(den) < DENOMINATOR_MIN
        if small.any():
            at = np.extract(small, np.broadcast_to(k, np.shape(den)))[0]
            raise SingularDenominator(f"denominator vanished at k = {float(at)!r}")
        ph = params.phase
        t_common = 4j * k * m / den
        cross = 2j * k * m * (a - g)
        r_num = d * k * k + 4.0 * b * m * m
        return ScatteringAmplitudes(
            t_plus=t_common / ph,
            t_minus=t_common * ph,
            r_plus=(r_num - cross) / den,
            r_minus=(r_num + cross) / den,
        )


def unitarity_defect(amps: ScatteringAmplitudes) -> float | np.ndarray:
    """Largest deviation of |t|^2 + |r|^2 from 1 over the two directions, per k."""

    def norm2(z):  # np.hypot rounds like abs() of a Python complex; np.abs may not
        return np.hypot(z.real, z.imag) ** 2

    plus = norm2(amps.t_plus) + norm2(amps.r_plus) - 1.0
    minus = norm2(amps.t_minus) + norm2(amps.r_minus) - 1.0
    return np.maximum(np.abs(plus), np.abs(minus))
