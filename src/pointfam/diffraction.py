"""Three-body ray kinematics and the no-diffraction test.

A plane wave incident in one wedge of the three-body relative plane
reaches the outgoing wedge along two distinct ray geometries of equal
path length: one that hits the x12 line first (two contributing paths)
and one that hits the x31 line first (a single path). When the two
amplitude products coincide for every wavenumber and incidence angle,
the exact scattering construction goes through; this happens exactly for
alpha = gamma, delta = 0, and a real phase, which pins the interaction
to the contact potential or its sign-reversed twin.

The two published statements of the two-path geometry disagree in one
incidence suffix of the middle reflection; both variants are available
through the middle_reflection flag. For every diffraction-free parameter
set the reflection amplitudes of the two directions coincide, so the
choice never affects a verdict, only the residual magnitude of generic
parameter sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InteractionParams, broadcast_shape, validate_count, validate_wavenumber
from .errors import GrazingAngle, InputError, InvariantViolation
from .scattering import amplitudes

PHI_MAX = math.pi / 3.0

# Scan verdict threshold: diffraction-free families sit at round-off,
# violations show up many orders of magnitude above this.
NO_DIFFRACTION_TOL = 1e-10

# Corners (k, phi) of the scan box; the margins keep rays away from
# grazing incidence where k_i -> 0.
_SCAN_LO = np.array([1e-3, 0.01])
_SCAN_HI = np.array([10.0, PHI_MAX - 0.01])


@dataclass(frozen=True)
class RayKinematics:
    """Wavenumber k, incidence angle phi and the normal wavenumbers derived from them, or arrays of them."""

    k: float | np.ndarray
    phi: float | np.ndarray
    k1: float | np.ndarray
    k2: float | np.ndarray
    k3: float | np.ndarray


@dataclass(frozen=True)
class DiffractionReport:
    """Outgoing amplitudes of the two equal-length ray geometries."""

    amp_two_path: complex | np.ndarray  # geometry hitting the x12 line first
    amp_one_path: complex | np.ndarray  # geometry hitting the x31 line first
    residual: complex | np.ndarray
    residual_norm: float | np.ndarray


def ray_kinematics(k: float | np.ndarray, phi: float | np.ndarray) -> RayKinematics:
    """Normal wavenumbers k_i = k sin(phi_i), phi_1 = phi, phi_2 = phi + pi/3, phi_3 = pi/3 - phi.

    k and phi are floats or arrays that broadcast together, else
    InputError. Every k must be finite and positive, and every phi must lie
    strictly inside (0, pi/3) so that every k_i is positive. The
    construction forces k1 + k3 = k2 identically; a violation raises
    InvariantViolation.
    """
    k = validate_wavenumber(k)
    phi = np.asarray(phi, dtype=float)[()]
    broadcast_shape(k=k, phi=phi)
    ok = (0.0 < phi) & (phi < PHI_MAX)
    if not ok.all():
        bad = float(np.extract(~ok, phi)[0])
        raise GrazingAngle(f"phi = {bad!r} is outside the open interval (0, pi/3)")
    phi2 = phi + PHI_MAX
    phi3 = -phi + PHI_MAX
    k1 = k * np.sin(phi)
    k2 = k * np.sin(phi2)
    k3 = k * np.sin(phi3)
    if not (np.abs(k1 + k3 - k2) <= 1e-12 * np.maximum(1.0, k)).all():
        raise InvariantViolation("normal wavenumbers break k1 + k3 = k2")
    return RayKinematics(k, phi, k1, k2, k3)


def outgoing_amplitudes(
    params: InteractionParams,
    kin: RayKinematics,
    middle_reflection: str = "minus",
) -> DiffractionReport:
    """Amplitude products of the two ray geometries and their difference.

    The incident wave has unit amplitude. Writing t_i/r_i for the
    amplitudes at normal wavenumber k_i, the two-path geometry sums
    r1- r2- t3- with t1- r2(mr) r3+, where mr is the middle_reflection
    suffix; the one-path geometry contributes r3- t2+ r1+. Every field
    has the shape of the kinematics arrays.
    """
    if middle_reflection not in ("minus", "plus"):
        raise InputError(f"unknown middle_reflection {middle_reflection!r}")
    a1 = amplitudes(params, kin.k1)
    a2 = amplitudes(params, kin.k2)
    a3 = amplitudes(params, kin.k3)
    r2_mid = a2.r_minus if middle_reflection == "minus" else a2.r_plus
    two_path = a1.r_minus * a2.r_minus * a3.t_minus + a1.t_minus * r2_mid * a3.r_plus
    one_path = a3.r_minus * a2.t_plus * a1.r_plus
    residual = two_path - one_path
    return DiffractionReport(
        amp_two_path=two_path,
        amp_one_path=one_path,
        residual=residual,
        residual_norm=np.hypot(residual.real, residual.imag),
    )


def scan_points(samples: int) -> np.ndarray:
    """Deterministic low-discrepancy (k, phi) rows for residual scans, shape (samples, 2).

    The Halton sequence in bases 2 and 3 (Halton 1960) from index 1, which
    skips the degenerate (0, 0) point, mapped into the scan box. samples
    must be an integer of 1..SIZE_CAP.

    The radical inverses of 0..base^L - 1 are built a digit level at a
    time: level L adds digit * base^-L (the scale divided by base once per
    level) to every entry of the previous level, so each value is the sum
    of its digit terms from the lowest digit up, as a digit-by-digit loop
    over each index adds them. The last level builds only the leading
    digits that indices up to samples use.
    """
    samples = validate_count("samples", samples, 1)
    unit = np.empty((samples, 2))
    for column, base in enumerate((2, 3)):
        values, scale = np.zeros(1), 1.0
        while len(values) <= samples:
            scale /= base
            digits = min(base, -(-(samples + 1) // len(values)))
            values = (values + (np.arange(digits) * scale)[:, None]).ravel()
        unit[:, column] = values[1 : samples + 1]
    return _SCAN_LO + (_SCAN_HI - _SCAN_LO) * unit


def no_diffraction_scan(
    params: InteractionParams,
    samples: int,
    middle_reflection: str = "minus",
) -> tuple[float, bool] | tuple[list[float], list[bool]]:
    """Max residual over a quasi-random (k, phi) sweep and the verdict.

    The verdict is True when the maximum residual stays at or below
    NO_DIFFRACTION_TOL. Float fields give a float and a bool; fields of
    shape (S, 1) give S maxima and S verdicts, every set swept in one
    array pass, each equal to that of its set alone. Array fields whose
    last axis is not 1 raise InputError.
    """
    shape = broadcast_shape(**vars(params))
    if shape[-1:] not in ((), (1,)):
        raise InputError(f"no_diffraction_scan takes float fields or fields of shape (S, 1), got shape {shape}")
    points = scan_points(samples)
    kin = ray_kinematics(points[:, 0], points[:, 1])
    max_residual = outgoing_amplitudes(params, kin, middle_reflection).residual_norm.max(axis=-1)
    return max_residual.tolist(), (max_residual <= NO_DIFFRACTION_TOL).tolist()
