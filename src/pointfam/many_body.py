"""Exact bound states of N equal-mass particles with a common point interaction.

Between coincidence hyperplanes the wavefunction is a single exponential
in the summed pair distances; crossing a hyperplane multiplies the
coefficient by the jump ratio eta or its inverse. The coefficients end up
two-valued: 1 on even orderings of the particles and 1/eta on odd ones,
whichever path is taken. The decay constant is the same kappa as in the
two-body problem and the energy scales as N(N^2-1).

For three particles the coincidence hyperplanes cut the relative plane
into six wedges, one per ordering; neighbouring wedges have orderings of
opposite parity, so the coefficient alternates around the triple point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import InteractionParams
from .errors import InputError, NonBinding, NonFiniteResult, NonPositiveMass, OnBoundary
from .one_body import bound_spectrum

SQRT2 = math.sqrt(2.0)

COINCIDENCE_TOL = 1e-14

# Largest N for which a state is constructed.
N_CAP = 8


def _check_apart(coords, where: str = "") -> None:
    """Raise OnBoundary naming the first pair closer than COINCIDENCE_TOL."""
    for i, j in combinations(range(len(coords)), 2):
        if abs(coords[i] - coords[j]) < COINCIDENCE_TOL:
            raise OnBoundary(
                f"{where}coordinates {i + 1} and {j + 1} coincide within {COINCIDENCE_TOL}"
            )


@dataclass(frozen=True)
class NBodyBoundState:
    """An exact N-body bound level.

    The coefficient over a configuration depends only on its parity:
    c_even on even orderings (gauged to 1) and c_odd = 1/eta on odd ones.
    """

    n: int
    kappa: float
    energy: float
    eta: complex
    c_even: complex
    c_odd: complex
    branch: str


def nbody_energy(kappa: float, mass: float, n: int) -> float:
    """Bound-state energy -kappa^2 * N(N^2-1) / (12 m)."""
    return -kappa * kappa * n * (n * n - 1) / (12.0 * mass)


def nbody_bound_states(params: InteractionParams, n: int) -> list[NBodyBoundState]:
    """All N-body bound states, lowest energy first.

    Each two-body decay constant lifts to an N-body state with the same
    kappa and the parity-ruled coefficient pair. Level ordering follows
    energy; no level crossing is assumed when parameters vary. Raises
    NonFiniteResult when a kappa, energy or eta overflows.
    """
    if n < 2:
        raise InputError("n must be at least 2")
    if n > N_CAP:
        raise InputError(f"n = {n} exceeds the configured cap {N_CAP}")
    states = []
    for st in bound_spectrum(params):
        energy = nbody_energy(st.kappa, params.mass, n)
        NonFiniteResult.check(energy=energy)
        states.append(NBodyBoundState(n, st.kappa, energy, st.eta, 1.0 + 0.0j, 1.0 / st.eta, st.branch))
    return states


def eval_nbody_wavefunction(state: NBodyBoundState, coords):
    """Unnormalized wavefunction value at the given particle coordinates.

    coords is one point of N coordinates, which gives a complex, or a
    (P, N) array of points, which gives a complex array of length P.
    The exponent is -kappa times the sum of all scaled pair distances
    |x_i - x_j|/sqrt(2), which is totally symmetric; only the coefficient
    distinguishes configurations: c_odd where an odd number of pairs
    i < j have x_j > x_i, else c_even. Each pass over a pair adds that
    pair's distance to every point in the same order as a scalar loop,
    so sums and values are bit-identical to evaluating point by point.
    A point with two coordinates closer than COINCIDENCE_TOL lies on a
    coincidence boundary, where the coefficient is undefined: it raises
    OnBoundary naming the pair (and, for an array, the row).
    """
    points = np.asarray(coords, dtype=float)
    single = points.ndim <= 1
    if single:
        points = points.reshape(1, -1)
    if points.ndim != 2 or points.shape[1] != state.n:
        raise InputError(f"expected {state.n} coordinates, got {points.shape[-1]}")
    total = np.zeros(len(points))
    odd = np.zeros(len(points), dtype=bool)
    close = np.zeros(len(points), dtype=bool)
    for i, j in combinations(range(state.n), 2):
        diff = points[:, i] - points[:, j]
        distance = np.abs(diff)
        total += distance
        odd ^= diff < 0.0
        close |= distance < COINCIDENCE_TOL
    if close.any():
        row = int(np.flatnonzero(close)[0])
        _check_apart(points[row].tolist(), "" if single else f"row {row + 1}: ")
    exponents = (-state.kappa * total / SQRT2).tolist()
    # math.exp per point keeps the point-by-point values; np.exp differs from it
    # in the last ulp for some inputs.
    values = [
        (state.c_odd if o else state.c_even) * math.exp(e)
        for o, e in zip(odd.tolist(), exponents)
    ]
    return values[0] if single else np.array(values, dtype=complex)


def symmetry_class(state: NBodyBoundState) -> str:
    """"symmetric" when eta = 1, "antisymmetric" when eta = -1, else "none"."""
    if abs(state.eta - 1.0) <= 1e-12:
        return "symmetric"
    if abs(state.eta + 1.0) <= 1e-12:
        return "antisymmetric"
    return "none"


# The contact interaction between a particle pair has bare strength g0 in
# the inter-particle distance; the scaled pair coordinate absorbs one
# factor of sqrt(2), so the effective one-body coupling is g = g0/sqrt(2).


def coupling_from_pair_strength(g0: float) -> float:
    """Effective one-body coupling g = g0/sqrt(2) of a bare pair strength g0."""
    return g0 / SQRT2


def mcguire_reference(g0: float, mass: float, n: int) -> tuple[float, float]:
    """Reference (kappa, energy) for the attractive contact potential.

    g0 < 0 is the bare pair strength; kappa = -g0*m/sqrt(2) and the N-body
    energy is -g0^2 * m * N(N^2-1) / 24. Raises NonPositiveMass for
    mass <= 0 and NonFiniteResult when kappa or the energy overflows.
    """
    if n < 2:
        raise InputError("n must be at least 2")
    if g0 >= 0.0:
        raise NonBinding(f"pair strength must be negative to bind, got {g0!r}")
    if not mass > 0.0:
        raise NonPositiveMass(f"mass must be positive, got {mass!r}")
    kappa = -g0 * mass / SQRT2
    try:
        energy = -g0 * g0 * mass * n * (n * n - 1) / 24.0
    except OverflowError:  # an int N too large to become a float
        energy = -math.inf
    NonFiniteResult.check(kappa=kappa, energy=energy)
    return kappa, energy
