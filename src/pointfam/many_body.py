"""Exact bound states of N equal-mass particles with a common point interaction.

Between coincidence hyperplanes the wavefunction is a single exponential
in the summed pair distances; crossing a hyperplane multiplies the
coefficient by the jump ratio eta or its inverse. The coefficients end up
two-valued: 1 on even orderings of the particles and 1/eta on odd ones,
whichever path is taken. The decay constant is the same kappa as in the
two-body problem and the energy scales as N(N^2-1). The summed pair
distance is sum_k k(N-k) g_k over the N-1 gaps g_k between neighbours in
sorted order, whose terms are all >= 0, and the parity of an ordering is
that of its sorting permutation.

For three particles the coincidence hyperplanes cut the relative plane
into six wedges, one per ordering; neighbouring wedges have orderings of
opposite parity, so the coefficient alternates around the triple point.

Checked against the pair boundary condition on each hyperplane x_i = x_j
(verify.boundary_residual_nbody, u = (x_i - x_j)/sqrt(2)): when eta^2 = 1
these coefficients meet it for every pair in either orientation at any N
tried (2..6). When eta^2 != 1 they meet it at N = 3 only in the cyclic
orientation (1,2), (2,3), (3,1), and at N = 4 and 5 for no ordered pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InteractionParams, require_finite, validate_count
from .errors import InputError, NonBinding, NonFiniteResult, NonPositiveMass, OnBoundary
from .one_body import bound_spectrum

SQRT2 = math.sqrt(2.0)

COINCIDENCE_TOL = 1e-14


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
    """Bound-state energy -kappa^2 * N(N^2-1) / (12 m); -inf for an int N too large to become a float."""
    try:
        return -kappa * kappa * n * (n * n - 1) / (12.0 * mass)
    except OverflowError:
        return -math.inf


def nbody_bound_states(params: InteractionParams, n: int) -> list[NBodyBoundState]:
    """All N-body bound states, lowest energy first.

    Each two-body decay constant lifts to an N-body state with the same
    kappa and the parity-ruled coefficient pair. Level ordering follows
    energy; no level crossing is assumed when parameters vary. Raises
    InputError unless n is an integer of at least 2, and NonFiniteResult
    when a kappa, energy or eta overflows.
    """
    n = validate_count("n", n, 2, None)
    states = []
    for st in bound_spectrum(params):
        energy = nbody_energy(st.kappa, params.mass, n)
        NonFiniteResult.check(energy=energy)
        states.append(NBodyBoundState(n, st.kappa, energy, st.eta, 1.0 + 0.0j, 1.0 / st.eta, st.branch))
    return states


def _odd_permutations(order: np.ndarray) -> np.ndarray:
    """Parity of each row's permutation, counting the swaps that put each entry in place.

    The swaps run on (N, P) copies, one column per row, addressed by flat index.
    """
    count = len(order)
    perm, where = order.T.copy(), np.argsort(order, axis=1).T.copy()
    flat_perm, flat_where = perm.reshape(-1), where.reshape(-1)
    columns, odd = np.arange(count), np.zeros(count, dtype=bool)
    for k in range(len(perm) - 1):
        j, v = where[k], perm[k]  # where entry k sits, and what sits at k
        flat_perm[j * count + columns] = v
        flat_where[v * count + columns] = j
        odd ^= j != k
    return odd


def eval_nbody_wavefunction(state: NBodyBoundState, coords):
    """Unnormalized wavefunction value at the given particle coordinates.

    coords is one point of N coordinates, which gives a complex, or a
    (P, N) array of points, which gives a complex array of length P.
    The exponent is -kappa/sqrt(2) times the sum of all pair distances,
    summed as sum_k k(N-k) g_k over the gaps g_k between neighbours in
    sorted order, a gap at a time, so a batch equals point-by-point bit for
    bit. The coefficient is c_odd where an odd number of pairs i < j have
    x_j > x_i, that is where the sorting permutation's parity differs from
    that of N(N-1)/2, else c_even. A NaN or infinite coordinate raises
    InputError naming it. A gap below COINCIDENCE_TOL is a coincidence
    boundary, where the coefficient is undefined: it raises OnBoundary
    naming the pair (and, for an array, the row).
    """
    points = np.asarray(coords, dtype=float)
    single = points.ndim <= 1
    points = np.atleast_2d(points)
    n = state.n
    if points.ndim != 2 or points.shape[1] != n:
        got = points.shape[1] if points.ndim == 2 else f"shape {points.shape}"
        raise InputError(f"expected {n} coordinates, got {got}")
    require_finite(coordinates=points)
    order = np.argsort(points, axis=1)
    with np.errstate(over="ignore"):  # a sum past the float range is inf; psi underflowed to 0 long before
        gaps = np.diff(np.take_along_axis(points, order, axis=1), axis=1)
        total = sum(k * (n - k) * gaps[:, k - 1] for k in range(1, n))
    close = gaps < COINCIDENCE_TOL
    if close.any():
        row, k = np.argwhere(close)[0].tolist()
        i, j = sorted(order[row, k:k + 2].tolist())
        raise OnBoundary(f"coordinates {i + 1} and {j + 1} coincide within {COINCIDENCE_TOL}", None if single else row)
    odd = _odd_permutations(order) ^ bool(n * (n - 1) // 2 % 2)
    exponents = (-state.kappa * total / SQRT2).tolist()
    # math.exp per point keeps the point-by-point values; np.exp differs from it
    # in the last ulp for some inputs.
    values = [(state.c_odd if o else state.c_even) * math.exp(e) for o, e in zip(odd.tolist(), exponents)]
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
    energy is -g0^2 * m * N(N^2-1) / 24. Raises InputError for a NaN or
    infinite g0 or mass or an n that is not an integer of at least 2,
    NonPositiveMass for mass <= 0 and NonFiniteResult when kappa or the
    energy overflows.
    """
    n = validate_count("n", n, 2, None)
    require_finite(g0=g0, mass=mass)
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
