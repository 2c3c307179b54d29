"""Exact bound states of N equal-mass particles with a common point interaction.

Between coincidence hyperplanes the wavefunction is a single exponential
in the summed pair distances; crossing a hyperplane multiplies the
coefficient by the jump ratio eta or its inverse. The coefficients end up
two-valued: 1 on even orderings of the particles and 1/eta on odd ones,
whichever path is taken. The decay constant is the same kappa as in the
two-body problem and the energy scales as N(N^2-1).

For three particles the coincidence hyperplanes cut the relative plane
into six wedges; these are labelled 1..6 by the sign pattern of the three
cyclically oriented pair coordinates x12, x23, x31 (region 1 is (+,+,-)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .core import InteractionParams
from .errors import InputError, NonBinding, OnBoundary
from .one_body import bound_spectrum

SQRT2 = math.sqrt(2.0)

COINCIDENCE_TOL = 1e-14

# Largest N for which a state is constructed by default; the explicit
# coefficient table is only materialized up to N = 6.
N_CAP = 8
TABLE_CAP = 6

# Region label keyed by (sign x12, sign x23, sign x31); (+,+,+) and
# (-,-,-) are geometrically impossible.
_REGION_BY_SIGNS = {
    (1, 1, -1): 1,
    (-1, 1, -1): 2,
    (-1, 1, 1): 3,
    (-1, -1, 1): 4,
    (1, -1, 1): 5,
    (1, -1, -1): 6,
}


@dataclass(frozen=True)
class JacobiCoords:
    """Scaled pair coordinate x, transverse coordinate y, and CM-proportional z."""

    x: float
    y: float
    z: float


def jacobi_transform(x1: float, x2: float, x3: float) -> JacobiCoords:
    """Orthogonal map from three particle coordinates to Jacobi coordinates."""
    x = (x1 - x2) / SQRT2
    y = math.sqrt(2.0 / 3.0) * (0.5 * (x1 + x2) - x3)
    z = (x1 + x2 + x3) / math.sqrt(3.0)
    return JacobiCoords(x, y, z)


def cartesian_from_jacobi(coords: JacobiCoords) -> tuple[float, float, float]:
    """Inverse of jacobi_transform (the transpose of the orthogonal map)."""
    r2, r6, r3 = 1.0 / SQRT2, 1.0 / math.sqrt(6.0), 1.0 / math.sqrt(3.0)
    x, y, z = coords.x, coords.y, coords.z
    x1 = r2 * x + r6 * y + r3 * z
    x2 = -r2 * x + r6 * y + r3 * z
    x3 = -2.0 * r6 * y + r3 * z
    return (x1, x2, x3)


def _parity_of(ordering: tuple[int, ...]) -> str:
    inversions = 0
    for i, j in combinations(range(len(ordering)), 2):
        if ordering[i] > ordering[j]:
            inversions += 1
    return "even" if inversions % 2 == 0 else "odd"


@dataclass(frozen=True)
class Configuration:
    """A linear ordering of the particles, highest coordinate first."""

    ordering: tuple[int, ...]
    parity: str  # "even" or "odd"
    region: int | None = None  # 1..6 for three particles, else None

    @property
    def sign(self) -> int:
        return 1 if self.parity == "even" else -1


def _check_apart(coords, where: str = "") -> None:
    """Raise OnBoundary naming the first pair closer than COINCIDENCE_TOL."""
    for i, j in combinations(range(len(coords)), 2):
        if abs(coords[i] - coords[j]) < COINCIDENCE_TOL:
            raise OnBoundary(
                f"{where}coordinates {i + 1} and {j + 1} coincide within {COINCIDENCE_TOL}"
            )


def configuration_of(coords: list[float] | tuple[float, ...]) -> Configuration:
    """Classify a coordinate tuple into its ordering, parity, and (N=3) region.

    Raises OnBoundary when two coordinates are closer than COINCIDENCE_TOL,
    where the ordering is undefined.
    """
    n = len(coords)
    if n < 2:
        raise InputError("need at least two coordinates")
    _check_apart(coords)
    ordering = tuple(
        sorted(range(1, n + 1), key=lambda p: coords[p - 1], reverse=True)
    )
    region = None
    if n == 3:
        signs = (
            1 if coords[0] > coords[1] else -1,
            1 if coords[1] > coords[2] else -1,
            1 if coords[2] > coords[0] else -1,
        )
        region = _REGION_BY_SIGNS[signs]
    return Configuration(ordering=ordering, parity=_parity_of(ordering), region=region)


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

    def coefficient(self, config: Configuration) -> complex:
        return self.c_even if config.parity == "even" else self.c_odd

    @property
    def coefficients(self) -> dict[Configuration, complex]:
        """Explicit table over all N! configurations (N <= 6 only)."""
        if self.n > TABLE_CAP:
            raise InputError(
                f"coefficient table is only materialized for n <= {TABLE_CAP}"
            )
        table = {}
        for perm in permutations(range(1, self.n + 1)):
            region = None
            if self.n == 3:
                # Representative descending coordinates recover the region label.
                coords = [0.0] * 3
                for rank, particle in enumerate(perm):
                    coords[particle - 1] = float(self.n - rank)
                region = configuration_of(coords).region
            config = Configuration(perm, _parity_of(perm), region)
            table[config] = self.coefficient(config)
        return table


def nbody_energy(kappa: float, mass: float, n: int) -> float:
    """Bound-state energy -kappa^2 * N(N^2-1) / (12 m)."""
    return -kappa * kappa * n * (n * n - 1) / (12.0 * mass)


def nbody_bound_states(
    params: InteractionParams, n: int, n_cap: int = N_CAP
) -> list[NBodyBoundState]:
    """All N-body bound states, lowest energy first.

    Each two-body decay constant lifts to an N-body state with the same
    kappa and the parity-ruled coefficient pair. Level ordering follows
    energy; no level crossing is assumed when parameters vary.
    """
    if n < 2:
        raise InputError("n must be at least 2")
    if n > n_cap:
        raise InputError(f"n = {n} exceeds the configured cap {n_cap}")
    states = []
    for st in bound_spectrum(params):
        states.append(
            NBodyBoundState(
                n=n,
                kappa=st.kappa,
                energy=nbody_energy(st.kappa, params.mass, n),
                eta=st.eta,
                c_even=1.0 + 0.0j,
                c_odd=1.0 / st.eta,
                branch=st.branch,
            )
        )
    states.sort(key=lambda s: s.energy)
    return states


def eval_nbody_wavefunction(
    state: NBodyBoundState,
    coords,
    configuration: Configuration | None = None,
):
    """Unnormalized wavefunction value at the given particle coordinates.

    coords is one point of N coordinates, which gives a complex, or a
    (P, N) array of points, which gives a complex array of length P.
    The exponent is -kappa times the sum of all scaled pair distances
    |x_i - x_j|/sqrt(2), which is totally symmetric; only the coefficient
    distinguishes configurations: c_odd where an odd number of pairs
    i < j have x_j > x_i, else c_even. Each pass over a pair adds that
    pair's distance to every point in the same order as a scalar loop,
    so sums and values are bit-identical to evaluating point by point.
    On a coincidence boundary the caller must pass the configuration of
    the intended side; a configuration given applies to every point.
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
    if configuration is not None:
        odd[:] = configuration.parity == "odd"
    elif close.any():
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


def pair_strength_from_mcguire(g_mg: float) -> float:
    """Bare pair strength for McGuire's coupling convention (stated with m = 1)."""
    return -g_mg / SQRT2


def pair_strength_from_cd(g_cd: float) -> float:
    """Bare pair strength for the m = 1/2 coupling convention."""
    return -g_cd


def mcguire_reference(g0: float, mass: float, n: int) -> tuple[float, float]:
    """Reference (kappa, energy) for the attractive contact potential.

    g0 < 0 is the bare pair strength; kappa = -g0*m/sqrt(2) and the N-body
    energy is -g0^2 * m * N(N^2-1) / 24.
    """
    if n < 2:
        raise InputError("n must be at least 2")
    if g0 >= 0.0:
        raise NonBinding(f"pair strength must be negative to bind, got {g0!r}")
    kappa = -g0 * mass / SQRT2
    energy = -g0 * g0 * mass * n * (n * n - 1) / 24.0
    return kappa, energy
