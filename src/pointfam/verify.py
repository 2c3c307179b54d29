"""First-principles oracles for the closed forms in the rest of the package.

Every function here recomputes physics directly from the boundary
condition: decay constants by sign-change bracketing of the decay-rate
polynomial, scattering amplitudes by solving the plane-wave matching
system, and bound-state quality by residuals of the boundary condition
and of the kinetic eigenvalue problem. None of them call the closed-form
code paths they are meant to validate; the only package dependency is the
parameter/boundary-matrix layer. N-body states are consumed as read-only
data (kappa, energy, coefficient pair) and re-evaluated locally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import InteractionParams, boundary_matrix, validate_params
from .errors import SingularSystem

_SQRT2 = math.sqrt(2.0)
_KAPPA_MIN = 1e-12


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one residual check over a batch of sample points."""

    check_name: str
    max_residual: float
    samples: int
    passed: bool
    tolerance: float

    @classmethod
    def build(
        cls, check_name: str, max_residual: float, samples: int, tolerance: float
    ) -> "ResidualReport":
        max_residual = float(max_residual)
        return cls(
            check_name=check_name,
            max_residual=max_residual,
            samples=samples,
            passed=max_residual <= tolerance,
            tolerance=tolerance,
        )


def random_params(rng: np.random.Generator) -> InteractionParams:
    """Draw a random valid parameter set, exactly on the constraint surface.

    alpha, gamma, delta are uniform in [-3, 3], theta in [0, 2*pi), mass in
    [0.2, 2]. When |delta| > 0.1 beta is solved from the constraint; smaller
    draws are projected to the delta = 0 family with gamma = 1/alpha and a
    fresh uniform beta.
    """
    while True:
        alpha = rng.uniform(-3.0, 3.0)
        gamma = rng.uniform(-3.0, 3.0)
        delta = rng.uniform(-3.0, 3.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        mass = rng.uniform(0.2, 2.0)
        if abs(delta) > 0.1:
            beta = (alpha * gamma - 1.0) / delta
        else:
            if abs(alpha) < 0.2:
                continue
            delta = 0.0
            gamma = 1.0 / alpha
            beta = rng.uniform(-3.0, 3.0)
        return validate_params(alpha, beta, gamma, delta, theta, mass)


def oracle_bound_kappas(params: InteractionParams, grid_points: int = 4096) -> list[float]:
    """Positive decay constants found numerically, ascending.

    The quadratic decay-rate polynomial is scanned for sign changes on
    (KAPPA_MIN, k_max] and each bracket is polished with a root finder;
    the delta = 0 case reduces to a direct linear solve. k_max combines a
    coefficient-based bound with the Cauchy root bound so that no root can
    escape the scanned interval.
    """
    from scipy.optimize import brentq  # deferred, so importing pointfam never loads scipy

    a, g, d, m = params.alpha, params.gamma, params.delta, params.mass
    b = params.beta

    def poly(k: float | np.ndarray) -> float | np.ndarray:
        return d * k * k + 2.0 * (a + g) * k * m + 4.0 * b * m * m

    if d == 0.0:
        root = -2.0 * b * m / (a + g)
        return [root] if root > _KAPPA_MIN else []

    k_max = 2.0 * (1.0 + abs(a + g) * 2.0 * m + math.sqrt(4.0 * abs(b)) * 2.0 * m)
    k_max /= max(abs(d), 1e-30)
    cauchy = 1.0 + max(abs(2.0 * (a + g) * m), abs(4.0 * b * m * m)) / abs(d)
    k_max = max(k_max, cauchy)

    grid = np.linspace(_KAPPA_MIN, k_max, grid_points)
    values = poly(grid)
    roots = grid[values == 0.0].tolist()
    for i in np.flatnonzero(values[:-1] * values[1:] < 0.0):
        roots.append(float(brentq(poly, grid[i], grid[i + 1], xtol=1e-15)))
    deduped: list[float] = []
    for r in sorted(roots):
        if r > _KAPPA_MIN and (not deduped or r - deduped[-1] > 1e-9):
            deduped.append(r)
    return deduped


def scattering_matching_oracle(
    params: InteractionParams, k: float, incidence: str
) -> tuple[complex, complex]:
    """(t, r) from a direct plane-wave matching solve at wavenumber k > 0.

    incidence "minus" sends the unit wave in from the left, "plus" from
    the right. The boundary condition applied to the two-sided ansatz
    gives a 2x2 complex linear system in (t, r), solved as such.
    """
    if not k > 0.0:
        raise ValueError(f"wavenumber must be positive, got {k!r}")
    if incidence not in ("minus", "plus"):
        raise ValueError(f"incidence must be 'minus' or 'plus', got {incidence!r}")
    a, b, g, d, m = params.alpha, params.beta, params.gamma, params.delta, params.mass
    ph = params.phase
    ik = 1j * k
    if incidence == "minus":
        # x < 0: e^{ikx} + r e^{-ikx};  x > 0: t e^{ikx}
        system = np.array(
            [
                [ik, ph * (ik * a - 2.0 * m * b)],
                [2.0 * m, ph * (ik * d - 2.0 * m * g)],
            ],
            dtype=complex,
        )
        rhs = np.array(
            [ph * (ik * a + 2.0 * m * b), ph * (ik * d + 2.0 * m * g)], dtype=complex
        )
    else:
        # x > 0: e^{-ikx} + r e^{ikx};  x < 0: t e^{-ikx}
        system = np.array(
            [
                [ph * (ik * a - 2.0 * m * b), ik],
                [ph * (ik * d - 2.0 * m * g), 2.0 * m],
            ],
            dtype=complex,
        )
        rhs = np.array([ik, -2.0 * m], dtype=complex)
    det = system[0, 0] * system[1, 1] - system[0, 1] * system[1, 0]
    if abs(det) < 1e-300:
        raise SingularSystem(f"matching system singular at k = {k!r}")
    t, r = np.linalg.solve(system, rhs)
    return complex(t), complex(r)


def _local_parity_sign(ordering: tuple[int, ...]) -> int:
    inversions = 0
    for i, j in combinations(range(len(ordering)), 2):
        if ordering[i] > ordering[j]:
            inversions += 1
    return 1 if inversions % 2 == 0 else -1


def _eval_state_local(state, coords: np.ndarray) -> complex:
    """Wavefunction of an N-body state, rebuilt from its raw data fields."""
    order = tuple(int(p) + 1 for p in np.argsort(-coords, kind="stable"))
    coeff = state.c_even if _local_parity_sign(order) == 1 else state.c_odd
    total = 0.0
    n = len(coords)
    for i in range(n):
        for j in range(i + 1, n):
            total += abs(coords[i] - coords[j])
    return coeff * math.exp(-state.kappa * total / _SQRT2)


# Cyclically oriented normal coordinate per coincidence line: the first
# two entries name the coinciding pair (i, j) with u = (x_i - x_j)/sqrt(2),
# the third is the spectator.
_LINE_PARTICLES = {"x12": (1, 2, 3), "x23": (2, 3, 1), "x31": (3, 1, 2)}


def boundary_residual_3body(
    params: InteractionParams, state, line: str, samples: int
) -> ResidualReport:
    """Residual of the boundary condition along one coincidence line.

    At each sample point on the chosen line the one-sided limits of the
    wavefunction and its normal derivative are computed analytically from
    the exponential form, and the boundary matrix is applied to the column
    (psi', 2m psi) of the negative side. The reported residual is the
    worst component mismatch relative to the local column magnitude.
    Sample points keep a transverse distance of at least 0.5/kappa from
    the triple point, where the line analysis breaks down.
    """
    if line not in _LINE_PARTICLES:
        raise ValueError(f"line must be one of {sorted(_LINE_PARTICLES)}, got {line!r}")
    i, j, spect = _LINE_PARTICLES[line]
    kappa = state.kappa
    m2 = 2.0 * params.mass
    matrix = boundary_matrix(params).entries

    half = max(1, (samples + 1) // 2)
    magnitudes = np.linspace(0.5 / kappa, 8.0 / kappa, half)
    transverse = [v for mag in magnitudes for v in (mag, -mag)][:samples]

    worst = 0.0
    for v in transverse:
        coords = np.zeros(3)
        coords[spect - 1] = -math.sqrt(1.5) * v

        sides = {}
        for side in (1, -1):
            # Ordering on this side of the line: i above j for side = +1.
            def key(p: int, side: int = side) -> tuple[float, int]:
                tiebreak = 0
                if p == i:
                    tiebreak = -side
                elif p == j:
                    tiebreak = side
                return (-coords[p - 1], tiebreak)

            order = tuple(sorted((1, 2, 3), key=key))
            coeff = state.c_even if _local_parity_sign(order) == 1 else state.c_odd

            total = sum(
                abs(coords[a - 1] - coords[b - 1])
                for a, b in combinations((1, 2, 3), 2)
            )
            psi = coeff * math.exp(-kappa * total / _SQRT2)

            # One-sided derivative along the unit normal (e_i - e_j)/sqrt(2).
            disp = {i: 1.0 / _SQRT2, j: -1.0 / _SQRT2, spect: 0.0}
            slope = 0.0
            for a, b in combinations((1, 2, 3), 2):
                diff = coords[a - 1] - coords[b - 1]
                if {a, b} == {i, j}:
                    sign = float(side if a == i else -side)
                else:
                    sign = math.copysign(1.0, diff)
                slope += sign * (disp[a] - disp[b])
            psi_prime = -(kappa / _SQRT2) * slope * psi
            sides[side] = (psi_prime, psi)

        lhs = np.array([sides[1][0], m2 * sides[1][1]], dtype=complex)
        rhs = matrix @ np.array([sides[-1][0], m2 * sides[-1][1]], dtype=complex)
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
        resid = float(np.max(np.abs(lhs - rhs)) / scale)
        worst = max(worst, resid)
    return ResidualReport.build(f"boundary-condition {line}", worst, len(transverse), 1e-10)


def interior_residual(
    params: InteractionParams,
    state,
    points: int = 100,
    h: float | None = None,
    seed: int = 1234,
) -> ResidualReport:
    """Finite-difference check of the kinetic eigenvalue away from boundaries.

    A central second difference over every particle coordinate is applied
    to the locally re-evaluated wavefunction; the sum must reproduce the
    state's energy times the wavefunction. Sample configurations keep all
    pairwise separations at least 10*h so stencils never cross a
    coincidence hyperplane. The mass enters through the kinetic prefactor
    and must come from the interaction, not from the state under test.
    """
    n = state.n
    kappa = state.kappa
    if h is None:
        h = 1e-4 / kappa
    rng = np.random.default_rng(seed)
    energy = state.energy
    worst = 0.0
    for _ in range(points):
        ranks = rng.permutation(n)
        gaps = 10.0 * h + rng.exponential(1.0 / kappa, size=n - 1)
        positions = np.concatenate([[0.0], -np.cumsum(gaps)])
        coords = np.empty(n)
        coords[ranks] = positions
        psi0 = _eval_state_local(state, coords)
        lap = 0.0 + 0.0j
        for axis in range(n):
            bumped = coords.copy()
            bumped[axis] += h
            up = _eval_state_local(state, bumped)
            bumped[axis] -= 2.0 * h
            down = _eval_state_local(state, bumped)
            lap += (up - 2.0 * psi0 + down) / (h * h)
        resid = abs(-lap / (2.0 * params.mass) - energy * psi0) / abs(energy * psi0)
        worst = max(worst, resid)
    return ResidualReport.build("interior-eigenvalue", worst, points, 1e-6)
