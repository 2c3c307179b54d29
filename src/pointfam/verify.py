"""First-principles oracles for the closed forms in the rest of the package.

Every function here recomputes physics directly from the boundary
condition: decay constants by bisecting the decay-rate polynomial to
adjacent floats on either side of its vertex, scattering amplitudes by
solving the plane-wave matching system, and bound-state quality by
residuals of the boundary condition and of the kinetic eigenvalue
problem. None of them call the closed-form code paths they are meant to
validate; the only package dependency is the parameter/boundary-matrix
layer. N-body states are consumed as read-only data (kappa, energy,
coefficient pair) and re-evaluated locally.

Each residual check draws its random inputs with whole-array generator
calls and evaluates all its samples in one array pass. Where numpy's
complex arithmetic rounds differently from Python's, the oracles round as
Python does, so every value equals that of the same formula applied one
sample at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import InteractionParams, boundary_matrix, validate_params, validate_wavenumber
from .errors import InputError, SingularSystem

_SQRT2 = math.sqrt(2.0)
_KAPPA_MIN = 1e-12


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one residual check over a batch of sample points.

    worst_at names the input that gave max_residual (coordinates, draw,
    wavenumber, parameters or transverse offset), or is None where the
    check has no single such input.
    """

    check_name: str
    max_residual: float
    samples: int
    passed: bool
    tolerance: float
    worst_at: dict | None = None

    @classmethod
    def build(
        cls, check_name: str, max_residual: float, samples: int, tolerance: float,
        worst_at: dict | None = None,
    ) -> "ResidualReport":
        max_residual = float(max_residual)
        return cls(check_name, max_residual, samples, max_residual <= tolerance, tolerance, worst_at)


# Per column of random_params' uniform block: alpha, gamma, delta, theta,
# mass, and the beta a projected row takes.
_DRAW_LOW = (-3.0, -3.0, -3.0, 0.0, 0.2, -3.0)
_DRAW_HIGH = (3.0, 3.0, 3.0, 2.0 * math.pi, 2.0, 3.0)


def random_params(rng: np.random.Generator, draws: int | None = None) -> InteractionParams:
    """Draw random valid parameter sets, exactly on the constraint surface.

    alpha, gamma, delta are uniform in [-3, 3], theta in [0, 2*pi), mass in
    [0.2, 2]. When |delta| > 0.1 beta is solved from the constraint; rows
    with smaller delta are projected to the delta = 0 family with
    gamma = 1/alpha and a uniform beta in [-3, 3], or drawn again when
    |alpha| < 0.2. Each pass draws one (rows still wanted, 6) block.

    draws None gives one set with float fields, an int a batch of that many.
    """
    count = 1 if draws is None else draws
    rows = np.empty((0, 6))
    while len(rows) < count:
        a, g, d, theta, mass, b = rng.uniform(_DRAW_LOW, _DRAW_HIGH, (count - len(rows), 6)).T
        near = np.abs(d) <= 0.1  # projected to delta = 0
        keep = ~near | (np.abs(a) >= 0.2)  # the rest are drawn again
        beta = np.divide(a * g - 1.0, d, out=b, where=~near)
        gamma = np.divide(1.0, a, out=g, where=near & keep)
        block = np.stack([a, beta, gamma, np.where(near, 0.0, d), theta, mass], 1)
        rows = np.concatenate([rows, block[keep]])
    return validate_params(*rows[0].tolist() if draws is None else rows.T)


def _decay_poly(k, d, c1, m, c0):
    """delta*k^2 + 2*(alpha+gamma)*k*m + 4*beta*m^2, with c1 = 2*(alpha+gamma), c0 = 4*beta*m^2."""
    return d * k * k + c1 * k * m + c0


def _bisect(coeffs: tuple[np.ndarray, ...], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Root of _decay_poly(k, *coeffs) in each sign-change bracket [lo, hi], one per entry.

    Every bracket is halved until its ends are adjacent floats; of those
    the one with the smaller |poly| is returned (an exact zero met on the
    way is returned at once). The brackets step together and each leaves
    when done, so every root equals that of bisecting its bracket alone.
    """
    root, rows = np.empty_like(lo), np.arange(len(lo))
    f_lo, f_hi = _decay_poly(lo, *coeffs), _decay_poly(hi, *coeffs)
    while len(rows):
        mid = 0.5 * (lo + hi)
        f_mid = _decay_poly(mid, *coeffs)
        ends = (mid == lo) | (mid == hi)
        done = ends | (f_mid == 0.0)
        root[rows[done]] = np.where(ends, np.where(np.abs(f_lo) <= np.abs(f_hi), lo, hi), mid)[done]
        left = (f_mid < 0.0) == (f_lo < 0.0)
        lo, f_lo = np.where(left, mid, lo)[~done], np.where(left, f_mid, f_lo)[~done]
        hi, f_hi = np.where(left, hi, mid)[~done], np.where(left, f_hi, f_mid)[~done]
        rows, coeffs = rows[~done], tuple(c[~done] for c in coeffs)
    return root


def oracle_bound_kappas(params: InteractionParams) -> np.ndarray:
    """Positive decay constants found numerically: an array of shape fields.shape + (2,).

    The decay-rate polynomial has no root above k_max, which combines a
    coefficient-based bound with the Cauchy root bound. Its derivative
    vanishes at the vertex -c1*m/(2*delta), which by Rolle's theorem lies
    between the two roots: clipped into [KAPPA_MIN, k_max] it splits that
    interval into two brackets with at most one root each, so two roots
    are told apart however close they are. Each bracket whose ends have
    opposite signs is bisected down to adjacent floats, and an exact zero
    at the vertex is one double root. The delta = 0 case reduces to a
    direct linear solve. Each member's pair holds its roots above
    KAPPA_MIN in ascending order, NaN-padded at the end; the brackets of
    all members are bisected together.
    """
    fields = np.broadcast_arrays(params.alpha, params.beta, params.gamma, params.delta, params.mass)
    a, b, g, d, m = (np.ravel(x) for x in fields)
    c1 = 2.0 * (a + g)
    c0 = 4.0 * b * m * m
    coeffs = (d, c1, m, c0)
    with np.errstate(divide="ignore", invalid="ignore"):  # delta = 0 members take the linear solve below
        k_max = 2.0 * (1.0 + np.abs(a + g) * 2.0 * m + np.sqrt(4.0 * np.abs(b)) * 2.0 * m)
        k_max /= np.maximum(np.abs(d), 1e-30)
        cauchy = 1.0 + np.maximum(np.abs(c1 * m), np.abs(c0)) / np.abs(d)
        k_max = np.maximum(k_max, cauchy)
        vertex = np.clip(-c1 * m / (2.0 * d), _KAPPA_MIN, k_max)
        lo = np.stack([np.full_like(d, _KAPPA_MIN), vertex], 1)
        hi = np.stack([vertex, k_max], 1)
        f_lo, f_hi = (_decay_poly(k, *(c[:, None] for c in coeffs)) for k in (lo, hi))

    linear, quad = d == 0.0, d != 0.0
    found = np.full(lo.shape, np.nan)  # (members, 2): at most one root per bracket
    found[linear, 0] = -2.0 * b[linear] * m[linear] / (a + g)[linear]
    double = quad & (f_hi[:, 0] == 0.0)
    found[double, 0] = vertex[double]
    cross = quad[:, None] & (np.sign(f_lo) * np.sign(f_hi) < 0.0)
    owner = np.nonzero(cross)[0]
    found[cross] = _bisect(tuple(c[owner] for c in coeffs), lo[cross], hi[cross])
    found[~(found > _KAPPA_MIN)] = np.nan  # NaN marks no root
    return np.sort(found, axis=-1).reshape(fields[0].shape + (2,))


def _py_cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y rounded part by part as Python rounds a complex product.

    numpy's complex multiply can round differently (its vector loops may
    fuse a multiply and an add), which changes the last bits of the solve.
    """
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def scattering_matching_oracle(
    params: InteractionParams,
    k: float | np.ndarray,
    incidence: str,
) -> tuple[complex, complex] | tuple[np.ndarray, np.ndarray]:
    """(t, r) from a direct plane-wave matching solve at wavenumber k > 0.

    incidence "minus" sends the unit wave in from the left, "plus" from
    the right. The boundary condition applied to the two-sided ansatz
    gives a 2x2 complex linear system in (t, r), solved as such. The
    parameter fields and k are floats or arrays that broadcast together:
    floats give complex scalars t and r, arrays give arrays of the
    broadcast shape from one stacked solve. A k that is not finite and
    positive anywhere, or another incidence, raises InputError.
    """
    k = validate_wavenumber(k)
    if incidence not in ("minus", "plus"):
        raise InputError(f"incidence must be 'minus' or 'plus', got {incidence!r}")
    fields = (params.alpha, params.beta, params.gamma, params.delta, params.mass, params.phase, k)
    shape = np.broadcast_shapes(*map(np.shape, fields))
    a, b, g, d, m, ph, k = (np.broadcast_to(x, shape).ravel() for x in fields)
    ik, two_m = 1j * k, 2.0 * m
    ph_a, ph_d = _py_cmul(ph, ik * a - two_m * b), _py_cmul(ph, ik * d - two_m * g)
    if incidence == "minus":
        # x < 0: e^{ikx} + r e^{-ikx};  x > 0: t e^{ikx}
        system = np.stack([ik, ph_a, two_m, ph_d], -1).reshape(-1, 2, 2)
        rhs = np.stack([_py_cmul(ph, ik * a + two_m * b), _py_cmul(ph, ik * d + two_m * g)], -1)
    else:
        # x > 0: e^{-ikx} + r e^{ikx};  x < 0: t e^{-ikx}
        system = np.stack([ph_a, ik, ph_d, two_m], -1).reshape(-1, 2, 2)
        rhs = np.stack([ik, -two_m], -1)
    det = _py_cmul(system[:, 0, 0], system[:, 1, 1]) - _py_cmul(system[:, 0, 1], system[:, 1, 0])
    singular = np.hypot(det.real, det.imag) < 1e-300
    if singular.any():
        raise SingularSystem(f"matching system singular at k = {float(k[singular][0])!r}")
    t, r = np.linalg.solve(system, rhs[:, :, None])[:, :, 0].T
    return t.reshape(shape)[()], r.reshape(shape)[()]


def _local_parity_signs(orderings: np.ndarray) -> np.ndarray:
    """+1 or -1 per row of a (P, N) array of orderings, from its inversion count."""
    inversions = np.zeros(len(orderings), dtype=int)
    for i, j in combinations(range(orderings.shape[1]), 2):
        inversions += orderings[:, i] > orderings[:, j]
    return np.where(inversions % 2 == 0, 1, -1)


def _local_decay(kappa: float, coords: np.ndarray) -> np.ndarray:
    """exp(-kappa * sum over i<j of |x_i - x_j| / sqrt(2)) per row of a (P, N) array, math.exp per value."""
    total = np.zeros(len(coords))
    for i, j in combinations(range(coords.shape[1]), 2):
        total += np.abs(coords[:, i] - coords[:, j])
    return np.array([math.exp(e) for e in (-kappa * total / _SQRT2).tolist()])


def _eval_state_local(state, coords: np.ndarray) -> np.ndarray:
    """Wavefunction of an N-body state at each row of a (P, N) array, rebuilt from its raw data fields."""
    even = _local_parity_signs(np.argsort(-coords, axis=1, kind="stable")) == 1
    return np.where(even, state.c_even, state.c_odd) * _local_decay(state.kappa, coords)


def boundary_residual_nbody(
    params: InteractionParams, state, i: int, j: int, samples: int
) -> ResidualReport:
    """Residual of the boundary condition on the coincidence hyperplane x_i = x_j.

    Particles are numbered 1..N and u = (x_i - x_j)/sqrt(2). A stable sort
    puts the lower-numbered of i and j ahead in the tie x_i = x_j: the
    ordering just above the hyperplane (u -> +0) when i < j, just below it
    when i > j. Crossing the hyperplane swaps i and j, which are adjacent in
    that ordering, so the parity flips and the other coefficient holds on
    the other side. Only |x_i - x_j| = sqrt(2)|u| varies with u on the
    hyperplane, since each other particle's two distances change by
    opposite amounts, so psi'(u -> +-0) = -+kappa psi(+-0). The boundary
    matrix is applied to the column (psi', 2m psi) below; the residual is
    the worst component mismatch with the column above, relative to the
    local column magnitude. At transverse value v, i and j sit at 0 and the
    others, in index order, at -sqrt(1.5)*v*(1, ..., N-2), with
    |v| >= 0.5/kappa. A pair that is not two different integers of 1..N,
    or samples < 1, raises InputError.
    """
    n = state.n
    if i == j or not all(isinstance(p, (int, np.integer)) and 1 <= p <= n for p in (i, j)):
        raise InputError(f"pair must be two different particles of 1..{n}, got ({i}, {j})")
    if samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    kappa = state.kappa
    m2 = 2.0 * params.mass

    magnitudes = np.linspace(0.5 / kappa, 8.0 / kappa, (samples + 1) // 2)
    transverse = np.stack([magnitudes, -magnitudes], axis=1).reshape(-1)[:samples]
    coords = np.zeros((samples, n))
    others = [p for p in range(n) if p not in (i - 1, j - 1)]
    coords[:, others] = -math.sqrt(1.5) * np.outer(transverse, np.arange(1, n - 1))

    decay = _local_decay(kappa, coords)
    # The tie order is the one above the hyperplane for i < j and the one below it for i > j.
    even_above = (_local_parity_signs(np.argsort(-coords, axis=1, kind="stable")) == 1) ^ (i > j)
    psi_above = np.where(even_above, state.c_even, state.c_odd) * decay
    psi_below = np.where(even_above, state.c_odd, state.c_even) * decay

    lhs = np.stack([-kappa * psi_above, m2 * psi_above], axis=1)  # (psi', 2m psi) at u -> +0
    below = np.stack([kappa * psi_below, m2 * psi_below], axis=1)  # at u -> -0
    rhs = (boundary_matrix(params) @ below[:, :, None])[:, :, 0]
    scale = np.maximum(np.maximum(np.abs(lhs).max(axis=1), np.abs(rhs).max(axis=1)), 1e-300)
    residuals = np.abs(lhs - rhs).max(axis=1) / scale
    worst = int(np.argmax(residuals))
    return ResidualReport.build(
        f"boundary-condition x{i}{j}",
        residuals[worst],
        samples,
        1e-10,
        worst_at={"v": float(transverse[worst])},
    )


def interior_residual(
    params: InteractionParams, state, points: int = 100, seed: int = 1234
) -> ResidualReport:
    """Finite-difference check of the kinetic eigenvalue away from boundaries.

    A central second difference over every particle coordinate is applied
    to the locally re-evaluated wavefunction, with step h = 1e-4/kappa;
    the sum must reproduce the state's energy times the wavefunction.
    Sample configurations keep all pairwise separations at least 10*h so
    stencils never cross a coincidence hyperplane: from default_rng(seed),
    each point's particles sit in a random order (the argsort of a row of
    a (points, n) block of uniforms), with gaps 10*h + E for E a row of a
    (points, n - 1) block of exponentials of mean 1/kappa. The mass enters
    through the kinetic prefactor and must come from the interaction, not
    from the state under test. The stencils of all points go through one
    evaluator call. points < 1 raises InputError.
    """
    if points < 1:
        raise InputError(f"points must be at least 1, got {points}")
    n = state.n
    kappa = state.kappa
    h = 1e-4 / kappa
    rng = np.random.default_rng(seed)
    ranks = np.argsort(rng.random((points, n)), axis=1)
    gaps = 10.0 * h + rng.exponential(1.0 / kappa, (points, n - 1))
    offsets = np.concatenate([np.zeros((points, 1)), -np.cumsum(gaps, axis=1)], axis=1)
    coords = np.empty((points, n))
    np.put_along_axis(coords, ranks, offsets, axis=1)

    # Per point: the point itself, then for each axis the coordinate + h
    # and (coordinate + h) - 2h.
    stencil = np.repeat(coords[:, None, :], 2 * n + 1, axis=1)
    for axis in range(n):
        stencil[:, 2 * axis + 1 : 2 * axis + 3, axis] += h
        stencil[:, 2 * axis + 2, axis] -= 2.0 * h
    psi = _eval_state_local(state, stencil.reshape(-1, n)).reshape(points, 2 * n + 1)

    psi0 = psi[:, 0]
    lap = np.zeros(points, dtype=complex)
    for axis in range(n):
        diff = psi[:, 2 * axis + 1] - 2.0 * psi0 + psi[:, 2 * axis + 2]
        # Divided part by part, as Python divides a complex by a float;
        # numpy's complex division rounds differently.
        lap.real += diff.real / (h * h)
        lap.imag += diff.imag / (h * h)
    expected = state.energy * psi0
    m2 = 2.0 * params.mass
    miss = np.hypot(-lap.real / m2 - expected.real, -lap.imag / m2 - expected.imag)
    residuals = miss / np.hypot(expected.real, expected.imag)
    worst = int(np.argmax(residuals))
    return ResidualReport.build(
        "interior-eigenvalue",
        residuals[worst],
        points,
        1e-6,
        worst_at={"coords": coords[worst].tolist()},
    )
