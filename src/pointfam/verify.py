"""First-principles oracles for the closed forms in the rest of the package.

Every function here recomputes physics directly from the boundary
condition: decay constants by bisecting the decay-rate polynomial to
adjacent floats on either side of its vertex (every bracket of a batch
stepped together, in place, until all have finished), scattering
amplitudes by solving the plane-wave matching system, and bound-state
quality by residuals of the boundary condition and of the kinetic
eigenvalue problem. None of them call the closed-form code paths they
are meant to validate; the only package dependency is the
parameter/boundary-matrix layer. N-body states are consumed as read-only
data (kappa, energy, coefficient pair) and re-evaluated locally.

Each residual check draws its random inputs with whole-array generator
calls, evaluates all its samples in one array pass and reports the
largest residual with the input that gave it (ResidualReport.worst).
Where numpy's complex arithmetic rounds differently from Python's, the
oracles round as Python does, so every value equals that of the same
formula applied one sample at a time. A residual relative to a
wavefunction that has underflowed below 1e-300 checks nothing: a sample
where that happens raises NonFiniteResult naming it, in place of a 0/0
or a vacuous pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import InteractionParams, boundary_matrix, validate_count, validate_params, validate_wavenumber
from .errors import InputError, NonFiniteResult, SingularSystem

_SQRT2 = math.sqrt(2.0)
_KAPPA_MIN = 1e-12
# No bracket ends above this, half the largest float, so lo + hi in _bisect stays finite.
_KAPPA_MAX = np.finfo(float).max / 2
# A wavefunction magnitude below this is taken to have underflowed: a residual relative to it checks nothing.
_PSI_FLOOR = 1e-300


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

    @classmethod
    def worst(cls, check_name: str, residuals: np.ndarray, tolerance: float, worst_at) -> "ResidualReport":
        """The report of one residual per sample, named by worst_at(index of the largest).

        The largest is the first of ties, or the first NaN, as np.argmax takes it.
        """
        i = int(np.argmax(residuals))
        return cls.build(check_name, residuals[i], len(residuals), tolerance, worst_at(i))


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

    draws None gives one set with float fields, an int of 1..SIZE_CAP a
    batch of that many.
    """
    count = 1 if draws is None else validate_count("draws", draws, 1)
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
    f = d * k
    f *= k
    t = c1 * k
    t *= m
    f += t
    f += c0
    return f


# _bisect looks for finished brackets on every _CHECK_EVERY-th step only: a
# finished bracket stays as it is, so looking less often costs only idle steps.
_CHECK_EVERY = 4


def _bisect(coeffs: tuple[np.ndarray, ...], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Root of _decay_poly(k, *coeffs) in each sign-change bracket [lo, hi], one per entry.

    Every bracket is halved until its ends are adjacent floats, and the end
    with the smaller |poly| is returned. Negating a bracket's coefficients
    where poly(lo) > 0 negates poly exactly, so poly < 0 at every lo and
    > 0 at every hi, and no end value is carried: a midpoint replaces lo
    where poly <= 0 and hi where it is not < 0 (both at a zero, which
    closes the bracket on it). Once a midpoint equals an end the bracket
    has finished, and every further step leaves it as it is. So all
    brackets step together in place until each has finished, which is
    looked for on every _CHECK_EVERY-th step only, and every root equals
    that of bisecting its bracket alone.
    """
    flip = _decay_poly(lo, *coeffs) > 0.0
    d, c1, m, c0 = coeffs
    d, c1, c0 = (np.where(flip, -c, c) for c in (d, c1, c0))
    lo, hi = lo.copy(), hi.copy()
    step = 0
    while True:
        mid = lo + hi
        mid *= 0.5
        step += 1
        if step % _CHECK_EVERY == 0 and ((mid == lo) | (mid == hi)).all():
            break
        f_mid = _decay_poly(mid, d, c1, m, c0)
        np.copyto(lo, mid, where=f_mid <= 0.0)
        np.copyto(hi, mid, where=~(f_mid < 0.0))
    nearer = np.abs(_decay_poly(lo, d, c1, m, c0)) <= np.abs(_decay_poly(hi, d, c1, m, c0))
    return np.where(nearer, lo, hi)


def oracle_bound_kappas(params: InteractionParams) -> np.ndarray:
    """Positive decay constants found numerically: an array of shape fields.shape + (2,).

    The decay-rate polynomial has no root above k_max, which combines a
    coefficient-based bound with the Cauchy root bound, capped at half the
    largest float so that a midpoint never overflows. Its derivative
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
    # delta = 0 members take the linear solve below; past the float range poly is inf or NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k_max = 2.0 * (1.0 + np.abs(a + g) * 2.0 * m + np.sqrt(4.0 * np.abs(b)) * 2.0 * m)
        k_max /= np.maximum(np.abs(d), 1e-30)
        cauchy = 1.0 + np.maximum(np.abs(c1 * m), np.abs(c0)) / np.abs(d)
        k_max = np.minimum(np.maximum(k_max, cauchy), _KAPPA_MAX)
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
    with np.errstate(over="ignore"):
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


def _local_parity_and_decay(kappa: float, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(even, decay) per row of a (P, N) array of coordinates.

    even says whether the particles' descending order is an even
    permutation: a pair i < j with x_i < x_j is an inversion of it, and a
    tie keeps index order, as a stable sort does. decay is
    exp(-kappa * sum over i<j of |x_i - x_j| / sqrt(2)), the distances
    added pair by pair and exp taken with math.exp per value.
    """
    odd = np.zeros(len(coords), dtype=bool)
    total = np.zeros(len(coords))
    for i, j in combinations(range(coords.shape[1]), 2):
        gap = coords[:, i] - coords[:, j]
        odd ^= gap < 0.0
        total += np.abs(gap)
    decay = np.fromiter(map(math.exp, (-kappa * total / _SQRT2).tolist()), float, len(total))
    return ~odd, decay


def _refuse_underflow(name: str, what: str, scale: np.ndarray, where) -> None:
    """Raise NonFiniteResult if a scale is below _PSI_FLOOR or NaN.

    The message names the smallest scale (or the first NaN) and the
    sample it belongs to by where(its index).
    """
    if not (scale >= _PSI_FLOOR).all():
        at = int(np.argmin(scale))
        raise NonFiniteResult(
            f"{name}: {what} is {float(scale[at])!r} at {where(at)}, below {_PSI_FLOOR}: psi has underflowed there"
        )


def _eval_state_local(state, coords: np.ndarray) -> np.ndarray:
    """Wavefunction of an N-body state at each row of a (P, N) array, rebuilt from its raw data fields."""
    even, decay = _local_parity_and_decay(state.kappa, coords)
    return np.where(even, state.c_even, state.c_odd) * decay


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
    |v| >= 0.5/kappa. An i or j that is not an integer of 1..N, i = j, or
    samples that is not an integer of 1..SIZE_CAP raises InputError. A
    sample whose column magnitude falls below 1e-300, as psi underflows
    once N or |v| grows (with 50 samples, from N = 9 on), raises
    NonFiniteResult naming v. The check is named x{i}{j} below N = 10 and
    x{i},{j} from there on.
    """
    n = state.n
    i, j = validate_count("i", i, 1, n), validate_count("j", j, 1, n)
    samples = validate_count("samples", samples, 1)
    if i == j:
        raise InputError(f"pair must be two different particles of 1..{n}, got ({i}, {j})")
    kappa = state.kappa
    m2 = 2.0 * params.mass

    magnitudes = np.linspace(0.5 / kappa, 8.0 / kappa, (samples + 1) // 2)
    transverse = np.stack([magnitudes, -magnitudes], axis=1).reshape(-1)[:samples]
    coords = np.zeros((samples, n))
    others = [p for p in range(n) if p not in (i - 1, j - 1)]
    coords[:, others] = -math.sqrt(1.5) * np.outer(transverse, np.arange(1, n - 1))

    even, decay = _local_parity_and_decay(kappa, coords)
    # The tie order is the one above the hyperplane for i < j and the one below it for i > j.
    even_above = even ^ (i > j)
    psi_above = np.where(even_above, state.c_even, state.c_odd) * decay
    psi_below = np.where(even_above, state.c_odd, state.c_even) * decay

    lhs = np.stack([-kappa * psi_above, m2 * psi_above], axis=1)  # (psi', 2m psi) at u -> +0
    below = np.stack([kappa * psi_below, m2 * psi_below], axis=1)  # at u -> -0
    rhs = (boundary_matrix(params) @ below[:, :, None])[:, :, 0]
    name = f"boundary-condition x{i}{',' if n >= 10 else ''}{j}"
    scale = np.maximum(np.abs(lhs).max(axis=1), np.abs(rhs).max(axis=1))
    _refuse_underflow(name, "the column magnitude", scale, lambda i: f"v = {float(transverse[i])!r}")
    residuals = np.abs(lhs - rhs).max(axis=1) / scale
    return ResidualReport.worst(name, residuals, 1e-10, lambda i: {"v": float(transverse[i])})


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
    evaluator call. points that is not an integer of 1..SIZE_CAP, or a
    seed that is not an integer of at least 0, raises InputError. A point
    where |E psi| falls below 1e-300, as psi underflows once the summed
    pair distance grows (on the contact state, from N = 16 on), raises
    NonFiniteResult naming its coordinates.
    """
    points, seed = validate_count("points", points, 1), validate_count("seed", seed, 0, None)
    n = state.n
    kappa = state.kappa
    h = 1e-4 / kappa
    rng = np.random.default_rng(seed)
    ranks = np.argsort(rng.random((points, n)), axis=1)
    gaps = 10.0 * h + rng.exponential(1.0 / kappa, (points, n - 1))
    offsets = np.zeros((points, n))
    below = offsets[:, 1:]
    np.negative(np.cumsum(gaps, axis=1, out=below), out=below)
    coords = np.empty((points, n))
    coords[np.arange(points)[:, None], ranks] = offsets

    # Per point: the point itself, then for each axis the coordinate + h
    # and (coordinate + h) - 2h.
    stencil = np.repeat(coords[:, None, :], 2 * n + 1, axis=1)
    axes, up = np.arange(n), coords + h
    stencil[:, 2 * axes + 1, axes] = up
    stencil[:, 2 * axes + 2, axes] = up - 2.0 * h
    psi = _eval_state_local(state, stencil.reshape(-1, n)).reshape(points, 2 * n + 1)

    psi0 = psi[:, 0]
    diff = psi[:, 1::2] - (2.0 * psi0)[:, None] + psi[:, 2::2]
    # (points, axis, re/im): divided part by part, as Python divides a
    # complex by a float (numpy's complex division rounds differently),
    # then summed an axis at a time.
    terms = diff.view(float).reshape(points, n, 2) / (h * h)
    lap = np.zeros((points, 2))
    for axis in range(n):
        lap += terms[:, axis]
    expected = state.energy * psi0
    scale = np.hypot(expected.real, expected.imag)
    _refuse_underflow("interior-eigenvalue", "|E psi|", scale, lambda i: f"coordinates {coords[i].tolist()!r}")
    miss = -lap / (2.0 * params.mass) - expected.view(float).reshape(points, 2)
    residuals = np.hypot(miss[:, 0], miss[:, 1]) / scale
    return ResidualReport.worst("interior-eigenvalue", residuals, 1e-6, lambda i: {"coords": coords[i].tolist()})
