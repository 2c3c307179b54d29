"""First-principles oracles for the closed forms in the rest of the package.

Every function here recomputes physics directly from the boundary
condition: decay constants by bisecting the decay-rate polynomial,
divided by m*k, to adjacent floats on either side of its vertex, up to
the largest float, the delta = 0 members as every other (every bracket
of a batch halved together on its bit patterns, 63 times), scattering
amplitudes by solving the plane-wave matching system, and bound-state
quality by residuals of the boundary condition and of the kinetic
eigenvalue problem. None of them call the closed-form code paths they
are meant to validate; the only package dependency is the
parameter/boundary-matrix layer. N-body states are consumed as read-only
data (kappa, energy, coefficient pair); both N-body checks work with
what is left once the decay factor cancels, so no value underflows at
any N.

Each residual check draws its random inputs with whole-array generator
calls, evaluates all its samples in one array pass and reports the
largest residual with the input that gave it (ResidualReport.worst).
The two N-body checks also take lists, of states of one N or of particle
pairs, and check every item in that one pass, one report per item, each
equal bit for bit to that of the item alone.
Where numpy's complex arithmetic rounds differently from Python's, the
oracles round as Python does, so every value equals that of the same
formula applied one sample at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    InteractionParams,
    boundary_matrix,
    broadcast_shape,
    require_single,
    validate_count,
    validate_params,
    validate_wavenumber,
)
from .errors import InputError, SingularSystem

_SQRT2 = math.sqrt(2.0)
_KAPPA_MIN = 1e-12
_KAPPA_MAX = np.finfo(float).max


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one residual check over a batch of sample points.

    worst_at names the input that gave max_residual (coordinates, draw,
    wavenumber, parameters or particle ordering), holds what a negative
    control measured, or is None where the check has no single such input.
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


def _decay_poly(k, d, c1, c0):
    """The decay-rate polynomial over m*k: d*k + c1 + c0/k, with d = delta/m, c1 = 2*(alpha+gamma), c0 = 4*beta*m.

    For k > 0 it has the sign of delta*k^2 + 2*(alpha+gamma)*m*k + 4*beta*m^2,
    and it is never NaN: d*k and c0/k cannot both leave the float range at
    one k, since that needs |d*c0| = |4*beta*delta| above the largest float
    squared.
    """
    f = d * k
    f += c1
    f += c0 / k
    return f


def _bisect(coeffs: tuple[np.ndarray, ...], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Root of _decay_poly(k, *coeffs) in each positive sign-change bracket [lo, hi], one per entry.

    Negating a bracket's coefficients where poly(lo) > 0 negates poly
    exactly, so poly < 0 at every lo and > 0 at every hi. Positive floats
    order as their int64 bit patterns, so each bracket is halved on those:
    a midpoint replaces lo where poly <= 0 and hi where it is not < 0 (both
    at a zero, which closes the bracket on it). A positive bracket spans
    fewer than 2**63 patterns, so 63 halvings leave its ends adjacent
    floats, and a finished bracket stays as it is; every root thus equals
    that of bisecting its bracket alone. Each bracket returns the end with
    the smaller |poly|.
    """
    flip = _decay_poly(lo, *coeffs) > 0.0
    coeffs = tuple(np.where(flip, -c, c) for c in coeffs)
    lo, hi = lo.view(np.int64).copy(), hi.view(np.int64).copy()  # positive floats order as their bit patterns
    for _ in range(63):  # hi - lo < 2**63
        mid = hi - lo
        mid >>= 1
        mid += lo  # lo + hi overflows int64
        f_mid = _decay_poly(mid.view(float), *coeffs)
        np.copyto(lo, mid, where=f_mid <= 0.0)
        np.copyto(hi, mid, where=~(f_mid < 0.0))
    lo, hi = lo.view(float), hi.view(float)
    nearer = np.abs(_decay_poly(lo, *coeffs)) <= np.abs(_decay_poly(hi, *coeffs))
    return np.where(nearer, lo, hi)


def oracle_bound_kappas(params: InteractionParams) -> np.ndarray:
    """Positive decay constants found numerically: an array of shape fields.shape + (2,).

    The decay-rate polynomial's derivative vanishes at the vertex
    -(alpha+gamma)*m/delta, which by Rolle's theorem lies between the two
    roots: clipped into [KAPPA_MIN, largest float] it splits that interval
    into two brackets with at most one root each, so two roots are told
    apart however close they are. Where delta = 0 the vertex is infinite
    and clips to an end, so the whole interval is one bracket. Each bracket
    whose ends have opposite signs of _decay_poly is bisected down to
    adjacent floats. The discriminant 4m^2((alpha-gamma)^2 + 4) is
    positive, so there is no double root: an exact zero at the vertex comes
    from rounding and is reported as one root. Each member's pair holds its
    roots above KAPPA_MIN in ascending order, NaN-padded at the end; the
    brackets of all members are bisected together.
    """
    fields = np.broadcast_arrays(params.alpha, params.beta, params.gamma, params.delta, params.mass)
    a, b, g, d, m = (np.ravel(x) for x in fields)
    with np.errstate(divide="ignore", over="ignore"):  # the vertex is infinite where delta = 0
        coeffs = (d / m, 2.0 * (a + g), 4.0 * b * m)
        vertex = np.clip(-coeffs[1] / (2.0 * coeffs[0]), _KAPPA_MIN, _KAPPA_MAX)
        lo = np.stack([np.full_like(d, _KAPPA_MIN), vertex], 1)
        hi = np.stack([vertex, np.full_like(d, _KAPPA_MAX)], 1)
        f_lo, f_hi = (_decay_poly(k, *(c[:, None] for c in coeffs)) for k in (lo, hi))

    found = np.full(lo.shape, np.nan)  # (members, 2): at most one root per bracket
    zero = f_hi[:, 0] == 0.0
    found[zero, 0] = vertex[zero]
    cross = np.sign(f_lo) * np.sign(f_hi) < 0.0
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
    params: InteractionParams, k: float | np.ndarray
) -> tuple[complex, complex, complex, complex] | tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(t_minus, r_minus, t_plus, r_plus) from direct plane-wave matching solves at wavenumber k > 0.

    The minus amplitudes send the unit wave in from the left, the plus
    amplitudes from the right. For each direction the boundary condition
    applied to the two-sided ansatz gives a 2x2 complex linear system in
    (t, r). The two systems have the same two columns in swapped order, so
    their determinants are exact negatives and one check covers both. The
    parameter fields and k are floats or arrays that broadcast together:
    floats give four complex scalars, arrays give four arrays of the
    broadcast shape, both directions of every entry from one stacked solve.
    A k that is not finite and positive anywhere, or shapes that do not
    broadcast, raise InputError; a vanishing determinant SingularSystem.
    """
    k = validate_wavenumber(k)
    fields = (params.alpha, params.beta, params.gamma, params.delta, params.mass, params.phase, k)
    shape = broadcast_shape(**vars(params), k=k)
    a, b, g, d, m, ph, k = (np.broadcast_to(x, shape).ravel() for x in fields)
    ik, two_m = 1j * k, 2.0 * m
    ph_a, ph_d = _py_cmul(ph, ik * a - two_m * b), _py_cmul(ph, ik * d - two_m * g)
    det = _py_cmul(ik, ph_d) - _py_cmul(ph_a, two_m)  # the minus system's; the plus system's is -det
    singular = np.hypot(det.real, det.imag) < 1e-300
    if singular.any():
        raise SingularSystem(f"matching system singular at k = {float(k[singular][0])!r}")
    # minus, x < 0: e^{ikx} + r e^{-ikx};  x > 0: t e^{ikx}
    # plus,  x > 0: e^{-ikx} + r e^{ikx};  x < 0: t e^{-ikx}
    system = np.stack([ik, ph_a, two_m, ph_d, ph_a, ik, ph_d, two_m], -1).reshape(-1, 2, 2, 2)
    rhs = np.stack([_py_cmul(ph, ik * a + two_m * b), _py_cmul(ph, ik * d + two_m * g), ik, -two_m], -1)
    t_r = np.linalg.solve(system, rhs.reshape(-1, 2, 2, 1)).reshape(-1, 4)  # per entry: t-, r-, t+, r+
    return tuple(x.reshape(shape)[()] for x in t_r.T)


def _pair_sum(coords: np.ndarray) -> np.ndarray:
    """sum over i<j of |x_i - x_j| per row of a (P, N) array, the distances added pair by pair."""
    total = np.zeros(len(coords))
    for i, j in combinations(range(coords.shape[1]), 2):
        total += np.abs(coords[:, i] - coords[:, j])
    return total


def _batch(name: str, value) -> list:
    """value as a list of items: a list or tuple as given, anything else as a batch of one.

    An empty list or tuple raises InputError naming len(name).
    """
    items = list(value) if isinstance(value, (list, tuple)) else [value]
    validate_count(f"len({name})", len(items), 1)
    return items


def boundary_residual_nbody(
    params: InteractionParams, state, i: int | list | tuple, j: int | list | tuple
) -> ResidualReport | list[ResidualReport]:
    """Residual of the boundary condition on the coincidence hyperplane x_i = x_j.

    Particles are numbered 1..N and u = (x_i - x_j)/sqrt(2). Just above
    the hyperplane (u -> +0) i sits directly above j in the ordering of
    the particles; crossing it swaps the two, so the parity flips and the
    other coefficient holds below. The decay factor
    exp(-kappa * sum over pairs of |x_a - x_b| / sqrt(2)) is the same on
    both sides, since only |x_i - x_j| = sqrt(2)|u| varies with u there
    (each other particle's two distances change by opposite amounts), so
    it cancels: psi'(u -> +-0) = -+kappa c with c the coefficient of that
    side, and the residual depends only on the parity of the ordering
    above. The boundary matrix is applied to the column (kappa c_below,
    2m c_below); the residual is the worst component mismatch with
    (-kappa c_above, 2m c_above), relative to the column magnitude.

    One ordering per parity that occurs is checked: i and j on top, then
    the other particles in index order, and from N = 4 on the same with
    its first two spectators swapped, which flips the parity and keeps i
    and j adjacent (at N = 2 and 3 every ordering with i directly above j
    has the same parity). Each parity comes from the ordering's inversion
    count: a pair listed against index order is an inversion. samples
    counts the orderings checked and worst_at names the worst as
    {"ordering": [labels from the top down]}. The check is named
    x{i}{j} below N = 10 and x{i},{j} from there on.

    Particles i and j give one report; equal-length lists or tuples i and
    j give one report per pair (i[k], j[k]), the orderings of every pair
    checked in one array pass, each report equal to that of its pair
    alone. An i or j that is not an integer of 1..N, or i = j, raises
    InputError, and so do empty lists, lists of different lengths and
    params with array fields, each named (i[k], j[k], len(i), len(j)).
    """
    require_single("boundary_residual_nbody", params)
    n = state.n
    firsts, seconds = _batch("i", i), _batch("j", j)
    validate_count("len(j)", len(seconds), len(firsts), len(firsts))
    single = not isinstance(i, (list, tuple))
    orderings = []  # per pair, one ordering per parity that occurs
    for k, (a, b) in enumerate(zip(firsts, seconds)):
        at = "" if single else f"[{k}]"
        a, b = validate_count(f"i{at}", a, 1, n), validate_count(f"j{at}", b, 1, n)
        if a == b:
            entry = at and f" (i{at}, j{at})"
            raise InputError(f"pair{entry} must be two different particles of 1..{n}, got ({a}, {b})")
        others = [p for p in range(1, n + 1) if p not in (a, b)]
        orderings.append([[a, b, *others]])
        if n >= 4:
            orderings[-1].append([a, b, others[1], others[0], *others[2:]])
    flat = [order for pair in orderings for order in pair]
    odd = np.array([sum(a > b for a, b in combinations(order, 2)) % 2 == 1 for order in flat])
    above = np.where(odd, state.c_odd, state.c_even)
    below = np.where(odd, state.c_even, state.c_odd)

    kappa, m2 = state.kappa, 2.0 * params.mass
    lhs = np.stack([-kappa * above, m2 * above], axis=1)  # (psi', 2m psi) / decay at u -> +0
    rhs = (boundary_matrix(params) @ np.stack([kappa * below, m2 * below], axis=1)[:, :, None])[:, :, 0]
    scale = np.maximum(np.abs(lhs).max(axis=1), np.abs(rhs).max(axis=1))
    residuals = (np.abs(lhs - rhs).max(axis=1) / scale).reshape(len(orderings), -1)
    sep = "," if n >= 10 else ""
    reports = [
        ResidualReport.worst(
            f"boundary-condition x{pair[0][0]}{sep}{pair[0][1]}", row, 1e-10,
            lambda k, pair=pair: {"ordering": pair[k]},
        )
        for pair, row in zip(orderings, residuals)
    ]
    return reports[0] if single else reports


def interior_residual(
    params: InteractionParams | list | tuple, state, points: int = 100, seed: int = 1234
) -> ResidualReport | list[ResidualReport]:
    """Finite-difference check of the kinetic eigenvalue away from boundaries.

    A central second difference over every particle coordinate, with step
    h = 1e-4/kappa, must give Laplacian(psi)/psi = 2m E. Sample
    configurations keep all pairwise separations at least 10*h, so a
    stencil never crosses a coincidence hyperplane and the coefficient of
    its ordering cancels: each stencil value is taken as its ratio to the
    centre value, exp(-kappa * (S(x +- h e_a) - S(x)) / sqrt(2)) with S
    the sum of all pair distances (added pair by pair, exp taken with
    math.exp per value), so no value underflows at any N. The residual is
    |-(Laplacian(psi)/psi)/(2m) - E| / |E|. The points come from
    default_rng(seed): each point's particles sit in a random order (the
    argsort of a row of a (points, n) block of uniforms), with gaps
    10*h + E/kappa for E a row of a (points, n - 1) block of standard
    exponentials. The mass enters through the kinetic prefactor and must
    come from the interaction, not from the state under test.

    params and state are one parameter set and one state, which give one
    report, or equal-length lists or tuples of them, states of one N, which
    give one report per state. The draws are made once and scaled per
    state, as default_rng scales an exponential draw, and the pair sums of
    every stencil of every state are taken in one call, so each report
    equals that of its state alone, bit for bit. points that is not an
    integer of 1..SIZE_CAP, a seed that is not an integer of at least 0,
    empty lists, lists of different lengths, states of more than one N, or
    a parameter set with array fields raise InputError, each named
    (len(params), len(state), state[k].n, params[k]).
    """
    points, seed = validate_count("points", points, 1), validate_count("seed", seed, 0, None)
    single = not isinstance(state, (list, tuple))
    states, sets = _batch("state", state), _batch("params", params)
    validate_count("len(params)", len(sets), len(states), len(states))
    n = states[0].n
    listed = isinstance(params, (list, tuple))
    for k, (st, p) in enumerate(zip(states, sets)):
        validate_count(f"state[{k}].n", st.n, n, n)
        require_single(f"interior_residual params[{k}]" if listed else "interior_residual", p)
    count = len(states)
    kappa = np.array([st.kappa for st in states])[:, None, None]  # (states, 1, 1)
    h = 1e-4 / kappa
    rng = np.random.default_rng(seed)
    ranks = np.argsort(rng.random((points, n)), axis=1)
    gaps = 10.0 * h + (1.0 / kappa) * rng.standard_exponential((points, n - 1))
    offsets = np.zeros((count, points, n))
    below = offsets[..., 1:]
    np.negative(np.cumsum(gaps, axis=-1, out=below), out=below)
    coords = np.empty_like(offsets)
    coords[:, np.arange(points)[:, None], ranks] = offsets

    # Per point: the point itself, then for each axis the coordinate + h
    # and (coordinate + h) - 2h.
    stencil = np.repeat(coords[:, :, None, :], 2 * n + 1, axis=2)
    axes, up = np.arange(n), coords + h
    stencil[:, :, 2 * axes + 1, axes] = up
    stencil[:, :, 2 * axes + 2, axes] = up - 2.0 * h
    total = _pair_sum(stencil.reshape(-1, n)).reshape(count, points, 2 * n + 1)
    exponents = -kappa * (total[..., 1:] - total[..., :1]) / _SQRT2
    ratio = np.fromiter(map(math.exp, exponents.ravel().tolist()), float, exponents.size)
    ratio = ratio.reshape(count, points, n, 2)

    lap = np.zeros((count, points))
    h2 = h[:, 0] * h[:, 0]
    for axis in range(n):  # summed an axis at a time
        lap += (ratio[:, :, axis, 0] - 2.0 + ratio[:, :, axis, 1]) / h2
    mass = np.array([[p.mass] for p in sets])
    energy = np.array([[st.energy] for st in states])
    residuals = np.abs(-lap / (2.0 * mass) - energy) / np.abs(energy)
    reports = [
        ResidualReport.worst("interior-eigenvalue", row, 1e-6, lambda i, at=at: {"coords": at[i].tolist()})
        for row, at in zip(residuals, coords)
    ]
    return reports[0] if single else reports
