"""Bound states of a single particle on a point interaction.

Because the pair coordinate of the equal-mass two-body problem obeys the
same equation, everything here doubles as the two-body relative problem.

A bound state decays as exp(-kappa*|x|) on both sides of the origin with
a common decay constant kappa > 0 and energy -kappa^2/(2m). The boundary
condition admits zero, one, or two such kappa, the positive roots of

    delta*kappa^2 + 2*(alpha+gamma)*kappa*m + 4*beta*m^2 = 0.

The wavefunction is generally discontinuous at the origin; its jump ratio
eta = psi(+0)/psi(-0) controls everything downstream (orthogonality of a
two-state spectrum, many-body coefficient propagation, symmetry classes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InteractionParams
from .errors import InvalidSlice, InvariantViolation, NonFiniteResult

# Roots at or below this are treated as non-normalizable and dropped.
KAPPA_MIN = 1e-12

# Branch names by code: the two roots of delta != 0, the root of delta = 0, an empty slot.
_BRANCHES = np.array(["plus", "minus", "single", ""])


@dataclass(frozen=True)
class BoundState:
    """One bound level in the gauge c_minus = 1, c_plus = eta (array fields: see bound_spectrum)."""

    kappa: float | np.ndarray
    energy: float | np.ndarray
    eta: complex | np.ndarray
    c_plus: complex | np.ndarray
    c_minus: complex | np.ndarray
    branch: str | np.ndarray  # "plus" or "minus" for a two-root family, else "single"


def _kappa_roots(params: InteractionParams) -> tuple[np.ndarray, np.ndarray]:
    """The candidate roots (plus, minus) of the decay-rate equation, arrays of the fields' shape.

    For delta != 0 the two roots are evaluated with the usual cancellation
    guard (the non-cancelling root directly, the other via the product of
    roots). For delta = 0 the equation is linear: its root is the plus
    entry and the minus entry is NaN.
    """
    a, b, g, d, m = (
        np.asarray(v) for v in (params.alpha, params.beta, params.gamma, params.delta, params.mass)
    )
    with np.errstate(all="ignore"):  # delta = 0 entries are replaced below
        # sqrt((alpha-gamma)^2 + 4), always >= 2. math.hypot rounds correctly;
        # np.hypot (the C library's) is one ulp off for about 0.6% of these inputs.
        s = np.asarray(np.frompyfunc(math.hypot, 2, 1)(a - g, 2.0), dtype=float)
        trace = a + g
        product = 4.0 * b * m * m / d  # kappa_plus * kappa_minus
        plus = m * (-trace + s) / d
        minus = m * (-trace - s) / d
        vieta = b != 0.0
        k_plus = np.where((trace > 0.0) & vieta, product / minus, plus)
        k_minus = np.where((trace <= 0.0) & vieta, product / plus, minus)
        # Valid params with delta = 0 force alpha*gamma = 1, so alpha+gamma != 0.
        linear = d == 0.0
        k_plus = np.where(linear, -2.0 * b * m / trace, k_plus)
        k_minus = np.where(linear, np.nan, k_minus)
    return k_plus, k_minus


def bound_spectrum(params: InteractionParams) -> list[BoundState] | BoundState:
    """Every bound state of the interaction, lowest energy first.

    For a float parameter set, a list of BoundState, empty when no root is
    positive. For a batch, one BoundState whose fields have a trailing
    axis of two slots: the states, then empty slots (NaN, branch "").
    Roots within KAPPA_MIN of zero are discarded as non-normalizable. eta
    comes from the second row of the boundary condition, eta =
    exp(i*theta)*(gamma + delta*kappa/(2m)); the first row gives
    -exp(i*theta)*(alpha + 2*beta*m/kappa), equal at a root. Raises
    NonFiniteResult when a kappa, energy or eta overflows.
    """
    kappa = np.stack(_kappa_roots(params), axis=-1)
    fields = (params.delta, params.gamma, params.mass, params.phase)
    delta, gamma, m, ph = (np.asarray(x)[..., None] for x in fields)
    # Slot 1 of a delta = 0 member holds no root; any other NaN is an overflow, refused below.
    kept = ~(kappa <= KAPPA_MIN) & ((delta != 0.0) | [True, False])
    with np.errstate(all="ignore"):
        energy = -kappa * kappa / (2.0 * m)
        eta = ph * (gamma + delta * kappa / (2.0 * m))
    bad = np.argwhere(kept & ~(np.isfinite(kappa) & np.isfinite(energy) & np.isfinite(eta)))
    if len(bad):
        at = tuple(bad[0])
        NonFiniteResult.check(kappa=kappa[at].item(), energy=energy[at].item(), eta=eta[at].item())
    # A double root cannot occur over the reals; two surviving states are distinct.
    same = kept.all(axis=-1) & (kappa[..., 0] == kappa[..., 1])
    if same.any():
        raise InvariantViolation(f"decay constants coincide: {kappa[same][0].tolist()!r}")
    order = np.argsort(np.where(kept, energy, np.inf), axis=-1, kind="stable")
    code = np.where(delta == 0.0, 2, order)
    kept, kappa, energy, eta = (np.take_along_axis(x, order, -1) for x in (kept, kappa, energy, eta))
    kappa, energy, eta = (np.where(kept, x, np.nan) for x in (kappa, energy, eta))
    branch = _BRANCHES[np.where(kept, code, 3)]
    if kappa.ndim > 1:
        return BoundState(kappa, energy, eta, eta, np.where(kept, 1.0 + 0.0j, np.nan), branch)
    return [
        BoundState(*(x[i].item() for x in (kappa, energy, eta, eta)), 1.0 + 0.0j, str(branch[i]))
        for i in np.flatnonzero(kept)
    ]


def phase_diagram_count(alpha, gamma, delta: float, beta: float | None = None):
    """Number of bound states on the (alpha, gamma, delta) slice: 0, 1, or 2.

    alpha and gamma are floats or arrays that broadcast together; floats
    give an int, arrays give an int array of the broadcast shape, so
    alpha[:, None] and gamma[None, :] count a whole grid in one call.

    For delta != 0, beta is pinned by the determinant constraint and the
    count is independent of mass and beta. For delta = 0 the slice is only
    meaningful when alpha*gamma = 1 at every point, and the sign of the
    single candidate root depends on beta, which the caller must supply.
    """
    alpha, gamma = np.asarray(alpha, dtype=float), np.asarray(gamma, dtype=float)
    if delta == 0.0:
        if (np.abs(alpha * gamma - 1.0) > 1e-12).any():
            raise InvalidSlice(
                "delta = 0 requires alpha*gamma = 1 for a valid interaction"
            )
        if beta is None:
            raise InvalidSlice("delta = 0 needs an explicit beta to fix the root sign")
        count = (-2.0 * beta / (alpha + gamma) > KAPPA_MIN).astype(int)
    else:
        s = np.hypot(alpha - gamma, 2.0)
        trace = alpha + gamma
        with np.errstate(over="ignore"):  # a subnormal delta gives +-inf, which still counts by sign
            count = ((-trace + s) / delta > KAPPA_MIN).astype(int) + (
                (-trace - s) / delta > KAPPA_MIN
            )
    return int(count) if count.ndim == 0 else count


def orthogonality_sum(state_a: BoundState, state_b: BoundState) -> complex:
    """conj(a.c_plus)*b.c_plus + conj(a.c_minus)*b.c_minus.

    Vanishes identically for the two branches of one interaction, which is
    what makes the two levels orthogonal.
    """
    return (
        state_a.c_plus.conjugate() * state_b.c_plus
        + state_a.c_minus.conjugate() * state_b.c_minus
    )
