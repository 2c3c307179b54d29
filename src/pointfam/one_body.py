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


@dataclass(frozen=True)
class BoundState:
    """One bound level in the gauge c_minus = 1, c_plus = eta."""

    kappa: float
    energy: float
    eta: complex
    c_plus: complex
    c_minus: complex
    branch: str  # "plus" or "minus" for a two-root family, else "single"


def _kappa_roots(params: InteractionParams) -> list[tuple[float, str]]:
    """Real roots of the decay-rate quadratic with their branch tags.

    For delta != 0 the two roots are evaluated with the usual cancellation
    guard (the non-cancelling root directly, the other via the product of
    roots). For delta = 0 the equation is linear.
    """
    a, g, d, m = params.alpha, params.gamma, params.delta, params.mass
    b = params.beta
    if d == 0.0:
        # Valid params with delta = 0 force alpha*gamma = 1, so alpha+gamma != 0.
        return [(-2.0 * b * m / (a + g), "single")]
    s = math.hypot(a - g, 2.0)  # sqrt((alpha-gamma)^2 + 4), always >= 2
    trace = a + g
    product = 4.0 * b * m * m / d  # kappa_plus * kappa_minus
    if trace <= 0.0:
        k_plus = m * (-trace + s) / d
        k_minus = product / k_plus if b != 0.0 else m * (-trace - s) / d
    else:
        k_minus = m * (-trace - s) / d
        k_plus = product / k_minus if b != 0.0 else m * (-trace + s) / d
    return [(k_plus, "plus"), (k_minus, "minus")]


def bound_spectrum(params: InteractionParams) -> list[BoundState]:
    """Every bound state of the interaction, lowest energy first.

    Returns an empty list when no root is positive. Roots within KAPPA_MIN
    of zero are discarded as non-normalizable. eta comes from the second
    row of the boundary condition, eta = exp(i*theta)*(gamma +
    delta*kappa/(2m)); the first row gives -exp(i*theta)*(alpha +
    2*beta*m/kappa), equal at a root. Raises NonFiniteResult when a kappa,
    energy or eta overflows.
    """
    states = []
    for kappa, branch in _kappa_roots(params):
        if kappa <= KAPPA_MIN:
            continue
        energy = -kappa * kappa / (2.0 * params.mass)
        eta = params.phase * (params.gamma + params.delta * kappa / (2.0 * params.mass))
        NonFiniteResult.check(kappa=kappa, energy=energy, eta=eta)
        states.append(
            BoundState(
                kappa=kappa,
                energy=energy,
                eta=eta,
                c_plus=eta,
                c_minus=1.0 + 0.0j,
                branch=branch,
            )
        )
    states.sort(key=lambda st: st.energy)
    # A double root cannot occur over the reals; two surviving states are distinct.
    if len({st.kappa for st in states}) != len(states):
        raise InvariantViolation(f"decay constants coincide: {[st.kappa for st in states]!r}")
    return states


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
