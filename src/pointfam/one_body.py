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

from .core import CONSTRAINT_TOL, PARAM_FIELDS, InteractionParams, require_finite
from .errors import InputError, InvalidSlice, InvariantViolation, NonFiniteResult

# Roots at or below this are treated as non-normalizable and dropped.
KAPPA_MIN = 1e-12
_EPS = 2.0 ** -52  # the spacing of floats at 1


@dataclass(frozen=True)
class BoundState:
    """One bound level in the gauge c_minus = 1, c_plus = eta."""

    kappa: float
    energy: float
    eta: complex
    c_plus: complex
    c_minus: complex
    branch: str  # "plus" or "minus" for a two-root family, else "single"


def kappa_roots(params: InteractionParams) -> tuple[np.ndarray, np.ndarray]:
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


def bound_spectrum(params: InteractionParams) -> list[BoundState]:
    """Every bound state of one parameter set with float fields, lowest energy first.

    An empty list when no root is positive. Roots within KAPPA_MIN of zero
    are discarded as non-normalizable. eta comes from the second row of
    the boundary condition, eta = exp(i*theta)*(gamma + delta*kappa/(2m));
    the first row gives -exp(i*theta)*(alpha + 2*beta*m/kappa), equal at a
    root. Raises InputError for array fields and NonFiniteResult when a
    kappa, energy or eta overflows.
    """
    if any(np.ndim(getattr(params, name)) for name in PARAM_FIELDS):
        raise InputError("bound_spectrum takes one parameter set with float fields, not a batch")
    m, ph = params.mass, params.phase
    states = []
    for kappa, branch in zip(kappa_roots(params), ("plus", "minus") if params.delta else ("single",)):
        kappa = kappa.item()
        if kappa <= KAPPA_MIN:  # NaN is kept, and refused below
            continue
        energy = -kappa * kappa / (2.0 * m)
        eta = ph * (params.gamma + params.delta * kappa / (2.0 * m))
        NonFiniteResult.check(kappa=kappa, energy=energy, eta=eta)
        states.append(BoundState(kappa, energy, eta, eta, 1.0 + 0.0j, branch))
    # A double root cannot occur over the reals; two surviving states are distinct.
    if len(states) == 2 and states[0].kappa == states[1].kappa:
        raise InvariantViolation(f"decay constants coincide: {[st.kappa for st in states]!r}")
    return sorted(states, key=lambda st: st.energy)


def phase_diagram_count(alpha, gamma, delta: float, beta: float | None = None):
    """Number of bound states on the (alpha, gamma, delta) slice: 0, 1, or 2.

    alpha and gamma are floats or arrays that broadcast together; floats
    give an int, arrays give an int array of the broadcast shape, so
    alpha[:, None] and gamma[None, :] count a whole grid in one call.

    For delta != 0, beta is pinned by the determinant constraint and roots
    above KAPPA_MIN are counted at mass 1: they are those of the upward
    parabola h(k) = (delta*k)^2 + 2*(alpha+gamma)*delta*k + 4*(alpha*gamma - 1),
    whose vertex is -(alpha+gamma)/delta. With K = KAPPA_MIN, h(K) < 0 puts
    one root above K; h(K) > 0 puts both on the vertex's side of K, so two
    when the vertex is above K and none otherwise. Both signs are read from
    floats where the rounding cannot change them, and a cell where it could,
    or where a term overflows, is counted in exact rationals. For delta = 0
    the slice is only meaningful when alpha*gamma = 1 at every point, and
    the sign of the single candidate root depends on beta, which the caller
    must supply; a beta given with delta != 0 would go unused and raises
    InvalidSlice. A NaN or infinite alpha, gamma, delta or beta raises
    InputError naming the field.
    """
    alpha, gamma = np.asarray(alpha, dtype=float), np.asarray(gamma, dtype=float)
    require_finite(alpha=alpha, gamma=gamma, delta=delta, beta=beta or 0.0)
    if delta != 0.0 and beta is not None:
        raise InvalidSlice("beta applies only to delta = 0; for delta != 0 alpha*gamma - beta*delta = 1 fixes it")
    if delta == 0.0:
        if (np.abs(alpha * gamma - 1.0) > CONSTRAINT_TOL).any():
            raise InvalidSlice(
                "delta = 0 requires alpha*gamma = 1 for a valid interaction"
            )
        if beta is None:
            raise InvalidSlice("delta = 0 needs an explicit beta to fix the root sign")
        count = (-2.0 * beta / (alpha + gamma) > KAPPA_MIN).astype(int)
    else:
        alpha, gamma = np.broadcast_arrays(alpha, gamma)
        # h is formed as s*h(K), s = 1 while |delta*K| < 1 and else the power of two that puts
        # delta*K*s in [0.5, 1), so (delta*K)^2 cannot overflow; the scaling is exact and keeps the sign.
        dk = delta * KAPPA_MIN
        s = math.ldexp(1.0, -max(math.frexp(dk)[1], 0))
        with np.errstate(over="ignore", invalid="ignore"):  # a cell that overflows is counted in rationals below
            trace, square = alpha + gamma, dk * (dk * s)
            linear, constant = trace * (2.0 * (dk * s)), 4.0 * (alpha * gamma - 1.0) * s
            h = square + linear + constant
            # To first order h errs by at most 2.5*eps*(square + |linear| + |constant| + 2s), plus its
            # underflows: in linear |trace|*2^-1074 <= 2^-50 (only where s = 1, as dk*s >= 0.5 otherwise)
            # and at most 2^-1072 elsewhere, while s >= 2^-985. The bound is wider to cover all of these
            # and its own rounding. As h(K) <= (delta*(K - vertex))^2, an h(K) > 0 past it puts the vertex
            # more than 3e-8*K from K, far beyond the rounding of trace/-delta.
            sure = np.abs(h) > 8.0 * _EPS * (square + 4.0 * s + np.abs(linear) + np.abs(constant))
            count = np.where(h < 0.0, 1, 2 * (trace / -delta > KAPPA_MIN))
        if not sure.all():
            from fractions import Fraction  # imported here, as the CLI starts without it

            d, k = Fraction(delta), Fraction(KAPPA_MIN)
            for cell in map(tuple, np.argwhere(~sure)):
                a, g = Fraction(alpha[cell]), Fraction(gamma[cell])
                h_k = (d * k) ** 2 + 2 * (a + g) * d * k + 4 * (a * g - 1)
                # At h(K) = 0, K is one root and 2*vertex - K the other, above K when the vertex is.
                count[cell] = 1 if h_k < 0 else (2 if h_k > 0 else 1) * (-(a + g) / d > k)
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
