"""Verification suites pairing each oracle with its closed-form counterpart.

Each suite returns ResidualReport rows plus free-form notes. Sample
counts and seeds are fixed so repeated runs produce identical reports.
Checks whose purpose is to reject corrupted input ("negative controls")
report an indicator residual: 0 when the corruption was detected, 1 when
it slipped through.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import diffraction, many_body, one_body, scattering, verify
from .core import InteractionParams, canonical_interaction, validate_params
from .errors import InputError
from .verify import ResidualReport

SUITE_NAMES = ("bound", "scatter", "nbody-boundary", "nbody-interior", "diffraction")

_SEED = 20240901

# Generic interaction with a two-state spectrum, used wherever a suite
# needs both branches populated.
_TWO_STATE = dict(alpha=-2.0, beta=3.0, gamma=-2.0, delta=1.0, theta=0.0, mass=0.5)


def _two_state_params(theta: float = 0.0) -> InteractionParams:
    kwargs = dict(_TWO_STATE)
    kwargs["theta"] = theta
    return validate_params(**kwargs)


def _drawn(params: InteractionParams, i: int, **at: float) -> dict:
    """worst_at for draw i of a batch: its index, any further input, then its parameter set."""
    return {"draw": i, **at, "params": {field: float(value[i]) for field, value in params.to_dict().items()}}


def run_bound_suite(draws: int = 1000) -> tuple[list[ResidualReport], list[str]]:
    """Closed-form spectra against bracketing root finding on random draws."""
    params = verify.random_params(np.random.default_rng(_SEED), draws)
    oracle = verify.oracle_bound_kappas(params)
    closed = np.sort(np.stack(one_body._kappa_roots(params), 1), axis=1).tolist()
    gaps = []
    for roots, row in zip(oracle, closed):
        kappas = [x for x in row if x > one_body.KAPPA_MIN]
        if len(roots) != len(kappas):
            gaps.append(1.0)  # the root counts differ
        else:
            gaps.append(max((abs(a - b) / max(1.0, abs(b)) for a, b in zip(roots, kappas)), default=0.0))
    i = int(np.argmax(gaps))
    report = ResidualReport.build(
        "bound-spectrum vs bracketing oracle", gaps[i], draws, 1e-10, worst_at=_drawn(params, i)
    )
    return [report], []


def run_scatter_suite(draws: int = 1000) -> tuple[list[ResidualReport], list[str]]:
    """Closed-form amplitudes against the matching solve, plus unitarity."""
    params, u = verify.random_params(np.random.default_rng(_SEED + 1), draws, extra=1)
    ks = 1e-3 + (10.0 - 1e-3) * u[:, 0]  # rng.uniform(1e-3, 10.0) after each draw
    amps = scattering.amplitudes(params, ks)
    t_minus, r_minus = verify.scattering_matching_oracle(params, ks, "minus")
    t_plus, r_plus = verify.scattering_matching_oracle(params, ks, "plus")
    gaps = [amps.t_minus - t_minus, amps.r_minus - r_minus, amps.t_plus - t_plus, amps.r_plus - r_plus]
    # np.hypot rounds like abs() of one complex value; np.abs on arrays may not
    match = np.max([np.hypot(z.real, z.imag) for z in gaps], axis=0)
    unitarity = scattering.unitarity_defect(amps)

    def report(name: str, residuals: np.ndarray, tolerance: float) -> ResidualReport:
        i = int(np.argmax(residuals))
        where = _drawn(params, i, k=float(ks[i]))
        return ResidualReport.build(name, residuals[i], draws, tolerance, worst_at=where)

    reports = [
        report("amplitudes vs matching oracle", match, 1e-12),
        report("flux conservation", unitarity, 1e-12),
    ]
    # Negative control: breaking the determinant constraint must break
    # unitarity (beta only enters the constraint when delta != 0).
    broken = replace(_two_state_params(), beta=3.1)
    defect = scattering.unitarity_defect(scattering.amplitudes(broken, 1.0))
    indicator = 0.0 if defect > 1e-3 else 1.0
    reports.append(
        ResidualReport.build("negative control: constraint break detected", indicator, 1, 0.5)
    )
    return reports, []


def run_nbody_boundary_suite(samples: int = 50) -> tuple[list[ResidualReport], list[str]]:
    """Boundary-condition residuals for three-body states on all three lines."""
    reports = []
    cases = [
        ("delta", canonical_interaction("delta", -2.0, 0.5)),
        ("two-state", _two_state_params(0.7)),
    ]
    for label, params in cases:
        for state in many_body.nbody_bound_states(params, 3):
            for line in ("x12", "x23", "x31"):
                rep = verify.boundary_residual_3body(params, state, line, samples)
                reports.append(
                    replace(rep, check_name=f"{label} {state.branch} {rep.check_name}")
                )
    params = cases[1][1]
    state = many_body.nbody_bound_states(params, 3)[0]
    corrupted = replace(state, c_odd=state.c_odd * 1.1)
    rep = verify.boundary_residual_3body(params, corrupted, "x12", samples)
    indicator = 0.0 if rep.max_residual > 1e-2 else 1.0
    reports.append(
        ResidualReport.build("negative control: corrupted coefficients detected", indicator, 1, 0.5)
    )
    return reports, []


def run_nbody_interior_suite(points: int = 100) -> tuple[list[ResidualReport], list[str]]:
    """Finite-difference eigenvalue residuals for N = 2..5.

    Each N's points are drawn once per call, shared by both parameter sets
    and kept no longer; every report equals interior_residual(params, state, points).
    """
    reports = []
    cases = [
        ("delta", canonical_interaction("delta", -2.0, 0.5)),
        ("two-state", _two_state_params()),
    ]
    draws = {n: verify.interior_draws(n, points) for n in range(2, 6)}
    for label, params in cases:
        for n in range(2, 6):
            for state in many_body.nbody_bound_states(params, n):
                rep = verify.interior_residual(params, state, draws=draws[n])
                reports.append(
                    replace(rep, check_name=f"{label} n={n} {state.branch} {rep.check_name}")
                )
    return reports, []


def _violators(rng: np.random.Generator, count: int) -> InteractionParams:
    """Fields (count, 1): delta-prime, then draws with max(|alpha-gamma|, |delta|, |sin theta|) >= 0.1."""
    fields = {name: [v] for name, v in canonical_interaction("delta_prime", -4.0, 1.0).to_dict().items()}
    while len(fields["mass"]) < count:
        batch = verify.random_params(rng, count - len(fields["mass"]))
        off = np.abs([batch.alpha - batch.gamma, batch.delta, np.sin(batch.theta)]).max(axis=0)
        for name, values in batch.to_dict().items():
            fields[name].extend(values[off >= 0.1].tolist())
    return validate_params(**{name: np.array(v)[:, None] for name, v in fields.items()})


def run_diffraction_suite(samples: int = 2000) -> tuple[list[ResidualReport], list[str]]:
    """No-diffraction residuals, violation detection, and the momentum identity."""
    reports = []
    for label, params in (
        ("delta", canonical_interaction("delta", -2.0, 0.5)),
        ("anti-delta", canonical_interaction("anti_delta", -2.0, 0.5)),
    ):
        max_res, _ = diffraction.no_diffraction_scan(params, samples)
        reports.append(
            ResidualReport.build(
                f"{label} diffraction-free sweep", max_res, samples, diffraction.NO_DIFFRACTION_TOL
            )
        )
    violators = _violators(np.random.default_rng(_SEED + 2), 20)
    points = diffraction.scan_points(64)
    kin = diffraction.ray_kinematics(points[:, 0], points[:, 1])
    residuals = diffraction.outgoing_amplitudes(violators, kin).residual_norm
    missed = int(np.sum(~np.any(residuals > 1e-6, axis=1)))
    reports.append(
        ResidualReport.build(
            "violating parameter sets show diffraction", float(missed), len(residuals), 0.5
        )
    )
    rng_phi = np.random.default_rng(_SEED + 3)
    n_phi = 10_000
    phis = rng_phi.uniform(1e-6, diffraction.PHI_MAX - 1e-6, size=n_phi)
    kin = diffraction.ray_kinematics(1.0, phis)
    worst_identity = np.max(np.abs(kin.k1 + kin.k3 - kin.k2))
    reports.append(
        ResidualReport.build("normal-momentum additivity", worst_identity, n_phi, 1e-15)
    )
    notes = [
        "momentum identity holds as k1 + k3 = k2 for the angle convention in use; "
        "the alternative ordering k1 + k2 = k3 does not hold."
    ]
    return reports, notes


_SUITES = {
    "bound": run_bound_suite,
    "scatter": run_scatter_suite,
    "nbody-boundary": run_nbody_boundary_suite,
    "nbody-interior": run_nbody_interior_suite,
    "diffraction": run_diffraction_suite,
}


def run_suite(name: str) -> tuple[list[ResidualReport], list[str]]:
    """Run one named suite, or all of them in declaration order."""
    if name == "all":
        reports: list[ResidualReport] = []
        notes: list[str] = []
        for suite_name in SUITE_NAMES:
            r, n = _SUITES[suite_name]()
            reports.extend(r)
            notes.extend(n)
        return reports, notes
    if name not in _SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return _SUITES[name]()
