"""Verification suites pairing each oracle with its closed-form counterpart.

Each suite returns ResidualReport rows plus free-form notes. Sample
counts and seeds are constants of each suite, so repeated runs produce
identical reports. Items that one check takes as a batch go to it in one
call: the interior check gets every state of one N, the boundary check
every pair of one state, and no_diffraction_scan both contact sets in one
sweep and the violating sets in another. Checks whose purpose is to
reject corrupted input ("negative controls") are all made by _control:
an indicator residual, 0 when the corruption was detected and 1 when it
slipped through, with what the control measured in worst_at.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import diffraction, many_body, one_body, scattering, verify
from .core import PARAM_FIELDS, InteractionParams, canonical_interaction, validate_params
from .errors import InputError
from .verify import ResidualReport

_SEED = 20240901


def _two_state_params(theta: float = 0.0) -> InteractionParams:
    """Generic interaction with a two-state spectrum, used wherever a suite needs both branches populated."""
    return validate_params(-2.0, 3.0, -2.0, 1.0, theta, 0.5)


def _drawn(params: InteractionParams, i: int, **at: float) -> dict:
    """worst_at for draw i of a batch with fields of shape (P,) or (P, 1).

    Its index, any further input, then its parameter set.
    """
    return {"draw": i, **at, "params": {field: float(value.flat[i]) for field, value in params.to_dict().items()}}


def _control(name: str, residual: float, floor: float) -> ResidualReport:
    """The report of negative control name: detected (0) when residual exceeds floor, else missed (1)."""
    indicator = 0.0 if residual > floor else 1.0
    return ResidualReport.build(f"negative control: {name}", indicator, 1, 0.5, {"residual": residual})


def run_bound_suite() -> tuple[list[ResidualReport], list[str]]:
    """Closed-form spectra against bracketing root finding on random draws."""
    params = verify.random_params(np.random.default_rng(_SEED), 1000)
    oracle = verify.oracle_bound_kappas(params)
    closed = np.stack(one_body.kappa_roots(params), 1)  # padded with NaN as the oracle pads its pairs
    closed = np.sort(np.where(closed > one_body.KAPPA_MIN, closed, np.nan), axis=1)
    rel = np.abs(oracle - closed) / np.maximum(1.0, np.abs(closed))
    gaps = np.where(np.isnan(rel), 0.0, rel).max(axis=1)
    gaps[(np.isnan(oracle) != np.isnan(closed)).any(axis=1)] = 1.0  # the root counts differ
    return [ResidualReport.worst("bound-spectrum vs bracketing oracle", gaps, 1e-10, lambda i: _drawn(params, i))], []


def run_scatter_suite() -> tuple[list[ResidualReport], list[str]]:
    """Closed-form amplitudes against the matching solve, plus unitarity."""
    draws = 1000
    rng = np.random.default_rng(_SEED + 1)
    params = verify.random_params(rng, draws)
    ks = rng.uniform(1e-3, 10.0, draws)
    amps = scattering.amplitudes(params, ks)
    t_minus, r_minus, t_plus, r_plus = verify.scattering_matching_oracle(params, ks)
    gaps = [amps.t_minus - t_minus, amps.r_minus - r_minus, amps.t_plus - t_plus, amps.r_plus - r_plus]
    # np.hypot rounds like abs() of one complex value; np.abs on arrays may not
    match = np.max([np.hypot(z.real, z.imag) for z in gaps], axis=0)
    unitarity = scattering.unitarity_defect(amps)

    def worst_at(i: int) -> dict:
        return _drawn(params, i, k=float(ks[i]))

    reports = [
        ResidualReport.worst("amplitudes vs matching oracle", match, 1e-12, worst_at),
        ResidualReport.worst("flux conservation", unitarity, 1e-12, worst_at),
    ]
    # Negative control: breaking the determinant constraint must break
    # unitarity (beta only enters the constraint when delta != 0).
    broken = replace(_two_state_params(), beta=3.1)
    defect = float(scattering.unitarity_defect(scattering.amplitudes(broken, 1.0)))
    reports.append(_control("constraint break detected", defect, 1e-3))
    return reports, []


def run_nbody_boundary_suite() -> tuple[list[ResidualReport], list[str]]:
    """Boundary-condition residuals of three-body states on the cyclic pairs (1,2), (2,3), (3,1), a call per state."""
    reports = []
    cases = [
        ("delta", canonical_interaction("delta", -2.0, 0.5)),
        ("two-state", _two_state_params(0.7)),
    ]
    for label, params in cases:
        for state in many_body.nbody_bound_states(params, 3):
            for rep in verify.boundary_residual_nbody(params, state, (1, 2, 3), (2, 3, 1)):
                reports.append(replace(rep, check_name=f"{label} {state.branch} {rep.check_name}"))
    params = cases[1][1]
    state = many_body.nbody_bound_states(params, 3)[0]
    corrupted = replace(state, c_odd=state.c_odd * 1.1)
    rep = verify.boundary_residual_nbody(params, corrupted, 1, 2)
    reports.append(_control("corrupted coefficients detected", rep.max_residual, 1e-2))
    return reports, []


def run_nbody_interior_suite() -> tuple[list[ResidualReport], list[str]]:
    """Finite-difference eigenvalue residuals for N = 2..5, one interior_residual call per N for every state."""
    cases = {
        "delta": canonical_interaction("delta", -2.0, 0.5),
        "two-state": _two_state_params(),
    }
    reports = {label: [] for label in cases}  # listed case by case, then by N
    for n in range(2, 6):
        rows = [(label, params, state) for label, params in cases.items()
                for state in many_body.nbody_bound_states(params, n)]
        labels, sets, states = zip(*rows)
        for label, state, rep in zip(labels, states, verify.interior_residual(sets, states, 100)):
            reports[label].append(replace(rep, check_name=f"{label} n={n} {state.branch} {rep.check_name}"))
    return [rep for case in reports.values() for rep in case], []


def _violators(rng: np.random.Generator, count: int) -> InteractionParams:
    """Fields (count, 1): delta-prime, then draws with max(|alpha-gamma|, |delta|, |sin theta|) >= 0.1."""
    fields = {name: [v] for name, v in canonical_interaction("delta_prime", -4.0, 1.0).to_dict().items()}
    while len(fields["mass"]) < count:
        batch = verify.random_params(rng, count - len(fields["mass"]))
        off = np.abs([batch.alpha - batch.gamma, batch.delta, np.sin(batch.theta)]).max(axis=0)
        for name, values in batch.to_dict().items():
            fields[name].extend(values[off >= 0.1].tolist())
    return validate_params(**{name: np.array(v)[:, None] for name, v in fields.items()})


def run_diffraction_suite() -> tuple[list[ResidualReport], list[str]]:
    """No-diffraction residuals of both contact sets from one scan, violation detection, and the momentum identity."""
    samples = 2000
    labels = ("delta", "anti-delta")
    contact = [canonical_interaction("delta", -2.0, 0.5), canonical_interaction("anti_delta", -2.0, 0.5)]
    stacked = validate_params(**{name: np.array([[getattr(p, name)] for p in contact]) for name in PARAM_FIELDS})
    max_res, _ = diffraction.no_diffraction_scan(stacked, samples)  # one sweep for both sets
    reports = [
        ResidualReport.build(f"{label} diffraction-free sweep", res, samples, diffraction.NO_DIFFRACTION_TOL)
        for label, res in zip(labels, max_res)
    ]
    violators = _violators(np.random.default_rng(_SEED + 2), 20)
    peaks = np.array(diffraction.no_diffraction_scan(violators, 64)[0])
    missed = int(np.sum(~(peaks > 1e-6)))
    weakest = int(np.argmin(peaks))
    reports.append(
        ResidualReport.build(
            "violating parameter sets show diffraction", float(missed), len(peaks), 0.5,
            _drawn(violators, weakest, residual=float(peaks[weakest])),
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
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> tuple[list[ResidualReport], list[str]]:
    """Run one named suite, or all of them in declaration order."""
    if name != "all" and name not in _SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    reports, notes = [], []
    for suite_name in SUITE_NAMES if name == "all" else (name,):
        r, n = _SUITES[suite_name]()  # looked up per call: perfbench's tracer patches _SUITES
        reports += r
        notes += n
    return reports, notes
