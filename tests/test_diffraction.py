import math

import numpy as np
import pytest

from pointfam import diffraction
from pointfam.core import canonical_interaction, validate_params
from pointfam.diffraction import (
    NO_DIFFRACTION_TOL,
    no_diffraction_scan,
    outgoing_amplitudes,
    ray_kinematics,
    scan_points,
)
from pointfam.errors import GrazingAngle, InputError
from pointfam.scattering import amplitudes

DELTA = canonical_interaction("delta", -2.0, 0.5)
ANTI = canonical_interaction("anti_delta", -2.0, 0.5)
DELTA_PRIME = canonical_interaction("delta_prime", -4.0, 1.0)
GENERIC = validate_params(-2.0, 3.0, -2.0, 1.0, 0.0, 0.5)


def test_ray_kinematics_symmetric_point():
    kin = ray_kinematics(1.0, math.pi / 6.0)
    assert abs(kin.k1 - 0.5) <= 1e-15
    assert abs(kin.k3 - 0.5) <= 1e-15
    assert abs(kin.k2 - 1.0) <= 1e-15


def test_ray_kinematics_rejects_grazing():
    with pytest.raises(GrazingAngle):
        ray_kinematics(2.0, 0.0)
    with pytest.raises(GrazingAngle):
        ray_kinematics(2.0, math.pi / 3.0)
    with pytest.raises(GrazingAngle):
        ray_kinematics(2.0, -0.1)
    with pytest.raises(InputError):
        ray_kinematics(0.0, 0.3)


def test_normal_momentum_additivity(rng):
    for _ in range(2000):
        phi = float(rng.uniform(1e-9, math.pi / 3.0 - 1e-9))
        kin = ray_kinematics(1.0, phi)
        assert abs(kin.k1 + kin.k3 - kin.k2) <= 1e-15


def test_contact_potential_is_diffraction_free(rng):
    for _ in range(200):
        k = float(rng.uniform(0.05, 10.0))
        phi = float(rng.uniform(0.02, math.pi / 3.0 - 0.02))
        report = outgoing_amplitudes(DELTA, ray_kinematics(k, phi))
        assert report.residual_norm <= 1e-12


def test_anti_delta_matches_up_to_overall_sign(rng):
    for _ in range(100):
        k = float(rng.uniform(0.05, 10.0))
        phi = float(rng.uniform(0.02, math.pi / 3.0 - 0.02))
        kin = ray_kinematics(k, phi)
        a = outgoing_amplitudes(DELTA, kin)
        b = outgoing_amplitudes(ANTI, kin)
        assert b.residual_norm <= 1e-12
        assert abs(a.amp_two_path + b.amp_two_path) <= 1e-12
        assert abs(a.amp_one_path + b.amp_one_path) <= 1e-12


def test_generic_member_diffracts():
    report = outgoing_amplitudes(GENERIC, ray_kinematics(1.0, math.pi / 6.0))
    assert report.residual_norm > 1e-6
    assert abs(report.residual - (report.amp_two_path - report.amp_one_path)) == 0.0
    assert report.residual_norm == abs(report.residual)


def test_scan_delta_true_and_violations_false():
    max_res, verdict = no_diffraction_scan(DELTA, 500)
    assert verdict and max_res <= 1e-12
    max_res, verdict = no_diffraction_scan(DELTA_PRIME, 200)
    assert not verdict and max_res > 1e-6
    tilted = validate_params(-1.0, 2.0, -1.0, 0.0, math.pi + 0.01, 0.5)
    max_res, verdict = no_diffraction_scan(tilted, 200)
    assert not verdict and max_res > 1e-6


def test_scan_threshold_constant():
    assert NO_DIFFRACTION_TOL == 1e-10


def test_no_diffraction_family_sweep(rng):
    # every member with equal diagonal, no jump coupling, and a real phase
    for _ in range(5):
        g = float(rng.uniform(-3.0, 3.0))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        theta = 0.0 if rng.random() < 0.5 else math.pi
        p = validate_params(sign, sign * g, sign, 0.0, theta, float(rng.uniform(0.2, 2.0)))
        max_res, verdict = no_diffraction_scan(p, 2000)
        assert verdict, (p, max_res)


def test_middle_reflection_variants_agree_for_symmetric_members():
    kin = ray_kinematics(1.7, 0.4)
    for p in (DELTA, ANTI, DELTA_PRIME, GENERIC):
        a = outgoing_amplitudes(p, kin, "minus")
        b = outgoing_amplitudes(p, kin, "plus")
        # equal-diagonal members reflect identically from both sides
        assert abs(a.amp_two_path - b.amp_two_path) <= 1e-12


def test_middle_reflection_variants_differ_generically():
    p = validate_params(-2.0, 7.0, -4.0, 1.0, 0.4, 0.8)
    kin = ray_kinematics(1.3, 0.5)
    a = outgoing_amplitudes(p, kin, "minus")
    b = outgoing_amplitudes(p, kin, "plus")
    assert abs(a.amp_two_path - b.amp_two_path) > 1e-6
    assert a.amp_one_path == b.amp_one_path
    # both detect diffraction for violating parameter sets
    assert a.residual_norm > 1e-6 and b.residual_norm > 1e-6
    with pytest.raises(InputError):
        outgoing_amplitudes(p, kin, "sideways")


def test_cancellation_mechanism_closed_form(rng):
    # with no quadratic term and equal diagonal the reflection numerators are
    # k-independent, so the two-path sum telescopes onto the one-path product
    for _ in range(50):
        g = -float(rng.uniform(0.2, 3.0))
        m = float(rng.uniform(0.2, 2.0))
        p = canonical_interaction("delta", g, m)
        kin = ray_kinematics(float(rng.uniform(0.1, 8.0)), float(rng.uniform(0.05, 1.0)))
        amps = [amplitudes(p, k) for k in (kin.k1, kin.k2, kin.k3)]
        r = [x.r_plus for x in amps]
        lhs = r[1] * (r[0] * amps[2].t_minus + amps[0].t_minus * r[2])
        rhs = r[0] * amps[1].t_plus * r[2]
        assert abs(lhs - rhs) <= 1e-12


def test_residual_scale_invariance(rng):
    # rescaling k -> c k against m -> c m leaves every amplitude unchanged
    p = validate_params(-2.0, 3.0, -0.5, 0.0, 0.4, 0.8)
    scaled = validate_params(-2.0, 3.0, -0.5, 0.0, 0.4, 0.8 * 2.5)
    for _ in range(50):
        k = float(rng.uniform(0.1, 4.0))
        phi = float(rng.uniform(0.05, math.pi / 3.0 - 0.05))
        a = outgoing_amplitudes(p, ray_kinematics(k, phi))
        b = outgoing_amplitudes(scaled, ray_kinematics(2.5 * k, phi))
        assert abs(a.residual - b.residual) <= 1e-12 * max(1.0, abs(a.residual))


def test_scan_points_deterministic():
    assert scan_points(100).tolist() == scan_points(100).tolist()
    pts = scan_points(1000)
    assert all(0.0 < k <= 10.0 for k, _ in pts)
    assert all(0.01 < phi < math.pi / 3.0 - 0.01 + 1e-12 for _, phi in pts)
    with pytest.raises(InputError):
        scan_points(0)


def test_scan_points_are_the_halton_sequence():
    # radical inverses of 1, 2, 3 in bases 2 and 3, mapped into the scan box
    # k in [1e-3, 10], phi in [0.01, pi/3 - 0.01]
    unit = [(1 / 2, 1 / 3), (1 / 4, 2 / 3), (3 / 4, 1 / 9)]
    expected = [(1e-3 + (10.0 - 1e-3) * u, 0.01 + (math.pi / 3.0 - 0.02) * v) for u, v in unit]
    pts = scan_points(3)
    assert pts.shape == (3, 2)
    np.testing.assert_allclose(pts, expected, rtol=1e-15, atol=0.0)


def _digit_loop_radical_inverse(index, base):
    """Radical inverse of each index a digit at a time, lowest digit first: the reference for scan_points."""
    result = np.zeros(index.shape)
    scale = 1.0
    while np.any(index):
        scale /= base
        index, digit = np.divmod(index, base)
        result += digit * scale
    return result


@pytest.mark.parametrize("samples", [
    1, 2, 3, 8, 9, 26, 27, 28, 2**12 - 1, 2**12, 2**12 + 1, 3**8 - 1, 3**8, 3**8 + 1, 6000, 59049, 10**5,
])
def test_scan_points_equal_the_digit_loop(samples):
    index = np.arange(1, samples + 1)
    unit = np.column_stack((_digit_loop_radical_inverse(index, 2), _digit_loop_radical_inverse(index, 3)))
    expected = diffraction._SCAN_LO + (diffraction._SCAN_HI - diffraction._SCAN_LO) * unit
    points = scan_points(samples)
    assert points.shape == (samples, 2)
    assert points.tobytes() == expected.tobytes()


def test_array_kinematics_and_amplitudes_match_scalar_calls():
    pts = scan_points(200)
    kin = ray_kinematics(pts[:, 0], pts[:, 1])
    batch = outgoing_amplitudes(GENERIC, kin, "plus")
    assert batch.residual_norm.shape == (200,)
    for i, (k, phi) in enumerate(pts.tolist()):
        one_kin = ray_kinematics(k, phi)
        one = outgoing_amplitudes(GENERIC, one_kin, "plus")
        assert (kin.k1[i], kin.k2[i], kin.k3[i]) == (one_kin.k1, one_kin.k2, one_kin.k3)
        assert abs(batch.residual[i] - one.residual) <= 1e-15 * max(1.0, abs(one.residual))


def test_array_kinematics_reject_any_bad_entry():
    with pytest.raises(GrazingAngle):
        ray_kinematics(1.0, np.array([0.3, 0.0, 0.5]))
    with pytest.raises(InputError):
        ray_kinematics(np.array([1.0, -1.0]), 0.3)
    with pytest.raises(InputError):
        ray_kinematics(math.inf, 0.3)
    with pytest.raises(GrazingAngle):
        ray_kinematics(1.0, math.nan)


def test_repeated_scans_are_identical():
    assert no_diffraction_scan(GENERIC, 600) == no_diffraction_scan(GENERIC, 600)
