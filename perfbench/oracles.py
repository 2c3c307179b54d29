"""Reference values computed apart from pointfam, and the output checks built on them.

Nothing here imports pointfam. Bound-state roots, plane-wave matching
solves, jump ratios, ray products and N-body energies are recomputed with
mpmath at 40 digits from the raw parameter values; phase-diagram counts
come from an exact sign analysis of the decay-rate quadratic; the N-body
parity rule is recomputed from a cycle decomposition of each ordering.

Every check returns a list of problems (empty when the output is right),
so the self-test can feed each one a corrupted output and see it fail.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from mpmath import mp, mpc, mpf

mp.dps = 40

KAPPA_MIN = 1e-12  # roots at or below this are non-normalizable (documented in one_body)
UNITARITY_TOL = 1e-12
AMPLITUDE_TOL = 1e-12
KAPPA_RTOL = 1e-14
PSI_RTOL = 1e-12
NO_DIFFRACTION_TOL = 1e-10
DIFFRACTION_SEEN = 1e-6

SCATTER_COLUMNS = ["k", "|T|^2", "|R|^2", "re(T+)", "im(T+)", "re(R+)", "im(R+)", "re(R-)", "im(R-)"]
PARAM_FIELDS = ("alpha", "beta", "gamma", "delta", "theta", "mass")


# --- parsing -----------------------------------------------------------------

def _reject_constant(token: str):
    raise ValueError(f"non-finite token {token}")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"number {token} overflows a double")
    return value


def strict_json(text: str):
    """Parse JSON that may hold only finite numbers; raises ValueError otherwise."""
    return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)


def parse_csv(text: str, columns: list[str]) -> list[list[float]]:
    lines = text.splitlines()
    if not lines or lines[0].split(",") != columns:
        raise ValueError(f"header is not {','.join(columns)}")
    rows = []
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        if len(cells) != len(columns):
            raise ValueError(f"row has {len(cells)} cells: {line[:80]!r}")
        if not all(math.isfinite(c) for c in cells):
            raise ValueError(f"non-finite cell: {line[:80]!r}")
        rows.append(cells)
    return rows


def _parse(problems: list[str], parser, *args):
    try:
        return parser(*args)
    except (ValueError, TypeError) as exc:
        problems.append(f"unparseable output: {exc}")
        return None


# --- references --------------------------------------------------------------

def _mp_params(p: dict):
    return tuple(mpf(p[k]) for k in PARAM_FIELDS)


def _phase(theta) -> mpc:
    return mpc(mp.cos(theta), mp.sin(theta))


def bound_kappas(p: dict) -> list:
    """Positive roots above KAPPA_MIN of delta k^2 + 2(alpha+gamma) k m + 4 beta m^2, largest first."""
    a, b, g, d, _, m = _mp_params(p)
    if d == 0:
        roots = [-2 * b * m / (a + g)]
    else:
        lin = 2 * (a + g) * m
        s = mp.sqrt(lin * lin - 16 * d * b * m * m)
        roots = [(-lin + s) / (2 * d), (-lin - s) / (2 * d)]
    return sorted((r for r in roots if r > KAPPA_MIN), reverse=True)


def jump_ratio(p: dict, kappa) -> mpc:
    """eta = psi(+0)/psi(-0) = e^{i theta} (gamma + delta kappa / (2m))."""
    _, _, g, d, th, m = _mp_params(p)
    return _phase(th) * (g + d * kappa / (2 * m))


def matching_solve(p: dict, k: float, incidence: str) -> tuple[mpc, mpc]:
    """(t, r) from the boundary condition applied to the two-sided plane-wave ansatz.

    The condition maps (psi'(-0), 2m psi(-0)) to (psi'(+0), 2m psi(+0))
    through e^{i theta} [[alpha, beta], [delta, gamma]]. "minus" sends a unit
    wave in from the left, "plus" from the right. Solved by Cramer's rule.
    """
    a, b, g, d, th, m = _mp_params(p)
    ph = _phase(th)
    ik = mpc(0, mpf(k))
    m2 = 2 * m
    if incidence == "minus":
        # left: e^{ikx} + r e^{-ikx}, right: t e^{ikx}
        rows = (
            (ik, ph * (a * ik - b * m2), ph * (a * ik + b * m2)),
            (m2, ph * (d * ik - g * m2), ph * (d * ik + g * m2)),
        )
    else:
        # right: e^{-ikx} + r e^{ikx}, left: t e^{-ikx}
        rows = (
            (ph * (a * ik - b * m2), ik, ik),
            (ph * (d * ik - g * m2), m2, -m2),
        )
    (p11, p12, q1), (p21, p22, q2) = rows
    det = p11 * p22 - p12 * p21
    return (q1 * p22 - p12 * q2) / det, (p11 * q2 - q1 * p21) / det


def positive_root_count(alpha: float, gamma: float, delta: float) -> int:
    """Number of roots above KAPPA_MIN of the decay-rate quadratic on a delta != 0 slice.

    With beta pinned by the constraint, the roots are those of
    q(k) = delta^2 k^2 + 2 (alpha+gamma) delta k + 4 (alpha gamma - 1), m = 1.
    The count follows from the sign of q at the threshold and the side of the
    vertex; floats decide when the margins are wide, exact rationals otherwise.
    """
    t = KAPPA_MIN
    q = delta * delta * t * t + 2.0 * (alpha + gamma) * delta * t + 4.0 * (alpha * gamma - 1.0)
    v = -(alpha + gamma) / delta
    if abs(q) > 1e-9 and abs(v - t) > 1e-9:
        q_sign, v_above = (q > 0) - (q < 0), v > t
    else:
        A, G, D, T = Fraction(alpha), Fraction(gamma), Fraction(delta), Fraction(t)
        qx = D * D * T * T + 2 * (A + G) * D * T + 4 * (A * G - 1)
        q_sign, v_above = (qx > 0) - (qx < 0), -(A + G) / D > T
        if q_sign == 0:
            return 1 if 2 * (-(A + G) / D) - T > T else 0
    if q_sign < 0:
        return 1
    return 2 if v_above else 0


def permutation_sign(coords: list[float]) -> int:
    """Sign of the ordering of particles by descending coordinate, from its cycles."""
    order = sorted(range(len(coords)), key=lambda i: -coords[i])
    seen = [False] * len(order)
    sign = 1
    for start in range(len(order)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = order[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


# --- helpers -----------------------------------------------------------------

def _close(problems, what, got, want, tol):
    if not abs(got - want) <= tol:
        problems.append(f"{what}: got {got!r}, expected {complex(want) if isinstance(want, mpc) else float(want)!r}")


def _rel(want) -> float:
    return max(1.0, float(abs(want)))


def _grid(lo, step, count):
    return [lo + i * step for i in range(count)]


# --- per-subcommand checks ---------------------------------------------------

def check_params_echo(spec, out):
    problems = []
    data = _parse(problems, strict_json, out)
    if data is not None and (list(data) != list(PARAM_FIELDS) or any(
        float(data[k]) != spec["params"][k] for k in PARAM_FIELDS
    )):
        problems.append(f"params-check echo {data!r} differs from the input {spec['params']!r}")
    return problems


def _check_states(problems, p, states, kappas, energy_of):
    if len(states) != len(kappas):
        problems.append(f"{len(states)} states, expected {len(kappas)} (roots {[float(k) for k in kappas]})")
        return
    for i, (st, kappa) in enumerate(zip(states, kappas)):
        eta = jump_ratio(p, kappa)
        _close(problems, f"state {i} kappa", st["kappa"], kappa, KAPPA_RTOL * float(kappa))
        energy = energy_of(kappa)
        _close(problems, f"state {i} energy", st["energy"], energy, KAPPA_RTOL * abs(float(energy)))
        _close(problems, f"state {i} eta", complex(st["eta_re"], st["eta_im"]), eta, AMPLITUDE_TOL * _rel(eta))


def check_bound(spec, out):
    problems = []
    data = _parse(problems, strict_json, out)
    if data is None:
        return problems
    p = spec["params"]
    m = mpf(p["mass"])
    _check_states(problems, p, data.get("states", []), bound_kappas(p), lambda k: -k * k / (2 * m))
    return problems


def check_nbody(spec, out):
    problems = []
    data = _parse(problems, strict_json, out)
    if data is None:
        return problems
    p, n = spec["params"], spec["n"]
    m = mpf(p["mass"])
    states = data.get("states", [])
    kappas = bound_kappas(p)
    _check_states(problems, p, states, kappas, lambda k: -k * k * n * (n * n - 1) / (12 * m))
    for i, (st, kappa) in enumerate(zip(states, kappas)):
        eta = jump_ratio(p, kappa)
        _close(problems, f"state {i} c_even", complex(st["c_even_re"], st["c_even_im"]), 1, AMPLITUDE_TOL)
        c_odd = 1 / eta
        _close(problems, f"state {i} c_odd", complex(st["c_odd_re"], st["c_odd_im"]), c_odd, AMPLITUDE_TOL * _rel(c_odd))
        symmetry = "symmetric" if abs(eta - 1) <= 1e-12 else "antisymmetric" if abs(eta + 1) <= 1e-12 else "none"
        if st["symmetry"] != symmetry:
            problems.append(f"state {i} symmetry {st['symmetry']!r}, expected {symmetry!r}")
    return problems


def check_scatter(spec, out, sample_rows):
    """Unitarity on every row; an mpmath matching solve on the given row indices."""
    problems = []
    rows = _parse(problems, parse_csv, out, SCATTER_COLUMNS)
    if rows is None:
        return problems
    if len(rows) != spec["count"]:
        return problems + [f"{len(rows)} rows, expected {spec['count']}"]
    for i, (k, t2, r2, tre, tim, rpre, rpim, rmre, rmim) in enumerate(rows):
        want_k = spec["lo"] + i * spec["step"]
        if not abs(k - want_k) <= 1e-12 * want_k:
            problems.append(f"row {i}: k = {k!r}, expected {want_k!r}")
        t_mod2 = tre * tre + tim * tim
        for what, value in (
            ("|T|^2 column vs re/im", t2 - t_mod2),
            ("|R|^2 column vs re/im", r2 - (rpre * rpre + rpim * rpim)),
            ("|T|^2 + |R|^2 - 1", t2 + r2 - 1.0),
            ("|T|^2 + |R-|^2 - 1", t_mod2 + rmre * rmre + rmim * rmim - 1.0),
        ):
            if not abs(value) <= UNITARITY_TOL:
                problems.append(f"row {i} (k = {k!r}): {what} = {value!r}")
    p = spec["params"]
    for i in sample_rows:
        k = rows[i][0]
        t_plus, r_plus = matching_solve(p, k, "plus")
        _, r_minus = matching_solve(p, k, "minus")
        for what, got, want in (
            ("T+", complex(rows[i][3], rows[i][4]), t_plus),
            ("R+", complex(rows[i][5], rows[i][6]), r_plus),
            ("R-", complex(rows[i][7], rows[i][8]), r_minus),
        ):
            _close(problems, f"row {i} (k = {k!r}) {what} vs matching solve", got, want, AMPLITUDE_TOL)
    return problems


def check_phase_diagram(spec, out):
    problems = []
    rows = _parse(problems, parse_csv, out, ["alpha", "gamma", "count"])
    if rows is None:
        return problems
    alphas, gammas = _grid(*spec["alpha"]), _grid(*spec["gamma"])
    if len(rows) != len(alphas) * len(gammas):
        return problems + [f"{len(rows)} rows, expected {len(alphas) * len(gammas)}"]
    delta = spec["delta"]
    for i, (alpha, gamma, count) in enumerate(rows):
        want_a, want_g = alphas[i // len(gammas)], gammas[i % len(gammas)]
        if not (abs(alpha - want_a) <= 1e-12 and abs(gamma - want_g) <= 1e-12):
            problems.append(f"row {i}: grid point ({alpha!r}, {gamma!r}), expected ({want_a!r}, {want_g!r})")
            continue
        want = positive_root_count(alpha, gamma, delta)
        if count != want:
            problems.append(f"({alpha!r}, {gamma!r}, delta={delta!r}): count {count:g}, expected {want}")
    return problems


def check_nbody_eval(spec, out):
    problems = []
    n = spec["n"]
    columns = [f"x{i}" for i in range(1, n + 1)] + ["re(psi)", "im(psi)"]
    rows = _parse(problems, parse_csv, out, columns)
    if rows is None:
        return problems
    if len(rows) != len(spec["points"]):
        return problems + [f"{len(rows)} rows, expected {len(spec['points'])}"]
    p = spec["params"]
    kappa_mp = bound_kappas(p)[spec["index"]]
    kappa = float(kappa_mp)
    c_odd = complex(1 / jump_ratio(p, kappa_mp))
    for i, (row, pt) in enumerate(zip(rows, spec["points"])):
        if row[:n] != pt:
            problems.append(f"row {i}: coordinates {row[:n]!r} differ from the input {pt!r}")
            continue
        coeff = 1.0 if permutation_sign(pt) > 0 else c_odd
        total = math.fsum(abs(pt[a] - pt[b]) for a in range(n) for b in range(a + 1, n))
        psi = coeff * math.exp(-kappa * total / math.sqrt(2.0))
        got = complex(row[n], row[n + 1])
        if not abs(got - psi) <= PSI_RTOL * abs(psi):
            problems.append(f"row {i} at {pt!r}: psi = {got!r}, parity rule gives {psi!r}")
    return problems


def check_diffraction(spec, out):
    problems = []
    data = _parse(problems, strict_json, out)
    if data is None:
        return problems
    p, k, phi = spec["params"], spec["k"], spec["phi"]
    third = mp.pi / 3
    ks = [mpf(k) * mp.sin(a) for a in (mpf(phi), mpf(phi) + third, third - mpf(phi))]
    for name, want in zip(("k1", "k2", "k3"), ks):
        _close(problems, name, data[name], want, 1e-13 * k)
    amp = {}
    for i, ki in enumerate(ks, start=1):
        for side in ("minus", "plus"):
            amp[i, side] = matching_solve(p, float(ki), side)  # (t, r)
    t = lambda i, s: amp[i, s][0]  # noqa: E731
    r = lambda i, s: amp[i, s][1]  # noqa: E731
    two = r(1, "minus") * r(2, "minus") * t(3, "minus") + t(1, "minus") * r(2, spec["middle"]) * r(3, "plus")
    one = r(3, "minus") * t(2, "plus") * r(1, "plus")
    _close(problems, "two-path amplitude", complex(data["amp_two_path_re"], data["amp_two_path_im"]), two, AMPLITUDE_TOL)
    _close(problems, "one-path amplitude", complex(data["amp_one_path_re"], data["amp_one_path_im"]), one, AMPLITUDE_TOL)
    _close(problems, "residual", complex(data["residual_re"], data["residual_im"]), two - one, AMPLITUDE_TOL)
    _close(problems, "residual norm", data["residual_norm"], abs(two - one), AMPLITUDE_TOL)
    if data["middle_reflection"] != spec["middle"]:
        problems.append(f"middle_reflection {data['middle_reflection']!r}, expected {spec['middle']!r}")
    return problems


def check_diffraction_scan(spec, out):
    """Diffraction-free sets must pass at round-off; a generic set must show diffraction."""
    problems = []
    data = _parse(problems, strict_json, out)
    if data is None:
        return problems
    if data["samples"] != spec["samples"]:
        problems.append(f"samples {data['samples']!r}, expected {spec['samples']}")
    if spec["free"]:
        if not (data["verdict"] is True and data["max_residual"] <= NO_DIFFRACTION_TOL):
            problems.append(f"contact-family set: verdict {data['verdict']!r}, residual {data['max_residual']!r}")
    elif not (data["verdict"] is False and data["max_residual"] > DIFFRACTION_SEEN):
        problems.append(f"generic set: verdict {data['verdict']!r}, residual {data['max_residual']!r}")
    return problems


def check_mcguire(spec, out):
    problems = []
    data = _parse(problems, strict_json, out)
    if data is None:
        return problems
    g0, m, n = mpf(spec["g0"]), mpf(spec["mass"]), spec["n"]
    want = {
        "kappa": -g0 * m / mp.sqrt(2),
        "energy": -g0 * g0 * m * n * (n * n - 1) / 24,
        "g": g0 / mp.sqrt(2),
        "g_mcguire": -g0 * mp.sqrt(2),
        "g_cd": -g0,
    }
    for name, value in want.items():
        _close(problems, name, data[name], value, 1e-14 * _rel(value))
    if (data["g0"], data["mass"], data["n"]) != (spec["g0"], spec["mass"], n):
        problems.append("mcguire does not echo g0, mass and n")
    return problems


def check_verify_checks(checks: list[dict]) -> list[str]:
    """Every check passes by its own tolerance and every negative control reads 0."""
    problems = []
    if not checks:
        problems.append("no checks reported")
    for c in checks:
        name, value, tol = c["check_name"], c["max_residual"], c["tolerance"]
        if not (c["passed"] is True and math.isfinite(value) and value <= tol):
            problems.append(f"{name}: passed={c['passed']!r}, max={value!r}, tol={tol!r}")
        if name.startswith("negative control") and value != 0.0:
            problems.append(f"{name}: reads {value!r}, expected 0")
    return problems


def check_verify_cli(spec, out):
    """The JSON report on stdout, which starts at the first line that is '{' (a table may precede it)."""
    lines = out.splitlines()
    if "{" not in lines:
        return ["no JSON object in verify output"]
    problems = []
    data = _parse(problems, strict_json, "\n".join(lines[lines.index("{"):]))
    if data is None:
        return problems
    if data["suite"] != spec["suite"] or data["all_passed"] is not True:
        problems.append(f"suite {data['suite']!r}, all_passed {data['all_passed']!r}")
    return problems + check_verify_checks(data["checks"])


# Names of checks whose presence shows that every suite ran.
VERIFY_EXPECTED = (
    "bound-spectrum vs bracketing oracle",
    "amplitudes vs matching oracle",
    "flux conservation",
    "negative control: constraint break detected",
    "boundary-condition x12",
    "negative control: corrupted coefficients detected",
    "interior-eigenvalue",
    "diffraction-free sweep",
    "violating parameter sets show diffraction",
    "normal-momentum additivity",
)


def check_verify_all(checks: list[dict]) -> list[str]:
    problems = check_verify_checks(checks)
    names = [c["check_name"] for c in checks]
    for want in VERIFY_EXPECTED:
        if not any(want in name for name in names):
            problems.append(f"no check named like {want!r}")
    return problems


def robust_outcome(rc: int, out: str, err: str) -> str | None:
    """None when a bad input ends well: finite JSON, or exit 1 with a one-line error."""
    if rc == 0:
        try:
            strict_json(out)
        except ValueError as exc:
            return f"exit 0 with invalid output: {exc}"
        return None
    lines = err.strip().splitlines()
    if rc == 1 and len(lines) == 1 and "Traceback" not in err:
        return None
    return f"exit {rc}, stderr {err.strip()[-200:]!r}"
