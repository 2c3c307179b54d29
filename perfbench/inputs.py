"""Seeded inputs for the benchmark workloads.

Everything here uses the standard library only, so generating inputs inside
a timed set-up never imports numpy, scipy or mpmath ahead of pointfam. The
same seed always gives the same files and argument lists. Parameter sets are
drawn so that every subcommand succeeds on them: no vanishing jump ratio,
no bound state near the non-normalizable threshold, no coincident particle
coordinates.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

PHI_MAX = math.pi / 3.0

# Sizes of one sweep pass (about 1 s on a 2-vCPU host).
SCAN_SAMPLES = 6000
SCATTER_POINTS = 10_000
PHASE_POINTS = 201  # per axis
EVAL_POINTS = {3: 3000, 8: 2000}

# Sizes of the interactive-size cli-mix calls.
MIX_SCATTER_POINTS = 32
MIX_PHASE_POINTS = 21
MIX_EVAL_POINTS = 20
MIX_SCAN_SAMPLES = 500


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"pointfam-bench:{workload}:{seed}")


def contact_params(rng: random.Random, kind: str) -> dict:
    """The contact potential ("delta") or its sign-reversed twin ("anti_delta")."""
    g = rng.uniform(-3.0, -0.5)
    mass = rng.uniform(0.3, 2.0)
    if kind == "delta":
        return dict(alpha=-1.0, beta=-g, gamma=-1.0, delta=0.0, theta=math.pi, mass=mass)
    return dict(alpha=1.0, beta=g, gamma=1.0, delta=0.0, theta=math.pi, mass=mass)


def generic_params(rng: random.Random) -> dict:
    """A member with delta != 0, far from the diffraction-free family."""
    while True:
        alpha = rng.uniform(-3.0, 3.0)
        gamma = rng.uniform(-3.0, 3.0)
        if abs(alpha + gamma) < 0.2:
            continue
        delta = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 3.0)
        return dict(
            alpha=alpha,
            beta=(alpha * gamma - 1.0) / delta,
            gamma=gamma,
            delta=delta,
            theta=rng.uniform(0.0, 2.0 * math.pi),
            mass=rng.uniform(0.3, 2.0),
        )


def float_kappas(p: dict) -> list[float]:
    """Positive roots of the decay-rate quadratic in plain floats, largest first.

    Only used to pick well-conditioned inputs; the checks use mpmath.
    """
    a, b, g, d, m = p["alpha"], p["beta"], p["gamma"], p["delta"], p["mass"]
    s = math.hypot(a - g, 2.0)
    roots = [m * (-(a + g) + s) / d, m * (-(a + g) - s) / d]
    return sorted((r for r in roots if r > 0.0), reverse=True)


def bound_params(rng: random.Random) -> tuple[dict, int, float]:
    """A generic member with at least one bound state; returns (params, state index, kappa).

    States are ordered lowest energy first, i.e. largest kappa first.
    """
    while True:
        p = generic_params(rng)
        kappas = float_kappas(p)
        if not kappas or any(k < 0.3 or k > 3.0 for k in kappas):
            continue
        if any(abs(p["gamma"] + p["delta"] * k / (2.0 * p["mass"])) < 0.3 for k in kappas):
            continue  # jump ratio near zero makes the odd coefficient blow up
        index = rng.randrange(len(kappas))
        return p, index, kappas[index]


def points(rng: random.Random, n: int, count: int, half_width: float) -> list[list[float]]:
    """Particle coordinates uniform in [-half_width, half_width], no two closer than 1e-9."""
    rows = []
    while len(rows) < count:
        row = [rng.uniform(-half_width, half_width) for _ in range(n)]
        ordered = sorted(row)
        if all(b - a > 1e-9 for a, b in zip(ordered, ordered[1:])):
            rows.append(row)
    return rows


def span(rng: random.Random, lo_range: tuple[float, float], step_range: tuple[float, float], count: int):
    """A lo:hi:step range with exactly `count` values; returns (text, lo, step)."""
    lo = rng.uniform(*lo_range)
    step = rng.uniform(*step_range)
    hi = lo + (count - 1) * step
    return f"{lo!r}:{hi!r}:{step!r}", lo, step


def write_params(path: Path, p: dict) -> str:
    path.write_text(json.dumps(p), encoding="utf-8")
    return str(path)


def write_points(path: Path, rows: list[list[float]]) -> str:
    n = len(rows[0])
    lines = [",".join(f"x{i}" for i in range(1, n + 1))]
    lines += [",".join(repr(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def sweep_inputs(seed: int, workdir: Path) -> list[dict]:
    """The commands of one sweep pass, each {label, argv, spec}; files go to workdir."""
    rng = rng_for("sweep", seed)
    workdir.mkdir(parents=True, exist_ok=True)
    cmds = []
    for label, p in (
        ("scan-contact", contact_params(rng, "delta")),
        ("scan-reversed", contact_params(rng, "anti_delta")),
        ("scan-generic", generic_params(rng)),
    ):
        path = write_params(workdir / f"{label}.json", p)
        cmds.append(dict(
            label=label,
            argv=["diffraction-scan", "--params", path, "--samples", str(SCAN_SAMPLES)],
            spec=dict(params=p, samples=SCAN_SAMPLES, free=label != "scan-generic"),
        ))

    p = generic_params(rng)
    text, lo, step = span(rng, (1e-3, 0.05), (0.004, 0.012), SCATTER_POINTS)
    cmds.append(dict(
        label="scatter",
        argv=["scatter", "--params", write_params(workdir / "scatter.json", p), f"--k-range={text}"],
        spec=dict(params=p, lo=lo, step=step, count=SCATTER_POINTS),
    ))

    delta = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    a_text, a_lo, a_step = span(rng, (-4.5, -3.5), (0.035, 0.045), PHASE_POINTS)
    g_text, g_lo, g_step = span(rng, (-4.5, -3.5), (0.035, 0.045), PHASE_POINTS)
    cmds.append(dict(
        label="phase-diagram",
        argv=["phase-diagram", f"--delta={delta!r}", f"--alpha={a_text}", f"--gamma={g_text}"],
        spec=dict(delta=delta, alpha=(a_lo, a_step, PHASE_POINTS), gamma=(g_lo, g_step, PHASE_POINTS)),
    ))

    p, index, kappa = bound_params(rng)
    params_path = write_params(workdir / "nbody.json", p)
    for n, count in EVAL_POINTS.items():
        # Keep kappa * (sum of pair distances) moderate so psi stays far from underflow.
        rows = points(rng, n, count, (1.5 if n == 3 else 0.5) / kappa)
        cmds.append(dict(
            label=f"nbody-eval-{n}",
            argv=[
                "nbody-eval", "--params", params_path, "--n", str(n),
                "--state-index", str(index), "--points", write_points(workdir / f"points{n}.csv", rows),
            ],
            spec=dict(params=p, n=n, index=index, points=rows),
        ))
    return cmds


# Inputs that the program's input checks let through today. Each must end
# in finite, valid JSON or in exit 1 with a one-line error. They do not
# depend on the seed, so they fail in every round of every run until fixed.
ROBUSTNESS_INPUTS = (
    ("params-check-nan-theta", "params-check",
     dict(alpha=1.0, beta=0.0, gamma=1.0, delta=0.0, theta=float("nan"), mass=1.0), []),
    ("nbody-huge-mass", "nbody",
     dict(alpha=-1.0, beta=2.0, gamma=-1.0, delta=0.0, theta=math.pi, mass=1e308), ["--n", "4"]),
    ("bound-tiny-delta", "bound",
     dict(alpha=-1.0, beta=-2.0, gamma=-1.0, delta=1e-300, theta=math.pi, mass=1.0), []),
)


def cli_mix_inputs(seed: int, workdir: Path) -> list[dict]:
    """One round of cli-mix calls, each {label, argv, spec, robust}; files go to workdir."""
    rng = rng_for("cli-mix", seed)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []

    def add(label, argv, robust=False, **spec):
        ops.append(dict(label=label, argv=argv, spec=spec, robust=robust))

    generic = generic_params(rng)
    generic_path = write_params(workdir / "generic.json", generic)
    bound, index, kappa = bound_params(rng)
    bound_path = write_params(workdir / "bound.json", bound)
    contact = contact_params(rng, rng.choice(("delta", "anti_delta")))

    add("params-check", ["params-check", "--params", generic_path], params=generic)
    add("bound", ["bound", "--params", bound_path], params=bound)
    text, lo, step = span(rng, (0.05, 0.5), (0.05, 0.3), MIX_SCATTER_POINTS)
    add("scatter", ["scatter", "--params", generic_path, f"--k-range={text}"],
        params=generic, lo=lo, step=step, count=MIX_SCATTER_POINTS)
    delta = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    a_text, a_lo, a_step = span(rng, (-3.0, -2.0), (0.2, 0.3), MIX_PHASE_POINTS)
    g_text, g_lo, g_step = span(rng, (-3.0, -2.0), (0.2, 0.3), MIX_PHASE_POINTS)
    add("phase-diagram",
        ["phase-diagram", f"--delta={delta!r}", f"--alpha={a_text}", f"--gamma={g_text}"],
        delta=delta, alpha=(a_lo, a_step, MIX_PHASE_POINTS), gamma=(g_lo, g_step, MIX_PHASE_POINTS))
    n = rng.randint(3, 8)
    add("nbody", ["nbody", "--params", bound_path, "--n", str(n)], params=bound, n=n)
    rows = points(rng, 3, MIX_EVAL_POINTS, 1.5 / kappa)
    add("nbody-eval",
        ["nbody-eval", "--params", bound_path, "--n", "3", "--state-index", str(index),
         "--points", write_points(workdir / "points3.csv", rows)],
        params=bound, n=3, index=index, points=rows)
    k = rng.uniform(0.2, 5.0)
    phi = rng.uniform(0.05, PHI_MAX - 0.05)
    middle = rng.choice(("minus", "plus"))
    add("diffraction",
        ["diffraction", "--params", generic_path, f"--k={k!r}", f"--phi={phi!r}",
         "--middle-reflection", middle],
        params=generic, k=k, phi=phi, middle=middle)
    add("diffraction-scan",
        ["diffraction-scan", "--params", write_params(workdir / "contact.json", contact),
         "--samples", str(MIX_SCAN_SAMPLES)],
        params=contact, samples=MIX_SCAN_SAMPLES, free=True)
    g0 = rng.uniform(-3.0, -0.5)
    mass = rng.uniform(0.3, 2.0)
    n_mg = rng.randint(2, 12)
    add("mcguire", ["mcguire", f"--g0={g0!r}", f"--mass={mass!r}", "--n", str(n_mg)],
        g0=g0, mass=mass, n=n_mg)
    add("verify", ["verify", "--suite", "nbody-boundary"], suite="nbody-boundary")

    for label, command, p, extra in ROBUSTNESS_INPUTS:
        path = workdir / f"{label}.json"
        path.write_text(json.dumps(p), encoding="utf-8")  # json writes NaN as the bare token
        add(label, [command, "--params", str(path), *extra], robust=True)
    return ops
