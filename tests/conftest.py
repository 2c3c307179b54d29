import numpy as np
import pytest

from pointfam.core import CONSTRAINT_TOL, PARAM_FIELDS, InteractionParams, validate_params

_ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, passed in sorted(_ACCEPTANCE_LINES):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} {name}: {status}")


@pytest.fixture
def record_criterion():
    """Collect one pass/fail line per acceptance criterion for the run summary."""

    def _record(number: int, name: str, passed: bool) -> None:
        _ACCEPTANCE_LINES.append((number, name, bool(passed)))
        print(f"criterion {number:2d} {name}: {'PASS' if passed else 'FAIL'}")

    return _record


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def brute_force_root_count(alpha, gamma, delta, mass=1.0, nk=2048):
    """Count positive roots of the decay-rate polynomial by dense sign sampling.

    Independent of the closed-form classifier: beta comes from the
    constraint, the scan interval from explicit root bounds, and the count
    from sign changes on a fine grid.
    """
    beta = (alpha * gamma - 1.0) / delta
    trace = alpha + gamma
    bound_a = 2.0 * (
        1.0 + abs(trace) * 2.0 * mass + np.sqrt(4.0 * abs(beta)) * 2.0 * mass
    ) / abs(delta)
    bound_b = 1.0 + max(abs(2.0 * trace * mass), abs(4.0 * beta * mass * mass)) / abs(delta)
    k_max = max(bound_a, bound_b)
    ks = np.linspace(1e-12, k_max, nk)
    values = delta * ks * ks + 2.0 * trace * ks * mass + 4.0 * beta * mass * mass
    signs = np.sign(values)
    nonzero = signs[signs != 0]
    changes = int(np.sum(nonzero[:-1] * nonzero[1:] < 0))
    interior_zeros = int(np.sum(values[1:-1] == 0.0))
    return changes + interior_zeros


def exact_positive_roots(params):
    """Positive roots above 1e-12 of the decay-rate polynomial at 4000 bits, ascending, as mpmath numbers.

    The discriminant is 4m^2((alpha-gamma)^2 + 4*det) with det = alpha*gamma
    - beta*delta within CONSTRAINT_TOL of 1, so positive and at least 16m^2.
    Its terms exceed that by at most about 1e300 for fields of magnitude up
    to 1e150 (1e300 for beta, delta and the mass), so 4000 bits leave it
    some 3000 correct bits. The roots come from the form that does not
    cancel: q = -(c1 + sign(c1)*sqrt(disc))/2, then q/delta and c0/q.
    """
    import mpmath

    with mpmath.workprec(4000):
        a, b, g, d, m = (
            mpmath.mpf(v) for v in (params.alpha, params.beta, params.gamma, params.delta, params.mass)
        )
        c1, c0 = 2 * (a + g) * m, 4 * b * m * m
        if d == 0:
            roots = [-c0 / c1]
        else:
            q = -(c1 + mpmath.sqrt(c1 * c1 - 4 * d * c0) * (1 if c1 >= 0 else -1)) / 2
            roots = [q / d, c0 / q]
        return sorted(r for r in roots if r > 1e-12)


def stack_params(sets):
    """One InteractionParams whose fields are arrays, entry i from sets[i]."""
    return InteractionParams(*(np.array([getattr(p, f) for p in sets]) for f in PARAM_FIELDS))


def extreme_sets(seed, draws):
    """Valid sets with |alpha|, |gamma| log-uniform in 1e-150..1e150 and |delta|, |beta|, mass in 1e-300..1e300.

    One set in five is put on the delta = 0 family with gamma = 1/alpha and
    the drawn beta; the others take beta from the constraint and are kept
    when it holds within CONSTRAINT_TOL with |beta| at most 1e300.
    """
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], (4, draws))
    a, g = sign[:2] * 10.0 ** rng.uniform(-150.0, 150.0, (2, draws))
    d, b0, m = 10.0 ** rng.uniform(-300.0, 300.0, (3, draws))
    d, b0 = sign[2] * d, sign[3] * b0
    zero = rng.uniform(size=draws) < 0.2
    g[zero], d[zero] = 1.0 / a[zero], 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        b = np.where(zero, b0, (a * g - 1.0) / d)
        valid = (np.abs(a * g - b * d - 1.0) <= CONSTRAINT_TOL) & (np.abs(b) <= 1e300)
    return [validate_params(*row, 0.0, mass) for *row, mass in zip(*(x[valid].tolist() for x in (a, b, g, d, m)))]
