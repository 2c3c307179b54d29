import numpy as np
import pytest

from pointfam.core import PARAM_FIELDS, InteractionParams

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


def stack_params(sets):
    """One InteractionParams whose fields are arrays, entry i from sets[i]."""
    return InteractionParams(*(np.array([getattr(p, f) for p in sets]) for f in PARAM_FIELDS))
