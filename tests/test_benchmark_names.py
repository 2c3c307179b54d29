"""The names the benchmark traces and expects still resolve in pointfam.

perfbench/ is read as source with ast, never imported: the per-layer
metrics name "module.function" pairs that its tracer wraps, and the verify
workload expects a check named like each entry of VERIFY_EXPECTED. A
rename in src/ that the benchmark has not caught up with shows up here.
"""

import ast
import importlib
from pathlib import Path

from pointfam.suites import run_suite

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Traced names whose functions are gone from pointfam; each metric reads 0
# until the benchmark drops or renames it.
STALE = {"many_body.configuration_of", "verify.boundary_residual_3body"}


def _constant(path: Path, name: str):
    """The literal value assigned to a module-level name of a perfbench file."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def _resolves(dotted: str) -> bool:
    module, _, function = dotted.rpartition(".")
    return callable(getattr(importlib.import_module(f"pointfam.{module}"), function, None))


def test_traced_functions_exist_except_the_stale_set():
    traced = {function for _, function, *_ in _constant(PERFBENCH / "run.py", "LAYER_METRICS")}
    assert STALE <= traced
    assert {name for name in traced if not _resolves(name)} == STALE


def test_expected_verify_checks_are_run():
    names = [report.check_name for report in run_suite("all")[0]]
    missing = [want for want in _constant(PERFBENCH / "oracles.py", "VERIFY_EXPECTED")
               if not any(want in name for name in names)]
    assert not missing, f"run_suite('all') has no check named like {missing}"
