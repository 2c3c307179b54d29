"""The pytest configuration in pyproject.toml keeps a failing Hypothesis property readable."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_libcst_imports_under_the_configured_warning_filters(tmp_path):
    # Hypothesis imports libcst to explain a failure; a warning turned error there ends the run in
    # an INTERNALERROR instead of the example. A fresh pytest, so the import really happens here.
    pytest.importorskip("libcst")
    (tmp_path / "test_probe.py").write_text(
        "import warnings\n\n\n"
        "def test_probe():\n"
        "    import libcst  # noqa: F401\n\n\n"
        "def test_other_deprecations_still_fail():\n"
        "    warnings.warn('x', DeprecationWarning)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_probe.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
    assert "test_other_deprecations_still_fail" in proc.stdout
